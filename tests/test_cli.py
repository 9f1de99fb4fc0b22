"""Exercise every subcommand through main(argv) plus one real subprocess."""

import dataclasses
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from revsynth import cli, mmd
from revsynth.cli import main
from revsynth.gates import Circuit, Gate, parse_circuit
from revsynth.perm import TruthVector


@pytest.fixture
def example_vector(tmp_path):
    path = tmp_path / "pi.tv"
    path.write_text("# example permutation\n7 4 1 0 3 2 6 5\n")
    return path


def test_synth_writes_verified_circuit(tmp_path, example_vector):
    out = tmp_path / "pi.tfc"
    assert main(["synth", "--algo", "hc-right", "--in", str(example_vector),
                 "--out", str(out)]) == 0
    circuit = parse_circuit(out.read_text())
    assert len(circuit) == 8
    assert circuit.apply(TruthVector([7, 4, 1, 0, 3, 2, 6, 5])).is_identity()


def test_synth_from_identity_direction(tmp_path, example_vector):
    out = tmp_path / "rev.tfc"
    assert main(["synth", "--algo", "mmd", "--in", str(example_vector),
                 "--out", str(out), "--direction", "from-identity"]) == 0
    circuit = parse_circuit(out.read_text())
    assert tuple(circuit.apply(TruthVector.identity(3))) == (7, 4, 1, 0, 3, 2, 6, 5)


def test_synth_output_is_deterministic(tmp_path, example_vector):
    a, b = tmp_path / "a.tfc", tmp_path / "b.tfc"
    main(["synth", "--algo", "hc-bi", "--in", str(example_vector), "--out", str(a)])
    main(["synth", "--algo", "hc-bi", "--in", str(example_vector), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_apply_defaults_to_identity(tmp_path, capsys):
    circ = tmp_path / "c.tfc"
    circ.write_text(".n 2\nt1 a\nt2 a,b\n")
    assert main(["apply", "--circuit", str(circ)]) == 0
    out = capsys.readouterr().out.strip()
    got = TruthVector([int(x) for x in out.split()])
    expected = parse_circuit(circ.read_text()).apply(TruthVector.identity(2))
    assert got == expected


def test_apply_empty_circuit_echoes_input(tmp_path, capsys, example_vector):
    circ = tmp_path / "empty.tfc"
    circ.write_text(".n 3\n")
    assert main(["apply", "--circuit", str(circ), "--in", str(example_vector)]) == 0
    assert capsys.readouterr().out.strip() == "7 4 1 0 3 2 6 5"


def test_cost_text_and_json(tmp_path, capsys):
    circ = tmp_path / "c.tfc"
    circ.write_text(".n 3\nt1 a\nt3 b,c,a\nt3 a,c,b\nt3 b,c,a\n")
    assert main(["cost", "--circuit", str(circ), "--garbage", "0"]) == 0
    text = capsys.readouterr().out
    assert "gate count: 4" in text
    assert "quantum cost: 16" in text
    assert main(["cost", "--circuit", str(circ), "--garbage", "0",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["quantum_cost"] == 16


def test_cost_policy_size_mismatch_is_domain_error(tmp_path, capsys):
    circ = tmp_path / "c.tfc"
    circ.write_text(".n 3\nt3 a,b,c\n")
    assert main(["cost", "--circuit", str(circ), "--garbage", "1"]) == 1
    assert "size >= 5" in capsys.readouterr().err


def test_enumerate_two_lines(tmp_path, capsys):
    csv = tmp_path / "hist.csv"
    assert main(["enumerate", "--n", "2", "--algo", "mmd", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "permutations: 24" in out
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "gates,count"
    counts = {int(k): int(v) for k, v in (r.split(",") for r in rows[1:])}
    assert sum(counts.values()) == 24
    assert counts[0] == 1


def test_enumerate_three_lines_bidirectional_average(tmp_path, capsys):
    csv = tmp_path / "bi.csv"
    assert main(["enumerate", "--n", "3", "--algo", "hc-bi", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "average gates: 7.71" in out
    rows = csv.read_text().strip().splitlines()
    counts = {int(k): int(v) for k, v in (r.split(",") for r in rows[1:])}
    assert counts[14] == 9  # the bidirectional maximum, hit by 9 permutations
    assert sum(counts.values()) == 40320


def test_enumerate_rejects_large_n(capsys):
    assert main(["enumerate", "--n", "4", "--algo", "mmd"]) == 1
    assert "desk scale" in capsys.readouterr().err


def test_enumerate_shares_the_bfs_refusal(capsys):
    for n in ("4", "30"):
        assert main(["enumerate", "--n", n, "--algo", "mmd"]) == 1
        enumerate_err = capsys.readouterr().err
        assert main(["bfs", "--set", "I", "--n", n]) == 1
        assert capsys.readouterr().err == enumerate_err


def test_enumerate_rejects_zero_lines(capsys):
    assert main(["enumerate", "--n", "0", "--algo", "mmd"]) == 1
    assert capsys.readouterr().err == "error: line count must be >= 1, got 0\n"


def test_enumerate_json_prints_only_json(capsys):
    assert main(["enumerate", "--n", "2", "--algo", "mmd", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["algorithm"] == "mmd" and report["n"] == 2
    assert sum(report["histogram"].values()) == 24
    assert report["histogram"]["0"] == 1


def test_bfs_with_csv_and_dump(tmp_path, capsys):
    csv = tmp_path / "h2.csv"
    dump = tmp_path / "h2.bin"
    assert main(["bfs", "--set", "H", "--n", "2", "--csv", str(csv),
                 "--dump", str(dump), "--audit"]) == 0
    out = capsys.readouterr().out
    assert "bipartite: yes" in out
    assert "0 violations" in out
    assert csv.read_text().startswith("distance,count\n0,1\n1,4\n")
    blob = dump.read_bytes()
    assert blob[:8] == b"RSYNBFS\x00"
    assert blob[8] == 2 and blob[9:10] == b"H"
    assert len(blob) == 16 + 24


def test_bfs_prints_the_odd_walk_in_full(capsys):
    assert main(["bfs", "--set", "I", "--n", "2"]) == 0
    assert capsys.readouterr().out == (
        "generator set: I, lines: 2\n"
        "vertices: 24\n"
        "distance   0: 1\n"
        "distance   1: 4\n"
        "distance   2: 9\n"
        "distance   3: 7\n"
        "distance   4: 3\n"
        "diameter: 4\n"
        "average distance: 2.29\n"
        "bipartite: no\n"
        "odd closed walk (5 edges):\n"
        "  [0 1 2 3]\n"
        "  [1 0 3 2]\n"
        "  [1 0 2 3]\n"
        "  [3 2 0 1]\n"
        "  [2 3 0 1]\n"
        "  [0 1 2 3]\n"
    )


def test_bfs_audit_refused_for_set_i(tmp_path, capsys):
    # The audit sweeps the full-control graph only; under I it would print
    # H's sandwich line.
    csv = tmp_path / "i2.csv"
    assert main(["bfs", "--set", "I", "--n", "2", "--csv", str(csv), "--audit"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --audit sweeps the full-control graph H; got --set I\n"
    assert not csv.exists()


def test_bfs_rejects_sixteen_factorial(capsys):
    assert main(["bfs", "--set", "I", "--n", "4"]) == 1
    assert "20922789888000" in capsys.readouterr().err


def test_bfs_refusal_is_one_short_line(capsys):
    started = time.perf_counter()
    assert main(["bfs", "--set", "I", "--n", "10"]) == 1
    # Refused before the 5,120-member generator set is built.
    assert time.perf_counter() - started < 0.2
    assert capsys.readouterr().err == (
        "error: BFS over 10 lines needs (2^10)! >= 16! = 20922789888000 vertices; "
        "only n <= 3 (40320 vertices) is within desk scale\n"
    )


def test_internal_error_exits_three(monkeypatch, capsys, example_vector):
    monkeypatch.setattr(cli, "mmd_synthesize", lambda f: Circuit(f.n))
    assert main(["synth", "--algo", "mmd", "--in", str(example_vector)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: ")
    assert captured.err.count("\n") == 1


def test_synthesis_self_check_failure_exits_three(monkeypatch, capsys, example_vector):
    monkeypatch.setattr(mmd, "firing_set", lambda *args: 0)  # every gate fires on no row
    assert main(["synth", "--algo", "mmd", "--in", str(example_vector)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: internal: synthesis failed to reach the identity\n")


def test_decompose_verify_failure_exits_three(tmp_path, monkeypatch, capsys):
    circ = tmp_path / "t6.tfc"
    circ.write_text(".n 6\nt6 a,b,c,d,e,f\n")
    real_expand = cli.expand_circuit

    def drop_last_gate(circuit, strategy):
        expansion = real_expand(circuit, strategy)
        gates = expansion.gates
        return dataclasses.replace(expansion, gates=Circuit(gates.n, gates.gates[:-1]))

    monkeypatch.setattr(cli, "expand_circuit", drop_last_gate)
    assert main(["decompose", "--circuit", str(circ), "--strategy", "zeroed", "--verify"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: internal: expansion failed verification at input 3\n")


def test_out_of_memory_exits_three(tmp_path):
    # The 2^24-entry identity does not fit under a 1 GB address-space cap, set in the child only.
    resource = pytest.importorskip("resource")
    circ = tmp_path / "wide.tfc"
    circ.write_text(".n 24\nt1 a\n")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from revsynth.cli import main; sys.exit(main(sys.argv[1:]))",
         src, "apply", "--circuit", str(circ)],
        preexec_fn=cap, capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: internal: out of memory\n")


def test_synth_mmd_at_twelve_lines_is_fast(tmp_path):
    # Synthesis plus the re-verify on a random 12-line function.  Measured 0.72-0.94 s when both
    # swapped value pairs with fold_into, 0.13-0.22 s on bit planes (CPython 3.11, 2-vCPU Xeon);
    # the bound sits between.
    vec, out = tmp_path / "f12.tv", tmp_path / "f12.tfc"
    vec.write_text(" ".join(map(str, random.Random(12).sample(range(4096), 4096))) + "\n")
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        assert main(["synth", "--algo", "mmd", "--in", str(vec), "--out", str(out)]) == 0
        timings.append(time.perf_counter() - started)
    assert min(timings) < 0.45, timings


@pytest.mark.parametrize("algo,name", [
    ("mmd", "mmd_synthesize"),
    ("hc-right", "hc_synthesize"),
    ("hc-left", "hc_synthesize"),
    ("hc-bi", "hc_bidirectional"),
])
def test_synthesizers_are_looked_up_at_call_time(monkeypatch, capsys, example_vector, algo, name):
    # A tracer wraps these module attributes by name; synth must run the wrapper.
    calls = []
    real = getattr(cli, name)

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(cli, name, counting)
    assert main(["synth", "--algo", algo, "--in", str(example_vector)]) == 0
    assert len(calls) == 1
    assert calls[0] == {"hc-right": ("right",), "hc-left": ("left",)}.get(algo, ())
    assert capsys.readouterr().out.startswith(".n 3\n")


def test_decompose_beyond_line_limit_names_ancilla(tmp_path, capsys):
    circ = tmp_path / "t22.tfc"
    circ.write_text(".n 22\nt22 " + ",".join("abcdefghijklmnopqrstuv") + "\n")
    assert main(["decompose", "--circuit", str(circ), "--strategy", "zeroed"]) == 1
    err = capsys.readouterr().err
    assert "19 ancilla lines" in err
    assert "limit is 24 lines" in err


def test_decompose_with_stamp(tmp_path):
    circ = tmp_path / "big.tfc"
    circ.write_text(".n 5\nt5 a,b',c,d',e\nt1 a\n")
    out = tmp_path / "expanded.tfc"
    assert main(["decompose", "--circuit", str(circ), "--strategy", "zeroed",
                 "--verify", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("# verified: 32 inputs, ancilla=zeroed\n")
    expansion = parse_circuit(text)
    assert expansion.n == 7  # two zeroed helpers
    assert all(g.size <= 3 for g in expansion.gates)


def test_decompose_borrowed_counts_all_inputs(tmp_path):
    circ = tmp_path / "big.tfc"
    circ.write_text(".n 5\nt5 a,b,c,d,e\n")
    out = tmp_path / "expanded.tfc"
    assert main(["decompose", "--circuit", str(circ), "--strategy", "borrowed",
                 "--verify", "--out", str(out)]) == 0
    assert out.read_text().endswith("# verified: 128 inputs, ancilla=borrowed\n")


def test_verify_elementary_passes(capsys):
    assert main(["verify-elementary"]) == 0
    out = capsys.readouterr().out
    assert "PASS v_squared_is_x" in out
    assert "FAIL" not in out


def test_missing_file_is_domain_error(tmp_path, capsys):
    assert main(["apply", "--circuit", str(tmp_path / "absent.tfc")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_vector_file_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.tv"
    bad.write_text("1 1 2 3\n")
    assert main(["synth", "--algo", "mmd", "--in", str(bad)]) == 1
    assert "occurs twice" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--algo", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_entry_point_subprocess(tmp_path):
    vec = tmp_path / "f.tv"
    vec.write_text("1 0 3 2 5 7 4 6\n")
    proc = subprocess.run(
        [sys.executable, "-m", "revsynth.cli", "synth", "--algo", "mmd",
         "--in", str(vec), "--out", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ".n 3"
    assert len(proc.stdout.strip().splitlines()) == 5  # header + 4 gates


# Runs each argv of the JSON list argv[2] through cli.main in this one
# interpreter and prints [exit code, stdout, stderr] per call as JSON.
CALL_RUNNER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from revsynth import cli
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run_calls(calls: list[list[str]]) -> list[list]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", CALL_RUNNER, src, json.dumps(calls)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_reused_parser_answers_like_a_fresh_one(tmp_path, example_vector):
    bad = tmp_path / "bad.tv"
    bad.write_text("1 1 2 3\n")
    circ = tmp_path / "c.tfc"
    circ.write_text(".n 3\nt3 a,b',c\nt1 a\n")
    calls = [
        ["synth", "--algo", "hc-bi", "--in", str(example_vector), "--direction", "from-identity"],
        ["synth", "--algo", "nonsense"],
        ["synth", "--algo", "mmd", "--in", str(bad)],
        ["cost", "--circuit", str(circ), "--format", "json"],
        ["bfs", "--set", "I", "--n", "2"],
        ["synth", "--algo", "hc-bi", "--in", str(example_vector)],
    ]
    # The text boundary's caches are warm on each second run: decompose, cost
    # and apply parse the same circuit twice, cost prices the same gates twice.
    wide = tmp_path / "wide.tfc"
    wide.write_text(".n 7\nt6 a,b',c,d,e,g\nt7 a',b,c,d,e,f',g\nt5 c,d',e,f,a\nt6 a,b',c,d,e,g\n")
    broken = tmp_path / "broken.tfc"
    broken.write_text(".n 7\nt6 a,b',c,d,e,g\nt2 a,h\n")
    outputs = [tmp_path / f"wide-{k}.tfc" for k in range(2)]
    for out in outputs:
        calls += [
            ["decompose", "--circuit", str(wide), "--strategy", "one-garbage", "--verify",
             "--out", str(out)],
            ["cost", "--circuit", str(out), "--garbage", "0"],
            ["cost", "--circuit", str(wide), "--garbage", "n-3", "--format", "json"],
            ["apply", "--circuit", str(wide)],
            ["cost", "--circuit", str(broken)],
        ]
    in_sequence = _run_calls(calls)
    assert [rc for rc, _, _ in in_sequence] == [0, 2, 1, 0, 0, 0] + [0, 0, 0, 0, 1] * 2
    assert in_sequence[0][1] != in_sequence[5][1]  # the --direction default came back
    assert in_sequence[10][2] == "error: line 3: unknown line name 'h'\n"
    assert in_sequence[6:11] == in_sequence[11:16]
    written = [out.read_text() for out in outputs]
    assert written[0] == written[1] and "# verified: " in written[0]
    for argv, seen in zip(calls, in_sequence):
        assert seen == _run_calls([argv])[0], argv
    assert [out.read_text() for out in outputs] == written  # the fresh runs wrote the same


def test_warm_synth_builds_no_gate(tmp_path, monkeypatch):
    # Every emitted gate is a shared generating-set member once the sets for
    # n exist, so a repeated synth call builds none, parse to text included.
    rng = random.Random(3)
    calls = []
    for n in range(3, 11):
        path = tmp_path / f"f{n}.tv"
        path.write_text(TruthVector(rng.sample(range(1 << n), 1 << n)).to_text())
        for algo in cli.SYNTHESIZERS:
            for direction in ("to-identity", "from-identity"):
                calls.append(["synth", "--algo", algo, "--in", str(path),
                              "--out", str(tmp_path / "out.tfc"), "--direction", direction])
    for argv in calls:  # warm: the generating sets and the operand table are built here
        assert main(argv) == 0
    built = 0
    init = Gate.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(Gate, "__init__", counting)
    Gate(3, 0)
    assert built == 1  # the wrapper counts
    for argv in calls:
        assert main(argv) == 0
    assert built == 1
