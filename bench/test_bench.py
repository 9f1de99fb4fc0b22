"""Self-tests of the benchmark: checker, arithmetic, and a tiny smoke run.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import check
import run
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


# -- checker -----------------------------------------------------------------------

# f = [1 0 3 2] is a NOT on line a; a single t1 a maps it to the identity.
SYNTH_SPEC = {"kind": "synth", "algo": "mmd", "entries": [1, 0, 3, 2]}


def test_checker_accepts_a_correct_cascade():
    problems, gates = check.check_synth(SYNTH_SPEC, ".n 2\nt1 a\n")
    assert problems == [] and gates == 1


@pytest.mark.parametrize(
    "text, reason",
    [
        (".n 2\nt1 b\n", "identity"),            # wrong target
        (".n 2\nt1 a\nt1 a\n", "identity"),      # extra gate undoes the first
        (".n 2\nt2 b',a\n", "negative control"),  # mmd library holds no negated controls
        (".n 3\nt1 a\n", "lines"),               # wrong width
        (".n 2\nt2 a\n", "unparsable"),          # size and operand count disagree
    ],
)
def test_checker_rejects_a_corrupted_cascade(text, reason):
    problems, _ = check.check_synth(SYNTH_SPEC, text)
    assert any(reason in p for p in problems), problems


def test_checker_enforces_the_gate_bound_and_full_control_library():
    spec = {"kind": "synth", "algo": "hc-right", "entries": [0, 1, 2, 3]}
    ok, _ = check.check_synth(spec, ".n 2\n" + "t2 a,b\n" * 4)
    assert ok == []
    too_many, _ = check.check_synth(spec, ".n 2\n" + "t2 a,b\n" * 6)
    assert any("bound" in p for p in too_many)
    not_full, _ = check.check_synth(spec, ".n 2\nt1 a\nt1 a\n")
    assert any("full-control" in p for p in not_full)


def _decompose_case(strategy):
    """A t4 on four lines, expanded by hand into the zeroed chain."""
    spec = {"kind": "decompose", "strategy": strategy, "circuit": ".n 4\nt4 a,b',c,d\n"}
    expansion = ".n 5\nt3 a,b',e\nt3 e,c,d\nt3 a,b',e\n# verified: 16 inputs, ancilla=zeroed\n"
    cost = ("lines: 5\ngarbage policy: 0\ngate  size  neg  cost\n"
            "   1     3    1     5\n   2     3    0     5\n   3     3    1     5\n"
            "gate count: 3 (bound 129)\nquantum cost: 15 (bound 1462)\n")
    return spec, expansion, cost


def test_checker_accepts_a_correct_expansion():
    spec, expansion, cost = _decompose_case("zeroed")
    problems, gates = check.check_decompose(spec, expansion, cost, "s")
    assert problems == [] and gates == 3


def test_checker_rejects_a_broken_expansion():
    spec, expansion, cost = _decompose_case("zeroed")
    wrong_target = expansion.replace("t3 e,c,d", "t3 e,c,a")
    assert any("principal" in p for p in check.check_decompose(spec, wrong_target, cost, "s")[0])
    unrestored = expansion.replace("t3 a,b',e\n#", "#")
    assert any("ancilla" in p for p in check.check_decompose(spec, unrestored, cost, "s")[0])
    bad_cost = cost.replace("quantum cost: 15", "quantum cost: 16")
    assert any("cost" in p for p in check.check_decompose(spec, expansion, bad_cost, "s")[0])
    bad_stamp = expansion.replace("16 inputs", "32 inputs")
    assert any("stamp" in p for p in check.check_decompose(spec, bad_stamp, cost, "s")[0])


def test_checker_catches_a_helper_that_is_only_right_from_zero():
    # The zeroed chain is not a borrowed-ancilla network: with the helper
    # sampled at 1 the principal outputs go wrong, and the stamp is wrong.
    spec, expansion, cost = _decompose_case("borrowed")
    problems, _ = check.check_decompose(spec, expansion, cost, "s")
    assert any("principal" in p for p in problems)
    assert any("stamp" in p for p in problems)


def _sweep(mmd_hist, bi_hist, distance):
    """A sweep result with the given histograms and one distance for all."""
    mmd = bytes(k for k, c in sorted(mmd_hist.items()) for _ in range(c))
    bi = bytes(k for k, c in sorted(bi_hist.items()) for _ in range(c))
    dist = bytes([distance] * len(mmd))
    return {"mmd": mmd.hex(), "bi": bi.hex(), "dist_i": dist.hex(), "dist_h": dist.hex()}, dist


def test_checker_accepts_the_published_histograms():
    sweep, dist = _sweep(check.DIST_MMD, check.DIST_BIDIRECTIONAL, 0)
    assert check.check_sweep(3, sweep, dist, dist) == ([], 0)


def test_checker_rejects_a_wrong_histogram():
    wrong = dict(check.DIST_MMD)
    wrong[17] -= 1
    wrong[16] += 1
    sweep, dist = _sweep(wrong, check.DIST_BIDIRECTIONAL, 0)
    problems, bad = check.check_sweep(3, sweep, dist, dist)
    assert any("mmd histogram" in p for p in problems) and bad == 40320


def test_checker_rejects_a_heuristic_shorter_than_the_exact_distance():
    sweep, dist = _sweep(check.DIST_MMD, check.DIST_BIDIRECTIONAL, 3)
    problems, bad = check.check_sweep(3, sweep, dist, dist)
    shorter = sum(1 for k, c in check.DIST_MMD.items() if k < 3 for _ in range(c))
    assert problems and bad >= shorter


def test_checker_rejects_distances_that_disagree_with_the_dump():
    sweep, dist = _sweep(check.DIST_MMD, check.DIST_BIDIRECTIONAL, 0)
    problems, bad = check.check_sweep(3, sweep, bytes([1] * 40320), dist)
    assert problems and bad == 40320


def test_checker_rejects_a_wrong_bfs_histogram():
    rows = "".join(f"distance {d:>3}: {c}\n" for d, c in sorted(check.DIST_OPTIMAL_CI.items()))
    stdout = f"vertices: 40320\n{rows}diameter: 8\nbipartite: no\n"
    body = bytes(d for d, c in sorted(check.DIST_OPTIMAL_CI.items()) for _ in range(c))
    dump = b"RSYNBFS\x00" + bytes([3, ord("I")]) + bytes(6) + body
    spec = {"kind": "bfs", "label": "I", "n": 3}
    problems, _ = check.check_bfs(spec, stdout, dump)
    # No odd walk was printed, so only that is missing.
    assert problems == ["no odd closed walk printed"]
    shifted = stdout.replace("distance   8: 577", "distance   8: 576")
    problems, _ = check.check_bfs(spec, shifted, dump)
    assert any("optimal distribution" in p for p in problems)


def test_checker_own_lehmer_rank_and_parity():
    assert check.lehmer_rank([0, 1, 2]) == 0
    assert check.lehmer_rank([2, 1, 0]) == 5
    assert check.lehmer_rank(list(range(7, -1, -1))) == 40319
    assert check.parity([1, 0, 2]) == 1
    assert check.parity([1, 2, 0]) == 0


# -- arithmetic --------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7], 90) == 7
    assert run.percentile([1, 2, 3, 4], 50) == 2
    # Exactly ten samples lie beyond p90 of a hundred.
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    # cli [0, 100) holds parse [10, 30) and mmd [40, 90); mmd holds two
    # gate spans [50, 55) and [60, 70).
    keys = ["cli", "parse", "mmd", "gate", "gate"]
    starts = [0, 10, 40, 50, 60]
    ends = [100, 30, 90, 55, 70]
    parents = [-1, 0, 0, 2, 2]
    table = spans.self_times(keys, starts, ends, parents)
    assert table["cli"] == [1, 100, 30]
    assert table["parse"] == [1, 20, 20]
    assert table["mmd"] == [1, 50, 35]
    assert table["gate"] == [2, 15, 15]


def test_tracer_records_nested_spans_and_hooks():
    tracer = spans.Tracer()
    seen = []

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner, lambda c, args, result, parent: seen.append(parent))
    traced_outer = tracer.wrap("outer", lambda x: traced_inner(x) * 2)
    assert traced_outer(1) == 4
    summary = tracer.summary()
    assert summary["outer"][0] == summary["inner"][0] == 1
    assert summary["outer"][1] >= summary["inner"][1]
    assert summary["outer"][2] == summary["outer"][1] - summary["inner"][1]
    assert seen == ["outer"]


def test_workloads_are_seeded(tmp_path):
    a = workloads.build("decompose-verify", 7, False, str(tmp_path / "a"))
    b = workloads.build("decompose-verify", 7, False, str(tmp_path / "b"))
    c = workloads.build("decompose-verify", 8, False, str(tmp_path / "c"))
    checks = lambda job: [r["check"] for r in job["requests"]]
    assert checks(a) == checks(b) != checks(c)
    assert len(a["requests"]) >= run.MIN_LATENCY_SAMPLES
    n, gates, _ = check.parse_tfc(workloads.random_cascade(random.Random(1), 9, 5))
    assert n == 9 and len(gates) == 5 and gates[0].size == 9


# -- smoke run ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_the_package(tmp_path):
    # A directory holding only the benchmark and its description.
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
