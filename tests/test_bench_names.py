"""The package names the benchmark harness looks up must keep existing.

``bench/spans.py`` wraps entry points by name and ``bench/child.py`` calls a
few more; a renamed or deleted function breaks only the slow benchmark
self-tests.  This reads ``bench/spans.py`` without importing it as a module
(nothing is written under ``bench/``) and resolves every name as its
``install`` does, without wrapping anything.
"""

import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# What bench/child.py's exhaustive sweep calls, by module.
CHILD_CALLS = (
    ("revsynth.gates", "enumerate_ci"),
    ("revsynth.gates", "enumerate_ch"),
    ("revsynth.mmd", "mmd_synthesize"),
    ("revsynth.hypercube", "hc_bidirectional"),
    ("revsynth.cayley", "distance"),
    ("revsynth.perm", "TruthVector"),
)


def test_every_traced_layer_resolves():
    missing = []
    for name, module, path, _hook in runpy.run_path(str(BENCH / "spans.py"))["LAYERS"]:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{name}: {module}.{path}")
    assert missing == []


def test_bench_inputs_name_what_the_cli_offers():
    # bench/workloads.py writes its inputs without importing revsynth, so it
    # keeps its own copies of the algorithm and strategy names.
    from revsynth import cli, decompose

    names = runpy.run_path(str(BENCH / "workloads.py"))
    assert names["ALGORITHMS"] == tuple(cli.SYNTHESIZERS)
    assert names["STRATEGIES"] == decompose.DECOMPOSE_STRATEGIES


def test_bench_copies_of_line_limits_match_the_library():
    # bench/workloads.py and bench/check.py run without revsynth, so they
    # keep their own line names and verification budget.
    from revsynth import decompose, gates

    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    check = runpy.run_path(str(BENCH / "check.py"))
    assert workloads["LINE_NAMES"] == gates.LINE_NAMES
    assert check["LINE_NAMES"] == gates.LINE_NAMES
    assert check["VERIFY_MAX_LINES"] == decompose.VERIFY_MAX_LINES


def test_child_calls_resolve():
    missing = [
        f"{module}.{attr}"
        for module, attr in CHILD_CALLS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
