"""Importing the package or its CLI loads no numpy; the numpy users load it.

Each check runs in a fresh interpreter (``sys.executable -c``) with the
package's ``src`` directory first on ``sys.path``, because the test process
itself has long since imported numpy.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(code: str, stdin: str = "") -> list[str]:
    """Run ``code`` in a fresh interpreter; return its stdout lines."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("module", ["revsynth", "revsynth.cli"])
def test_import_loads_no_numpy(module):
    assert run_python(f"import {module}\nprint('numpy' in sys.modules)") == ["False"]


def test_cli_import_loads_exactly_its_modules():
    # Every CLI process pays to import (and, with no bytecode cached, compile) these; a module
    # added here, or the numpy-backed ``elementary`` loaded eagerly, shows up as startup time.
    lines = run_python(
        "import revsynth.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'revsynth'))"
    )
    assert lines == [str(sorted(["revsynth"] + [f"revsynth.{name}" for name in (
        "cayley", "cli", "cost", "decompose", "gates", "hypercube", "mmd", "perm")]))]


def test_numpy_free_subcommands_load_no_numpy():
    lines = run_python(
        "from revsynth import cli\n"
        "assert cli.main(['synth', '--algo', 'hc-bi', '--out', '-']) == 0\n"
        "print('numpy' in sys.modules)",
        stdin="7 4 1 0 3 2 6 5\n",
    )
    assert lines[0] == ".n 3" and lines[-1] == "False"


def test_bfs_loads_numpy_on_first_use():
    lines = run_python(
        "from revsynth import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cli.main(['bfs', '--set', 'I', '--n', '2']) == 0\n"
        "print('numpy' in sys.modules)"
    )
    assert lines[0] == "generator set: I, lines: 2" and lines[-1] == "True"


# The package's public names; ``__all__`` is derived from its imports, so this
# pins what a new import (a helper module, ``types.ModuleType``) would add.
PUBLIC_NAMES = [
    "AncillaCircuit", "AncillaMode", "BfsResult", "Circuit", "CostReport",
    "DistanceHistogram", "GarbagePolicy", "Gate", "GeneratorSet", "HammingAuditReport",
    "QuantumGate", "TruthVector", "VerificationResult", "bfs", "build_unitary",
    "cost_report", "distance", "enumerate_ch", "enumerate_ci",
    "expand_circuit", "gate_cost", "hamming_distance_audit", "hc_bidirectional",
    "hc_synthesize", "mmd_synthesize", "parse_circuit", "split_one_borrowed",
    "synthesis_gate_bound", "toffoli", "verify_circuit_equivalence", "verify_elementary",
    "worst_case_qc", "x_root",
]


def test_every_public_name_resolves():
    lines = run_python(
        "import json, revsynth, types\n"
        "from revsynth import elementary\n"
        "missing = [name for name in revsynth.__all__ if not hasattr(revsynth, name)]\n"
        "modules = [n for n in revsynth.__all__ if isinstance(getattr(revsynth, n), types.ModuleType)]\n"
        "star = {}\n"
        "exec('from revsynth import *', star)\n"
        "lazy = ['QuantumGate', 'build_unitary', 'verify_elementary', 'x_root']\n"
        "same = all(getattr(revsynth, n) is getattr(elementary, n) for n in lazy)\n"
        "print(json.dumps([missing, sorted(set(revsynth.__all__) - set(star)), same,\n"
        "                  hasattr(revsynth, 'no_such_name'), sorted(revsynth.__all__), modules]))"
    )
    assert json.loads(lines[-1]) == [[], [], True, False, sorted(PUBLIC_NAMES), []]
