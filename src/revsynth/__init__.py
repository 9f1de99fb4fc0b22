"""Reversible circuit synthesis, costing, decomposition, and graph analysis.

The package turns a permutation of {0, ..., 2^n - 1} (a reversible n-line
function) into a gate cascade two different ways, prices cascades under a
quantum-cost model with three garbage policies, expands wide controlled
gates into verified Toffoli-sized networks, and computes exact distance
tables over the Cayley graphs the two gate libraries induce on the
symmetric group.
"""

from types import ModuleType as _ModuleType  # private, or it would be in __all__

from .cayley import (
    BfsResult,
    DistanceHistogram,
    HammingAuditReport,
    bfs,
    distance,
    hamming_distance_audit,
)
from .cost import (
    CostReport,
    GarbagePolicy,
    cost_report,
    gate_cost,
    synthesis_gate_bound,
    worst_case_qc,
)
from .decompose import (
    AncillaCircuit,
    AncillaMode,
    VerificationResult,
    expand_circuit,
    split_one_borrowed,
    verify_circuit_equivalence,
)
from .gates import (
    Circuit,
    Gate,
    GeneratorSet,
    enumerate_ch,
    enumerate_ci,
    parse_circuit,
    toffoli,
)
from .hypercube import hc_bidirectional, hc_synthesize
from .mmd import mmd_synthesize
from .perm import TruthVector

__version__ = "0.1.0"

# The numpy-backed elementary checks, loaded on first use by ``__getattr__``.
_LAZY = ("QuantumGate", "build_unitary", "verify_elementary", "x_root")

# Every name imported above that is not a submodule, plus the lazy ones.
__all__ = sorted([name for name, value in globals().items() if not name.startswith("_")
                  and not isinstance(value, _ModuleType)] + list(_LAZY))


def __getattr__(name: str):
    """The numpy-backed elementary checks load on first use (PEP 562)."""
    if name in _LAZY:
        from . import elementary

        return getattr(elementary, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
