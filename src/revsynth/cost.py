"""Quantum-cost accounting for controlled-NOT-family gates.

Costs count the elementary quantum operations a gate expands into and depend
only on the gate size s (controls + target), the number m of negative
controls, and the garbage policy: how many helper lines the expansion may
consume.  Small gates (s <= 3) have fixed tabulated costs; from s = 4 the
zero-garbage cost is 2^s - 3 + 2m, and with one or s - 3 garbage lines the
linear forms 24s - 88/86 and 10s - 25/23 apply from s = 5 (the -88/-25
constants for all-positive gates, -86/-23 once any control is negative).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .gates import CACHE_SIZE, LABELS, Circuit, Gate
from .perm import check_lines


class GarbagePolicy(enum.Enum):
    """How many ancilla (garbage) lines a gate expansion may use."""

    ZERO = "0"
    ONE = "1"
    N_MINUS_THREE = "n-3"

    __hash__ = object.__hash__  # singletons compared by identity: skip Enum's name hash


def gate_cost(g: Gate, policy: GarbagePolicy = GarbagePolicy.ZERO) -> int:
    """Quantum cost of one gate under the given garbage policy."""
    return cost_of(g.size, g.num_negative, policy)


def cost_of(size: int, negatives: int, policy: GarbagePolicy) -> int:
    """Quantum cost from (gate size, negative-control count, policy) alone."""
    check_lines(size)  # a size-s gate spans s lines or more; refused before 2^s is formed
    if policy is not GarbagePolicy.ZERO and size < 5:
        raise ValueError(
            f"garbage policy {policy.value!r} is defined only for gate size >= 5, "
            f"got size {size}"
        )
    if not 0 <= negatives < size:
        raise ValueError(f"{negatives} negative controls impossible at size {size}")
    if policy is GarbagePolicy.ZERO:
        if size == 1:
            return 1
        if size == 2:
            # Negative-control CNOT is absent from the cost table; 2 covers
            # the NOT + CNOT pair realizing it.
            return 1 if negatives == 0 else 2
        if size == 3:
            return 5 if negatives <= 1 else 7
        return (1 << size) - 3 + 2 * negatives
    if policy is GarbagePolicy.ONE:
        return 24 * size - 88 if negatives == 0 else 24 * size - 86
    return 10 * size - 25 if negatives == 0 else 10 * size - 23


def synthesis_gate_bound(n: int) -> int:
    """Upper bound (n-1)*2^n + 1 on gates emitted by either synthesis."""
    return (n - 1) * check_lines(n) + 1


def worst_case_qc(
    n: int,
    graph: str,
    policy: GarbagePolicy,
    m: int | None = None,
) -> int:
    """Worst-case quantum cost of a synthesized circuit on n lines.

    The gate-count bound (n-1)*2^n + 1 is multiplied by :func:`cost_of` for
    a size-n library gate.  ``graph`` selects the library: "I" prices
    all-positive gates, "H" full-control mixed-polarity gates, for which the
    zero-garbage policy needs the negative-control count ``m`` (refused
    anywhere else) and the garbage policies price the costlier form.
    """
    if graph not in LABELS:
        raise ValueError(f"unknown graph {graph!r} (expected {' or '.join(map(repr, LABELS))})")
    zero = policy is GarbagePolicy.ZERO
    if zero and n < 2:
        raise ValueError("zero-garbage cost formula needs n >= 2")
    if (m is None) == (graph == "H" and zero):
        raise ValueError("graph H with zero garbage needs the negative-control count m, "
                         "and no other graph or policy takes one")
    negatives = 0 if graph == "I" else m if zero else 1
    # cost_of first: it refuses a bad n, m or policy size before n is shifted.
    return cost_of(n, negatives, policy) * synthesis_gate_bound(n)


@dataclass(frozen=True)
class CostReport:
    """Per-gate cost rows plus totals and bound comparisons for a circuit."""

    n: int
    policy: GarbagePolicy
    rows: tuple[tuple[int, int, int], ...]  # (size, negatives, cost)
    gate_count: int
    quantum_cost: int
    gate_bound: int
    qc_bound: int
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "lines": self.n,
            "policy": self.policy.value,
            "gates": [{"size": s, "negative_controls": m, "cost": c} for s, m, c in self.rows],
            "gate_count": self.gate_count,
            "quantum_cost": self.quantum_cost,
            "gate_count_bound": self.gate_bound,
            "quantum_cost_bound": self.qc_bound,
            "within_bounds": self.gate_count <= self.gate_bound
            and self.quantum_cost <= self.qc_bound,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [
            f"lines: {self.n}",
            f"garbage policy: {self.policy.value}",
            f"{'gate':>4}  {'size':>4}  {'neg':>3}  {'cost':>4}",
        ]
        suffix = {row: "  %4d  %3d  %4d" % row for row in set(self.rows)}  # each distinct row once
        lines.extend(["%4d" % i + suffix[row] for i, row in enumerate(self.rows, 1)])
        lines.append(f"gate count: {self.gate_count} (bound {self.gate_bound})")
        lines.append(f"quantum cost: {self.quantum_cost} (bound {self.qc_bound})")
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=CACHE_SIZE)  # a refused (gate, policy) raises and is never kept
def _row(g: Gate, policy: GarbagePolicy) -> tuple[int, int, int]:
    return g.size, g.num_negative, gate_cost(g, policy)


def cost_report(c: Circuit, policy: GarbagePolicy) -> CostReport:
    rows = tuple([_row(g, policy) for g in c.gates])
    # Cost never falls as negative controls are added, so the costliest gate
    # on n lines is the size-n gate with all n - 1 controls negative.
    bound, worst = synthesis_gate_bound(c.n), cost_of(c.n, c.n - 1, policy)
    notes = [f"quantum-cost bound prices {bound} gates at the costliest size-{c.n} cost {worst}"]
    if any(s == 2 and m == 1 for s, m, _ in rows):
        notes.append(
            "negative-control CNOT costed 2 (NOT + CNOT pair); "
            "not part of the tabulated gate set"
        )
    return CostReport(
        n=c.n,
        policy=policy,
        rows=rows,
        gate_count=len(rows),
        quantum_cost=sum(cost for _, _, cost in rows),
        gate_bound=bound,
        qc_bound=bound * worst,
        notes=tuple(notes),
    )
