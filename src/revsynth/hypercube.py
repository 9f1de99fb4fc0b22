"""Hypercube-walk synthesis over full-control mixed-polarity gates.

Every gate in this family swaps the two values that differ only in its
target bit, i.e. moves a permutation along one edge of the hypercube on
bit strings.  The synthesis walks the misplaced value at each position to
its home corner one bit at a time, least significant bit first, so each
gate puts at least one bit right and the cascade reaches the identity in
at most (n-1)*2^n + 1 gates.
"""

from __future__ import annotations

from .gates import Circuit, Gate
from .perm import TruthVector

RIGHT = "right"
LEFT = "left"


def hc_synthesize(f: TruthVector, order: str = RIGHT) -> Circuit:
    """Emit full-control gates whose cascade maps ``f`` to identity.

    ``order`` selects the scan direction: "right" fixes positions from
    2^n - 1 down to 1, "left" from 0 up to 2^n - 2.  At each position the
    differing bits of the current value are corrected from least to most
    significant; every gate's control polarities copy the value's current
    bits on all other lines, so the gate exchanges exactly that value and
    its target-bit partner.
    """
    if order not in (RIGHT, LEFT):
        raise ValueError(f"unknown order {order!r} (expected 'right' or 'left')")
    return _circuit(f.n, _scan(f, order))


def hc_bidirectional(f: TruthVector) -> Circuit:
    """The smaller of the right-order and left-order cascades (tie: right)."""
    right = _scan(f, RIGHT)
    left = _scan(f, LEFT)
    return _circuit(f.n, right if len(right) <= len(left) else left)


def _scan(f: TruthVector, order: str) -> list[tuple[int, int, int]]:
    """The cascade of :func:`hc_synthesize` as (target, control_mask, value_mask)."""
    n = f.n
    size = 1 << n
    entries, where = list(f.entries), list(f.where)

    gates: list[tuple[int, int, int]] = []
    full = size - 1
    scan = range(size - 1, 0, -1) if order == RIGHT else range(size - 1)
    for i in scan:
        v = entries[i]
        if v == i:
            continue
        for j in range(n):
            bit = 1 << j
            if (v ^ i) & bit:
                gates.append((j, full ^ bit, v & ~bit))
                # The gate swaps v and partner.  The only gate action outside
                # fold_into/fold_words: swapping inline measured faster.
                partner = v ^ bit
                other = where[partner]
                entries[i], entries[other] = partner, v
                where[partner], where[v] = i, other
                v = partner

    if entries != list(range(size)):
        raise RuntimeError("synthesis failed to reach the identity")
    return gates


def _circuit(n: int, gates: list[tuple[int, int, int]]) -> Circuit:
    return Circuit(n, tuple(Gate(n, *g) for g in gates))
