"""Hypercube-walk synthesis over full-control mixed-polarity gates.

Every gate in this family swaps the two values that differ only in its
target bit, i.e. moves a permutation along one edge of the hypercube on
bit strings.  The synthesis walks the misplaced value at each position to
its home corner one bit at a time, least significant bit first, so each
gate puts at least one bit right and the cascade reaches the identity in
at most (n-1)*2^n + 1 gates.
"""

from __future__ import annotations

import itertools

from .gates import Circuit, family_gate
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
    return _circuit(f.n, min(_scan(f, RIGHT), _scan(f, LEFT), key=len))  # min keeps the first


def _scan(f: TruthVector, order: str) -> list[tuple[int, int]]:
    """The cascade of :func:`hc_synthesize` as :func:`family_gate` (target, pattern) pairs."""
    n = f.n
    size = 1 << n
    entries, where = list(f.entries), list(f.where)

    gates: list[tuple[int, int]] = []
    scan = range(size - 1, 0, -1) if order == RIGHT else range(size - 1)
    for i in scan:
        v = entries[i]
        if v == i:
            continue
        differ = v ^ i
        while differ:  # the differing bits, lowest first
            bit = differ & -differ
            differ ^= bit
            gates.append((bit.bit_length() - 1, v & ~bit))
            # The gate swaps v and partner, as Circuit.apply swaps a
            # full-control gate: inline here because it measured faster.
            partner = v ^ bit
            other = where[partner]
            entries[i], entries[other] = partner, v
            where[partner], where[v] = i, other
            v = partner

    if entries != list(range(size)):
        raise RuntimeError("synthesis failed to reach the identity")
    return gates


def _circuit(n: int, pairs: list[tuple[int, int]]) -> Circuit:
    gate = family_gate("H", n)
    return Circuit(n, tuple(itertools.starmap(gate, pairs)))
