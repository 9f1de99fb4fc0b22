"""Transformation-based synthesis over all-positive controlled gates.

Scans the truth vector row by row and appends gates that rewrite the current
output column until it equals the identity, never disturbing rows already
fixed.  The emitted cascade maps the input function to the identity; read in
reverse it realizes the function from the identity.  Gate count never exceeds
(n-1)*2^n + 1.

The working function is held as n bit planes (bit i of plane c is bit c of
row i's value).  A step is two runs of gates with equal masks, so each
non-empty run costs one ``firing_set`` (one big-int AND per control, over all
2^n rows at once) and then one XOR per flipped bit.
"""

from __future__ import annotations

import functools

from .gates import Circuit, Gate, family_gate, firing_set, input_planes, to_planes
from .perm import TruthVector

# The self-check's target, kept for the last n: `enumerate` synthesizes every function at one n.
_identity_planes = functools.lru_cache(maxsize=1)(input_planes)


def mmd_synthesize(f: TruthVector) -> Circuit:
    """Emit all-positive-control gates whose cascade maps ``f`` to identity.

    Rows are fixed in order.  For each row i with value v != i at the start
    of the step, bits present in i but missing in v are switched on (one
    gate per bit, ascending target, controls on v's set bits), then bits
    present in v but absent in i are switched off (ascending target,
    controls on the set bits of i).  Rows below i can never match those
    controls, so fixed rows stay fixed.  Row 0 thus gets one NOT gate for
    every set bit of f(0).

    All of a step's controls come from the value as the step began, not from
    the partly rewritten value; the per-gate alternative yields the same
    exhaustive n=3 gate-count distribution but shorter cascades on the known
    extremal inputs (16 and 41 instead of the bound-attaining 17 and 49).
    """
    n = f.n
    size = 1 << n
    planes, full = to_planes(f.entries, n), (1 << size) - 1
    gate = family_gate("I", n)
    gates: list[Gate] = []

    for i in range(size):
        v = 0
        for plane in reversed(planes):  # row i's value, top bit first
            v = v << 1 | plane >> i & 1
        if v == i:
            continue
        # Bits to switch on, controlled on v, then bits to switch off, controlled on i; the
        # second run's firing set is taken after the first run's flips.
        for pattern, flips in ((v, i & ~v), (i, v & ~i)):
            if flips:
                fire = firing_set(planes, full, pattern, pattern)
                while flips:
                    j = (flips & -flips).bit_length() - 1
                    planes[j] ^= fire
                    gates.append(gate(j, pattern))
                    flips &= flips - 1

    if planes != _identity_planes(n):
        raise RuntimeError("synthesis failed to reach the identity")
    return Circuit(n, tuple(gates))
