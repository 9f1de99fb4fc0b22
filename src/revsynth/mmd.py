"""Transformation-based synthesis over all-positive controlled gates.

Scans the truth vector row by row and appends gates that rewrite the current
output column until it equals the identity, never disturbing rows already
fixed.  The emitted cascade maps the input function to the identity; read in
reverse it realizes the function from the identity.  Gate count never exceeds
(n-1)*2^n + 1.
"""

from __future__ import annotations

from .gates import Circuit, Gate, family_gate, fold_into
from .perm import TruthVector


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
    entries, where = list(f.entries), list(f.where)
    gate = family_gate("I", n)
    gates: list[Gate] = []

    for i in range(size):
        v = entries[i]
        if v == i:
            continue
        step = len(gates)
        gates += [gate(j, v) for j in range(n) if (i & ~v) >> j & 1]  # bits to switch on
        gates += [gate(k, i) for k in range(n) if (v & ~i) >> k & 1]  # then off
        fold_into(entries, where, gates[step:])

    if entries != list(range(size)):
        raise RuntimeError("synthesis failed to reach the identity")
    return Circuit(n, tuple(gates))
