"""The simple references the suite checks the fast paths against, each written once.

Each restates its rule in plain Python.  It may build ``Gate``, ``Circuit`` and ``TruthVector``
values and call ``decimal``, ``check_lines`` and ``rank_entries``, but no kernel it checks, as
``test_synthesizers.py`` reads this file's syntax tree to hold.  Pytest does not collect it.
"""

import functools
import math

from revsynth.cost import GarbagePolicy
from revsynth.gates import LINE_NAMES, Circuit, Gate, GeneratorSet
from revsynth.perm import TruthVector, check_lines, decimal, rank_entries


def words_after(gates, words) -> list[int]:
    """The mask firing rule: each gate flips its target bit in every word ``w`` with
    ``w & control_mask == value_mask``."""
    words = list(words)
    for g in gates:
        words = [w ^ 1 << g.target if w & g.control_mask == g.value_mask else w for w in words]
    return words


def fires(controls, negated, v: int) -> bool:
    """The firing rule on line sets: each control holds 1, or 0 if it is negated."""
    return all((v >> c & 1) == (c not in negated) for c in controls)


def member_perms(gen_set: GeneratorSet) -> list[TruthVector]:
    """The permutation of each member of ``gen_set``, from the firing rule on every value."""
    return [TruthVector(words_after([g], range(1 << g.n))) for g in gen_set.members]


def planes_of(words, bits: int) -> list[int]:
    """Plane c holds bit c of every word: bit x of it is bit c of ``words[x]``."""
    return [sum(1 << x for x, w in enumerate(words) if w >> c & 1) for c in range(bits)]


def words_of(planes: list[int], count: int) -> list[int]:
    """The ``count`` words whose bit c is bit x of plane c: the inverse of :func:`planes_of`."""
    return [sum((p >> x & 1) << c for c, p in enumerate(planes)) for x in range(count)]


def reference_mmd(f: TruthVector) -> Circuit:
    """``mmd_synthesize``'s row steps on a value list that each gate refolds."""
    n = f.n
    entries = list(f.entries)
    gates = []
    for i in range(1 << n):
        v = entries[i]
        if v == i:
            continue
        step = [Gate(n, j, v, v) for j in range(n) if (i & ~v) >> j & 1]
        step += [Gate(n, k, i, i) for k in range(n) if (v & ~i) >> k & 1]
        entries = words_after(step, entries)
        gates += step
    assert entries == list(range(1 << n))
    return Circuit(n, tuple(gates))


def reference_hc(f: TruthVector, order: str) -> Circuit:
    """``hc_synthesize``'s scan with no position table, rereading the value after each gate."""
    n = f.n
    full = (1 << n) - 1
    entries = list(f.entries)
    gates = []
    for i in range(full, 0, -1) if order == "right" else range(full):
        for j in range(n):
            v = entries[i]
            bit = 1 << j
            if (v ^ i) & bit:
                g = Gate(n, j, full ^ bit, v & ~bit)
                entries = words_after([g], entries)
                gates.append(g)
    assert entries == list(range(1 << n))
    return Circuit(n, tuple(gates))


def reference_hc_bi(f: TruthVector) -> Circuit:
    """The shorter of the two scans, the right one on a tie."""
    right = reference_hc(f, "right")
    left = reference_hc(f, "left")
    return right if len(right) <= len(left) else left


def reference_parse(text: str) -> Circuit:
    """The parser as it was before gate lines were cached.

    The one deliberate change: the header range is ``check_lines``' refusal.
    """
    n = None
    parsed = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(".n"):
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate .n header")
            try:
                n = decimal(line[2:].strip())
            except ValueError:
                raise ValueError(f"line {lineno}: malformed .n header {line!r}") from None
            try:
                check_lines(n)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            continue
        if n is None:
            raise ValueError(f"line {lineno}: gate before .n header")
        head, _, rest = line.partition(" ")
        if not head.startswith("t"):
            raise ValueError(f"line {lineno}: expected a t<size> gate, got {line!r}")
        try:
            size = decimal(head[1:])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed gate size in {head!r}") from None
        operands = [op.strip() for op in rest.split(",")]
        if size != len(operands):
            raise ValueError(f"line {lineno}: gate size t{size} but {len(operands)} operands")
        target_op = operands[-1]
        if target_op.endswith("'"):
            raise ValueError(f"line {lineno}: target {target_op!r} cannot be negated")
        seen = vm = 0
        for op in operands:
            name = op.removesuffix("'")
            if len(name) != 1 or name not in LINE_NAMES[:n]:
                raise ValueError(f"line {lineno}: unknown line name {op!r}")
            bit = 1 << LINE_NAMES.index(name)
            if seen & bit:
                raise ValueError(f"line {lineno}: duplicate operand {name!r}")
            seen |= bit
            if op == name:
                vm |= bit
        target = LINE_NAMES.index(target_op)
        cm = seen & ~(1 << target)
        parsed.append(Gate(n, target, cm, vm & cm))
    if n is None:
        raise ValueError("missing .n header")
    return Circuit(n, tuple(parsed))


def reference_spec(g: Gate) -> str:
    """The per-line rendering that ``Gate.spec`` replaced: one string per control."""
    cm, vm = g.control_mask, g.value_mask
    operands = [LINE_NAMES[c] + ("" if vm >> c & 1 else "'") for c in range(g.n) if cm >> c & 1]
    operands.append(LINE_NAMES[g.target])
    return f"t{g.size} {','.join(operands)}"


def reference_cost(size: int, negatives: int, policy: GarbagePolicy) -> int:
    """The ``cost`` module docstring's table and formulas, restated without ``cost_of``."""
    if policy is GarbagePolicy.ZERO:
        table = {1: 1, 2: 1 if negatives == 0 else 2, 3: 5 if negatives <= 1 else 7}
        return table.get(size, (1 << size) - 3 + 2 * negatives)
    if policy is GarbagePolicy.ONE:
        return 24 * size - (88 if negatives == 0 else 86)
    return 10 * size - (25 if negatives == 0 else 23)


@functools.cache  # one build per generator set: a cold n = 3 build takes over a second
def reference_bfs(gen_set: GeneratorSet) -> tuple[bytes, tuple[int, ...], tuple[int, int] | None]:
    """The distance and parent of every rank, and the first same-level edge (or None), from
    one edge at a time in (frontier vertex, generator) order, as the numpy BFS must match."""
    size = 1 << gen_set.n
    gen_perms = [tuple(p.entries) for p in member_perms(gen_set)]
    total = math.factorial(size)
    unseen = 255
    dist = bytearray([unseen]) * total
    parent_rank = [0] * total
    dist[0] = 0
    frontier = [(tuple(range(size)), 0)]
    conflict = None
    depth = 0
    while frontier:
        nxt = []
        for cur, r in frontier:
            for gp in gen_perms:
                new = tuple(gp[x] for x in cur)
                nr = rank_entries(new)
                d = dist[nr]
                if d == unseen:
                    dist[nr] = depth + 1
                    parent_rank[nr] = r
                    nxt.append((new, nr))
                elif d == depth and conflict is None:
                    conflict = (r, nr)
        frontier = nxt
        depth += 1
    return bytes(dist), tuple(parent_rank), conflict
