"""Reversible gates, circuits, and the two generating gate families.

A gate here is always a controlled NOT in the wide sense: one target line,
any set of control lines, each control firing on 1 (positive) or 0
(negative).  A gate is stored as two bit masks, the control lines and the
values they must carry; the line sets are views of them.  Applying a gate
to a truth vector rewrites the *values*: every entry whose bits match all
control polarities has its target bit flipped.  That is left multiplication
of the vector by the gate's own permutation, the "gate at the output end"
convention.

Two enumerated families generate the full symmetric group on 2^n values:

* ``C_I``: all-positive controls of any arity (NOT, CNOT, Toffoli, ...).
* ``C_H``: controls on every non-target line with arbitrary polarities; each
  such gate swaps exactly the two values that differ in the target bit.

Both families have n * 2^(n-1) members and every member is an involution.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .perm import MAX_LINES, TruthVector, check_lines, decimal

LINE_NAMES = "abcdefghijklmnopqrstuvwxyz"[:MAX_LINES]  # not string.ascii_lowercase: 1 ms to import

ENUMERATE_MAX_LINES = 10

LABELS = ("I", "H")  # the two generator families, C_I and C_H


class Gate(namedtuple("Gate", "n target control_mask value_mask", defaults=(0, 0))):
    """One reversible gate: n lines, a target line and two control masks.

    The gate flips its target bit in every value v with
    ``v & control_mask == value_mask``.  Bit c of ``control_mask`` makes
    line c a control; bit c of ``value_mask`` says that control fires on 1,
    a clear bit that it fires on 0 (a negative control).  Both masks 0 is a
    NOT gate.  ``controls``, ``negated``, ``size`` and ``num_negative`` are
    views of the masks; :func:`toffoli` builds a gate from line sets.

    A gate is an immutable tuple of its four fields that equals only other
    gates.  The inherited ``__new__`` builds it and ``__init__`` checks it.
    """

    __slots__ = ()

    def __init__(self, n: int, target: int, control_mask: int = 0, value_mask: int = 0):
        if not 1 <= n <= MAX_LINES:  # inline: the message is pinned; runs per gate
            raise ValueError(f"line count {n} out of range [1, {MAX_LINES}]")
        if not 0 <= target < n:
            raise ValueError(f"target {target} out of range [0, {n})")
        if not 0 <= control_mask < 1 << n:
            raise ValueError(f"control mask {control_mask:#x} has lines outside [0, {n})")
        if control_mask >> target & 1:
            raise ValueError(f"target line {target} cannot also be a control")
        if value_mask & ~control_mask:
            raise ValueError(
                f"value mask {value_mask:#x} is not within control mask {control_mask:#x}"
            )

    @classmethod
    def _make(cls, iterable) -> "Gate":  # so ``_replace`` runs the checks too
        return cls(*iterable)

    def __eq__(self, other):  # False, not NotImplemented: tuple.__eq__ would answer
        return isinstance(other, Gate) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    # -- derived views -------------------------------------------------------

    @property
    def controls(self) -> frozenset[int]:
        return _lines(self.control_mask)

    @property
    def negated(self) -> frozenset[int]:
        """The controls that fire on 0."""
        return _lines(self.control_mask ^ self.value_mask)

    @property
    def size(self) -> int:
        """Gate size: control count plus one (1 = NOT, 2 = CNOT, 3 = Toffoli)."""
        return self.control_mask.bit_count() + 1

    @property
    def num_negative(self) -> int:
        return (self.control_mask ^ self.value_mask).bit_count()

    def is_g_toffoli(self) -> bool:
        return self.value_mask == self.control_mask

    def is_mc_toffoli(self) -> bool:
        return self.size == self.n

    def spec(self) -> str:
        """Gate in circuit-file notation, e.g. ``t3 a,c',b``."""
        cm, vm = self.control_mask, self.value_mask
        operands = [
            LINE_NAMES[c] + ("" if vm >> c & 1 else "'")
            for c in range(self.n) if cm >> c & 1
        ]
        operands.append(LINE_NAMES[self.target])
        return f"t{self.size} {','.join(operands)}"

    def __str__(self) -> str:
        return self.spec()


# -- the gate-action kernel ----------------------------------------------------
#
# A gate flips its target bit in every value v with v & control_mask equal to
# value_mask.  fold_into and fold_planes evaluate that rule for every caller;
# the one exception is hypercube._scan, which swaps inline for the
# full-control gates it emits because that was measured faster than building
# them first.  On a permutation the firing values pair up: v = value_mask | s
# and v | flip for every submask s of the lines that are neither controls nor
# the target, so a gate with k controls on n lines is 2^(n-1-k) swaps, one
# for a full-control gate.  fold_into walks those submasks and swaps the two
# values' positions through the inverse, never looking at the other entries.
# fold_planes runs the rule on a set of words that need not be a permutation,
# stored as bit planes: plane c is an int whose bit x is bit c of word x, so
# a gate is one AND per control and one XOR, each over the whole word set.

def fold_into(values: list[int], where: list[int], gates: Iterable[Gate]) -> None:
    """Apply ``gates`` in order to the permutation ``values``, in place.

    ``where[v]`` must be the position of ``v`` in ``values``; both lists are
    updated together, so a caller can fold step after step without
    rebuilding the inverse.  Nothing is checked (:meth:`Circuit.apply` is
    the checked entry point): the cost is the gates' swap counts alone,
    2^(n-1-k) for a gate with k controls, not 2^n.  Gates with few controls
    are the worst case, since a swap costs about three entry comparisons.
    Through ``Circuit.apply`` on 2^16 entries (CPython 3.11, 2-vCPU Xeon),
    20 NOT gates took 0.22-0.41 s where comparing every entry took
    0.08-0.11 s, 20 CNOTs about as long as the comparisons, and two or more
    controls less time (four controls: 0.04-0.08 s against 0.13-0.22 s).
    No synthesizer emits long runs of such gates.
    """
    full = len(values) - 1
    for g in gates:
        flip = 1 << g.target
        vm = g.value_mask
        free = full & ~g.control_mask & ~flip
        s = 0
        while True:
            a = vm | s
            b = a | flip
            i = where[a]
            j = where[b]
            values[i] = b
            values[j] = a
            where[a] = j
            where[b] = i
            if s == free:
                break
            s = (s - free) & free


def fold_planes(planes: list[int], full: int, gates: Iterable[Gate]) -> None:
    """Apply ``gates`` in order to the words held as bit ``planes``, in place.

    ``full`` has one set bit per word.  A control firing on 0 ANDs with
    ``full ^ plane``: ``~plane`` is a negative int, and ANDing with one
    measured about 20 times slower.
    """
    for g in gates:
        fire = full
        rest, vm = g.control_mask, g.value_mask
        while rest:
            c = (rest & -rest).bit_length() - 1
            fire &= planes[c] if vm >> c & 1 else full ^ planes[c]
            rest &= rest - 1
        planes[g.target] ^= fire


def input_planes(bits: int) -> list[int]:
    """The ``bits`` planes of the words ``range(2^bits)``, built by doubling."""
    planes = []
    for c in range(bits):
        period = 2 << c
        plane = ((1 << (1 << c)) - 1) << (1 << c)  # word x has bit c set for x in [2^c, 2^(c+1))
        while period < 1 << bits:
            plane |= plane << period
            period <<= 1
        planes.append(plane)
    return planes


def _lines(mask: int) -> frozenset[int]:
    return frozenset(c for c in range(mask.bit_length()) if mask >> c & 1)


def toffoli(
    n: int, controls: Iterable[int], target: int, negated: Iterable[int] = ()
) -> Gate:
    """Gate from line sets: ``controls`` fire on 1 except those in ``negated``.

    The one place line sets become masks.
    """
    controls, negated = frozenset(controls), frozenset(negated)
    for c in controls:
        if not 0 <= c < n:
            raise ValueError(f"control {c} out of range [0, {n})")
    if not negated <= controls:
        raise ValueError(f"negated lines {sorted(negated - controls)} are not controls")
    cm = sum(1 << c for c in controls)
    return Gate(n, target, cm, cm ^ sum(1 << c for c in negated))

def not_gate(n: int, target: int) -> Gate:
    return Gate(n, target)

def cnot(n: int, control: int, target: int) -> Gate:
    return toffoli(n, (control,), target)

def mc_gate(n: int, target: int, negated: Iterable[int] = ()) -> Gate:
    """Full-control gate: every non-target line controls, given ones on 0."""
    return toffoli(n, (c for c in range(n) if c != target), target, negated)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate cascade over a fixed line count."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        check_lines(self.n)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.n != self.n:
                raise ValueError(
                    f"gate {g.spec()!r} has {g.n} lines, circuit has {self.n}"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.n != other.n:
            raise ValueError(f"line counts differ: {self.n} != {other.n}")
        return Circuit(self.n, self.gates + other.gates)

    def apply(self, tv: TruthVector) -> TruthVector:
        if tv.n != self.n:
            raise ValueError(f"line counts differ: circuit {self.n}, vector {tv.n}")
        entries = list(tv.entries)
        fold_into(entries, list(tv.where), self.gates)
        return TruthVector(entries)

    def inverse(self) -> "Circuit":
        """Reversed cascade; every gate is self-inverse, so gates are reused."""
        return Circuit(self.n, tuple(reversed(self.gates)))

    def perm(self) -> TruthVector:
        return self.apply(TruthVector.identity(self.n))

    def to_text(self) -> str:
        lines = [f".n {self.n}"]
        lines.extend(g.spec() for g in self.gates)
        return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit file dialect.

    ``# ...`` lines are comments.  The header ``.n <count>`` precedes the
    gates.  Each gate line is ``t<size> <controls...,target>`` with operands
    named a, b, c, ... (a = line 0, the least significant bit); a trailing
    apostrophe marks a control that fires on 0.
    """
    n: int | None = None
    gates: list[Gate] = []
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
            if not 1 <= n <= MAX_LINES:
                raise ValueError(f"line {lineno}: line count {n} out of range")
            continue
        if n is None:
            raise ValueError(f"line {lineno}: gate before .n header")
        gates.append(_parse_gate(line, n, lineno))
    if n is None:
        raise ValueError("missing .n header")
    return Circuit(n, tuple(gates))


def _parse_gate(line: str, n: int, lineno: int) -> Gate:
    head, _, rest = line.partition(" ")
    if not head.startswith("t"):
        raise ValueError(f"line {lineno}: expected a t<size> gate, got {line!r}")
    try:
        size = decimal(head[1:])
    except ValueError:
        raise ValueError(f"line {lineno}: malformed gate size in {head!r}") from None
    operands = [op.strip() for op in rest.split(",")]  # an empty operand counts
    if size != len(operands):
        raise ValueError(
            f"line {lineno}: gate size t{size} but {len(operands)} operands"
        )
    target_op = operands[-1]
    if target_op.endswith("'"):
        raise ValueError(f"line {lineno}: target {target_op!r} cannot be negated")
    seen = vm = 0
    for op in operands:
        name = op.removesuffix("'")  # at most one apostrophe
        if len(name) != 1 or name not in LINE_NAMES[:n]:
            raise ValueError(f"line {lineno}: unknown line name {op!r}")
        bit = 1 << LINE_NAMES.index(name)
        if seen & bit:
            raise ValueError(f"line {lineno}: duplicate operand {name!r}")
        seen |= bit
        if op == name:  # fires on 1
            vm |= bit
    target = LINE_NAMES.index(target_op)
    cm = seen & ~(1 << target)
    return Gate(n, target, cm, vm & cm)


# -- generating sets -----------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSet:
    """An enumerated gate family: the generators of one Cayley graph.

    ``label`` is "I" (all-positive, any arity) or "H" (full-control, any
    polarities); the label and ``n`` fix the members, which are built here.
    Members are generated in canonical order, by target line, then control
    mask, then value mask, so traversals are deterministic.
    """

    label: str
    n: int
    members: tuple[Gate, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown generator set label {self.label!r} (expected 'I' or 'H')")
        n = self.n
        if not 1 <= n <= ENUMERATE_MAX_LINES:
            raise ValueError(f"line count {n} out of range [1, {ENUMERATE_MAX_LINES}]")
        full = (1 << n) - 1
        members = []
        for target in range(n):
            bit = 1 << target
            low = bit - 1
            for subset in range(1 << (n - 1)):
                pattern = subset & low | (subset & ~low) << 1  # a 0 spliced in at the target bit
                if self.label == "I":  # the pattern is the positive controls
                    members.append(Gate(n, target, pattern, pattern))
                else:  # every other line controls; lines outside the pattern fire on 0
                    members.append(Gate(n, target, full ^ bit, pattern))
        object.__setattr__(self, "members", tuple(members))

    def __len__(self) -> int:
        return len(self.members)


def enumerate_ci(n: int) -> GeneratorSet:
    """All gates with one target and any set of positive controls."""
    return GeneratorSet("I", n)


def enumerate_ch(n: int) -> GeneratorSet:
    """All full-control gates, one per target and polarity pattern."""
    return GeneratorSet("H", n)
