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

import functools
import sys
from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .perm import MAX_LINES, TruthVector, check_lines, decimal

LINE_NAMES = "abcdefghijklmnopqrstuvwxyz"[:MAX_LINES]  # not string.ascii_lowercase: 1 ms to import

ENUMERATE_MAX_LINES = 10
CACHE_SIZE = 4096  # entries kept by each text-boundary cache (gate lines, cost rows); LRU past it
# The longest gate line to_text writes, len(Gate(24, 23, 2**23 - 1).spec()): 24 operands, each
# control negated.  A longer line is padded, and is parsed uncached so no padding is kept.
CANONICAL_LINE_MAX = 74

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
        """Gate in circuit-file notation, e.g. ``t3 a,c',b``; one lookup per 4 lines."""
        cm, vm = self.control_mask, self.value_mask
        text, nibbles = f"t{cm.bit_count() + 1} ", iter(_operands())
        while cm:
            text += next(nibbles)[(cm & 15) << 4 | vm & 15]
            cm, vm = cm >> 4, vm >> 4
        return text + LINE_NAMES[self.target]

    __str__ = spec


# -- the gate-action kernel ----------------------------------------------------
#
# A gate flips its target bit in every value v with v & control_mask equal to
# value_mask.  On a permutation the firing values pair up, v = value_mask | s
# and v | flip for every submask s of the lines that are neither controls nor
# the target, so a full-control gate is one swap.  Circuit.apply does that
# swap through the inverse, and from the first gate with fewer controls folds
# the rest of the cascade with fold_planes; hypercube._scan swaps inline for
# the full-control gates it emits, because that was measured faster than
# building them first.  On a set of words that need not be a permutation,
# stored as bit planes (plane c is an int whose bit x is bit c of word x), a
# gate is one XOR of its firing set into the target plane, and firing_set is
# one AND per control, each over the whole word set.  A gate never controls
# its own target, so a run of gates with equal masks shares one firing set.
# fold_planes folds a cascade that way, for Circuit.apply and decomposition
# verification; mmd_synthesize calls firing_set once per run of a step and
# XORs it in itself.  to_planes and from_planes convert a word list.

def firing_set(planes: list[int], full: int, control_mask: int, value_mask: int) -> int:
    """The words, as one plane, whose bits equal ``value_mask`` on ``control_mask``'s lines.

    ``full`` has one set bit per word.  A control firing on 0 ANDs with
    ``full ^ plane``: ``~plane`` is a negative int, and ANDing with one
    measured about 20 times slower.
    """
    fire = full
    while control_mask:
        c = (control_mask & -control_mask).bit_length() - 1
        fire &= planes[c] if value_mask >> c & 1 else full ^ planes[c]
        control_mask &= control_mask - 1
    return fire


def fold_planes(planes: list[int], full: int, gates: Iterable[Gate]) -> None:
    """Apply ``gates`` in order to the words held as bit ``planes``, in place.

    The firing set is computed once per run of gates with equal masks.
    """
    cm = vm = -1
    for _, target, control_mask, value_mask in gates:
        if control_mask != cm or value_mask != vm:
            cm, vm = control_mask, value_mask
            fire = firing_set(planes, full, cm, vm)
        planes[target] ^= fire


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


# to_planes and from_planes pack each word into one native unsigned long (at least 32 bits),
# low byte first, so byte c // 8 of every word is one strided slice of the packed bytes.
_WORD_BYTES = array("L").itemsize
_LOW_FIRST = sys.byteorder == "little"
_BIT_CHARS = tuple(bytes(48 | b >> k & 1 for b in range(256)) for k in range(8))  # bit k: "0"/"1"
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # "0"/"1" characters to 0/1 bytes


def to_planes(words: Sequence[int], bits: int) -> list[int]:
    """The ``bits`` planes of ``words``: bit x of plane c is bit c of ``words[x]``.

    Each plane is one byte slice of the packed words, translated to "0"/"1" characters and read
    base 2, so the transposition runs in C.  The words are packed last first, so each slice
    spells its plane from the top bit down.
    """
    packed = array("L", words)
    packed.reverse()
    if not _LOW_FIRST:
        packed.byteswap()
    raw = packed.tobytes()
    return [int(raw[c >> 3::_WORD_BYTES].translate(_BIT_CHARS[c & 7]), 2) for c in range(bits)]


def from_planes(planes: list[int], count: int) -> list[int]:
    """The ``count`` words held as bit ``planes``: the inverse of :func:`to_planes`."""
    raw = bytearray(_WORD_BYTES * count)
    for c, plane in enumerate(planes):  # one 0/1 byte per word, ORed into byte c // 8 of each
        bit = int.from_bytes(format(plane, f"0{count}b").encode().translate(_BIT_VALUES), "big")
        byte = int.from_bytes(raw[c >> 3::_WORD_BYTES], "little") | bit << (c & 7)
        raw[c >> 3::_WORD_BYTES] = byte.to_bytes(count, "little")
    packed = array("L", raw)
    if not _LOW_FIRST:
        packed.byteswap()
    return packed.tolist()


def _lines(mask: int) -> frozenset[int]:
    return frozenset(c for c in range(mask.bit_length()) if mask >> c & 1)


@functools.cache  # on first use: an eager build would cost every import 1-3 ms
def _operands() -> tuple[tuple[str, ...], ...]:
    """[k][cm4 << 4 | vm4]: the operands of lines 4k..4k+3, each with its comma."""
    return tuple(tuple("".join(LINE_NAMES[k + c] + ("," if vm4 >> c & 1 else "',")
                               for c in range(4) if cm4 >> c & 1)
                       for cm4 in range(16) for vm4 in range(16)) for k in range(0, MAX_LINES, 4))


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
                raise ValueError(f"gate {g.spec()!r} has {g.n} lines, circuit has {self.n}")

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def apply(self, tv: TruthVector) -> TruthVector:
        if tv.n != self.n:
            raise ValueError(f"line counts differ: circuit {self.n}, vector {tv.n}")
        # A full-control gate swaps its one value pair; the first gate with fewer controls
        # sends the rest of the cascade to fold_planes.
        entries, where = list(tv.entries), list(tv.where)
        full = len(entries) - 1
        for k, (_, target, control_mask, value_mask) in enumerate(self.gates):
            flip = 1 << target
            if control_mask | flip != full:
                planes = to_planes(entries, self.n)
                fold_planes(planes, (1 << len(entries)) - 1, self.gates[k:])
                return TruthVector(from_planes(planes, len(entries)))
            b = value_mask | flip
            i, j = where[value_mask], where[b]
            entries[i], entries[j] = b, value_mask
            where[value_mask], where[b] = j, i
        return TruthVector(entries)

    def inverse(self) -> "Circuit":
        """Reversed cascade; every gate is self-inverse, so gates are reused."""
        return Circuit(self.n, tuple(reversed(self.gates)))

    def perm(self) -> TruthVector:
        return self.apply(TruthVector.identity(self.n))

    def to_text(self) -> str:
        return "\n".join([f".n {self.n}", *map(Gate.spec, self.gates), ""])


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit file dialect.

    ``# ...`` lines are comments.  The header ``.n <count>`` precedes the
    gates.  Each gate line is ``t<size> <controls...,target>`` with operands
    named a, b, c, ... (a = line 0, the least significant bit); a trailing
    apostrophe marks a control that fires on 0.  Every refusal names its line.
    """
    n: int | None = None
    gates: list[Gate] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith(".n"):
                if n is not None:
                    raise ValueError("duplicate .n header")
                try:
                    n = decimal(line[2:].strip())
                except ValueError:
                    raise ValueError(f"malformed .n header {line!r}") from None
                check_lines(n)
            elif n is None:
                raise ValueError("gate before .n header")
            else:
                parse = _parse_gate if len(line) <= CANONICAL_LINE_MAX else _parse_gate.__wrapped__
                gates.append(parse(line, n))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing .n header")
    return Circuit(n, tuple(gates))


@functools.lru_cache(maxsize=CACHE_SIZE)  # shares the immutable Gate; a refused line is not kept
def _parse_gate(line: str, n: int) -> Gate:
    head, _, rest = line.partition(" ")
    if not head.startswith("t"):
        raise ValueError(f"expected a t<size> gate, got {line!r}")
    try:
        size = decimal(head[1:])
    except ValueError:
        raise ValueError(f"malformed gate size in {head!r}") from None
    operands = [op.strip() for op in rest.split(",")]  # an empty operand counts
    if size != len(operands):
        raise ValueError(f"gate size t{size} but {len(operands)} operands")
    target_op = operands[-1]
    if target_op.endswith("'"):
        raise ValueError(f"target {target_op!r} cannot be negated")
    seen = vm = 0
    for op in operands:
        name = op.removesuffix("'")  # at most one apostrophe
        c = LINE_NAMES.find(name) if len(name) == 1 else -1
        if not 0 <= c < n:
            raise ValueError(f"unknown line name {op!r}")
        bit = 1 << c
        if seen & bit:
            raise ValueError(f"duplicate operand {name!r}")
        seen |= bit
        if op == name:  # fires on 1
            vm |= bit
    cm = seen & ~bit  # the last operand, line c, is the target
    return Gate(n, c, cm, vm & cm)


# -- generating sets -----------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSet:
    """An enumerated gate family: the generators of one Cayley graph.

    ``label`` is "I" (all-positive, any arity) or "H" (full-control, any
    polarities); the label and ``n`` fix the members, the shared gates of
    :func:`family_gate`.  Members are in canonical order, by target line,
    then control mask, then value mask, so traversals are deterministic.
    """

    label: str
    n: int
    members: tuple[Gate, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n > ENUMERATE_MAX_LINES:  # n < 1 is refused by check_lines, before the label
            raise ValueError(f"line count {n} out of range [1, {ENUMERATE_MAX_LINES}]")
        gate = family_gate(self.label, n)
        object.__setattr__(self, "members", tuple(gate(t, p) for t in range(n)
                                                  for p in range(1 << n) if not p >> t & 1))

    def __len__(self) -> int:
        return len(self.members)


def enumerate_ci(n: int) -> GeneratorSet:
    """All gates with one target and any set of positive controls."""
    return GeneratorSet("I", n)


def enumerate_ch(n: int) -> GeneratorSet:
    """All full-control gates, one per target and polarity pattern."""
    return GeneratorSet("H", n)


@functools.cache
def family_gate(label: str, n: int) -> Callable[[int, int], Gate]:
    """Family ``label``'s ``gate(target, pattern)``: the pattern (target bit clear) is the
    positive controls of a C_I gate, or the controls firing on 1 of a full-control C_H gate.

    Each gate is built once, checked by Gate, and then shared, by a memo as large as the
    largest enumerable family (n = ENUMERATE_MAX_LINES), so a warm synth call builds none."""
    full = check_lines(n) - 1
    if label not in LABELS:
        expected = " or ".join(map(repr, LABELS))
        raise ValueError(f"unknown generator set label {label!r} (expected {expected})")
    others = full if label == "H" else 0

    @functools.lru_cache(maxsize=ENUMERATE_MAX_LINES << ENUMERATE_MAX_LINES - 1)
    def gate(target: int, pattern: int) -> Gate:
        return Gate(n, target, pattern | others & ~(1 << target), pattern)
    return gate
