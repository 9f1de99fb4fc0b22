"""Permutations of {0, ..., 2^n - 1} viewed as reversible n-line functions.

A reversible function on n lines maps every n-bit input word to a distinct
n-bit output word, so it is exactly a permutation of {0, ..., 2^n - 1} and is
stored here as its output sequence (a truth vector).  Line 0 is the least
significant bit; printed binary strings put the most significant bit first.
"""

from __future__ import annotations

from typing import Iterator, Sequence

MAX_LINES = 24


def check_lines(n: int) -> int:
    """2^n for a line count n in 1..MAX_LINES, checked before anything is built."""
    if n < 1:
        raise ValueError(f"line count must be >= 1, got {n}")
    if n > MAX_LINES:
        raise ValueError(f"{n} lines exceeds the supported maximum {MAX_LINES}")
    return 1 << n


class TruthVector:
    """A bijection over {0, ..., 2^n - 1}, immutable after construction.

    ``where[v]`` is the position of ``v`` in ``entries``: the inverse,
    built while the constructor checks the bijection.
    """

    __slots__ = ("n", "entries", "where")

    n: int
    entries: tuple[int, ...]
    where: tuple[int, ...]

    def __init__(self, entries: Sequence[int]):
        entries = tuple(entries)
        size = len(entries)
        if size < 2 or size & (size - 1) != 0:
            raise ValueError(f"length {size} is not a power of two >= 2")
        n = size.bit_length() - 1
        check_lines(n)
        where = [-1] * size
        for pos, value in enumerate(entries):
            if not 0 <= value < size:
                raise ValueError(f"value {value} out of range [0, {size})")
            if where[value] >= 0:
                raise ValueError(f"not a bijection: value {value} occurs twice")
            where[value] = pos
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "where", tuple(where))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruthVector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "TruthVector":
        return cls(range(check_lines(n)))

    @classmethod
    def reverse(cls, n: int) -> "TruthVector":
        """The order-reversing permutation i -> 2^n - 1 - i."""
        size = check_lines(n)
        return cls(size - 1 - i for i in range(size))

    @classmethod
    def unrank(cls, r: int, n: int) -> "TruthVector":
        """Inverse of :meth:`rank` under lexicographic (Lehmer code) order."""
        size = check_lines(n)
        try:
            entries = unrank_entries(r, size)
        except ValueError:
            raise ValueError(f"rank {r} out of range [0, (2^{n})!)") from None
        return cls(entries)

    # -- permutation algebra ----------------------------------------------

    def compose(self, other: "TruthVector") -> "TruthVector":
        """Return h with h(i) = self(other(i)) (apply ``other`` first)."""
        if self.n != other.n:
            raise ValueError(f"line counts differ: {self.n} != {other.n}")
        mine = self.entries
        return TruthVector(mine[x] for x in other.entries)

    def inverse(self) -> "TruthVector":
        return TruthVector(self.where)

    def is_identity(self) -> bool:
        return all(value == i for i, value in enumerate(self.entries))

    def hamming(self, other: "TruthVector") -> int:
        """Differing bits between the two n*2^n-bit binary representations."""
        if self.n != other.n:
            raise ValueError(f"line counts differ: {self.n} != {other.n}")
        return sum((a ^ b).bit_count() for a, b in zip(self.entries, other.entries))

    def rank(self) -> int:
        """Lexicographic index of this permutation among all (2^n)! of them."""
        return rank_entries(self.entries)

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"TruthVector([{' '.join(map(str, self.entries))}])"

    def __str__(self) -> str:
        return " ".join(map(str, self.entries))

    def to_text(self) -> str:
        """Serialize in the truth-vector file format (one line of decimals)."""
        return " ".join(map(str, self.entries)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TruthVector":
        """Parse the truth-vector file format.

        Lines starting with ``#`` are comments; the remaining whitespace or
        newline separated tokens must be the 2^n decimal entries.
        """
        tokens = [
            tok for line in text.splitlines() if not line.lstrip().startswith("#")
            for tok in line.split()
        ]
        if not tokens:
            raise ValueError("no truth-vector entries found")
        values = []
        for tok in tokens:
            try:
                values.append(decimal(tok))
            except ValueError:
                raise ValueError(f"invalid entry {tok!r}: expected a decimal integer") from None
        return cls(values)


def decimal(token: str) -> int:
    """The value of a text-format numeral, a run of ASCII digits; ValueError
    for anything else, such as the signs, underscores and non-ASCII digits
    that ``int`` alone would take."""
    if not (token.isascii() and token.isdecimal()):
        raise ValueError(f"not an ASCII decimal numeral: {token!r}")
    return int(token)


# Lehmer-code rank/unrank on raw entry sequences.  These serve every warm BFS
# distance lookup, so they avoid constructing TruthVector objects.

def rank_entries(entries: Sequence[int]) -> int:
    k = len(entries)
    left = (1 << k) - 1  # bit v is set while value v is not yet placed
    r = 0
    for i, p in enumerate(entries):
        r = r * (k - i) + (left & ((1 << p) - 1)).bit_count()  # smaller values to the right
        left ^= 1 << p
    return r


def unrank_entries(r: int, k: int) -> list[int]:
    """The permutation of range(k) with rank ``r``; ValueError unless 0 <= r < k!."""
    digits = [0] * k
    for i in range(k - 1, 0, -1):
        r, digits[i] = divmod(r, k - i)
    if not 0 <= r < k:  # r is now the rank // (k-1)!, so this is 0 <= rank < k!
        raise ValueError(f"rank out of range [0, {k}!)")
    digits[0] = r
    remaining = list(range(k - 1, -1, -1))  # descending: the d-th smallest is at -1 - d
    return [remaining.pop(-1 - d) for d in digits]
