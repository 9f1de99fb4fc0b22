"""Exact breadth-first analysis of the two gate-library Cayley graphs.

Vertices are the (2^n)! permutations; two vertices are adjacent when one is
a library gate's permutation composed with the other (gate applied on the
output side).  A single BFS from the identity yields every distance, hence
the exact distance histogram and diameter, an optimal-circuit-size oracle
for both libraries, and a bipartiteness verdict with an explicit odd closed
walk when one exists.

Distances are stored in a byte array indexed by lexicographic (Lehmer) rank,
about 40 KB at n = 3.  The hard cap is n <= 3: at n = 4 there are
16! = 20922789888000 vertices, far beyond desk scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .gates import GeneratorSet
from .perm import TruthVector, rank_entries, unrank_entries

BFS_MAX_LINES = 3

_REFUSAL = (
    "BFS over {n} lines needs (2^{n})! >= 16! = 20922789888000 vertices; "
    "only n <= 3 (40320 vertices) is within desk scale"
)

DUMP_MAGIC = b"RSYNBFS\x00"


def _check_lines(n: int) -> None:
    if n < 1:
        raise ValueError(f"line count must be >= 1, got {n}")
    if n > BFS_MAX_LINES:
        raise ValueError(_REFUSAL.format(n=n))


@dataclass(frozen=True)
class DistanceHistogram:
    """Distance distribution of one BFS: counts, diameter, average."""

    label: str
    n: int
    counts: Mapping[int, int]  # read-only
    diameter: int
    average: float
    total: int

    def to_csv(self) -> str:
        lines = ["distance,count"]
        lines.extend(f"{d},{self.counts[d]}" for d in sorted(self.counts))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BfsResult:
    label: str
    n: int
    distances: bytes  # rank-indexed
    histogram: DistanceHistogram
    bipartite: bool
    odd_walk: tuple[TruthVector, ...] | None

    def distance_of(self, tv: TruthVector) -> int:
        if tv.n != self.n:
            raise ValueError(f"line counts differ: {tv.n} != {self.n}")
        return self.distances[tv.rank()]

    def dump(self) -> bytes:
        """Binary distance table: 16-byte header then u8 distances by rank."""
        header = DUMP_MAGIC + bytes([self.n, ord(self.label)]) + b"\x00" * 6
        return header + self.distances


_CACHE: dict[tuple[str, int], BfsResult] = {}


def bfs(gen_set: GeneratorSet) -> BfsResult:
    """Single-source BFS from the identity over the generator set's graph.

    Neighbor order follows the set's canonical member order, so results are
    deterministic.  Results are cached per (label, n), which fix the members.
    """
    _check_lines(gen_set.n)
    key = (gen_set.label, gen_set.n)
    if key not in _CACHE:
        _CACHE[key] = _bfs_run(gen_set)
    return _CACHE[key]


def _bfs_run(gen_set: GeneratorSet) -> BfsResult:
    n = gen_set.n
    size = 1 << n
    total = math.factorial(size)
    gen_perms = [tuple(p.entries) for p in gen_set.perms()]

    unseen = 255
    dist = bytearray([unseen]) * total
    parent_rank = [0] * total
    parent_gen = [0] * total
    identity = tuple(range(size))
    dist[0] = 0
    frontier: list[tuple[tuple[int, ...], int]] = [(identity, 0)]
    conflict: tuple[int, int] | None = None

    depth = 0
    while frontier:
        nxt: list[tuple[tuple[int, ...], int]] = []
        for cur, r in frontier:
            for gi, gp in enumerate(gen_perms):
                new = tuple(gp[x] for x in cur)
                nr = rank_entries(new)
                d = dist[nr]
                if d == unseen:
                    dist[nr] = depth + 1
                    parent_rank[nr] = r
                    parent_gen[nr] = gi
                    nxt.append((new, nr))
                elif d == depth and conflict is None:
                    conflict = (r, nr)
        frontier = nxt
        depth += 1

    counts = MappingProxyType(dict(Counter(dist)))
    if unseen in counts:
        raise RuntimeError("generator set did not reach the whole group")
    diameter = max(counts)
    average = sum(d * c for d, c in counts.items()) / total
    histogram = DistanceHistogram(gen_set.label, n, counts, diameter, average, total)

    odd_walk = None
    if conflict is not None:
        odd_walk = _closed_walk(conflict, parent_rank, dist, size)
    return BfsResult(gen_set.label, n, bytes(dist), histogram, conflict is None, odd_walk)


def _closed_walk(
    conflict: tuple[int, int],
    parent_rank: list[int],
    dist: bytearray,
    size: int,
) -> tuple[TruthVector, ...]:
    """Join the BFS paths of a same-level edge into an odd closed walk."""

    def path_to_root(r: int) -> list[int]:
        ranks = [r]
        while dist[r] != 0:
            r = parent_rank[r]
            ranks.append(r)
        return ranks  # vertex, parent, ..., identity

    ru, rv = conflict
    up = path_to_root(ru)[::-1]  # identity ... u
    down = path_to_root(rv)  # v ... identity
    walk = up + down
    return tuple(TruthVector(unrank_entries(r, size)) for r in walk)


def distance(tv: TruthVector, gen_set: GeneratorSet) -> int:
    """Length of a shortest gate cascade realizing ``tv`` from the library."""
    return bfs(gen_set).distance_of(tv)


def permutation_parity(entries) -> int:
    """0 for even permutations, 1 for odd (from the cycle decomposition)."""
    seen = [False] * len(entries)
    parity = 0
    for start in range(len(entries)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = entries[cur]
            length += 1
        parity ^= (length - 1) & 1
    return parity


@dataclass(frozen=True)
class HammingAuditReport:
    """Outcome of sweeping d_H/2 <= d < d_H over every non-identity vertex.

    Slacks measure how tight the sandwich is: ``min_lower_slack`` is the
    smallest 2d - d_H, ``min_upper_slack`` the smallest d_H - d.  Parity
    holds when every vertex's distance is congruent to its permutation
    parity mod 2 (each full-control gate is a single transposition).
    """

    n: int
    vertices_checked: int
    violations: int
    min_lower_slack: int
    max_lower_slack: int
    min_upper_slack: int
    max_upper_slack: int
    parity_consistent: bool

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.parity_consistent


def hamming_distance_audit(n: int = 3) -> HammingAuditReport:
    """Verify the Hamming-distance sandwich on the full-control graph."""
    _check_lines(n)
    result = bfs(GeneratorSet("H", n))
    size = 1 << n
    violations = 0
    lower_slacks: list[int] = []
    upper_slacks: list[int] = []
    parity_ok = True
    for r in range(result.histogram.total):
        entries = unrank_entries(r, size)
        d = result.distances[r]
        if d & 1 != permutation_parity(entries):
            parity_ok = False
        if r == 0:
            continue
        dh = sum((v ^ i).bit_count() for i, v in enumerate(entries))
        if not (dh <= 2 * d < 2 * dh):
            violations += 1
        lower_slacks.append(2 * d - dh)
        upper_slacks.append(dh - d)
    return HammingAuditReport(
        n=n,
        vertices_checked=result.histogram.total - 1,
        violations=violations,
        min_lower_slack=min(lower_slacks),
        max_lower_slack=max(lower_slacks),
        min_upper_slack=min(upper_slacks),
        max_upper_slack=max(upper_slacks),
        parity_consistent=parity_ok,
    )


def load_dump(data: bytes) -> tuple[str, int, bytes]:
    """Parse a distance dump back into (label, n, distances-by-rank)."""
    if len(data) < 16 or data[:8] != DUMP_MAGIC:
        raise ValueError("not a distance dump (bad magic)")
    n = data[8]
    label = chr(data[9])
    if not 1 <= n <= BFS_MAX_LINES:
        raise ValueError(f"line count {n} in dump header out of range [1, {BFS_MAX_LINES}]")
    if label not in ("I", "H"):
        raise ValueError(f"bad generator label {label!r} in dump header")
    if any(data[10:16]):
        raise ValueError("reserved dump header bytes are not zero")
    body = data[16:]
    expected = math.factorial(1 << n)
    if len(body) != expected:
        raise ValueError(f"dump has {len(body)} distances, expected {expected}")
    return label, n, body
