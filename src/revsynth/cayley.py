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

The BFS is level-synchronous numpy.  For each level it gathers every
generator applied to every frontier permutation, ``G[:, frontier]``, into
candidate rows ordered by frontier row and then generator; ranks them with
a vectorized Lehmer code; reads their distances; and keeps the first
sighting of each unseen rank, in sighting order.  That is the order an
edge-at-a-time loop visits, so parents, the first same-level edge (the odd
walk's witness), the next frontier's order and every output are the ones
that loop gives.  A level is expanded a fixed number of frontier rows at a
time (``_CHUNK``), marking distances after each chunk, so besides the
rank-indexed distance and parent tables (200 KB at n = 3) and the frontier
the working set stays under about a megabyte whatever a level's size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .gates import LABELS, Circuit, GeneratorSet
from .perm import TruthVector, check_lines, rank_entries, unrank_entries

if TYPE_CHECKING:  # numpy is imported on first use, by the functions that need it
    import numpy as np

BFS_MAX_LINES = 3

_REFUSAL = (
    "BFS over {n} lines needs (2^{n})! >= 16! = 20922789888000 vertices; "
    "only n <= 3 (40320 vertices) is within desk scale"
)

DUMP_MAGIC = b"RSYNBFS\x00"


def check_bfs_lines(n: int) -> None:
    """Refuse a line count outside 1..BFS_MAX_LINES; format no vertex count."""
    if n > BFS_MAX_LINES:  # first, so n > MAX_LINES gets this refusal too
        raise ValueError(_REFUSAL.format(n=n))
    check_lines(n)


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
        return self.distances[rank_entries(tv.entries)]

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
    check_bfs_lines(gen_set.n)
    key = (gen_set.label, gen_set.n)
    if key not in _CACHE:
        _CACHE[key] = _bfs_run(gen_set)
    return _CACHE[key]


_UNSEEN = 255
# Frontier rows expanded at once.  With g generators a chunk holds
# _CHUNK * g candidate rows, about 0.2 MB of uint8 entries plus their int32
# ranks at n = 3, whatever the size of the level.
_CHUNK = 2048


def _lehmer_digits(rows: np.ndarray):
    """Yield, for each position i < k - 1 of the uint8 rows, how many later
    entries of each row are smaller than entry i (the row's Lehmer digit)."""
    import numpy as np
    k = rows.shape[1]
    left = np.full(len(rows), (1 << k) - 1, dtype=np.int32)  # values not yet placed
    for i in range(k - 1):
        bit = np.left_shift(1, rows[:, i], dtype=np.int32)
        yield np.bitwise_count(left & (bit - 1))
        left ^= bit


def _lehmer_ranks(rows: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation row, as int32 (k <= 8 here)."""
    import numpy as np
    k = rows.shape[1]
    ranks = np.zeros(len(rows), dtype=np.int32)
    for i, digit in enumerate(_lehmer_digits(rows)):
        ranks *= k - i
        ranks += digit
    return ranks


def _bfs_run(gen_set: GeneratorSet) -> BfsResult:
    import numpy as np
    n = gen_set.n
    size = 1 << n
    total = math.factorial(size)
    gens = np.array([Circuit(n, (g,)).perm().entries for g in gen_set.members], dtype=np.uint8)
    g = len(gens)

    dist = np.full(total, _UNSEEN, dtype=np.uint8)
    parent_rank = np.zeros(total, dtype=np.int32)
    dist[0] = 0
    rows = np.arange(size, dtype=np.uint8)[None, :]  # the frontier's permutations
    ranks = np.zeros(1, dtype=np.int32)  # and their ranks, in discovery order
    conflict: tuple[int, int] | None = None

    depth = 0
    while len(ranks):
        next_rows, next_ranks = [], []
        for start in range(0, len(ranks), _CHUNK):
            # Candidate j is generator j % g applied after frontier row
            # start + j // g: the order a one-edge-at-a-time loop visits.
            cand = gens[:, rows[start:start + _CHUNK]].transpose(1, 0, 2).reshape(-1, size)
            cand_ranks = _lehmer_ranks(cand)
            d = dist[cand_ranks]
            if conflict is None:
                hits = np.flatnonzero(d == depth)
                if hits.size:
                    j = hits[0]
                    conflict = (int(ranks[start + j // g]), int(cand_ranks[j]))
            fresh = np.flatnonzero(d == _UNSEEN)
            _, first = np.unique(cand_ranks[fresh], return_index=True)
            keep = fresh[np.sort(first)]  # first sighting of each new vertex
            new = cand_ranks[keep]
            dist[new] = depth + 1
            parent_rank[new] = ranks[start + keep // g]
            next_rows.append(cand[keep])
            next_ranks.append(new)
        rows = np.concatenate(next_rows)
        ranks = np.concatenate(next_ranks)
        depth += 1

    per_distance = np.bincount(dist)
    if per_distance[_UNSEEN:].any():
        raise RuntimeError("generator set did not reach the whole group")
    counts = MappingProxyType({d: int(c) for d, c in enumerate(per_distance) if c})
    diameter = max(counts)
    average = sum(d * c for d, c in counts.items()) / total
    histogram = DistanceHistogram(gen_set.label, n, counts, diameter, average, total)

    odd_walk = None
    if conflict is not None:
        odd_walk = _closed_walk(conflict, parent_rank.tolist(), dist, size)
    return BfsResult(gen_set.label, n, dist.tobytes(), histogram, conflict is None, odd_walk)


def _closed_walk(
    conflict: tuple[int, int],
    parent_rank: list[int],
    dist: np.ndarray,
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
    import numpy as np
    check_bfs_lines(n)
    result = bfs(GeneratorSet("H", n))
    size = 1 << n
    total = result.histogram.total
    # Every permutation, in rank order: itertools yields them lexicographically.
    rows = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(size))),
        dtype=np.uint8,
        count=total * size,
    ).reshape(total, size)
    d = np.frombuffer(result.distances, dtype=np.uint8).astype(np.int32)
    parity = sum(_lehmer_digits(rows)) & 1  # inversion count mod 2
    parity_ok = bool(np.array_equal(d & 1, parity))
    # The identity (rank 0) has d = d_H = 0 and is left out of the sandwich.
    d = d[1:]
    dh = np.bitwise_count(rows[1:] ^ np.arange(size, dtype=np.uint8)).sum(axis=1, dtype=np.int32)
    lower_slacks = 2 * d - dh
    upper_slacks = dh - d
    violations = np.count_nonzero((lower_slacks < 0) | (upper_slacks <= 0))
    return HammingAuditReport(
        n=n,
        vertices_checked=total - 1,
        violations=int(violations),
        min_lower_slack=int(lower_slacks.min()),
        max_lower_slack=int(lower_slacks.max()),
        min_upper_slack=int(upper_slacks.min()),
        max_upper_slack=int(upper_slacks.max()),
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
    if label not in LABELS:
        raise ValueError(f"bad generator label {label!r} in dump header")
    if any(data[10:16]):
        raise ValueError("reserved dump header bytes are not zero")
    body = data[16:]
    expected = math.factorial(1 << n)
    if len(body) != expected:
        raise ValueError(f"dump has {len(body)} distances, expected {expected}")
    return label, n, body
