"""Exact BFS over both gate-library graphs: histograms, bipartiteness, walks."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revsynth.cayley as cayley
from revsynth.cayley import (
    DUMP_MAGIC,
    bfs,
    distance,
    hamming_distance_audit,
    load_dump,
)
from revsynth.gates import GeneratorSet, enumerate_ch, enumerate_ci
from revsynth.hypercube import hc_synthesize
from revsynth.mmd import mmd_synthesize
from revsynth.perm import TruthVector, rank_entries


def _perms(gen_set: GeneratorSet) -> list[TruthVector]:
    """The members' permutations from the firing rule itself, not from the
    gate-action kernel the BFS builds its generator table with."""
    return [
        TruthVector([v ^ (1 << g.target) if v & g.control_mask == g.value_mask else v
                     for v in range(1 << g.n)])
        for g in gen_set.members
    ]


# Exhaustively computed once with this module's BFS and frozen as a
# regression fixture; diameter 12 equals the degree lower bound n*2^(n-1)
# and is attained only by the reverse permutation.
H3_COUNTS = {0: 1, 1: 12, 2: 90, 3: 476, 4: 1903, 5: 5472, 6: 10388,
             7: 11756, 8: 7347, 9: 2408, 10: 430, 11: 36, 12: 1}

# Published exact distribution of minimal all-positive-library circuits on
# three lines (the 12-member library of NOT/CNOT/Toffoli placements).
I3_COUNTS = {0: 1, 1: 12, 2: 102, 3: 625, 4: 2780, 5: 8921, 6: 17049,
             7: 10253, 8: 577}


def test_single_line_graph():
    hist = bfs(enumerate_ch(1)).histogram
    assert hist.counts == {0: 1, 1: 1}
    assert hist.diameter == 1
    assert bfs(enumerate_ci(1)).histogram.counts == {0: 1, 1: 1}


@pytest.mark.parametrize("label,n", [("I", 2), ("H", 2), ("I", 3), ("H", 3)])
def test_histogram_invariants(label, n):
    gen = enumerate_ci(n) if label == "I" else enumerate_ch(n)
    hist = bfs(gen).histogram
    total = 1
    for k in range(2, (1 << n) + 1):
        total *= k
    assert hist.total == total
    assert sum(hist.counts.values()) == total
    assert hist.counts[0] == 1
    assert hist.counts[1] == n * (1 << (n - 1))
    assert hist.diameter == max(hist.counts)
    expected_avg = sum(d * c for d, c in hist.counts.items()) / total
    assert abs(hist.average - expected_avg) < 1e-12


def test_i3_matches_published_optimal_distribution():
    hist = bfs(enumerate_ci(3)).histogram
    assert hist.counts == I3_COUNTS
    assert hist.diameter == 8


def test_h3_regression_fixture():
    hist = bfs(enumerate_ch(3)).histogram
    assert hist.counts == H3_COUNTS
    assert hist.diameter == 12
    assert 12 <= hist.diameter <= 17  # between degree bound and gate bound


def test_distance_examples():
    ch3 = enumerate_ch(3)
    assert distance(TruthVector.identity(3), ch3) == 0
    assert distance(_perms(ch3)[5], ch3) == 1
    ci3 = enumerate_ci(3)
    assert distance(_perms(ci3)[3], ci3) == 1


def test_reverse_permutation_distance_and_sandwich():
    ch3 = enumerate_ch(3)
    rho = TruthVector.reverse(3)
    d = distance(rho, ch3)
    dh = rho.hamming(TruthVector.identity(3))
    assert dh == 24
    assert d == 12  # the diameter, equal to the lower bound n*2^(n-1)
    assert dh / 2 <= d < dh


def test_sandwich_holds_for_random_vertices():
    rng = random.Random(51)
    ch3 = enumerate_ch(3)
    ident = TruthVector.identity(3)
    for _ in range(300):
        tv = TruthVector(rng.sample(range(8), 8))
        if tv == ident:
            continue
        d = distance(tv, ch3)
        dh = tv.hamming(ident)
        assert dh <= 2 * d < 2 * dh


def test_h_graphs_bipartite():
    assert bfs(enumerate_ch(2)).bipartite
    assert bfs(enumerate_ch(3)).bipartite
    assert bfs(enumerate_ch(2)).odd_walk is None


def test_i_graphs_not_bipartite_with_valid_witness():
    for n in (2, 3):
        gen = enumerate_ci(n)
        report = bfs(gen)
        assert not report.bipartite
        walk = report.odd_walk
        assert walk is not None
        assert walk[0] == walk[-1] == TruthVector.identity(n)
        assert (len(walk) - 1) % 2 == 1
        perms = set(_perms(gen))
        for a, b in zip(walk, walk[1:]):
            assert b * a.inverse() in perms  # edge via one generator


def test_published_five_cycle_in_i2():
    """Five specific vertices joined by five generator steps close an odd
    walk when each generator acts on the input side."""
    vertices = [
        TruthVector([3, 1, 0, 2]),
        TruthVector([3, 1, 2, 0]),
        TruthVector([1, 3, 0, 2]),
        TruthVector([0, 2, 1, 3]),
        TruthVector([0, 2, 3, 1]),
    ]
    steps = [
        TruthVector([0, 1, 3, 2]),  # swap values 2,3
        TruthVector([1, 0, 3, 2]),  # swap 0,1 and 2,3
        TruthVector([2, 3, 0, 1]),  # swap 0,2 and 1,3
        TruthVector([0, 1, 3, 2]),
        TruthVector([2, 3, 0, 1]),
    ]
    library = set(_perms(enumerate_ci(2)))
    assert all(step in library for step in steps)
    cur = vertices[0]
    seen = [cur]
    for step in steps:
        cur = cur * step
        seen.append(cur)
    assert cur == vertices[0]  # closed, odd length 5
    assert seen[:-1] == vertices


def test_same_level_edges_only_in_i_graph():
    """Every edge of the full-control graph joins consecutive levels; the
    all-positive graph has at least one same-level edge."""
    for label, expect_flat_edge in (("H", False), ("I", True)):
        gen = enumerate_ch(2) if label == "H" else enumerate_ci(2)
        result = bfs(gen)
        flat = False
        for entries in itertools.permutations(range(4)):
            u = TruthVector(entries)
            du = result.distance_of(u)
            for p in _perms(gen):
                dv = result.distance_of(p * u)
                assert abs(du - dv) <= 1
                flat = flat or du == dv
        assert flat == expect_flat_edge


def test_parity_layering_in_h3():
    rng = random.Random(52)
    result = bfs(enumerate_ch(3))
    for _ in range(200):
        tv = TruthVector(rng.sample(range(8), 8))
        inversions = sum(a > b for a, b in itertools.combinations(tv.entries, 2))
        assert result.distance_of(tv) % 2 == inversions % 2


def test_hamming_audit():
    report = hamming_distance_audit(3)
    assert report.ok
    assert report.vertices_checked == 40319
    assert report.violations == 0
    assert report.parity_consistent
    assert report.min_lower_slack == 0  # the reverse permutation is tight
    assert report.min_upper_slack >= 1  # the upper bound is strict


def test_hamming_audit_report_is_pinned():
    # Every field, as the one-vertex-at-a-time sweep computed it.
    assert hamming_distance_audit(3) == cayley.HammingAuditReport(
        n=3, vertices_checked=40319, violations=0, min_lower_slack=0,
        max_lower_slack=6, min_upper_slack=1, max_upper_slack=12,
        parity_consistent=True,
    )


def _reference_bfs(gen_set):
    """One edge at a time, in (frontier vertex, generator) order: the
    sequential loop the numpy BFS must reproduce exactly."""
    size = 1 << gen_set.n
    gen_perms = [tuple(p.entries) for p in _perms(gen_set)]
    total = 1
    for k in range(2, size + 1):
        total *= k
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
    return bytes(dist), parent_rank, conflict


def _chain(r, dist, parent_rank):
    ranks = [r]
    while dist[r] != 0:
        r = parent_rank[r]
        ranks.append(r)
    return ranks  # vertex, parent, ..., identity


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("label,n", [(lab, n) for n in (1, 2, 3) for lab in ("I", "H")])
def test_numpy_bfs_matches_sequential_reference(label, n, chunk, monkeypatch):
    if chunk is not None:  # many chunks per level, so marks must carry across them
        monkeypatch.setattr(cayley, "_CHUNK", chunk)
    gen = GeneratorSet(label, n)
    dist, parent_rank, conflict = _reference_bfs(gen)
    result = cayley._bfs_run(gen)
    assert result.distances == dist
    assert result.bipartite == (conflict is None)
    if conflict is None:
        assert result.odd_walk is None
        return
    # The walk is the reference's parent chain of each end of the first
    # same-level edge, joined through that edge.
    ru, rv = conflict
    expected = _chain(ru, dist, parent_rank)[::-1] + _chain(rv, dist, parent_rank)
    assert [tv.rank() for tv in result.odd_walk] == expected


@pytest.mark.parametrize("label", ["I", "H"])
def test_cold_bfs_is_vectorized(label):
    cayley._CACHE.pop((label, 3), None)
    started = time.perf_counter()
    result = bfs(GeneratorSet(label, 3))
    # The per-edge Python loop takes about 3.5 s here.
    assert time.perf_counter() - started < 1.0
    assert result.histogram.total == 40320


def test_synthesis_never_beats_bfs_distance():
    rng = random.Random(53)
    ci3, ch3 = enumerate_ci(3), enumerate_ch(3)
    for _ in range(150):
        tv = TruthVector(rng.sample(range(8), 8))
        assert len(mmd_synthesize(tv)) >= distance(tv, ci3)
        assert len(hc_synthesize(tv, "right")) >= distance(tv, ch3)
    # equality at distance <= 1
    assert len(mmd_synthesize(TruthVector.identity(3))) == 0
    assert len(hc_synthesize(_perms(ch3)[0], "right")) == 1


def test_line_cap_refusal_names_the_state_count():
    with pytest.raises(ValueError, match="20922789888000"):
        bfs(enumerate_ch(4)).histogram
    with pytest.raises(ValueError, match="desk scale"):
        distance(TruthVector.identity(4), enumerate_ci(4))


def test_refusals_never_format_the_vertex_count():
    with pytest.raises(ValueError, match="desk scale") as info:
        hamming_distance_audit(11)
    assert str(info.value) == (
        "BFS over 11 lines needs (2^11)! >= 16! = 20922789888000 vertices; "
        "only n <= 3 (40320 vertices) is within desk scale"
    )


def test_generator_set_cannot_poison_the_bfs_cache():
    cayley._CACHE.pop(("I", 2), None)
    with pytest.raises(TypeError):
        GeneratorSet("I", 2, enumerate_ch(2).members)
    assert bfs(GeneratorSet("I", 2)).bipartite is False
    assert bfs(enumerate_ci(2)).bipartite is False


def test_dump_round_trip():
    result = bfs(enumerate_ci(2))
    blob = result.dump()
    label, n, distances = load_dump(blob)
    assert (label, n) == ("I", 2)
    assert list(distances) == list(result.distances)
    with pytest.raises(ValueError, match="magic"):
        load_dump(b"garbage!")


def test_shared_bfs_results_are_read_only():
    gen = enumerate_ci(2)
    tv = _perms(gen)[0]
    before = distance(tv, gen)
    result = bfs(gen)
    with pytest.raises(TypeError):
        result.distances[tv.rank()] = 99
    with pytest.raises(TypeError):
        result.histogram.counts[0] = 99
    assert distance(tv, gen) == before == 1
    assert bfs(gen).histogram.counts == {0: 1, 1: 4, 2: 9, 3: 7, 4: 3}


def test_load_dump_rejects_hostile_line_count_quickly():
    blob = DUMP_MAGIC + bytes([22, ord("I")]) + bytes(6) + bytes(10)
    assert len(blob) == 26
    started = time.perf_counter()
    with pytest.raises(ValueError, match="line count 22"):
        load_dump(blob)
    assert time.perf_counter() - started < 0.5
    with pytest.raises(ValueError, match="line count 0"):
        load_dump(DUMP_MAGIC + bytes([0, ord("I")]) + bytes(6))


def test_load_dump_rejects_nonzero_reserved_bytes():
    blob = bytearray(bfs(enumerate_ci(2)).dump())
    blob[12] = 1
    with pytest.raises(ValueError, match="reserved"):
        load_dump(bytes(blob))


@st.composite
def dump_like_bytes(draw):
    """A dump with each header field drawn from good and bad values, often cut short."""
    n = draw(st.sampled_from((0, 1, 2, 3, 4, 22, 255)))
    label = draw(st.sampled_from(b"IHX\x00"))
    reserved = draw(st.sampled_from((bytes(6), bytes([0, 0, 1, 0, 0, 0]))))
    body = bytes(draw(st.sampled_from((0, 1, 24, 40319, 40320, 40321))))
    data = DUMP_MAGIC + bytes([n, label]) + reserved + body
    return data[:draw(st.one_of(st.just(len(data)), st.integers(0, 16)))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=40), dump_like_bytes()))
def test_malformed_dump_raises_only_value_error(data):
    try:
        load_dump(data)
    except ValueError:
        pass


def test_csv_format():
    hist = bfs(enumerate_ci(2)).histogram
    lines = hist.to_csv().strip().splitlines()
    assert lines[0] == "distance,count"
    assert lines[1] == "0,1"
    assert lines[2] == "1,4"
