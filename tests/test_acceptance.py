"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 5 asserts the exact mean of the reference
three-line optimal distribution, 236497/40320 ~ 5.8655.  The source's summary
row states 5.63, which contradicts that distribution, so the stated value is
recorded in the criterion's report line but not asserted.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import revsynth.cayley as cayley
from revsynth.cayley import (
    bfs,
    distance,
    hamming_distance_audit,
)
from revsynth.cost import GarbagePolicy, cost_of, cost_report, worst_case_qc
from revsynth.decompose import (
    AncillaCircuit,
    AncillaMode,
    expand_circuit,
    split_one_borrowed,
    verify_circuit_equivalence,
)
from revsynth.elementary import verify_elementary
from revsynth.gates import Circuit, Gate, enumerate_ch, enumerate_ci, parse_circuit, toffoli
from revsynth.hypercube import hc_synthesize
from revsynth.mmd import mmd_synthesize
from revsynth.perm import TruthVector

ZERO = GarbagePolicy.ZERO
ONE = GarbagePolicy.ONE
NM3 = GarbagePolicy.N_MINUS_THREE

# Reference exhaustive n = 3 distributions (gate count -> permutations).
DIST_MMD = {17: 1, 16: 14, 15: 92, 14: 380, 13: 1113, 12: 2468, 11: 4311,
            10: 6083, 9: 7044, 8: 6754, 7: 5379, 6: 3549, 5: 1922, 4: 839,
            3: 286, 2: 72, 1: 12, 0: 1}
DIST_BIDIRECTIONAL = {14: 9, 13: 111, 12: 581, 11: 1946, 10: 4349, 9: 6917,
                      8: 8255, 7: 7662, 6: 5546, 5: 3088, 4: 1329, 3: 424,
                      2: 90, 1: 12, 0: 1}
DIST_OPTIMAL_CI = {8: 577, 7: 10253, 6: 17049, 5: 8921, 4: 2780, 3: 625,
                   2: 102, 1: 12, 0: 1}

# Frozen from the first exhaustive run of this package's own BFS.
H3_FIXTURE = {0: 1, 1: 12, 2: 90, 3: 476, 4: 1903, 5: 5472, 6: 10388,
              7: 11756, 8: 7347, 9: 2408, 10: 430, 11: 36, 12: 1}
H3_DIAMETER = 12


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def s8_sweep():
    """One pass over all 40320 three-line permutations with both algorithms.

    Collects gate counts in rank order plus correctness/membership/bound
    verdicts, re-applying every cascade to its input as an independent check.
    """
    started = time.perf_counter()
    mmd_counts = []
    right_counts = []
    left_counts = []
    all_correct = True
    all_members = True
    all_bounded = True
    identity3 = TruthVector.identity(3)
    for entries in itertools.permutations(range(8)):
        tv = TruthVector(entries)
        c_mmd = mmd_synthesize(tv)
        c_right = hc_synthesize(tv, "right")
        c_left = hc_synthesize(tv, "left")
        mmd_counts.append(len(c_mmd))
        right_counts.append(len(c_right))
        left_counts.append(len(c_left))
        for circuit in (c_mmd, c_right, c_left):
            if circuit.apply(tv) != identity3:
                all_correct = False
            if len(circuit) > 17:
                all_bounded = False
        if not all(g.is_g_toffoli() for g in c_mmd.gates):
            all_members = False
        if not all(g.is_mc_toffoli() for g in c_right.gates + c_left.gates):
            all_members = False
    return {
        "mmd": mmd_counts,
        "right": right_counts,
        "left": left_counts,
        "correct": all_correct,
        "members": all_members,
        "bounded": all_bounded,
        "elapsed": time.perf_counter() - started,
    }


def _median_runtime(fn, repeats: int = 7) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[repeats // 2]


def test_criterion_01_worked_example_replay():
    f = TruthVector([1, 0, 3, 2, 5, 7, 4, 6])
    circuit = mmd_synthesize(f)
    expected_emission = (
        Gate(3, 0),
        toffoli(3, [1, 2], 0),
        toffoli(3, [0, 2], 1),
        toffoli(3, [1, 2], 0),
    )
    gates_ok = circuit.gates == expected_emission
    reversed_ok = tuple(reversed(circuit.gates)) == (
        toffoli(3, [1, 2], 0),
        toffoli(3, [0, 2], 1),
        toffoli(3, [1, 2], 0),
        Gate(3, 0),
    )
    trace = []
    cur = f
    for g in circuit.gates:
        cur = Circuit(cur.n, (g,)).apply(cur)
        trace.append(list(cur.entries))
    trace_ok = trace == [
        [0, 1, 2, 3, 4, 6, 5, 7],
        [0, 1, 2, 3, 4, 7, 5, 6],
        [0, 1, 2, 3, 4, 5, 7, 6],
        [0, 1, 2, 3, 4, 5, 6, 7],
    ]
    runtime = _median_runtime(lambda: mmd_synthesize(f))
    ok = gates_ok and reversed_ok and trace_ok and runtime < 1e-3
    report(1, ok, f"4 gates, trace exact, median {runtime * 1e6:.0f} us")
    assert gates_ok and reversed_ok and trace_ok
    assert runtime < 1e-3


def test_criterion_02_hypercube_trace_replay():
    f = TruthVector([7, 4, 1, 0, 3, 2, 6, 5])
    circuit = hc_synthesize(f, "right")
    expected = parse_circuit(
        ".n 3\nt3 a,c,b\nt3 b,c',a\nt3 a,c',b\nt3 a,b',c\n"
        "t3 a',c',b\nt3 a',b',c\nt3 b,c',a\nt3 b',c',a\n"
    )
    gates_ok = circuit == expected
    trace = []
    cur = f
    for g in circuit.gates:
        cur = Circuit(cur.n, (g,)).apply(cur)
        trace.append(list(cur.entries))
    trace_ok = trace == [
        [5, 4, 1, 0, 3, 2, 6, 7],
        [5, 4, 1, 0, 2, 3, 6, 7],
        [5, 4, 3, 0, 2, 1, 6, 7],
        [1, 4, 3, 0, 2, 5, 6, 7],
        [1, 4, 3, 2, 0, 5, 6, 7],
        [1, 0, 3, 2, 4, 5, 6, 7],
        [1, 0, 2, 3, 4, 5, 6, 7],
        [0, 1, 2, 3, 4, 5, 6, 7],
    ]
    runtime = _median_runtime(lambda: hc_synthesize(f, "right"))
    ok = gates_ok and trace_ok and runtime < 1e-3
    report(2, ok, f"8 gates in order, trace exact, median {runtime * 1e6:.0f} us")
    assert gates_ok and trace_ok
    assert runtime < 1e-3


def test_criterion_03_extremal_gate_counts():
    cases = [
        (mmd_synthesize, TruthVector([7, 1, 4, 3, 0, 2, 6, 5]), 17),
        (mmd_synthesize,
         TruthVector([15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]), 49),
        (lambda f: hc_synthesize(f, "right"), TruthVector([5, 2, 7, 4, 1, 6, 3, 0]), 17),
        (lambda f: hc_synthesize(f, "right"),
         TruthVector([5, 10, 7, 4, 9, 14, 11, 8, 13, 2, 15, 12, 1, 6, 3, 0]), 49),
        (lambda f: hc_synthesize(f, "left"), TruthVector([7, 4, 1, 6, 3, 0, 5, 2]), 17),
        (lambda f: hc_synthesize(f, "left"),
         TruthVector([15, 12, 9, 14, 3, 0, 13, 2, 7, 4, 1, 6, 11, 8, 5, 10]), 49),
    ]
    got = [len(synth(f)) for synth, f, _ in cases]
    want = [w for _, _, w in cases]
    report(3, got == want, f"gate counts {got} == {want}")
    assert got == want


def test_criterion_04_exhaustive_distributions(s8_sweep):
    mmd_hist = dict(Counter(s8_sweep["mmd"]))
    right_hist = dict(Counter(s8_sweep["right"]))
    bi_hist = dict(
        Counter(min(r, l) for r, l in zip(s8_sweep["right"], s8_sweep["left"]))
    )
    mmd_avg = sum(s8_sweep["mmd"]) / 40320
    bi_avg = sum(min(r, l) for r, l in zip(s8_sweep["right"], s8_sweep["left"])) / 40320
    ok = (
        mmd_hist == DIST_MMD
        and right_hist == DIST_MMD
        and bi_hist == DIST_BIDIRECTIONAL
        and abs(mmd_avg - 8.67) <= 0.005
        and abs(bi_avg - 7.71) <= 0.005
        and s8_sweep["elapsed"] < 60.0
    )
    report(
        4,
        ok,
        f"histograms exact, averages {mmd_avg:.4f}/{bi_avg:.4f}, "
        f"sweep {s8_sweep['elapsed']:.1f}s",
    )
    assert mmd_hist == DIST_MMD
    assert right_hist == DIST_MMD  # unidirectional column equals the mmd one
    assert bi_hist == DIST_BIDIRECTIONAL
    assert abs(mmd_avg - 8.67) <= 0.005
    assert abs(bi_avg - 7.71) <= 0.005
    assert s8_sweep["elapsed"] < 60.0


def test_criterion_05_optimal_ground_truth():
    cayley.bfs.cache_clear()  # time a cold run
    started = time.perf_counter()
    result = bfs(enumerate_ci(3))
    elapsed = time.perf_counter() - started
    hist = result.histogram
    hist_ok = hist.counts == DIST_OPTIMAL_CI
    diameter_ok = hist.diameter == 8
    level1_ok = hist.counts[1] == 12 == 3 * (1 << 2)
    time_ok = elapsed < 30.0
    # The expected mean comes from the reference distribution, not from the
    # program's counts.  The source's summary row states 5.63, which no
    # histogram equal to DIST_OPTIMAL_CI can have, so it is not asserted.
    ref_mean = Fraction(
        sum(d * c for d, c in DIST_OPTIMAL_CI.items()),
        sum(DIST_OPTIMAL_CI.values()),
    )
    ref_ok = ref_mean == Fraction(236497, 40320)
    avg_ok = abs(hist.average - float(ref_mean)) < 1e-12
    rounded_ok = abs(hist.average - 5.87) <= 0.005
    report(
        5,
        hist_ok and diameter_ok and level1_ok and time_ok
        and ref_ok and avg_ok and rounded_ok,
        f"histogram exact, diameter 8, level-1 12, {elapsed:.1f}s; "
        f"mean {hist.average:.4f} = 236497/40320 "
        "(the source's summary row states 5.63, inconsistent with it)",
    )
    assert hist_ok and diameter_ok and level1_ok and time_ok
    assert ref_ok
    assert avg_ok
    assert rounded_ok


def test_criterion_06_full_control_graph_properties():
    cayley.bfs.cache_clear()
    started = time.perf_counter()
    result = bfs(enumerate_ch(3))
    elapsed = time.perf_counter() - started
    audit = hamming_distance_audit(3)
    rho = TruthVector.reverse(3)
    checks = {
        "bipartite": result.bipartite,
        "parity layering": audit.parity_consistent,
        "diameter in [12, 17]": 12 <= result.histogram.diameter <= 17,
        "reverse distance >= 12": distance(rho, enumerate_ch(3)) >= 12,
        "sandwich all vertices": audit.violations == 0
        and audit.vertices_checked == 40319,
        "frozen fixture": result.histogram.counts == H3_FIXTURE
        and result.histogram.diameter == H3_DIAMETER,
        "runtime": elapsed < 30.0,
    }
    report(
        6,
        all(checks.values()),
        f"diameter {result.histogram.diameter}, reverse at "
        f"{distance(rho, enumerate_ch(3))}, {elapsed:.1f}s",
    )
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, failed


def test_criterion_07_odd_cycle_and_bipartite_witnesses():
    vertices = [
        TruthVector([3, 1, 0, 2]),
        TruthVector([3, 1, 2, 0]),
        TruthVector([1, 3, 0, 2]),
        TruthVector([0, 2, 1, 3]),
        TruthVector([0, 2, 3, 1]),
    ]
    steps = [
        TruthVector([0, 1, 3, 2]),
        TruthVector([1, 0, 3, 2]),
        TruthVector([2, 3, 0, 1]),
        TruthVector([0, 1, 3, 2]),
        TruthVector([2, 3, 0, 1]),
    ]
    library = {Circuit(2, (g,)).perm() for g in enumerate_ci(2).members}
    walk_ok = all(step in library for step in steps)
    cur = vertices[0]
    for expected_next, step in zip(vertices[1:] + vertices[:1], steps):
        cur = cur.compose(step)
        walk_ok = walk_ok and cur == expected_next
    closed_odd = cur == vertices[0] and len(steps) % 2 == 1
    i2 = bfs(enumerate_ci(2))
    h2 = bfs(enumerate_ch(2))
    ok = walk_ok and closed_odd and not i2.bipartite and h2.bipartite
    report(
        7,
        ok,
        "length-5 closed walk verified; all-positive graph odd, "
        "full-control graph bipartite",
    )
    assert walk_ok and closed_odd
    assert not i2.bipartite and h2.bipartite  # hence not isomorphic


def test_criterion_08_synthesis_property_suite(s8_sweep):
    dist_i = bfs(enumerate_ci(3)).distances
    dist_h = bfs(enumerate_ch(3)).distances
    dominance = True
    equality_small = True
    for r in range(40320):
        if s8_sweep["mmd"][r] < dist_i[r] or s8_sweep["right"][r] < dist_h[r]:
            dominance = False
        if dist_i[r] <= 1 and s8_sweep["mmd"][r] != dist_i[r]:
            equality_small = False
        if dist_h[r] <= 1 and s8_sweep["right"][r] != dist_h[r]:
            equality_small = False

    random_ok = True
    for n in (4, 5, 6):
        rng = random.Random(800 + n)
        bound = (n - 1) * (1 << n) + 1
        identity_n = TruthVector.identity(n)
        for _ in range(10_000):
            tv = TruthVector(rng.sample(range(1 << n), 1 << n))
            c_mmd = mmd_synthesize(tv)
            c_r = hc_synthesize(tv, "right")
            c_l = hc_synthesize(tv, "left")
            if not (
                c_mmd.apply(tv) == identity_n
                and c_r.apply(tv) == identity_n
                and c_l.apply(tv) == identity_n
            ):
                random_ok = False
            if max(len(c_mmd), len(c_r), len(c_l)) > bound:
                random_ok = False
            if not all(g.is_g_toffoli() for g in c_mmd.gates):
                random_ok = False
            if not all(g.is_mc_toffoli() for g in c_r.gates + c_l.gates):
                random_ok = False
    ok = (
        s8_sweep["correct"]
        and s8_sweep["members"]
        and s8_sweep["bounded"]
        and dominance
        and equality_small
        and random_ok
    )
    report(
        8,
        ok,
        "all 40320 + 3x10^4 random cascades correct, bounded, in-library, "
        "never beating exact distances",
    )
    assert s8_sweep["correct"] and s8_sweep["members"] and s8_sweep["bounded"]
    assert dominance and equality_small and random_ok


def test_criterion_09_decomposition_equivalence_sweep():
    def expand(g, strategy):
        return expand_circuit(Circuit(g.n, (g,)), strategy)

    def verify(g, impl):
        return verify_circuit_equivalence(Circuit(g.n, (g,)), impl)

    started = time.perf_counter()
    rng = random.Random(900)
    counts_ok = True
    cost_ok = True
    for s in range(4, 11):
        positive = toffoli(s, range(s - 1), s - 1)
        ladder = expand(positive, "zeroed")
        counts_ok = counts_ok and len(ladder.gates) == 2 * s - 5
        cost_ok = cost_ok and cost_report(ladder.gates, ZERO).quantum_cost == 10 * s - 25
        for _ in range(50):
            target = rng.randrange(s)
            others = [l for l in range(s) if l != target]
            g = toffoli(s, others, target, [l for l in others if rng.random() < 0.5])
            lz = expand(g, "zeroed")
            assert len(lz.gates) == 2 * s - 5
            assert verify(g, lz).equivalent
            if s >= 5:
                lb = expand(g, "borrowed")
                assert len(lb.gates) == 4 * (s - 3)
                assert verify(g, lb).equivalent
                assert verify(g, expand(g, "one-garbage")).equivalent
                target2, free = rng.sample(range(s + 1), 2)
                controls = frozenset(range(s + 1)) - {target2, free}
                gf = toffoli(s + 1, controls, target2, (
                    c for c in controls if rng.random() < 0.5
                ))
                quad = split_one_borrowed(gf)
                impl = AncillaCircuit(
                    s + 1, 0, AncillaMode.BORROWED_RESTORED, Circuit(s + 1, quad)
                )
                assert verify(gf, impl).equivalent
                eg = expand(gf, "one-garbage")
                assert all(x.size <= 3 for x in eg.gates.gates)
                assert verify(gf, eg).equivalent
    elapsed = time.perf_counter() - started
    ok = counts_ok and cost_ok and elapsed < 120.0
    report(9, ok, f"sizes 4..10, 50 patterns each, exhaustive; {elapsed:.1f}s")
    assert counts_ok and cost_ok
    assert elapsed < 120.0


def test_criterion_10_elementary_identities():
    checks = verify_elementary()
    by_name = {c.name: c for c in checks}
    v2 = by_name["v_squared_is_x"]
    names = [
        "two_positive_controls_x",
        "two_positive_controls_v",
        "one_negative_control_x",
        "one_negative_control_v",
    ]
    residuals_ok = all(by_name[k].residual <= 1e-10 for k in names)
    ok = residuals_ok and v2.residual <= 1e-12 and all(c.ok for c in checks)
    worst = max(by_name[k].residual for k in names)
    report(10, ok, f"five-gate identities to {worst:.2e}, root defect {v2.residual:.2e}")
    assert residuals_ok
    assert v2.residual <= 1e-12


def test_criterion_11_cost_model_values():
    table_rows = [
        (1, 0, ZERO, 1),
        (2, 0, ZERO, 1),
        (3, 0, ZERO, 5),
        (3, 1, ZERO, 5),
        (3, 2, ZERO, 7),
    ]
    rows_ok = all(cost_of(s, m, p) == want for s, m, p, want in table_rows)
    for n in (5, 7, 9):
        rows_ok = rows_ok and cost_of(n, 0, ZERO) == (1 << n) - 3
        for m in (1, n - 1):
            rows_ok = rows_ok and cost_of(n, m, ZERO) == (1 << n) - 3 + 2 * m
    formulas_ok = worst_case_qc(3, "I", ZERO) == 85
    for n in range(5, 11):
        bound = (n - 1) * (1 << n) + 1
        formulas_ok = formulas_ok and (
            worst_case_qc(n, "I", ZERO) == bound * ((1 << n) - 3)
            and worst_case_qc(n, "I", ONE) == bound * (24 * n - 88)
            and worst_case_qc(n, "I", NM3) == bound * (10 * n - 25)
            and worst_case_qc(n, "H", ZERO, m=n - 1) == bound * ((1 << n) - 3 + 2 * (n - 1))
            and worst_case_qc(n, "H", ONE) == bound * (24 * n - 86)
            and worst_case_qc(n, "H", NM3) == bound * (10 * n - 23)
        )
    ok = rows_ok and formulas_ok
    report(11, ok, "all tabulated costs and worst-case products reproduced")
    assert rows_ok and formulas_ok
