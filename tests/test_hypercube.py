"""Hypercube-walk synthesis: worked trace, scan orders, move accounting."""

import itertools
import random
import time

import pytest

from reference import words_after
from revsynth.cli import SYNTHESIZERS
from revsynth.gates import Circuit, parse_circuit
from revsynth.hypercube import hc_bidirectional, hc_synthesize
from revsynth.mmd import mmd_synthesize
from revsynth.perm import TruthVector

WORKED_INPUT = [7, 4, 1, 0, 3, 2, 6, 5]

WORKED_GATES = """.n 3
t3 a,c,b
t3 b,c',a
t3 a,c',b
t3 a,b',c
t3 a',c',b
t3 a',b',c
t3 b,c',a
t3 b',c',a
"""

# Vector after each of the eight gates.
WORKED_TRACE = [
    [5, 4, 1, 0, 3, 2, 6, 7],
    [5, 4, 1, 0, 2, 3, 6, 7],
    [5, 4, 3, 0, 2, 1, 6, 7],
    [1, 4, 3, 0, 2, 5, 6, 7],
    [1, 4, 3, 2, 0, 5, 6, 7],
    [1, 0, 3, 2, 4, 5, 6, 7],
    [1, 0, 2, 3, 4, 5, 6, 7],
    [0, 1, 2, 3, 4, 5, 6, 7],
]


def test_worked_example_gates_in_order():
    circuit = hc_synthesize(TruthVector(WORKED_INPUT), "right")
    assert circuit == parse_circuit(WORKED_GATES)


def test_worked_example_intermediates():
    f = TruthVector(WORKED_INPUT)
    cur = f
    states = []
    for g in hc_synthesize(f, "right").gates:
        cur = Circuit(cur.n, (g,)).apply(cur)
        states.append(list(cur.entries))
    assert states == WORKED_TRACE


def test_identity_needs_no_gates():
    assert len(hc_synthesize(TruthVector.identity(4), "right")) == 0
    assert len(hc_synthesize(TruthVector.identity(3), "left")) == 0
    assert len(hc_bidirectional(TruthVector.identity(3))) == 0


@pytest.mark.parametrize("synthesize", [
    lambda f: hc_synthesize(f, "right"), lambda f: hc_synthesize(f, "left"), hc_bidirectional,
])
def test_a_scan_that_misses_the_identity_is_an_internal_failure(synthesize):
    tv = TruthVector(WORKED_INPUT)
    object.__setattr__(tv, "where", tv.where[::-1])  # a corrupt inverse misdirects the swaps
    with pytest.raises(RuntimeError, match="^synthesis failed to reach the identity$"):
        synthesize(tv)


def test_extremal_gate_counts_right():
    assert len(hc_synthesize(TruthVector([5, 2, 7, 4, 1, 6, 3, 0]), "right")) == 17
    n4 = [5, 10, 7, 4, 9, 14, 11, 8, 13, 2, 15, 12, 1, 6, 3, 0]
    assert len(hc_synthesize(TruthVector(n4), "right")) == 49


def test_extremal_gate_counts_left():
    assert len(hc_synthesize(TruthVector([7, 4, 1, 6, 3, 0, 5, 2]), "left")) == 17
    n4 = [15, 12, 9, 14, 3, 0, 13, 2, 7, 4, 1, 6, 11, 8, 5, 10]
    assert len(hc_synthesize(TruthVector(n4), "left")) == 49


@pytest.mark.parametrize("n", range(1, 11))
def test_reverse_attains_the_hamming_lower_bound(n):
    """The paper's H_n diameter bound as a checked fact: every hypercube order
    gives the reverse permutation exactly n * 2^(n-1) gates, which is d_H / 2,
    the least any cascade of full-control gates (each a two-bit move) can have."""
    reverse = TruthVector.reverse(n)
    bound = reverse.hamming(TruthVector.identity(n)) // 2
    assert bound == n << n - 1
    for algo in ("hc-right", "hc-left", "hc-bi"):
        cascade = SYNTHESIZERS[algo](reverse)
        assert len(cascade) == bound, algo
        assert cascade.apply(reverse).is_identity(), algo


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        hc_synthesize(TruthVector.identity(2), "sideways")


def test_bidirectional_takes_smaller_side_tie_right():
    rng = random.Random(41)
    for _ in range(200):
        f = TruthVector(rng.sample(range(8), 8))
        right = hc_synthesize(f, "right")
        left = hc_synthesize(f, "left")
        bi = hc_bidirectional(f)
        assert len(bi) == min(len(right), len(left))
        if len(right) == len(left):
            assert bi == right


def test_gates_are_full_control():
    f = TruthVector([5, 2, 7, 4, 1, 6, 3, 0])
    for order in ("right", "left"):
        for g in hc_synthesize(f, order).gates:
            assert g.is_mc_toffoli()


def test_every_gate_is_a_two_bit_move_toward_home():
    """Each gate changes exactly two bits overall and strictly reduces the
    scanned entry's Hamming distance to its home value by one."""
    rng = random.Random(42)
    ident = TruthVector.identity(4)
    for _ in range(50):
        f = TruthVector(rng.sample(range(16), 16))
        cur = f
        for g in hc_synthesize(f, "right").gates:
            nxt = Circuit(cur.n, (g,)).apply(cur)
            assert cur.hamming(nxt) == 2
            assert nxt.hamming(ident) <= cur.hamming(ident)  # never a -2-move
            cur = nxt
        assert cur == ident


def test_suffix_fixed_right_prefix_fixed_left():
    rng = random.Random(43)
    for order in ("right", "left"):
        for _ in range(50):
            f = TruthVector(rng.sample(range(8), 8))
            cur = list(f.entries)
            fixed_high = 8  # right order: all positions >= this hold their index
            fixed_low = -1  # left order: all positions <= this do
            for g in hc_synthesize(f, order).gates:
                cur = words_after([g], cur)
                if order == "right":
                    while fixed_high > 0 and cur[fixed_high - 1] == fixed_high - 1:
                        fixed_high -= 1
                    assert all(cur[k] == k for k in range(fixed_high, 8))
                else:
                    while fixed_low < 7 and cur[fixed_low + 1] == fixed_low + 1:
                        fixed_low += 1
                    assert all(cur[k] == k for k in range(fixed_low + 1))


def test_left_is_right_conjugated_by_complement():
    """Complementing all bits of positions and values swaps the two scan
    orders, so their gate counts agree on conjugate inputs."""
    rng = random.Random(44)
    for _ in range(100):
        f = TruthVector(rng.sample(range(8), 8))
        conj = TruthVector([7 - f.entries[7 - i] for i in range(8)])
        assert len(hc_synthesize(f, "left")) == len(hc_synthesize(conj, "right"))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_random_correctness_and_bound(n):
    rng = random.Random(45 + n)
    bound = (n - 1) * (1 << n) + 1
    for _ in range(100):
        f = TruthVector(rng.sample(range(1 << n), 1 << n))
        for order in ("right", "left"):
            circuit = hc_synthesize(f, order)
            assert len(circuit) <= bound
            assert circuit.apply(f).is_identity()


def test_exhaustive_s8_sample_slice():
    for entries in itertools.islice(itertools.permutations(range(8)), 0, 40320, 1013):
        f = TruthVector(entries)
        for order in ("right", "left"):
            circuit = hc_synthesize(f, order)
            assert circuit.apply(f).is_identity()
            assert len(circuit) <= 17


def test_wide_reverify_costs_the_swaps_not_the_entries():
    """An n = 10 full-control cascade re-verifies in a few thousand swaps.

    Comparing all 1,024 entries for each of its ~4,800 gates took about
    0.3 s; one swap per gate stays far below the bound.
    """
    rng = random.Random(46)
    f = TruthVector(rng.sample(range(1 << 10), 1 << 10))
    circuit = hc_synthesize(f, "right")
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        assert circuit.apply(f).is_identity()
        timings.append(time.perf_counter() - started)
    assert min(timings) < 0.05, (len(circuit), timings)


@pytest.mark.parametrize("n", [10, 11])  # shared set members, then gates built one by one
def test_cascades_on_both_sides_of_the_enumeration_cap_stay_in_their_family(n):
    f = TruthVector(random.Random(n).sample(range(1 << n), 1 << n))
    bound = (n - 1) * (1 << n) + 1
    cascades = {
        "I": [mmd_synthesize(f)],
        "H": [hc_synthesize(f, "right"), hc_synthesize(f, "left"), hc_bidirectional(f)],
    }
    for label, circuits in cascades.items():
        for circuit in circuits:
            assert circuit.apply(f).is_identity() and 0 < len(circuit) <= bound
            if label == "I":
                assert all(g.is_g_toffoli() for g in circuit)
            else:
                assert all(g.is_mc_toffoli() for g in circuit)
    assert hc_bidirectional(f) == min(cascades["H"][:2], key=len)
