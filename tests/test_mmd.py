"""Transformation-based synthesis: worked trace, extremal inputs, invariants."""

import itertools
import random

import pytest

from revsynth.gates import Circuit, not_gate, toffoli
from revsynth.mmd import mmd_synthesize
from revsynth.perm import TruthVector

WORKED_INPUT = [1, 0, 3, 2, 5, 7, 4, 6]

# Intermediate truth vectors after each emitted gate, ending at identity.
WORKED_TRACE = [
    [0, 1, 2, 3, 4, 6, 5, 7],
    [0, 1, 2, 3, 4, 7, 5, 6],
    [0, 1, 2, 3, 4, 5, 7, 6],
    [0, 1, 2, 3, 4, 5, 6, 7],
]


def replay(f: TruthVector, circuit: Circuit) -> list[list[int]]:
    states = []
    cur = f
    for g in circuit.gates:
        cur = Circuit(cur.n, (g,)).apply(cur)
        states.append(list(cur.entries))
    return states


def test_worked_example_gates():
    circuit = mmd_synthesize(TruthVector(WORKED_INPUT))
    assert circuit.gates == (
        not_gate(3, 0),
        toffoli(3, [1, 2], 0),
        toffoli(3, [0, 2], 1),
        toffoli(3, [1, 2], 0),
    )


def test_worked_example_intermediates():
    f = TruthVector(WORKED_INPUT)
    assert replay(f, mmd_synthesize(f)) == WORKED_TRACE


def test_reversed_cascade_realizes_input():
    f = TruthVector(WORKED_INPUT)
    circuit = mmd_synthesize(f).inverse()
    assert circuit.apply(TruthVector.identity(3)) == f


def test_identity_needs_no_gates():
    for n in (1, 2, 3, 4):
        assert len(mmd_synthesize(TruthVector.identity(n))) == 0


def test_extremal_gate_counts():
    assert len(mmd_synthesize(TruthVector([7, 1, 4, 3, 0, 2, 6, 5]))) == 17
    n4 = [15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]
    assert len(mmd_synthesize(TruthVector(n4))) == 49


def test_gate_count_bound_attained_equals_formula():
    # 17 = (3-1)*2^3 + 1, 49 = (4-1)*2^4 + 1
    assert 17 == 2 * 8 + 1
    assert 49 == 3 * 16 + 1


def _first_unfixed(entries: list[int]) -> int:
    for i, v in enumerate(entries):
        if v != i:
            return i
    return len(entries)


def test_progress_invariants_sampled():
    """Per-gate contract: fixed prefix stays fixed, the working value only
    moves up during the raise phase and never drops below its row index."""
    rng = random.Random(31)
    samples = [TruthVector(rng.sample(range(16), 16)) for _ in range(200)]
    samples += [TruthVector(p) for p in itertools.islice(itertools.permutations(range(8)), 0, 5040, 97)]
    for f in samples:
        circuit = mmd_synthesize(f)
        cur = list(f.entries)
        for g in circuit.gates:
            i_star = _first_unfixed(cur)
            before = cur[i_star]
            cm, vm, flip = g.control_mask, g.value_mask, 1 << g.target
            cur = [x ^ flip if x & cm == vm else x for x in cur]
            assert all(cur[j] == j for j in range(min(i_star, _first_unfixed(cur))))
            if g.controls:
                after = cur[i_star]
                if after > before:
                    pass  # raise phase
                else:
                    assert i_star <= after < before
        assert cur == list(range(len(cur)))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_random_correctness_and_bound(n):
    rng = random.Random(32 + n)
    bound = (n - 1) * (1 << n) + 1
    for _ in range(100):
        f = TruthVector(rng.sample(range(1 << n), 1 << n))
        circuit = mmd_synthesize(f)
        assert len(circuit) <= bound
        assert circuit.apply(f).is_identity()
        assert all(g.is_g_toffoli() for g in circuit.gates)


def test_exhaustive_s8_sample_slice():
    # full S8 coverage lives in the acceptance suite; spot-check a stride here
    for entries in itertools.islice(itertools.permutations(range(8)), 0, 40320, 1009):
        f = TruthVector(entries)
        circuit = mmd_synthesize(f)
        assert circuit.apply(f).is_identity()
        assert len(circuit) <= 17
