"""Ancilla-based gate expansions, all checked by exhaustive simulation."""

import random

import numpy as np
import pytest

from revsynth.cost import GarbagePolicy, circuit_cost
from revsynth.decompose import (
    AncillaCircuit,
    AncillaMode,
    expand_circuit,
    expand_one_garbage,
    ladder_borrowed,
    ladder_zeroed,
    split_one_borrowed,
    verify_circuit_equivalence,
    verify_equivalence,
)
from revsynth.gates import Circuit, Gate, fold_words, mc_gate, parse_circuit, toffoli


def random_full_gate(n: int, rng: random.Random) -> Gate:
    target = rng.randrange(n)
    negated = frozenset(
        l for l in range(n) if l != target and rng.random() < 0.5
    )
    return mc_gate(n, target, negated)


def random_gate_with_free_line(n: int, rng: random.Random) -> Gate:
    target, free = rng.sample(range(n), 2)
    controls = frozenset(range(n)) - {target, free}
    negated = frozenset(l for l in controls if rng.random() < 0.5)
    return toffoli(n, controls, target, negated)


def test_zeroed_ladder_matches_reference_instance():
    # size-6 gate, controls a+ b- c- d- e-, target f; three zeroed helpers
    g = toffoli(6, range(5), 5, {1, 2, 3, 4})
    ladder = ladder_zeroed(g)
    assert ladder.ancilla_lines == 3
    assert ladder.ancilla_mode is AncillaMode.ZEROED_RESTORED
    assert [x.spec() for x in ladder.gates.gates] == [
        "t3 a,b',g",
        "t3 c',g,h",
        "t3 d',h,i",
        "t3 e',i,f",
        "t3 d',h,i",
        "t3 c',g,h",
        "t3 a,b',g",
    ]
    assert verify_equivalence(g, ladder).equivalent


def test_zeroed_ladder_all_positive_cost_is_linear():
    for s in (4, 6, 8, 10):
        g = toffoli(s, range(s - 1), s - 1)
        ladder = ladder_zeroed(g)
        assert len(ladder.gates) == 2 * s - 5
        gc, qc = circuit_cost(ladder.gates, GarbagePolicy.ZERO)
        assert qc == 10 * s - 25
        assert gc * 5 == qc  # every sub-gate is a positive Toffoli


def test_zeroed_ladder_size_floor():
    with pytest.raises(ValueError, match="size >= 4"):
        ladder_zeroed(toffoli(3, {0, 1}, 2))


def test_borrowed_ladder_matches_reference_instance():
    g = toffoli(6, range(5), 5, {1, 2, 3, 4})
    network = ladder_borrowed(g)
    assert network.ancilla_lines == 3
    assert network.ancilla_mode is AncillaMode.BORROWED_RESTORED
    assert [x.spec() for x in network.gates.gates] == [
        "t3 e',i,f",
        "t3 d',h,i",
        "t3 c',g,h",
        "t3 a,b',g",
        "t3 c',g,h",
        "t3 d',h,i",
        "t3 e',i,f",
        "t3 d',h,i",
        "t3 c',g,h",
        "t3 a,b',g",
        "t3 c',g,h",
        "t3 d',h,i",
    ]
    outcome = verify_equivalence(g, network)
    assert outcome.equivalent
    assert outcome.inputs_checked == 1 << 9  # helpers take all values


def test_borrowed_ladder_size_floor():
    with pytest.raises(ValueError, match="size >= 5"):
        ladder_borrowed(toffoli(4, {0, 1, 2}, 3))


def test_split_matches_reference_instance():
    # size-8 gate on nine lines: controls a+ b- ... g-, target i, h free
    g = toffoli(9, range(7), 8, {1, 2, 3, 4, 5, 6})
    g1, g2, g3, g4 = split_one_borrowed(g)
    assert (g1, g2) == (g3, g4)
    assert g1.spec() == "t6 a,b',c',d',e',h"
    assert g2.spec() == "t4 f',g',h,i"
    impl = AncillaCircuit(
        9, 0, AncillaMode.BORROWED_RESTORED, Circuit(9, (g1, g2, g3, g4))
    )
    assert verify_equivalence(g, impl).equivalent


def test_split_needs_free_line():
    with pytest.raises(ValueError, match="free line"):
        split_one_borrowed(mc_gate(6, 5))


def test_split_halves_sizes():
    for s in range(5, 11):
        g = toffoli(s + 1, range(s - 1), s)  # line s-1 free
        g1, g2, _, _ = split_one_borrowed(g)
        assert len(g1.controls) == (s + 2) // 2
        assert len(g2.controls) == (s - 1) - (s + 2) // 2 + 1  # plus borrow
        assert g1.size < s and g2.size < s


def test_expand_one_garbage_reaches_toffoli_size():
    g = toffoli(9, range(7), 8, {1, 2, 3, 4, 5, 6})
    expansion = expand_one_garbage(g)
    assert expansion.ancilla_lines == 0  # reuses the free principal line
    assert all(x.size <= 3 for x in expansion.gates.gates)
    outcome = verify_equivalence(g, expansion)
    assert outcome.equivalent
    assert outcome.inputs_checked == 1 << 9


def test_expand_one_garbage_full_control_adds_one_line():
    g = mc_gate(6, 2, negated={0, 5})
    expansion = expand_one_garbage(g)
    assert expansion.ancilla_lines == 1
    assert all(x.size <= 3 for x in expansion.gates.gates)
    assert verify_equivalence(g, expansion).equivalent


def test_expansions_leave_non_matching_inputs_alone():
    g = toffoli(5, range(4), 4, {1})
    ladder = ladder_zeroed(g)
    words = np.arange(1 << 5, dtype=np.uint32)
    idle = words[fold_words(words, (g,)) == words]
    assert len(idle) == 30
    assert fold_words(idle, ladder.gates.gates).tolist() == idle.tolist()


def test_mutated_network_fails_with_counterexample():
    g = toffoli(6, range(5), 5, {2})
    ladder = ladder_zeroed(g)
    broken = AncillaCircuit(
        ladder.principal_lines,
        ladder.ancilla_lines,
        ladder.ancilla_mode,
        Circuit(ladder.gates.n, ladder.gates.gates[:-1]),
    )
    outcome = verify_equivalence(g, broken)
    assert not outcome.equivalent
    assert outcome.counterexample is not None
    # replay the counterexample: the broken network must truly disagree
    word = outcome.counterexample
    out = int(fold_words(np.array([word], dtype=np.uint32), broken.gates.gates)[0])
    principal = (1 << 6) - 1
    expected = int(fold_words(np.array([word & principal], dtype=np.uint32), (g,))[0])
    assert (out & principal) != expected or (out >> 6 != word >> 6)


def test_single_gate_passthrough_verifies():
    g = toffoli(2, {0}, 1)
    impl = AncillaCircuit(2, 0, AncillaMode.ZEROED_RESTORED, Circuit(2, (g,)))
    assert verify_equivalence(g, impl).equivalent


@pytest.mark.parametrize("size", range(4, 11))
def test_randomized_polarities_all_strategies(size):
    rng = random.Random(600 + size)
    for _ in range(8):
        g = random_full_gate(size, rng)
        ladder = ladder_zeroed(g)
        assert len(ladder.gates) == 2 * size - 5
        assert verify_equivalence(g, ladder).equivalent
        if size >= 5:
            network = ladder_borrowed(g)
            assert len(network.gates) == 4 * (size - 3)
            assert verify_equivalence(g, network).equivalent
            assert verify_equivalence(g, expand_one_garbage(g)).equivalent
            gf = random_gate_with_free_line(size + 1, rng)
            quad = Circuit(size + 1, split_one_borrowed(gf))
            impl = AncillaCircuit(size + 1, 0, AncillaMode.BORROWED_RESTORED, quad)
            assert verify_equivalence(gf, impl).equivalent


def test_verify_rejects_mismatch_and_budget():
    g = toffoli(4, {0, 1, 2}, 3)
    ladder = ladder_zeroed(g)
    with pytest.raises(ValueError, match="lines"):
        verify_equivalence(toffoli(5, {0, 1, 2, 3}, 4), ladder)
    wide = AncillaCircuit(20, 3, AncillaMode.BORROWED_RESTORED, Circuit(23))
    with pytest.raises(ValueError, match="budget"):
        verify_equivalence(toffoli(20, range(1, 20), 0), wide)


def test_expansions_beyond_line_limit_name_the_ancilla():
    wide = mc_gate(22, 21)
    for expander in (ladder_zeroed, ladder_borrowed):
        with pytest.raises(ValueError, match="needs 19 ancilla lines, 41 in all; the limit is 24"):
            expander(wide)
    with pytest.raises(ValueError, match="needs 1 ancilla lines, 25 in all; the limit is 24"):
        expand_one_garbage(mc_gate(24, 0))


def test_ancilla_circuit_validation():
    with pytest.raises(ValueError, match="span"):
        AncillaCircuit(3, 1, AncillaMode.ZEROED_RESTORED, Circuit(3))
    with pytest.raises(ValueError, match="negative"):
        AncillaCircuit(3, -1, AncillaMode.ZEROED_RESTORED, Circuit(2))


def test_expand_circuit_zeroed_round_trip():
    text = ".n 5\nt5 a,b',c,d',e\nt1 a\nt4 b,c,d,e\nt2 a,b\n"
    circuit = parse_circuit(text)
    expansion = expand_circuit(circuit, "zeroed")
    assert expansion.ancilla_mode is AncillaMode.ZEROED_RESTORED
    assert expansion.ancilla_lines == 2  # the size-5 gate dominates
    assert verify_circuit_equivalence(circuit, expansion).equivalent


def test_expand_circuit_one_garbage_round_trip():
    text = ".n 5\nt5 a,b',c,d',e\nt5 a',b,c,d,e\nt1 c\n"
    circuit = parse_circuit(text)
    expansion = expand_circuit(circuit, "one-garbage")
    assert expansion.ancilla_lines == 1
    assert all(g.size <= 3 for g in expansion.gates.gates)
    assert verify_circuit_equivalence(circuit, expansion).equivalent


def test_expand_circuit_borrowed_round_trip():
    text = ".n 6\nt6 a,b,c',d,e',f\nt3 a,b,c\n"
    circuit = parse_circuit(text)
    expansion = expand_circuit(circuit, "borrowed")
    assert expansion.ancilla_lines == 3
    assert verify_circuit_equivalence(circuit, expansion).equivalent


def test_expand_circuit_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        expand_circuit(Circuit(3), "magic")


# Full .tfc texts of the size-8 one-garbage expansion and of one circuit under
# each strategy: the split order (each half through its own borrowed network)
# and the lift of every piece to the pooled width are pinned gate by gate.
ONE_GARBAGE_SIZE_8_TEXT = """\
.n 9
t3 e',i,h
t3 d',g,i
t3 c',f,g
t3 a,b',f
t3 c',f,g
t3 d',g,i
t3 e',i,h
t3 d',g,i
t3 c',f,g
t3 a,b',f
t3 c',f,g
t3 d',g,i
t3 a,h,i
t3 f',g',a
t3 a,h,i
t3 f',g',a
t3 e',i,h
t3 d',g,i
t3 c',f,g
t3 a,b',f
t3 c',f,g
t3 d',g,i
t3 e',i,h
t3 d',g,i
t3 c',f,g
t3 a,b',f
t3 c',f,g
t3 d',g,i
t3 a,h,i
t3 f',g',a
t3 a,h,i
t3 f',g',a
"""

POOLED_EXPANSION_TEXTS = {
    "zeroed": (
        ".n 7\nt3 a,b',f\nt3 c,f,g\nt3 d',g,e\nt3 c,f,g\nt3 a,b',f\n"
        "t1 a\nt3 b,c,f\nt3 d,f,e\nt3 b,c,f\nt2 a,b\n"
    ),
    "borrowed": (
        ".n 7\nt3 d',g,e\nt3 c,f,g\nt3 a,b',f\nt3 c,f,g\nt3 d',g,e\n"
        "t3 c,f,g\nt3 a,b',f\nt3 c,f,g\nt1 a\nt4 b,c,d,e\nt2 a,b\n"
    ),
    "one-garbage": (
        ".n 6\nt3 c,d,f\nt3 a,b',d\nt3 c,d,f\nt3 a,b',d\nt3 d',f,e\n"
        "t3 c,d,f\nt3 a,b',d\nt3 c,d,f\nt3 a,b',d\nt3 d',f,e\n"
        "t1 a\nt4 b,c,d,e\nt2 a,b\n"
    ),
}


def test_expansion_texts_are_pinned():
    g = toffoli(9, range(7), 8, {1, 2, 3, 4, 5, 6})
    expansion = expand_one_garbage(g)
    assert len(expansion.gates) == 32
    assert expansion.gates.to_text() == ONE_GARBAGE_SIZE_8_TEXT
    circuit = parse_circuit(".n 5\nt5 a,b',c,d',e\nt1 a\nt4 b,c,d,e\nt2 a,b\n")
    for strategy, text in POOLED_EXPANSION_TEXTS.items():
        assert expand_circuit(circuit, strategy).gates.to_text() == text
