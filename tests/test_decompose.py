"""Ancilla-based gate expansions, all checked by exhaustive simulation."""

import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revsynth.cost import GarbagePolicy, cost_report
from revsynth.decompose import (
    DECOMPOSE_STRATEGIES,
    AncillaCircuit,
    AncillaMode,
    VerificationResult,
    expand_circuit,
    split_one_borrowed,
    verify_circuit_equivalence,
)
from revsynth.gates import Circuit, Gate, parse_circuit, toffoli


def expand(g: Gate, strategy: str) -> AncillaCircuit:
    """One gate's expansion: its one-gate circuit through expand_circuit."""
    return expand_circuit(Circuit(g.n, (g,)), strategy)


def verify(g: Gate, impl: AncillaCircuit) -> VerificationResult:
    """verify_circuit_equivalence against the one-gate circuit ``g``."""
    return verify_circuit_equivalence(Circuit(g.n, (g,)), impl)


def numpy_fold(words: np.ndarray, gates) -> np.ndarray:
    """The gate rule over a uint32 word array: four numpy passes per gate,
    independent of the bit-plane kernel the verifier uses."""
    zero = np.uint32(0)
    for g in gates:
        cm, vm = np.uint32(g.control_mask), np.uint32(g.value_mask)
        words = words ^ np.where((words & cm) == vm, np.uint32(1 << g.target), zero)
    return words


def numpy_verify(spec: Circuit, impl: AncillaCircuit) -> VerificationResult:
    """verify_circuit_equivalence restated over numpy words, first failure by argmin."""
    bits = spec.n if impl.ancilla_mode is AncillaMode.ZEROED_RESTORED else impl.total_lines
    words = np.arange(1 << bits, dtype=np.uint32)
    state = numpy_fold(words, impl.gates.gates)
    pmask = np.uint32((1 << spec.n) - 1)
    expected = numpy_fold(words & pmask, spec.gates)
    ok = ((state & pmask) == expected) & ((state >> spec.n) == (words >> spec.n))
    if bool(ok.all()):
        return VerificationResult(True, len(words))
    return VerificationResult(False, len(words), int(words[int(np.argmin(ok))]))


def full_control(n: int, target: int, negated=()) -> Gate:
    """Every non-target line controls; those in ``negated`` fire on 0."""
    return toffoli(n, (c for c in range(n) if c != target), target, negated)


def random_full_gate(n: int, rng: random.Random) -> Gate:
    target = rng.randrange(n)
    negated = frozenset(
        l for l in range(n) if l != target and rng.random() < 0.5
    )
    return full_control(n, target, negated)


def random_gate_with_free_line(n: int, rng: random.Random) -> Gate:
    target, free = rng.sample(range(n), 2)
    controls = frozenset(range(n)) - {target, free}
    negated = frozenset(l for l in controls if rng.random() < 0.5)
    return toffoli(n, controls, target, negated)


def test_zeroed_ladder_matches_reference_instance():
    # size-6 gate, controls a+ b- c- d- e-, target f; three zeroed helpers
    g = toffoli(6, range(5), 5, {1, 2, 3, 4})
    ladder = expand(g, "zeroed")
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
    assert verify(g, ladder).equivalent


def test_zeroed_ladder_all_positive_cost_is_linear():
    for s in (4, 6, 8, 10):
        g = toffoli(s, range(s - 1), s - 1)
        ladder = expand(g, "zeroed")
        assert len(ladder.gates) == 2 * s - 5
        report = cost_report(ladder.gates, GarbagePolicy.ZERO)
        gc, qc = report.gate_count, report.quantum_cost
        assert qc == 10 * s - 25
        assert gc * 5 == qc  # every sub-gate is a positive Toffoli


def test_zeroed_ladder_size_floor():
    """A gate below the zeroed floor passes through, with no ancilla."""
    g = toffoli(3, {0, 1}, 2)
    assert expand(g, "zeroed") == AncillaCircuit(
        3, 0, AncillaMode.ZEROED_RESTORED, Circuit(3, (g,))
    )


def test_borrowed_ladder_matches_reference_instance():
    g = toffoli(6, range(5), 5, {1, 2, 3, 4})
    network = expand(g, "borrowed")
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
    outcome = verify(g, network)
    assert outcome.equivalent
    assert outcome.inputs_checked == 1 << 9  # helpers take all values


def test_borrowed_ladder_size_floor():
    """A gate below the borrowed and one-garbage floor passes through, with no ancilla."""
    g = toffoli(4, {0, 1, 2}, 3)
    for strategy in ("borrowed", "one-garbage"):
        assert expand(g, strategy) == AncillaCircuit(
            4, 0, AncillaMode.BORROWED_RESTORED, Circuit(4, (g,))
        )


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
    assert verify(g, impl).equivalent


def test_split_needs_free_line():
    with pytest.raises(ValueError, match="free line"):
        split_one_borrowed(full_control(6, 5))
    with pytest.raises(ValueError, match="^split needs gate size >= 5, got 4$"):
        split_one_borrowed(toffoli(5, range(3), 3))  # line 4 is free, but the gate is too small


def test_split_halves_sizes():
    for s in range(5, 11):
        g = toffoli(s + 1, range(s - 1), s)  # line s-1 free
        g1, g2, _, _ = split_one_borrowed(g)
        assert len(g1.controls) == (s + 2) // 2
        assert len(g2.controls) == (s - 1) - (s + 2) // 2 + 1  # plus borrow
        assert g1.size < s and g2.size < s


def test_expand_one_garbage_reaches_toffoli_size():
    g = toffoli(9, range(7), 8, {1, 2, 3, 4, 5, 6})
    expansion = expand(g, "one-garbage")
    assert expansion.ancilla_lines == 0  # reuses the free principal line
    assert all(x.size <= 3 for x in expansion.gates.gates)
    outcome = verify(g, expansion)
    assert outcome.equivalent
    assert outcome.inputs_checked == 1 << 9


def test_expand_one_garbage_full_control_adds_one_line():
    g = full_control(6, 2, negated={0, 5})
    expansion = expand(g, "one-garbage")
    assert expansion.ancilla_lines == 1
    assert all(x.size <= 3 for x in expansion.gates.gates)
    assert verify(g, expansion).equivalent


def test_expansions_leave_non_matching_inputs_alone():
    g = toffoli(5, range(4), 4, {1})
    ladder = expand(g, "zeroed")
    words = np.arange(1 << 5, dtype=np.uint32)
    idle = words[numpy_fold(words, (g,)) == words]
    assert len(idle) == 30
    assert numpy_fold(idle, ladder.gates.gates).tolist() == idle.tolist()


def test_mutated_network_fails_with_counterexample():
    g = toffoli(6, range(5), 5, {2})
    ladder = expand(g, "zeroed")
    broken = AncillaCircuit(
        ladder.principal_lines,
        ladder.ancilla_lines,
        ladder.ancilla_mode,
        Circuit(ladder.gates.n, ladder.gates.gates[:-1]),
    )
    outcome = verify(g, broken)
    assert not outcome.equivalent
    assert outcome.counterexample is not None
    # replay the counterexample: the broken network must truly disagree
    word = outcome.counterexample
    out = int(numpy_fold(np.array([word], dtype=np.uint32), broken.gates.gates)[0])
    principal = (1 << 6) - 1
    expected = int(numpy_fold(np.array([word & principal], dtype=np.uint32), (g,))[0])
    assert (out & principal) != expected or (out >> 6 != word >> 6)


def test_single_gate_passthrough_verifies():
    g = toffoli(2, {0}, 1)
    impl = AncillaCircuit(2, 0, AncillaMode.ZEROED_RESTORED, Circuit(2, (g,)))
    assert verify(g, impl).equivalent


@pytest.mark.parametrize("size", range(4, 11))
def test_randomized_polarities_all_strategies(size):
    rng = random.Random(600 + size)
    for _ in range(8):
        g = random_full_gate(size, rng)
        ladder = expand(g, "zeroed")
        assert len(ladder.gates) == 2 * size - 5
        assert verify(g, ladder).equivalent
        if size >= 5:
            network = expand(g, "borrowed")
            assert len(network.gates) == 4 * (size - 3)
            assert verify(g, network).equivalent
            assert verify(g, expand(g, "one-garbage")).equivalent
            gf = random_gate_with_free_line(size + 1, rng)
            quad = Circuit(size + 1, split_one_borrowed(gf))
            impl = AncillaCircuit(size + 1, 0, AncillaMode.BORROWED_RESTORED, quad)
            assert verify(gf, impl).equivalent


def test_verify_rejects_mismatch_and_budget():
    g = toffoli(4, {0, 1, 2}, 3)
    ladder = expand(g, "zeroed")
    with pytest.raises(ValueError, match="lines"):
        verify(toffoli(5, {0, 1, 2, 3}, 4), ladder)
    wide = AncillaCircuit(20, 3, AncillaMode.BORROWED_RESTORED, Circuit(23))
    with pytest.raises(ValueError, match="budget"):
        verify(toffoli(20, range(1, 20), 0), wide)


def test_expansions_beyond_line_limit_name_the_ancilla():
    wide = full_control(22, 21)
    # the wide gate comes after one that fits: the refusal is the pool's, raised
    # before any network is built
    circuit = Circuit(22, (toffoli(22, range(4), 21), wide))
    for strategy in ("zeroed", "borrowed"):
        with pytest.raises(ValueError, match="needs 19 ancilla lines, 41 in all; the limit is 24"):
            expand(wide, strategy)
        with pytest.raises(ValueError, match="size-22 gate on 22 lines needs 19 ancilla lines"):
            expand_circuit(circuit, strategy)
    with pytest.raises(ValueError, match="needs 1 ancilla lines, 25 in all; the limit is 24"):
        expand(full_control(24, 0), "one-garbage")
    later = Circuit(24, (toffoli(24, range(5), 23), full_control(24, 0)))
    with pytest.raises(ValueError, match="size-24 gate on 24 lines needs 1 ancilla lines, 25"):
        expand_circuit(later, "one-garbage")


def test_ancilla_circuit_validation():
    with pytest.raises(ValueError, match="span"):
        AncillaCircuit(3, 1, AncillaMode.ZEROED_RESTORED, Circuit(3))
    with pytest.raises(ValueError, match="negative"):
        AncillaCircuit(3, -1, AncillaMode.ZEROED_RESTORED, Circuit(2))


@st.composite
def cascades_and_expansions(draw):
    """A mixed-polarity cascade, its expansion under one strategy, and that
    expansion intact, with one gate dropped, or with one control flipped."""
    n = draw(st.integers(4, 7))
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.integers(0, n - 1))
        others = [l for l in range(n) if l != target]
        controls = draw(st.sets(st.sampled_from(others), min_size=3))
        negated = draw(st.sets(st.sampled_from(sorted(controls))))
        gates.append(toffoli(n, controls, target, negated))
    spec = Circuit(n, gates)
    impl = expand_circuit(spec, draw(st.sampled_from(DECOMPOSE_STRATEGIES)))
    out = list(impl.gates.gates)
    mutation = draw(st.sampled_from(("none", "drop", "flip")))
    i = draw(st.integers(0, len(out) - 1))
    if mutation == "drop":
        del out[i]
    elif mutation == "flip":
        assume(out[i].control_mask)
        c = draw(st.sampled_from(sorted(out[i].controls)))
        g = out[i]
        out[i] = Gate(g.n, g.target, g.control_mask, g.value_mask ^ 1 << c)
    return spec, AncillaCircuit(
        impl.principal_lines, impl.ancilla_lines, impl.ancilla_mode, Circuit(impl.total_lines, out)
    )


@settings(max_examples=200, deadline=None)
@given(cascades_and_expansions())
def test_plane_verifier_matches_numpy_reference(case):
    spec, impl = case
    assert verify_circuit_equivalence(spec, impl) == numpy_verify(spec, impl)


@pytest.mark.parametrize("n,first", [(1, 0), (2, 0), (3, 0b010)])
def test_verify_fewer_than_eight_words(n, first):
    """1-3 lines: the planes hold 2, 4 or 8 words, less than a byte."""
    spec = Circuit(n, (toffoli(n, range(n - 1), n - 1, {0} if n > 1 else ()),))
    right = AncillaCircuit(n, 0, AncillaMode.BORROWED_RESTORED, spec)
    assert verify_circuit_equivalence(spec, right) == VerificationResult(True, 1 << n)
    empty = AncillaCircuit(n, 0, AncillaMode.BORROWED_RESTORED, Circuit(n))
    outcome = verify_circuit_equivalence(spec, empty)
    assert outcome == numpy_verify(spec, empty)
    assert outcome == VerificationResult(False, 1 << n, first)  # the first word the gate fires on


def test_zeroed_mode_checks_ancilla_planes_against_zero():
    g = toffoli(5, range(4), 4, {1})  # fires on a=1, b=0, c=1, d=1
    ladder = expand(g, "zeroed")  # two zeroed helpers, lines 5 and 6
    assert verify(g, ladder) == VerificationResult(True, 1 << 5)

    def zeroed(gates) -> AncillaCircuit:
        return AncillaCircuit(5, 2, AncillaMode.ZEROED_RESTORED, Circuit(7, gates))

    assert verify(g, zeroed(())) == VerificationResult(False, 1 << 5, 0b01101)
    assert verify_circuit_equivalence(Circuit(5), zeroed((Gate(7, 6),))) == VerificationResult(
        False, 1 << 5, 0
    )
    unrestored = zeroed(ladder.gates.gates[:2])  # the chain up, never undone
    outcome = verify(g, unrestored)
    assert outcome == numpy_verify(Circuit(5, (g,)), unrestored)
    assert outcome.counterexample == 0b00001  # the first word that sets helper 5


def test_wide_borrowed_verify_is_fast():
    """2^21 input words: the numpy fold took about 0.23 s, the planes about 0.02 s."""
    g = toffoli(12, range(11), 11, {1, 3})
    network = expand(g, "borrowed")
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        outcome = verify(g, network)
        timings.append(time.perf_counter() - started)
    assert outcome == VerificationResult(True, 1 << 21)
    assert min(timings) < 0.1, timings


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
    expansion = expand(g, "one-garbage")
    assert len(expansion.gates) == 32
    assert expansion.gates.to_text() == ONE_GARBAGE_SIZE_8_TEXT
    circuit = parse_circuit(".n 5\nt5 a,b',c,d',e\nt1 a\nt4 b,c,d,e\nt2 a,b\n")
    for strategy, text in POOLED_EXPANSION_TEXTS.items():
        assert expand_circuit(circuit, strategy).gates.to_text() == text


# One-garbage text of a 6-line circuit mixing a full-control gate, which needs
# the added line g, with a size-5 gate that leaves line f free.  It is the text
# each network gives when built at its own gate's width (6 lines for the size-5
# gate), so building at the pool width changes nothing.
MIXED_WIDTH_ONE_GARBAGE_TEXT = """\
.n 7
t3 d,f,g
t3 c,e,f
t3 a,b',e
t3 c,e,f
t3 d,f,g
t3 c,e,f
t3 a,b',e
t3 c,e,f
t3 e',g,f
t3 d,f,g
t3 c,e,f
t3 a,b',e
t3 c,e,f
t3 d,f,g
t3 c,e,f
t3 a,b',e
t3 c,e,f
t3 e',g,f
t3 c,d,f
t3 a',b,d
t3 c,d,f
t3 a',b,d
t3 e,f,d
t3 c,d,f
t3 a',b,d
t3 c,d,f
t3 a',b,d
t3 e,f,d
t2 a,b
"""


def test_mixed_width_one_garbage_keeps_smaller_gates_on_principal_lines():
    circuit = parse_circuit(".n 6\nt6 a,b',c,d,e',f\nt5 a',b,c,e,d\nt2 a,b\n")
    expansion = expand_circuit(circuit, "one-garbage")
    assert expansion.ancilla_lines == 1
    assert expansion.gates.to_text() == MIXED_WIDTH_ONE_GARBAGE_TEXT
    smaller = expansion.gates.gates[18:28]  # the size-5 gate's G1 G2 G1 G2
    assert all((g.control_mask | 1 << g.target) >> 6 == 0 for g in smaller)
    assert verify_circuit_equivalence(circuit, expansion).equivalent


FULL_WIDTH = ".n 5\nt5 a,b',c,d',e\nt1 a\nt4 b,c,d,e\nt2 a,b\n"
LINE_TO_SPARE = ".n 6\nt5 a,b,c,d,e\nt1 a\nt2 b,f\n"  # one-garbage borrows f: no ancilla
PASS_THROUGH = ".n 6\nt5 a,b,c,d,e\nt1 a\n"


@pytest.mark.parametrize("strategy, emitted, text", [
    pytest.param("zeroed", 10, FULL_WIDTH, id="zeroed-10"),
    pytest.param("borrowed", 11, FULL_WIDTH, id="borrowed-11"),
    pytest.param("one-garbage", 13, FULL_WIDTH, id="one-garbage-13"),
    pytest.param("one-garbage", 12, LINE_TO_SPARE, id="one-garbage-12"),
    pytest.param("one-garbage", 11, PASS_THROUGH, id="one-garbage-11"),
])
def test_expand_circuit_builds_each_emitted_gate_once(strategy, emitted, text, monkeypatch):
    """No decomposition is built twice: at most one Gate construction per emitted gate."""
    circuit = parse_circuit(text)
    built = []
    check = Gate.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        check(self, *args, **kwargs)

    monkeypatch.setattr(Gate, "__init__", counted)
    expansion = expand_circuit(circuit, strategy)
    monkeypatch.undo()
    assert len(expansion.gates) == emitted
    assert len(built) <= emitted, (len(built), emitted)
    if text in (LINE_TO_SPARE, PASS_THROUGH):
        assert expansion.ancilla_lines == 0
        # No line added: each small gate is passed through as the same object, not rebuilt.
        small = [g for g in circuit.gates if g.size < 5]
        assert all(any(e is g for e in expansion.gates) for g in small)
