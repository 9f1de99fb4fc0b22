import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsynth.gates import (
    Circuit,
    Gate,
    GeneratorSet,
    cnot,
    enumerate_ch,
    enumerate_ci,
    fold_planes,
    input_planes,
    mc_gate,
    not_gate,
    parse_circuit,
    toffoli,
)
from revsynth.perm import TruthVector

# The eight-gate cascade that maps [7 4 1 0 3 2 6 5] to the identity,
# exercised throughout this file (mixed polarities, all full control).
CASCADE_TEXT = """.n 3
t3 a,c,b
t3 b,c',a
t3 a,c',b
t3 a,b',c
t3 a',c',b
t3 a',b',c
t3 b,c',a
t3 b',c',a
"""


def cascade() -> Circuit:
    return parse_circuit(CASCADE_TEXT)


def _perm(g: Gate) -> TruthVector:
    return Circuit(g.n, (g,)).perm()


def _apply(g: Gate, tv: TruthVector) -> TruthVector:
    return Circuit(g.n, (g,)).apply(tv)


def test_gate_validation():
    bad = [
        lambda: Gate(3, 3),  # target out of range
        lambda: Gate(0, 0),
        lambda: Gate(3, 0, 0b1000),  # control bit >= n
        lambda: Gate(3, 0, -2),  # negative control mask
        lambda: Gate(3, 0, 0b110, -2),  # negative value mask
        lambda: Gate(3, 0, 0b010, 0b100),  # value bit outside the control mask
        lambda: Gate(3, 1, 0b010),  # target bit inside the control mask
        lambda: toffoli(3, {1}, 1),  # target is a control
        lambda: toffoli(3, {1}, 0, {2}),  # negated non-control
        lambda: toffoli(3, {3}, 0),  # control line out of range
        lambda: toffoli(3, {-1}, 0),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 0), "line count 0 out of range [1, 24]"),
        ((3, 3), "target 3 out of range [0, 3)"),
        ((3, 0, 0b1000), "control mask 0x8 has lines outside [0, 3)"),
        ((3, 1, 0b010), "target line 1 cannot also be a control"),
        ((3, 0, 0b010, 0b100), "value mask 0x4 is not within control mask 0x2"),
    ],
)
def test_gate_mask_checks_keep_their_messages(args, message):
    fields = dict(zip(Gate._fields, args))
    makers = (
        lambda: Gate(*args),
        lambda: Gate(**fields),
        lambda: Gate._make(args),
        lambda: Gate(1, 0)._replace(**fields),
    )
    for make in makers:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


def test_gate_is_an_immutable_value():
    g = Gate(3, 0)
    for field in ("n", "target", "control_mask", "value_mask"):
        with pytest.raises(AttributeError):
            setattr(g, field, 1)
    with pytest.raises(AttributeError):
        g.label = "x"  # no instance dict either
    assert repr(g) == "Gate(n=3, target=0, control_mask=0, value_mask=0)"
    assert repr(Gate(6, 5, 0b11111, 0b11001)) == (
        "Gate(n=6, target=5, control_mask=31, value_mask=25)"
    )
    twin = Gate(n=3, target=0)
    assert g == twin and not g != twin and hash(g) == hash(twin)
    assert g != Gate(3, 1) and not g == Gate(3, 1)
    assert len({g, twin, Gate(3, 1)}) == 2
    for gate in (g, Gate(6, 5, 0b11111, 0b11001)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(gate, protocol))
            assert type(back) is Gate and back == gate and hash(back) == hash(gate)


def test_gate_equals_only_gates():
    g = Gate(3, 0)
    plain = (3, 0, 0, 0)
    assert not g == plain and not plain == g
    assert g != plain and plain != g
    assert plain not in {g} and g not in {plain}
    assert plain not in [g] and g not in [plain]
    assert Circuit(3, (g,)).gates != (plain,)


def test_not_gate_single_line():
    assert tuple(_perm(not_gate(1, 0))) == (1, 0)


def test_not_gate_most_significant_line():
    assert tuple(_perm(not_gate(2, 1))) == (2, 3, 0, 1)


def test_cnot_placements():
    # control on line 1 (b) targeting line 0 (a) swaps values 2 and 3;
    # control on line 0 targeting line 1 swaps values 1 and 3.
    assert tuple(_perm(cnot(2, 1, 0))) == (0, 1, 3, 2)
    assert tuple(_perm(cnot(2, 0, 1))) == (0, 3, 2, 1)


def test_full_control_step_gate():
    g = toffoli(3, {0, 2}, 1)  # controls a, c positive; target b
    before = TruthVector([7, 4, 1, 0, 3, 2, 6, 5])
    assert tuple(_apply(g, before)) == (5, 4, 1, 0, 3, 2, 6, 7)


def test_gate_perm_matches_identity_application():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 5)
        target = rng.randrange(n)
        others = [l for l in range(n) if l != target]
        controls = frozenset(rng.sample(others, rng.randint(0, len(others))))
        negated = frozenset(c for c in controls if rng.random() < 0.5)
        g = toffoli(n, controls, target, negated)
        rule = [v ^ (1 << target) if _fires(controls, negated, v) else v for v in range(1 << n)]
        assert list(_perm(g)) == rule


def test_apply_gate_equals_left_composition():
    g = toffoli(3, {0}, 2, {0})
    tv = TruthVector([5, 2, 7, 4, 1, 6, 3, 0])
    assert _apply(g, tv) == _perm(g) * tv


def test_apply_gate_line_mismatch():
    with pytest.raises(ValueError):
        Circuit(2, (not_gate(2, 0),)).apply(TruthVector.identity(3))


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 12), (4, 32), (5, 80), (6, 192)])
def test_generator_counts(n, expected):
    assert expected == n * (1 << (n - 1))
    assert len(enumerate_ci(n)) == expected
    assert len(enumerate_ch(n)) == expected


def test_generator_set_is_fixed_by_label_and_n():
    with pytest.raises(TypeError):
        GeneratorSet("I", 2, enumerate_ch(2).members)
    with pytest.raises(ValueError, match="unknown generator set label 'X'"):
        GeneratorSet("X", 2)
    with pytest.raises(ValueError, match=r"line count 11 out of range \[1, 10\]"):
        GeneratorSet("I", 11)
    for label, enumerate_set in (("I", enumerate_ci), ("H", enumerate_ch)):
        gen = GeneratorSet(label, 3)
        assert gen == enumerate_set(3) and hash(gen) == hash(enumerate_set(3))
        assert gen.members == enumerate_set(3).members
        assert [g.spec() for g in gen.members] == GENERATOR_SPECS_3[label]


# Canonical member order of the n = 3 generating sets, as specs.
GENERATOR_SPECS_3 = {
    "I": ["t1 a", "t2 b,a", "t2 c,a", "t3 b,c,a", "t1 b", "t2 a,b", "t2 c,b", "t3 a,c,b",
          "t1 c", "t2 a,c", "t2 b,c", "t3 a,b,c"],
    "H": ["t3 b',c',a", "t3 b,c',a", "t3 b',c,a", "t3 b,c,a", "t3 a',c',b", "t3 a,c',b",
          "t3 a',c,b", "t3 a,c,b", "t3 a',b',c", "t3 a,b',c", "t3 a',b,c", "t3 a,b,c"],
}


def test_generator_sets_are_their_gates():
    # 5,120 members each; no member permutation is built, so both take well under a second.
    start = time.perf_counter()
    sets = GeneratorSet("I", 10), GeneratorSet("H", 10)
    elapsed = time.perf_counter() - start
    for gen in sets:
        assert len(gen.members) == 5120 and all(type(g) is Gate for g in gen.members)
    assert elapsed < 0.5, f"building both n = 10 generator sets took {elapsed:.2f} s"


def test_ci_two_lines_is_two_nots_and_two_cnots():
    gates = enumerate_ci(2).members
    sizes = sorted(g.size for g in gates)
    assert sizes == [1, 1, 2, 2]
    assert all(g.is_g_toffoli() for g in gates)


def test_ch_one_line_is_single_not():
    gates = enumerate_ch(1).members
    assert len(gates) == 1 and gates[0].size == 1


@pytest.mark.parametrize("label,n", [("I", 2), ("I", 3), ("H", 2), ("H", 3), ("H", 4)])
def test_generator_perms_distinct_involutions(label, n):
    gen = enumerate_ci(n) if label == "I" else enumerate_ch(n)
    perms = [_perm(g) for g in gen.members]
    assert len(set(perms)) == len(perms)
    ident = TruthVector.identity(n)
    for p in perms:
        assert p * p == ident


def test_every_ch_member_swaps_one_value_pair():
    for g in enumerate_ch(3).members:
        moved = [i for i, v in enumerate(_perm(g)) if v != i]
        assert len(moved) == 2
        a, b = moved
        assert a ^ b == 1 << g.target


def test_ch_member_changes_exactly_two_bits_exhaustive_n2():
    ident = TruthVector.identity(2)
    for g in enumerate_ch(2).members:
        for entries in itertools.permutations(range(4)):
            tv = TruthVector(entries)
            assert tv.hamming(_apply(g, tv)) == 2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ch_member_changes_exactly_two_bits_random(n):
    rng = random.Random(100 + n)
    gates = enumerate_ch(n).members
    for _ in range(40):
        tv = TruthVector(rng.sample(range(1 << n), 1 << n))
        g = rng.choice(gates)
        assert tv.hamming(_apply(g, tv)) == 2


def _parity(entries) -> int:
    """Inversion count mod 2: the permutation's parity."""
    return sum(a > b for a, b in itertools.combinations(entries, 2)) & 1


def test_ch_members_are_odd_permutations():
    for g in enumerate_ch(3).members:
        assert _parity(_perm(g)) == 1


def test_composition_parity_counts_gates():
    rng = random.Random(22)
    gates = enumerate_ch(3).members
    for _ in range(20):
        k = rng.randint(0, 9)
        tv = TruthVector.identity(3)
        for g in rng.choices(gates, k=k):
            tv = _apply(g, tv)
        assert _parity(tv) == k % 2


def test_empty_circuit_is_identity_map():
    tv = TruthVector([2, 0, 3, 1])
    assert Circuit(2).apply(tv) == tv


def test_cascade_maps_example_to_identity():
    assert cascade().apply(TruthVector([7, 4, 1, 0, 3, 2, 6, 5])).is_identity()


def test_inverted_cascade_realizes_example_from_identity():
    realized = cascade().inverse().apply(TruthVector.identity(3))
    assert tuple(realized) == (7, 4, 1, 0, 3, 2, 6, 5)


def test_invert_circuit_round_trip():
    rng = random.Random(23)
    c = cascade()
    for _ in range(10):
        tv = TruthVector(rng.sample(range(8), 8))
        assert c.inverse().apply(c.apply(tv)) == tv


def test_invert_reverses_gate_order():
    g1, g2 = not_gate(2, 0), cnot(2, 0, 1)
    c = Circuit(2, (g1, g2))
    assert c.inverse().gates == (g2, g1)
    assert Circuit(2).inverse().gates == ()


@pytest.mark.parametrize("n,message", [
    (0, "^line count must be >= 1, got 0$"),
    (-2, "^line count must be >= 1, got -2$"),
    (25, "^25 lines exceeds the supported maximum 24$"),
    (30, "^30 lines exceeds the supported maximum 24$"),
])
def test_circuit_refuses_line_count_out_of_range(n, message):
    # Even with no gates: parse_circuit would refuse the ".n" that to_text wrote.
    with pytest.raises(ValueError, match=message):
        Circuit(n)


def test_circuit_rejects_foreign_gate():
    with pytest.raises(ValueError):
        Circuit(3, (not_gate(2, 0),))


def test_circuit_text_round_trip():
    c = cascade()
    assert parse_circuit(c.to_text()) == c


def test_parse_example_dialect():
    text = "# comment\n.n 3\nt3 b,c,a\nt2 a',b\nt1 c\n"
    c = parse_circuit(text)
    assert c.n == 3
    assert c.gates[0] == toffoli(3, [1, 2], 0)
    assert c.gates[1] == toffoli(3, {0}, 1, {0})
    assert c.gates[2] == not_gate(3, 2)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("t2 a,b\n", "before .n"),
        (".n 3\nt2 a,a\n", "duplicate operand"),
        (".n 3\nt2 a,z\n", "unknown line name"),
        (".n 2\nt2 a,c\n", "unknown line name"),
        (".n 3\nt2 a,b'\n", "cannot be negated"),
        (".n 3\nt3 a,b\n", "3 but 2 operands"),
        (".n 3\n.n 3\n", "duplicate .n"),
        ("", "missing .n"),
        (".n x\n", "malformed .n"),
        (".n +1_0\n", "malformed .n"),
        (".n \u0663\nt\u0661 c\n", "malformed .n"),
        (".n 3\nt\u0661 c\n", "malformed gate size"),
        (".n 3\nt+1 c\n", "malformed gate size"),
        (".n 3\nt-1 c\n", "malformed gate size"),
        (".n 3\nt2 a'',b\n", "unknown line name \"a''\""),
        (".n 3\nt2 a,,b\n", "t2 but 3 operands"),
        (".n 3\nt2 ,a,b\n", "t2 but 3 operands"),
        (".n 3\nt3 a,,b\n", "unknown line name ''"),
        (".n 3\nt0\n", "t0 but 1 operands"),
    ],
)
def test_parse_rejections(bad, message):
    with pytest.raises(ValueError, match=message):
        parse_circuit(bad)


CIRCUIT_PIECES = (
    ".n", "t", "t0", "t1 a", "a", "b", "c", "x", "'", ",", " ", "#", "\n", "0", "1", "2", "3", "24",
    "+1", "-2", "1_0", "\uff12", "\u0663", "\u00b2",
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("", ".n 3\n", ".n 1\n", ".n 24\n")),
    st.lists(st.one_of(st.sampled_from(CIRCUIT_PIECES), st.text(max_size=4)), max_size=30),
)
def test_malformed_circuit_text_raises_only_value_error(header, pieces):
    try:
        parse_circuit(header + "".join(pieces))
    except ValueError:
        pass


def test_apply_gate_preserves_bijection_exhaustive_small():
    # TruthVector construction re-validates bijectivity on every application
    for n in (1, 2, 3):
        gen = enumerate_ci(n).members + enumerate_ch(n).members
        tv = TruthVector.reverse(n)
        for g in gen:
            _apply(g, tv)


def test_mc_gate_helper():
    g = mc_gate(4, 2, negated={0})
    assert g.controls == frozenset({0, 1, 3})
    assert g.negated == frozenset({0})
    assert g.is_mc_toffoli()
    assert not g.is_g_toffoli()


@st.composite
def gate_lines(draw, n):
    target = draw(st.integers(0, n - 1))
    others = [l for l in range(n) if l != target]
    controls = draw(st.sets(st.sampled_from(others))) if others else set()
    negated = draw(st.sets(st.sampled_from(sorted(controls)))) if controls else set()
    return target, controls, negated


@st.composite
def mixed_polarity_cascades(draw):
    n = draw(st.integers(1, 10))
    return n, draw(st.lists(gate_lines(n), max_size=12)), draw(st.permutations(range(1 << n)))


def _fires(controls, negated, v: int) -> bool:
    # Per-line restatement of the firing rule on the drawn line sets, independent of the masks.
    return all((v >> c & 1) == (c not in negated) for c in controls)


def _to_planes(words, n: int) -> list[int]:
    return [sum(1 << x for x, w in enumerate(words) if w >> c & 1) for c in range(n)]


def _from_planes(planes: list[int], count: int) -> list[int]:
    return [sum((p >> x & 1) << c for c, p in enumerate(planes)) for x in range(count)]


@pytest.mark.parametrize("bits", range(1, 11))
def test_input_planes_are_the_bits_of_every_word(bits):
    planes = input_planes(bits)
    assert planes == _to_planes(range(1 << bits), bits)
    assert _from_planes(planes, 1 << bits) == list(range(1 << bits))


@settings(max_examples=150, deadline=None)
@given(mixed_polarity_cascades())
def test_fold_kernels_agree(case):
    n, lines, start = case
    gates = [toffoli(n, controls, target, negated) for target, controls, negated in lines]
    values = TruthVector(start)
    by_list = list(Circuit(n, gates).apply(values))
    assert list(values) == start and values.where == TruthVector(start).where  # not mutated
    planes, full = _to_planes(start, n), (1 << len(start)) - 1
    fold_planes(planes, full, gates)
    assert all(0 <= p <= full for p in planes)  # no bits outside the word set
    assert _from_planes(planes, len(start)) == by_list
    tv = TruthVector(start)
    for g in gates:
        tv = _apply(g, tv)
    assert list(tv) == by_list
    reference = list(start)
    for target, controls, negated in lines:
        reference = [v ^ (1 << target) if _fires(controls, negated, v) else v for v in reference]
    assert reference == by_list


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_toffoli_views_and_text_round_trip(data):
    n = data.draw(st.integers(1, 10))
    target, controls, negated = data.draw(gate_lines(n))
    g = toffoli(n, controls, target, negated)
    assert g.controls == frozenset(controls) and g.negated == frozenset(negated)
    assert g.size == len(controls) + 1 and g.num_negative == len(negated)
    assert parse_circuit(Circuit(n, (g,)).to_text()).gates == (g,)
