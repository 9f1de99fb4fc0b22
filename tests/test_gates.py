import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import fires, planes_of, reference_parse, reference_spec, words_after, words_of
from revsynth import gates
from revsynth.gates import (
    CACHE_SIZE,
    ENUMERATE_MAX_LINES,
    LINE_NAMES,
    Circuit,
    Gate,
    GeneratorSet,
    enumerate_ch,
    enumerate_ci,
    family_gate,
    fold_planes,
    from_planes,
    input_planes,
    parse_circuit,
    to_planes,
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
    assert tuple(_perm(Gate(1, 0))) == (1, 0)


def test_not_gate_most_significant_line():
    assert tuple(_perm(Gate(2, 1))) == (2, 3, 0, 1)


def test_cnot_placements():
    # control on line 1 (b) targeting line 0 (a) swaps values 2 and 3;
    # control on line 0 targeting line 1 swaps values 1 and 3.
    assert tuple(_perm(toffoli(2, {1}, 0))) == (0, 1, 3, 2)
    assert tuple(_perm(toffoli(2, {0}, 1))) == (0, 3, 2, 1)


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
        rule = [v ^ (1 << target) if fires(controls, negated, v) else v for v in range(1 << n)]
        assert list(_perm(g)) == rule


def test_apply_gate_equals_left_composition():
    g = toffoli(3, {0}, 2, {0})
    tv = TruthVector([5, 2, 7, 4, 1, 6, 3, 0])
    assert _apply(g, tv) == _perm(g).compose(tv)


def test_apply_gate_line_mismatch():
    with pytest.raises(ValueError):
        Circuit(2, (Gate(2, 0),)).apply(TruthVector.identity(3))


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 12), (4, 32), (5, 80), (6, 192)])
def test_generator_counts(n, expected):
    assert expected == n * (1 << (n - 1))
    assert len(enumerate_ci(n)) == expected
    assert len(enumerate_ch(n)) == expected


def test_generator_set_is_fixed_by_label_and_n():
    with pytest.raises(TypeError):
        GeneratorSet("I", 2, enumerate_ch(2).members)
    expected = r"^unknown generator set label 'X' \(expected 'I' or 'H'\)$"
    with pytest.raises(ValueError, match=expected):
        GeneratorSet("X", 2)
    with pytest.raises(ValueError, match=r"line count 11 out of range \[1, 10\]"):
        GeneratorSet("I", 11)
    # the line count is checked before the label, with check_lines' wording below 1
    with pytest.raises(ValueError, match=r"^line count 11 out of range \[1, 10\]$"):
        GeneratorSet("X", 11)
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^line count must be >= 1, got {n}$"):
            GeneratorSet("X", n)
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
        assert p.compose(p) == ident


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
    g1, g2 = Gate(2, 0), toffoli(2, {0}, 1)
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
        Circuit(3, (Gate(2, 0),))


def test_circuit_text_round_trip():
    c = cascade()
    assert parse_circuit(c.to_text()) == c


def test_parse_example_dialect():
    text = "# comment\n.n 3\nt3 b,c,a\nt2 a',b\nt1 c\n"
    c = parse_circuit(text)
    assert c.n == 3
    assert c.gates[0] == toffoli(3, [1, 2], 0)
    assert c.gates[1] == toffoli(3, {0}, 1, {0})
    assert c.gates[2] == Gate(3, 2)


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
        (".n 0\nt1 a\n", "^line 1: line count must be >= 1, got 0$"),  # perm.check_lines' wording
        (".n 25\nt1 a\n", "^line 1: 25 lines exceeds the supported maximum 24$"),
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


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def gate_line_texts(draw):
    """A circuit text: a header, then gate lines with mixed polarities and padding,
    broken gate lines, comments, blank lines and malformed pieces, some lines repeated."""
    n = draw(st.integers(1, 24))
    pad = st.sampled_from(("", " ", "  ", "\t"))

    @st.composite
    def gate_line(draw, broken: bool):
        target = draw(st.integers(0, n - 1))
        others = [c for c in range(n) if c != target]
        controls = draw(st.lists(st.sampled_from(others), unique=True, max_size=6)) if others else []
        ops = [LINE_NAMES[c] + draw(st.sampled_from(("", "'"))) for c in controls]
        ops.append(LINE_NAMES[target])
        size = len(ops)
        if broken:
            how = draw(st.sampled_from(("negated target", "foreign line", "repeat", "size")))
            if how == "negated target":
                ops[-1] += "'"
            elif how == "foreign line":
                ops.insert(0, LINE_NAMES[n] if n < 24 else "z")
            elif how == "repeat":
                ops.insert(0, ops[-1])
            size += draw(st.sampled_from((-1, 1))) if how == "size" else len(ops) - size
        return draw(pad) + f"t{size} " + ",".join(draw(pad) + op + draw(pad) for op in ops)

    junk = st.lists(st.sampled_from(CIRCUIT_PIECES), min_size=1, max_size=6).map("".join)
    comment = st.sampled_from(("#", "# a comment", "  # t2 a,b"))
    pool = draw(st.lists(st.one_of(gate_line(False), gate_line(False), gate_line(True),
                                   junk, comment, st.just("")), min_size=1, max_size=8))
    body = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    header = draw(st.sampled_from((f".n {n}", f" .n {n} ", f".n {n}", f".n {n}", "")))
    return "\n".join([header, *body, ""])


@settings(max_examples=300, deadline=None)
@given(gate_line_texts())
def test_cached_parse_matches_the_uncached_parser(text):
    expected = _outcome(reference_parse, text)
    gates._parse_gate.cache_clear()
    assert _outcome(parse_circuit, text) == expected  # cold
    assert _outcome(parse_circuit, text) == expected  # warm: every valid line is a hit


def test_a_refused_line_names_each_line_it_is_on():
    for text, lineno in ((".n 3\nt2 a,z\n", 2), (".n 3\nt1 a\n\nt2 a,z\n", 4), (".n 3\nt2 a,z\n", 2)):
        with pytest.raises(ValueError) as info:
            parse_circuit(text)
        assert str(info.value) == f"line {lineno}: unknown line name 'z'"


def test_a_cached_line_does_not_hide_an_error_after_it():
    good = ".n 3\nt2 a,b\n"
    assert parse_circuit(good).gates == (toffoli(3, {0}, 1),)
    with pytest.raises(ValueError) as info:
        parse_circuit(good + "t2 a,b'\n")
    assert str(info.value) == "line 3: target \"b'\" cannot be negated"
    with pytest.raises(ValueError) as info:
        parse_circuit(good + ".n 4\n")
    assert str(info.value) == "line 3: duplicate .n header"
    assert parse_circuit(good) == Circuit(3, (toffoli(3, {0}, 1),))


def test_a_line_is_cached_per_line_count():
    assert parse_circuit(".n 3\nt2 a,c\n").gates == (toffoli(3, {0}, 2),)
    assert parse_circuit(".n 4\nt2 a,c\n").gates == (toffoli(4, {0}, 2),)
    with pytest.raises(ValueError) as info:
        parse_circuit(".n 2\nt2 a,c\n")
    assert str(info.value) == "line 2: unknown line name 'c'"


def test_gate_line_cache_is_bounded():
    assert gates._parse_gate.cache_info().maxsize == CACHE_SIZE <= 4096
    rng = random.Random(11)
    lines = set()
    while len(lines) < CACHE_SIZE + 500:
        t = rng.randrange(13)
        cm = rng.randrange(1 << 13) & ~(1 << t)
        lines.add(Gate(13, t, cm, rng.randrange(1 << 13) & cm).spec())
    text = "\n".join([".n 13", *sorted(lines), ""])
    assert len(parse_circuit(text)) == len(lines)
    assert gates._parse_gate.cache_info().currsize <= CACHE_SIZE


def test_a_refused_line_is_not_kept():
    parse_circuit(".n 3\nt2 a,b\n")
    before = gates._parse_gate.cache_info().currsize
    for bad in ("t2 a,z", "t3 a,b", "x1 a", "t2 a,b'", "t2 a,a"):
        with pytest.raises(ValueError):
            parse_circuit(f".n 3\n{bad}\n")
        assert gates._parse_gate.cache_info().currsize == before, bad


def test_a_padded_line_is_parsed_but_not_kept():
    # Padding is legal, and a cache entry keeps its whole line: a line longer
    # than any to_text writes is parsed uncached, to the same gate or refusal.
    widest = Gate(24, 23, (1 << 23) - 1)  # every control negated
    assert len(widest.spec()) == gates.CANONICAL_LINE_MAX
    gates._parse_gate.cache_clear()
    padded = "t2 a" + " " * 10000 + ",b"
    assert parse_circuit(f".n 2\n{padded}\n").gates == (toffoli(2, {0}, 1),)
    with pytest.raises(ValueError) as info:
        parse_circuit(f".n 2\n{padded[:-1]}a\n")
    assert str(info.value) == "line 2: duplicate operand 'a'"
    assert gates._parse_gate.cache_info().currsize == 0
    assert parse_circuit(f".n 24\n{widest.spec()}\n").gates == (widest,)
    assert gates._parse_gate.cache_info().currsize == 1


def test_parsing_repeated_lines_is_fast():
    # 30,000 lines drawn from 1,000 distinct ones, parsed from an empty cache
    # each time.  Measured 15-35 ms against 160-280 ms when every line was
    # parsed anew (CPython 3.11, 2-vCPU Xeon); the bound sits between.
    rng = random.Random(12)
    distinct = set()
    while len(distinct) < 1000:
        t = rng.randrange(12)
        cm = rng.randrange(1 << 12) & ~(1 << t)
        distinct.add(Gate(12, t, cm, rng.randrange(1 << 12) & cm).spec())
    pool = sorted(distinct)
    text = "\n".join([".n 12", *(rng.choice(pool) for _ in range(30000)), ""])
    timings = []
    for _ in range(3):
        gates._parse_gate.cache_clear()
        started = time.perf_counter()
        circuit = parse_circuit(text)
        timings.append(time.perf_counter() - started)
    assert len(circuit) == 30000
    assert min(timings) < 0.09, timings


def test_apply_gate_preserves_bijection_exhaustive_small():
    # TruthVector construction re-validates bijectivity on every application
    for n in (1, 2, 3):
        gen = enumerate_ci(n).members + enumerate_ch(n).members
        tv = TruthVector.reverse(n)
        for g in gen:
            _apply(g, tv)


def test_mc_gate_helper():
    g = toffoli(4, {0, 1, 3}, 2, negated={0})  # full control: every non-target line
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


@pytest.mark.parametrize("bits", range(1, 11))
def test_input_planes_are_the_bits_of_every_word(bits):
    planes = input_planes(bits)
    assert planes == planes_of(range(1 << bits), bits)
    assert words_of(planes, 1 << bits) == list(range(1 << bits))


@settings(max_examples=150, deadline=None)
@given(mixed_polarity_cascades())
def test_fold_kernels_agree(case):
    n, lines, start = case
    gates = [toffoli(n, controls, target, negated) for target, controls, negated in lines]
    values = TruthVector(start)
    by_list = list(Circuit(n, gates).apply(values))
    assert list(values) == start and values.where == TruthVector(start).where  # not mutated
    planes, full = planes_of(start, n), (1 << len(start)) - 1
    fold_planes(planes, full, gates)
    assert all(0 <= p <= full for p in planes)  # no bits outside the word set
    assert words_of(planes, len(start)) == by_list
    tv = TruthVector(start)
    for g in gates:
        tv = _apply(g, tv)
    assert list(tv) == by_list
    reference = list(start)
    for target, controls, negated in lines:
        reference = [v ^ (1 << target) if fires(controls, negated, v) else v for v in reference]
    assert reference == by_list


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24).flatmap(lambda bits: st.tuples(
    st.just(bits), st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=70))))
def test_plane_conversions_match_the_per_bit_transposition(case):
    bits, words = case  # any word list: repeats, any length, up to three bytes per word
    planes = to_planes(words, bits)
    assert planes == planes_of(words, bits)
    assert from_planes(planes, len(words)) == words


@st.composite
def masked_runs(draw):
    """Runs of gates sharing both masks, where consecutive runs may share the control mask and
    differ only in the value mask, over a word list that need not be a permutation."""
    n = draw(st.integers(2, 10))
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        cm = draw(st.integers(0, (1 << n) - 1)) & ~(1 << draw(st.integers(0, n - 1)))
        free = [t for t in range(n) if not cm >> t & 1]
        for vm in draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3)):
            targets = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4))
            runs += [Gate(n, t, cm, vm & cm) for t in targets]
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return n, runs, words


@settings(max_examples=200, deadline=None)
@given(masked_runs())
def test_fold_planes_reuses_a_fire_set_only_within_a_run(case):
    n, runs, words = case
    planes = planes_of(words, n)
    fold_planes(planes, (1 << len(words)) - 1, runs)
    assert words_of(planes, len(words)) == words_after(runs, words)


def _narrow(rng: random.Random, n: int) -> Gate:  # NOT or CNOT
    t = rng.randrange(n)
    c = rng.choice([l for l in range(n) if l != t] + [None])
    return Gate(n, t) if c is None else Gate(n, t, 1 << c, rng.getrandbits(1) << c)


def _full(rng: random.Random, n: int) -> Gate:  # full control: one swap
    t = rng.randrange(n)
    cm = (1 << n) - 1 ^ 1 << t
    return Gate(n, t, cm, rng.getrandbits(n) & cm)


def _one_short(rng: random.Random, n: int) -> Gate:  # full control less its lowest other line
    t = rng.randrange(n)
    others = (1 << n) - 1 ^ 1 << t
    cm = others & others - 1
    return Gate(n, t, cm, rng.getrandbits(n) & cm)


@pytest.mark.parametrize("n", [1, 6, 8, 10])
@pytest.mark.parametrize("builders", [
    [_full] * 40,
    [_narrow] * 40,
    [_full] * 20 + [_one_short] + [_narrow] * 19,
], ids=["full", "narrow", "full-then-narrow"])
def test_circuit_apply_swaps_full_control_gates_and_folds_the_rest(n, builders, monkeypatch):
    rng = random.Random(n)
    c = Circuit(n, [build(rng, n) for build in builders])
    start = rng.sample(range(1 << n), 1 << n)
    folded = []

    def spy(planes, full, cascade, _real=gates.fold_planes):
        folded.append(cascade)
        _real(planes, full, cascade)

    monkeypatch.setattr(gates, "fold_planes", spy)
    result = c.apply(TruthVector(start))
    # The first gate that is not full-control starts the one folded suffix.  At n = 1 every
    # gate is a NOT, whose controls are all of its (no) other lines, so none is folded.
    first = next((k for k, build in enumerate(builders) if build is not _full), len(builders))
    assert folded == ([] if n == 1 or first == len(builders) else [c.gates[first:]])
    assert list(result) == words_after(c.gates, start)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_toffoli_views_and_text_round_trip(data):
    n = data.draw(st.integers(1, 10))
    target, controls, negated = data.draw(gate_lines(n))
    g = toffoli(n, controls, target, negated)
    assert g.controls == frozenset(controls) and g.negated == frozenset(negated)
    assert g.size == len(controls) + 1 and g.num_negative == len(negated)
    assert parse_circuit(Circuit(n, (g,)).to_text()).gates == (g,)


# -- text emission: four lines per lookup ----------------------------------------

@st.composite
def masked_gates(draw, n):
    target = draw(st.integers(0, n - 1))
    cm = draw(st.integers(0, (1 << n) - 1)) & ~(1 << target)
    return Gate(n, target, cm, cm & draw(st.integers(0, (1 << n) - 1)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.lists(masked_gates(n), max_size=8).map(
    lambda gates: Circuit(n, gates))))
def test_spec_matches_the_per_line_rendering(c):
    for g in c.gates:
        assert g.spec() == reference_spec(g) == str(g)
    assert c.to_text() == "".join([f".n {c.n}\n"] + [reference_spec(g) + "\n" for g in c.gates])
    assert parse_circuit(c.to_text()) == c


@pytest.mark.parametrize("n", range(1, 5))
def test_spec_matches_the_per_line_rendering_exhaustively(n):
    gates = [
        Gate(n, t, cm, vm)
        for t in range(n)
        for cm in range(1 << n) if not cm >> t & 1
        for vm in range(1 << n) if vm & ~cm == 0
    ]
    assert len(gates) == n * 3 ** (n - 1)  # each other line: no control, on 0 or on 1
    assert [g.spec() for g in gates] == [reference_spec(g) for g in gates]
    assert parse_circuit(Circuit(n, gates).to_text()).gates == tuple(gates)


# -- family_gate: synthesizers emit the shared members -----------------------------

def _rule_gate(label: str, n: int, target: int, pattern: int) -> Gate:
    # The two mask rules, written out: C_I controls on the pattern, all firing
    # on 1; C_H controls on every other line, firing on 1 inside the pattern.
    if label == "I":
        return Gate(n, target, pattern, pattern)
    return Gate(n, target, ((1 << n) - 1) ^ (1 << target), pattern)


def _patterns(n: int, target: int) -> list[int]:
    return [p for p in range(1 << n) if not p >> target & 1]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("label", ["I", "H"])
def test_family_gate_returns_the_shared_members(label, n):
    gate = family_gate(label, n)
    # Canonical member order is target, then pattern: the lookup visits the
    # set in order, so every member is found at its own index.
    found = [gate(t, p) for t in range(n) for p in _patterns(n, t)]
    assert found == list(GeneratorSet(label, n).members)
    assert found == [_rule_gate(label, n, t, p) for t in range(n) for p in _patterns(n, t)]
    again = family_gate(label, n)
    assert all(g is again(g.target, g.value_mask) for g in found)
    assert len({id(g) for g in found}) == n << (n - 1)


@pytest.mark.parametrize("label", ["I", "H"])
def test_family_gate_samples_at_ten_lines(label):
    rng = random.Random(10)
    gate = family_gate(label, 10)
    members = GeneratorSet(label, 10).members
    for _ in range(500):
        t = rng.randrange(10)
        p = rng.getrandbits(10) & ~(1 << t)
        g = gate(t, p)
        assert g == _rule_gate(label, 10, t, p)
        assert g == members[t << 9 | p & ((1 << t) - 1) | (p >> (t + 1)) << t]
        assert g is gate(t, p)


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("label", ["I", "H"])
def test_family_gate_builds_checked_gates_past_the_enumeration_cap(label, n, monkeypatch):
    built = 0
    init = Gate.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(Gate, "__init__", counting)
    rng = random.Random(n)
    gate = family_gate(label, n)
    gate.cache_clear()  # another test may have built some of these gates already
    shared: dict[tuple[int, int], Gate] = {}
    for _ in range(400):
        t = rng.randrange(n)
        p = rng.getrandbits(n) & ~(1 << t)
        before = built
        g = gate(t, p)
        assert built == before + ((t, p) not in shared)  # built once, through Gate.__init__
        assert g == _rule_gate(label, n, t, p)
        assert g is gate(t, p) is shared.setdefault((t, p), g)
    assert len(shared) < 400  # some pairs repeat, so the sharing was tested
    with pytest.raises(ValueError):  # the checks ran: a pattern holding the target is refused
        gate(0, 1)


def test_family_gate_memo_is_bounded_by_the_largest_enumerable_family():
    gate = family_gate("I", 12)
    assert gate.cache_info().maxsize == ENUMERATE_MAX_LINES << ENUMERATE_MAX_LINES - 1 == 5120
    calls = [(t, p) for t in range(12) for p in _patterns(12, t)][:6000]
    for t, p in calls:
        assert gate(t, p) == _rule_gate("I", 12, t, p)
    assert gate.cache_info().currsize <= 5120
    assert gate(*calls[-1]) is gate(*calls[-1])  # the newest gates are still shared


@pytest.mark.parametrize("label", ["I", "H"])
def test_family_gate_refuses_a_pattern_holding_the_target_on_both_paths(label):
    for target, pattern in ((0, 1), (1, 0b010), (2, 0b111)):
        messages = []
        for n in (3, 11):  # the cached set's lookup, then a checked Gate built per call
            with pytest.raises(ValueError) as info:
                family_gate(label, n)(target, pattern)
            messages.append(str(info.value))
        assert messages == [f"target line {target} cannot also be a control"] * 2


def test_family_gate_refusals():
    for label, n in (("X", 3), ("X", 11), ("I", 0), ("H", 25), ("I", 10**7)):
        with pytest.raises(ValueError):
            family_gate(label, n)
