import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsynth.perm import TruthVector, check_lines, rank_entries, unrank_entries


def test_identity_vectors():
    assert tuple(TruthVector.identity(1)) == (0, 1)
    assert tuple(TruthVector.identity(2)) == (0, 1, 2, 3)
    assert tuple(TruthVector.identity(3)) == (0, 1, 2, 3, 4, 5, 6, 7)
    # A vector equals only vectors: against its own entries == answers NotImplemented, so False.
    assert TruthVector.identity(1).__eq__((0, 1)) is NotImplemented
    assert (TruthVector([0, 1]) == (0, 1)) is False


def test_reverse_vectors():
    assert tuple(TruthVector.reverse(1)) == (1, 0)
    assert tuple(TruthVector.reverse(3)) == (7, 6, 5, 4, 3, 2, 1, 0)


def test_reverse_hamming_to_identity_is_n_2n():
    # every bit of every entry differs
    for n in range(1, 6):
        rho = TruthVector.reverse(n)
        assert rho.hamming(TruthVector.identity(n)) == n * (1 << n)


def test_line_count_bounds():
    with pytest.raises(ValueError):
        TruthVector.identity(0)
    with pytest.raises(ValueError):
        TruthVector.reverse(-1)


def test_rejects_non_bijection_naming_duplicate():
    with pytest.raises(ValueError, match="value 3 occurs twice"):
        TruthVector([3, 1, 3, 0])


def test_rejects_bad_lengths_and_values():
    with pytest.raises(ValueError, match="power of two"):
        TruthVector([0, 1, 2])
    with pytest.raises(ValueError, match="out of range"):
        TruthVector([0, 1, 2, 4])
    with pytest.raises(ValueError, match="power of two"):
        TruthVector([0])


def test_compose_direct_evaluation():
    c = TruthVector([0, 1, 3, 2])
    g = TruthVector([2, 3, 0, 1])
    assert tuple(c.compose(g)) == (3, 2, 0, 1)


def test_compose_identity_neutral_and_inverse_law():
    rng = random.Random(11)
    for _ in range(50):
        entries = list(range(8))
        rng.shuffle(entries)
        pi = TruthVector(entries)
        ident = TruthVector.identity(3)
        assert ident.compose(pi) == pi
        assert pi.compose(ident) == pi
        assert pi.compose(pi.inverse()) == ident
        assert pi.inverse().compose(pi) == ident


def test_compose_associative():
    rng = random.Random(12)
    for _ in range(50):
        a, b, c = (
            TruthVector(rng.sample(range(16), 16)) for _ in range(3)
        )
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_rejects_mismatched_lines():
    with pytest.raises(ValueError):
        TruthVector.identity(2).compose(TruthVector.identity(3))


def test_inverse_examples():
    assert tuple(TruthVector([1, 0, 3, 2]).inverse()) == (1, 0, 3, 2)
    assert TruthVector.identity(3).inverse() == TruthVector.identity(3)
    assert tuple(TruthVector([1, 3, 2, 0]).inverse()) == (3, 0, 2, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(1 << n))))
def test_where_is_the_read_only_inverse(entries):
    tv = TruthVector(entries)
    assert all(tv.where[tv.entries[i]] == i for i in range(len(tv)))
    assert tv.inverse().entries == tv.where
    with pytest.raises(AttributeError):
        tv.where = tv.entries


def test_hamming_counts_differing_bits():
    # entries 011 and 111 differ in one bit; swapping them in the identity
    # changes one bit at each of the two positions
    x = TruthVector([0, 1, 2, 7, 4, 5, 6, 3])
    assert x.hamming(TruthVector.identity(3)) == 2
    assert x.hamming(x) == 0
    with pytest.raises(ValueError, match="^line counts differ: 3 != 2$"):
        x.hamming(TruthVector.identity(2))


def test_hamming_metric_properties():
    rng = random.Random(13)
    zero = TruthVector.identity(3)
    for _ in range(50):
        a = TruthVector(rng.sample(range(8), 8))
        b = TruthVector(rng.sample(range(8), 8))
        c = TruthVector(rng.sample(range(8), 8))
        assert a.hamming(a) == 0
        assert (a.hamming(b) == 0) == (a == b)
        assert a.hamming(b) == b.hamming(a)
        assert a.hamming(c) <= a.hamming(b) + b.hamming(c)
    assert zero.hamming(zero) == 0


def test_rank_identity_and_reverse():
    assert TruthVector.identity(2).rank() == 0
    assert TruthVector.identity(3).rank() == 0
    assert TruthVector.reverse(2).rank() == 23  # last of the 4! = 24


def test_rank_unrank_round_trip_exhaustive_s4():
    import itertools

    for r, entries in enumerate(itertools.permutations(range(4))):
        tv = TruthVector(entries)
        assert tv.rank() == r  # lexicographic order
        assert TruthVector.unrank(r, 2) == tv


def test_rank_is_the_lexicographic_index_exhaustive_s8():
    for r, entries in enumerate(itertools.permutations(range(8))):
        assert rank_entries(entries) == r


def test_rank_unrank_round_trip_random_s8():
    rng = random.Random(14)
    for _ in range(100_000):
        entries = rng.sample(range(8), 8)
        r = rank_entries(entries)
        assert unrank_entries(r, 8) == entries


def test_unrank_range_checks():
    with pytest.raises(ValueError):
        TruthVector.unrank(-1, 2)
    with pytest.raises(ValueError):
        TruthVector.unrank(24, 2)
    with pytest.raises(ValueError, match=r"^rank 40320 out of range \[0, \(2\^3\)!\)$"):
        TruthVector.unrank(math.factorial(8), 3)


def test_unrank_range_error_never_formats_the_factorial():
    with pytest.raises(ValueError) as info:
        TruthVector.unrank(-1, 16)
    assert str(info.value) == "rank -1 out of range [0, (2^16)!)"
    with pytest.raises(ValueError) as info:
        TruthVector.unrank(24, 2)
    assert str(info.value) == "rank 24 out of range [0, (2^2)!)"


def test_unrank_refuses_too_many_lines_quickly():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="supported maximum 24"):
        TruthVector.unrank(0, 25)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("build,n", [
    (TruthVector.identity, 25),
    (TruthVector.reverse, 25),
    (TruthVector.identity, 64),
])
def test_constructors_refuse_too_many_lines_before_building(build, n):
    # The check runs before the 2^n entries exist: no seconds, no MemoryError.
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{n} lines exceeds the supported maximum 24$"):
        build(n)
    assert time.perf_counter() - started < 0.5


def test_line_count_check_names_both_limits():
    assert check_lines(1) == 2 and check_lines(24) == 1 << 24
    with pytest.raises(ValueError, match=r"^line count must be >= 1, got -3$"):
        check_lines(-3)
    with pytest.raises(ValueError, match="^25 lines exceeds the supported maximum 24$"):
        check_lines(25)


def test_unrank_at_the_line_limit_is_quick():
    started = time.perf_counter()
    assert TruthVector.unrank(0, 18) == TruthVector.identity(18)
    assert time.perf_counter() - started < 1.0


def test_immutable():
    tv = TruthVector.identity(2)
    with pytest.raises(AttributeError):
        tv.n = 5


def test_text_round_trip_and_comments():
    text = "# a comment\n# another\n7 4 1 0\n3 2 6 5\n"
    tv = TruthVector.from_text(text)
    assert tuple(tv) == (7, 4, 1, 0, 3, 2, 6, 5)
    assert TruthVector.from_text(tv.to_text()) == tv
    assert repr(tv) == "TruthVector([7 4 1 0 3 2 6 5])"
    assert str(tv) == "7 4 1 0 3 2 6 5"


def test_text_parse_errors():
    with pytest.raises(ValueError, match="value 1 occurs twice"):
        TruthVector.from_text("1 1 2 3\n")
    with pytest.raises(ValueError, match="no truth-vector entries"):
        TruthVector.from_text("# only comments\n")
    with pytest.raises(ValueError, match="invalid entry"):
        TruthVector.from_text("0 1 two 3\n")
    # int() takes all of these; the format allows only ASCII digits.
    for text in ("+1 0_0 3 \uff12", "0 1 -2 3", "0 1 3 \u0662"):
        with pytest.raises(ValueError, match="invalid entry"):
            TruthVector.from_text(text)


# Numerals int() accepts that the file formats refuse, plus near misses.
ODD_NUMERALS = ("+1", "-2", "0_0", "\uff12", "\u0663", "\u00b2", "1e3", "0x1", " 7", "8", "99")


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(st.sampled_from(ODD_NUMERALS + ("0", "1", "2", "3", "#", "\n")), st.text(max_size=5)),
    max_size=24,
).map(" ".join))
def test_malformed_text_raises_only_value_error(text):
    try:
        TruthVector.from_text(text)
    except ValueError:
        pass


def test_text_parse_names_the_first_bad_token():
    with pytest.raises(ValueError) as info:
        TruthVector.from_text("# header\n0 one\n2 three\n")
    assert str(info.value) == "invalid entry 'one': expected a decimal integer"
