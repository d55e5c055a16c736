from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finitary.core import (
    ProbabilityVector,
    SymbolError,
    check_word,
    entropy,
    parse_bits,
    parse_rational,
    parse_word,
)

F = Fraction


class TestParseRational:
    def test_integer_and_fraction_forms(self):
        assert parse_rational("3") == F(3)
        assert parse_rational("2/6") == F(1, 3)
        assert parse_rational("-1/4") == F(-1, 4)

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", "1/0", "", "a/b", "1 / 2", "nan"])
    def test_rejects_non_exact(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestValidateDistribution:
    def test_accepts_uniform(self):
        ProbabilityVector((F(1, 2), F(1, 2)))

    def test_accepts_exact_sum(self):
        ProbabilityVector((F(1, 3), F(2, 3)))

    def test_zero_entry_reports_index(self):
        with pytest.raises(ValueError, match="zero entry at index 2"):
            ProbabilityVector((F(1, 2), F(0), F(1, 2)))

    def test_negative_entry_reports_index(self):
        with pytest.raises(ValueError, match="negative entry at index 1"):
            ProbabilityVector((F(-1, 2), F(3, 2)))

    def test_bad_sum_reports_value(self):
        with pytest.raises(ValueError, match="sum to 5/6"):
            ProbabilityVector((F(1, 2), F(1, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityVector(())

    def test_parse(self):
        assert ProbabilityVector.parse("1/4,3/4").entries == (F(1, 4), F(3, 4))


class TestEntropy:
    # Frozen from direct high-precision evaluation of -sum p ln p.
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2,1/2", 0.6931471805599453),
            ("1/3,1/3,1/3", 1.0986122886681098),
            ("1/4,3/4", 0.5623351446188083),
        ],
    )
    def test_values(self, text, value):
        assert entropy(ProbabilityVector.parse(text)) == pytest.approx(
            value, rel=1e-12
        )


class TestCumulative:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2,1/2", [0, F(1, 2), 1]),
            ("1/3,2/3", [0, F(1, 3), 1]),
            ("1/4,1/4,1/2", [0, F(1, 4), F(1, 2), 1]),
        ],
    )
    def test_prefix_sums(self, text, expected):
        cum, den = ProbabilityVector.parse(text).scaled_cumulative
        assert [F(c, den) for c in cum] == expected


rationals = st.fractions(
    min_value=F(1, 1000), max_value=F(1000), max_denominator=10**6
)


@given(st.lists(rationals, min_size=1, max_size=6))
def test_cumulative_strictly_increasing(parts):
    total = sum(parts)
    p = ProbabilityVector(tuple(v / total for v in parts))
    cum, den = p.scaled_cumulative
    assert len(cum) == p.size + 1
    assert cum[0] == 0 and cum[-1] == den
    assert [F(c, den) for c in cum] == list(accumulate(p.entries, initial=F(0)))
    assert all(a < b for a, b in zip(cum, cum[1:]))


@given(rationals, rationals)
def test_fraction_addition_matches_cross_multiplication(x, y):
    # Independent big-integer route for a/b + c/d.
    expected = Fraction(
        x.numerator * y.denominator + y.numerator * x.denominator,
        x.denominator * y.denominator,
    )
    assert x + y == expected


class TestWordsAndBits:
    def test_parse_word(self):
        assert parse_word("1 3 2", 3) == (1, 3, 2)

    def test_numpy_integers_accepted(self):
        import numpy as np

        from finitary.core import check_word

        word = check_word(np.array([1, 3, 2], dtype=np.int64), 3)
        assert word == (1, 3, 2)
        assert all(type(s) is int for s in word)

    def test_booleans_and_floats_rejected(self):
        from finitary.core import check_word

        with pytest.raises(ValueError):
            check_word([True, 2], 2)
        with pytest.raises(ValueError):
            check_word([1.0, 2], 2)

    def test_word_out_of_alphabet(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            parse_word("1 3", 2)

    @pytest.mark.parametrize(
        "symbols,start,message,position",
        [
            ([0, 1, 2, 3], 0, "symbol 0 at position 0 outside 1..3", 0),
            ((1, 2, 4, 3), 0, "symbol 4 at position 2 outside 1..3", 2),
            ([1, 2, 3, -1], 5, "symbol -1 at position 8 outside 1..3", 8),
            ([1, 5, 0], 0, "symbol 5 at position 1 outside 1..3", 1),
            ([1, True, 2], 0, "symbol True at position 1 outside 1..3", 1),
            ((2, 3, False), 0, "symbol False at position 2 outside 1..3", 2),
            ([1, 2, 2.0], 0, "symbol 2.0 at position 2 is not an integer", 2),
            ([1, np.int64(7)], 0, f"symbol {np.int64(7)!r} at position 1 outside 1..3", 1),
        ],
    )
    def test_check_word_reports_the_first_bad_symbol(self, symbols, start, message, position):
        with pytest.raises(SymbolError) as err:
            check_word(symbols, 3, start)
        assert str(err.value) == message
        assert err.value.position == position

    @pytest.mark.parametrize(
        "symbols", [[], (), [1, 3, 2], (3, 3, 1), [1, np.int64(3), 2], np.array([2, 1, 3])]
    )
    def test_check_word_returns_plain_ints(self, symbols):
        word = check_word(symbols, 3)
        assert type(word) is tuple and word == tuple(int(s) for s in symbols)
        assert all(type(s) is int for s in word)

    def test_parse_bits_contiguous_and_spaced(self):
        assert parse_bits("0110") == "0110"
        assert parse_bits("0 1 1 0") == "0110"
        assert parse_bits("1") == "1"

    def test_parse_bits_rejects_other_symbols(self):
        with pytest.raises(ValueError):
            parse_bits("012")

    @pytest.mark.parametrize("text", ["\u0661\u0660", "0 2"], ids=["arabic-indic", "two"])
    def test_parse_bits_refuses_other_digits(self, text):
        with pytest.raises(ValueError, match="malformed bit string"):
            parse_bits(text)
