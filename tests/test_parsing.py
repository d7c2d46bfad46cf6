"""Expression grammar and canonical formatting."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npvset.algebra import BiPoly, bipoly
from npvset.errors import ParseError
from npvset.parsing import (
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_EXPONENT,
    format_poly,
    format_series,
    parse_map,
    parse_poly,
    parse_series,
)
from npvset.puiseux import series

from conftest import sc


class TestParsePoly:
    def test_basic(self):
        assert parse_poly("x*y + y^2") == bipoly({(1, 1): 1, (0, 2): 1})

    def test_rational_and_gaussian(self):
        got = parse_poly("1/2*x^2 - i*y")
        assert got == bipoly({(2, 0): sc(Fraction(1, 2)), (0, 1): sc(0, -1)})

    def test_double_star_is_an_error(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x**y")
        assert err.value.pos == 2

    def test_parentheses_and_powers(self):
        assert parse_poly("(x+y)^2") == bipoly(
            {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        )

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_poly("x + z")

    @pytest.mark.parametrize(
        "parse,text,message,pos",
        [
            (parse_poly, "x + s", "the symbol s is reserved for series", 4),
            (parse_poly, "x + s - s", "the symbol s is reserved for series", 4),
            (parse_series, "s + x*y", "series may not involve y", 6),
        ],
    )
    def test_wrong_symbol_is_reported_where_it_stands(self, parse, text, message, pos):
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert err.value.pos == pos

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + ")
        assert err.value.pos == 4

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("(x+y+1)^400", 7),
            (f"x^{MAX_DEGREE + 1}", 1),
            (f"(x^2+y)^{MAX_DEGREE // 2 + 1}", 7),
            (f"2^{MAX_EXPONENT + 1}", 1),
            (f"(x+y)^{MAX_DEGREE // 2}*(x+1)^{MAX_DEGREE // 2}*y", 17),
        ],
    )
    def test_degree_bound(self, text, pos):
        # a power or product is refused before it is multiplied out
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.pos == pos

    def test_degree_bound_is_inclusive(self):
        assert parse_poly(f"(x+y)^{MAX_DEGREE}").total_degree == MAX_DEGREE
        half = MAX_DEGREE // 2
        assert parse_poly(f"x^{half}*y^{half}").total_degree == MAX_DEGREE
        assert parse_poly(f"2^{MAX_EXPONENT}") == bipoly({(0, 0): 2**MAX_EXPONENT})

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("1" * (MAX_DIGITS + 1) + "*x", 0),
            (f"x^{'1' * (MAX_DIGITS + 1)}", 2),
            (f"10^{MAX_DIGITS - 1}*10", 6),
            (f"1/10^{MAX_DIGITS - 1}/10", 8),
            ("100000^1024*x", 6),
            ("((10^1024)^1024)^1024*x", 4),
        ],
    )
    def test_digit_bound(self, text, pos):
        # a numeral, product, quotient or power with a coefficient integer of
        # more than MAX_DIGITS digits is refused; a power before it multiplies
        with pytest.raises(ParseError, match="digits") as err:
            parse_poly(text)
        assert err.value.pos == pos

    def test_digit_bound_is_inclusive(self):
        largest = 10**MAX_DIGITS - 1
        assert parse_poly(str(largest)) == bipoly({(0, 0): largest})
        assert parse_poly(f"10^{MAX_DIGITS - 1}/3*x").coeff(1, 0) == sc(
            Fraction(10 ** (MAX_DIGITS - 1), 3)
        )
        assert parse_poly("9^1024") == bipoly({(0, 0): 9**1024})  # 977 digits

    def test_digit_bound_reads_each_reduced_coefficient(self):
        # p and q are coprime: each coefficient has a 601-digit denominator,
        # their common denominator has 1201 digits
        p, q = 10**600 + 1, 10**600 + 3
        poly = parse_poly(f"(1/{p} + x/{q})*y")
        assert poly.coeff(0, 1) == sc(Fraction(1, p))
        assert poly.coeff(1, 1) == sc(Fraction(1, q))
        assert parse_poly(format_poly(poly)) == poly

    def test_map_splitting(self):
        p, q = parse_map("x+y; y")
        assert p == bipoly({(1, 0): 1, (0, 1): 1}) and q == bipoly({(0, 1): 1})


class TestParseSeries:
    def test_dicritical_window(self):
        assert parse_series("-x + s*x^(-1)") == series(1, [(0, sc(-1))], 2)

    def test_fractional_exponents(self):
        got = parse_series("x^(1/2) + s*x^(-1)")
        assert got == series(2, [(1, sc(1))], 4)

    def test_plain_parameter(self):
        assert parse_series("s") == series(1, [], 1)

    def test_gaussian_coefficient(self):
        assert parse_series("i*x + s") == series(1, [(0, sc(0, 1))], 1)

    def test_parameter_must_be_lowest(self):
        with pytest.raises(ParseError):
            parse_series("s*x + x^(-1)")

    def test_single_parameter_required(self):
        with pytest.raises(ParseError):
            parse_series("x + 1")

    @pytest.mark.parametrize("text", ["s*x^2", "x^2 + s*x^(5/3)", "x^(3/2) + s"])
    def test_exponents_above_one_are_parse_errors(self, text):
        # a series at infinity has terms x^(1 - k/m) with k >= 0
        with pytest.raises(ParseError, match="at most 1"):
            parse_series(text)


scalar_strategy = st.builds(
    lambda a, b, c: sc(Fraction(a, c), b),
    st.integers(-6, 6),
    st.integers(-3, 3),
    st.integers(1, 3),
)

poly_strategy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), scalar_strategy, max_size=5
).map(BiPoly)


@st.composite
def series_strategy(draw):
    """series(mult, steps, param_index) with the parameter below every step."""
    mult = draw(st.integers(1, 6))
    ks = draw(st.lists(st.integers(0, 12), max_size=4, unique=True))
    coeffs = draw(st.lists(scalar_strategy, min_size=len(ks), max_size=len(ks)))
    param_index = draw(st.integers(max(ks, default=-1) + 1, 16))
    return series(mult, zip(ks, coeffs), param_index)


class TestRoundTrip:
    @settings(max_examples=120)
    @given(poly_strategy)
    def test_poly_round_trip(self, p):
        parsed = parse_poly(format_poly(p))
        assert parsed == p
        assert all(type(i) is int and type(j) is int for i, j in parsed.terms)

    def test_series_round_trip(self):
        for text in ("-x + s*x^(-1)", "x^(1/2) + s", "s*x", "i*x + s*x^(-2)"):
            w = parse_series(text)
            assert parse_series(format_series(w)) == w

    @settings(max_examples=120)
    @given(series_strategy())
    def test_generated_series_round_trip(self, w):
        assert parse_series(format_series(w)) == w

    def test_corpus_round_trip(self):
        from conftest import CORPUS_TEXT

        for text in CORPUS_TEXT.values():
            p, q = parse_map(text)
            assert parse_poly(format_poly(p)) == p
            assert parse_poly(format_poly(q)) == q
