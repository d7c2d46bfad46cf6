"""Text grammar for polynomials and parametric series, plus formatters.

Polynomials use variables x, y with operators + - * ^ and parentheses;
coefficients are integers, rationals a/b, and Gaussian literals built from
i.  Series use x and the parameter symbol s.  Both parse to a `BiPoly`
whose second variable is y or s; exponents are ints, except that plain x
may carry a rational power x^(p/q) inside a series.  The formatters emit
canonical text the parsers accept, so round-tripping is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple, Union

from .algebra import BiPoly, ONE, Scalar, UniPoly, _from_nums, join_terms, rational_text
from .errors import ParseError
from .puiseux import ConcreteBranch, ParamSeries, series_from_exponents

# powers and products are multiplied out, at a cost cubic in the degree: their
# degree is bounded, and so are the exponent of a constant power and the
# digits of every coefficient integer (int() refuses numerals above 4300)
MAX_DEGREE = 32
MAX_EXPONENT = 1024
MAX_DIGITS = 1000

_HUGE = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits
_HUGE_MSG = f"coefficient of more than {MAX_DIGITS} digits"

# the error for a symbol that is not the second variable of its grammar
_WRONG_SYMBOL = {"y": "series may not involve y", "s": "the symbol s is reserved for series"}


class _Token(NamedTuple):
    kind: str  # num | name | op
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # int() reads every decimal digit, not "²"
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"numeral of more than {MAX_DIGITS} digits", i)
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return out


class _Parser:
    """Recursive-descent parser whose values are `BiPoly`s in x and
    ``second``: y for polynomials, s for series.

    The operators are `BiPoly`'s own.  Exponents are ints, except on plain
    x inside a series, whose power may be a `Fraction`.
    """

    def __init__(self, text: str, second: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.second = second

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.idx += 1
        return tok

    def take_op(self, ops: str) -> Optional[_Token]:
        """The next token, taken, if it is one of the operators ``ops``."""
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.text not in ops:
            return None
        self.idx += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return tok

    def parse(self) -> BiPoly:
        try:
            value = self.parse_sum()
        except RecursionError:
            raise ParseError("expression nested too deeply", 0) from None
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value

    def parse_sum(self) -> BiPoly:
        value = self.parse_product()
        while (tok := self.take_op("+-")) is not None:
            rhs = self.parse_product()
            value = value - rhs if tok.text == "-" else value + rhs
        return value

    def parse_product(self) -> BiPoly:
        value = self.parse_factor()
        while (tok := self.take_op("*/")) is not None:
            rhs = self.parse_factor()
            if tok.text == "*":
                if value.total_degree + rhs.total_degree > MAX_DEGREE:
                    raise ParseError(f"product of degree above {MAX_DEGREE}", tok.pos)
                value = value * rhs
            elif not rhs.is_constant():
                raise ParseError("divisor must be a constant", tok.pos)
            elif rhs.is_zero():
                raise ParseError("division by zero", tok.pos)
            else:
                value = value.scale(rhs.coeff(0, 0).inverse())
            # each coefficient in lowest terms; their common denominator may be larger
            den, nums = value.den, value.nums.values()
            if any(max(abs(a), abs(b), den) // math.gcd(a, b, den) >= _HUGE for a, b in nums):
                raise ParseError(_HUGE_MSG, tok.pos)
        return value

    def parse_factor(self) -> BiPoly:
        if self.take_op("-") is not None:
            return -self.parse_factor()
        base = self.parse_atom()
        tok = self.take_op("^")
        if tok is None:
            return base
        expo = self.parse_exponent()
        if expo > MAX_EXPONENT or expo * base.total_degree > MAX_DEGREE:
            msg = f"power of degree above {MAX_DEGREE} or exponent above {MAX_EXPONENT}"
            raise ParseError(msg, tok.pos)
        if len(base.nums) == 1 and base.den == 1:
            ((xe, yd), xy), = base.nums.items()
            if xe and not yd and xy == (1, 0):
                if type(expo) is Fraction and self.second != "s":
                    raise ParseError("fractional exponents are not allowed here", tok.pos)
                return _from_nums({(xe * expo, 0): xy}, 1)
        if type(expo) is Fraction or expo < 0:
            msg = "only plain x may carry a fractional or negative power"
            raise ParseError(msg, tok.pos)
        if expo * _power_digits(base) >= MAX_DIGITS:  # refused before multiplying
            raise ParseError(_HUGE_MSG, tok.pos)
        return base ** expo

    def parse_exponent(self) -> Union[int, Fraction]:
        if self.take_op("(") is None:
            num = self.take()
            if num.kind != "num":
                raise ParseError("expected an exponent", num.pos)
            return int(num.text)
        tok = self.take_op("+-")
        num = self.take()
        if num.kind != "num":
            raise ParseError("expected a number in exponent", num.pos)
        value = -int(num.text) if tok is not None and tok.text == "-" else int(num.text)
        if self.take_op("/") is not None:
            den = self.take()
            if den.kind != "num" or int(den.text) == 0:
                raise ParseError("expected a nonzero denominator", den.pos)
            frac = Fraction(value, int(den.text))
            value = frac if frac.denominator != 1 else frac.numerator
        self.expect_op(")")
        return value

    def parse_atom(self) -> BiPoly:
        tok = self.take()
        if tok.kind == "num":
            return _from_nums({(0, 0): (int(tok.text), 0)}, 1)
        if tok.kind == "name":
            if tok.text == "x":
                return _from_nums({(1, 0): (1, 0)}, 1)
            if tok.text == self.second:
                return _from_nums({(0, 1): (1, 0)}, 1)
            if tok.text == "i":
                return _from_nums({(0, 0): (0, 1)}, 1)
            if tok.text in _WRONG_SYMBOL:
                raise ParseError(_WRONG_SYMBOL[tok.text], tok.pos)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            value = self.parse_sum()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def _power_digits(base: BiPoly) -> float:
    """Digits per unit of n bounding the coefficient integers of base^n: with
    base = N/D, N in Z[i][x, y], they are at most (sum |N_k|)^n and D^n."""
    top = max((re * re + im * im for re, im in base.nums.values()), default=0)
    return max(math.log10(len(base.nums) ** 2 * top or 1) / 2, math.log10(base.den))


# ---------------------------------------------------------------------------
# Public parsers
# ---------------------------------------------------------------------------


def parse_poly(text: str) -> BiPoly:
    """Exact bivariate polynomial from text in x, y."""
    poly = _Parser(text, "y").parse()
    if any(xe < 0 for xe, _ in poly.nums):
        raise ParseError("polynomial exponents must be non-negative integers", 0)
    return poly


def parse_map(text: str) -> Tuple[BiPoly, BiPoly]:
    """Two polynomials separated by a semicolon."""
    if ";" not in text:
        raise ParseError("expected two polynomials separated by ';'", len(text))
    left, right = text.split(";", 1)
    return parse_poly(left), parse_poly(right)


def parse_series(text: str) -> ParamSeries:
    """Parametric series from text in x and the parameter symbol s."""
    terms = _Parser(text, "s").parse().terms.items()  # keys (x-exponent, s-degree)
    if any(sd > 1 for (_, sd), _ in terms):
        raise ParseError("the parameter s must appear linearly", 0)
    steps = [(xe, c) for (xe, sd), c in terms if sd == 0]
    param = [(xe, c) for (xe, sd), c in terms if sd == 1]
    if len(param) != 1:
        raise ParseError("series needs exactly one parameter term", 0)
    (pe, pc) = param[0]
    if pc != ONE:
        raise ParseError("the parameter term must have coefficient one", 0)
    if any(e <= pe for e, _ in steps):
        raise ParseError("every fixed term must sit above the parameter term", 0)
    if pe > 1 or any(e > 1 for e, _ in steps):
        raise ParseError("series exponents must be at most 1", 0)
    return series_from_exponents(steps, pe)


# ---------------------------------------------------------------------------
# Formatters (canonical, parseable)
# ---------------------------------------------------------------------------


def format_scalar_factor(c: Scalar) -> str:
    """Scalar rendered as a parseable multiplicative factor."""
    a, b, d = c.a, c.b, c.d
    if not b:
        return rational_text(a, d)
    if not a:
        if b == d:
            return "i"
        if b == -d:
            return "-i"
        return f"{rational_text(b, d)}*i"
    imtxt = "i" if abs(b) == d else f"{rational_text(abs(b), d)}*i"
    sign = "+" if b > 0 else "-"
    return f"({rational_text(a, d)}{sign}{imtxt})"


def _format_exponent(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return str(e)
    return f"({e})"


def format_poly(b: BiPoly) -> str:
    if b.is_zero():
        return "0"
    parts: List[str] = []
    for (i, j), c in b.sorted_terms():
        factors = []
        ctxt = format_scalar_factor(c)
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        if not factors:
            factors = [ctxt]
        elif ctxt == "1":
            pass
        elif ctxt == "-1":
            factors[0] = "-" + factors[0]
        else:
            factors.insert(0, ctxt)
        parts.append("*".join(factors))
    return join_terms(parts)


def _format_series_term(e: Fraction, c: Scalar) -> str:
    ctxt = format_scalar_factor(c)
    if e == 0:
        return ctxt
    xtxt = "x" if e == 1 else f"x^{_format_exponent(e)}"
    if ctxt == "1":
        return xtxt
    if ctxt == "-1":
        return "-" + xtxt
    return f"{ctxt}*{xtxt}"


def format_series(phi: ParamSeries) -> str:
    parts = [
        _format_series_term(e, c)
        for e, c in sorted(phi.step_exponents(), key=lambda t: -t[0])
    ]
    pe = phi.param_exponent
    if pe == 0:
        parts.append("s")
    elif pe == 1:
        parts.append("s*x")
    else:
        parts.append(f"s*x^{_format_exponent(pe)}")
    return join_terms(parts)


def format_branch(br: ConcreteBranch) -> str:
    body = join_terms([
        _format_series_term(e, c)
        for e, c in sorted(br.exponents(), key=lambda t: -t[0])
    ]) if br.terms else "0"
    if br.truncation_k is not None:
        return f"{body} + O(x^({1 - Fraction(br.truncation_k + 1, br.mult)}))"
    return body


def format_unipoly(p: UniPoly) -> List[str]:
    """Coefficients as exact strings, constant term first."""
    return [str(c) for c in p.coeffs] if not p.is_zero() else ["0"]
