"""Text grammar for polynomials and parametric series, plus formatters.

Polynomials use variables x, y with operators + - * ^ and parentheses;
coefficients are integers, rationals a/b, and Gaussian literals built from
i.  Series use x, the parameter symbol s, and rational exponents written
x^(p/q).  The formatters emit canonical text the parsers accept, so
round-tripping is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import BiPoly, ONE, Scalar, UniPoly, ZERO, join_terms
from .errors import ParseError
from .puiseux import ConcreteBranch, ParamSeries, series_from_exponents

# a term map: (x exponent, y degree, s degree) -> coefficient
_Terms = Dict[Tuple[Fraction, int, int], Scalar]

# powers and products are multiplied out term by term, at a cost cubic in the
# degree: their degree is bounded, and so is the exponent of a constant power
MAX_DEGREE = 32
MAX_EXPONENT = 1024


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
    """Recursive-descent parser over the shared monomial algebra.

    Values are term maps over (x-exponent, y-degree, s-degree); which
    variables and exponents are legal is decided by the caller afterwards,
    keeping polynomial and series parsing on one code path.
    """

    def __init__(self, text: str, allow_fractional_x: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.allow_fractional_x = allow_fractional_x

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.idx += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return tok

    def parse(self) -> _Terms:
        try:
            value = self.parse_sum()
        except RecursionError:
            raise ParseError("expression nested too deeply", 0) from None
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value

    def parse_sum(self) -> _Terms:
        value = self.parse_product()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return value
            self.take()
            rhs = self.parse_product()
            if tok.text == "-":
                rhs = {k: -v for k, v in rhs.items()}
            value = _add(value, rhs)

    def parse_product(self) -> _Terms:
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "*/":
                return value
            self.take()
            rhs = self.parse_factor()
            if tok.text == "*":
                if _degree(value) + _degree(rhs) > MAX_DEGREE:
                    raise ParseError(f"product of degree above {MAX_DEGREE}", tok.pos)
                value = _mul(value, rhs)
            else:
                scalar = _as_scalar(rhs, tok.pos)
                if scalar.is_zero():
                    raise ParseError("division by zero", tok.pos)
                value = {k: v / scalar for k, v in value.items()}

    def parse_factor(self) -> _Terms:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.take()
            inner = self.parse_factor()
            return {k: -v for k, v in inner.items()}
        base = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.take()
            expo = self.parse_exponent()
            return _pow(base, expo, tok.pos, self.allow_fractional_x)
        return base

    def parse_exponent(self) -> Fraction:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "(":
            self.take()
            sign = 1
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = -1 if tok.text == "-" else 1
            num = self.take()
            if num.kind != "num":
                raise ParseError("expected a number in exponent", num.pos)
            value = Fraction(int(num.text))
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text == "/":
                self.take()
                den = self.take()
                if den.kind != "num" or int(den.text) == 0:
                    raise ParseError("expected a nonzero denominator", den.pos)
                value = value / int(den.text)
            self.expect_op(")")
            return sign * value
        num = self.take()
        if num.kind != "num":
            raise ParseError("expected an exponent", num.pos)
        return Fraction(int(num.text))

    def parse_atom(self) -> _Terms:
        tok = self.take()
        if tok.kind == "num":
            return {(Fraction(0), 0, 0): Scalar.of(int(tok.text))}
        if tok.kind == "name":
            if tok.text == "x":
                return {(Fraction(1), 0, 0): ONE}
            if tok.text == "y":
                return {(Fraction(0), 1, 0): ONE}
            if tok.text == "s":
                return {(Fraction(0), 0, 1): ONE}
            if tok.text == "i":
                return {(Fraction(0), 0, 0): Scalar.of(0, 1)}
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            value = self.parse_sum()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def _add(a: _Terms, b: _Terms) -> _Terms:
    out = dict(a)
    for k, v in b.items():
        acc = out.get(k, ZERO) + v
        if acc.is_zero():
            out.pop(k, None)
        else:
            out[k] = acc
    return out


def _mul(a: _Terms, b: _Terms) -> _Terms:
    out: _Terms = {}
    for (xa, ya, sa), ca in a.items():
        for (xb, yb, sb), cb in b.items():
            k = (xa + xb, ya + yb, sa + sb)
            acc = out.get(k, ZERO) + ca * cb
            if acc.is_zero():
                out.pop(k, None)
            else:
                out[k] = acc
    return out


def _as_scalar(t: _Terms, pos: int) -> Scalar:
    if not t:
        return ZERO
    if set(t) != {(Fraction(0), 0, 0)}:
        raise ParseError("divisor must be a constant", pos)
    return t[(Fraction(0), 0, 0)]


def _degree(t: _Terms) -> Fraction:
    return max((xe + yd + sd for xe, yd, sd in t), default=0)


def _pow(base: _Terms, expo: Fraction, pos: int, allow_fractional_x: bool) -> _Terms:
    if expo > MAX_EXPONENT or expo * _degree(base) > MAX_DEGREE:
        raise ParseError(
            f"power of degree above {MAX_DEGREE} or exponent above {MAX_EXPONENT}", pos
        )
    if len(base) == 1:
        (xe, yd, sd), coeff = next(iter(base.items()))
        if xe != 0 and yd == 0 and sd == 0 and coeff == ONE:
            if expo.denominator != 1 and not allow_fractional_x:
                raise ParseError("fractional exponents are not allowed here", pos)
            return {(xe * expo, 0, 0): ONE}
    if expo.denominator != 1 or expo < 0:
        raise ParseError("only plain x may carry a fractional or negative power", pos)
    out = {(Fraction(0), 0, 0): ONE}
    for _ in range(int(expo)):
        out = _mul(out, base)
    return out


# ---------------------------------------------------------------------------
# Public parsers
# ---------------------------------------------------------------------------


def parse_poly(text: str) -> BiPoly:
    """Exact bivariate polynomial from text in x, y."""
    terms = _Parser(text, allow_fractional_x=False).parse()
    out: Dict[Tuple[int, int], Scalar] = {}
    for (xe, yd, sd), c in terms.items():
        if sd:
            raise ParseError("the symbol s is reserved for series", 0)
        if xe.denominator != 1 or xe < 0:
            raise ParseError("polynomial exponents must be non-negative integers", 0)
        out[(int(xe), yd)] = c
    return BiPoly(out)


def parse_map(text: str) -> Tuple[BiPoly, BiPoly]:
    """Two polynomials separated by a semicolon."""
    if ";" not in text:
        raise ParseError("expected two polynomials separated by ';'", len(text))
    left, right = text.split(";", 1)
    return parse_poly(left), parse_poly(right)


def parse_series(text: str) -> ParamSeries:
    """Parametric series from text in x and the parameter symbol s."""
    terms = _Parser(text, allow_fractional_x=True).parse()
    steps: List[Tuple[Fraction, Scalar]] = []
    param: List[Tuple[Fraction, Scalar]] = []
    for (xe, yd, sd), c in terms.items():
        if yd:
            raise ParseError("series may not involve y", 0)
        if sd == 0:
            steps.append((xe, c))
        elif sd == 1:
            param.append((xe, c))
        else:
            raise ParseError("the parameter s must appear linearly", 0)
    if len(param) != 1:
        raise ParseError("series needs exactly one parameter term", 0)
    (pe, pc) = param[0]
    if pc != ONE:
        raise ParseError("the parameter term must have coefficient one", 0)
    if any(e <= pe for e, _ in steps):
        raise ParseError("every fixed term must sit above the parameter term", 0)
    return series_from_exponents(steps, pe)


# ---------------------------------------------------------------------------
# Formatters (canonical, parseable)
# ---------------------------------------------------------------------------


def format_scalar_factor(c: Scalar) -> str:
    """Scalar rendered as a parseable multiplicative factor."""
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    imtxt = "i" if abs(c.im) == 1 else f"{abs(c.im)}*i"
    sign = "+" if c.im > 0 else "-"
    return f"({c.re}{sign}{imtxt})"


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
