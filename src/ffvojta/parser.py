"""Expression parser for rational functions and bivariate polynomials.

Grammar: integer literals, the variables t, X, Y, the operators + - * / ^
with parentheses; ^ binds tightest and takes a nonnegative integer
exponent, * and / are left associative, unary minus is allowed at the
start of a factor.  Whitespace is ignored.  Values are tracked as exact
quotients of bivariate polynomials, so `(t^2-1)/(t-1)` normalizes to t+1
and `(X*Y)/X` to Y.
"""

from __future__ import annotations

from fractions import Fraction

from .bipoly import BiPoly
from .field_core import Place, Poly, RatFunc, render_poly


class ParseError(ValueError):
    """Syntax error, carrying the offset it was detected at."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DivisionByZeroPoly(ZeroDivisionError):
    """Division by an expression that is identically zero."""


_OPS = set("+-*/^()")


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if ch in ("t", "X", "Y"):
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Precedence-climbing parser over (numerator, denominator) pairs."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            n1, d1 = value
            n2, d2 = rhs
            num = n1 * d2 + n2 * d1 if op == "+" else n1 * d2 - n2 * d1
            value = (num, d1 * d2)
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.unary()
            n1, d1 = value
            n2, d2 = rhs
            if op == "*":
                value = (n1 * n2, d1 * d2)
            else:
                if n2.is_zero:
                    raise DivisionByZeroPoly(
                        f"division by zero expression (at position {pos})")
                value = (n1 * d2, d1 * n2)
        return value

    def unary(self):
        kind, _, _ = self.peek()
        if kind in ("+", "-"):
            op = self.next()[0]
            value = self.unary()
            return (-value[0], value[1]) if op == "-" else value
        return self.power()

    def power(self):
        base = self.atom()
        while self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                raise ParseError("the exponent must be a nonnegative integer",
                                 tok[2])
            n = tok[1]
            num, den = base
            if num.is_zero and n == 0:
                raise ParseError("0^0 is undefined", tok[2])
            base = (num ** n, den ** n)
        return base

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return (BiPoly.const(value), BiPoly.const(1))
        if kind == "var":
            if value == "t":
                return (BiPoly.const(RatFunc.t()), BiPoly.const(1))
            if value == "X":
                return (BiPoly.x(), BiPoly.const(1))
            return (BiPoly.y(), BiPoly.const(1))
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def _reduce_pair(num: BiPoly, den: BiPoly, src: str):
    """Normalize a (num, den) pair; the denominator must divide exactly.

    A denominator in X or Y is divided out term by term against its
    lex-leading term.  With a single divisor the remainder is zero exactly
    when the division is exact, so the first leading term of the running
    remainder that the divisor's does not divide proves it inexact.
    """
    if den.is_zero:
        raise DivisionByZeroPoly("division by zero expression")
    if den.is_constant:
        inv = RatFunc.one() / den.coeff(0, 0)
        return num.scale(inv), BiPoly.const(1)
    (di, dj), lc = max(den.coeffs.items())
    quot = BiPoly.zero()
    while not num.is_zero:
        (i, j), c = max(num.coeffs.items())
        if i < di or j < dj:
            raise ParseError(
                f"denominator does not divide the numerator in {src!r}", 0)
        term = BiPoly.monomial(i - di, j - dj, c / lc)
        quot = quot + term
        num = num - term * den
    return quot, BiPoly.const(1)


def parse_bipoly(src: str) -> BiPoly:
    """Parse an expression in t, X, Y into a bivariate polynomial."""
    num, den = _Parser(src).parse()
    out, _ = _reduce_pair(num, den, src)
    return out


def parse_ratfunc(src: str) -> RatFunc:
    """Parse an expression in t alone into a normalized rational function."""
    num, den = _Parser(src).parse()
    if num.deg_x or num.deg_y or den.deg_x or den.deg_y:
        raise ParseError(f"X and Y are not allowed in {src!r}", 0)
    n = num.coeff(0, 0)
    d = den.coeff(0, 0)
    if d.is_zero:
        raise DivisionByZeroPoly("division by zero expression")
    return n / d


def parse_place(src: str) -> Place:
    """Parse a place: "inf", a rational literal a (meaning t - a), or a
    monic polynomial in t."""
    text = src.strip()
    if text == "inf":
        return Place.infinity()
    try:
        return Place.rational(Fraction(text))
    except ValueError:
        pass
    f = parse_ratfunc(text)
    if f.den != Poly.one():
        raise ParseError(f"a place must be a polynomial: {src!r}", 0)
    return Place.finite(f.num)


def render_ratfunc_expr(f: RatFunc) -> str:
    """Render a RatFunc in the expression grammar (re-parseable)."""
    if f.den == Poly.one():
        return f"({render_poly(f.num)})"
    return f"({render_poly(f.num)})/({render_poly(f.den)})"
