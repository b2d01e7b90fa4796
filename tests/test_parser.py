import random
from fractions import Fraction

import pytest

from ffvojta.bipoly import BiPoly
from ffvojta.field_core import Place, Poly, RatFunc
from ffvojta.parser import (
    DivisionByZeroPoly,
    ParseError,
    parse_bipoly,
    parse_place,
    parse_ratfunc,
    render_ratfunc_expr,
)


class TestParseRatFunc:
    def test_cancellation(self):
        assert parse_ratfunc("(t^2-1)/(t-1)") == parse_ratfunc("t+1")

    def test_rationals_and_precedence(self):
        assert parse_ratfunc("3/2*t^2") == RatFunc(Poly((0, 0, Fraction(3, 2))))
        assert parse_ratfunc("1+2*3") == RatFunc.const(7)
        assert parse_ratfunc("2^3^1") == RatFunc.const(8)
        assert parse_ratfunc("-t^2") == -parse_ratfunc("t^2")
        assert parse_ratfunc("6/3/2") == RatFunc.const(1)
        assert parse_ratfunc("1 - 2 - 3") == RatFunc.const(-4)

    def test_whitespace(self):
        assert parse_ratfunc("  ( t ^ 2 - 1 ) / ( t + 1 )") == \
            parse_ratfunc("t-1")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_ratfunc("t^-1")
        assert err.value.pos == 2

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroPoly):
            parse_ratfunc("1/(t-t)")
        with pytest.raises(DivisionByZeroPoly):
            parse_ratfunc("1/0")

    def test_xy_rejected(self):
        with pytest.raises(ParseError):
            parse_ratfunc("X+1")

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_ratfunc("t +")
        with pytest.raises(ParseError):
            parse_ratfunc("(t")
        with pytest.raises(ParseError):
            parse_ratfunc("t ? 1")
        with pytest.raises(ParseError):
            parse_ratfunc("")


class TestParseBiPoly:
    def test_examples(self):
        A = parse_bipoly("X*Y - t")
        assert A.coeff(1, 1) == RatFunc.one()
        assert A.coeff(0, 0) == -RatFunc.t()

        B = parse_bipoly("(t)*X*Y + (t^2-1)")
        assert B.coeff(1, 1) == RatFunc.t()
        assert B.coeff(0, 0) == parse_ratfunc("t^2-1")

    def test_rational_coefficients(self):
        A = parse_bipoly("(1/(t-1))*Y + t^2*X")
        assert A.coeff(0, 1) == parse_ratfunc("1/(t-1)")
        assert A.coeff(1, 0) == parse_ratfunc("t^2")

    def test_exact_division(self):
        assert parse_bipoly("(X*Y)/X") == BiPoly.y()
        assert parse_bipoly("(X^2-Y^2)/(X+Y)") == parse_bipoly("X-Y")
        assert parse_bipoly("(X*Y^2+Y)/(X*Y+1)") == BiPoly.y()
        assert parse_bipoly("(X^2*Y-Y)/(t*X*Y-t*Y)") == parse_bipoly(
            "(1/t)*(X+1)")

    def test_inexact_division_rejected(self):
        for src in ("X/Y", "(X^2+1)/(X+1)", "(X*Y+X)/(X*Y+t)"):
            with pytest.raises(ParseError):
                parse_bipoly(src)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_bipoly("X^-1")


class TestParsePlace:
    def test_forms(self):
        assert parse_place("inf").is_infinity
        assert parse_place("0") == Place.rational(0)
        assert parse_place("-3/2") == Place.rational(Fraction(-3, 2))
        assert parse_place("t^2+1") == Place.finite(Poly((1, 0, 1)))

    def test_serialization_roundtrip(self):
        for src in ("inf", "0", "5", "-3/2", "t^2+1"):
            place = parse_place(src)
            assert parse_place(str(place)) == place


def _random_expr(rng: random.Random, depth: int, allow_xy: bool) -> str:
    if depth == 0:
        choices = [str(rng.randint(0, 9)), "t"]
        if allow_xy:
            choices += ["X", "Y"]
        return rng.choice(choices)
    op = rng.choice(["+", "-", "*", "^", "()"])
    left = _random_expr(rng, depth - 1, allow_xy)
    if op == "()":
        return f"({left})"
    if op == "^":
        return f"({left})^{rng.randint(0, 3)}"
    right = _random_expr(rng, depth - 1, allow_xy)
    return f"{left} {op} {right}"


class TestRoundTrip:
    def test_ratfunc_corpus(self):
        rng = random.Random(2024)
        done = 0
        while done < 200:
            src = _random_expr(rng, rng.randint(1, 4), allow_xy=False)
            if rng.random() < 0.3:
                src = f"({src})/(t^2+{rng.randint(1, 5)})"
            try:
                f = parse_ratfunc(src)
            except (ParseError, DivisionByZeroPoly):
                continue
            assert parse_ratfunc(render_ratfunc_expr(f)) == f
            done += 1

    def test_bipoly_corpus(self):
        rng = random.Random(2025)
        done = 0
        while done < 100:
            src = _random_expr(rng, rng.randint(1, 3), allow_xy=True)
            try:
                A = parse_bipoly(src)
            except (ParseError, DivisionByZeroPoly):
                continue
            assert parse_bipoly(str(A)) == A
            done += 1
