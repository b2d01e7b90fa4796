"""The explicit constant ledgers behind the degeneracy thresholds.

Every entry is an exact rational computed from the defining arithmetic; the
one irrational intermediate (a cube root) is stored as its exact cube and
only ever compared in cubed form.  A decimal rendering is attached for
display, never for decisions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .field_core import _Record


class InvalidInput(ValueError):
    """Raised for out-of-range ledger inputs."""


class EmptyFactorization(ValueError):
    """Raised when a threshold ledger is requested for no factors."""


# digits after the point in the rendering of a cube root
CBRT_DIGITS = 18


def cbrt_decimal(x: Fraction) -> str:
    """Decimal rendering of the cube root of a nonnegative rational."""
    if x < 0:
        raise InvalidInput("cube-root rendering expects a nonnegative value")
    scaled = x.numerator * 10 ** (3 * CBRT_DIGITS) // x.denominator
    # integer cube root by Newton iteration
    if scaled == 0:
        r = 0
    else:
        r = 1 << ((scaled.bit_length() + 2) // 3)
        while True:
            nr = (2 * r + scaled // (r * r)) // 3
            if nr >= r:
                break
            r = nr
        while r * r * r > scaled:
            r -= 1
    s = str(r).rjust(CBRT_DIGITS + 1, "0")
    return f"{s[:-CBRT_DIGITS]}.{s[-CBRT_DIGITS:]}"


class _Ledger(_Record):
    """The JSON writer of a constant ledger: every field in order, a
    Fraction as its str, and the decimal rendering of a cube root under the
    root's own name (c7_decimal as c7, d7_decimal as d7)."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = {}
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Fraction):
                value = str(value)
            out[name.removesuffix("_decimal")] = value
        return out


class IrredLedger(_Ledger):
    """Constant ledger for a single irreducible factor of bidegree
    (deg_x, deg_y) and height h, at tolerance eps.  Every entry is an int
    or a Fraction but `c7_decimal`, the rendering of the cube root of
    `c7_cubed`."""

    __slots__ = ("deg_x", "deg_y", "h", "eps", "c3", "c4", "c5", "c6", "c_v",
                 "c7_cubed", "c7_decimal", "c8", "c9", "c10", "c1", "c2",
                 "step5_threshold")


def irred_ledger(deg_x: int, deg_y: int, h_a: int, eps) -> IrredLedger:
    """Evaluate the single-factor constant ledger exactly."""
    eps = Fraction(eps)
    if deg_x < 0 or deg_y < 0 or deg_x + deg_y < 1:
        raise InvalidInput("the factor must have positive total degree")
    if h_a < 0:
        raise InvalidInput("the height must be nonnegative")
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    deg_a = deg_x + deg_y
    c3 = Fraction(2 * max(deg_x, deg_y) * (6 + h_a))
    c4 = Fraction(2 * deg_x * deg_y)
    c5 = c4 * (2 * c3 * c4 + 3)
    c6 = 2 * c4 * (4 * c3 + 1)
    c_v = c6 + 8 * c3 * c4 ** 3 * (1 + deg_a)
    c7_cubed = 27 * 2 ** 5 * c4 ** 8 * (c5 + c_v)
    c8 = Fraction(comb((deg_a + 1) ** 2, 2)) * (1 + c_v)
    c9 = max(c3, 8 * c7_cubed / eps ** 3, 4 * c4 * c8 / eps)
    c10 = max(c3, 4 * c4 * c8 / eps)
    c1 = max(c9, c10)
    c2 = max(Fraction(deg_a), 8 * c4 ** 3 / eps)
    return IrredLedger(
        deg_x=deg_x, deg_y=deg_y, h=h_a, eps=eps,
        c3=c3, c4=c4, c5=c5, c6=c6, c_v=c_v,
        c7_cubed=c7_cubed, c7_decimal=cbrt_decimal(c7_cubed),
        c8=c8, c9=c9, c10=c10, c1=c1, c2=c2,
        step5_threshold=2 * c3 * c4,
    )


class PairLedger(_Ledger):
    """Constant ledger for a coprime pair of factors of total degrees
    (deg1, deg2) and heights (h1, h2), at tolerance eps.  Every entry is
    an int or a Fraction but `d7_decimal`, the rendering of the cube root
    of `d7_cubed`."""

    __slots__ = ("deg1", "deg2", "h1", "h2", "eps", "d3", "d4", "d5", "d6",
                 "d_v", "d7_cubed", "d7_decimal", "d8", "d1", "d2")


def pair_ledger(deg1: int, deg2: int, h1: int, h2: int, eps) -> PairLedger:
    """Evaluate the factor-pair constant ledger exactly.

    deg1 and deg2 are the total degrees of the two factors.
    """
    eps = Fraction(eps)
    if deg1 < 1 or deg2 < 1:
        raise InvalidInput("both factors must have positive total degree")
    if h1 < 0 or h2 < 0:
        raise InvalidInput("heights must be nonnegative")
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    d3 = Fraction(2 * (deg1 + deg2) * (h1 + h2))
    d4 = Fraction((deg1 + deg2) ** 2)
    d5 = d4 * (2 * d3 * d4 + 3)
    d6 = 2 * d4 * (4 * d3 + 1)
    d_v = d6 + 4 * d3 * d4 ** 3 * (2 + deg1 + deg2)
    d7_cubed = 27 * 2 ** 5 * d4 ** 8 * (d5 + d_v)
    d8 = Fraction(comb((deg1 + 1) ** 2, 2)) * (1 + d_v)
    d1 = max(d3, 8 * d7_cubed / eps ** 3, 4 * d4 * d8 / eps)
    d2 = 8 * d4 ** 3 / eps
    return PairLedger(
        deg1=deg1, deg2=deg2, h1=h1, h2=h2, eps=eps,
        d3=d3, d4=d4, d5=d5, d6=d6, d_v=d_v,
        d7_cubed=d7_cubed, d7_decimal=cbrt_decimal(d7_cubed),
        d8=d8, d1=d1, d2=d2,
    )


class ThetaLedger(_Record):
    """The assembled height threshold and exponent bound for a factored
    polynomial, with the provenance of each maximum: `factor_ledgers` holds
    an `IrredLedger` per factor, `pair_ledgers` ((i, j), `PairLedger`) per
    pair of factors."""

    __slots__ = ("theta1", "theta2", "theta1_source", "theta2_source", "eps",
                 "eps_prime", "deg_total", "factor_ledgers", "pair_ledgers")

    def to_json(self) -> dict:
        return {
            "theta1": str(self.theta1),
            "theta2": str(self.theta2),
            "theta1_source": self.theta1_source,
            "theta2_source": self.theta2_source,
            "eps": str(self.eps),
            "eps_prime": str(self.eps_prime),
            "deg_total": self.deg_total,
            "factors": [led.to_json() for led in self.factor_ledgers],
            "pairs": [
                {"indices": list(ij), **led.to_json()}
                for ij, led in self.pair_ledgers
            ],
        }


def theta_ledger(factors: list[tuple[int, int, int]], eps) -> ThetaLedger:
    """Assemble the thresholds from per-factor and per-pair ledgers.

    `factors` lists (deg_x, deg_y, height) for each irreducible factor; the
    per-factor tolerance is eps / (2 (deg A + 1)^2) with deg A the total
    degree of the product.
    """
    eps = Fraction(eps)
    if not factors:
        raise EmptyFactorization("at least one factor is required")
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    deg_total = sum(dx + dy for dx, dy, _ in factors)
    eps_prime = eps / (2 * (deg_total + 1) ** 2)
    factor_ledgers = tuple(
        irred_ledger(dx, dy, h, eps_prime) for dx, dy, h in factors)
    pair_items = [((i, j), pair_ledger(dx1 + dy1, dx2 + dy2, h1, h2, eps_prime))
                  for (i, (dx1, dy1, h1)), (j, (dx2, dy2, h2))
                  in combinations(enumerate(factors), 2)]

    theta1, theta1_source = max(
        [(led.c1, f"factor {i}") for i, led in enumerate(factor_ledgers)]
        + [(led.d1, f"pair {ij}") for ij, led in pair_items],
        key=lambda pair: pair[0],
    )
    theta2, theta2_source = max(
        [(led.c2, f"factor {i}") for i, led in enumerate(factor_ledgers)]
        + [(led.d2, f"pair {ij}") for ij, led in pair_items],
        key=lambda pair: pair[0],
    )
    return ThetaLedger(
        theta1=theta1, theta2=theta2,
        theta1_source=theta1_source, theta2_source=theta2_source,
        eps=eps, eps_prime=eps_prime, deg_total=deg_total,
        factor_ledgers=factor_ledgers, pair_ledgers=tuple(pair_items),
    )
