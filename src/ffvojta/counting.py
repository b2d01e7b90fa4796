"""Truncated zero counting outside a place set, and the imported bounds.

All counts are geometric: a place contributes its degree times the local
quantity, so the totals agree with counting points over the algebraic
closure.  The gcd bound and the unit-sum lower bound are theorems of the
literature; the checkers here evaluate both sides exactly and report
whether the inequality held, cube-comparing where a cube root appears.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .field_core import (
    _CERT_POINTS,
    _CERT_PRIME,
    Place,
    Poly,
    RatFunc,
    ZeroFunction,
    _Record,
    _divide_out,
    _image,
    factor_poly,
    height,
    poly_gcd,
    proj_height,
)
from .sunits import DependenceResult, PlaceSet, euler_char


class NotSInteger(ValueError):
    """Raised when a function has a pole outside the allowed place set."""

    def __init__(self, place):
        super().__init__(f"pole at {place}, outside the place set")
        self.place = place


class ZeroDifference(ValueError):
    """Raised when a unit coincides with the root it is compared against."""


class ConstantQuotient(ValueError):
    """Raised when a gcd bound is requested for a constant unit quotient."""


class NotUnit(ValueError):
    """Raised when a term is not a unit for the given place set."""


class VanishingSubsum(ValueError):
    """Raised when a proper subsum of the terms vanishes."""

    def __init__(self, subset):
        super().__init__(f"vanishing subsum at indices {sorted(subset)}")
        self.subset = tuple(sorted(subset))


def strip_set_factors(num: Poly, S: PlaceSet) -> Poly:
    """Divide out every factor supported at a finite place of S."""
    return _divide_out(num, [p.poly for p in S.finite_places()])[0]


def _check_s_integer(f: RatFunc, S: PlaceSet) -> None:
    rest = strip_set_factors(f.den, S)
    if rest.degree > 0:
        bad, _ = factor_poly(rest)[0]
        raise NotSInteger(Place._trusted(bad))
    if not S.has_infinity and f.num.degree > f.den.degree:
        raise NotSInteger(Place.infinity())


def trunc_count(f: RatFunc, S: PlaceSet) -> int:
    """Sum over places outside S of max(0, ord - 1), geometrically weighted.

    Strips the S-supported part N of the numerator.  Over Q, gcd(N, N') is
    the product of q^(m - 1) over the irreducible factors q^m of N, so its
    degree is the count at the finite places, and nothing is factored; the
    order at infinity adds its share when infinity is not in S.
    """
    if f.is_zero:
        raise ZeroFunction("cannot count zeros of the zero function")
    stripped = strip_set_factors(f.num, S)
    total = poly_gcd(stripped, stripped.derivative()).degree
    if not S.has_infinity:
        total += max(0, f.den.degree - f.num.degree - 1)
    return total


def min_ord_sum(f: RatFunc, g: RatFunc, S: PlaceSet) -> int:
    """Sum over places outside S of min(ord f, ord g), for S-integers.

    Computed as the degree of the multiplicity-aware gcd of the numerators
    with their S-supported parts removed.
    """
    if f.is_zero or g.is_zero:
        raise ZeroFunction("min-order sum needs nonzero functions")
    _check_s_integer(f, S)
    _check_s_integer(g, S)
    nf = strip_set_factors(f.num, S)
    ng = strip_set_factors(g.num, S)
    total = poly_gcd(nf, ng).degree if nf.degree > 0 and ng.degree > 0 else 0
    if not S.has_infinity:
        total += min(f.den.degree - f.num.degree, g.den.degree - g.num.degree)
    return total


def gcd_units_sum(u: RatFunc, alpha: RatFunc, v: RatFunc, beta: RatFunc,
                  V: PlaceSet) -> int:
    """min_ord_sum of the differences u - alpha and v - beta outside V."""
    d1 = u - alpha
    d2 = v - beta
    if d1.is_zero or d2.is_zero:
        raise ZeroDifference("a unit equals the root it is compared against")
    return min_ord_sum(d1, d2, V)


class BoundCheck(_Record):
    """One evaluated inequality: exact sides and whether it held.

    When the right side involves a cube root, `rhs_cubed` carries the exact
    cube and the comparison was lhs^3 <= rhs_cubed; otherwise `rhs` is the
    exact right side.  `deficits`, when set, is the per-place table of a
    right side that is a sum over places.
    """

    __slots__ = ("lhs", "holds", "rhs", "rhs_cubed", "deficits")

    def __init__(self, lhs: int, holds: bool,
                 rhs: int | Fraction | None = None,
                 rhs_cubed: int | None = None,
                 deficits: tuple[tuple[Place, int], ...] | None = None):
        self.lhs = lhs
        self.holds = holds
        self.rhs = rhs
        self.rhs_cubed = rhs_cubed
        self.deficits = deficits

    def to_json(self) -> dict:
        """lhs, the right side (a Fraction as "p/q"), the deficits keyed
        by place when set, then holds."""
        out: dict = {"lhs": self.lhs}
        if self.rhs is not None:
            rhs = self.rhs
            out["rhs"] = str(rhs) if isinstance(rhs, Fraction) else rhs
        if self.rhs_cubed is not None:
            out["rhs_cubed"] = self.rhs_cubed
        if self.deficits is not None:
            out["deficits"] = {str(p): d for p, d in self.deficits}
        out["holds"] = self.holds
        return out


def _check_v_unit(f: RatFunc, V: PlaceSet) -> list[int]:
    """The orders of f at the finite places of V, in `V.finite_places()`
    order; raises NotUnit unless f is a unit at every place outside V."""
    if f.is_zero:
        raise NotUnit("zero is not a unit")
    qs = [p.poly for p in V.finite_places()]
    rest, zeros = _divide_out(f.num, qs)
    if rest.degree > 0:
        raise NotUnit(f"{f} has a zero outside the place set")
    rest, poles = _divide_out(f.den, qs)
    if rest.degree > 0:
        raise NotUnit(f"{f} has a pole outside the place set")
    if not V.has_infinity and f.num.degree != f.den.degree:
        raise NotUnit(f"{f} has a zero or pole at infinity")
    return [z - q for z, q in zip(zeros, poles)]


def check_cz_gcd_bound(u: RatFunc, alpha: RatFunc, v: RatFunc, beta: RatFunc,
                       V: PlaceSet, dependence: DependenceResult) -> BoundCheck:
    """gcd bound for unit translates: the common-zero count of u - alpha and
    v - beta outside V against the height bound of the quotients.

    Independent quotients use the 3 * cbrt(2) * H^(2/3) * chi^(1/3) bound,
    compared with both sides cubed; dependent quotients use H / max(|r|, |s|).
    """
    q1 = u / alpha
    q2 = v / beta
    if q1.is_constant or q2.is_constant:
        raise ConstantQuotient("both unit quotients must be nonconstant")
    _check_v_unit(q1, V)
    _check_v_unit(q2, V)
    lhs = gcd_units_sum(u, alpha, v, beta, V)
    max_h = max(height(q1), height(q2))
    if dependence.dependent:
        rhs = Fraction(max_h, max(abs(dependence.r), abs(dependence.s)))
        return BoundCheck(lhs, lhs <= rhs, rhs=rhs)
    rhs_cubed = 27 * 2 * max_h ** 2 * euler_char(V)
    return BoundCheck(lhs, lhs ** 3 <= rhs_cubed, rhs_cubed=rhs_cubed)


MAX_SUBSUM_TERMS = 20


def _zero_residue_masks(terms: list[RatFunc],
                        images: list[int] | None = None) -> list[int] | None:
    """Proper nonempty masks whose subsum has image 0 mod p, ascending.

    `images` are the terms' images mod p at one point where every term is
    regular, when the caller knows them; otherwise they are taken at the
    first point of `_CERT_POINTS` where every term has one.  The subsets
    are walked in Gray-code order (Knuth, TAOCP 7.2.1.1), one modular add
    or subtract per step.  None when no point is usable.
    """
    p = _CERT_PRIME
    if images is None:
        for tau in _CERT_POINTS:
            images = [_image(f, tau, p) for f in terms]
            if None not in images:
                break
        else:
            return None
    full = (1 << len(terms)) - 1
    masks = []
    acc = gray = 0
    for k in range(1, full + 1):
        i = (k & -k).bit_length() - 1
        gray ^= 1 << i
        if gray >> i & 1:
            acc = (acc + images[i]) % p
        else:
            acc = (acc - images[i]) % p
        if acc == 0 and gray != full:
            masks.append(gray)
    masks.sort()
    return masks


def find_vanishing_subsum(terms: list[RatFunc],
                          images: list[int] | None = None
                          ) -> tuple[int, ...] | None:
    """Indices of a vanishing proper nonempty subsum, or None.

    The answer is the subset of least mask (bit i for term i) whose exact
    sum is zero.  Only subsets whose image mod p vanishes are summed
    exactly: evaluating t at tau and reducing mod p is a ring homomorphism
    on the terms regular there, so a nonzero image proves a nonzero
    subsum.  A caller that built the terms may pass their `images` mod
    `_CERT_PRIME` at any one point where all are regular; the answer does
    not depend on the point.  When no point is usable, every subset is
    summed exactly.
    """
    n = len(terms)
    if n > MAX_SUBSUM_TERMS:
        raise ValueError(f"subsum enumeration is capped at {MAX_SUBSUM_TERMS}")
    masks = _zero_residue_masks(terms, images)
    if masks is None:
        masks = range(1, (1 << n) - 1)
    for mask in masks:
        subset = tuple(i for i in range(n) if mask >> i & 1)
        acc = RatFunc.zero()
        for i in subset:
            acc = acc + terms[i]
        if acc.is_zero:
            return subset
    return None


def check_zannier_bound(monomials: list[RatFunc], V: PlaceSet) -> BoundCheck:
    """Lower bound for the zeros of a unit sum outside V.

    Verifies that the count of zeros of the sum outside V is at least the
    projective height of the terms minus C(M, 2) times the Euler
    characteristic of the complement of V.
    """
    M = len(monomials)
    for f in monomials:
        _check_v_unit(f, V)
    bad = find_vanishing_subsum(monomials)
    if bad is not None:
        raise VanishingSubsum(bad)
    total = RatFunc.zero()
    for f in monomials:
        total = total + f
    if total.is_zero:
        raise VanishingSubsum(tuple(range(M)))
    lhs = strip_set_factors(total.num, V).degree
    if not V.has_infinity:
        lhs += max(0, total.den.degree - total.num.degree)
    rhs = proj_height(monomials) - comb(M, 2) * euler_char(V)
    return BoundCheck(lhs, lhs >= rhs, rhs=rhs)
