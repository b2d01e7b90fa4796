"""Vanishing sums of S-units and the Brownawell-Masser height bound.

A vanishing sum is a tuple of S-units adding to zero exactly, with no
vanishing proper subsum.  The checker evaluates the projective-height
bound with the weights gamma_l = (l-1)(l-2)/2, tabulating the per-place
deficits; since every term is an S-unit the deficit table is supported
in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import field_core
from .field_core import (
    Place,
    RatFunc,
    _divide_out,
    _kronecker_product,
    _over_known_den,
    _scaled,
)
from .counting import (
    MAX_SUBSUM_TERMS,
    VanishingSubsum,
    _check_v_unit,
    find_vanishing_subsum,
)
from .sunits import PlaceSet, as_ratfunc, generate


class SumNonzero(ValueError):
    """Raised when the terms of a claimed vanishing sum do not add to zero."""


def bm_weight(l: int) -> int:
    """The weight gamma_l: 0 for l = 0, else (l-1)(l-2)/2."""
    if l < 0:
        raise ValueError("the weight index must be nonnegative")
    if l == 0:
        return 0
    return (l - 1) * (l - 2) // 2


def _check_term_count(n: int) -> None:
    if n < 3:
        raise ValueError("a vanishing sum needs at least three terms")
    if n > MAX_SUBSUM_TERMS:
        raise ValueError(
            f"subsum enumeration is capped at {MAX_SUBSUM_TERMS} terms")


@dataclass(frozen=True)
class VanishingSum:
    """Validated zero-sum of S-units with no vanishing proper subsum.

    ``orders`` is the table of orders of the terms at the places of S: one
    row per place in `PlaceSet.sorted_places` order, one column per term.
    Validation reads the finite rows off the division that proves each term
    a unit outside S, or, for the S-units that `random_vanishing_sum` draws,
    off their exponents; the row at infinity is deg den - deg num.
    """

    terms: tuple[RatFunc, ...]
    place_set: PlaceSet
    orders: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(terms, S: PlaceSet) -> "VanishingSum":
        terms = tuple(terms)
        total = RatFunc.zero()
        for w in terms:
            total = total + w
        if not total.is_zero:
            raise SumNonzero("the terms do not sum to zero")
        return VanishingSum._validated(terms, S)

    @staticmethod
    def _validated(terms: tuple, S: PlaceSet,
                   columns=None) -> "VanishingSum":
        """Every check but the zero sum, which the caller has made.

        `columns` holds, per term, its orders at the finite places of S in
        `S.finite_places()` order where they are known, else None; a term
        without a column is proven a unit outside S by `_check_v_unit`,
        which gives its column."""
        _check_term_count(len(terms))
        if columns is None:
            columns = [None] * len(terms)
        columns = [_check_v_unit(w, S) if c is None else c
                   for w, c in zip(terms, columns)]
        bad = find_vanishing_subsum(list(terms))
        if bad is not None:
            raise VanishingSubsum(bad)
        orders = list(zip(*columns))
        if S.has_infinity:
            orders.append(tuple(w.den.degree - w.num.degree for w in terms))
        return VanishingSum(terms, S, tuple(orders))


@dataclass(frozen=True)
class BMCheck:
    """Both sides of the unit-sum height bound, with the deficit table."""

    lhs: int
    rhs: int
    deficits: tuple[tuple[Place, int], ...]
    holds: bool

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficits": {str(p): d for p, d in self.deficits},
            "holds": self.holds,
        }


def check_bm(vs: VanishingSum) -> BMCheck:
    """Evaluate the height bound for a validated vanishing sum.

    The left side is the projective height of the terms; the right side is
    the geometrically weighted sum of gamma_n - gamma_{m_P} over the places
    of S (the genus term vanishes on the projective line).  Every term is a
    unit outside S, so both sides read the table of orders at the places
    of S that validation built (`VanishingSum.orders`): the height is
    -sum of deg P * min_i ord_P(w_i) there, and m_P counts the zero orders
    at P.
    """
    gn = bm_weight(len(vs.terms))
    places = vs.place_set.sorted_places()
    lhs = -sum(p.geom_degree * min(row) for p, row in zip(places, vs.orders))
    deficits = []
    rhs = 0
    for p, row in zip(places, vs.orders):
        d = gn - bm_weight(row.count(0))
        if d:
            deficits.append((p, d))
        rhs += p.geom_degree * d
    return BMCheck(lhs, rhs, tuple(deficits), lhs <= rhs)


def _known_den_sum(units, exps, S: PlaceSet) -> RatFunc:
    """The sum of the S-units `units`, with their exponent maps `exps`,
    over its known denominator.

    With e_kP the exponent of unit k at the finite place P of S, the sum
    has the denominator prod P^m_P, m_P = max(0, -min_k e_kP).  Each place
    is stored as integers N_P over L_P (its `nums` and `den`), so over that
    denominator term k is c_k prod N_P^(e_kP + m_P) / L_P^(e_kP + m_P): one
    `_kronecker_product` each.  The numerators add over one common integer
    denominator, and `_over_known_den` divides out whatever cancels, so no
    gcd runs.
    """
    finite = S.finite_places()
    m = [max(0, -min(e.get(p, 0) for e in exps)) for p in finite]
    terms = []
    for u, e in zip(units, exps):
        ups, lift = [], u.constant.denominator
        for p, mp in zip(finite, m):
            k = e.get(p, 0) + mp
            if k:
                ups.append((p.poly.nums, k))
                lift *= p.poly.den ** k
        terms.append((_kronecker_product(ups), u.constant.numerator, lift))
    den = lcm(*(lift for _, _, lift in terms))
    acc = [0] * max(len(ints) for ints, _, _ in terms)
    for ints, c, lift in terms:
        c *= den // lift
        for i, x in enumerate(ints):
            acc[i] += c * x
    return _over_known_den(_scaled(acc, 1, den),
                           [(p.poly, mp) for p, mp in zip(finite, m) if mp])


def random_vanishing_sum(S: PlaceSet, n: int, max_exponent: int,
                         seed: int) -> VanishingSum:
    """Build a vanishing sum: n - 1 seeded S-units plus the balancing term,
    over S enlarged by the support of that term.  A draw is retried when
    its units sum to zero or a proper subsum vanishes.

    The units are summed over their known denominator (`_known_den_sum`),
    so the balancing term, minus that sum, has its poles in S.  Its
    numerator is divided by the finite places of S once; the new places
    are the irreducible factors of what is left, and infinity when it is
    not in S and the term has an order there.  The units' columns of
    orders are their exponents, and the balancing term is validated as a
    term of `VanishingSum.build` is.
    """
    _check_term_count(n)
    finite = [p.poly for p in S.finite_places()]
    attempt = 0
    while True:
        units = generate(S, max_exponent, n - 1, seed * 100003 + attempt)
        attempt += 1
        exps = [u.exponent_map() for u in units]
        total = _known_den_sum(units, exps, S)
        if total.is_zero:
            continue
        last = -total
        rest = _divide_out(last.num, finite)[0]
        # through the module, so that a wrapper put on factor_poly sees it
        support = {Place._trusted(q) for q, _ in field_core.factor_poly(rest)}
        if not S.has_infinity and last.num.degree != last.den.degree:
            support.add(Place.infinity())
        enlarged = PlaceSet(frozenset(S.places | support))
        columns = [[e.get(p, 0) for p in enlarged.finite_places()]
                   for e in exps]
        try:
            # the terms sum to zero by the choice of last
            return VanishingSum._validated(
                (*(as_ratfunc(u) for u in units), last), enlarged,
                columns + [None])
        except VanishingSubsum:
            continue
