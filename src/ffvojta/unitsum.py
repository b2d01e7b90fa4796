"""Vanishing sums of S-units and the Brownawell-Masser height bound.

A vanishing sum is a tuple of S-units adding to zero exactly, with no
vanishing proper subsum.  The checker evaluates the projective-height
bound with the weights gamma_l = (l-1)(l-2)/2, tabulating the per-place
deficits; since every term is an S-unit the deficit table is supported
in S.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field_core import Place, RatFunc, ZeroFunction, divisor_of, ord_at
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


def m_at(ws: list[RatFunc], p: Place) -> int:
    """Number of the given functions that are units at the place p."""
    for w in ws:
        if w.is_zero:
            raise ZeroFunction("unit counts need nonzero functions")
    return sum(1 for w in ws if ord_at(w, p) == 0)


@dataclass(frozen=True)
class VanishingSum:
    """Validated zero-sum of S-units with no vanishing proper subsum.

    ``orders`` is the table of orders of the terms at the places of S: one
    row per place in `PlaceSet.sorted_places` order, one column per term.
    Validation reads the finite rows off the division that proves each term
    a unit outside S; the row at infinity is deg den - deg num.
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
    def _validated(terms: tuple, S: PlaceSet) -> "VanishingSum":
        # Every check but the zero sum, which the caller has made.
        if len(terms) < 3:
            raise ValueError("a vanishing sum needs at least three terms")
        if len(terms) > MAX_SUBSUM_TERMS:
            raise ValueError(
                f"subsum enumeration is capped at {MAX_SUBSUM_TERMS} terms")
        columns = [_check_v_unit(w, S) for w in terms]
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


def random_vanishing_sum(S: PlaceSet, n: int, max_exponent: int,
                         seed: int) -> VanishingSum:
    """Build a vanishing sum: n - 1 seeded S-units plus the balancing term,
    over S enlarged by the support of that term.  Draws are retried until
    no proper subsum vanishes and every support place is representable."""
    attempt = 0
    while True:
        units = generate(S, max_exponent, n - 1, seed * 100003 + attempt)
        ws = [as_ratfunc(u) for u in units]
        total = RatFunc.zero()
        for w in ws:
            total = total + w
        attempt += 1
        if total.is_zero:
            continue
        last = -total
        support = divisor_of(last).support()
        enlarged = PlaceSet(frozenset(S.places | support))
        try:
            # the terms sum to zero by the choice of last
            return VanishingSum._validated((*ws, last), enlarged)
        except VanishingSubsum:
            continue
