"""Vanishing sums of S-units and the Brownawell-Masser height bound.

A vanishing sum is a tuple of S-units adding to zero exactly, with no
vanishing proper subsum.  The checker evaluates the projective-height
bound with the weights gamma_l = (l-1)(l-2)/2, tabulating the per-place
deficits; since every term is an S-unit the deficit table is supported
in S.
"""

from __future__ import annotations

from math import lcm

from .field_core import (
    _CERT_POINTS,
    _CERT_PRIME,
    Place,
    RatFunc,
    _Record,
    _divide_out,
    _known_quotient,
    _kronecker_product,
    _scaled,
    factor_poly,
)
from .counting import (
    MAX_SUBSUM_TERMS,
    BoundCheck,
    VanishingSubsum,
    _check_v_unit,
    find_vanishing_subsum,
)
from .sunits import PlaceSet, as_ratfunc, generate, unit_image


class SumNonzero(ValueError):
    """Raised when the terms of a claimed vanishing sum do not add to zero."""


class DrawsExhausted(ValueError):
    """Raised when `random_vanishing_sum` runs out of draws."""


# A seeded draw over {0, 1, inf} almost always gives a vanishing sum at
# once, but over a set whose units are all constants (S = {inf}) most
# draws of ten or more terms have a vanishing subsum, and each draw costs
# a walk over 2^n subsets: the draws are capped.
MAX_DRAWS = 64


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


class VanishingSum(_Record):
    """Validated zero-sum of S-units with no vanishing proper subsum.

    ``orders`` is the table of orders of the terms at the places of S: one
    row per place in `PlaceSet.sorted_places` order, one column per term.
    Validation reads the finite rows off the division that proves each term
    a unit outside S, or, for the terms that `random_vanishing_sum` builds,
    off how they were built; the row at infinity is deg den - deg num.
    """

    __slots__ = ("terms", "place_set", "orders")

    def __init__(self, terms: tuple[RatFunc, ...], place_set: PlaceSet,
                 orders: tuple[tuple[int, ...], ...]):
        self.terms = terms
        self.place_set = place_set
        self.orders = orders

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
    def _validated(terms: tuple, S: PlaceSet, columns=None,
                   images=None) -> "VanishingSum":
        """Every check but the zero sum, which the caller has made.

        `columns` holds, per term, its orders at the finite places of S in
        `S.finite_places()` order, from a caller that has proven every term
        a unit outside S; without them each term is proven one by
        `_check_v_unit`, which gives its column.  `images`, when known, are
        the terms' images for `find_vanishing_subsum`."""
        _check_term_count(len(terms))
        if columns is None:
            columns = [_check_v_unit(w, S) for w in terms]
        bad = find_vanishing_subsum(list(terms), images)
        if bad is not None:
            raise VanishingSubsum(bad)
        orders = list(zip(*columns))
        if S.has_infinity:
            orders.append(tuple(w.den.degree - w.num.degree for w in terms))
        return VanishingSum(terms, S, tuple(orders))


def check_bm(vs: VanishingSum) -> BoundCheck:
    """Evaluate the height bound for a validated vanishing sum.

    The left side is the projective height of the terms; the right side is
    sum of deg P * (gamma_n - gamma_{m_P}) over the places P of S, and
    nothing else.  No genus term is added: on the projective line 2g - 2 =
    -2, so a term gamma_n * (2g - 2) would be negative, not zero, and
    leaving it out can only make the right side larger.  Every term is a
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
    return BoundCheck(lhs, lhs <= rhs, rhs=rhs, deficits=tuple(deficits))


def _known_den_sum(units, exps, S: PlaceSet) -> tuple[RatFunc, list[int]]:
    """The sum of the S-units `units`, with their exponent maps `exps`,
    over its known denominator, and the order of its pole at each finite
    place of S, in `S.finite_places()` order.

    With e_kP the exponent of unit k at the finite place P of S, the sum
    has the denominator prod P^m_P, m_P = max(0, -min_k e_kP).  Each place
    is stored as integers N_P over L_P (its `nums` and `den`), so over that
    denominator term k is c_k prod N_P^(e_kP + m_P) / L_P^(e_kP + m_P): one
    `_kronecker_product` each, whose cache of place powers serves a term
    with one place other than t.  The numerators add over one common integer
    denominator, and `_known_quotient` divides out whatever cancels, k_P
    times, so no gcd runs and the pole at P has order m_P - k_P.
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
    num = _scaled(acc, 1, den)
    if num.is_zero:
        return RatFunc.zero(), [0] * len(finite)
    total, _, counts = _known_quotient(
        num.nums, num.den, [(p.poly, mp) for p, mp in zip(finite, m) if mp])
    gone = iter(counts)
    return total, [mp - next(gone) if mp else 0 for mp in m]


def _sum_images(units) -> list[int] | None:
    """The images mod `_CERT_PRIME` of the units and of minus their sum,
    at the first point of `_CERT_POINTS` where every unit has one, or None.

    Evaluation mod p is a ring homomorphism, so the image of minus the sum
    is minus the sum of the images."""
    p = _CERT_PRIME
    for tau in _CERT_POINTS:
        images = [unit_image(u, tau, p) for u in units]
        if None not in images:
            return images + [-sum(images) % p]
    return None


def random_vanishing_sum(S: PlaceSet, n: int, max_exponent: int,
                         seed: int) -> VanishingSum:
    """Build a vanishing sum: n - 1 seeded S-units plus the balancing term,
    over S enlarged by the support of that term.  A draw is retried when
    its units sum to zero or a proper subsum vanishes, at most `MAX_DRAWS`
    times; then `DrawsExhausted` is raised.

    The units are summed over their known denominator (`_known_den_sum`),
    so the balancing term, minus that sum, has its poles in S, of the
    orders that sum returns.  Its numerator is divided by the finite places
    of S once, which gives its zeros there; the new places are the
    irreducible factors of what is left, each a zero of its multiplicity,
    and infinity when it is not in S and the term has an order there.  So
    the balancing term is proven a unit outside the enlarged set, with its
    column of orders, as `_check_v_unit` would prove it.  The units'
    columns are their exponents, and the subsum search takes every term's
    image from the exponents (`_sum_images`).
    """
    _check_term_count(n)
    finite = S.finite_places()
    qs = [p.poly for p in finite]
    for attempt in range(MAX_DRAWS):
        units = generate(S, max_exponent, n - 1, seed * 100003 + attempt)
        exps = [u.exponent_map() for u in units]
        total, poles = _known_den_sum(units, exps, S)
        if total.is_zero:
            continue
        last = -total
        rest, zeros = _divide_out(last.num, qs)
        orders = {p: z - k for p, z, k in zip(finite, zeros, poles)}
        for q, mult in factor_poly(rest):
            orders[Place._trusted(q)] = mult
        support = set(orders)
        if not S.has_infinity and last.num.degree != last.den.degree:
            support.add(Place.infinity())
        enlarged = PlaceSet(frozenset(S.places | support))
        columns = [[e.get(p, 0) for p in enlarged.finite_places()]
                   for e in (*exps, orders)]
        try:
            # the terms sum to zero by the choice of last
            return VanishingSum._validated(
                (*(as_ratfunc(u) for u in units), last), enlarged, columns,
                _sum_images(units))
        except VanishingSubsum:
            continue
    raise DrawsExhausted(
        f"no vanishing sum of {n} terms in {MAX_DRAWS} draws")
