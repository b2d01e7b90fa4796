"""S-units over Q(t): representation, generation, and dependence tests.

An S-unit is stored multiplicatively as a constant times integer powers of
the finite places of S; the order at infinity is never stored, it is forced
by the degree-zero balance of a principal divisor.  Multiplicative
dependence modulo constants is exactly Z-linear dependence of the exponent
vectors, which keeps the test a two-row integer kernel computation.
"""

from __future__ import annotations

from _random import Random as _Twister
from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd as int_gcd
from operator import mul

# sha512 as random.py takes it, from CPython's lean built-in module
# (`_sha512`, `_sha2` from 3.12): importing hashlib costs milliseconds
try:
    from _sha512 import sha512 as _sha512
except ImportError:
    try:
        from _sha2 import sha512 as _sha512
    except ImportError:
        from hashlib import sha512 as _sha512

from .field_core import (
    Place,
    Poly,
    RatFunc,
    ZeroFunction,
    _Record,
    _T_NUMS,
    _horner,
    _kronecker_product,
    _join_terms,
    _scaled,
    _scaled_terms,
    divisor_of,
)


class InvalidSUnit(ValueError):
    """Raised when an S-unit's divisor is not supported in its place set."""


class PlaceSet(_Record):
    """A finite nonempty set of places, with its total geometric degree."""

    __slots__ = ("places", "__dict__")

    def __init__(self, places: frozenset[Place]):
        if not places:
            raise ValueError("a place set must be nonempty")
        self.places = places

    @staticmethod
    def of(*places) -> "PlaceSet":
        out = set()
        for p in places:
            if isinstance(p, Place):
                out.add(p)
            elif p == "inf":
                out.add(Place.infinity())
            elif isinstance(p, Poly):
                out.add(Place.finite(p))
            else:
                out.add(Place.rational(p))
        return PlaceSet(frozenset(out))

    # the set is immutable: its size, its infinity test and its orders
    # are found once

    @cached_property
    def geometric_size(self) -> int:
        return sum(p.geom_degree for p in self.places)

    @cached_property
    def has_infinity(self) -> bool:
        return Place.infinity() in self.places

    @cached_property
    def _finite(self) -> tuple[Place, ...]:
        return tuple(sorted((p for p in self.places if not p.is_infinity),
                            key=lambda p: p.sort_key()))

    @cached_property
    def _sorted(self) -> tuple[Place, ...]:
        # infinity sorts after every finite place
        return self._finite + tuple(p for p in self.places if p.is_infinity)

    def finite_places(self) -> tuple[Place, ...]:
        """The finite places in the canonical order, sorted once per set."""
        return self._finite

    def sorted_places(self) -> list[Place]:
        """Every place in the canonical order, as a fresh list."""
        return list(self._sorted)

    def __contains__(self, place: Place) -> bool:
        return place in self.places

    def union(self, other: "PlaceSet") -> "PlaceSet":
        return PlaceSet(self.places | other.places)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.sorted_places()) + "}"

    def __repr__(self) -> str:
        # the places in the canonical order: a frozenset prints in an order
        # that depends on its history and on the per-process hash of
        # infinity, so equal sets could print differently
        return ("PlaceSet(places=frozenset({"
                + ", ".join(repr(p) for p in self._sorted) + "}))")


def euler_char(S: PlaceSet) -> int:
    """Euler characteristic of the complement of S in the genus-zero curve."""
    return S.geometric_size - 2


class SUnit(_Record):
    """constant * prod place^exponent, with divisor supported in `places`.

    ``exponents`` holds (finite place, nonzero exponent) pairs sorted in the
    canonical place order; the order at infinity is derived.
    """

    __slots__ = ("constant", "exponents", "places")

    def __init__(self, constant: Fraction,
                 exponents: tuple[tuple[Place, int], ...], places: PlaceSet):
        self.constant = constant
        self.exponents = exponents
        self.places = places

    @staticmethod
    def make(constant, exponents: dict[Place, int], S: PlaceSet) -> "SUnit":
        c = Fraction(constant)
        if c == 0:
            raise InvalidSUnit("the constant of an S-unit must be nonzero")
        clean = []
        for p, e in exponents.items():
            if e == 0:
                continue
            if p.is_infinity:
                raise InvalidSUnit("the order at infinity is derived, not stored")
            if p not in S:
                raise InvalidSUnit(f"place {p} is not in S")
            clean.append((p, int(e)))
        clean.sort(key=lambda pe: pe[0].sort_key())
        u = SUnit(c, tuple(clean), S)
        if not S.has_infinity and u.inf_order != 0:
            raise InvalidSUnit(
                "infinity is not in S but the exponents do not balance")
        return u

    @property
    def inf_order(self) -> int:
        return -sum(e * p.geom_degree for p, e in self.exponents)

    @property
    def is_constant(self) -> bool:
        return not self.exponents

    @property
    def height(self) -> int:
        """`field_core.height(as_ratfunc(self))` from the exponents: the
        larger of the degrees of prod P^e over e > 0 and over e < 0.  The
        two products are the numerator and denominator as they stand,
        because distinct monic places are coprime."""
        up = down = 0
        for p, e in self.exponents:
            if e > 0:
                up += e * p.geom_degree
            else:
                down -= e * p.geom_degree
        return max(up, down)

    def exponent_map(self) -> dict[Place, int]:
        return dict(self.exponents)

    def __mul__(self, other: "SUnit") -> "SUnit":
        merged = self.exponent_map()
        for p, e in other.exponents:
            merged[p] = merged.get(p, 0) + e
        return SUnit.make(self.constant * other.constant, merged,
                          self.places.union(other.places))

    def __pow__(self, n: int) -> "SUnit":
        return SUnit.make(self.constant ** n,
                          {p: e * n for p, e in self.exponents}, self.places)

    def __str__(self) -> str:
        parts = [str(self.constant)]
        for p, e in self.exponents:
            parts.append(f"({p})^{e}")
        return " * ".join(parts)


def _sides(u: SUnit) -> tuple[tuple[list, int, int], ...]:
    """The two sides of u = c * prod P^e: for the places with e > 0 and
    then for those with e < 0, (factors, shift, lift) with prod P^|e| =
    t^shift * prod f^k / lift over the pairs (f, k) of factors.

    Every place polynomial is stored as P / L (its `nums` and `den`: L the
    least integer that clears it, so a monic P is primitive).  The place t
    is the shift; each other place is the pair (its nums, |e|), and lift is
    the product of the L^|e|.  A place set has few places and exponents,
    so its sides repeat across units.
    """
    ups, downs = [], []
    up_shift = down_shift = 0
    lift_up = lift_down = 1
    for p, e in u.exponents:
        ints, lift = p.poly.nums, p.poly.den
        if ints == _T_NUMS:
            if e > 0:
                up_shift = e
            else:
                down_shift = -e
        elif e > 0:
            ups.append((ints, e))
            lift_up *= lift ** e
        else:
            downs.append((ints, -e))
            lift_down *= lift ** -e
    return (ups, up_shift, lift_up), (downs, down_shift, lift_down)


def as_ratfunc(u: SUnit) -> RatFunc:
    """Exact expansion of an S-unit into a rational function.

    Each side of u (`_sides`) is one integer product
    (`field_core._kronecker_product`, whose cache serves the place powers),
    put over its denominator, from c and its lift, by one
    `field_core._scaled`."""
    (ups, up_shift, lift_up), (downs, down_shift, lift_down) = _sides(u)
    c = u.constant
    num = _scaled([0] * up_shift + _kronecker_product(ups), c.numerator,
                  c.denominator * lift_up)
    # the leading coefficient of prod P^-e is lift_down: den comes out monic
    den = _scaled([0] * down_shift + _kronecker_product(downs), 1, lift_down)
    # distinct monic places are coprime, so the pair is already normal
    return RatFunc._trusted(num, den)


def render_unit(u: SUnit) -> str:
    """`parser.render_ratfunc_expr(as_ratfunc(u))`, without the expansion:
    each side of u (`_sides`) is rendered over its integer scale, c / lift
    on top and 1 / lift below, by the two stages of `field_core.render_poly`:
    its terms (`_side_terms`) and then their labels (`_join_terms`), with
    the place t as the shift.  The denominator is 1 exactly when no
    exponent is negative."""
    (ups, up_shift, lift_up), (downs, down_shift, lift_down) = _sides(u)
    c = u.constant
    num = _join_terms(_side_terms(ups, c.numerator, c.denominator * lift_up),
                      up_shift)
    if not (downs or down_shift):
        return f"({num})"
    den = _join_terms(_side_terms(downs, 1, lift_down), down_shift)
    return f"({num})/({den})"


_TERMS_CACHE_BYTES = 7 << 10
_TERMS_CACHE_SIZE = 1024


class _PastTheCap(Exception):
    """Raised by `_cached_terms` with the terms of a side charged more than
    `_TERMS_CACHE_BYTES`: lru_cache stores no entry for a call that
    raises."""

    def __init__(self, terms: tuple):
        self.terms = terms


def _side_terms(factors: list, a: int, b: int):
    """`field_core._scaled_terms` of prod f^k * a / b over the pairs (f, k)
    of factors, read from `_cached_terms`, or made afresh for a side that
    the cache turns away."""
    try:
        return _cached_terms(tuple(factors), a, b)
    except _PastTheCap as past:
        return past.terms


@lru_cache(maxsize=_TERMS_CACHE_SIZE)
def _cached_terms(factors: tuple, a: int, b: int) -> tuple:
    """The terms of a side, for `_side_terms`.  The key holds no shift, so
    the units of one place set share their entries whatever their power of
    t.

    An entry is charged 512 bytes for its cache slot and the tuples of its
    key and terms; 104 bytes for each pair (f, k) of its key (the pair, its
    slot and the tuple f); 176 bytes for each term (its tuple and slot, its
    degree and the header of its head string) plus a byte a character of
    its head; and 40 bytes for each int of its key (the coefficients of
    each f, a and b) plus one for each 7 of its bits.  A side charged more
    than `_TERMS_CACHE_BYTES` raises `_PastTheCap` and is not kept, so the
    cache, at `_TERMS_CACHE_SIZE` entries, retains at most about 7.3 MB
    whatever the units; 1,024 entries just under the cap measured 2.8-5.2
    MB with tracemalloc.  (t - 1)^25 over a = b = 1 is charged 5,559 bytes
    and 2 * (t - 1)^2 1,313."""
    terms = tuple(_scaled_terms(_kronecker_product(factors), a, b))
    charge = 512 + 104 * len(factors)
    charge += sum([176 + len(head) for _, head, _ in terms])
    for x in (a, b, *(c for f, _ in factors for c in f)):
        charge += 40 + x.bit_length() // 7
    if charge > _TERMS_CACHE_BYTES:
        raise _PastTheCap(terms)
    return terms


def unit_image(u: SUnit, tau: int, p: int) -> int | None:
    """u(tau) mod p from its exponents, c * prod P(tau)^e, or None when a
    denominator vanishes there mod p.

    Evaluating t at tau and reducing mod p is a ring homomorphism on the
    functions regular there, so this is `field_core._image` of
    `as_ratfunc(u)` wherever both are defined, without the expansion: each
    place P = N / L (its `nums` and `den`) gives N(tau) / L."""
    c = u.constant
    num, den = c.numerator, c.denominator
    for place, e in u.exponents:
        q = place.poly
        x, lift = _horner(q.nums, tau, p), q.den
        if e < 0:
            x, lift, e = lift, x, -e
        # a place's lift is usually 1, whose power needs no pow
        if x != 1:
            num = num * pow(x, e, p) % p
        if lift != 1:
            den = den * pow(lift, e, p) % p
    if not den % p:
        return None
    return num * pow(den, -1, p) % p


def sunit_from_ratfunc(f: RatFunc, S: PlaceSet) -> SUnit:
    """Validate that f is an S-unit and recover its exponent form."""
    if f.is_zero:
        raise ZeroFunction("zero is not an S-unit")
    exps = divisor_of(f)
    exps.pop(Place.infinity(), None)
    for p in sorted(exps, key=Place.sort_key):
        if p not in S:
            raise InvalidSUnit(f"divisor of {f} meets {p}, outside S")
    if not S.has_infinity and f.den.degree != f.num.degree:
        raise InvalidSUnit("nonzero order at infinity but infinity not in S")
    lead = Fraction(f.num.lc, f.den.lc)
    return SUnit.make(lead, exps, S)


def _log_derivative_num(u: SUnit, q: Poly, places) -> Poly:
    """The N with d(u)/u = N / prod(places) against the form dt/q, for
    `places` distinct monic place polynomials that hold the support of u:
    N = q * sum e * P' * prod_{R != P} R over the (P, e) of u.

    Each term is one integer product (`field_core._kronecker_product`) of
    the polynomials' `nums`, and N is scaled back once: with R = R_i / L_R
    and q = q_i / L_q (their nums over their dens), every term carries the
    same 1 / (L_q * prod L_R).
    """
    exps = {p.poly: e for p, e in u.exponents}
    q_ints, lift = q.nums, q.den
    cleared = []
    for r in places:
        cleared.append(r.nums)
        lift *= r.den
    # every term has the degree deg q + deg D - 1
    total = [0] * (len(q_ints) - 1 + sum(len(c) - 1 for c in cleared))
    for k, r in enumerate(places):
        e = exps.get(r)
        if not e:
            continue
        ints = cleared[k]
        others = [(c, 1) for i, c in enumerate(cleared) if i != k]
        term = _kronecker_product(
            [(q_ints, 1), ([i * c for i, c in enumerate(ints)][1:], 1),
             *others])
        for i, c in enumerate(term):
            total[i] += e * c
    return _scaled(total, 1, lift)


class DependenceResult(_Record):
    """Outcome of the multiplicative dependence test for a unit pair."""

    __slots__ = ("dependent", "r", "s", "gamma")

    def __init__(self, dependent: bool, r: int = 0, s: int = 0,
                 gamma: RatFunc | None = None):
        self.dependent = dependent
        self.r = r
        self.s = s
        self.gamma = gamma

    @staticmethod
    def independent() -> "DependenceResult":
        return DependenceResult(False)

    @staticmethod
    def of(r: int, s: int, gamma: RatFunc) -> "DependenceResult":
        if (r, s) == (0, 0):
            raise ValueError("a dependence needs a nonzero exponent pair")
        if int_gcd(abs(r), abs(s)) != 1:
            raise ValueError("the exponent pair must be primitive")
        return DependenceResult(True, r, s, gamma)


def _normalize_pair(r: int, s: int) -> tuple[int, int]:
    g = int_gcd(abs(r), abs(s))
    r, s = r // g, s // g
    if r < 0 or (r == 0 and s < 0):
        r, s = -r, -s
    return r, s


def mult_dependence(u: SUnit, v: SUnit) -> DependenceResult:
    """Test Z-linear dependence of the exponent vectors of u and v.

    Returns the primitive kernel pair (r, s), normalized to r > 0 or
    (r = 0 and s > 0), together with the exact constant gamma = u^r v^s.
    """
    places = sorted({p for p, _ in u.exponents} | {p for p, _ in v.exponents},
                    key=lambda p: p.sort_key())
    eu = u.exponent_map()
    ev = v.exponent_map()
    a = [eu.get(p, 0) for p in places]
    b = [ev.get(p, 0) for p in places]

    def gamma_for(r: int, s: int) -> RatFunc:
        # r * a + s * b = 0, so u^r v^s is the constant part alone
        return RatFunc.const(Fraction(u.constant) ** r
                             * Fraction(v.constant) ** s)

    if not any(a) and not any(b):
        r, s = 1, -1
        return DependenceResult.of(r, s, gamma_for(r, s))
    if not any(a):
        return DependenceResult.of(1, 0, gamma_for(1, 0))
    if not any(b):
        return DependenceResult.of(0, 1, gamma_for(0, 1))
    # the only primitive pair, up to sign, with r * a_k + s * b_k = 0
    k = next(i for i, x in enumerate(a) if x)
    r, s = _normalize_pair(b[k], -a[k])
    if any(r * x + s * y for x, y in zip(a, b)):
        return DependenceResult.independent()
    return DependenceResult.of(r, s, gamma_for(r, s))


CONSTANT_POOL = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3),
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(5), Fraction(-3),
)


_POOL_BITS = len(CONSTANT_POOL).bit_length()


def _seeded_bits(key: str):
    """`getrandbits` of a Mersenne Twister seeded from `key` as random.py's
    `Random(key)` seeds one: CPython's C generator (the `Random` of its
    `_random` module, which random.py's subclasses) seeded with the integer
    whose big-endian bytes are the key's UTF-8 bytes and then their sha512
    digest."""
    raw = key.encode()
    return _Twister(int.from_bytes(raw + _sha512(raw).digest(),
                                   "big")).getrandbits


def _below(bits, n: int, k: int) -> int:
    """A draw in [0, n) from `bits` by the rule of random.py's
    `_randbelow`: with k = n.bit_length(), bits(k) until it falls below n."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _unit_at_index(S: PlaceSet, max_exponent: int, seed: int, index: int) -> SUnit:
    """Unit `index` of the seeded stream of `generate`.

    This contract fixes the stream, and every unit, report and digest with
    it.  The draws read `_seeded_bits(f"sunit:{seed}:{index}")`.  Each
    finite place of S, in canonical order, gets the exponent -max_exponent
    + `_below`(2 * max_exponent + 1); when infinity is not in S, all the
    exponents are drawn again until sum e * deg P = 0.  Then the constant
    is CONSTANT_POOL[`_below`(len(CONSTANT_POOL))].  These are the words,
    in the same order, that `randint(-max_exponent, max_exponent)` and then
    `choice(CONSTANT_POOL)` of random.py's `Random` read from that key, but
    the stream no longer goes through them: CPython promises to keep the
    seeding and `getrandbits` of that generator, not the algorithms of its
    `randint` and `choice`."""
    bits = _seeded_bits(f"sunit:{seed}:{index}")
    finite = S.finite_places()
    width = 2 * max_exponent + 1
    k = width.bit_length()
    # the weights of the balance test; none when infinity is in S
    degrees = None if S.has_infinity else [p.geom_degree for p in finite]
    while True:
        exps = [_below(bits, width, k) - max_exponent for _ in finite]
        if degrees is None or sum(map(mul, exps, degrees)) == 0:
            break
    constant = CONSTANT_POOL[_below(bits, len(CONSTANT_POOL), _POOL_BITS)]
    # the places of S in canonical order, the constant from the pool and a
    # balanced divisor when infinity is not in S: the unit is valid as built
    return SUnit(constant, tuple([(p, e) for p, e in zip(finite, exps) if e]),
                 S)


def generate(S: PlaceSet, max_exponent: int, count: int, seed: int) -> list[SUnit]:
    """Seeded batch of S-units; unit i depends only on (seed, i).

    The per-index seeding makes any partition of the batch across workers
    reproduce the same units; `_unit_at_index` states the stream.  Over a
    place set without infinity the exponents are redrawn until they
    balance, which takes about 2 * max_exponent + 1 tries, so there a unit
    costs time linear in max_exponent: on a 2-vCPU VM with CPython 3.11, 51
    us a unit over {0, 1} at max_exponent 25, against 14 us over {0, 1,
    inf}, and 24 ms a unit over {0, 1} at max_exponent 20,000.
    """
    if max_exponent < 1:
        raise ValueError("max_exponent must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [_unit_at_index(S, max_exponent, seed, i) for i in range(count)]


def enlarge_for_coefficients(S: PlaceSet, fs) -> PlaceSet:
    """S together with the zeros and poles of every given function."""
    places = set(S.places)
    for f in fs:
        if f.is_zero:
            raise ZeroFunction("cannot enlarge by the zero function")
        if f.is_constant:
            continue
        places.update(divisor_of(f))
    return PlaceSet(frozenset(places))
