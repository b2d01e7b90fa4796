"""Sparse polynomials, bivariate polynomials over Q(t) and the machinery
built on them.

SparsePoly is the one sparse arithmetic: a map from exponent tuples to
nonzero coefficients, with its algebra written once.  A BiPoly is such a
map (i, j) -> RatFunc coefficient of X^i Y^j, and `p2family.BiForm` is
one over Q in five variables.  A BiPoly's total degree is deg_X + deg_Y.
A resultant eliminates one variable, so it is a BiPoly free of the other:
Res_Y is keyed (i, 0), a polynomial in X, and Res_X is keyed (0, j), a
polynomial in Y.  Root extraction takes such a polynomial in one variable.

Resultants and rational roots run on integers.  A BiPoly is cleared of
denominators (`field_core.clear_denominators`) at most once and keeps that
form (`BiPoly.cleared`).  A resultant packs each Sylvester entry of its
cleared inputs into one integer by Kronecker substitution and takes one
fraction-free Bareiss determinant, whose signed digits are the
coefficients; it fills in its own cleared form from them, and the
companion `b_polynomial` fills in its own from its known denominators.
Rational roots specialise the cleared polynomial at a
small t = tau, find the rational roots of that image p-adically (the roots
mod the first small prime where they are all simple, Hensel-lifted and
read through the leading coefficient; an image with a repeated root is
decided on its squarefree part) and lift each one t-adically, modulo a
Mersenne prime above Mignotte's factor bound, to a root rebuilt by Pade
reconstruction; exact division in Z[t][Z] keeps it, and an image with no
rational root proves there is none.  The points tau
tried are bounded by the degrees, so that some point keeps the roots
apart.  Coprimality over Q(t) is read off the two resultants, and the
specialisation audit certifies A(tau) irreducible over Q by Kronecker's
substitution Y -> X^N + c and the univariate factoriser, a point where
that declines counting as one that split.  Gcds, root finding and
resultants first check a size cap, and every bound raises InputTooLarge
past it.  `bipoly_gcd`, which no library code calls, is the one function
that imports sympy.

The zero test `vanishes_at` takes u and v each as an S-unit or a rational
function.  For two S-units it first certifies A(u, v) != 0 by orders: at
a place of their exponents or at infinity, a term c_ij u^i v^j whose order
ord(c_ij) + i ord(u) + j ord(v) is alone the least makes the sum nonzero
(the strict triangle inequality), with A's coefficients' orders found once
per instance and place (`BiPoly.coeff_orders`).  Otherwise one image mod p
certifies it: an S-unit's image comes from its exponents
(`sunits.unit_image`), a rational function's from `field_core._image`, and
A's coefficients' images at the certificate points are found once per
instance (`BiPoly.cert_images`).  Only when neither certifies are the
units expanded and A(u, v) evaluated exactly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm as int_lcm, perm
from operator import add

from .field_core import (
    _CERT_POINTS,
    _CERT_PRIME,
    _LARGEST_LIFT_PRIME,
    _SMALL_PRIMES,
    InputTooLarge,
    OmegaForm,
    Place,
    Poly,
    RatFunc,
    ZeroPolynomial,
    _exact_quotient,
    _horner,
    _image,
    _den_product,
    _divided,
    _euclid_below,
    _factor_squarefree,
    _homogeneous_value,
    _lift_modulus,
    _known_quotient,
    _kronecker_product,
    _minus,
    _pack,
    _plus,
    _primitive,
    _signed_digits,
    _squarefree_split,
    _symmetric,
    _trim,
    clear_denominators,
    factor_poly,
    height,
    ord_at,
    power,
)
from .sunits import (
    SUnit,
    _below,
    _log_derivative_num,
    _seeded_bits,
    as_ratfunc,
    unit_image,
)


class ConstantPolynomial(ValueError):
    """Raised when an operation needs a nonconstant polynomial."""


class BothZero(ValueError):
    """Raised when a twist direction (r, s) = (0, 0) is supplied."""


class DegenerateDegree(ValueError):
    """Raised when a resultant is requested in a variable that the first
    polynomial does not involve but the second does."""


class PreconditionViolated(ValueError):
    """Raised when a caller-asserted identity fails; carries its name."""

    def __init__(self, identity: str):
        super().__init__(f"precondition failed: {identity}")
        self.identity = identity


# ---------------------------------------------------------------------------
# Sparse polynomials: the shared map algebra and BiPoly
# ---------------------------------------------------------------------------

class SparsePoly:
    """A sparse polynomial: a map from exponent tuples, all of length
    `_arity`, to nonzero coefficients.

    The map algebra lives here once: the constructor merges duplicate keys
    and drops zeros, and `==`, `hash`, `-`, `+`, `*`, `**` and the partial
    derivative work on the map.  A subclass supplies `_arity` and
    `_coerce`, which turns an input coefficient into its field's type, and
    extends `__init__` with its degree bookkeeping.  Results are built
    with the subclass's own constructor, so they pass through it too.
    """

    __slots__ = ("coeffs",)

    _arity: int

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for key, c in items:
                c = self._coerce(c)
                if not c:
                    continue
                if key in clean:
                    c = clean[key] + c
                    if not c:
                        del clean[key]
                        continue
                clean[key] = c
        self.coeffs = clean

    def __reduce__(self):
        return (type(self), (tuple(self.coeffs.items()),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.items_sorted()))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                del out[k]
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = tuple(map(add, k1, k2))
                v = out.get(key)
                prod = c1 * c2
                out[key] = prod if v is None else v + prod
        return type(self)(out)

    def __pow__(self, n: int):
        return power(self, n, type(self)({(0,) * self._arity: 1}))

    def _partial(self, k: int):
        """Partial derivative in the variable of key position k."""
        out = {}
        for key, c in self.coeffs.items():
            e = key[k]
            if e:
                out[key[:k] + (e - 1,) + key[k + 1:]] = c * e
        return type(self)(out)


class BiPoly(SparsePoly):
    """Sparse bivariate polynomial over Q(t); no zero coefficients stored.

    `cleared` keeps the cleared form of the coefficients once it is found,
    `cert_images` their images at the certificate points and
    `coeff_orders` their orders at each place asked for and
    `companion_terms` the terms of `b_polynomial` that depend on A alone,
    per instance; none of them takes part in `==`, `hash` or pickling.
    """

    __slots__ = ("deg_x", "deg_y", "_cleared_form", "_cert_images",
                 "_orders", "_companion")

    _arity = 2

    @staticmethod
    def _coerce(c) -> RatFunc:
        return c if isinstance(c, RatFunc) else RatFunc.const(c)

    def __init__(self, coeffs=None):
        super().__init__(coeffs)
        self.deg_x = max((i for i, _ in self.coeffs), default=0)
        self.deg_y = max((j for _, j in self.coeffs), default=0)
        self._cleared_form = None
        self._cert_images = None
        self._orders = None
        self._companion = None

    def cleared(self) -> tuple[dict, Poly]:
        """`field_core.clear_denominators(self.coeffs)`: the coefficients
        times one d, as {(i, j): list of ints in t}, with d.  Found on the
        first call and kept; a resultant arrives with it filled in.  The
        lists are shared, so a caller reads them and never changes them."""
        if self._cleared_form is None:
            self._cleared_form = clear_denominators(self.coeffs)
        return self._cleared_form

    def cert_images(self) -> tuple[list[tuple[int, int, int]] | None, ...]:
        """For each point tau of `_CERT_POINTS`, the coefficients' images
        mod `_CERT_PRIME` there as (i, j, image) triples, or None when one
        of them has a pole there mod p.  Found on the first call and
        kept."""
        if self._cert_images is None:
            p = _CERT_PRIME
            out = []
            for tau in _CERT_POINTS:
                images = [(i, j, _image(c, tau, p))
                          for (i, j), c in self.coeffs.items()]
                out.append(None if any(c is None for _, _, c in images)
                           else images)
            self._cert_images = tuple(out)
        return self._cert_images

    def coeff_orders(self, place: Place) -> tuple[tuple[int, int, int], ...]:
        """The coefficients' orders at `place` as (i, j, ord) triples.
        Found on the first call for each place and kept."""
        orders = self._orders
        if orders is None:
            orders = self._orders = {}
        out = orders.get(place)
        if out is None:
            out = orders[place] = tuple((i, j, ord_at(c, place))
                                        for (i, j), c in self.coeffs.items())
        return out

    def companion_terms(self) -> tuple:
        """For each coefficient lam = a/b, as ((i, j), a b, a'b - ab',
        the (factor, 2 * multiplicity) pairs of b^2): the terms of
        `b_polynomial` that do not depend on the pair or the form.  Found
        on the first call and kept."""
        if self._companion is None:
            out = []
            for key, lam in self.coeffs.items():
                a, b = lam.num, lam.den
                out.append((key, a * b,
                            a.derivative() * b - a * b.derivative(),
                            tuple((f, 2 * m) for f, m in factor_poly(b))))
            self._companion = tuple(out)
        return self._companion

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly({(0, 1): 1})

    @staticmethod
    def monomial(i: int, j: int, c) -> "BiPoly":
        return BiPoly({(i, j): c})

    @property
    def is_constant(self) -> bool:
        return all(ij == (0, 0) for ij in self.coeffs)

    def coeff(self, i: int, j: int) -> RatFunc:
        return self.coeffs.get((i, j), RatFunc.zero())

    def scale(self, c: RatFunc) -> "BiPoly":
        if not isinstance(c, RatFunc):
            c = RatFunc.const(c)
        return BiPoly({ij: v * c for ij, v in self.coeffs.items()})

    def partial_x(self) -> "BiPoly":
        return self._partial(0)

    def partial_y(self) -> "BiPoly":
        return self._partial(1)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for (i, j), c in self.items_sorted():
            mono = "".join(
                [f"X^{i}" if i > 1 else ("X" if i == 1 else ""),
                 "*" if i > 0 and j > 0 else "",
                 f"Y^{j}" if j > 1 else ("Y" if j == 1 else "")])
            if mono:
                parts.append(f"({c})*{mono}")
            else:
                parts.append(f"({c})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({str(self)})"


def evaluate(A: BiPoly, u: RatFunc, v: RatFunc) -> RatFunc:
    """Exact value A(u, v)."""
    u_pows = [RatFunc.one()]
    v_pows = [RatFunc.one()]
    for _ in range(A.deg_x):
        u_pows.append(u_pows[-1] * u)
    for _ in range(A.deg_y):
        v_pows.append(v_pows[-1] * v)
    acc = RatFunc.zero()
    for (i, j), c in A.items_sorted():
        acc = acc + c * u_pows[i] * v_pows[j]
    return acc


def vanishes_at(A: BiPoly, u: SUnit | RatFunc, v: SUnit | RatFunc) -> bool:
    """True iff A(u, v) = 0, exactly, for u and v each an S-unit or a
    rational function.

    For two S-units the orders decide first (`_orders_certify`): a term of
    A(u, v) that alone has the least order at some place makes the sum
    nonzero there.  Then evaluating t at tau and reducing mod p, a ring
    homomorphism on the elements of Q(t) whose denominators stay nonzero
    there: a nonzero image of A(u, v) at one point certifies
    A(u, v) != 0.  An S-unit's image comes from its exponents
    (`sunits.unit_image`) and A's coefficients' from `BiPoly.cert_images`.
    When neither certifies, the exact value decides, on the units
    expanded.
    """
    if (isinstance(u, SUnit) and isinstance(v, SUnit)
            and _orders_certify(A, u, v)):
        return False
    p = _CERT_PRIME
    for tau, coeffs in zip(_CERT_POINTS, A.cert_images()):
        if coeffs is None:
            continue
        ut = _value_image(u, tau, p)
        if ut is None:
            continue
        vt = _value_image(v, tau, p)
        if vt is None:
            continue
        acc = 0
        for i, j, c in coeffs:
            acc += c * pow(ut, i, p) * pow(vt, j, p)
        if acc % p:
            return False
    return evaluate(A, _expanded(u), _expanded(v)).is_zero


_INFINITY = Place.infinity()


def _orders_certify(A: BiPoly, u: SUnit, v: SUnit) -> bool:
    """True when A(u, v) != 0 is certified by orders: at some place, one
    term c_ij u^i v^j alone has the least order ord_P(c_ij) + i ord_P(u) +
    j ord_P(v), so by the strict triangle inequality the sum has that
    order and is not zero.  The places tried are those of u's and v's
    exponents, then infinity; False proves nothing."""
    orders = {p: (e, 0) for p, e in u.exponents}
    for p, e in v.exponents:
        orders[p] = (orders.get(p, (0, 0))[0], e)
    for place, (a, b) in orders.items():
        if _least_alone(A.coeff_orders(place), a, b):
            return True
    # the orders at infinity are sums over the exponents: found only here
    return _least_alone(A.coeff_orders(_INFINITY), u.inf_order, v.inf_order)


def _least_alone(orders, a: int, b: int) -> bool:
    """True when exactly one of the (i, j, o) of `orders` has the least
    o + i a + j b."""
    least, alone = None, False
    for i, j, o in orders:
        w = o + i * a + j * b
        if least is None or w < least:
            least, alone = w, True
        elif w == least:
            alone = False
    return alone


def _value_image(f: SUnit | RatFunc, tau: int, p: int) -> int | None:
    return unit_image(f, tau, p) if isinstance(f, SUnit) else _image(f, tau, p)


def _expanded(f: SUnit | RatFunc) -> RatFunc:
    return as_ratfunc(f) if isinstance(f, SUnit) else f


def poly_height(A: BiPoly) -> int:
    """Height of A: the maximum height of its coefficients."""
    if A.is_zero:
        raise ZeroPolynomial("the zero polynomial has no height")
    return max(height(c) for c in A.coeffs.values())


def b_polynomial(A: BiPoly, u: SUnit, v: SUnit, w: OmegaForm) -> BiPoly:
    """The companion polynomial whose value at (u, v) is the derivative.

    Coefficient (i, j) is lam * (i theta_u + j theta_v) + lam', with theta
    = du/u and lam' measured against the form w = dt/q, so evaluating it at
    (u, v) reproduces the derivative of A(u, v) against w, exactly.

    Every denominator is known: with D the product of the places of u and
    v, theta_u = N_u / D and theta_v = N_v / D
    (`sunits._log_derivative_num`), and for lam = a/b, lam' = q (a'b - ab')
    / b^2.  So the coefficient is

        [a b (i N_u + j N_v) + (a'b - ab') q D] / (b^2 D),

    The terms that depend on A alone, a b, a'b - ab' and the factors of b^2,
    are found once per instance (`BiPoly.companion_terms`); q enters only
    through q D, so a pair pays for i N_u + j N_v, q D and at most two
    products per coefficient.  Only a place of D or a factor of b can
    cancel: `field_core._known_quotient` takes each coefficient to its
    normal form without a gcd.
    The counts it divides out give each coefficient's denominator as a
    product of known factors, so B's cleared form is filled in from them
    (`_known_cleared`), and the resultants do not clear B again.
    """
    q = w.denominator
    # the places of D, each with its multiplicity 1 there
    places = dict.fromkeys((p.poly for p, _ in u.exponents + v.exponents), 1)
    n_u = _log_derivative_num(u, q, places)
    n_v = _log_derivative_num(v, q, places)
    qd = q
    for r in places:
        qd = qd * r
    out: dict[tuple[int, int], RatFunc] = {}
    # the lcm of the coefficients' denominators, {factor: multiplicity}:
    # each is prod f^(m - k) over the counts k that went out
    lcm: dict[Poly, int] = {}
    for (i, j), ab, dab, b_sq in A.companion_terms():
        top = ab * (n_u.scale(i) + n_v.scale(j))
        if not dab.is_zero:
            top = top + dab * qd
        if top.is_zero:
            continue
        den = dict(places)
        for f, m in b_sq:
            den[f] = den.get(f, 0) + m
        den = tuple(den.items())
        out[(i, j)], _, counts = _known_quotient(top.nums, top.den, den)
        for (f, m), k in zip(den, counts):
            if lcm.get(f, 0) < m - k:
                lcm[f] = m - k
    lift = 1
    for f, m in lcm.items():
        lift *= f.den ** m
    L = _den_product(tuple((f.nums, m) for f, m in lcm.items()), lift)
    # c * L = c.num * (L / c.den), and L / c.den is the integer quotient of
    # their nums times c.den's den over L's
    cols = {}
    for key, c in out.items():
        num, den = c.num, c.den
        col = num.nums
        if den != L:
            col = _kronecker_product(
                [(col, 1), (_exact_quotient(L.nums, den.nums), 1)])
        cols[key] = col, den.den, num.den * L.den
    B = BiPoly(out)
    B._cleared_form = _known_cleared(cols, L)
    return B


def torus_derivative(A: BiPoly, r: int, s: int) -> BiPoly:
    """Derivative of A along the torus direction (X, Y) -> (l^s X, l^-r Y).

    Coefficient (i, j) picks up the factor (s*i - r*j); the result vanishes
    identically exactly when every monomial of A lies on one (r, s)-ray.
    """
    if (r, s) == (0, 0):
        raise BothZero("the direction (r, s) must be nonzero")
    return BiPoly({(i, j): c * (s * i - r * j)
                   for (i, j), c in A.coeffs.items()})


# ---------------------------------------------------------------------------
# Resultants by Sylvester determinants over Z; the bivariate gcd
# ---------------------------------------------------------------------------

# Cap on the size of a polynomial over Z[t] whose rational roots are
# sought, whose gcd is taken, or that a resultant produces: its degree z
# in the main variable (for a gcd, the larger of its X- and Y-degrees)
# times its degree in t.  The work grows faster than linearly in either
# degree alone, so each counts as at least an eighth of the other (and 1):
# under the cap, z and t are each at most 64.
CLEARED_SIZE_CAP = 512


# Cap on one Sylvester determinant of size N = m + n whose value is packed
# into W bits: N^3 * W^2.  Bareiss's elimination divides about N^3 integers
# of up to W bits, and CPython divides in time quadratic in their length;
# over 12 random shapes (main degree 2 to 32) the time was 0.6e-13 to
# 1.8e-13 s per unit of N^3 * W^2 (2-vCPU Xeon VM, CPython 3.11), so a
# determinant at the cap takes about a second.  The audits' resultants
# stay below 2e11.
SYLVESTER_WORK_CAP = 10 ** 13


def _check_size(z: int, t: int) -> None:
    """Raise InputTooLarge when degree z in the main variable and degree t
    in t are past CLEARED_SIZE_CAP."""
    if max(1, z, t // 8) * max(1, t, z // 8) > CLEARED_SIZE_CAP:
        raise InputTooLarge(
            f"a polynomial of degree {z} in its main variable and {t} in t "
            f"is past the size cap {CLEARED_SIZE_CAP}")


def _check_sylvester_work(size: int, width: int) -> None:
    """Raise InputTooLarge when a Sylvester determinant of `size` rows,
    packed into `width` bits, is past SYLVESTER_WORK_CAP."""
    if size ** 3 * width ** 2 > SYLVESTER_WORK_CAP:
        raise InputTooLarge(
            f"a Sylvester matrix of size {size} packed into {width} bits is "
            f"past the size cap {SYLVESTER_WORK_CAP}")


def _oriented(A: BiPoly, main: str) -> tuple[dict, Poly]:
    """A's cleared form (`BiPoly.cleared`) keyed (main exponent, other
    exponent)."""
    ints, d = A.cleared()
    if main == "x":
        return ints, d
    return {(j, i): ts for (i, j), ts in ints.items()}, d


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968): every division is exact.  `rows` is
    consumed."""
    sign, prev, size = 1, 1, len(rows)
    for k in range(size - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            a = row[k]
            for j in range(k + 1, size):
                row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
        prev = pivot
    return sign * rows[-1][-1]


def _resultant(A: BiPoly, B: BiPoly, main: str, m: int, n: int) -> BiPoly:
    """Res_main(A, B) for main-degrees m of A and n of B, as one integer
    Sylvester determinant: a BiPoly in the other variable alone.

    A and B come cleared to da*A and db*B in Z[other, t] (`BiPoly.cleared`,
    found once per instance), and every entry is
    packed into one integer (Kronecker substitution): t at 2^k and the other
    variable at 2^(k*(D_t+1)), for the bounds D_o and D_t on the resultant's
    degrees in them.  The Sylvester matrix has n rows of A's coefficients
    and m of B's, so by its row sums every coefficient of the resultant is
    at most ||da*A||_1^n * ||db*B||_1^m in absolute value; k is that bound's
    bit length plus one bit for the sign, and the determinant's signed
    base-2^k digits are the coefficients, read back once.  Each is then
    divided by da^n * db^m: only a factor of that denominator can cancel,
    and those factors are those of the monic parts of da and db, with
    their multiplicities times n and times m, so
    `field_core._known_quotient` reduces every coefficient without a gcd.
    The counts it divides out also give the result's own cleared form
    (`_known_cleared`), which is filled in, so `rational_roots` does not
    clear the resultant again.
    """
    ia, da = _oriented(A, main)
    ib, db = _oriented(B, main)
    oa, ea = _degrees(ia)
    ob, eb = _degrees(ib)
    # the Sylvester determinant bounds the resultant's degrees in the other
    # variable and in t; the size check runs on those bounds
    d_o, d_t = m * ob + n * oa, m * eb + n * ea
    _check_size(d_o, d_t)
    bound = _norm(ia) ** n * _norm(ib) ** m
    k = bound.bit_length() + 1
    _check_sylvester_work(m + n, k * (d_o + 1) * (d_t + 1))
    stride = k * (d_t + 1)
    pa, pb = _packed(ia, m, k, stride), _packed(ib, n, k, stride)
    rows = ([[0] * r + pa + [0] * (n - 1 - r) for r in range(n)]
            + [[0] * r + pb + [0] * (m - 1 - r) for r in range(m)])
    det = _bareiss_det(rows)
    if not det:
        return BiPoly.zero()
    digits = _signed_digits(det, k, (d_o + 1) * (d_t + 1))
    # Res(da*A, db*B) = da^n * db^m * Res(A, B): every coefficient is
    # ts / d with d = da^n * db^m, whose factors are known
    den: dict[Poly, int] = {}
    for part, e in ((da, n), (db, m)):
        if not e:
            continue
        for f, mult in factor_poly(part.monic()):
            den[f] = den.get(f, 0) + mult * e
    den = tuple(den.items())
    lc = da.lc.numerator ** n * db.lc.numerator ** m
    coeffs, parts = {}, {}
    for e in range(d_o + 1):
        ts = _trim(digits[e * (d_t + 1):(e + 1) * (d_t + 1)])
        if ts:
            key = (0, e) if main == "x" else (e, 0)
            coeffs[key], a, counts = _known_quotient(ts, lc, den)
            parts[key] = ts, a, counts
    # the monic lcm L of the denominators is prod q^(m - j), j the least
    # count of q over the coefficients, and c * L = ts / (lc * prod q^j) =
    # (ts / prod P^j) * prod l^j / lc for q = P / l: the quotient at j,
    # which is a itself wherever every count is least, and ts wherever
    # every j is 0
    least = [min(ks[i] for _, _, ks in parts.values())
             for i in range(len(den))]
    top, lcm_lift, lcm_parts = 1, 1, []
    for (q, m), j in zip(den, least):
        top *= q.den ** j
        if j < m:
            lcm_parts.append((q.nums, m - j))
            lcm_lift *= q.den ** (m - j)
    cols = {}
    for key, (ts, a, counts) in parts.items():
        if counts != least:
            a = ts
            for (q, _), j in zip(den, least):
                if j:
                    a = _divided(a, q.nums, j)[0]
        cols[key] = a, top, lc
    F = BiPoly(coeffs)
    F._cleared_form = _known_cleared(
        cols, _den_product(tuple(lcm_parts), lcm_lift))
    return F


def _known_cleared(cols: dict, lcm: Poly) -> tuple[dict, Poly]:
    """`clear_denominators` of values c whose denominators have the known
    monic lcm L, read off their products c * L = Q * n / d, given as
    `cols`: key -> (Q, n, d) for a list Q of ints and ints n, d > 0.

    No lcm is searched for.  With n / d in lowest terms, the least
    positive integer s that clears every s * Q * n / d is the lcm over the
    keys of d over its gcd with the content of Q.  The cleared integers
    are s * Q * n / d and d = s * L, the pair `clear_denominators`
    returns, int for int.
    """
    s, parts = 1, {}
    for key, (col, n, d) in cols.items():
        g = int_gcd(n, d)
        n, d = n // g, d // g
        # d = need * h with h | every c of Q: s * c * n / d is an integer
        # exactly when need | s
        h = int_gcd(d, *col) if d != 1 else 1
        need = d // h
        s = int_lcm(s, need)
        parts[key] = col, n, need, h
    ints = {key: [s // need * n * (c // h) for c in col]
            for key, (col, n, need, h) in parts.items()}
    return ints, lcm.scale(s)


def _degrees(ints: dict) -> tuple[int, int]:
    """The degrees in the other variable and in t of a cleared input."""
    return (max(j for _, j in ints), max(len(ts) for ts in ints.values()) - 1)


def _norm(ints: dict) -> int:
    """The 1-norm of a cleared input: the sum of |c| over its integers."""
    return sum(abs(c) for ts in ints.values() for c in ts)


def _packed(ints: dict, deg: int, k: int, stride: int) -> list[int]:
    """The coefficients of a cleared input in its main variable, highest
    degree first, each packed into one integer: t at 2^k, the other
    variable at 2^stride."""
    packed = [0] * (deg + 1)
    for (i, j), ts in ints.items():
        packed[deg - i] += _pack(ts, k) << (j * stride)
    return packed


def resultant_y(A: BiPoly, B: BiPoly) -> BiPoly:
    """Resultant of A and B with respect to Y: a polynomial in X over Q(t),
    a BiPoly keyed (i, 0).

    Vanishes identically exactly when A and B share a factor involving Y,
    or when either is zero.  When B does not involve Y the resultant is
    B^(deg_Y A), which is 1 when A does not involve Y either.
    """
    if A.is_zero or B.is_zero:
        return BiPoly.zero()
    if A.deg_y == 0 and B.deg_y == 0:
        return BiPoly.const(1)
    if A.deg_y == 0:
        raise DegenerateDegree("both polynomials must depend on Y")
    return _resultant(A, B, "y", A.deg_y, B.deg_y)


def resultant_x(A: BiPoly, B: BiPoly) -> BiPoly:
    """Resultant with respect to X: a polynomial in Y over Q(t), a BiPoly
    keyed (0, j).

    It is 0 when either input is zero; when B does not involve X it is
    B^(deg_X A).
    """
    if A.is_zero or B.is_zero:
        return BiPoly.zero()
    if A.deg_x == 0 and B.deg_x == 0:
        return BiPoly.const(1)
    if A.deg_x == 0:
        raise DegenerateDegree("both polynomials must depend on X")
    return _resultant(A, B, "x", A.deg_x, B.deg_x)


def bipoly_gcd(A: BiPoly, B: BiPoly) -> BiPoly:
    """gcd over Q(t), scaled so its lex-largest coefficient is 1; a zero
    input gives the other input so scaled, and gcd(0, 0) is 0.

    By Gauss's lemma this is the gcd of the cleared polynomials
    (`BiPoly.cleared`) in Z[X, Y, t] with its content in t divided out,
    which sympy takes.  Each cleared input is checked against the size cap
    first.  No library code calls it, and it is the one function that
    imports sympy; it stays while `perfbench/tracing.py` wraps it by
    name."""
    if A.is_zero or B.is_zero:
        g = B if A.is_zero else A
    else:
        cleared = [P.cleared()[0] for P in (A, B)]
        for P, ints in zip((A, B), cleared):
            _check_size(max(P.deg_x, P.deg_y),
                        max(len(ts) for ts in ints.values()) - 1)
        import sympy

        gens = sympy.symbols("X Y t")
        pa, pb = (sympy.Poly.from_dict(
            {(i, j, k): c for (i, j), ts in ints.items()
             for k, c in enumerate(ts) if c}, *gens, domain=sympy.ZZ)
            for ints in cleared)
        groups: dict[tuple[int, int], dict[int, int]] = {}
        for (i, j, k), c in pa.gcd(pb).terms():
            groups.setdefault((i, j), {})[k] = int(c)
        g = BiPoly({ij: RatFunc(Poly([ts.get(k, 0)
                                      for k in range(max(ts) + 1)]))
                    for ij, ts in groups.items()})
    if g.is_zero:
        return g
    return g.scale(RatFunc.one() / g.coeffs[max(g.coeffs)])


# ---------------------------------------------------------------------------
# Rational roots of a polynomial in one variable
# ---------------------------------------------------------------------------

# The first points t = tau at which `rational_roots` specialises, in this
# order: small, so that the images have small coefficients.  They are all
# tried whatever the degrees, and `_lifted_roots` goes on past them up to a
# bound taken from the degrees.
_LIFT_POINTS = tuple(range(2, 10))

def _image_roots(g: list[int]) -> dict[Fraction, int] | None:
    """The rational roots of g in Z[x] (lowest degree first, g(0) and
    lc(g) nonzero) with their multiplicities, or None when neither a prime
    of _SMALL_PRIMES nor g's squarefree part (`_squarefree_roots`) decides
    them.

    The prime is the first p >= len(g) of _SMALL_PRIMES that does not
    divide lc(g) and at which every root of g mod p is simple.  A rational
    root of multiplicity >= 2 stays multiple mod every such p, so there
    each rational root of g is simple, and reduces to a simple root x mod
    p, which Newton's iteration lifts to the one p-adic root above x, to a
    precision q = p^(2^i) above 2 |g(0) lc(g)|.  A root u/v in lowest terms
    has u | g(0) and v | lc(g) (Gauss's lemma), so lc(g) u/v is an integer
    below q/2 in absolute value: lc(g) times the lift, read in symmetric
    residues (`field_core._symmetric`, as `_exact_gcd` and the factoriser's
    recombination read their lifts), over lc(g) is the root if the lift is
    rational, and exact division decides whether it is.  When no prime
    qualifies, g has most likely a repeated factor, and its squarefree
    part decides.
    """
    lc = g[-1]
    for p in _SMALL_PRIMES:
        if p < len(g) or not lc % p:
            continue
        gp = [c % p for c in g]
        der = [i * c % p for i, c in enumerate(gp)][1:]
        roots = [x for x in range(p) if not _horner(gp, x, p)]
        if any(not _horner(der, x, p) for x in roots):
            continue
        bound = 2 * abs(g[0] * lc)
        found: dict[Fraction, int] = {}
        for x in roots:
            y, q = _padic_root(g, x, p, bound)
            root = Fraction(_symmetric([y * lc], q)[0], lc)
            if _exact_quotient(g, [-root.numerator,
                                   root.denominator]) is not None:
                found[root] = 1
        return found
    return _squarefree_roots(g)


def _squarefree_roots(g: list[int]) -> dict[Fraction, int] | None:
    """The rational roots of g with their multiplicities, read off its
    squarefree part, or None when g is squarefree or `_image_roots`
    declines that part.

    h = gcd(g, g') holds every repeated factor, so g / h has the roots of
    g, each simple, and `_image_roots` decides them on the first prime
    where their images stay apart; each root's multiplicity in g is the
    number of times its linear factor divides g.  This is how an image
    whose repeated roots leave every prime undecided, such as a cube, is
    decided."""
    h, squarefree = _squarefree_split(g)
    if len(h) == 1:
        return None
    roots = _image_roots(squarefree)
    if roots is None:
        return None
    return {r: _divided(g, [-r.numerator, r.denominator], len(g))[1]
            for r in roots}


def _padic_root(h: list[int], x: int, p: int, bound: int) -> tuple[int, int]:
    """The root of h above its simple root x mod p, to a precision q above
    `bound`, by Newton's iteration: (root mod q, q)."""
    q = p
    while q <= bound:
        q *= q
        acc = der = 0
        for c in reversed(h):
            der = (der * x + acc) % q
            acc = (acc * x + c) % q
        x = (x - acc * pow(der, -1, q)) % q
    return x, q


def _series_mul(a: list[int], b: list[int], n: int, mod: int) -> list[int]:
    """a * b mod (s^n, mod) for power series a and b in s, lowest first."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return [c % mod for c in out]


def _series_inverse(a: list[int], n: int, mod: int) -> list[int]:
    """1 / a mod (s^n, mod), for a[0] a unit mod `mod`."""
    inv = pow(a[0], -1, mod)
    out = [inv]
    for k in range(1, n):
        acc = sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
        out.append(-acc * inv % mod)
    return out


def _shift(f: list[int], tau: int, mod: int) -> list[int]:
    """The coefficients of f(s + tau) mod `mod`, lowest first."""
    out: list[int] = []
    for c in reversed(f):
        nxt = [tau * x for x in out] + [0]
        for i, x in enumerate(out):
            nxt[i + 1] += x
        nxt[0] += c
        out = [x % mod for x in nxt]
    return out


def _divide_linear(cols: list[list[int]], a: list[int], b: list[int],
                   m: int) -> list[list[int]] | None:
    """The quotient of sum cols[i] Z^i by (a*Z + b)^m in Z[t][Z] (integer
    lists in t, lowest first, [] for 0), or None when the division is not
    exact."""
    for _ in range(m):
        quo = [[]] * (len(cols) - 1)
        rem = cols[-1]
        for i in range(len(cols) - 2, -1, -1):
            q = _exact_quotient(rem, a) if rem else []
            if q is None:
                return None
            quo[i] = q
            if b and q:
                rem = _minus(cols[i], _kronecker_product(((b, 1), (q, 1))))
            else:
                rem = cols[i]
        if rem:
            return None
        cols = quo
    return cols


def _lifted_root(shifted: list[list[int]], r0: Fraction, m: int, tau: int,
                 lc_t: int, degrees: tuple[int, int], mod: int):
    """The primitive a*Z + b, as integer lists (a, b), that the image root
    r0 of multiplicity m lifts to, or None.

    `shifted` holds G's coefficients in s = t - tau, mod `mod`.  r0 is a
    simple root of the image of H, the (m-1)-th Z-derivative of G, so
    Newton's iteration lifts it to the one root R of H in (Z/mod)[[s]]
    above it, to the precision n = deg a + deg b + 1 of the degree bounds
    `degrees` = (deg lc_Z(G), deg G(0)).  If G has a root -b/a of
    multiplicity m above r0, that root is R, and Pade reconstruction gives
    r/q = R with q a constant multiple of a mod `mod` (while a and b stay
    coprime mod `mod`).  Scaled so that lc(q) = lc_t and shifted back to t,
    q and -r are a' = a * lc_t / lc(a) and b' = b * lc_t / lc(a) mod `mod`,
    which exceeds twice their coefficients, so the symmetric residues are
    a' and b' themselves.  The caller's exact division decides every other
    case.
    """
    h = [[perm(i, m - 1) * c % mod for c in ts]
         for i, ts in enumerate(shifted)][m - 1:]
    den = r0.denominator % mod
    if not den:
        return None
    root = [r0.numerator * pow(den, -1, mod) % mod]
    n = degrees[0] + degrees[1] + 1
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        root += [0] * (prec - len(root))
        val, der = h[-1][:prec], []
        for ts in reversed(h[:-1]):
            der = _plus(_series_mul(der, root, prec, mod), val, mod)
            val = _plus(_series_mul(val, root, prec, mod), ts[:prec], mod)
        if not der[0]:
            return None
        step = _series_mul(val, _series_inverse(der, prec, mod), prec, mod)
        root = [(x - y) % mod for x, y in zip(root, step)]
    r, q = _euclid_below([0] * n + [1], root, degrees[1] + 1, mod)
    if len(q) - 1 > degrees[0] or not q[0]:
        return None
    scale = lc_t * pow(q[-1], -1, mod)
    a, b = (_symmetric(_shift([x * scale for x in f], -tau, mod), mod)
            for f in (q, [-x for x in r]))
    content = int_gcd(*a, *b)
    return [c // content for c in a], [c // content for c in b]


def _lifted_roots(cols: list[list[int]]) -> dict[RatFunc, int]:
    """The roots in Q(t) with their multiplicities of G = sum cols[i] Z^i
    in Z[t][Z] (integer lists in t, lowest first; G(0) nonzero).

    A root -b/a with a*Z + b primitive divides G (Gauss's lemma), so a |
    lc_Z(G) and b | G(0).  At a tau where neither vanishes, a(tau) != 0 and
    the root's value at tau is a rational root r0 of the image
    G(Z, tau); if r0 has multiplicity m there, m roots of G over the
    algebraic closure, with multiplicity, take the value r0 at tau.  Each
    r0 is lifted to one candidate (`_lifted_root`), kept only if a*Z + b
    divides G exactly m times: then it accounts for all m, and when every
    r0 has such a candidate, they are all the roots.  Otherwise the next
    tau is tried.  By Mignotte's factor bound (Modern Computer Algebra,
    6.33) the coefficients of a' = a * lc_t / lc(a) are at most
    2^deg(a) ||lc_Z(G)||_2 and those of b' at most
    |lc_t| 2^deg(b) ||G(0)||_2, lc_t the leading coefficient of lc_Z(G),
    so the lift runs modulo the least Mersenne prime above twice the
    larger.

    The points tau run through _LIFT_POINTS and on, up to (2n + 1) d + 2
    for G of Z-degree n and t-degree d.  lc_Z(G) and G(0) vanish at no more
    than 2d points, and two distinct roots meet only where the
    discriminant of G's squarefree part vanishes, at no more than
    (2n - 1) d points, so some point of the range keeps the roots apart.
    InputTooLarge is raised when no point of the range decides, or when
    the lift needs a prime past 2^4423 - 1.
    """
    if len(cols) == 1:
        return {}
    lc, g0 = cols[-1], cols[0]
    degrees = (len(lc) - 1, len(g0) - 1)
    norm = isqrt(max(sum(c * c for c in lc), sum(c * c for c in g0))) + 1
    mod = _lift_modulus(2 * abs(lc[-1]) * norm << max(degrees))
    if mod is None:
        raise InputTooLarge(
            "lifting the rational roots needs a prime past "
            + _LARGEST_LIFT_PRIME)
    d = max(len(ts) for ts in cols) - 1
    last = max(_LIFT_POINTS[-1], (2 * len(cols) - 1) * d + 2)
    for tau in range(_LIFT_POINTS[0], last + 1):
        image = [_homogeneous_value(ts, tau, 1) for ts in cols]
        if not image[0] or not image[-1]:
            continue
        image_roots = _image_roots(image)
        if image_roots is None:
            continue
        shifted = [_shift(ts, tau, mod) for ts in cols] if image_roots else []
        found: dict[RatFunc, int] = {}
        rest = cols
        for r0, m in image_roots.items():
            factor = _lifted_root(shifted, r0, m, tau, lc[-1], degrees, mod)
            rest = factor and _divide_linear(rest, *factor, m)
            if rest is None:
                break
            a, b = factor
            found[RatFunc(Poly([-c for c in b]), Poly(a))] = m
        else:
            return found
    raise InputTooLarge(
        f"no point t = {_LIFT_POINTS[0]}, ..., {last} decides the rational "
        "roots")


def rational_roots(F: BiPoly) -> tuple[list[RatFunc], bool]:
    """All roots in Q(t), with multiplicity, of F in one variable Z: F is a
    BiPoly free of X or of Y, as a resultant is; ValueError when it
    involves both.

    The root 0 comes off first: F = Z^k * G with G(0) != 0 has it k times.
    G is read in Z[t][Z] off F's cleared form (`BiPoly.cleared`, which a
    resultant brings filled in) and its roots are found by specialising t at a
    small tau, finding the rational roots of that image p-adically and
    lifting each t-adically (`_lifted_roots`); an image with no rational
    root proves there is none, and an image whose repeated roots leave
    every prime undecided is decided on its squarefree part.  The points
    tau are bounded, and InputTooLarge is raised past the bound.
    Roots are sorted by their numerator and denominator coefficients, so
    zero roots come first.  The flag is True exactly when the roots account
    for the full degree of F.
    """
    if F.is_zero:
        raise ZeroPolynomial("the zero polynomial has every root")
    if F.deg_x and F.deg_y:
        raise ValueError("rational roots need a polynomial in one variable")
    axis = 1 if F.deg_y else 0
    by_degree = {ij[axis]: ts for ij, ts in F.cleared()[0].items()}
    k, degree = min(by_degree), max(by_degree)
    cols = [by_degree.get(i, []) for i in range(k, degree + 1)]
    _check_size(degree, max(len(ts) for ts in cols) - 1)
    found = _lifted_roots(cols)
    roots = [RatFunc.zero()] * k
    roots += [r for r in sorted(found, key=lambda r: (r.num.coeffs, r.den.coeffs))
              for _ in range(found[r])]
    return roots, len(roots) == degree


# ---------------------------------------------------------------------------
# Dependence transfer along a common zero of A and its companion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependenceOutcome:
    """Result of transferring a quotient relation to the units themselves.

    kind is "constant_quotient" (with `which` naming the constant side) or
    "gamma"; in the latter case `gamma` satisfies u^r v^s = gamma exactly
    and `branch` names the case of the analysis that applied:
    "singular_point", "bezout" (coprime twist), "ray" (twist vanishes, A is
    supported on one (r, s)-ray plus a constant), or "proportional"
    (nonzero constant of proportionality).
    """

    kind: str
    which: str | None = None
    gamma: RatFunc | None = None
    branch: str | None = None


def check_dependence_transfer(
    A: BiPoly,
    u: SUnit,
    v: SUnit,
    alpha: RatFunc,
    beta: RatFunc,
    r: int,
    s: int,
    mu: Fraction,
    w: OmegaForm,
) -> DependenceOutcome:
    """Given (u/alpha)^r (v/beta)^s = mu along a common zero (alpha, beta)
    of A and its derivative companion, either one quotient is constant or
    u^r v^s equals a function gamma of the coefficients alone.

    All stated preconditions are re-verified exactly and a failure names
    the identity that broke.
    """
    U = as_ratfunc(u)
    V = as_ratfunc(v)
    if (r, s) == (0, 0):
        raise PreconditionViolated("(r, s) != (0, 0)")
    if int_gcd(abs(r), abs(s)) != 1:
        raise PreconditionViolated("gcd(|r|, |s|) = 1")
    if not vanishes_at(A, alpha, beta):
        raise PreconditionViolated("A(alpha, beta) = 0")
    B = b_polynomial(A, u, v, w)
    if not vanishes_at(B, alpha, beta):
        raise PreconditionViolated("B(alpha, beta) = 0")
    if alpha.is_zero or beta.is_zero:
        raise PreconditionViolated("alpha, beta nonzero")
    quotient = (U / alpha) ** r * (V / beta) ** s
    if not (quotient.is_constant and quotient.constant_value() == Fraction(mu)):
        raise PreconditionViolated("(u/alpha)^r (v/beta)^s = mu")

    if (U / alpha).is_constant:
        return DependenceOutcome("constant_quotient", which="first")
    if (V / beta).is_constant:
        return DependenceOutcome("constant_quotient", which="second")

    gamma = RatFunc.const(mu) * alpha ** r * beta ** s
    if U ** r * V ** s != gamma:
        raise PreconditionViolated("u^r v^s = mu alpha^r beta^s")

    ax = evaluate(A.partial_x(), alpha, beta)
    ay = evaluate(A.partial_y(), alpha, beta)
    if ax.is_zero and ay.is_zero:
        return DependenceOutcome("gamma", gamma=gamma, branch="singular_point")

    offsets = {s * i - r * j for (i, j) in A.coeffs}
    if offsets == {0}:
        branch = "ray"
    elif len(offsets) == 1:
        branch = "proportional"
    else:
        # twist's support lies inside A's, so a shared factor involving Y
        # makes the Y-resultant vanish and one involving X the X-resultant:
        # A and twist are coprime exactly when both are nonzero
        twist = torus_derivative(A, r, s)
        if resultant_y(A, twist).is_zero or resultant_x(A, twist).is_zero:
            raise PreconditionViolated("A irreducible")
        branch = "bezout"
    return DependenceOutcome("gamma", gamma=gamma, branch=branch)


# ---------------------------------------------------------------------------
# Irreducibility attestation audit
# ---------------------------------------------------------------------------

def _specialised(ints: Mapping[tuple[int, int], list[int]],
                 tau: Fraction) -> dict[tuple[int, int], int]:
    """The nonzero coefficients of the cleared polynomial `ints` (lists in
    t, lowest degree first) at t = tau = a / b, all times b^D for D the
    highest degree in t: each is sum n_k a^k b^(D - k), on integers."""
    a, b = tau.numerator, tau.denominator
    top = max(len(ns) for ns in ints.values())
    out = {}
    for key, ns in ints.items():
        acc = _homogeneous_value(ns, a, b)
        if acc:
            out[key] = acc * b ** (top - len(ns))
    return out


def _kronecker_irreducible(spec: Mapping[tuple[int, int], int],
                           deg_x: int) -> bool:
    """True when the integer coefficients `spec` of a polynomial in X and
    Y of X-degree `deg_x` certify it irreducible over Q; False proves
    nothing.

    Y -> X^N + c with N = deg_x + 1 sends the monomials X^i Y^j to
    polynomials of distinct degrees i + N j, so it maps a nonconstant
    polynomial to a nonconstant one, and a factorisation into nonconstant
    factors to another.  So f(X) = spec(X, X^N + c) irreducible proves
    spec irreducible; c runs over 1, 2, 3.  An f with a repeated factor is
    declined at gcd(f, f') (`_squarefree_split`), and a squarefree one is
    irreducible when `_factor_squarefree` finds one factor."""
    n = deg_x + 1
    deg_y = max(j for _, j in spec)
    rows = [[0] * n for _ in range(deg_y + 1)]
    for (i, j), x in spec.items():
        rows[j][i] = x
    for c in (1, 2, 3):
        # Horner in Y: f = (...(P_J (X^N + c) + P_(J-1)) (X^N + c) ...) + P_0
        f = list(rows[-1])
        for row in reversed(rows[:-1]):
            f = [0] * n + f
            for k, x in enumerate(f[n:]):
                f[k] += c * x
            for k, x in enumerate(row):
                f[k] += x
        f = _primitive(_trim(f))
        if len(_squarefree_split(f)[0]) > 1:
            continue
        factors = _factor_squarefree(f)
        if factors is not None and len(factors) == 1:
            return True
    return False


# the seeded points t = tau at which the irreducibility audit specialises
_AUDIT_TRIALS = 5


def specialization_irreducibility_audit(A: BiPoly, seed: int = 0) -> bool:
    """A certificate of an irreducibility attestation over Q(t).

    Specializes t at _AUDIT_TRIALS seeded rational points and decides whether
    the resulting bivariate polynomial is irreducible over Q.  Where the
    bidegree is kept, a nontrivial factorisation of A over Q(t)
    specializes to a nontrivial one of A(tau), so one specialization that
    stays irreducible with the full bidegree proves A irreducible over
    Q(t): True is a certificate.  False proves nothing: every point tried
    split, lost a degree or met a pole, and an irreducible A can do that
    at every point tried.

    A(tau) is read off A's cleared integer form, and Kronecker's
    substitution (`_kronecker_irreducible`) certifies it irreducible; a
    point where it declines counts as one that split.
    """
    if A.is_constant:
        raise ConstantPolynomial("attestation needs a nonconstant polynomial")
    bits = _seeded_bits(f"irred-audit:{seed}")
    # A(tau) is d(tau)^-1 times the cleared polynomial at tau; d(tau) = 0
    # exactly when a coefficient of A has a pole at tau
    ints, d = A.cleared()
    for _ in range(_AUDIT_TRIALS):
        # randint(2, 50) and then randint(1, 7) of random.py's
        # Random(f"irred-audit:{seed}"), drawn as `sunits._unit_at_index`
        # draws
        tau = Fraction(2 + _below(bits, 49, 6), 1 + _below(bits, 7, 3))
        if d.eval(tau) == 0:
            continue
        spec = _specialised(ints, tau)
        # every coefficient of A can vanish at tau, and A(tau) with them
        if (max((i for i, _ in spec), default=-1) != A.deg_x
                or max((j for _, j in spec), default=-1) != A.deg_y):
            continue
        if _kronecker_irreducible(spec, A.deg_x):
            return True
    return False
