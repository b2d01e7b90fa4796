"""Exact arithmetic in Q(t), places and divisors on the projective line.

Everything here is immutable and exact: a polynomial is a tuple of
integers over one positive integer denominator (lowest degree first, in
lowest terms), rational functions are coprime numerator/denominator pairs
with monic denominator, and a place is either a monic irreducible
polynomial over Q or the point at infinity.
Geometric counts always weight a place by its degree, so the sums over
"all points" of the algebraically closed picture stay exact over Q.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, total_ordering
from math import gcd, isqrt, lcm


class ZeroFunction(ValueError):
    """Raised when an order/height operation receives the zero function."""


class AllZero(ValueError):
    """Raised when a projective height is requested for an all-zero tuple."""


class ZeroPolynomial(ValueError):
    """Raised when a decomposition is requested for the zero polynomial."""


class STooSmall(ValueError):
    """Raised when a place set cannot carry a two-pole differential form."""


class NotIrreducible(ValueError):
    """Raised when a finite place is built from a reducible polynomial."""


class PlaceDegreeTooLarge(ValueError):
    """Raised when a place polynomial exceeds the supported degree."""


class InputTooLarge(ValueError):
    """Raised when an input is past a bound on the work that deciding it
    may take: a size cap on gcds, roots and resultants, the factoriser's
    subset budget, or the points tried for rational roots."""


# Finite places are validated by trial factorization; this is the cap on the
# degree we are willing to certify.
PLACE_DEGREE_CAP = 8


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------

def power(base, n: int, one, mul=operator.mul):
    """base ** n by square-and-multiply, for n >= 0; `one` is the unit of
    the ring and `mul` its product.  Squares only while exponent bits
    remain."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _kronecker_product(factors) -> list[int]:
    """Coefficients, lowest degree first, of the product of f**e over the
    pairs (f, e) in `factors`, each f a nonzero sequence of ints (lowest
    degree first) and e >= 0; the empty product is [1].  The list is the
    caller's own.

    A factor t^j (j zeros, then a 1; the place t is `_T_NUMS`) is a shift
    of the result and is never packed.  When one factor (f, e) remains, e =
    1 is a copy of f, and a power f^e with e >= 2 is read from
    `_cached_power`.  Only place powers reach that cache, from the sides
    of an S-unit (`sunits.as_ratfunc`, `sunits._cached_terms`),
    `unitsum._known_den_sum` and `_den_product`: every other caller
    multiplies two or more factors with e = 1.  The units of one place set
    share their place powers P^e, so its entries repeat across pairs.
    Anything else is packed by `_packed_product`.
    """
    shift, rest = 0, []
    for f, e in factors:
        if not e:
            continue
        if f[-1] == 1 and not any(f[:-1]):
            shift += (len(f) - 1) * e
        else:
            rest.append((f, e))
    if not rest:
        out = [1]
    elif len(rest) > 1:
        out = _packed_product(rest)
    else:
        f, e = rest[0]
        out = list(f) if e == 1 else _power(tuple(f), e)
    return [0] * shift + out if shift else out


_POWER_CACHE_BITS = 1 << 15
_POWER_CACHE_SIZE = 1024


def _power(f: tuple, e: int) -> list[int]:
    """f**e for a nonzero integer tuple f and e >= 2: from `_cached_power`
    when its n coefficients, charged the packing width k plus 320 bits
    each, come to at most `_POWER_CACHE_BITS`; packed afresh otherwise."""
    k = (sum(map(abs, f)) ** e).bit_length() + 1
    if ((len(f) - 1) * e + 1) * (k + 320) > _POWER_CACHE_BITS:
        return _packed_product(((f, e),))
    return list(_cached_power(f, e))


@lru_cache(maxsize=_POWER_CACHE_SIZE)
def _cached_power(f: tuple, e: int) -> tuple:
    """f**e as a tuple, for `_power`, which hands out a copy.

    The 320 bits that `_power` charges a coefficient are its tuple slot and
    int header: a k-bit coefficient takes at most 40 + 2k/15 bytes, so an
    entry holds at most about 4.4 KB, and about 7 KB with its key f (at
    most (n + 1) / 2 coefficients).  The cache, at `_POWER_CACHE_SIZE`
    entries, retains at most about 7 MB whatever the exponents; 1,024
    entries just under the cap measured 3.1-4.9 MB with tracemalloc.
    (t - 1)^25 is charged 9,022 bits and (t^2 + 1)^25 17,697."""
    return tuple(_packed_product(((f, e),)))


def _packed_product(factors) -> list[int]:
    """`_kronecker_product` of a nonempty `factors` by Kronecker
    substitution: every f is packed into the integer f(2^k), the packed
    integers are raised and multiplied with Python's `**` and `*`, and the
    product is read back once as signed base-2^k digits.  Every coefficient
    of the product is at most prod ||f||_1^e in absolute value, so k is
    that bound's bit length plus one bit for the sign, and the digits are
    exact.
    """
    bound, deg = 1, 0
    for f, e in factors:
        bound *= sum(map(abs, f)) ** e
        deg += (len(f) - 1) * e
    k = bound.bit_length() + 1
    packed = 1
    for f, e in factors:
        packed *= _pack(f, k) ** e
    # the low digits that are zero (a power of t) come off in one shift
    low = ((packed & -packed).bit_length() - 1) // k
    return [0] * low + _signed_digits(packed >> low * k, k, deg + 1 - low)


def _pack(f, k: int) -> int:
    """f(2^k) for a sequence f of ints, lowest degree first."""
    x = 0
    for c in reversed(f):
        x = (x << k) + c
    return x


def _signed_digits(packed: int, k: int, n: int) -> list[int]:
    """The n signed base-2^k digits of `packed`, lowest first, each in
    [-2^(k-1), 2^(k-1)); raises ArithmeticError when they do not add up to
    `packed`."""
    # adding half = 2^(k-1) to every signed digit makes it a plain base-2^k
    # digit in [0, 2^k); anything left above the top digit is an error
    mask, half, width = (1 << k) - 1, 1 << (k - 1), k * n
    packed += half * (((1 << width) - 1) // mask)
    if packed < 0 or packed >> width:
        raise ArithmeticError("Kronecker unpacking left a nonzero remainder")
    return [((packed >> i) & mask) - half for i in range(0, width, k)]


def _cleared(coeffs) -> tuple[list[int], int]:
    """Rational coefficients (ints or Fractions) as (ints, L) with
    coeffs = ints / L: L the least positive integer that clears every
    denominator.  It is how `Poly` takes rational input; a Poly itself is
    stored cleared."""
    lift = lcm(*[c.denominator for c in coeffs])
    if lift == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (lift // c.denominator) for c in coeffs], lift


def _scaled(ints, a: int, b: int) -> "Poly":
    """The Poly ints * a / b, for a sequence of ints (lowest degree first,
    trailing zeros allowed) and nonzero ints a and b, in normal form.

    With g = gcd(b, *ints) and h = gcd(a, b / g), the result is
    (a / h) * (ints / g) over b / (g h): a prime of the denominator divides
    neither a / h nor every one of ints / g, so one gcd over the list and
    one with a reach the normal form, and no Fraction is built."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    p = object.__new__(Poly)
    if not n:
        p.nums, p.den = (), 1
        return p
    if b < 0:
        a, b = -a, -b
    if b != 1:
        g = gcd(b, *ints)
        if g != 1:
            b //= g
            ints = [c // g for c in ints[:n]]
        if a != 1:
            h = gcd(a, b)
            if h != 1:
                a, b = a // h, b // h
    p.nums = tuple(ints[:n]) if a == 1 else tuple([a * c for c in ints[:n]])
    p.den = b
    return p


class Poly:
    """Univariate polynomial over Q, stored as integers over one
    denominator (FLINT's fmpq_poly layout): the coefficients, lowest degree
    first, are nums[i] / den, with den >= 1, gcd(den, *nums) = 1 and no
    trailing zero in nums; zero is ((), 1).

    That normal form is unique, so `==` and `hash` compare (nums, den), and
    den is the least integer that clears the coefficients.  Every kernel
    reads the integers directly, runs one integer computation (a
    Kronecker-packed product, a pseudo-division, a divide-out) and writes
    its result through `_scaled`.  `coeffs` derives the Fraction
    coefficients on demand, for the readers that want rationals.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        nums, den = _cleared([c if isinstance(c, (int, Fraction))
                              else Fraction(c) for c in coeffs])
        # den is the lcm of the reduced denominators, so gcd(den, *nums) = 1
        while nums and not nums[-1]:
            nums.pop()
        self.nums = tuple(nums)
        self.den = den if nums else 1

    def __reduce__(self):
        return (_scaled, (self.nums, 1, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        d = self.den
        return tuple([Fraction(c, d) for c in self.nums])

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def lc(self) -> Fraction:
        if not self.nums:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    @property
    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def monic(self):
        if not self.nums:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lc = self.nums[-1]
        if lc == self.den:
            return self
        return _scaled(self.nums, 1, lc)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __neg__(self):
        return _scaled(self.nums, -1, self.den)

    def __add__(self, other):
        a, b = self.nums, other.nums
        la, lb = self.den, other.den
        # over the common denominator la * (lb / g) = lb * (la / g)
        g = gcd(la, lb)
        if g != lb:
            a = [c * (lb // g) for c in a]
        if g != la:
            b = [c * (la // g) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _scaled(out, 1, la * (lb // g))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return _ZERO
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _scaled(self.nums, c.numerator, self.den * c.denominator)

    def __pow__(self, n: int):
        return power(self, n, Poly.one())

    def eval(self, x) -> Fraction:
        """The value at a rational x = u / v: one integer Horner sum of the
        nums[i] u^i v^(deg - i) (`_homogeneous_value`), over den * v^deg."""
        if not self.nums:
            return Fraction(0)
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        u, v = x.numerator, x.denominator
        return Fraction(_homogeneous_value(self.nums, u, v),
                        self.den * v ** (len(self.nums) - 1))

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def t() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly((0,) * k + (c,))

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.coeff(0)

    def derivative(self) -> "Poly":
        return _scaled([i * c for i, c in enumerate(self.nums)][1:], 1,
                       self.den)

    def __mul__(self, other):
        """One Kronecker-packed integer product, or one scaling when an
        operand is constant."""
        a, b = self.nums, other.nums
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            return _scaled(a, b[0], self.den * other.den)
        return _scaled(_kronecker_product(((a, 1), (b, 1))), 1,
                       self.den * other.den)

    def __divmod__(self, other):
        """Pseudo-division in Z[t] (Knuth, TAOCP vol. 2, 4.6.1).

        With self = A / la, other = B / lb and s = lc(B)^(deg A - deg B + 1),
        s*A = Q*B + R over Z, so the quotient is Q*lb / (s*la) and the
        remainder R / (s*la).  Long division of s*A divides every step
        exactly by lc(B); when lc(B) = +-1 the scale is 1.
        """
        if not other.nums:
            raise ZeroDivisionError("polynomial division by zero")
        n = other.degree
        if self.degree < n:
            return _ZERO, self
        a, la = self.nums, self.den
        b, lb = other.nums, other.den
        lc = b[-1]
        m = len(a) - 1
        s = 1 if lc == 1 or lc == -1 else lc ** (m - n + 1)
        r = [s * c for c in a] if s != 1 else list(a)
        q = [0] * (m - n + 1)
        for i in range(m, n - 1, -1):
            c = r[i]
            if c:
                c //= lc
                q[i - n] = c
                for j in range(n):
                    r[i - n + j] -= c * b[j]
        return _scaled(q, lb, s * la), _scaled(r[:n], 1, s * la)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)!r})"


# Polys are immutable, so zero and one are shared
_ZERO, _ONE = Poly(), Poly((1,))


def render_poly(p: Poly) -> str:
    """Render a polynomial in the expression grammar (re-parseable): the
    term stage `_scaled_terms` and then the join stage `_join_terms`.

    A reduced fraction does not depend on how its value was stored, so a
    Poly renders the same from its own (nums, 1, den) as from any integer
    scaling of it, such as an S-unit's side (`sunits.render_unit`, which
    keeps the term stage of a place power in a cache)."""
    return _join_terms(_scaled_terms(p.nums, 1, p.den), 0)


# "t^k" and "*t^k" by k, for `_join_terms`, which grows them to each degree
# it meets, so that a label is formatted once.  At k = 0 a magnitude of 1
# is written "1" and any other magnitude stands alone.
_T_POWERS, _TIMES_T_POWERS = ["1", "t"], ["", "*t"]


def _scaled_terms(nums, a: int, b: int) -> list:
    """The term stage of rendering nums * a / b: for each nonzero term,
    highest degree first, (i, head, labels).

    i is the term's degree; head is its sign and its magnitude nums[i] * a
    / b, reduced on its own and only when b != 1; labels is the list whose
    entry at the term's degree finishes it: `_TIMES_T_POWERS` after a
    magnitude, `_T_POWERS` in place of a magnitude of 1.  The leading
    term's sign is "" or "-", and each later sign the separator " + " or
    " - " before its term.  Nothing here depends on the degree the join
    stage labels a term with."""
    terms = []
    plus, minus = "", "-"
    for i in range(len(nums) - 1, -1, -1):
        n = nums[i]
        if not n:
            continue
        n *= a
        if n < 0:
            sign, n = minus, -n
        else:
            sign = plus
        plus, minus = " + ", " - "
        if b != 1:
            g = gcd(n, b)
            if g != b:
                terms.append((i, f"{sign}{n // g}/{b // g}", _TIMES_T_POWERS))
                continue
            n //= b
        terms.append((i, sign, _T_POWERS) if n == 1
                     else (i, f"{sign}{n}", _TIMES_T_POWERS))
    return terms


def _join_terms(terms, shift: int) -> str:
    """The join stage: the terms of `_scaled_terms` times t^shift, each
    finished by its label at its degree plus shift."""
    if not terms:
        return "0"
    top = terms[0][0] + shift
    if top >= len(_T_POWERS):
        for k in range(len(_T_POWERS), top + 1):
            _T_POWERS.append(f"t^{k}")
            _TIMES_T_POWERS.append(f"*t^{k}")
    parts = []
    for i, head, labels in terms:
        parts += head, labels[i + shift]
    return "".join(parts)


# --- cleared forms ----------------------------------------------------------
#
# Poly does ring arithmetic only.  The gcds and factorisations in Q[t] below,
# the integer Sylvester determinants behind the bivariate resultants, the
# lifted rational roots and the irreducibility certificate all run on
# integers in house: a Poly hands over its `nums`, which are already
# cleared, and a coefficient map is cleared by `clear_denominators`.

def clear_denominators(coeffs: Mapping) -> tuple[dict, Poly]:
    """The values of `coeffs` (RatFunc or Poly), all multiplied by one d, as
    integer coefficient lists, lowest degree first; returned as
    {key: list of ints} together with d.

    d is the monic lcm of the denominators, a `poly_lcm` fold over the
    distinct ones, times the least positive integer that clears the
    rational coefficients left; each value is multiplied by its cofactor
    d / q, q its denominator.  Both factors of d are unique, so the form
    is."""
    one = Poly.one()
    pairs = [(c.num, c.den) if isinstance(c, RatFunc) else (c, one)
             for c in coeffs.values()]
    den = one
    for q in dict.fromkeys(q for _, q in pairs):
        if not q.is_constant:
            den = poly_lcm(den, q)
    nums = [n if q == den else n * (den // q) for n, q in pairs]
    scale = lcm(*(n.den for n in nums))
    ints = {k: [c * (scale // n.den) for c in n.nums]
            for k, n in zip(coeffs, nums)}
    return ints, den.scale(scale)


# --- polynomials over Z/p ---------------------------------------------------
#
# Residue lists, lowest degree first, without trailing zeros: the images
# behind the gcd certificate and the factoriser below, and the t-adic lifts
# of `bipoly.rational_roots`.

# Exponents e of the Mersenne primes 2^e - 1 up to 2^4423 - 1 (all proven
# prime by the Lucas-Lehmer test); the gcd lift and the t-adic root lift
# run modulo the least one above twice their bound (`_lift_modulus`).
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                       4253, 4423)
# the largest of them, as the root lift's InputTooLarge text names it
_LARGEST_LIFT_PRIME = f"2^{_MERSENNE_EXPONENTS[-1]} - 1"


def _lift_modulus(bound: int) -> int | None:
    """The least Mersenne prime of _MERSENNE_EXPONENTS above `bound`, or
    None when `bound` is past the largest."""
    return next((m for m in (2 ** e - 1 for e in _MERSENNE_EXPONENTS)
                 if m > bound), None)


def _symmetric(cs, mod: int) -> list[int]:
    """The ints cs modulo the odd `mod`, each read in (-mod/2, mod/2): a
    lift whose true coefficients lie below mod/2 in absolute value reads
    back exactly."""
    half = mod // 2
    return [r - mod if (r := c % mod) > half else r for c in cs]


def _trim(f: list[int]) -> list[int]:
    """f without its trailing zeros."""
    n = len(f)
    while n and not f[n - 1]:
        n -= 1
    return f[:n]


def _divmod_mod(a: list[int], b: list[int], mod: int):
    """Quotient and remainder of a by b over the field Z/mod, lowest first."""
    a, db, inv = list(a), len(b) - 1, pow(b[-1], -1, mod)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = quo[i - db] = a[i] * inv % mod
        if c:
            k = i - db
            a[k:i] = [(x - c * y) % mod for x, y in zip(a[k:i], b)]
    return quo, _trim(a[:db])


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of the residue lists a and b over the field Z/p, by
    Euclid's algorithm; [] when both are zero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _plus(a: list[int], b: list[int], mod: int) -> list[int]:
    """a + b mod `mod`, coefficientwise."""
    return [(x + y) % mod for x, y in itertools.zip_longest(a, b, fillvalue=0)]


def _minus(a: list[int], b: list[int], mod: int | None = None) -> list[int]:
    """a - b, coefficientwise and reduced mod `mod` when it is given, with
    the trailing zeros dropped."""
    out = [x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    return _trim([c % mod for c in out] if mod else out)


def _euclid_below(a: list[int], b: list[int], k: int, mod: int):
    """(r, q) with r = q * b mod a and deg r < k, over the field Z/mod (a
    of degree >= k), by the extended Euclidean algorithm on a and b stopped
    at the first remainder of degree below k (Modern Computer Algebra,
    5.9): every pair with deg r < k and deg q <= deg a - k is a multiple
    of this one.  For coprime a and b and k = 1, r is a nonzero constant
    and q / r is the inverse of b mod a."""
    r0, r1, q0, q1 = a, _trim(b), [], [1]
    while len(r1) > k:
        quo, rem = _divmod_mod(r0, r1, mod)
        q0, q1 = q1, _minus(q0, _kronecker_product(((quo, 1), (q1, 1))), mod)
        r0, r1 = r1, rem
    return r1, q1


_GCD_PRIMES = (2305843009213693951, 4611686018427387847, 2147483647)


def _mod_gcd_is_one(a: list[int], b: list[int]) -> bool:
    """True if gcd over Q is provably 1, via a single modular image."""
    for p in _GCD_PRIMES:
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        return len(_gcd_mod([c % p for c in a], [c % p for c in b], p)) == 1
    return False


def _primitive(f) -> list[int]:
    """The nonzero integer list f divided by its content, with the sign
    that makes the leading coefficient positive."""
    c = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return list(f) if c == 1 else [x // c for x in f]


def _exact_gcd(a: list[int], b: list[int]) -> list[int] | None:
    """The gcd in Z[t], with a positive leading coefficient, of the
    primitive a (degree >= 1) and the nonzero b; None when the lift below
    fails.

    The gcd g_P of the images mod the least Mersenne prime P above
    Mignotte's bound 2 |lc a| 2^n ||a||_2 is lifted as lc(a) * g_P in
    symmetric residues and made primitive.  The true gcd g divides a, so
    lc(a) / lc(g) * g has coefficients below P / 2 (Mignotte); P does not
    divide lc(a), so g mod P keeps its degree and divides g_P.  A lift
    that divides both a and b is a common divisor of degree at least
    deg g, so it is the gcd; when deg g_P > deg g the lift cannot divide
    both, and the exact divisions say so."""
    lc = a[-1]
    mod = _lift_modulus(
        2 * abs(lc) * (isqrt(sum(c * c for c in a)) + 1) << len(a) - 1)
    if mod is None:
        return None
    g = _gcd_mod([c % mod for c in a], _trim([c % mod for c in b]), mod)
    g = _primitive(_symmetric([c * lc for c in g], mod))
    if _exact_quotient(a, g) is None or _exact_quotient(b, g) is None:
        return None
    return g


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[t].

    A modular pre-check certifies the (common) coprime case without exact
    big-integer arithmetic; otherwise the gcd of the primitive parts is
    lifted from one big prime and checked by exact division
    (`_exact_gcd`).  Only when that lift fails does Euclid's algorithm on
    the Polys decide.
    """
    if a.is_zero and b.is_zero:
        return Poly.zero()
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree < b.degree:
        a, b = b, a
    if b.degree == 0:
        return Poly.one()
    # each operand's nums on its own: a constant factor moves no gcd
    if _mod_gcd_is_one(a.nums, b.nums):
        return Poly.one()
    g = _exact_gcd(_primitive(a.nums), _primitive(b.nums))
    if g is not None:
        return _scaled(g, 1, g[-1])
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly.zero()
    return ((a * b) // poly_gcd(a, b)).monic()


# --- irreducible factorization ---------------------------------------------
#
# A primitive integer polynomial f has its repeated factors split off first,
# one way: g = gcd(f, f') (`poly_gcd`'s certificate and lift) holds each
# irreducible factor of f one time fewer than f does, so f / g is
# squarefree, and each factor's multiplicity is one more than the number of
# times it divides g.  The squarefree part is factored here, exactly, at
# primes p not dividing its leading coefficient where its image stays
# squarefree:
#
# - degree analysis (Musser, JACM 25, 1978): an integer factor of degree k
#   reduces to a product of irreducible factors mod p whose degrees add up
#   to k, so the degrees a factor can have lie in the subset sums of the
#   distinct-degree factorisation mod each such p; when those intersect to
#   {0, n}, f is irreducible;
# - otherwise Zassenhaus' recombination (J. Number Theory 1, 1969) at the
#   one prime p of the analysis with the fewest modular factors: its
#   distinct-degree factors are split (Cantor-Zassenhaus), the factors are
#   Hensel-lifted to q = p^k above 2 |lc f| 2^n ||f||_2 (Modern Computer
#   Algebra, 15.4-15.6), and an integer factor g, whose coefficients are at
#   most 2^deg g ||f||_2 (Mignotte), is read off as lc(f/g) * g, the
#   product of its modular factors times lc f in symmetric residues mod q;
#   each candidate is kept only if it divides exactly in Z[t].
#
# Nothing rests on probability, and the work is bounded (_SUBSET_BUDGET,
# _SPLIT_TRIES, _LAST_SPLIT_PRIME): an input past a bound raises InputTooLarge.

# the small primes of the degree analysis, and how many usable ones it takes
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97)
_DEGREE_PRIMES = 8
# the bound on the primes past them, tried when none of them is usable
_LAST_SPLIT_PRIME = 2 ** 16
# the points a tried for one equal-degree split
_SPLIT_TRIES = 32
# the most subsets of modular factors that recombination enumerates: every
# subset of at most 8 of 17 factors, which proves irreducible a polynomial
# with 17 modular factors that the degree analysis leaves open
_SUBSET_BUDGET = 2 ** 16


def _unpacked(x: int, k: int, n: int, p: int) -> list[int]:
    """The n base-2^k digits of x >= 0, lowest first, each reduced mod p."""
    mask = (1 << k) - 1
    return [(x >> i & mask) % p for i in range(0, k * n, k)]


class _ModRing:
    """Residues of Z/p[x] modulo a monic f of degree n >= 1.

    A product of two residues is one Kronecker-packed integer product.  Its
    low n digits stay packed, and each high digit, reduced mod p, adds its
    row of x^n, ..., x^(2n-2) mod f, packed the same way: one integer sum.
    A digit of the product is a sum of fewer than n products of residues,
    and a high digit adds fewer than n more, so the width k holds 2 n p^2.
    p is a prime of the degree analysis, below _LAST_SPLIT_PRIME, so its
    powers are short square-and-multiply chains (`power`).
    """

    def __init__(self, f: list[int], p: int):
        n = len(f) - 1
        self.p, self.n = p, n
        self.k = k = (2 * n * p * p).bit_length() + 1
        self.low_digits = (1 << k * n) - 1
        # x^n = tail mod f, and each row is x times the one before
        row, rows = [0] * (n - 1) + [1], []
        tail = [-c % p for c in f[:n]]
        for _ in range(n - 1):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(x + top * y) % p for x, y in zip(row, tail)]
            rows.append(_pack(row, k))
        self.rows = rows

    def _reduced(self, packed: int, top: int) -> list[int]:
        """The packed polynomial of degree below `top` <= 2n - 1 mod f, as
        residues."""
        n, k, p = self.n, self.k, self.p
        acc = packed & self.low_digits
        for c, row in zip(_unpacked(packed >> k * n, k, top - n, p),
                          self.rows):
            if c:
                acc += c * row
        return _trim(_unpacked(acc, k, n, p))

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        if not a or not b:
            return []
        k = self.k
        packed = _pack(a, k)
        packed *= packed if a is b else _pack(b, k)
        return self._reduced(packed, len(a) + len(b) - 1)

    def frobenius_base(self) -> list[int]:
        """The rows x^(ip) mod f, i < n, packed: the p-th power map is
        linear over Z/p, so h^p = sum h_i x^(ip)."""
        n, p, k = self.n, self.p, self.k
        if p < n:
            # x^(ip) is x^((i-1)p) shifted up by p digits
            rows, row = [], [1]
            for _ in range(n):
                rows.append(row)
                row = self._reduced(_pack(row, k) << k * p, len(row) + p)
        else:
            xp = power([0, 1], p, [1], self.mul)
            rows = [[1]]
            for _ in range(n - 1):
                rows.append(self.mul(rows[-1], xp))
        return [_pack(r, k) for r in rows]

    def frobenius(self, h: list[int], base: list[int]) -> list[int]:
        """h^p mod f, from the packed `frobenius_base`."""
        acc = 0
        for c, row in zip(h, base):
            if c:
                acc += c * row
        return _trim(_unpacked(acc, self.k, self.n, self.p))


def _monic_image(f, p: int) -> list[int]:
    """f mod p made monic, for p not dividing lc(f)."""
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _squarefree_mod(f: list[int], p: int) -> bool:
    """True when the residues f (of degree >= 1) are squarefree over Z/p."""
    der = _trim([i * c % p for i, c in enumerate(f)][1:])
    return len(_gcd_mod(f, der, p)) == 1


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """The distinct-degree factorisation of a monic squarefree f over Z/p:
    pairs (g, d), g the product of the irreducible factors of degree d.

    h = x^(p^d) mod f, and gcd(h - x, f) is the product of the irreducible
    factors of degree dividing d; those of lower degree are divided out
    already, and the gcd is taken with what is left of f, which divides f.
    What is left once 2d exceeds its degree is irreducible."""
    ring = _ModRing(f, p)
    base = ring.frobenius_base()
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = ring.frobenius(h, base)
        hx = h + [0] * (2 - len(h))
        hx[1] = (hx[1] - 1) % p
        g = _gcd_mod(f, _trim(hx), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(g: list[int], d: int, p: int) -> list[list[int]] | None:
    """The irreducible factors, each of degree d, of a monic g over Z/p
    (p odd) that is a product of distinct ones; None when the tries run
    out.

    For a residue a and e = (p^d - 1) / 2, a^e is +-1 or 0 modulo each
    factor, so gcd(a^e - 1, part) collects the factors of a part where it
    is 1; the parts are split again with the next a until each has degree
    d.  The c-th a is p + c in base p as a polynomial in x, mod g: x + c
    for c < p, and residues other than those p where p < _SPLIT_TRIES."""
    parts = [g]
    if len(g) - 1 == d:
        return parts
    ring = _ModRing(g, p)
    base = ring.frobenius_base()
    for c in range(_SPLIT_TRIES):
        a = [(p + c) // p ** i % p for i in range(4)]  # p + c < p^4
        # a^((p^d - 1) / 2) = (a^(1 + p + ... + p^(d-1)))^((p - 1) / 2)
        acc = frob = _divmod_mod(a, g, p)[1]
        for _ in range(d - 1):
            frob = ring.frobenius(frob, base)
            acc = ring.mul(acc, frob)
        b = power(acc, (p - 1) // 2, [1], ring.mul) or [0]
        b[0] = (b[0] - 1) % p
        b = _trim(b)
        split = []
        for part in parts:
            h = _gcd_mod(part, b, p) if len(part) - 1 > d else part
            if 1 < len(h) < len(part):
                split += [h, _divmod_mod(part, h, p)[0]]
            else:
                split.append(part)
        parts = split
        if all(len(part) - 1 == d for part in parts):
            return parts
    return None


def _subset_sums(degrees) -> int:
    """The subset sums of the degrees, as a bit mask."""
    mask = 1
    for d in degrees:
        mask |= mask << d
    return mask


def _recombined(f: list[int], mods: list[list[int]], mod: int,
                degrees: int) -> list[list[int]] | None:
    """The irreducible factors of the primitive f in Z[t] (positive leading
    coefficient), from its monic irreducible factors `mods` modulo `mod`,
    a prime power above twice the factor bound: subsets of growing size,
    those whose degree lies in the mask `degrees`, each tried by exact
    division; None once more than _SUBSET_BUDGET subsets are enumerated.
    A factor found from the fewest modular factors has no proper factor,
    since that would have been found first."""
    found, left, s = [], list(range(len(mods))), 1
    budget = _SUBSET_BUDGET
    while 2 * s <= len(left):
        for subset in itertools.combinations(left, s):
            budget -= 1
            if budget < 0:
                return None
            if not degrees >> sum(len(mods[i]) - 1 for i in subset) & 1:
                continue
            g = [f[-1]]
            for i in subset:
                g = [c % mod for c in _kronecker_product(((g, 1),
                                                          (mods[i], 1)))]
            g = _symmetric(g, mod)
            content = gcd(*g)
            g = [c // content for c in g]
            quo = _exact_quotient(f, g)
            if quo is not None:
                found.append(g)
                f = quo
                left = [i for i in left if i not in subset]
                break
        else:
            s += 1
    return found + [f]


def _hensel_lifted(f: list[int], mods: list[list[int]], p: int,
                   bound: int) -> tuple[list[list[int]], int]:
    """(lifts, q): the distinct monic irreducible factors `mods` of the
    primitive f over Z/p (p not dividing lc f) lifted to monic g_i with
    f = lc f * prod g_i mod q, q the least power of p above `bound`.

    Linear Hensel lifting (Modern Computer Algebra, 15.4): with F = f /
    lc f mod p, s_i = (F / m_i)^-1 mod m_i (`_euclid_below`) make sum s_i
    F / m_i = 1 mod p, and when f = lc f * prod g_i mod q, the error e =
    (f - lc f * prod g_i) / q mod p gives g_i + q (s_i e / lc f mod m_i)."""
    lc, image, cofactors = f[-1], _monic_image(f, p), []
    for m in mods:
        rest = _divmod_mod(_divmod_mod(image, m, p)[0], m, p)[1]
        r, s = _euclid_below(m, rest, 1, p)
        inv = pow(r[0], -1, p)
        cofactors.append([c * inv % p for c in s])
    inv_lc, q, lifts = pow(lc, -1, p), p, [list(m) for m in mods]
    while q <= bound:
        prod = _kronecker_product((g, 1) for g in lifts)
        err = _trim([(x - lc * y) // q * inv_lc % p for x, y in zip(f, prod)])
        if err:
            for m, s, g in zip(mods, cofactors, lifts):
                step = [c % p for c in _kronecker_product(((err, 1), (s, 1)))]
                for i, c in enumerate(_divmod_mod(step, m, p)[1]):
                    g[i] += q * c
        q *= p
    return lifts, q


def _factor_squarefree(f: list[int]) -> list[list[int]] | None:
    """The irreducible factors in Z[t] of the primitive squarefree f
    (lowest degree first, degree >= 1, positive leading coefficient), or
    None when a bound is reached.  A linear f is its own factor; otherwise
    the degree analysis runs on the small primes at which f stays
    squarefree (or the first such prime past them), and recombination on
    the one with the fewest modular factors (`_edf`, `_hensel_lifted`)."""
    n = len(f) - 1
    if n == 1:
        return [f]
    irreducible = 1 | 1 << n
    degrees, usable, best = (1 << n + 1) - 1, 0, (n + 1, 0, [])
    past = (p for p in range(_SMALL_PRIMES[-1] + 2, _LAST_SPLIT_PRIME, 2)
            if all(p % d for d in range(3, isqrt(p) + 1, 2)))
    for p in itertools.chain(_SMALL_PRIMES, past):
        if usable and p > _SMALL_PRIMES[-1]:
            break
        if not f[-1] % p:
            continue
        image = _monic_image(f, p)
        if not _squarefree_mod(image, p):
            continue
        usable += 1
        ddf = _ddf(image, p)
        parts = [d for g, d in ddf for _ in range((len(g) - 1) // d)]
        degrees &= _subset_sums(parts)
        if degrees == irreducible:
            return [f]
        best = min(best, (len(parts), p, ddf))
        if usable == _DEGREE_PRIMES:
            break
    _, p, ddf = best
    splits = [_edf(g, d, p) for g, d in ddf]
    if not ddf or None in splits:
        return None
    mods = [m for split in splits for m in split]
    bound = 2 * f[-1] * (isqrt(sum(c * c for c in f)) + 1) << n
    return _recombined(f, *_hensel_lifted(f, mods, p, bound), degrees)


def _squarefree_split(f: list[int]) -> tuple[list[int], list[int]]:
    """(g, f / g) for the integer list f of degree >= 1: g = gcd(f, f') in
    Z[t], primitive with a positive leading coefficient (`poly_gcd`, whose
    modular certificate usually proves g = 1 before any lift).  Over Q an
    irreducible factor of f of multiplicity m divides g exactly m - 1
    times, so f / g is the squarefree product of f's distinct irreducible
    factors."""
    g = _primitive(poly_gcd(_scaled(f, 1, 1), _scaled(
        [i * c for i, c in enumerate(f)][1:], 1, 1)).nums)
    return g, (f if len(g) == 1 else _exact_quotient(f, g))


@lru_cache(maxsize=8192)
def _factor_cached(prim: tuple[int, ...]) -> tuple:
    """The monic irreducible factors, with multiplicities, of the primitive
    integer polynomial `prim` (lowest degree first, positive leading
    coefficient), ordered by degree, multiplicity, then integer
    coefficients from the top.

    g = gcd(f, f') is split off first (`_squarefree_split`), f / g is
    factored by `_factor_squarefree`, and a factor's multiplicity is one
    more than the times it divides g (`_divided`).  An input whose
    squarefree part is declined raises InputTooLarge."""
    f = list(prim)
    g, squarefree = _squarefree_split(f)
    factors = _factor_squarefree(squarefree)
    if factors is None:
        raise InputTooLarge(
            f"factoring a polynomial of degree {len(f) - 1} is past the "
            f"factoriser's bounds: {_SUBSET_BUDGET} subsets of its modular "
            f"factors, {_SPLIT_TRIES} split tries and the primes below "
            f"{_LAST_SPLIT_PRIME}")
    factors = [(q, 1 + _divided(g, q, len(g))[1]) for q in factors]
    factors.sort(key=lambda gm: (len(gm[0]), gm[1], gm[0][::-1]))
    return tuple((_scaled(q, 1, q[-1]), m) for q, m in factors)


def factor_poly(p: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of p over Q, with multiplicities, ordered
    by degree, multiplicity, then coefficients (`_factor_cached`).

    The cache is keyed on the primitive part of p's nums with a positive
    leading coefficient, so p and every c * p share one entry."""
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    return list(_factor_cached(tuple(_primitive(p.nums))))


def is_irreducible(p: Poly) -> bool:
    if p.is_zero or p.degree < 1:
        return False
    facs = factor_poly(p)
    return len(facs) == 1 and facs[0][1] == 1


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Element of Q(t): coprime numerator/denominator, monic denominator.

    That normal form is unique, so `==` and `hash` compare the pairs.  The
    constructor reaches it with one gcd of the whole pair.  The arithmetic
    reaches it directly, by Henrici's reduced-fraction rules (Henrici,
    JACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1): it takes gcds only of the
    parts that can share a factor, and its result is normal by theorem,
    so it is built with `_trusted`, which skips the normalising gcd.  The
    facts used are those of the UFD Q[t]: a factor of a product of coprime
    parts splits into factors of the parts, and powers of coprime
    polynomials stay coprime.  Where the irreducible factors of a
    denominator are known in advance, `_known_quotient` reaches the normal
    form with no gcd at all.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = Poly.one()
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = Poly.zero(), Poly.one()
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        c = den.lc
        if c != 1:
            num = num.scale(1 / c)
            den = den.scale(1 / c)
        self.num, self.den = num, den

    def __reduce__(self):
        return (RatFunc, (self.num, self.den))

    @staticmethod
    def _trusted(num: Poly, den: Poly) -> "RatFunc":
        # For a coprime pair with a monic denominator; skips the normalising
        # gcd.  A zero numerator gets the denominator 1.
        f = object.__new__(RatFunc)
        f.num, f.den = num, den if num.nums else Poly.one()
        return f

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc._trusted(Poly.zero(), Poly.one())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc._trusted(Poly.one(), Poly.one())

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc._trusted(Poly.const(c), Poly.one())

    @staticmethod
    def t() -> "RatFunc":
        return RatFunc._trusted(Poly.t(), Poly.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant function")
        return self.num.constant_value()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        return RatFunc.const(other)

    def _plus(self, c: Poly, d: Poly) -> "RatFunc":
        """self + c/d, for c/d in normal form.

        With a/b = self and g = gcd(b, d), the sum is t / (b (d/g)) with
        t = a (d/g) + c (b/g).  A factor of b/g or of d/g divides one term
        of t and is coprime to the other, so only a factor of g can divide
        t and the denominator: h = gcd(t, g) is all there is to cancel.
        A constant (so monic: 1) denominator needs no gcd at all.
        """
        a, b = self.num, self.den
        if b.is_constant:
            return RatFunc._trusted(a + c if d.is_constant else a * d + c, d)
        if d.is_constant:
            return RatFunc._trusted(a + c * b, b)
        g = poly_gcd(b, d)
        if g.is_constant:
            return RatFunc._trusted(a * d + c * b, b * d)
        b_g, d_g = b // g, d // g
        t = a * d_g + c * b_g
        if not t.is_zero:
            h = poly_gcd(t, g)
            if not h.is_constant:
                t, d = t // h, d // h
        return RatFunc._trusted(t, b_g * d)

    def __add__(self, other):
        other = self._coerce(other)
        return self._plus(other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._trusted(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return self._plus(-other.num, other.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _times(self, c: Poly, d: Poly) -> "RatFunc":
        """self * c/d, for c coprime to a nonzero d (d need not be monic).

        With a/b = self, gcd(a, d) and gcd(c, b) are cancelled across; what
        is left of a and c is then coprime to what is left of b and d, and
        dividing both by lc(d) makes the denominator monic.
        """
        a, b = self.num, self.den
        if a.is_zero or c.is_zero:
            return RatFunc.zero()
        g = poly_gcd(a, d)
        if not g.is_constant:
            a, d = a // g, d // g
        g = poly_gcd(c, b)
        if not g.is_constant:
            c, b = c // g, b // g
        lc = d.lc
        if lc != 1:
            a, d = a.scale(1 / lc), d.scale(1 / lc)
        return RatFunc._trusted(a * c, b * d)

    def __mul__(self, other):
        other = self._coerce(other)
        return self._times(other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return self._times(other.den, other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n == 0:
            return RatFunc.one()
        base = self
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            base, n = RatFunc.one() / self, -n
        return RatFunc._trusted(base.num ** n, base.den ** n)

    def eval(self, x) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at t={x}")
        return self.num.eval(x) / d

    def __str__(self) -> str:
        return render_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({render_ratfunc(self)!r})"


def render_ratfunc(f: RatFunc) -> str:
    if f.den == Poly.one():
        return render_poly(f.num)
    return f"({render_poly(f.num)})/({render_poly(f.den)})"


# Images mod p: evaluating t at tau and reducing mod p is a ring
# homomorphism on the elements of Q(t) whose denominators stay nonzero
# there, so a nonzero image proves a nonzero value.
_CERT_PRIME = _GCD_PRIMES[0]
# points away from the small integers that places usually sit at
_CERT_POINTS = (982451653, 1000000007, 2147483629)


def _horner(ints, tau: int, p: int) -> int:
    """The integer polynomial `ints` (lowest degree first) at tau, mod p."""
    acc = 0
    for c in reversed(ints):
        acc = (acc * tau + c) % p
    return acc


def _image(f: RatFunc, tau: int, p: int) -> int | None:
    """f(tau) mod p, or None when a denominator vanishes there mod p.

    With f = (N / a) / (D / b) for the nums N, D and dens a, b of its
    parts, the image is N(tau) * b / (a * D(tau)); a prime divides a or b
    exactly when it divides the reduced denominator of some coefficient."""
    num, den = f.num, f.den
    if not num.den % p or not den.den % p:
        return None
    d = _horner(den.nums, tau, p)
    if not d:
        return None
    n = _horner(num.nums, tau, p)
    return n * den.den * pow(num.den * d, -1, p) % p


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------

@total_ordering
class _CoeffOrder:
    """The coefficients nums[i] / den of a place polynomial, ordered as the
    tuple of their Fractions, lowest degree first, on integers: both dens
    are positive, so a / d < b / e exactly when a * e < b * d, and the
    first index where the cross-multiplied nums differ decides.  A sort
    key compares two of these only for places of one degree."""

    __slots__ = ("nums", "den")

    def __init__(self, p: Poly):
        self.nums, self.den = p.nums, p.den

    def __eq__(self, other) -> bool:
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __lt__(self, other) -> bool:
        d, e = self.den, other.den
        for a, b in zip(self.nums, other.nums):
            a, b = a * e, b * d
            if a != b:
                return a < b
        return False


@dataclass(frozen=True)
class Place:
    """Closed point of the projective line over Q.

    ``poly`` is a monic irreducible polynomial for a finite place, or None
    for the point at infinity.  ``geom_degree`` counts the conjugate
    geometric points the place carries.
    """

    poly: Poly | None

    @staticmethod
    def infinity() -> "Place":
        return Place(None)

    @staticmethod
    def finite(p: Poly) -> "Place":
        if p.is_zero or p.degree < 1:
            raise NotIrreducible("a finite place needs degree >= 1")
        p = p.monic()
        if p.degree > PLACE_DEGREE_CAP:
            raise PlaceDegreeTooLarge(
                f"degree {p.degree} exceeds the cap {PLACE_DEGREE_CAP}")
        if not is_irreducible(p):
            raise NotIrreducible(f"{render_poly(p)} is reducible over Q")
        return Place(p)

    @staticmethod
    def rational(a) -> "Place":
        """The place t - a for a rational number a."""
        return Place(Poly((-Fraction(a), Fraction(1))))

    @staticmethod
    def _trusted(p: Poly) -> "Place":
        # For factorization output, already known irreducible; skips the
        # validation and the degree cap.
        return Place(p.monic())

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def geom_degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass's hash, found once per place: every exponent-map
        # lookup hashes its places
        return hash((self.poly,))

    def __reduce__(self):
        # rebuilt from its polynomial, so no cached value travels in a
        # pickle: hash(None), the place at infinity's, differs between
        # processes on CPython 3.11
        return (Place, (self.poly,))

    def sort_key(self):
        return self._sort_key

    @cached_property
    def _sort_key(self):
        # Total order: finite before infinity; finite places by degree,
        # degree-1 places by their root, higher degrees by coefficients
        # from the lowest (`_CoeffOrder`, on the place's integers).  Built
        # once per place.
        if self.poly is None:
            return (1, 0, ())
        if self.poly.degree == 1:
            return (0, 1, (-self.poly.coeff(0),))
        return (0, self.poly.degree, _CoeffOrder(self.poly))

    def __str__(self) -> str:
        return self._str

    @cached_property
    def _str(self) -> str:
        # rendered once per place: a report names a place in several fields
        if self.poly is None:
            return "inf"
        if self.poly.degree == 1:
            return str(-self.poly.coeff(0))
        return render_poly(self.poly)

    def __repr__(self) -> str:
        return f"Place({str(self)!r})"


# ---------------------------------------------------------------------------
# Orders, heights, divisors of functions
# ---------------------------------------------------------------------------

def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[t] for a nonzero a and a primitive b, or None when b does
    not divide a.

    By Gauss's lemma a primitive b that divides a over Q divides it over Z,
    so a step whose leading coefficient lc(b) does not divide is a
    certificate that b does not divide a, and the division stops there;
    otherwise it runs to the remainder.
    """
    n, m = len(b) - 1, len(a) - 1
    if m < n:
        return None
    lc = b[-1]
    r = list(a)
    q = [0] * (m - n + 1)
    for i in range(m, n - 1, -1):
        c = r[i]
        if c:
            c, rest = divmod(c, lc)
            if rest:
                return None
            q[i - n] = c
            for j in range(n):
                r[i - n + j] -= c * b[j]
    return None if any(r[:n]) else q


# the nums of the place t: dividing by it drops a zero low coefficient
_T_NUMS = (0, 1)


def _low_zeros(a) -> int:
    """The number of zero low coefficients of a nonzero integer list, the
    multiplicity of t in it."""
    n = 0
    while not a[n]:
        n += 1
    return n


def _homogeneous_value(a, u: int, v: int) -> int:
    """v^n a(u/v) for the integer list a of length n + 1, lowest degree
    first: the Horner sum of a_i u^i v^(n-i), exact, on integers.  At
    u/v = -b0/b1 it is zero exactly when b0 + b1 t divides a."""
    if u == 1 and v == 1:
        return sum(a)
    value, power = 0, 1
    for c in reversed(a):
        value = value * u + c * power
        power *= v
    return value


def _divided(a, b, cap: int):
    """The nonzero integer list a divided by the primitive b as often as it
    goes, at most cap times, with the number of times it went.

    The place t goes out as one slice of a's zero low coefficients.  Any
    other linear b = b0 + b1 t is first tested by its value at -b0/b1
    (`_homogeneous_value`): a nonzero value proves that b does not divide
    a, so no division runs, and only a zero value goes on to
    `_exact_quotient`.
    A b of higher degree is tried by `_exact_quotient` until it no longer
    goes."""
    if len(b) == 2:
        b0, b1 = b
        if not b0 and b1 == 1:
            k = min(cap, _low_zeros(a))
            return a[k:], k
        k = 0
        while k < cap and not _homogeneous_value(a, -b0, b1):
            a = _exact_quotient(a, b)
            k += 1
        return a, k
    k = 0
    while k < cap and (quot := _exact_quotient(a, b)) is not None:
        a = quot
        k += 1
    return a, k


def _divide_out(p: Poly, qs) -> tuple[Poly, list[int]]:
    """p divided by each nonconstant monic q of `qs`, in turn, as often as
    it goes, with the number of times each went.

    p is A / L (its nums and den) and stays in Z[t]: each q is P / L_q in
    the same way, and P is primitive (a prime dividing every coefficient of
    P would divide its leading coefficient L_q, and gcd(L_q, *P) = 1), so
    dividing by q^m is dividing A by P^m over Z (`_divided`, which tests a
    linear P by its value before it divides) and lifting by L_q^m.
    """
    counts = [0] * len(qs)
    if p.is_zero:
        return p, counts
    a, lift = p.nums, p.den
    scale = 1
    for k, q in enumerate(qs):
        # each division shortens a, so the cap len(a) never binds
        a, counts[k] = _divided(a, q.nums, len(a))
        scale *= q.den ** counts[k]
    return (_scaled(a, scale, lift) if any(counts) else p), counts


def _known_quotient(a, lift: int, den) -> tuple[RatFunc, list[int], list[int]]:
    """The value a / lift / prod q^m over the pairs (q, m) of the sequence
    `den`, in normal form, for a nonzero integer list a (lowest degree
    first) and an integer lift != 0; each q monic irreducible, no two
    equal, and m >= 1.  Returned with the quotient of a in Z[t] that it
    comes from and the number of times each q went out of a.

    Only a factor of the denominator can cancel, so no gcd is needed: each
    q is divided out of a, on integers as in `_divide_out`, until it no
    longer goes or m times (`_divided`); a linear q that does not divide
    is told by its value, with no trial division.  What is left of a q
    that stopped short is coprime to what is left of a, and the distinct q
    are coprime to each other, so the pair is normal by theorem.  The
    denominator is one integer product of the primitive P's that remain,
    and its leading coefficient is the product of their lifts: it comes
    out monic.
    """
    scale = down_lift = 1
    down, counts = [], []
    for q, m in den:
        a, k = _divided(a, q.nums, m)
        scale *= q.den ** k
        counts.append(k)
        if k < m:
            down.append((q.nums, m - k))
            down_lift *= q.den ** (m - k)
    return (RatFunc._trusted(_scaled(a, scale, lift),
                             _den_product(tuple(down), down_lift)),
            a, counts)


@lru_cache(maxsize=1024)
def _den_product(down: tuple, lift: int) -> Poly:
    """The monic Poly prod P^m / lift over the pairs (P, m) of `down`, P a
    primitive integer tuple and lift the product of the leading
    coefficients; one `_kronecker_product` per distinct product.  Most
    denominators of an audit repeat: a handful of products of the places
    of S cover nearly every coefficient."""
    return _scaled(_kronecker_product(down), 1, lift)


def _multiplicity(p: Poly, q: Poly) -> int:
    """Multiplicity of the monic factor q in p."""
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial")
    return _divide_out(p, (q,))[1][0]


def ord_at(f: RatFunc, p: Place) -> int:
    """Order of vanishing of f at the place p (negative at poles)."""
    if f.is_zero:
        raise ZeroFunction("order of the zero function is undefined")
    if p.is_infinity:
        return f.den.degree - f.num.degree
    return _multiplicity(f.num, p.poly) - _multiplicity(f.den, p.poly)


def height(f: RatFunc) -> int:
    """Height of f: its degree as a map to the projective line.

    Equals max(deg num, deg den), and also the geometric count of zeros
    (= of poles).
    """
    if f.is_zero:
        raise ZeroFunction("the zero function has no height")
    return max(f.num.degree, f.den.degree)


def proj_height(fs) -> int:
    """Projective height of a tuple: -sum over places of the minimal order.

    Zero entries are allowed (treated as order +infinity) as long as one
    entry is nonzero.
    """
    nonzero = [f for f in fs if not f.is_zero]
    if not nonzero:
        raise AllZero("projective height needs a nonzero entry")
    ints, _ = clear_denominators(dict(enumerate(nonzero)))
    g = Poly.zero()
    for n in ints.values():
        g = poly_gcd(g, Poly(n))
        if g.degree == 0:
            break
    return max(len(n) for n in ints.values()) - 1 - g.degree


def divisor_of(f: RatFunc) -> dict[Place, int]:
    """Principal divisor of a nonzero rational function: its nonzero order
    at each place, of degree zero."""
    if f.is_zero:
        raise ZeroFunction("the zero function has no divisor")
    div = {Place._trusted(q): m for q, m in factor_poly(f.num)}
    for q, m in factor_poly(f.den):
        div[Place._trusted(q)] = -m
    inf_ord = f.den.degree - f.num.degree
    if inf_ord:
        div[Place.infinity()] = inf_ord
    assert sum(c * p.geom_degree for p, c in div.items()) == 0
    return div


# ---------------------------------------------------------------------------
# The two-pole differential form and the derivation it defines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaForm:
    """A differential form dt/q(t) with exactly two simple geometric poles.

    The polar places (total geometric degree 2) must lie inside the place
    set it was chosen for; q is the product of the finite polar places, so
    a polar pair (a, inf) gives q = t - a.  Both poles at infinity would
    mean q = 1 and a double pole there, which is rejected.
    """

    polar_places: tuple[Place, ...]
    denominator: Poly

    def __post_init__(self):
        total = sum(p.geom_degree for p in self.polar_places)
        if total != 2:
            raise ValueError("polar places must have total geometric degree 2")
        if all(p.is_infinity for p in self.polar_places):
            raise ValueError("a double pole at infinity is not simple")

    def __str__(self) -> str:
        return f"dt/({render_poly(self.denominator)})"


def choose_omega(places) -> OmegaForm:
    """Deterministically pick a two-simple-pole form with poles inside S.

    The poles are the least finite place of degree 1 with infinity when
    infinity is in S, else the two least finite places of degree 1, else
    the least place of degree 2, least in the canonical place order.
    """
    place_list = sorted(set(places), key=lambda p: p.sort_key())
    finite1 = [p for p in place_list if not p.is_infinity and p.geom_degree == 1]
    if finite1 and any(p.is_infinity for p in place_list):
        return OmegaForm((finite1[0], Place.infinity()), finite1[0].poly)
    if len(finite1) >= 2:
        p, q = finite1[:2]
        return OmegaForm((p, q), p.poly * q.poly)
    for p in place_list:
        # infinity has degree 1, so a place of degree 2 is finite
        if p.geom_degree == 2:
            return OmegaForm((p,), p.poly)
    raise STooSmall(
        "need total geometric degree >= 2 with a representable polar pair")
