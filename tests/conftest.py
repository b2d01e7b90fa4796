"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: order sums
and truncated counts are recomputed from a full sympy factorization,
projective heights from the per-place definition, rendered polynomials
term by term, S-unit expansions by the Fraction schoolbook,
`Poly` products and divisions by the Fraction schoolbook, the other `Poly` operations by sympy over QQ
(`to_sympy` and `from_sympy`), `RatFunc` arithmetic by the unreduced
pair fed to the normalising constructor, vanishing subsums by summing
every subset over sympy polynomials, multiplicative dependence by every
2x2 minor of the exponent vectors, resultants (BiPolys in the variable
left) by sympy's subresultant PRS over Z[X, Y, t], rational roots by the
rational-root method over Q[t] with synthetic division, factorisations
over Q by sympy's Zassenhaus over ZZ, cleared denominators by sympy's
lcm and `clear_denoms`, audit step 1 by the coefficient-ratio scan it
replaced, and the irreducibility audit by
building each specialisation as a sympy expression coefficient by
coefficient.  Three are the library's own former code, kept as oracles:
`deriv_omega`, the derivation against a two-pole form,
`log_derivative`, the harness of `sunits._log_derivative_num`, and
`oracle_choose_omega`, the ranking of candidate polar pairs that
`field_core.choose_omega` replaced.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import sympy

from ffvojta.bipoly import _AUDIT_TRIALS
from ffvojta.field_core import (OmegaForm, Place, Poly, RatFunc, STooSmall,
                                _known_quotient)
from ffvojta.sunits import PlaceSet, SUnit, _log_derivative_num


def rat(expr: str) -> RatFunc:
    from ffvojta.parser import parse_ratfunc

    return parse_ratfunc(expr)


def bi(expr: str):
    from ffvojta.parser import parse_bipoly

    return parse_bipoly(expr)


def rand_poly(rng: random.Random, max_deg: int, zero_ok: bool = False) -> Poly:
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                  for _ in range(deg + 1)]
        p = Poly(coeffs)
        if zero_ok or not p.is_zero:
            return p


def rand_ratfunc(rng: random.Random, max_deg: int = 3) -> RatFunc:
    num = rand_poly(rng, max_deg)
    den = rand_poly(rng, max_deg)
    return RatFunc(num, den)


SYMPY_T = sympy.Symbol("t")


def to_sympy(p: Poly):
    return sympy.Poly(
        [sympy_rational(c) for c in reversed(p.coeffs)]
        or [0],
        SYMPY_T, domain="QQ")


def sympy_rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def from_sympy(p) -> Poly:
    """A sympy.Poly over QQ in t as a Poly."""
    return Poly([Fraction(c.p, c.q) for c in reversed(p.all_coeffs())])


def sympy_factor_multiplicities(p: Poly) -> list[tuple[Poly, int]]:
    """Full irreducible factorization via sympy, monic factors."""
    _, factors = to_sympy(p).factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append((Poly(coeffs).monic(), int(mult)))
    return out


def oracle_factor(p: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of p over Q with multiplicities, in the
    order of sympy's Zassenhaus factoriser (`dup_factor_list` over ZZ on
    p's integers)."""
    from sympy import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list(list(p.nums[::-1]), ZZ)
    return [(Poly(f[::-1]).monic(), m) for f, m in factors]


def oracle_trunc_per_place(f: RatFunc, S: PlaceSet) -> dict:
    """Brute-force ord - 1 at each place outside S where f has a multiple
    zero, from the full factorization: a finite place keyed by the coeffs
    of its monic polynomial, infinity by None."""
    s_finite = {p.poly.coeffs for p in S.finite_places()}
    per = {}
    for fac, m in sympy_factor_multiplicities(f.num):
        if fac.coeffs not in s_finite and m >= 2:
            per[fac.coeffs] = m - 1
    if not S.has_infinity:
        inf_ord = f.den.degree - f.num.degree
        if inf_ord >= 2:
            per[None] = inf_ord - 1
    return per


def oracle_trunc_count(f: RatFunc, S: PlaceSet) -> int:
    """Brute-force truncated count: each place's ord - 1, weighted by its
    degree."""
    return sum(c * (1 if key is None else len(key) - 1)
               for key, c in oracle_trunc_per_place(f, S).items())


def oracle_min_ord_sum(f: RatFunc, g: RatFunc, S: PlaceSet) -> int:
    """Brute-force min-order sum from the full factorizations."""
    s_finite = {p.poly.coeffs for p in S.finite_places()}
    mf = {fac.coeffs: m for fac, m in sympy_factor_multiplicities(f.num)}
    mg = {fac.coeffs: m for fac, m in sympy_factor_multiplicities(g.num)}
    total = 0
    for key, m in mf.items():
        if key in s_finite or key not in mg:
            continue
        total += min(m, mg[key]) * (len(key) - 1)
    if not S.has_infinity:
        total += min(f.den.degree - f.num.degree, g.den.degree - g.num.degree)
    return total


def oracle_vanishing_subsum(terms: list[RatFunc]) -> tuple[int, ...] | None:
    """Least-mask proper nonempty subset with an exactly zero sum, or None.

    Brute force over every subset in sympy: a subsum vanishes iff the sum
    of each numerator times the other denominators is the zero polynomial.
    """
    pairs = [(to_sympy(f.num), to_sympy(f.den)) for f in terms]
    n = len(pairs)
    for mask in range(1, (1 << n) - 1):
        subset = [i for i in range(n) if mask >> i & 1]
        total = sympy.Poly(0, SYMPY_T, domain="QQ")
        for i in subset:
            part = pairs[i][0]
            for j in subset:
                if j != i:
                    part = part * pairs[j][1]
            total = total + part
        if total.is_zero:
            return tuple(subset)
    return None


def oracle_resultant(A, B, main: str):
    """Res_main(A, B) by sympy's subresultant PRS on the inputs cleared to
    da*A and db*B over Z[X, Y, t]: Res(da*A, db*B) = da^n * db^m * Res(A, B)
    for the main-degrees m of A and n of B.  The clearing is sympy's own:
    each input times the lcm of its denominators, then `clear_denoms`.
    Returned as a BiPoly in the other variable alone."""
    from ffvojta.bipoly import BiPoly

    X, Y = sympy.symbols("X Y")
    gens = (X, Y, SYMPY_T) if main == "x" else (Y, X, SYMPY_T)

    def cleared(F):
        d = reduce(lambda p, q: p.lcm(q),
                   (to_sympy(c.den) for c in F.coeffs.values()))
        expr = sum((to_sympy(c.num) * d.exquo(to_sympy(c.den))).as_expr()
                   * X ** i * Y ** j for (i, j), c in F.coeffs.items())
        k, p = sympy.Poly(expr, *gens, domain="QQ").clear_denoms(convert=True)
        return p, d * k

    pa, da = cleared(A)
    pb, db = cleared(B)
    m, n = pa.degree(gens[0]), pb.degree(gens[0])
    # Res(A, B) = (-1)^(m n) Res(B, A); the larger degree goes first, because
    # sympy 1.14's PRS returns the wrong sign for main-degrees (1, 3)
    res = pa.resultant(pb) if m >= n else pb.resultant(pa) * (-1) ** (m * n)
    den = from_sympy(da ** n * db ** m)
    coeffs = {}
    for (e,), c in sympy.Poly(res.as_expr(), gens[1]).terms():
        num = from_sympy(sympy.Poly(c, SYMPY_T, domain="QQ"))
        coeffs[(0, e) if main == "x" else (e, 0)] = RatFunc(num, den)
    return BiPoly(coeffs)


def oracle_mult_dependence(u, v):
    """Multiplicative dependence of two S-units by every 2x2 minor of
    their exponent vectors, the kernel pair read off their common
    primitive direction."""
    from ffvojta.sunits import DependenceResult

    places = sorted({p for p, _ in u.exponents} | {p for p, _ in v.exponents},
                    key=lambda p: p.sort_key())
    eu, ev = u.exponent_map(), v.exponent_map()
    a = [eu.get(p, 0) for p in places]
    b = [ev.get(p, 0) for p in places]

    def result(r: int, s: int):
        gamma = Fraction(u.constant) ** r * Fraction(v.constant) ** s
        return DependenceResult.of(r, s, RatFunc.const(gamma))

    if not any(a) and not any(b):
        return result(1, -1)
    if not any(a):
        return result(1, 0)
    if not any(b):
        return result(0, 1)
    for i in range(len(places)):
        for j in range(i + 1, len(places)):
            if a[i] * b[j] - a[j] * b[i] != 0:
                return DependenceResult.independent()
    g = 0
    for x in a:
        g = gcd(g, x)
    direction = [x // g for x in a]
    k = next(i for i, x in enumerate(direction) if x)
    r, s = b[k] // direction[k], -(a[k] // direction[k])
    g = gcd(r, s)
    r, s = r // g, s // g
    if r < 0 or (r == 0 and s < 0):
        r, s = -r, -s
    return result(r, s)


ORACLE_ROOT_DEGREE_CAP = 12


def oracle_rational_roots(F) -> tuple[list[RatFunc], bool]:
    """Roots in Q(t) of a nonzero BiPoly F in one variable Z (X or Y), with
    multiplicity, by trial division.

    A root p/q in lowest terms has its monic parts dividing the trailing
    and leading coefficients of F cleared to Q[t][Z]; the constant is
    pinned by specialising t.  Each candidate alpha is divided out of F by
    synthetic division by Z - alpha as often as it goes.  Extreme
    coefficients of t-degree above ORACLE_ROOT_DEGREE_CAP give up: the
    roots found so far, flag False.
    """
    from ffvojta.field_core import poly_lcm

    def monic_divisors(p: Poly) -> list[Poly]:
        divs = [Poly.one()]
        for q, m in sympy_factor_multiplicities(p):
            divs = [d * q ** k for d in divs for k in range(m + 1)]
        return divs

    axis = 1 if F.deg_y else 0
    by_degree = {ij[axis]: c for ij, c in F.coeffs.items()}
    coeffs = [by_degree.get(k, RatFunc.zero()) for k in range(max(by_degree) + 1)]
    k = 0
    while coeffs[k].is_zero:
        k += 1
    roots = [RatFunc.zero()] * k
    coeffs = coeffs[k:]
    if len(coeffs) == 1:
        return roots, True
    den = Poly.one()
    for c in coeffs:
        den = poly_lcm(den, c.den)
    polys = [(c * RatFunc(den)).num for c in coeffs]
    a0, ad = polys[0], polys[-1]
    if max(a0.degree, ad.degree) > ORACLE_ROOT_DEGREE_CAP:
        return roots, False
    tau = next(Fraction(x) for x in range(1, 1000)
               if a0.eval(x) != 0 and ad.eval(x) != 0)
    spec = Poly([p.eval(tau) for p in polys])
    spec_roots = {-q.coeffs[0] for q, _ in sympy_factor_multiplicities(spec)
                  if q.degree == 1}
    candidates = set()
    for p_hat in monic_divisors(a0):
        for q_hat in monic_divisors(ad):
            for rho in spec_roots:
                c = rho * q_hat.eval(tau) / p_hat.eval(tau)
                if c != 0:
                    candidates.add(RatFunc(p_hat.scale(c), q_hat))
    for alpha in sorted(candidates, key=lambda r: (r.num.coeffs, r.den.coeffs)):
        while len(coeffs) > 1:
            # the quotient by Z - alpha from the top down; the remainder
            # is the value at alpha
            quot = [coeffs[-1]]
            for c in reversed(coeffs[1:-1]):
                quot.append(c + alpha * quot[-1])
            if not (coeffs[0] + alpha * quot[-1]).is_zero:
                break
            coeffs = quot[::-1]
            roots.append(alpha)
    return roots, len(coeffs) == 1


def oracle_irreducibility_audit(A, seed: int = 0) -> bool:
    """The specialisation audit with the same draws, each specialisation
    built term by term over QQ; a tau at which a coefficient has a pole is
    skipped."""
    rng = random.Random(f"irred-audit:{seed}")
    X, Y = sympy.symbols("X Y")
    for _ in range(_AUDIT_TRIALS):
        tau = Fraction(rng.randint(2, 50), rng.randint(1, 7))
        try:
            expr = sympy.Integer(0)
            for (i, j), c in A.coeffs.items():
                expr += sympy.Rational(str(c.eval(tau))) * X ** i * Y ** j
        except ZeroDivisionError:
            continue
        poly = sympy.Poly(expr, X, Y, domain="QQ")
        if poly.degree(X) != A.deg_x or poly.degree(Y) != A.deg_y:
            continue
        _, factors = poly.factor_list()
        if len(factors) == 1 and factors[0][1] == 1:
            return True
    return False


def oracle_poly_mul(a: Poly, b: Poly) -> Poly:
    """a * b by the schoolbook over Fraction coefficients."""
    if a.is_zero or b.is_zero:
        return Poly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(out)


def oracle_poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """divmod(a, b) by long division over Fraction coefficients."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    d = b.degree
    if len(rem) - 1 < d:
        return Poly(), a
    quot = [Fraction(0)] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        q = rem[i] / b.lc
        quot[i - d] = q
        for j, c in enumerate(b.coeffs):
            rem[i - d + j] -= q * c
    return Poly(quot), Poly(rem)


def oracle_divide_out(p: Poly, q: Poly) -> tuple[Poly, int]:
    """p divided by q as often as the division is exact, and how often."""
    m = 0
    while p.degree >= q.degree:
        quot, rem = oracle_poly_divmod(p, q)
        if not rem.is_zero:
            break
        p, m = quot, m + 1
    return p, m


def oracle_clear_denominators(coeffs) -> tuple[dict, Poly]:
    """`field_core.clear_denominators` by sympy: the lcm of the
    denominators over QQ (monic), each value times its cofactor as one
    sympy Poly in t and a key variable K, and the integer scale by
    `clear_denoms`, as `oracle_resultant` clears its inputs."""
    K = sympy.Symbol("K")
    pairs = [(c.num, c.den) if isinstance(c, RatFunc) else (c, Poly.one())
             for c in coeffs.values()]
    d = reduce(lambda p, q: p.lcm(q), (to_sympy(q) for _, q in pairs),
               to_sympy(Poly.one()))
    expr = sum((to_sympy(n) * d.exquo(to_sympy(q))).as_expr() * K ** k
               for k, (n, q) in enumerate(pairs))
    scale, cleared = sympy.Poly(expr, SYMPY_T, K, domain="QQ").clear_denoms(
        convert=True)
    terms = cleared.as_dict()
    ints = {}
    for k, key in enumerate(coeffs):
        deg = max((e for e, kk in terms if kk == k), default=-1)
        ints[key] = [int(terms.get((e, k), 0)) for e in range(deg + 1)]
    return ints, from_sympy(d * int(scale))


def oracle_proportional(A, B) -> bool:
    """Whether B = c * A for some c in Q(t), or B = 0, by a scan of the
    coefficient ratios: B's support lies inside A's, and every coefficient
    of B is A's times the ratio at A's least monomial.  This is the test
    that audit step 1 ran before it read coprimality off Res_Y(A, B)."""
    if B.is_zero:
        return True
    if not all(ij in A.coeffs for ij in B.coeffs):
        return False
    base = min(A.coeffs)
    ratio = B.coeff(*base) / A.coeff(*base)
    return all(B.coeff(i, j) == A.coeff(i, j) * ratio for (i, j) in A.coeffs)


def oracle_as_ratfunc(u) -> RatFunc:
    """An S-unit expanded by the Fraction schoolbook (`oracle_poly_mul`):
    the constant times each place polynomial, multiplied in |e| times above
    or below the line, then put in normal form by `RatFunc`.  No `Poly`
    product runs, so the integer kernel is not checked against itself."""
    num, den = Poly.const(u.constant), Poly.one()
    for p, e in u.exponents:
        for _ in range(abs(e)):
            if e > 0:
                num = oracle_poly_mul(num, p.poly)
            else:
                den = oracle_poly_mul(den, p.poly)
    return RatFunc(num, den)


def deriv_omega(f: RatFunc, w: OmegaForm) -> RatFunc:
    """Derivative of f against the form: the unique f' with d(f) = f' * w,
    the t-derivative (num' den - num den') / den^2 times the form's
    denominator."""
    num, den = f.num, f.den
    return (RatFunc(num.derivative() * den - num * den.derivative(), den * den)
            * RatFunc(w.denominator))


def oracle_choose_omega(places) -> OmegaForm:
    """The two-pole form by ranking every candidate polar pair on (degree
    of the denominator, polar places in the canonical place order): each
    finite place of degree 1 with infinity, each two finite places of
    degree 1, each finite place of degree 2; STooSmall when there is none."""
    place_list = sorted(set(places), key=lambda p: p.sort_key())
    finite1 = [p for p in place_list if not p.is_infinity and p.geom_degree == 1]
    finite2 = [p for p in place_list if not p.is_infinity and p.geom_degree == 2]
    has_inf = any(p.is_infinity for p in place_list)

    candidates = []
    if has_inf:
        for p in finite1:
            polar = (p, Place.infinity())
            candidates.append(
                ((p.poly.degree, tuple(q.sort_key() for q in polar)), p.poly, polar))
    for p, q in itertools.combinations(finite1, 2):
        polar = (p, q)
        candidates.append(
            ((2, tuple(r.sort_key() for r in polar)), p.poly * q.poly, polar))
    for p in finite2:
        polar = (p,)
        candidates.append(((2, (p.sort_key(),)), p.poly, polar))

    if not candidates:
        raise STooSmall(
            "need total geometric degree >= 2 with a representable polar pair")
    key, den, polar = min(candidates, key=lambda c: c[0])
    return OmegaForm(polar, den.monic())


def over_known_den(num: Poly, den) -> RatFunc:
    """num / prod q^m over the pairs (q, m) of `den`, in normal form, by
    `field_core._known_quotient`: each q monic irreducible, no two equal,
    m >= 1."""
    if num.is_zero:
        return RatFunc.zero()
    return _known_quotient(num.nums, num.den, den)[0]


def log_derivative(u: SUnit, w: OmegaForm) -> RatFunc:
    """The function d(u)/u measured against the form w.

    For u = c * prod P^e this is q * sum e P'/P with q the form's
    denominator, so it is N / D with D the product of the places P of u
    (`_log_derivative_num`).  Only a P can cancel, at most once, and it
    does exactly when P divides q; `over_known_den` takes the
    pair to its normal form without a gcd.  With the form's poles inside S
    it has only simple poles and height at most the Euler characteristic
    of the complement of S.
    """
    places = [p.poly for p, _ in u.exponents]
    return over_known_den(_log_derivative_num(u, w.denominator, places),
                           [(r, 1) for r in places])


def oracle_render_poly(p: Poly) -> str:
    """A polynomial in the expression grammar, term by term from the
    highest: each coefficient reduced to n/d and formatted with its own
    sign, head and power of t."""
    if p.is_zero:
        return "0"
    parts = []
    den = p.den
    for i in range(p.degree, -1, -1):
        n = p.nums[i]
        if not n:
            continue
        d = den
        if d != 1:
            g = gcd(n, d)
            n, d = n // g, d // g
        negative = n < 0
        if negative:
            n = -n
        mag = str(n) if d == 1 else f"{n}/{d}"
        if i == 0:
            body = mag
        else:
            head = "" if n == 1 and d == 1 else f"{mag}*"
            body = f"{head}t" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


def oracle_ratfunc_op(op: str, f: RatFunc, g) -> RatFunc:
    """f op g (g an int exponent for "**") by the textbook formula: the
    unreduced pair, fed to the normalising constructor `RatFunc(num, den)`,
    which divides out the gcd of the whole pair."""
    a, b = f.num, f.den
    if op == "**":
        if g == 0:
            return RatFunc.one()
        if g < 0:
            a, b, g = b, a, -g
        return RatFunc(a ** g, b ** g)
    c, d = g.num, g.den
    if op == "+":
        return RatFunc(a * d + c * b, b * d)
    if op == "-":
        return RatFunc(a * d - c * b, b * d)
    if op == "*":
        return RatFunc(a * c, b * d)
    if op == "/":
        return RatFunc(a * d, b * c)
    raise ValueError(f"unknown operation {op!r}")


def oracle_proj_height(fs) -> int:
    """Projective height from the per-place definition."""
    from ffvojta.field_core import divisor_of, ord_at

    places = set()
    for f in fs:
        if not f.is_zero and not f.is_constant:
            places.update(divisor_of(f))
    total = 0
    for p in places:
        orders = [ord_at(f, p) for f in fs if not f.is_zero]
        total += p.geom_degree * min(orders)
    return -total


# place sets beyond the rational ones with infinity: the degree-2 places
# t^2 + 1 and t^2 + t + 1, and sets without infinity, where a unit's
# exponents balance and both poles of the chosen form are finite
ODD_PLACE_SETS = (
    PlaceSet.of(Poly((1, 0, 1)), "inf"),
    PlaceSet.of(0, Poly((1, 0, 1)), "inf"),
    PlaceSet.of(0, 1, Poly((1, 0, 1))),
    PlaceSet.of(Fraction(1, 2), -1, 3),
    PlaceSet.of(Poly((1, 0, 1)), Poly((1, 1, 1))),
)


def unit_over(S: PlaceSet, rng: random.Random, max_exp: int):
    """One random valid S-unit (exponents balanced when needed)."""
    from ffvojta.sunits import SUnit

    finite = S.finite_places()
    while True:
        exps = {p: rng.randint(-max_exp, max_exp) for p in finite}
        if S.has_infinity or sum(e * p.geom_degree for p, e in exps.items()) == 0:
            break
    const = Fraction(rng.choice((1, -1, 2, -2, 3, 5)),
                     rng.choice((1, 1, 2, 3)))
    return SUnit.make(const, exps, S)
