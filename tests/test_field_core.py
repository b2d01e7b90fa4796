import operator
import pickle
import random
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from ffvojta.counting import strip_set_factors
from ffvojta.field_core import (
    AllZero,
    InputTooLarge,
    NotIrreducible,
    OmegaForm,
    Place,
    PlaceDegreeTooLarge,
    Poly,
    RatFunc,
    STooSmall,
    ZeroFunction,
    ZeroPolynomial,
    _CERT_POINTS,
    _CERT_PRIME,
    _LAST_SPLIT_PRIME,
    _MERSENNE_EXPONENTS,
    _POWER_CACHE_BITS,
    _SMALL_PRIMES,
    _SPLIT_TRIES,
    _SUBSET_BUDGET,
    _cached_power,
    _den_product,
    _divided,
    _edf,
    _exact_gcd,
    _exact_quotient,
    _factor_cached,
    _heuristic_gcd,
    _image,
    _join_terms,
    _known_quotient,
    _kronecker_product,
    _multiplicity,
    _pack,
    _recombined,
    _scaled,
    _scaled_terms,
    _squarefree_split,
    choose_omega,
    clear_denominators,
    divisor_of,
    factor_poly,
    height,
    ord_at,
    poly_gcd,
    proj_height,
    render_poly,
)
from ffvojta.sunits import PlaceSet
from conftest import (
    deriv_omega,
    from_sympy,
    oracle_choose_omega,
    oracle_clear_denominators,
    oracle_divide_out,
    oracle_factor,
    oracle_poly_divmod,
    oracle_poly_mul,
    oracle_proj_height,
    oracle_ratfunc_op,
    oracle_render_poly,
    over_known_den,
    rand_poly,
    rand_ratfunc,
    rat,
    sympy_rational,
    to_sympy,
)


T = Poly.t()
ONE = Poly.one()

_SEEDS = st.integers(0, 2 ** 32)


def assert_normal(p: Poly) -> None:
    """p is in the one layout: a tuple of ints with no trailing zero over a
    positive int, in lowest terms, and zero is ((), 1)."""
    assert type(p.nums) is tuple and all(type(c) is int for c in p.nums)
    assert type(p.den) is int and p.den >= 1
    assert gcd(p.den, *p.nums) == 1
    assert p.nums[-1] if p.nums else p.den == 1


def _stripped(coeffs) -> tuple:
    """Fraction coefficients with the trailing zeros dropped."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class TestPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0, 0)).is_zero
        assert (Poly((0, 0)).nums, Poly((0, 0)).den) == ((), 1)
        assert (Poly((Fraction(1, 2), Fraction(-2, 3), 0)).nums,
                Poly((Fraction(1, 2), Fraction(-2, 3), 0)).den) == ((3, -4), 6)

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(_SEEDS)
    def test_render_matches_the_oracle(self, seed):
        # coefficients over 1, 2, 3 and 6 with interior zeros and either
        # sign in front, up to degree 90
        rng = random.Random(seed)
        degree = rng.choice((0, 1, 2, 3, 7, 20, 50, 64, 65, 90))

        def coeff():
            return Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 6)))

        coeffs = [coeff() if rng.random() < 0.6 else 0 for _ in range(degree)]
        lead = coeff() or Fraction(-1)
        p = Poly(coeffs + [lead])
        assert render_poly(p) == oracle_render_poly(p)

    def test_render_edges(self):
        cases = [Poly(), Poly((0, 1)), Poly((0, -1)), Poly((Fraction(-1, 2),)),
                 Poly((Fraction(1, 6), 0, Fraction(-2, 3), Fraction(1, 2))),
                 Poly.monomial(64, -1), Poly.monomial(65, Fraction(3, 2)),
                 Poly((1,) * 70)]
        for p in cases:
            assert render_poly(p) == oracle_render_poly(p)
        assert render_poly(Poly.monomial(65, Fraction(-3, 2))) == (
            "-3/2*t^65")

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(_SEEDS)
    def test_scaled_render_matches_the_oracle(self, seed):
        # t^shift * nums * a / b: a and b share factors, a takes either
        # sign, nums has interior zeros, and the degree passes 64
        rng = random.Random(seed)
        degree = rng.choice((0, 1, 2, 3, 7, 20, 65))
        nums = [rng.randint(-9, 9) if rng.random() < 0.6 else 0
                for _ in range(degree)]
        nums.append(rng.choice((-6, -1, 1, 2, 3)))
        a = rng.choice((1, -1, 2, -2, 3, -6, 35, -70))
        b = rng.choice((1, 2, 3, 6, 12, 35, 210))
        shift = rng.choice((0, 1, 2, 5, 64))
        p = Poly([0] * shift + [Fraction(n * a, b) for n in nums])
        assert (_join_terms(_scaled_terms(nums, a, b), shift)
                == oracle_render_poly(p))

    def test_scaled_render_edges(self):
        for nums, a, b, shift, text in [
                ((), 1, 1, 0, "0"),
                ((1,), 1, 1, 1, "t"),
                ((1,), -1, 1, 2, "-t^2"),
                # 2/4 and 6/4 reduce each on their own; the zero between
                # is skipped
                ((2, 0, 6), 1, 4, 0, "3/2*t^2 + 1/2"),
                ((3, -1), -2, 6, 1, "1/3*t^2 - t"),
                ((-5, 0, 0, 7), 3, 7, 3, "3*t^6 - 15/7*t^3")]:
            assert _join_terms(_scaled_terms(nums, a, b), shift) == text

    def test_terms_join_at_any_shift(self):
        # the term stage never sees the shift, so one set of terms serves
        # every power of t (the terms cache of `sunits.render_unit`)
        for nums, a, b in [((1,), 1, 1), ((1, -1), -1, 1), ((2, 0, 6), 1, 4),
                           ((3, -1), -2, 6), ((-5, 0, 0, 7), 3, 7)]:
            terms = _scaled_terms(nums, a, b)
            for shift in (0, 1, 2, 70):
                p = Poly([0] * shift + [Fraction(n * a, b) for n in nums])
                assert _join_terms(terms, shift) == oracle_render_poly(p)

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(_SEEDS)
    def test_results_normal_and_match_fraction_oracles(self, seed):
        rng = random.Random(seed)
        a = rand_poly(rng, 6, zero_ok=True)
        b = rand_poly(rng, 4)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        n = rng.randint(0, 3)
        fa, fb = a.coeffs, b.coeffs
        pairs = list(zip_longest(fa, fb, fillvalue=Fraction(0)))
        q, r = divmod(a, b)
        eq, er = oracle_poly_divmod(a, b)
        want_pow = ONE
        for _ in range(n):
            want_pow = oracle_poly_mul(want_pow, a)
        cases = [
            (a + b, _stripped(x + y for x, y in pairs)),
            (a - b, _stripped(x - y for x, y in pairs)),
            (-a, _stripped(-x for x in fa)),
            (a * b, oracle_poly_mul(a, b).coeffs),
            (q, eq.coeffs), (r, er.coeffs),
            (a // b, eq.coeffs), (a % b, er.coeffs),
            (a ** n, want_pow.coeffs),
            (b.monic(), _stripped(x / fb[-1] for x in fb)),
            (a.scale(c), _stripped(x * c for x in fa)),
            (a.derivative(), _stripped(i * x for i, x in enumerate(fa))[1:]),
        ]
        for got, want in cases:
            assert_normal(got)
            assert got.coeffs == want

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(_SEEDS)
    def test_equal_rationals_written_differently(self, seed):
        rng = random.Random(seed)
        p = rand_poly(rng, 5, zero_ok=True)
        k = rng.randint(2, 30)
        variants = [
            Poly([int(x) if x.denominator == 1 else x for x in p.coeffs]),
            Poly([str(x) for x in p.coeffs] + ["0"] * rng.randint(0, 2)),
            Poly([Fraction(x.numerator * k, x.denominator * k)
                  for x in p.coeffs]),
            _scaled([k * x for x in p.nums] + [0], 1, k * p.den),
            _scaled([-x for x in p.nums], -1, p.den),
            p.scale(k).scale(Fraction(1, k)),
        ]
        for v in variants:
            assert_normal(v)
            assert v == p and hash(v) == hash(p)

    def test_pickle_round_trips(self):
        rng = random.Random(17)
        for _ in range(50):
            p = rand_poly(rng, 5, zero_ok=True)
            f = rand_ratfunc(rng)
            back_p, back_f = pickle.loads(pickle.dumps((p, f)))
            assert_normal(back_p)
            assert (back_p.nums, back_p.den) == (p.nums, p.den)
            assert back_f == f and hash(back_f) == hash(f)

    def test_divmod_roundtrip(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rand_poly(rng, 6, zero_ok=True)
            b = rand_poly(rng, 4)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_derivative_product_rule(self):
        rng = random.Random(12)
        for _ in range(100):
            a = rand_poly(rng, 5, zero_ok=True)
            b = rand_poly(rng, 5, zero_ok=True)
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    def test_gcd_agrees_with_structure(self):
        rng = random.Random(13)
        for _ in range(100):
            g = rand_poly(rng, 3)
            a = rand_poly(rng, 3)
            b = rand_poly(rng, 3)
            d = poly_gcd(g * a, g * b)
            # gcd must be divisible by g (up to the cofactor gcd)
            assert (d % g.monic()).is_zero or g.degree == 0 or not poly_gcd(a, b).is_constant

    def test_gcd_of_coprime_is_one(self):
        a = (T - ONE) * (T + ONE)
        b = T * (T - Poly.const(2))
        assert poly_gcd(a, b) == ONE

    def test_gcd_against_sympy_oracle(self):
        import sympy
        from conftest import SYMPY_T, to_sympy

        rng = random.Random(14)
        for _ in range(120):
            shared = rand_poly(rng, 3)
            a = rand_poly(rng, 3) * shared
            b = rand_poly(rng, 3) * shared
            expected = sympy.gcd(to_sympy(a).as_expr(), to_sympy(b).as_expr())
            epoly = sympy.Poly(expected, SYMPY_T, domain="QQ").monic()
            coeffs = [Fraction(c.p, c.q) for c in reversed(epoly.all_coeffs())]
            assert poly_gcd(a, b) == Poly(coeffs)

    def test_gcd_fallback_against_sympy_oracle(self):
        # leading coefficients divisible by every certificate prime make
        # the modular certificate decline, so the lift from one big prime
        # decides; the planted common factor carries a large integer
        # content
        import sympy
        from conftest import SYMPY_T, to_sympy
        from ffvojta.field_core import (_GCD_PRIMES, _mod_gcd_is_one,
                                        clear_denominators)

        all_primes = 1
        for p in _GCD_PRIMES:
            all_primes *= p
        rng = random.Random(16)
        for k in range(80):
            a = rand_poly(rng, 3) + Poly.monomial(4, all_primes * rng.randint(1, 5))
            b = rand_poly(rng, 3) + Poly.monomial(5, -all_primes)
            if k % 2:
                shared = rand_poly(rng, 3).scale(10 ** 40 + rng.randint(1, 99))
                a, b = a * shared, b * shared
            ints, _ = clear_denominators({0: a, 1: b})
            assert not _mod_gcd_is_one(ints[0], ints[1])
            expected = sympy.gcd(to_sympy(a).as_expr(), to_sympy(b).as_expr())
            epoly = sympy.Poly(expected, SYMPY_T, domain="QQ").monic()
            coeffs = [Fraction(c.p, c.q) for c in reversed(epoly.all_coeffs())]
            assert poly_gcd(a, b) == Poly(coeffs)

    def test_exact_gcd_against_sympy_oracle(self):
        # planted common factors, half of them on the fallback inputs above,
        # whose leading coefficients every certificate prime divides: the
        # lift from one big prime decides each of them
        import sympy
        from conftest import SYMPY_T, to_sympy
        from ffvojta.field_core import _GCD_PRIMES

        all_primes = 1
        for p in _GCD_PRIMES:
            all_primes *= p
        rng = random.Random(17)
        for k in range(120):
            shared = rand_poly(rng, 3)
            if k % 2:
                a = rand_poly(rng, 3) + Poly.monomial(4, all_primes)
                b = rand_poly(rng, 3) + Poly.monomial(5, -all_primes)
            else:
                a, b = rand_poly(rng, 4), rand_poly(rng, 2)
            a, b = a * shared, b * shared ** rng.randint(1, 2)
            if a.degree < 1 or b.is_zero:
                continue
            g = _exact_gcd(_primitive(a), _primitive(b))
            expected = sympy.gcd(to_sympy(a).as_expr(), to_sympy(b).as_expr())
            epoly = sympy.Poly(expected, SYMPY_T, domain="QQ").monic()
            coeffs = [Fraction(c.p, c.q) for c in reversed(epoly.all_coeffs())]
            assert g is not None and g[-1] > 0 and gcd(*g) == 1
            assert Poly(g).monic() == Poly(coeffs)

    def test_exact_gcd_declines_past_the_largest_prime(self):
        # a coefficient past the largest Mersenne prime leaves no prime
        # above the bound; the heuristic gcd decides
        big = 2 ** (_MERSENNE_EXPONENTS[-1] + 1) + 1
        a = Poly((big, 1)) * Poly((1, 1))
        b = Poly((2, 1)) * Poly((1, 1))
        assert _exact_gcd(_primitive(a), _primitive(b)) is None
        assert poly_gcd(a, b) == Poly((1, 1))

    @given(*[st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1,
                      max_size=4).filter(lambda f: f[-1])] * 3,
           st.integers(0, 2))
    @example([1, 1], [-2, 1], [11], 0)
    # 8 (7 - t) and t - 7 at t = 8 are -8 and 1, whose gcd 1 divides both;
    # only the certificate rejects it
    @example([8], [-1], [7, -1], 0)
    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    def test_heuristic_gcd_against_sympy_oracle(self, a, b, h, more):
        # f = a h and g = b h from 2^3, where only the certificate that the
        # cofactors are coprime can stop the doubling, and from the least
        # 2^k past which dividing both is enough (or a few doublings past
        # it): the gcd is sympy's, primitive with a positive leading
        # coefficient, and the cofactors multiply back
        import sympy
        from conftest import SYMPY_T, to_sympy

        f = _kronecker_product(((a, 1), (h, 1)))
        g = _kronecker_product(((b, 1), (h, 1)))
        expected = sympy.gcd(to_sympy(Poly(f)).as_expr(),
                             to_sympy(Poly(g)).as_expr())
        epoly = sympy.Poly(expected, SYMPY_T, domain="QQ").monic()
        coeffs = [Fraction(c.p, c.q) for c in reversed(epoly.all_coeffs())]
        sure = (2 * min(max(map(abs, f)), max(map(abs, g))) + 2).bit_length()
        for k in (3, sure + more):
            out, fa, gb = _heuristic_gcd(f, g, k,
                                         gcd(_pack(f, k), _pack(g, k)))
            assert Poly(out).monic() == Poly(coeffs)
            assert out[-1] > 0 and gcd(*out) == 1
            assert _kronecker_product(((out, 1), (fa, 1))) == f
            assert _kronecker_product(((out, 1), (gb, 1))) == g

    def test_heuristic_gcd_doubles_k(self):
        # 11 (t + 1) and 11 (t - 2) at t = 32: the values 363 and 330 share
        # 33 = 32 + 1, whose digits read t + 1, which divides the first but
        # not the second; at t = 2^10 they share 11 only, and the gcd is 1
        f, g = [11, 11], [-22, 11]
        assert gcd(_pack(f, 5), _pack(g, 5)) == 33
        assert _heuristic_gcd(f, g, 5, 33) == ([1], f, g)


_BIG = 10 ** 30
# small rationals, and large ones with denominators around 10^30
_COEFFS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(_BIG // 10, _BIG)))
_POLYS = st.lists(_COEFFS, max_size=9).map(Poly)
# monic over Q, non-monic once cleared: 2t - 1, 4t + 3, 3t^2 + 3t + 1
_NON_MONIC_CLEARED = (Poly((Fraction(-1, 2), 1)), Poly((Fraction(3, 4), 1)),
                      Poly((Fraction(1, 3), 1, 1)))
_DIVISORS = st.one_of(_POLYS.filter(lambda p: not p.is_zero),
                      st.sampled_from(_NON_MONIC_CLEARED))
_PLACES = (Place.rational(0), Place.rational(1), Place.rational(Fraction(1, 2)),
           Place.rational(Fraction(-3, 4)), Place.finite(Poly((1, 0, 1))),
           Place.finite(Poly((Fraction(1, 3), 1, 1))))
_S_PLACES = PlaceSet(frozenset(_PLACES))


class TestIntegerKernels:
    """`Poly` products and divisions on cleared integers, and the
    divide-out loop, against the Fraction schoolbook of conftest,
    coefficient tuple for coefficient tuple."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(_POLYS, _POLYS)
    def test_mul_matches_oracle(self, a, b):
        assert (a * b).coeffs == oracle_poly_mul(a, b).coeffs
        assert (b * a).coeffs == oracle_poly_mul(a, b).coeffs

    @settings(max_examples=150, deadline=None, database=None)
    @given(_POLYS, _DIVISORS)
    def test_divmod_matches_oracle(self, a, b):
        q, r = divmod(a, b)
        eq, er = oracle_poly_divmod(a, b)
        assert (q.coeffs, r.coeffs) == (eq.coeffs, er.coeffs)
        assert (a // b).coeffs == eq.coeffs
        assert (a % b).coeffs == er.coeffs

    @settings(max_examples=100, deadline=None, database=None)
    @given(_POLYS, _DIVISORS)
    def test_exact_division(self, a, b):
        q, r = divmod(a * b, b)
        assert q.coeffs == a.coeffs and r.is_zero
        eq, er = oracle_poly_divmod(a * b, b)
        assert (q.coeffs, r.coeffs) == (eq.coeffs, er.coeffs)

    @pytest.mark.parametrize("a, b", [
        ((), (3,)), ((5,), (-2,)), ((Fraction(1, 3),), (1, 1)),
        ((1, 2, 3), (Fraction(-7, 2),)), ((1, -4, 0, 6), (0, 0, 0, 0, 1)),
        ((Fraction(1, _BIG), 2, -1), (-3, 0, -5)),
    ])
    def test_zero_and_constant_operands(self, a, b):
        a, b = Poly(a), Poly(b)
        assert (a * b).coeffs == oracle_poly_mul(a, b).coeffs
        q, r = divmod(a, b)
        eq, er = oracle_poly_divmod(a, b)
        assert (q.coeffs, r.coeffs) == (eq.coeffs, er.coeffs)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(T, Poly())

    @settings(max_examples=150, deadline=None, database=None)
    @given(_POLYS, _POLYS, _COEFFS)
    def test_linear_ops_match_sympy(self, a, b, c):
        sa, sb = to_sympy(a), to_sympy(b)
        assert (a + b).coeffs == from_sympy(sa + sb).coeffs
        assert (a - b).coeffs == from_sympy(sa - sb).coeffs
        assert (-a).coeffs == from_sympy(-sa).coeffs
        assert a.scale(c).coeffs == from_sympy(sa * sympy_rational(c)).coeffs

    @settings(max_examples=80, deadline=None, database=None)
    @given(_POLYS, st.integers(0, 4))
    def test_pow_matches_sympy(self, a, n):
        assert (a ** n).coeffs == from_sympy(to_sympy(a) ** n).coeffs

    @settings(max_examples=150, deadline=None, database=None)
    @given(_POLYS, _COEFFS)
    def test_monic_and_eval_match_sympy(self, a, x):
        sa = to_sympy(a)
        assert a.eval(x) == Fraction(str(sa.eval(sympy_rational(x))))
        if a.is_zero:
            with pytest.raises(ZeroPolynomial):
                a.monic()
            return
        assert (a.degree, a.lc) == (sa.degree(), Fraction(str(sa.LC())))
        assert a.monic().coeffs == from_sympy(sa.monic()).coeffs

    @pytest.mark.parametrize("a, b, quot, rem", [
        # (t^2 + 1) = (2t + 1)(t/2 - 1/4) + 5/4: a scale of 2 for 4 fails
        ((1, 0, 1), (1, 2), (Fraction(-1, 4), Fraction(1, 2)),
         (Fraction(5, 4),)),
        # a negative leading coefficient and a gap of three degrees
        ((1, 0, 0, 0, 0, 1), (1, 0, -3),
         (0, Fraction(-1, 9), 0, Fraction(-1, 3)), (1, Fraction(1, 9))),
    ])
    def test_pseudo_division_scale(self, a, b, quot, rem):
        q, r = divmod(Poly(a), Poly(b))
        assert q.coeffs == quot and r.coeffs == rem

    @settings(max_examples=100, deadline=None, database=None)
    @given(_POLYS.filter(lambda p: not p.is_zero),
           st.lists(st.integers(0, 4), min_size=len(_PLACES),
                    max_size=len(_PLACES)))
    def test_divide_out_matches_oracle(self, rest, exps):
        p = rest
        for place, e in zip(_PLACES, exps):
            p = p * place.poly ** e
        stripped = p
        for place in _S_PLACES.finite_places():
            q = place.poly
            stripped, _ = oracle_divide_out(stripped, q)
            assert _multiplicity(p, q) == oracle_divide_out(p, q)[1]
        assert strip_set_factors(p, _S_PLACES).coeffs == stripped.coeffs

    def test_divide_out_zero(self):
        assert strip_set_factors(Poly(), _S_PLACES).is_zero
        with pytest.raises(ZeroPolynomial):
            _multiplicity(Poly(), T)


def _convolution(factors) -> list[int]:
    """prod f**e by the schoolbook, one factor at a time, over ints."""
    out = [1]
    for f, e in factors:
        for _ in range(e):
            nxt = [0] * (len(out) + len(f) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(f):
                    nxt[i + j] += x * y
            out = nxt
    return out


# the kernel's inputs: t^j, which it shifts; monomials with another
# coefficient (3t^2, -t), which it packs; constants; anything else, zero low
# and top coefficients allowed, the top one nonzero in most draws
_MONOMIALS = st.builds(lambda j, c: (0,) * j + (c,), st.integers(0, 6),
                       st.sampled_from((1, 1, 1, -1, 3, -2)))
_KRONECKER_FACTORS = st.tuples(
    st.one_of(_MONOMIALS, st.lists(st.integers(-9, 9), min_size=1,
                                   max_size=6).filter(any).map(tuple)),
    st.integers(0, 6))


@st.composite
def _factor_lists(draw):
    """A factor list with repeated factors, each f a list or a tuple, the
    list itself a list or a tuple."""
    factors = draw(st.lists(_KRONECKER_FACTORS, max_size=5))
    if factors and draw(st.booleans()):
        factors.append(draw(st.sampled_from(factors)))
    factors = [(list(f) if draw(st.booleans()) else f, e)
               for f, e in factors]
    return factors if draw(st.booleans()) else tuple(factors)


class TestKroneckerProduct:
    """`_kronecker_product` against the schoolbook convolution: the shift
    for t^j, a copy for one factor with e = 1, the cached power for one
    factor with e >= 2, the packed product for everything else."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(_factor_lists())
    @example(())
    @example([((0, 0, 1), 3)])
    @example([((0, 3), 2), ([0, -1], 1)])
    @example([((5,), 0), ((-1, 1), 0)])
    @example([([2, -1, 4], 1)])
    @example([((-1, 1), 5), ((-1, 1), 5), ((0, 1), 2)])
    def test_matches_convolution(self, factors):
        expected = _convolution(factors)
        assert _kronecker_product(factors) == expected
        # a second call, from the cache where a power went in
        assert _kronecker_product(factors) == expected

    def test_one_factor_power_goes_through_the_cache(self):
        _cached_power.cache_clear()
        for _ in range(3):
            assert (_kronecker_product([((-7, 0, 1), 4), ((0, 1), 2)])
                    == _convolution([((-7, 0, 1), 4), ((0, 1), 2)]))
        info = _cached_power.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
        # e = 1 and two or more factors never reach it
        _kronecker_product([((-7, 0, 1), 1)])
        _kronecker_product([((-7, 0, 1), 2), ((1, 1), 2)])
        assert _cached_power.cache_info() == info

    @pytest.mark.parametrize("factors", [
        [((-1, 1), 25)], [((-1, 1), 25), ((0, 1), 3)], [([4, 0, 3], 1)],
        [((0, 0, 1), 4)], [],
    ])
    def test_returned_list_is_the_callers(self, factors):
        expected = _convolution(factors)
        given = [(list(f), e) for f, e in factors]
        out = _kronecker_product(factors)
        out[0] += 99
        out.append(5)
        assert _kronecker_product(factors) == expected
        assert [(list(f), e) for f, e in factors] == given

    def test_power_past_the_cap(self):
        # (t - 1)^200: 201 coefficients charged 202 + 320 bits each, far
        # past the cap; (t - 1)^25, 26 * 347 = 9,022 bits, fits
        assert 201 * (202 + 320) > _POWER_CACHE_BITS >= 26 * (27 + 320)
        _cached_power.cache_clear()
        for _ in range(2):
            assert _kronecker_product([((-1, 1), 200)]) == [
                comb(200, i) * (-1) ** (200 - i) for i in range(201)]
        assert _cached_power.cache_info().currsize == 0
        _kronecker_product([((-1, 1), 25)])
        assert _cached_power.cache_info().currsize == 1


class TestOverKnownDen:
    """`_known_quotient` (through `conftest.over_known_den`) against the
    normalising constructor: num over a product of places, some of them
    planted in num too, among them the degree-2 places t^2 + 1 and
    t^2 + t + 1/3."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(_POLYS,
           st.lists(st.integers(0, 3), min_size=len(_PLACES),
                    max_size=len(_PLACES)),
           st.lists(st.integers(0, 3), min_size=len(_PLACES),
                    max_size=len(_PLACES)))
    def test_matches_constructor(self, rest, planted, mults):
        num, den = rest, Poly.one()
        for place, e, m in zip(_PLACES, planted, mults):
            num = num * place.poly ** e
            den = den * place.poly ** m
        factors = [(place.poly, m) for place, m in zip(_PLACES, mults) if m]
        got = over_known_den(num, factors)
        want = RatFunc(num, den)
        assert (got.num.coeffs, got.den.coeffs) == (
            want.num.coeffs, want.den.coeffs)

    def test_examples(self):
        t, t1 = Poly.t(), Place.rational(1).poly
        # t^2 (t - 1) / (t^3 (t - 1)^2): each factor goes out as far as it can
        f = over_known_den(t ** 2 * t1, [(t, 3), (t1, 2)])
        assert f == RatFunc(ONE, t * t1)
        # a multiplicity caps the division: t^3 / t is t^2
        assert over_known_den(t ** 3, [(t, 1)]) == RatFunc(t ** 2)
        assert over_known_den(Poly.const(Fraction(3, 2)), []) == \
            RatFunc.const(Fraction(3, 2))
        zero = over_known_den(Poly(), [(t, 2)])
        assert zero.is_zero and zero.den == ONE

    def test_denominator_products_cached(self):
        # the denominator left over, prod q^(m - k), is built once per
        # distinct product: a second call with the same input hits the cache
        assert _den_product.cache_info().maxsize == 1024
        rng = random.Random(83)
        for _ in range(40):
            num, den, factors = rand_poly(rng, 3), Poly.one(), []
            if num.is_zero:
                continue
            for place in _PLACES:
                num = num * place.poly ** rng.randint(0, 3)
                m = rng.randint(0, 3)
                den = den * place.poly ** m
                if m:
                    factors.append((place.poly, m))
            want = RatFunc(num, den)
            for call in range(2):
                hits = _den_product.cache_info().hits
                got = over_known_den(num, factors)
                assert (got.num, got.den) == (want.num, want.den)
                if call:
                    assert _den_product.cache_info().hits == hits + 1


def _trial_divided(a, b, cap: int):
    """a divided by b with `_exact_quotient` until it no longer goes, at
    most cap times, with the number of times it went."""
    k = 0
    while k < cap and (quot := _exact_quotient(a, b)) is not None:
        a, k = quot, k + 1
    return a, k


# the primitive nums of the linear places t - 1, t + 2, 2t - 1 and 3t + 2
_LINEAR_NUMS = ((-1, 1), (2, 1), (-1, 2), (2, 3))
# coefficients near 2^61 and small ones, zero among them
_WIDE = st.one_of(
    st.builds(lambda s, d: s * (2 ** 61 + d), st.sampled_from((1, -1)),
              st.integers(-64, 64)),
    st.integers(-3, 3))


class TestDividedLinear:
    """`_divided` tests a linear b by its value before dividing; that must
    give what the plain repeated `_exact_quotient` loop gives, quotient and
    count, at every cap."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(st.sampled_from(_LINEAR_NUMS), st.integers(0, 6),
           st.integers(-2, 2),
           st.lists(_WIDE, min_size=1, max_size=8).filter(lambda r: r[-1]))
    @example((-1, 1), 6, 0, [2 ** 61 - 1])
    @example((2, 3), 3, -1, [2 ** 61, 0, -(2 ** 61)])
    def test_matches_trial_division(self, b, mult, shift, rest):
        a = _convolution([(rest, 1), (b, mult)])
        for cap in (max(0, mult + shift), len(a)):
            got = _divided(a, b, cap)
            want = _trial_divided(a, b, cap)
            assert (list(got[0]), got[1]) == (list(want[0]), want[1])
            assert got[1] >= min(cap, mult)

    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3),
           st.integers(1, 3),
           st.lists(_WIDE, min_size=1, max_size=5).filter(lambda r: r[-1]))
    def test_known_quotient_over_two_linear_places(self, e1, e2, m1, m2,
                                                   rest):
        # (t - 1)^e1 (t + 2/3)^e2 planted in the numerator, over
        # (t - 1)^m1 (t + 2/3)^m2
        q1, q2 = Poly((-1, 1)), Poly((Fraction(2, 3), 1))
        nums = _convolution([(rest, 1), (q1.nums, e1), (q2.nums, e2)])
        den = ((q1, m1), (q2, m2))
        got, quotient, counts = _known_quotient(nums, 1, den)
        want = RatFunc(Poly(nums), q1 ** m1 * q2 ** m2)
        assert (got.num, got.den) == (want.num, want.den)
        left = nums
        for (q, m), e, k in zip(den, (e1, e2), counts):
            left, went = _trial_divided(left, q.nums, m)
            assert k == went >= min(m, e)
        assert list(quotient) == list(left)


# a value for `clear_denominators`: a numerator with either None (a bare
# Poly) or the exponents of the places of _PLACES in its denominator
_ENTRIES = st.lists(
    st.tuples(_POLYS, st.none() | st.tuples(*[st.integers(0, 2)] * len(_PLACES))),
    min_size=1, max_size=6)
_N = Poly((Fraction(3, 2), 0, 5))


def _exps(*pairs) -> tuple:
    # the exponent tuple with the given (place index, exponent) pairs
    exps = [0] * len(_PLACES)
    for i, e in pairs:
        exps[i] = e
    return tuple(exps)


class TestClearDenominators:
    """`clear_denominators` against sympy's lcm and `clear_denoms`
    (`conftest.oracle_clear_denominators`) on denominators that are
    products of powers of the places above, the degree-2 places among
    them: (ints, d) must be the same, int for int.
    The examples pin a nested chain in rising degree, a disjoint one, an
    overlapping one, and equal denominators built apart beside a `Poly`
    and a constant."""

    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(_ENTRIES)
    @example([(_N, _exps((0, 1))), (_N, _exps((0, 2))),
              (T, _exps((0, 2), (1, 1), (4, 1)))])
    @example([(_N, _exps((0, 1))), (T, _exps((1, 1))),
              (_N, _exps((4, 1))), (ONE, _exps((5, 2)))])
    @example([(_N, _exps((2, 1), (3, 2))), (T, _exps((3, 2))),
              (_N, _exps((0, 1), (3, 1)))])
    @example([(_N, _exps((2, 1), (4, 1))), (T, _exps((2, 1), (4, 1))),
              (_N, None), (Poly.const(Fraction(5, 7)), _exps())])
    def test_matches_lcm_chain(self, entries):
        coeffs = {}
        for k, (num, exps) in enumerate(entries):
            if exps is None:
                coeffs[k] = num
                continue
            den = ONE
            for place, e in zip(_PLACES, exps):
                den = den * place.poly ** e
            coeffs[k] = RatFunc(num, den)
        ints, d = clear_denominators(coeffs)
        want_ints, want_d = oracle_clear_denominators(coeffs)
        assert list(ints.items()) == list(want_ints.items())
        assert all(type(c) is int for cs in ints.values() for c in cs)
        assert (d.nums, d.den) == (want_d.nums, want_d.den)


def _image_reference(f: RatFunc, tau: int, p: int):
    # `_image` as it was, with an inverse for every coefficient
    vals = []
    for poly in (f.num, f.den):
        acc = 0
        for c in reversed(poly.coeffs):
            d = c.denominator % p
            if d == 0:
                return None
            acc = (acc * tau + c.numerator * pow(d, -1, p)) % p
        vals.append(acc)
    num, den = vals
    return None if den == 0 else num * pow(den, -1, p) % p


class TestImage:
    def test_matches_reference(self):
        rng = random.Random(41)
        p = _CERT_PRIME
        fs = [rand_ratfunc(rng, 5) for _ in range(300)]
        fs += [RatFunc(Poly((Fraction(1, p), 1))), RatFunc(ONE, T - ONE),
               RatFunc(Poly((1, Fraction(3, 7 * p)))), RatFunc.zero()]
        for f in fs:
            for tau in (*_CERT_POINTS, 0, 1, p + 1):
                assert _image(f, tau, p) == _image_reference(f, tau, p)


class TestRatFunc:
    def test_neg_and_sub_in_normal_form(self):
        rng = random.Random(71)
        for _ in range(100):
            f, g = rand_ratfunc(rng), rand_ratfunc(rng)
            for h in (-f, f - g, g - f, f - f, 3 - f, f - Fraction(1, 2)):
                assert h == RatFunc(h.num, h.den)
            assert f - g == f + (-g)
            assert (f - g) + g == f
            assert 3 - f == RatFunc.const(3) + (-f)

    def test_eq_and_hash_agree(self):
        # a RatFunc equals only a RatFunc, as Poly and BiPoly do: a number
        # hashes differently, so equality with it would break set lookups
        two = RatFunc.const(2)
        for n in (2, Fraction(2)):
            assert (two == n) == (n in {two}) == (two in {n})
            assert two != n
        assert two == RatFunc(Poly((4,)), Poly((2,)))
        assert hash(two) == hash(RatFunc(Poly((4,)), Poly((2,))))

    @pytest.mark.parametrize("built, num, den", [
        (RatFunc.zero(), Poly(), ONE), (RatFunc.one(), ONE, ONE),
        (RatFunc.const(0), Poly(), ONE),
        (RatFunc.const(Fraction(-3, 4)), Poly((Fraction(-3, 4),)), ONE),
        (RatFunc.t(), T, ONE),
    ])
    def test_constants_in_normal_form(self, built, num, den):
        assert (built.num, built.den) == (num, den) == (
            RatFunc(num, den).num, RatFunc(num, den).den)


# factors for planted common parts: places of content 1/L (cleared, t - 1/2
# is 2t - 1, not monic), a power of t and an irreducible quadratic
_FACTORS = (Poly((Fraction(-1, 2), 1)), Poly((Fraction(3, 4), 1)),
            Poly((Fraction(1, 3), 1, 1)), T, T - ONE, Poly((1, 0, 1)))
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def _planted(rng: random.Random) -> RatFunc:
    """A random function whose numerator and denominator carry random
    powers of _FACTORS, so that pairs of them share factors."""
    num, den = rand_poly(rng, 2), rand_poly(rng, 2)
    for q in _FACTORS:
        k = rng.randint(-2, 2)
        if k > 0:
            num = num * q ** k
        elif k < 0:
            den = den * q ** -k
    return RatFunc(num.scale(Fraction(rng.choice((1, -3, 5)),
                                      rng.choice((1, 2, 7)))), den)


class TestHenrici:
    """The arithmetic against the unreduced pair fed to the constructor."""

    def _agree(self, f, g):
        for op, fn in _OPS.items():
            if op == "/" and g.is_zero:
                continue
            got, want = fn(f, g), oracle_ratfunc_op(op, f, g)
            assert_normal(got.num)
            assert_normal(got.den)
            assert (got.num.coeffs, got.den.coeffs) == \
                (want.num.coeffs, want.den.coeffs), (op, f, g)

    def test_random_pairs(self):
        rng = random.Random(1956)
        for _ in range(150):
            self._agree(rand_ratfunc(rng), rand_ratfunc(rng))

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(_SEEDS)
    def test_random_pairs_hypothesis(self, seed):
        rng = random.Random(seed)
        f, g = rand_ratfunc(rng), rand_ratfunc(rng)
        self._agree(f, g)
        for n in (2, -1):
            if n < 0 and f.is_zero:
                continue
            got, want = f ** n, oracle_ratfunc_op("**", f, n)
            assert_normal(got.num)
            assert_normal(got.den)
            assert (got.num.coeffs, got.den.coeffs) == \
                (want.num.coeffs, want.den.coeffs)

    def test_planted_common_factors(self):
        rng = random.Random(451)
        for _ in range(150):
            f, g = _planted(rng), _planted(rng)
            self._agree(f, g)
            self._agree(g, f)

    def test_coprime_denominators(self):
        f = RatFunc(T + ONE, T * T)
        g = RatFunc(Poly((2, 0, 3)), Poly((Fraction(-1, 2), 1)))
        self._agree(f, g)
        assert (f + g).den == T * T * Poly((Fraction(-1, 2), 1))

    def test_shared_denominator_factor_cancels(self):
        # g = gcd(t(t-1), t(t+1)) = t, and the new numerator (t+1) + (t-1)
        # = 2t shares g with the denominator: the sum is 2/(t^2 - 1)
        f = RatFunc(ONE, T * (T - ONE))
        g = RatFunc(ONE, T * (T + ONE))
        self._agree(f, g)
        assert f + g == RatFunc(Poly.const(2), T * T - ONE)
        assert f - g == RatFunc(Poly.const(2), T * (T * T - ONE))

    def test_numerator_meets_other_denominator(self):
        half = Poly((Fraction(-1, 2), 1))
        f = RatFunc(half.scale(2) * (T + ONE), T ** 3)
        g = RatFunc(T * T, half * Poly((1, 0, 1)))
        self._agree(f, g)
        assert f * g == RatFunc(Poly.const(2) * (T + ONE),
                                T * Poly((1, 0, 1)))

    def test_sums_cancel_to_zero(self):
        rng = random.Random(3)
        for _ in range(30):
            f = _planted(rng)
            for h in (f - f, f + (-f), (-f) + f, f * 0, 0 * f):
                assert h.is_zero
                assert (h.num.coeffs, h.den.coeffs) == ((), ONE.coeffs)
            # the numerator of f + g shares factors with f's denominator
            g = _planted(rng)
            assert (f + g) - f == g

    def test_constant_operands(self):
        rng = random.Random(17)
        consts = [RatFunc.zero(), RatFunc.one(), RatFunc.const(Fraction(-3, 4)),
                  RatFunc.const(7)]
        for _ in range(30):
            f = _planted(rng)
            for c in consts:
                self._agree(f, c)
                self._agree(c, f)
        for c in consts:
            for d in consts:
                self._agree(c, d)
        f = _planted(rng)
        assert 2 - f == oracle_ratfunc_op("-", RatFunc.const(2), f)
        assert Fraction(1, 3) / f == oracle_ratfunc_op(
            "/", RatFunc.const(Fraction(1, 3)), f)

    def test_powers(self):
        rng = random.Random(23)
        for _ in range(60):
            f = _planted(rng)
            for n in (0, 1, 2, 3, -1, -2):
                if n < 0 and f.is_zero:
                    continue
                got, want = f ** n, oracle_ratfunc_op("**", f, n)
                assert_normal(got.num)
                assert_normal(got.den)
                assert (got.num.coeffs, got.den.coeffs) == \
                    (want.num.coeffs, want.den.coeffs)
        with pytest.raises(ZeroDivisionError):
            RatFunc.zero() ** -1

    def test_results_are_normal(self):
        rng = random.Random(8)
        for _ in range(60):
            f, g = _planted(rng), _planted(rng)
            results = [f + g, f - g, f * g]
            if g:
                results += [f / g, g ** -3]
            for h in results:
                assert h.den.lc == 1
                assert h.is_zero or poly_gcd(h.num, h.den) == ONE


class TestOrdHeight:
    def test_ord_examples(self):
        f = rat("t^2/(t-1)")
        assert ord_at(f, Place.rational(0)) == 2
        assert ord_at(f, Place.infinity()) == -1
        assert ord_at(f, Place.rational(1)) == -1

    def test_ord_zero_function(self):
        with pytest.raises(ZeroFunction):
            ord_at(RatFunc.zero(), Place.rational(0))

    def test_height_examples(self):
        assert height(rat("t^2/(t-1)")) == 2
        assert height(RatFunc.const(5)) == 0
        assert height(rat("(t-1)*(t-2)/t^3")) == 3

    def test_height_against_divisor_route(self):
        rng = random.Random(31)
        fs = [rand_ratfunc(rng, 4) for _ in range(100)]
        fs.append(rat("t^3*(t-1)/(t^2+1)"))
        for f in fs:
            if f.is_zero:
                continue
            via_div = sum(c * p.geom_degree
                          for p, c in divisor_of(f).items() if c > 0)
            assert height(f) == via_div
        assert height(fs[-1]) == 4

    def test_height_properties(self):
        rng = random.Random(32)
        for _ in range(100):
            f = rand_ratfunc(rng, 4)
            g = rand_ratfunc(rng, 4)
            if f.is_zero or g.is_zero:
                continue
            assert height(f * g) <= height(f) + height(g)
            assert height(RatFunc.one() / f) == height(f)

    def test_ord_additive(self):
        rng = random.Random(33)
        for _ in range(60):
            f = rand_ratfunc(rng, 3)
            g = rand_ratfunc(rng, 3)
            if f.is_zero or g.is_zero:
                continue
            support = set(divisor_of(f)) | set(divisor_of(g))
            for p in support:
                assert ord_at(f * g, p) == ord_at(f, p) + ord_at(g, p)


class TestProjHeight:
    def test_spec_examples(self):
        assert proj_height([RatFunc.t(), RatFunc.one()]) == 1
        a = rat("(t^2+3)/(t-5)")
        assert proj_height([a, a]) == 0
        assert proj_height([RatFunc.t(), rat("t-1"), RatFunc.one()]) == 1

    def test_matches_place_definition(self):
        rng = random.Random(41)
        for _ in range(60):
            fs = [rand_ratfunc(rng, 3) for _ in range(rng.randint(2, 4))]
            if all(f.is_zero for f in fs):
                continue
            assert proj_height(fs) == oracle_proj_height(fs)

    def test_scaling_invariance(self):
        rng = random.Random(42)
        for _ in range(60):
            fs = [rand_ratfunc(rng, 3) for _ in range(3)]
            if all(f.is_zero for f in fs):
                continue
            c = rand_ratfunc(rng, 2)
            if c.is_zero:
                continue
            assert proj_height([f * c for f in fs]) == proj_height(fs)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            proj_height([RatFunc.zero(), RatFunc.zero()])


class TestDivisor:
    def test_spec_examples(self):
        assert divisor_of(RatFunc.t()) == {Place.rational(0): 1,
                                           Place.infinity(): -1}
        assert divisor_of(rat("(t^2+1)/t")) == {
            Place.finite(Poly((1, 0, 1))): 1, Place.rational(0): -1,
            Place.infinity(): -1}
        assert divisor_of(RatFunc.const(7)) == {}

    def test_degree_zero(self):
        rng = random.Random(51)
        for _ in range(120):
            f = rand_ratfunc(rng, 5)
            if f.is_zero:
                continue
            d = divisor_of(f)
            assert 0 not in d.values()
            assert sum(c * p.geom_degree for p, c in d.items()) == 0

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            divisor_of(RatFunc.zero())


class TestPlace:
    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducible):
            Place.finite(T * T - ONE)

    def test_degree_cap(self):
        with pytest.raises(PlaceDegreeTooLarge):
            Place.finite(Poly.monomial(9) + Poly.const(2))

    def test_quadratic_place(self):
        p = Place.finite(Poly((1, 0, 1)))
        assert p.geom_degree == 2
        assert str(p) == "t^2 + 1"

    def test_ordering_degree_one_by_root(self):
        places = [Place.rational(2), Place.rational(-1), Place.infinity(),
                  Place.rational(0), Place.finite(Poly((2, 0, 1)))]
        ordered = sorted(places, key=lambda p: p.sort_key())
        assert [str(p) for p in ordered] == ["-1", "0", "2", "t^2 + 2", "inf"]

    @staticmethod
    def _fraction_key(p):
        # the order by Fraction tuples that the integer keys must keep
        if p.is_infinity:
            return (1, 0, ())
        if p.poly.degree == 1:
            return (0, 1, (-p.poly.coeff(0),))
        return (0, p.poly.degree, p.poly.coeffs)

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(st.tuples(
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(-4, 4), st.sampled_from((1, 2, 3, 6))),
                 min_size=4, max_size=4)), min_size=2, max_size=12),
        st.booleans())
    def test_integer_order_is_the_fraction_order(self, drawn, infinity):
        # monic polynomials, not checked irreducible: only the order counts;
        # small numerators over mixed denominators tie in leading places
        places = [Place._trusted(Poly([Fraction(a, b) for a, b in cs[:d]]
                                      + [1]))
                  for d, cs in drawn]
        places += places[:2]
        if infinity:
            places.append(Place.infinity())
        assert sorted(places, key=lambda p: p.sort_key()) == \
            sorted(places, key=self._fraction_key)
        for a in places:
            for b in places:
                ka, kb = a.sort_key(), b.sort_key()
                fa, fb = self._fraction_key(a), self._fraction_key(b)
                assert (ka < kb, ka == kb, ka > kb) == (fa < fb, fa == fb,
                                                        fa > fb)

    def test_rendered_once(self):
        p = Place.finite(Poly((1, 0, 1)))
        assert str(p) is str(p)


class TestOmega:
    def test_spec_examples(self):
        w = choose_omega({Place.rational(0), Place.infinity()})
        assert w.denominator == T.monic()
        w2 = choose_omega({Place.rational(1), Place.rational(2), Place.infinity()})
        assert w2.denominator == T - ONE
        w3 = choose_omega({Place.finite(Poly((1, 0, 1))), Place.infinity()})
        assert w3.denominator == Poly((1, 0, 1))

    def test_no_infinity(self):
        w = choose_omega({Place.rational(0), Place.rational(1)})
        assert w.denominator == T * (T - ONE)

    def test_polar_divisor_is_two_simple_poles(self):
        # the form dt/q has divisor -(polar places): simple poles, no zeros
        for places in (
            {Place.rational(0), Place.infinity()},
            {Place.rational(1), Place.rational(2), Place.infinity()},
            {Place.finite(Poly((1, 0, 1))), Place.infinity()},
            {Place.rational(0), Place.rational(3)},
        ):
            w = choose_omega(places)
            q = w.denominator
            assert sum(p.geom_degree for p in w.polar_places) == 2
            for p in w.polar_places:
                assert p in places
                if not p.is_infinity:
                    assert (q % p.poly).is_zero
                    assert not ((q // p.poly) % p.poly).is_zero
            finite_pole_deg = sum(p.geom_degree for p in w.polar_places
                                  if not p.is_infinity)
            assert q.degree == finite_pole_deg
            # order of dt/q at infinity: q.degree - 2; a pole needs polar infinity
            has_inf = any(p.is_infinity for p in w.polar_places)
            assert (q.degree - 2 == -1) == has_inf

    def test_too_small(self):
        with pytest.raises(STooSmall):
            choose_omega({Place.rational(0)})
        with pytest.raises(ValueError):
            OmegaForm((Place.infinity(), Place.infinity()), Poly.one())
        with pytest.raises(ValueError):
            OmegaForm((Place.rational(0),), Poly((0, 1)))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_candidate_ranking(self, seed):
        # seeded place sets of rational places, t^2 + 1, t^2 - 2,
        # t^2 + t + 1 and t^4 + 2, with and without infinity, some too
        # small for any form
        pool = [Place.rational(a) for a in (-2, -1, 0, Fraction(1, 2), 1, 3)]
        pool += [Place.finite(Poly(c)) for c in
                 ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (2, 0, 0, 0, 1))]
        rng = random.Random(seed)
        too_small = 0
        for _ in range(300):
            places = set(rng.sample(pool, rng.randint(0, 4)))
            if rng.random() < 0.5:
                places.add(Place.infinity())
            try:
                expected = oracle_choose_omega(places)
            except STooSmall:
                too_small += 1
                with pytest.raises(STooSmall):
                    choose_omega(places)
                continue
            assert choose_omega(places) == expected
        assert too_small

    def test_deriv_examples(self):
        w = choose_omega({Place.rational(0), Place.infinity()})
        f = RatFunc.t()
        assert deriv_omega(f, w) == RatFunc.t()
        assert deriv_omega(RatFunc.const(9), w).is_zero
        assert deriv_omega(rat("t^2"), w) == rat("2*t^2")

    def test_deriv_leibniz_and_additivity(self):
        rng = random.Random(61)
        w = choose_omega({Place.rational(0), Place.infinity()})
        for _ in range(500):
            f = rand_ratfunc(rng, 3)
            g = rand_ratfunc(rng, 3)
            assert deriv_omega(f * g, w) == \
                deriv_omega(f, w) * g + f * deriv_omega(g, w)
            assert deriv_omega(f + g, w) == deriv_omega(f, w) + deriv_omega(g, w)


class TestFactorShim:
    def test_factor_reconstructs(self):
        rng = random.Random(71)
        for _ in range(60):
            p = rand_poly(rng, 6)
            if p.degree < 1:
                continue
            prod = Poly.const(p.lc)
            for q, m in factor_poly(p):
                assert q.lc == 1
                prod = prod * q ** m
            assert prod == p

    def test_cache_entry_shared_by_scalar_multiples(self):
        p = Poly((Fraction(1, 3), 0, -2, 5)) * Poly((-1, Fraction(2, 7), 1))
        _factor_cached.cache_clear()
        first = factor_poly(p)
        second = factor_poly(p.scale(Fraction(-3, 7)))
        assert first == second
        info = _factor_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)


# every prime of the degree analysis divides it
_LEAD = prod(_SMALL_PRIMES)


def _primitive(p: Poly) -> list[int]:
    """p's integers, primitive with a positive leading coefficient."""
    c = gcd(*p.nums) * (1 if p.nums[-1] > 0 else -1)
    return [a // c for a in p.nums]


class TestFactoriser:
    """`factor_poly` against sympy's Zassenhaus: the same factors, with
    the same multiplicities, in the same order."""

    @staticmethod
    def check(p: Poly) -> bool:
        """Asserts the factorisation, its multiplicities and its order; True
        when the in-house factoriser decided it within its bounds, False
        when it raised InputTooLarge."""
        _factor_cached.cache_clear()
        try:
            found = factor_poly(p)
        except InputTooLarge:
            return False
        assert found == oracle_factor(p)
        return True

    def test_random_products(self):
        rng = random.Random(2021)
        decided = total = 0
        for _ in range(60):
            p = Poly.one()
            for _ in range(rng.randint(1, 4)):
                deg = rng.randint(1, 5)
                p = p * Poly([rng.randint(-9, 9) for _ in range(deg)]
                             + [rng.choice((1, 2, 3, -1, -4))])
            decided += self.check(p)
            total += 1
        # recombination stays within its subset budget on every product
        assert decided == total

    def test_reducible_pool_remainders(self):
        # pool ops 1 and 26 of the unit-sum workload: the balancing term's
        # numerator, stripped of the places of S, is (t^2 - t + 1) times an
        # irreducible of higher degree; the other 190 are irreducible
        from ffvojta.unitsum import random_vanishing_sum

        S = PlaceSet.of(0, 1, "inf")
        for index in (1, 26):
            last = random_vanishing_sum(S, 5, 10, index).terms[-1]
            rest = strip_set_factors(last.num, S)
            assert self.check(rest)
            factors = factor_poly(rest)
            assert [m for _, m in factors] == [1, 1]
            assert factors[0][0] == Poly((1, -1, 1))
            assert factors[1][0].degree > 2

    @pytest.mark.parametrize("nums", [
        (1, 0, -10, 0, 1),
        (576, 0, -960, 0, 352, 0, -40, 0, 1),
    ], ids=["sqrt2-sqrt3", "sqrt2-sqrt3-sqrt5"])
    def test_swinnerton_dyer(self, nums):
        # irreducible, yet split into factors of degree <= 2 mod every
        # prime: the degree analysis cannot certify them, recombination
        # must try every subset
        p = Poly(nums)
        assert self.check(p)
        assert factor_poly(p) == [(p, 1)]
        assert self.check(p * Poly((-2, 0, 1)))

    def test_quadratics_by_discriminant(self):
        # random reducible, irreducible and repeated quadratics factor as
        # sympy factors them, in sympy's order; a squarefree one splits
        # exactly when its discriminant is a square
        rng = random.Random(26)
        small = list(range(-9, 10))
        kinds = {"reducible": 0, "irreducible": 0, "repeated": 0}
        for k in range(240):
            a, c = rng.choice((1, 2, 3, -1, -4, 6)), rng.choice((1, 2, -3, 5))
            b, d = rng.choice(small), rng.choice(small)
            if k % 3 == 0:
                p = Poly((b, a)) * Poly((d, c))
            elif k % 3 == 1:
                p = (Poly((b, a)) ** 2).scale(rng.choice((1, -2, 3)))
            else:
                p = Poly((rng.choice(small), b, a))
            assert self.check(p)
            c0, b1, a2 = _primitive(p)
            disc = b1 * b1 - 4 * a2 * c0
            multiplicities = [m for _, m in factor_poly(p)]
            if not disc:
                assert multiplicities == [2]
                kinds["repeated"] += 1
            elif disc > 0 and isqrt(disc) ** 2 == disc:
                assert multiplicities == [1, 1]
                kinds["reducible"] += 1
            else:
                assert multiplicities == [1]
                kinds["irreducible"] += 1
        assert min(kinds.values()) >= 30
        # t^2 + t - 6 splits mod every small prime: recombination decides
        assert factor_poly(Poly((-6, 1, 1))) == [(Poly((-2, 1)), 1),
                                                 (Poly((3, 1)), 1)]

    @pytest.mark.parametrize("n", [2, 6, 8, 12, 15, 16, 24])
    def test_cyclotomics(self, n):
        # t^15 - 1 and t^24 - 1 split into 5 and 13 factors mod 17 and 11,
        # the small primes with the fewest; recombination, smallest subsets
        # first, finds their factors in 7 and 26 subsets
        assert self.check(Poly((-1,) + (0,) * (n - 1) + (1,)))
        assert self.check(Poly((1,) + (0,) * (n - 1) + (1,)))

    @pytest.mark.parametrize("k", [17, 18])
    def test_subset_budget(self, k):
        # a degree mask that admits no proper factor rejects every subset,
        # so recombination enumerates them all: the 2^16 - 1 subsets of at
        # most 8 of 17 factors fit the budget, those of 18 factors do not
        mod = 2 ** 61 - 1
        f = [1]
        for j in range(1, k + 1):
            f = [a - j * b for a, b in zip([0] + f, f + [0])]
        mods = [[-j % mod, 1] for j in range(1, k + 1)]
        found = _recombined(f, mods, mod, 1 | 1 << k)
        assert found == ([f] if k == 17 else None)

    def test_past_the_largest_prime_factors(self):
        # a coefficient past the largest Mersenne prime: the factors are
        # lifted from a small prime, to whatever power the bound needs
        big = 2 ** (_MERSENNE_EXPONENTS[-1] + 1) + 1
        p = Poly((-big, 1)) * Poly((-1, 1)) * Poly((-2, 1))
        assert self.check(p)
        assert [q.degree for q, _ in factor_poly(p)] == [1, 1, 1]

    @pytest.mark.parametrize("p", [
        Poly((-1,) + (0,) * 41 + (1,)),
        Poly((-1,) + (0,) * 41 + (1,)) * Poly((-3, 1)) ** 2,
    ], ids=["t^42-1", "(t^42-1)(t-3)^2"])
    def test_lifted_from_the_prime_with_fewest_factors(self, p):
        # t^42 - 1 has 42 linear factors mod 2^61 - 1, past the subset
        # budget, and 10 mod 5, the small prime with the fewest
        assert self.check(p)

    def test_many_linear_factors(self):
        # 30 linear factors, lifted from p = 31 to 31^29
        p = Poly.one()
        for k in range(1, 31):
            p = p * Poly((-k, 1))
        assert self.check(p)
        assert len(factor_poly(p)) == 30

    def test_split_at_a_prime_below_the_split_tries(self):
        # mod 5 the sextic is x^6 + 2x^4 + 4x^2 + 4, two cubics that no
        # x + c separates; the digits of 5 + c, c >= 5, give other residues
        p = Poly((27, 75, 67, 70, 31, 15, 3))
        assert self.check(p)
        assert [q.degree for q, _ in factor_poly(p)] == [3, 3]
        parts = _edf([4, 0, 4, 0, 2, 0, 1], 3, 5)
        assert parts is not None and len(parts) == 2

    @pytest.mark.parametrize("factors", [
        [(1, 1, 0, _LEAD)],
        [(-1, 1), (1, 1, 0, _LEAD)],
        [(2, 0, 1), (5, 0, 0, 1), (-3, _LEAD)],
    ], ids=["Lt^3+t+1", "(t-1)(Lt^3+t+1)", "(t^2+2)(t^3+5)(Lt-3)"])
    def test_no_small_prime_usable(self, factors):
        # L = prod _SMALL_PRIMES divides the leading coefficient, so the
        # primes past them are tried, and the first usable one decides
        p = Poly.one()
        for nums in factors:
            p = p * Poly(nums)
        assert self.check(p)
        assert len(factor_poly(p)) == len(factors)

    def test_no_prime_usable_raises(self):
        # every odd prime below the bound divides the leading coefficient
        lead = prod(p for p in range(3, _LAST_SPLIT_PRIME, 2)
                    if all(p % d for d in range(3, isqrt(p) + 1, 2)))
        with pytest.raises(InputTooLarge, match=f"{_SUBSET_BUDGET} subsets.*"
                           f"{_SPLIT_TRIES} split tries.*{_LAST_SPLIT_PRIME}"):
            factor_poly(Poly((1, 0, lead)))

    @pytest.mark.parametrize("p, multiplicities", [
        (Poly((0, 0, 1)), [2]),
        (Poly((-1, 1)) ** 3 * Poly((1, 0, 1)) ** 2, [3, 2]),
        (Poly((1, 2)) ** 2 * Poly((-3, 1)).scale(4), [1, 2]),
        (Poly((-1, 1)) ** 2 * Poly((2, 1)) * Poly((1, 0, 1)), [1, 2, 1]),
    ], ids=["t^2", "(t-1)^3(t^2+1)^2", "4(2t+1)^2(t-3)", "(t-1)^2(t+2)(t^2+1)"])
    def test_repeated_factor_split_in_house(self, p, multiplicities):
        # gcd(f, f') holds each factor one time fewer than f, so the
        # squarefree part f / g is all that is factored, without sympy
        g, squarefree = _squarefree_split(_primitive(p))
        factors = factor_poly(p)
        repeated = distinct = Poly.one()
        for q, m in factors:
            repeated, distinct = repeated * q ** (m - 1), distinct * q
        assert Poly(g).monic() == repeated
        assert Poly(squarefree).monic() == distinct
        assert self.check(p)
        assert [m for _, m in factors] == multiplicities

    def test_content_and_sign(self):
        p = Poly((Fraction(-6, 5), Fraction(3, 5), 0, Fraction(-12, 5)))
        assert self.check(p)
        assert factor_poly(p) == factor_poly(p.scale(-7))
