import random
from fractions import Fraction

import pytest

from ffvojta.counting import (
    MAX_SUBSUM_TERMS,
    BoundCheck,
    ConstantQuotient,
    NotSInteger,
    NotUnit,
    VanishingSubsum,
    ZeroDifference,
    check_cz_gcd_bound,
    check_zannier_bound,
    find_vanishing_subsum,
    gcd_units_sum,
    min_ord_sum,
    trunc_count,
)
from ffvojta.field_core import (
    _CERT_POINTS,
    _CERT_PRIME,
    Place,
    Poly,
    RatFunc,
    ZeroFunction,
    _factor_cached,
    _image,
)
from ffvojta.sunits import PlaceSet, SUnit, as_ratfunc, euler_char, mult_dependence
from conftest import (
    oracle_min_ord_sum,
    oracle_trunc_count,
    oracle_vanishing_subsum,
    rat,
    unit_over,
)


P0 = Place.rational(0)
P1 = Place.rational(1)
PM1 = Place.rational(-1)
S01 = PlaceSet.of(0, "inf")
S011 = PlaceSet.of(0, 1, "inf")


class TestTruncCount:
    def test_examples(self):
        assert trunc_count(rat("t^2*(t-1)^3*(t-2)"), S01) == 2
        assert trunc_count(rat("(t-3)^2"), S01) == 1
        assert trunc_count(rat("t^5*(t-1)*(t-2)*(t-7)"), S01) == 0

    def test_fixture_pair(self):
        # A = X+Y+1 at (t^2, -2t) gives (t-1)^2
        value = rat("t^2") + rat("-2*t") + RatFunc.one()
        assert value == rat("(t-1)^2")
        assert trunc_count(value, S01) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroFunction):
            trunc_count(RatFunc.zero(), S01)

    def test_infinity_outside_s(self):
        S = PlaceSet.of(0, 1)
        # 1/t^3 has a zero of order 3 at infinity
        assert trunc_count(rat("1/t^3"), S) == 2

    def test_total_is_weighted_per_place(self):
        # the place t^2 + 1 counts 2 twice, t - 4 once
        f = rat("(t^2+1)^3*(t-4)^2")
        assert trunc_count(f, S01) == 2 * 2 + 1 == oracle_trunc_count(f, S01)

    def test_count_factors_nothing(self):
        # t^42 - 1 splits into 42 linear factors mod the factoriser's
        # primes, past its subset budget; the count is deg gcd(N, N') and
        # leaves the factor cache untouched
        f = RatFunc(Poly((-1,) + (0,) * 41 + (1,)) * Poly((-3, 1)) ** 2)
        before = _factor_cached.cache_info()
        assert trunc_count(f, PlaceSet.of("inf")) == 1
        after = _factor_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_oracle_equivalence(self):
        rng = random.Random(17)
        # repeated factors of degree >= 2 first, then random products
        funcs = [rat("(t^2+1)^2*(t-3)^3"),
                 rat("t^2*(t^2+t+1)^3*(t^3-2)^2*(t-5)/(t-1)^4")]
        for _ in range(120):
            f = Poly.const(Fraction(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3)):
                base = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                            + [1])
                f = f * base ** rng.randint(1, 4)
            u = as_ratfunc(unit_over(S011, rng, 3))
            funcs.append(RatFunc(f) * u)
        for func in funcs:
            assert trunc_count(func, S011) == oracle_trunc_count(func, S011)


class TestMinOrdSum:
    def test_examples(self):
        assert min_ord_sum(rat("t*(t-1)^2"), rat("(t-1)^3*(t-2)"), S01) == 2
        assert min_ord_sum(rat("(t-2)*(t-3)"), rat("(t-4)*(t-5)"), S01) == 0
        assert min_ord_sum(rat("(t-5)^3"), rat("(t-5)^3"), S01) == 3

    def test_symmetry(self):
        f, g = rat("(t-2)^2*(t-3)"), rat("(t-2)*(t-3)^4")
        assert min_ord_sum(f, g, S01) == min_ord_sum(g, f, S01)

    def test_not_s_integer(self):
        with pytest.raises(NotSInteger) as err:
            min_ord_sum(rat("1/(t-3)"), rat("t"), S01)
        assert str(err.value.place) == "3"
        S = PlaceSet.of(0, 1)
        with pytest.raises(NotSInteger) as err2:
            min_ord_sum(rat("t^2"), rat("t"), S)
        assert err2.value.place.is_infinity

    def test_oracle_equivalence(self):
        rng = random.Random(18)
        for _ in range(80):
            def build():
                p = Poly.one()
                for _ in range(rng.randint(1, 3)):
                    base = Poly([rng.randint(-2, 2)
                                 for _ in range(rng.randint(1, 2))] + [1])
                    p = p * base ** rng.randint(1, 3)
                return RatFunc(p) * as_ratfunc(unit_over(S011, rng, 2))
            f, g = build(), build()
            assert min_ord_sum(f, g, S011) == oracle_min_ord_sum(f, g, S011)


class TestGcdUnitsSum:
    def test_examples(self):
        assert gcd_units_sum(rat("t+1"), RatFunc.one(),
                             rat("t^2+1"), RatFunc.one(), S01) == 0
        assert gcd_units_sum(rat("(t-2)^2+1"), RatFunc.one(),
                             rat("(t-2)^3+1"), RatFunc.one(), S01) == \
            min_ord_sum(rat("(t-2)^2"), rat("(t-2)^3"), S01) == 2
        assert gcd_units_sum(rat("t+3"), rat("3"),
                             rat("t-5"), rat("-5"), S01) == 0

    def test_zero_difference(self):
        with pytest.raises(ZeroDifference):
            gcd_units_sum(RatFunc.t(), RatFunc.t(), rat("t+1"),
                          RatFunc.one(), S01)


class TestCZGcdBound:
    def test_independent_example(self):
        q1 = SUnit.make(1, {P0: 1}, S011)
        q2 = SUnit.make(1, {P1: 1}, S011)
        dep = mult_dependence(q1, q2)
        assert not dep.dependent
        chk = check_cz_gcd_bound(RatFunc.t(), RatFunc.one(), rat("t-1"),
                                 RatFunc.one(), S011, dep)
        assert chk.rhs_cubed is not None
        assert chk.lhs == 0 and chk.holds

    def test_dependent_example(self):
        q = SUnit.make(1, {P0: 1}, S01)
        dep = mult_dependence(q, q)
        chk = check_cz_gcd_bound(RatFunc.t(), RatFunc.one(), RatFunc.t(),
                                 RatFunc.one(), S01, dep)
        assert chk.rhs_cubed is None
        assert chk.lhs == 1 and chk.rhs == Fraction(1) and chk.holds

    def test_dependent_power_pair(self):
        # q1 = t^6, q2 = t^10: generating relation (5, -3), gcd degree 2
        q1 = SUnit.make(1, {P0: 6}, S01)
        q2 = SUnit.make(1, {P0: 10}, S01)
        dep = mult_dependence(q1, q2)
        assert (dep.r, dep.s) == (5, -3)
        chk = check_cz_gcd_bound(as_ratfunc(q1), RatFunc.one(),
                                 as_ratfunc(q2), RatFunc.one(), S01, dep)
        assert chk.lhs == 2 and chk.rhs == Fraction(2) and chk.holds

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_cube_comparison_at_equality(self, k):
        # q1 = t^2, q2 = (t-1)^2 over {0, 1, inf}: rhs_cubed = 54 * 2^2 * 1
        # = 6^3.  alpha = beta = (t-5)^k puts k common zeros at t = 5, and
        # t^2 - 1 and (t-1)^2 - 1 share none outside V, so lhs = k.
        q1 = SUnit.make(1, {P0: 2}, S011)
        q2 = SUnit.make(1, {P1: 2}, S011)
        alpha = rat(f"(t-5)^{k}")
        chk = check_cz_gcd_bound(as_ratfunc(q1) * alpha, alpha,
                                 as_ratfunc(q2) * alpha, alpha, S011,
                                 mult_dependence(q1, q2))
        assert (chk.lhs, chk.rhs, chk.rhs_cubed) == (k, None, 216)
        assert chk.holds == (chk.lhs ** 3 <= chk.rhs_cubed) == (k <= 6)

    def test_constant_quotient_rejected(self):
        dep = mult_dependence(SUnit.make(1, {P0: 1}, S01),
                              SUnit.make(1, {P0: 1}, S01))
        with pytest.raises(ConstantQuotient):
            check_cz_gcd_bound(rat("2*t"), rat("t"), RatFunc.t(),
                               RatFunc.one(), S01, dep)

    def test_random_instances_hold(self):
        rng = random.Random(19)
        for _ in range(120):
            q1 = unit_over(S011, rng, 4)
            if rng.random() < 0.4:
                q2 = q1 ** rng.randint(1, 3)
                q2 = SUnit.make(q2.constant * 2, dict(q2.exponents), S011)
            else:
                q2 = unit_over(S011, rng, 4)
            if q1.is_constant or q2.is_constant:
                continue
            alpha = as_ratfunc(unit_over(S011, rng, 2))
            beta = as_ratfunc(unit_over(S011, rng, 2))
            u = as_ratfunc(q1) * alpha
            v = as_ratfunc(q2) * beta
            dep = mult_dependence(q1, q2)
            chk = check_cz_gcd_bound(u, alpha, v, beta, S011, dep)
            assert chk.holds


class TestBoundCheck:
    def test_fraction_side_written_as_text(self):
        chk = BoundCheck(2, False, rhs=Fraction(3, 2))
        assert chk.to_json() == {"lhs": 2, "rhs": "3/2", "holds": False}


class TestZannierBound:
    def test_examples(self):
        chk = check_zannier_bound([RatFunc.t(), RatFunc.one()], S01)
        assert chk.lhs == 1 and chk.rhs == Fraction(1) and chk.holds

        chk2 = check_zannier_bound([RatFunc.one(), RatFunc.one()], S01)
        assert chk2.lhs == 0 and chk2.rhs == Fraction(0) and chk2.holds

    def test_errors(self):
        with pytest.raises(NotUnit):
            check_zannier_bound([rat("t-3")], S01)
        with pytest.raises(VanishingSubsum) as err:
            check_zannier_bound([RatFunc.t(), -RatFunc.t(), RatFunc.one()], S01)
        assert err.value.subset == (0, 1)

    def test_full_sum_zero_rejected(self):
        with pytest.raises(VanishingSubsum):
            check_zannier_bound([RatFunc.t(), -RatFunc.t()], S01)

    def test_random_instances_hold(self):
        rng = random.Random(20)
        done = 0
        while done < 100:
            m = rng.randint(2, 4)
            units = [as_ratfunc(unit_over(S011, rng, 3)) for _ in range(m)]
            if find_vanishing_subsum(units) is not None:
                continue
            total = RatFunc.zero()
            for f in units:
                total = total + f
            if total.is_zero:
                continue
            assert check_zannier_bound(units, S011).holds
            done += 1


class TestFindVanishingSubsum:
    """The search fingerprinted mod p must return what the exact brute
    force returns, also where images collide or no point is usable."""

    def test_agrees_with_oracle(self):
        rng = random.Random(67)
        t = RatFunc.t()
        for k in range(80):
            terms = [as_ratfunc(unit_over(S011, rng, 3))
                     for _ in range(rng.randint(1, 5))]
            w = as_ratfunc(unit_over(S011, rng, 2))
            if k % 4 == 0:
                terms.append(-rng.choice(terms))
            elif k % 4 == 1:
                terms += [w * t, w * (1 - t), -w]
            elif k % 4 == 2:
                # scaled copies: u + 2u - 3u = 0
                u = rng.choice(terms)
                terms += [2 * u, -3 * u]
            rng.shuffle(terms)
            terms = terms[:8]
            assert find_vanishing_subsum(terms) == oracle_vanishing_subsum(terms)

    def test_least_mask_wins(self):
        # masks 0b1001 and 0b1100 both vanish; a Gray-code walk meets 0b1100
        # first, the old ascending loop 0b1001
        terms = [RatFunc.one(), RatFunc.t(), RatFunc.one(), -RatFunc.one()]
        assert find_vanishing_subsum(terms) == (0, 3)

    def test_pinned_collision(self):
        # t and -(t + p) cancel in every image, but their sum is -p
        t = RatFunc.t()
        shifted = -(t + RatFunc.const(_CERT_PRIME))
        for tau in _CERT_POINTS:
            assert (_image(t, tau, _CERT_PRIME)
                    + _image(shifted, tau, _CERT_PRIME)) % _CERT_PRIME == 0
        assert find_vanishing_subsum([t, shifted, RatFunc.one()]) is None
        terms = [t, shifted, RatFunc.const(_CERT_PRIME), RatFunc.one()]
        assert find_vanishing_subsum(terms) == (0, 1, 2)

    def test_no_usable_point(self):
        c = RatFunc.const(Fraction(1, _CERT_PRIME))
        for tau in _CERT_POINTS:
            assert _image(c, tau, _CERT_PRIME) is None
        t = RatFunc.t()
        for terms, expected in (
                ([c * t, t, -c * t, RatFunc.one()], (0, 2)),
                ([c, t, 1 - t, -RatFunc.one()], (1, 2, 3)),
                ([c, t, RatFunc.one()], None)):
            assert find_vanishing_subsum(terms) == expected
            assert oracle_vanishing_subsum(terms) == expected

    def test_cap(self):
        with pytest.raises(ValueError):
            find_vanishing_subsum([RatFunc.one()] * (MAX_SUBSUM_TERMS + 1))


def test_euler_char_values():
    assert euler_char(S01) == 0
    assert euler_char(S011) == 1
    assert euler_char(PlaceSet.of(0, 1, -1, "inf")) == 2
