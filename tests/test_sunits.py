import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ffvojta.field_core import (
    _CERT_POINTS,
    _CERT_PRIME,
    Place,
    Poly,
    RatFunc,
    _image,
    choose_omega,
    divisor_of,
    height,
    poly_gcd,
)
from ffvojta.sunits import (
    CONSTANT_POOL,
    InvalidSUnit,
    PlaceSet,
    SUnit,
    _cached_terms,
    _unit_at_index,
    as_ratfunc,
    enlarge_for_coefficients,
    euler_char,
    generate,
    mult_dependence,
    render_unit,
    sunit_from_ratfunc,
    unit_image,
)
from ffvojta.parser import render_ratfunc_expr
from conftest import (
    ODD_PLACE_SETS,
    deriv_omega,
    log_derivative,
    oracle_as_ratfunc,
    oracle_mult_dependence,
    rat,
    unit_over,
)


P0 = Place.rational(0)
P1 = Place.rational(1)
PM1 = Place.rational(-1)
INF = Place.infinity()

S01 = PlaceSet.of(0, "inf")
S011 = PlaceSet.of(0, 1, "inf")


class TestEulerChar:
    def test_examples(self):
        assert euler_char(S01) == 0
        assert euler_char(S011) == 1
        assert euler_char(PlaceSet.of(Poly((1, 0, 1)), "inf")) == 1

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            PlaceSet(frozenset())


class TestPlaceSet:
    @pytest.mark.parametrize("S", [S01, S011, *ODD_PLACE_SETS])
    def test_cached_fields(self, S):
        assert S.has_infinity == any(p.is_infinity for p in S.places)
        assert S.geometric_size == sum(p.geom_degree for p in S.places)
        assert S.sorted_places() == sorted(S.places,
                                           key=lambda p: p.sort_key())
        assert S.sorted_places()[:len(S.finite_places())] == \
            list(S.finite_places())

    def test_pickle_round_trip_keeps_lookups(self):
        # a place's hash is found once and kept, but never pickled: the
        # place at infinity hashes None, whose hash differs between
        # processes on CPython 3.11, so the set must be rebuilt on fresh
        # hashes wherever it is loaded
        S = PlaceSet.of(0, Fraction(1, 2), Poly((1, 0, 1)), "inf")
        fresh = [Place.rational(0), Place.rational(Fraction(1, 2)),
                 Place.finite(Poly((1, 0, 1))), Place.infinity()]
        assert all(p in S for p in fresh)
        data = pickle.dumps(S)
        back = pickle.loads(data)
        assert back == S and all(p in back for p in fresh)
        assert back.sorted_places() == S.sorted_places()
        code = ("import pickle, sys\n"
                "from fractions import Fraction\n"
                "from ffvojta.field_core import Place, Poly\n"
                "S = pickle.loads(sys.stdin.buffer.read())\n"
                "fresh = [Place.rational(0), Place.rational(Fraction(1, 2)),\n"
                "         Place.finite(Poly((1, 0, 1))), Place.infinity()]\n"
                "print(all(p in S for p in fresh), S.has_infinity)\n")
        src = os.path.dirname(os.path.dirname(
            sys.modules[PlaceSet.__module__].__file__))
        proc = subprocess.run([sys.executable, "-c", code], input=data,
                              capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [b"True", b"True"]

    def test_sorted_places_is_a_fresh_list(self):
        first = S011.sorted_places()
        first.reverse()
        assert [str(p) for p in S011.sorted_places()] == ["0", "1", "inf"]
        assert S011.sorted_places() is not S011.sorted_places()


class TestSUnit:
    def test_as_ratfunc_examples(self):
        u = SUnit.make(3, {P0: 2}, S01)
        assert as_ratfunc(u) == rat("3*t^2")
        v = SUnit.make(1, {P0: 1, P1: -1}, S011)
        assert as_ratfunc(v) == rat("t/(t-1)")
        assert as_ratfunc(SUnit.make(1, {}, S01)) == RatFunc.one()
        q = Place.finite(Poly((1, 0, 1)))
        w = SUnit.make(Fraction(-2, 3), {P0: 3, P1: 2, q: -2},
                       PlaceSet.of(0, 1, q, "inf"))
        assert as_ratfunc(w) == rat("(-2/3)*t^3*(t-1)^2/(t^2+1)^2")

    def test_validation(self):
        with pytest.raises(InvalidSUnit):
            SUnit.make(0, {}, S01)
        with pytest.raises(InvalidSUnit):
            SUnit.make(1, {P1: 1}, S01)  # place outside S
        no_inf = PlaceSet.of(0, 1)
        with pytest.raises(InvalidSUnit):
            SUnit.make(1, {P0: 1}, no_inf)  # unbalanced without infinity
        balanced = SUnit.make(1, {P0: 1, P1: -1}, no_inf)
        assert balanced.inf_order == 0

    def test_from_ratfunc_roundtrip(self):
        u = sunit_from_ratfunc(rat("(-3/2)*t^2/(t-1)"), S011)
        assert as_ratfunc(u) == rat("(-3/2)*t^2/(t-1)")
        with pytest.raises(InvalidSUnit):
            sunit_from_ratfunc(rat("t-2"), S011)


# places no workload reaches: non-integer roots, irreducible quadratics and a
# root far past any machine word
_WIDE_PLACES = (Place.rational(Fraction(1, 2)), Place.rational(Fraction(-3, 4)),
                Place.finite(Poly((1, 0, 1))), Place.finite(Poly((1, 1, 1))),
                Place.rational(10 ** 12))
_S_WIDE = PlaceSet(frozenset(_WIDE_PLACES) | {INF})


def _parts(f: RatFunc) -> tuple:
    return f.num.coeffs, f.den.coeffs


class TestExpansion:
    """`as_ratfunc` (one Kronecker-packed integer product above and below
    the line) against the Fraction schoolbook in `oracle_as_ratfunc`."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.one_of(st.sampled_from(CONSTANT_POOL),
                     st.fractions().filter(bool)),
           st.dictionaries(st.sampled_from(_WIDE_PLACES),
                           st.integers(-40, 40)))
    def test_matches_oracle(self, constant, exponents):
        u = SUnit.make(constant, exponents, _S_WIDE)
        assert _parts(as_ratfunc(u)) == _parts(oracle_as_ratfunc(u))

    def test_constant_unit(self):
        u = SUnit.make(Fraction(-3, 2), {}, _S_WIDE)
        assert _parts(as_ratfunc(u)) == ((Fraction(-3, 2),), (Fraction(1),))

    @pytest.mark.parametrize("root, e", [
        (-1, 64), (1, 64), (-1, -64), (1, -64),
        (10 ** 12, 3), (10 ** 12, -3), (Fraction(1, 2), 1),
    ])
    def test_near_bound(self, root, e):
        # the middle binomial of (t -+ 1)^64, about 2^60.7, against a
        # packing bound of 2^64; the constant term 10^36 of (t - 10^12)^3
        # and the 2 of 2t - 1 need every bit of the packing width
        S = PlaceSet.of(root, "inf")
        u = SUnit.make(3, {Place.rational(root): e}, S)
        assert _parts(as_ratfunc(u)) == _parts(oracle_as_ratfunc(u))


# t among the places or not, t - 1/2 (its nums 2t - 1, lift 2), quadratic
# places, and two sets without infinity, where the exponents must balance
_RENDER_SETS = (
    PlaceSet.of(0, 1, "inf"),
    PlaceSet.of(0, 2, -1, "inf"),
    PlaceSet.of(0, Fraction(1, 2), Poly((1, 0, 1)), "inf"),
    PlaceSet.of(Poly((-2, 0, 1)), Poly((2, 0, 1)), "inf"),
    PlaceSet.of(Fraction(-3, 7), 5),
    PlaceSet.of(0),
)


class TestRenderUnit:
    """`render_unit` renders each side of a unit from its integer product;
    the expansion `as_ratfunc` renders its normal form.  The bytes agree."""

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, len(_RENDER_SETS) - 1),
           st.lists(st.integers(-150, 150), min_size=3, max_size=3))
    @example(0, [0, 0, 0])  # the constant unit
    @example(5, [0, 0, 0])  # the only units over {0}
    @example(2, [-150, -7, -3])  # only negative exponents
    @example(1, [-1, -40, -150])
    @example(0, [150, 0, 0])  # only t, above and below
    @example(0, [-150, 0, 0])
    @example(4, [-150, 0, 0])  # lifts 7 above, 1 below
    # the lift 2^5 of (t - 1/2)^5 shares a factor with c = 2, -2, 1/2, ...
    @example(2, [1, 5, -2])
    def test_matches_the_expansion(self, which, exponents):
        S = _RENDER_SETS[which]
        finite = S.finite_places()
        exps = dict(zip(finite, exponents))
        if not S.has_infinity:
            # every finite place of these sets has degree 1: the last one
            # balances the others
            last = finite[-1]
            exps[last] = -sum(e for p, e in exps.items() if p != last)
        for constant in CONSTANT_POOL:
            u = SUnit.make(constant, exps, S)
            got, want = render_unit(u), render_ratfunc_expr(as_ratfunc(u))
            # a flag, not the comparison: pytest's diff of two one-line
            # strings of thousands of characters is quadratic, and every
            # step of shrinking a failure would pay it
            same = got == want
            assert same, (got, want)

    def test_examples(self):
        S = _RENDER_SETS[2]
        half = Place.rational(Fraction(1, 2))
        q = Place.finite(Poly((1, 0, 1)))
        assert render_unit(SUnit.make(-1, {}, S)) == "(-1)"
        assert render_unit(SUnit.make(1, {P0: -2}, S)) == "(1)/(t^2)"
        # -(t - 1/2) t^3 / (t^2 + 1): the lift 2 of t - 1/2 reduces
        # against the constant coefficient alone
        assert render_unit(SUnit.make(-1, {half: 1, P0: 3, q: -1}, S)) == (
            "(-t^4 + 1/2*t^3)/(t^2 + 1)")
        assert render_unit(SUnit.make(Fraction(3, 2), {half: -1}, S)) == (
            "(3/2)/(t - 1/2)")


class TestTermsCache:
    """`render_unit` reads the terms of each side from `_cached_terms`,
    keyed on the side's place powers and its scale and never on its power
    of t; a side past the cap is rendered afresh and not kept."""

    def test_hits_come_from_place_powers(self):
        # 2,000 pairs of library seed 11, each unit rendered once: a hit is
        # a place power and a scale that an earlier unit shared
        _cached_terms.cache_clear()
        units = generate(S011, 25, 4000, 11)
        keys = set()
        for u in units:
            # the places of S011 are monic over Z, so each lift is 1 and a
            # side's scale is c above and 1 below
            keys.add((tuple((p, e) for p, e in u.exponents
                            if e > 0 and p != P0), u.constant))
            keys.add((tuple((p, -e) for p, e in u.exponents
                            if e < 0 and p != P0), 1))
            got, want = render_unit(u), render_ratfunc_expr(as_ratfunc(u))
            same = got == want
            assert same, (got, want)
        # 4,000 units share fewer than 400 keys, and every other lookup hits
        info = _cached_terms.cache_info()
        assert info.misses <= len(keys) < len(units) / 10
        assert info.hits >= len(units)

    def test_side_past_the_cap(self):
        # (t - 1)^200: 201 terms charged at least 176 bytes each, far past
        # the cap; (t - 1)^25 fits
        _cached_terms.cache_clear()
        u = SUnit.make(1, {P1: 200}, S011)
        for _ in range(2):
            assert render_unit(u) == render_ratfunc_expr(as_ratfunc(u))
        assert _cached_terms.cache_info().currsize == 0
        render_unit(SUnit.make(1, {P1: 25}, S011))
        assert _cached_terms.cache_info().currsize == 1

    def test_the_shift_is_not_in_the_key(self):
        _cached_terms.cache_clear()
        assert render_unit(SUnit.make(2, {P0: 3, P1: 2}, S011)) == (
            "(2*t^5 - 4*t^4 + 2*t^3)")
        assert render_unit(SUnit.make(2, {P1: 2}, S011)) == (
            "(2*t^2 - 4*t + 2)")
        assert render_unit(SUnit.make(-1, {P0: -1, P1: -2}, S011)) == (
            "(-1)/(t^3 - 2*t^2 + t)")
        info = _cached_terms.cache_info()
        # 2 * (t - 1)^2 misses at t^3 and hits at t^0; the last unit's
        # sides -1 and (t - 1)^2 over 1 are keys of their own
        assert (info.misses, info.hits) == (3, 1)

    def test_sides_of_several_places(self):
        # (t - 2)^2 (t + 1)^3 is one key, met again at t^1 and below the
        # line; (t - 1/2)^2 (t - 2) keys on its lift 4 in the scale
        _cached_terms.cache_clear()
        P2, half = Place.rational(2), Place.rational(Fraction(1, 2))
        S = PlaceSet(frozenset({P0, P2, PM1, half, INF}))
        units = [SUnit.make(3, {P2: 2, PM1: 3}, S),
                 SUnit.make(3, {P0: 1, P2: 2, PM1: 3}, S),
                 SUnit.make(1, {P2: -2, PM1: -3}, S),
                 SUnit.make(Fraction(-1, 3), {half: 2, P2: 1, P0: -4}, S)]
        for u in units + units:
            assert render_unit(u) == render_ratfunc_expr(as_ratfunc(u))
        info = _cached_terms.cache_info()
        # 6 lookups a pass: the first misses 3 * (t - 2)^2 (t + 1)^3, the
        # empty side over 1, (t - 2)^2 (t + 1)^3 over 1 and the last
        # numerator, and hits the second unit and the last denominator
        assert (info.misses, info.hits) == (4, 8)


class TestUnitImage:
    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, len(ODD_PLACE_SETS)), st.integers(0, 2 ** 32),
           st.integers(1, 12))
    def test_matches_the_image_of_the_expansion(self, which, seed, max_exp):
        S = (S011, *ODD_PLACE_SETS)[which]
        u = unit_over(S, random.Random(seed), max_exp)
        for tau in _CERT_POINTS:
            assert unit_image(u, tau, _CERT_PRIME) == \
                _image(as_ratfunc(u), tau, _CERT_PRIME)

    def test_pole_at_the_point(self):
        tau = _CERT_POINTS[0]
        S = PlaceSet.of(tau, 0, "inf")
        pole = SUnit.make(3, {Place.rational(tau): -2, P0: 1}, S)
        assert unit_image(pole, tau, _CERT_PRIME) is None
        # a zero there is an image, 0
        zero = SUnit.make(3, {Place.rational(tau): 2, P0: -1}, S)
        assert unit_image(zero, tau, _CERT_PRIME) == 0
        for u in (pole, zero):
            tau = _CERT_POINTS[1]
            assert unit_image(u, tau, _CERT_PRIME) == \
                _image(as_ratfunc(u), tau, _CERT_PRIME)

    def test_constant_denominator_divisible_by_p(self):
        u = SUnit.make(Fraction(1, _CERT_PRIME), {P0: 1}, S011)
        assert unit_image(u, _CERT_POINTS[0], _CERT_PRIME) is None


class TestUnitHeight:
    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, len(ODD_PLACE_SETS)), st.integers(0, 2 ** 32),
           st.integers(1, 12))
    def test_matches_the_height_of_the_expansion(self, which, seed, max_exp):
        S = (S011, *ODD_PLACE_SETS)[which]
        u = unit_over(S, random.Random(seed), max_exp)
        assert u.height == height(as_ratfunc(u))

    def test_examples(self):
        S = ODD_PLACE_SETS[1]
        q = Place.finite(Poly((1, 0, 1)))
        assert SUnit.make(Fraction(-3, 2), {}, S).height == 0
        # (t^2 + 1)^3 / t and t^5 / (t^2 + 1)^2
        assert SUnit.make(1, {q: 3, P0: -1}, S).height == 6
        assert SUnit.make(2, {q: -2, P0: 5}, S).height == 5


class TestLogDerivative:
    def test_spec_examples(self):
        w = choose_omega(S01.places)
        u = SUnit.make(1, {P0: 1}, S01)
        theta = log_derivative(u, w)
        assert theta == RatFunc.one()
        assert height(theta) == 0 == euler_char(S01)

        assert log_derivative(SUnit.make(7, {}, S01), w).is_zero

        w2 = choose_omega(S011.places)
        assert w2.denominator == Poly.t().monic()
        v = SUnit.make(1, {P0: 1, P1: -1}, S011)
        theta2 = log_derivative(v, w2)
        assert theta2 == rat("-1/(t-1)")
        assert height(theta2) == 1 == euler_char(S011)

    def test_matches_derivative_quotient(self):
        rng = random.Random(5)
        w = choose_omega(S011.places)
        for _ in range(100):
            u = unit_over(S011, rng, 4)
            f = as_ratfunc(u)
            if u.is_constant:
                continue
            assert log_derivative(u, w) == deriv_omega(f, w) / f

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.sampled_from(ODD_PLACE_SETS), st.integers(0, 2 ** 32))
    def test_matches_derivative_quotient_on_odd_sets(self, S, seed):
        # the divide-out of q's places: t^2 + 1 cancels when it is the
        # form's pole, and no set here has a pole at infinity
        w = choose_omega(S.places)
        u = unit_over(S, random.Random(seed), 4)
        f = as_ratfunc(u)
        assert log_derivative(u, w) == deriv_omega(f, w) / f

    def test_additive(self):
        rng = random.Random(6)
        w = choose_omega(S011.places)
        for _ in range(60):
            u = unit_over(S011, rng, 4)
            v = unit_over(S011, rng, 4)
            assert log_derivative(u * v, w) == \
                log_derivative(u, w) + log_derivative(v, w)

    def test_bound_and_simple_poles(self):
        rng = random.Random(7)
        for spec in ((0, "inf"), (0, 1, "inf"), (0, 1, -1, "inf")):
            S = PlaceSet.of(*spec)
            w = choose_omega(S.places)
            chi = euler_char(S)
            for _ in range(200):
                u = unit_over(S, rng, 5)
                theta = log_derivative(u, w)
                if theta.is_zero:
                    continue
                assert height(theta) <= chi
                den = theta.den
                assert poly_gcd(den, den.derivative()).degree == 0


class TestDependence:
    def test_spec_examples(self):
        u = SUnit.make(1, {P0: 2}, S01)
        v = SUnit.make(1, {P0: 3}, S01)
        d = mult_dependence(u, v)
        assert (d.dependent, d.r, d.s) == (True, 3, -2)
        assert d.gamma == RatFunc.one()

        d2 = mult_dependence(SUnit.make(1, {P0: 1}, S011),
                             SUnit.make(1, {P1: 1}, S011))
        assert not d2.dependent

        d3 = mult_dependence(SUnit.make(4, {P0: 2}, S01),
                             SUnit.make(2, {P0: 1}, S01))
        assert (d3.r, d3.s) == (1, -2)
        assert d3.gamma == RatFunc.one()

    def test_self_dependence(self):
        rng = random.Random(8)
        for _ in range(50):
            u = unit_over(S011, rng, 4)
            if u.is_constant:
                continue
            d = mult_dependence(u, u)
            assert (d.r, d.s) == (1, -1)
            assert d.gamma == RatFunc.one()

    def test_gamma_identity_exact(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(300):
            u = unit_over(S011, rng, 3)
            base = unit_over(S011, rng, 2)
            k = rng.randint(-3, 3)
            v = base if rng.random() < 0.5 else u ** k if k else u
            d = mult_dependence(u, v)
            if d.dependent:
                hits += 1
                assert as_ratfunc(u) ** d.r * as_ratfunc(v) ** d.s == d.gamma
                assert d.r > 0 or (d.r == 0 and d.s > 0)
        assert hits > 20

    def test_agrees_with_oracle(self):
        # half the pairs are multiples m*d, n*d of one direction d (m or n
        # may be 0); the rest are drawn freely and mostly independent
        S = PlaceSet.of(0, 1, 2, "inf")
        places = S.finite_places()
        rng = random.Random(2019)
        dependent = 0
        for _ in range(10000):
            if rng.random() < 0.5:
                d = [rng.randint(-3, 3) for _ in places]
                m, n = rng.randint(-3, 3), rng.randint(-3, 3)
                ea, eb = [m * x for x in d], [n * x for x in d]
            else:
                ea = [rng.randint(-2, 2) for _ in places]
                eb = [rng.randint(-2, 2) for _ in places]
            u = SUnit.make(rng.choice((1, -2, Fraction(1, 3))),
                           dict(zip(places, ea)), S)
            v = SUnit.make(rng.choice((1, 3, Fraction(-1, 2))),
                           dict(zip(places, eb)), S)
            d = mult_dependence(u, v)
            assert d == oracle_mult_dependence(u, v)
            dependent += d.dependent
        assert 4000 < dependent < 6000


class TestGenerate:
    def test_shape_contract(self):
        units = generate(S01, 3, 2, 42)
        assert len(units) == 2
        for u in units:
            assert all(abs(e) <= 3 for _, e in u.exponents)
            assert set(p for p, _ in u.exponents) <= {P0}

    def test_empty(self):
        assert generate(S011, 4, 0, 1) == []

    def test_deterministic(self):
        a = generate(S011, 5, 40, 77)
        b = generate(S011, 5, 40, 77)
        assert a == b
        c = generate(S011, 5, 40, 78)
        assert a != c

    def test_supported_in_s(self):
        for u in generate(S011, 6, 50, 3):
            f = as_ratfunc(u)
            if f.is_constant:
                continue
            assert divisor_of(f).keys() <= S011.places

    def test_balanced_without_infinity(self):
        S = PlaceSet.of(0, 1)
        for u in generate(S, 4, 30, 9):
            assert u.inf_order == 0

    @pytest.mark.parametrize("S", [S011, PlaceSet.of(0, 1, -1),
                                   PlaceSet.of(Fraction(1, 2), -3, "inf",
                                               Poly((1, 0, 1)))])
    def test_units_as_validated_by_make(self, S):
        # the same draws through SUnit.make's sort and validation
        for index in range(40):
            rng = random.Random(f"sunit:5:{index}")
            while True:
                exps = {p: rng.randint(-3, 3) for p in S.finite_places()}
                if S.has_infinity or sum(
                        e * p.geom_degree for p, e in exps.items()) == 0:
                    break
            expected = SUnit.make(rng.choice(CONSTANT_POOL), exps, S)
            assert _unit_at_index(S, 3, 5, index) == expected

    @pytest.mark.parametrize("S, max_exponent", [
        (S, m)
        for S in (S011, PlaceSet.of(Fraction(1, 2), -3, "inf",
                                    Poly((1, 0, 1))))
        for m in (1, 3, 4, 2 ** 40)
    ] + [
        (S, m)
        for S in (PlaceSet.of(0, 1), PlaceSet.of(Poly((1, 0, 1)), 0, 5))
        for m in (1, 3, 4)
    ])
    def test_stream_is_random_py_draws(self, S, max_exponent):
        # widths 3, 7 = 2^3 - 1 and 9 just past it, and 2^41 + 1, whose
        # draws span two 32-bit words; without infinity the balance
        # redraws, with a place of degree 2 among the weights
        for seed in (0, 7, -3, 10 ** 30):
            for index in range(25):
                rng = random.Random(f"sunit:{seed}:{index}")
                while True:
                    exps = [rng.randint(-max_exponent, max_exponent)
                            for _ in S.finite_places()]
                    if S.has_infinity or sum(
                            e * p.geom_degree
                            for p, e in zip(S.finite_places(), exps)) == 0:
                        break
                constant = rng.choice(CONSTANT_POOL)
                u = _unit_at_index(S, max_exponent, seed, index)
                assert u.constant == constant
                assert u.exponents == tuple(
                    (p, e) for p, e in zip(S.finite_places(), exps) if e)


class TestEnlarge:
    def test_examples(self):
        S2 = enlarge_for_coefficients(S01, [rat("t-1")])
        assert S2.places == S011.places

        assert enlarge_for_coefficients(S011, [RatFunc.const(4)]) == S011

        S3 = enlarge_for_coefficients(PlaceSet.of("inf"), [rat("(t^2+1)/t")])
        assert S3.places == {P0, Place.finite(Poly((1, 0, 1))), INF}
