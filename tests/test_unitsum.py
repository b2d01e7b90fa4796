import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ffvojta

from ffvojta.counting import (
    NotUnit,
    VanishingSubsum,
    _check_v_unit,
    find_vanishing_subsum,
)
from ffvojta.field_core import (
    _CERT_POINTS,
    _CERT_PRIME,
    RatFunc,
    _image,
    divisor_of,
    ord_at,
)
from ffvojta.parser import parse_place
from ffvojta.sunits import PlaceSet, SUnit, as_ratfunc
from ffvojta.unitsum import (
    MAX_DRAWS,
    DrawsExhausted,
    SumNonzero,
    VanishingSum,
    _known_den_sum,
    _sum_images,
    bm_weight,
    check_bm,
    random_vanishing_sum,
)
from conftest import (
    ODD_PLACE_SETS,
    oracle_vanishing_subsum,
    rat,
    unit_over,
)


S011 = PlaceSet.of(0, 1, "inf")
# over {0, 1, inf} and the odd sets, some without infinity
SETS = (S011, *ODD_PLACE_SETS)


class TestWeights:
    def test_values(self):
        assert bm_weight(0) == 0
        assert bm_weight(1) == 0
        assert bm_weight(2) == 0
        assert bm_weight(3) == 1
        assert bm_weight(5) == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bm_weight(-1)


class TestVanishingSum:
    def test_fixture_builds(self):
        vs = VanishingSum.build([rat("t"), rat("1-t"), rat("-1")], S011)
        assert len(vs.terms) == 3

    def test_sum_nonzero_rejected(self):
        with pytest.raises(SumNonzero):
            VanishingSum.build([rat("t"), rat("1-t"), rat("1")], S011)

    def test_vanishing_subsum_rejected(self):
        with pytest.raises(VanishingSubsum):
            VanishingSum.build(
                [rat("t"), rat("-t"), rat("1-t"), rat("t-1")], S011)

    def test_not_unit_rejected(self):
        with pytest.raises(NotUnit):
            VanishingSum.build([rat("t-3"), rat("1-t"), rat("2")], S011)

    @pytest.mark.parametrize("terms, places, message", [
        (["t-3", "1-t", "2"], S011, "t - 3 has a zero outside the place set"),
        (["1/(t-3)", "-1", "(t-4)/(t-3)"], S011,
         "(1)/(t - 3) has a pole outside the place set"),
        (["t", "1-t", "-1"], PlaceSet.of(0, 1),
         "t has a zero or pole at infinity"),
    ], ids=["zero-outside", "pole-outside", "infinity-outside"])
    def test_not_unit_messages(self, terms, places, message):
        with pytest.raises(NotUnit, match=f"^{re.escape(message)}$"):
            VanishingSum.build([rat(w) for w in terms], places)

    @pytest.mark.parametrize("places", ["0,1,inf", "0,1/2,-3,t^2+1,inf"])
    def test_order_table(self, places):
        S = PlaceSet(frozenset(parse_place(p) for p in places.split(",")))
        for seed in range(12):
            vs = random_vanishing_sum(S, 3 + seed % 3, 4, seed)
            assert vs.orders == tuple(
                tuple(ord_at(w, p) for w in vs.terms)
                for p in vs.place_set.sorted_places())

    @pytest.mark.parametrize("places", ["0,1,inf", "0,1/2,-3,t^2+1,inf",
                                        "-1,0,1"])
    def test_enlarged_by_the_balancing_support(self, places):
        S = PlaceSet(frozenset(parse_place(p) for p in places.split(",")))
        for seed in range(8):
            vs = random_vanishing_sum(S, 3 + seed % 3, 4, seed)
            assert vs.place_set.places == \
                S.places | divisor_of(vs.terms[-1]).keys()

    @pytest.mark.parametrize("n", [1, 2, 21])
    def test_term_count_rejected_before_a_draw(self, n):
        # max_exponent 0 would make the draw itself raise another message
        with pytest.raises(ValueError, match="three terms|capped at 20"):
            random_vanishing_sum(S011, n, 0, 0)

    def test_draws_capped(self):
        # over {inf} every unit is a constant from the pool, and most draws
        # of eleven terms have a vanishing subsum: this seed needs more
        # draws than the cap
        with pytest.raises(DrawsExhausted,
                           match=f"^no vanishing sum of 11 terms in "
                                 f"{MAX_DRAWS} draws$"):
            random_vanishing_sum(PlaceSet.of("inf"), 11, 10, 2)

    def test_order_table_without_infinity(self):
        # places -1, 0, 1 in order; no row at infinity
        terms = [rat("2*t/(t-1)"), rat("-(t+1)/(t-1)"), rat("-1")]
        vs = VanishingSum.build(terms, PlaceSet.of(-1, 0, 1))
        assert vs.orders == ((0, 1, 0), (1, 0, 0), (-1, -1, 0))


class TestCheckBM:
    def test_hand_fixture(self):
        vs = VanishingSum.build([rat("t"), rat("1-t"), rat("-1")], S011)
        result = check_bm(vs)
        assert result.lhs == 1
        assert result.rhs == 3
        assert result.holds
        assert dict((str(p), d) for p, d in result.deficits) == \
            {"0": 1, "1": 1, "inf": 1}

    def test_constant_sum_writes_empty_deficits(self):
        # every term constant: no place has a deficit, and the table is
        # still written
        vs = VanishingSum.build([rat("1"), rat("1"), rat("-2")], S011)
        assert check_bm(vs).to_json() == {"lhs": 0, "rhs": 0, "deficits": {},
                                          "holds": True}

    def test_constant_scaling_invariance(self):
        base = [rat("t"), rat("1-t"), rat("-1")]
        vs = check_bm(VanishingSum.build(base, S011))
        for c in (Fraction(3), Fraction(-5, 2)):
            scaled = [f * RatFunc.const(c) for f in base]
            out = check_bm(VanishingSum.build(scaled, S011))
            assert (out.lhs, out.rhs) == (vs.lhs, vs.rhs)
            assert out.deficits == vs.deficits

    def test_function_scaling_still_holds(self):
        base = [rat("t"), rat("1-t"), rat("-1")]
        scaled = [f * rat("t") for f in base]
        out = check_bm(VanishingSum.build(scaled, S011))
        assert out.lhs == check_bm(VanishingSum.build(base, S011)).lhs
        assert out.holds

    def test_permutation_invariance(self):
        terms = [rat("t"), rat("1-t"), rat("-1")]
        a = check_bm(VanishingSum.build(terms, S011))
        b = check_bm(VanishingSum.build(list(reversed(terms)), S011))
        assert (a.lhs, a.rhs) == (b.lhs, b.rhs)

    def test_mason_stothers_monomial_identities(self):
        # f + g = h with f, g monomials in t and t - 1
        rng = random.Random(42)
        done = 0
        while done < 100:
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            a = Fraction(rng.choice((1, -1, 2, 3)))
            b = Fraction(rng.choice((1, -1, 2, -3)))
            f = RatFunc.const(a) * rat("t") ** i * rat("t-1") ** j
            g = RatFunc.const(b) * rat("t") ** k * rat("t-1") ** l
            h = f + g
            if h.is_zero:
                continue
            support = divisor_of(h).keys()
            S = PlaceSet(frozenset(S011.places | support))
            terms = [f, g, -h]
            try:
                vs = VanishingSum.build(terms, S)
            except VanishingSubsum:
                continue
            assert check_bm(vs).holds
            done += 1

    def test_long_sums(self):
        for n in range(6, 17):
            for seed in range(3):
                vs = random_vanishing_sum(S011, n, 3, seed)
                assert len(vs.terms) == n
                assert check_bm(vs).holds

    def test_random_constructed_sums(self):
        for seed in range(40):
            n = 3 + seed % 3
            vs = random_vanishing_sum(S011, n, 3, seed)
            # the zero sum holds by construction, without a check in build
            total = RatFunc.zero()
            for w in vs.terms:
                total = total + w
            assert total.is_zero
            result = check_bm(vs)
            assert result.holds
            # deficit support stays inside the place set
            assert {p for p, _ in result.deficits} <= vs.place_set.places


class TestCarriedColumns:
    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, len(SETS) - 1), st.integers(3, 6),
           st.integers(1, 10), st.integers(0, 2 ** 32))
    def test_balancing_column(self, which, n, max_exp, seed):
        # the column carried from the construction is the one the division
        # of _check_v_unit proves, and the table is that of ord_at
        vs = random_vanishing_sum(SETS[which], n, max_exp, seed)
        finite = vs.place_set.finite_places()
        assert [row[-1] for row in vs.orders[:len(finite)]] == \
            _check_v_unit(vs.terms[-1], vs.place_set)
        assert vs.orders == tuple(
            tuple(ord_at(w, p) for w in vs.terms)
            for p in vs.place_set.sorted_places())


class TestConstructionImages:
    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, len(SETS) - 1), st.integers(0, 2 ** 32),
           st.integers(2, 4), st.integers(1, 4), st.booleans())
    def test_subsum_matches_the_oracle(self, which, seed, count, max_exp,
                                       cancel):
        S = SETS[which]
        rng = random.Random(seed)
        units = [unit_over(S, rng, max_exp) for _ in range(count)]
        if cancel:
            # a unit and its negative: a vanishing subsum with the last term
            # minus the others
            u = units[0]
            units.append(SUnit(-u.constant, u.exponents, u.places))
        terms = [as_ratfunc(u) for u in units]
        total = RatFunc.zero()
        for w in terms:
            total = total + w
        if total.is_zero:
            return
        terms.append(-total)
        images = _sum_images(units)
        # the odd sets' places have no root at the first point
        assert images == [_image(w, _CERT_POINTS[0], _CERT_PRIME)
                          for w in terms]
        assert find_vanishing_subsum(terms, images) == \
            oracle_vanishing_subsum(terms)

    def test_no_point_serves_every_unit(self):
        # a pole at each point: the search takes the images of the terms
        S = PlaceSet.of(*_CERT_POINTS, "inf")
        units = [SUnit.make(c, {p: -1}, S)
                 for c, p in zip((1, 2, -1), S.finite_places())]
        units.append(SUnit.make(-2, {S.finite_places()[1]: -1}, S))
        assert _sum_images(units) is None
        terms = [as_ratfunc(u) for u in units]
        total = RatFunc.zero()
        for w in terms:
            total = total + w
        terms.append(-total)
        assert find_vanishing_subsum(terms, None) == \
            oracle_vanishing_subsum(terms) == (1, 3)


class TestKnownDenominatorSum:
    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, len(ODD_PLACE_SETS) - 1), st.integers(0, 2 ** 32),
           st.integers(1, 6), st.integers(1, 5), st.booleans())
    def test_matches_the_sum_of_expansions(self, which, seed, count, max_exp,
                                           cancel):
        S = ODD_PLACE_SETS[which]
        rng = random.Random(seed)
        units = [unit_over(S, rng, max_exp) for _ in range(count)]
        if cancel:
            # a unit and its negative: the sum loses a term, and with
            # count 1 it is zero
            u = units[0]
            units.append(type(u)(-u.constant, u.exponents, u.places))
        expected = RatFunc.zero()
        for u in units:
            expected = expected + as_ratfunc(u)
        got, poles = _known_den_sum(units, [u.exponent_map() for u in units],
                                    S)
        assert (got.num, got.den) == (expected.num, expected.den)
        # the pole orders come from the counts divided out, not from ord_at
        assert poles == [0 if expected.is_zero
                         else max(0, -ord_at(expected, p))
                         for p in S.finite_places()]


def test_bm_run_leaves_sympy_unloaded():
    # the unit sums of the bm workload over {0, 1, inf}: the balancing
    # term's new places are factored in house, and no gcd runs
    src = os.path.dirname(os.path.dirname(ffvojta.__file__))
    code = ("import sys\n"
            "from ffvojta.sunits import PlaceSet\n"
            "from ffvojta.unitsum import check_bm, random_vanishing_sum\n"
            "S = PlaceSet.of(0, 1, 'inf')\n"
            "for i in range(192):\n"
            "    assert check_bm(random_vanishing_sum(S, 5, 10, i)).holds\n"
            "print('sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
