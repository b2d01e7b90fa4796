import random
from fractions import Fraction

import pytest

from ffvojta.constants import theta_ledger
from ffvojta.field_core import Place, RatFunc
from ffvojta.p2family import (
    BiForm,
    DegenerateMap,
    jacobian_ramification,
    log_canonical_bidegree,
    quartic_family,
)
from ffvojta.sunits import PlaceSet, SUnit
from ffvojta.verify import classify
from conftest import bi


P0 = Place.rational(0)
S01 = PlaceSet.of(0, "inf")
S011 = PlaceSet.of(0, 1, "inf")


class TestBiDegree:
    def test_log_canonical_examples(self):
        assert log_canonical_bidegree(4, 4).as_tuple() == (1, 2)
        assert log_canonical_bidegree(3, 2).as_tuple() == (0, 0)

    def test_shift_additivity(self):
        base = log_canonical_bidegree(4, 4)
        shifted = log_canonical_bidegree(5, 4)
        assert (shifted.a - base.a, shifted.b - base.b) == (1, 0)


class TestBiForm:
    def test_bihomogeneity_enforced(self):
        with pytest.raises(ValueError):
            BiForm({(1, 0, 0, 1, 0): 1, (2, 0, 0, 1, 0): 1})

    def test_arithmetic(self):
        a = BiForm.monomial(e0=1, f0=1)
        b = BiForm.monomial(e1=1, f0=1)
        assert (a + b).xdeg == 1
        assert (a * b).coeffs == {(1, 1, 0, 2, 0): Fraction(1)}
        assert (a ** 3).coeffs == {(3, 0, 0, 3, 0): Fraction(1)}
        assert a ** 0 == BiForm.monomial()
        with pytest.raises(ValueError):
            a ** -1

    def test_partial(self):
        sq = BiForm.monomial(e0=2, f0=2)
        assert sq.partial_x(0) == BiForm({(1, 0, 0, 2, 0): 2})
        assert sq.partial_x(1).is_zero


class TestJacobian:
    def test_quartic_fixture_exact(self):
        fam = quartic_family()
        expected = BiForm.monomial(e0=1, e1=1, e2=1, f0=6, c=8)
        assert fam.jacobian == expected

    def test_diagonal(self):
        d = jacobian_ramification(BiForm.monomial(e0=2),
                                  BiForm.monomial(e1=2),
                                  BiForm.monomial(e2=2))
        assert d == BiForm.monomial(e0=1, e1=1, e2=1, c=8)

    def test_degenerate(self):
        a = BiForm.monomial(e0=1, f0=1)
        with pytest.raises(DegenerateMap):
            jacobian_ramification(a, a, a)

    def test_mismatched_degrees(self):
        with pytest.raises(ValueError):
            jacobian_ramification(BiForm.monomial(e0=1),
                                  BiForm.monomial(e1=2),
                                  BiForm.monomial(e2=2))


class TestQuarticFamily:
    def test_bad_places(self):
        fam = quartic_family()
        names = [str(p) for p in fam.bad_places.sorted_places()]
        assert names == ["t^2 - 2", "t^2 + 2", "inf"]

    def test_bidegree_table(self):
        fam = quartic_family()
        assert fam.divisor_bidegree.as_tuple() == (4, 4)
        assert fam.z_bidegree.as_tuple() == (1, 2)
        # the non-boundary ramification component has the log-canonical
        # bidegree: one x, two y0
        z = fam.z_component
        assert (z.xdeg, z.ydeg) == (1, 2)
        assert fam.z_bidegree.as_tuple() == (z.xdeg, z.ydeg)

    def test_jacobian_splits_into_boundary_and_z(self):
        fam = quartic_family()
        y0x0 = BiForm.monomial(e0=1, f0=1)
        y0x1 = BiForm.monomial(e1=1, f0=1)
        extra = BiForm.monomial(f0=2, c=8)
        assert fam.jacobian == y0x0 * y0x1 * fam.z_component * extra

    def test_image_poly_vanishes_on_ramification_image(self):
        fam = quartic_family()
        rng = random.Random(3)
        for _ in range(10):
            x0 = Fraction(rng.randint(1, 9))
            x1 = Fraction(rng.randint(1, 9))
            tau = Fraction(rng.randint(2, 9))
            w = -(x0 * x0 + tau * tau * x0 * x1 + x1 * x1)
            if w == 0:
                continue
            X, Y = x0 * x0 / w, x1 * x1 / w
            val = sum(c.eval(tau) * X ** i * Y ** j
                      for (i, j), c in fam.image_poly.coeffs.items())
            assert val == 0

    def test_image_poly_shape(self):
        fam = quartic_family()
        assert fam.image_poly == bi("(X+Y+1)^2 - (t^4)*X*Y")


class TestPropRamCheck:
    """The quartic mode's per-section check is verify.classify; the relation
    and bound branches are reached by passing low thresholds directly."""

    def test_below_threshold(self):
        ledger = theta_ledger([(1, 1, 0)], Fraction(1, 2))
        u = SUnit.make(1, {P0: 1}, S011)
        v = SUnit.make(1, {P0: 2}, S011)
        rep = classify(bi("X+Y+1"), S011, u, v, ledger.theta1, ledger.theta2,
                       Fraction(1, 2))
        assert rep.kind == "below_threshold"
        assert rep.height == 2 and rep.dependence is None

    def test_relation_branch(self):
        u = SUnit.make(1, {P0: 5}, S011)
        v = SUnit.make(1, {P0: -5}, S011)
        rep = classify(bi("X+Y+1"), S011, u, v, 0, 1, Fraction(1, 2))
        assert rep.kind == "relation"
        assert (rep.dependence.r, rep.dependence.s) == (1, 1)
        assert rep.dependence.gamma == RatFunc.one()
        assert rep.count is None

    def test_bound_branch(self):
        u = SUnit.make(1, {P0: 2}, S011)
        v = SUnit.make(-2, {P0: 1}, S011)
        rep = classify(bi("X+Y+1"), S011, u, v, 0, 0, Fraction(1, 2))
        # value (t-1)^2: the place 1 is inside S, so the count is zero
        assert rep.kind == "bound_holds"
        assert rep.count.lhs == 0

        rep2 = classify(bi("X+Y+1"), S01, u, v, 0, 0, Fraction(1, 2))
        assert rep2.kind == "bound_holds"
        assert rep2.count.lhs == 1 and rep2.count.rhs == Fraction(1)

    def test_inside_z_degenerate(self):
        u = SUnit.make(1, {P0: 1}, S01)
        v = SUnit.make(1, {P0: -1}, S01)
        rep = classify(bi("X*Y-1"), S01, u, v, 0, 0, Fraction(1, 2))
        assert rep.kind == "degenerate_on_z" and rep.height is None
