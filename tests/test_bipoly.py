import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ffvojta.bipoly import (
    BiPoly,
    CLEARED_SIZE_CAP,
    SYLVESTER_WORK_CAP,
    BothZero,
    ConstantPolynomial,
    DegenerateDegree,
    InputTooLarge,
    PreconditionViolated,
    _IMAGE_PRIMES,
    _orders_certify,
    _squarefree_roots,
    _LIFT_POINTS,
    _image_roots,
    _kronecker_irreducible,
    _lifted_roots,
    _specialised,
    _value,
    b_polynomial,
    bipoly_gcd,
    check_dependence_transfer,
    evaluate,
    poly_height,
    rational_roots,
    resultant_x,
    resultant_y,
    specialization_irreducibility_audit,
    torus_derivative,
    vanishes_at,
)
from ffvojta.field_core import (
    _CERT_POINTS,
    _CERT_PRIME,
    Place,
    Poly,
    RatFunc,
    ZeroPolynomial,
    _image,
    choose_omega,
    clear_denominators,
)
from ffvojta.sunits import (
    PlaceSet,
    SUnit,
    as_ratfunc,
    enlarge_for_coefficients,
    unit_image,
)
from ffvojta.verify import RunConfig, build_context, pair_for_index
from conftest import (
    ODD_PLACE_SETS,
    bi,
    deriv_omega,
    oracle_irreducibility_audit,
    oracle_rational_roots,
    oracle_resultant,
    rat,
    rand_poly,
    rand_ratfunc,
    unit_over,
)


P0 = Place.rational(0)
P1 = Place.rational(1)
S01 = PlaceSet.of(0, "inf")
S011 = PlaceSet.of(0, 1, "inf")


def rand_bipoly(rng, max_dx=2, max_dy=2, fancy_coeffs=True):
    out = {}
    for i in range(max_dx + 1):
        for j in range(max_dy + 1):
            if rng.random() < 0.45:
                continue
            if fancy_coeffs and rng.random() < 0.3:
                c = rand_ratfunc(rng, 2)
            else:
                c = RatFunc.const(Fraction(rng.randint(-3, 3)))
            out[(i, j)] = c
    return BiPoly(out)


def _z(*coeffs) -> BiPoly:
    """c0 + c1*X + c2*X^2 + ..., a BiPoly in X alone: the shape of a
    Y-resultant and of the input of `rational_roots`."""
    return BiPoly({(i, 0): c for i, c in enumerate(coeffs)})


class TestEvaluate:
    def test_examples(self):
        assert evaluate(bi("X+Y+1"), RatFunc.t(), RatFunc.t()) == rat("2*t+1")
        assert evaluate(bi("X*Y-t"), RatFunc.t(), RatFunc.one()).is_zero
        assert evaluate(bi("X^2+Y"), RatFunc.t(), rat("-t^2")).is_zero


class TestVanishesAt:
    """The modular certificate must answer exactly what the exact value
    answers, including where no image certifies."""

    def test_agrees_with_evaluate(self):
        rng = random.Random(53)
        for k in range(200):
            U = as_ratfunc(unit_over(S011, rng, 6))
            V = as_ratfunc(unit_over(S011, rng, 6))
            B = rand_bipoly(rng)
            if k % 4 == 0:
                # a built zero: A = (X - U) * B vanishes at (U, V)
                A = (BiPoly.x() - BiPoly.const(U)) * B
            elif k % 4 == 1:
                A = B * (BiPoly.y() - BiPoly.const(V))
            else:
                A = B
            assert vanishes_at(A, U, V) == evaluate(A, U, V).is_zero

    def test_pinned_fallback(self):
        # U - V = -p, whose image vanishes at every point
        A = bi("X-Y")
        U = RatFunc.t()
        V = RatFunc.t() + RatFunc.const(_CERT_PRIME)
        for tau in _CERT_POINTS:
            assert _image(U, tau, _CERT_PRIME) == _image(V, tau, _CERT_PRIME)
        assert vanishes_at(A, U, V) is False
        assert vanishes_at(A, U, U) is True

    def test_skipped_point(self):
        tau0 = _CERT_POINTS[0]
        U = RatFunc.one() / rat(f"t-{tau0}")
        assert _image(U, tau0, _CERT_PRIME) is None
        A = bi("X+Y+1")
        V = RatFunc.t()
        # certified at a later point, without a ZeroDivisionError
        assert _image(evaluate(A, U, V), _CERT_POINTS[1], _CERT_PRIME)
        assert vanishes_at(A, U, V) is False

    def test_denominator_divisible_by_p(self):
        c = RatFunc.const(Fraction(1, _CERT_PRIME))
        for tau in _CERT_POINTS:
            assert _image(c, tau, _CERT_PRIME) is None
        A = BiPoly({(1, 0): c, (0, 1): -c})
        assert vanishes_at(A, RatFunc.t(), RatFunc.t()) is True
        assert vanishes_at(A, RatFunc.t(), rat("t+1")) is False

    @settings(max_examples=120, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, len(ODD_PLACE_SETS)), st.integers(0, 2 ** 32))
    def test_units_agree_with_evaluate(self, which, seed):
        # S-units, one unit beside its expansion, and planted zeros: u = v
        # on X - Y, v = 1/u on X*Y - 1, and A built to vanish at (u, v)
        S = (S011, *ODD_PLACE_SETS)[which]
        rng = random.Random(seed)
        u = unit_over(S, rng, rng.randint(1, 8))
        v = unit_over(S, rng, rng.randint(1, 8))
        U, V = as_ratfunc(u), as_ratfunc(v)
        B = rand_bipoly(rng)
        # u and 2u, or u and -u: every place ties the two terms' orders,
        # so the modular images and the exact value decide these
        twice = u * SUnit.make(2, {}, S)
        minus = u * SUnit.make(-1, {}, S)
        ties = [(bi("X-Y"), u, u), (bi("X-Y"), u, twice),
                (bi("X+Y"), u, minus), (bi("X*Y-1"), u, u ** -1)]
        for A, a, b in ties:
            assert not _orders_certify(A, a, b)
        cases = [(B, u, v), (B, u, V), (B, U, v), (bi("X-Y"), u, v),
                 (bi("X*Y-1"), u, v),
                 ((BiPoly.x() - BiPoly.const(U)) * B, u, v),
                 (B * (BiPoly.y() - BiPoly.const(V)), u, v), *ties]
        for A, a, b in cases:
            want = evaluate(A, as_ratfunc(a) if isinstance(a, SUnit) else a,
                            as_ratfunc(b) if isinstance(b, SUnit) else b)
            assert vanishes_at(A, a, b) == want.is_zero
        assert vanishes_at(bi("X-Y"), u, u) and vanishes_at(bi("X*Y-1"), u,
                                                             u ** -1)
        assert vanishes_at(bi("X+Y"), u, minus)
        assert not vanishes_at(bi("X-Y"), u, twice)

    def test_unit_without_an_image(self):
        # the constant 1/p has no image mod p at any point, so the exact
        # value decides
        u = SUnit.make(Fraction(1, _CERT_PRIME), {P0: 2, P1: -1}, S011)
        v = SUnit.make(3, {P0: 1}, S011)
        for tau in _CERT_POINTS:
            assert unit_image(u, tau, _CERT_PRIME) is None
        assert vanishes_at(bi("X-Y"), u, u) is True
        assert vanishes_at(bi("X*Y-1"), u, u ** -1) is True
        assert vanishes_at(bi("X-Y"), u, v) is False
        assert vanishes_at(bi("X+Y+1"), v, u) is False
        # u = t/p and w = 2t/p tie at 0 and at infinity, so the orders
        # decline, no image exists, and the exact value decides
        u = SUnit.make(Fraction(1, _CERT_PRIME), {P0: 1}, S011)
        w = SUnit.make(Fraction(2, _CERT_PRIME), {P0: 1}, S011)
        assert unit_image(w, _CERT_POINTS[0], _CERT_PRIME) is None
        for A, b in ((bi("X-Y"), w), (bi("X-Y"), u), (bi("2*X-Y"), w)):
            assert not _orders_certify(A, u, b)
        assert vanishes_at(bi("X-Y"), u, w) is False
        assert vanishes_at(bi("2*X-Y"), u, w) is True

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(st.integers(0, len(ODD_PLACE_SETS)), st.integers(0, 2 ** 32))
    def test_orders_certify_only_nonzero_values(self, which, seed):
        # whenever one term alone has the least order somewhere, the exact
        # value is nonzero; planted zeros are never certified
        S = (S011, *ODD_PLACE_SETS)[which]
        rng = random.Random(seed)
        u = unit_over(S, rng, rng.randint(1, 8))
        v = unit_over(S, rng, rng.randint(1, 8))
        U, V = as_ratfunc(u), as_ratfunc(v)
        B = rand_bipoly(rng)
        planted = [(BiPoly.x() - BiPoly.const(U)) * B,
                   B * (BiPoly.y() - BiPoly.const(V)),
                   BiPoly.x() * BiPoly.const(V) - BiPoly.y() * BiPoly.const(U)]
        for A in planted:
            assert not _orders_certify(A, u, v)
        for A in (B, bi("X+Y+1"), bi("X*Y-t"), bi("X^2*Y+X*Y^2-t*(X+Y)+1"),
                  B * bi("X-Y+t")):
            if _orders_certify(A, u, v):
                assert not evaluate(A, U, V).is_zero

    def test_orders_decide_the_verify_cubic_pool(self):
        # the benchmark's verify_cubic pool: 480 pairs over {0, 1, inf} at
        # max_exponent 25, seed 7; no pair reaches a modular image
        cfg = RunConfig(poly="X^2*Y+X*Y^2-t*(X+Y)+1",
                        places=("0", "1", "inf"), epsilon="1/2",
                        max_exponent=25, seed=7)
        ctx = build_context(cfg)
        assert all(_orders_certify(ctx.A, *pair_for_index(ctx, i))
                   for i in range(480))

    def test_coefficient_orders_kept_per_instance(self):
        A = BiPoly({(1, 0): rat("t^2/(t-1)"), (0, 1): 2, (0, 0): rat("1/t")})
        inf = Place.infinity()
        assert A.coeff_orders(P0) == ((1, 0, 2), (0, 1, 0), (0, 0, -1))
        assert A.coeff_orders(P1) == ((1, 0, -1), (0, 1, 0), (0, 0, 0))
        assert A.coeff_orders(inf) == ((1, 0, -1), (0, 1, 0), (0, 0, 1))
        assert A.coeff_orders(P0) is A.coeff_orders(P0)
        fresh = BiPoly(dict(A.coeffs))
        assert fresh._orders is None
        assert fresh == A and hash(fresh) == hash(A)
        thawed = pickle.loads(pickle.dumps(A))
        assert thawed == A and thawed._orders is None

    def test_coefficient_images_kept_per_instance(self):
        tau0 = _CERT_POINTS[0]
        A = BiPoly({(1, 0): RatFunc.one() / rat(f"t-{tau0}"), (0, 1): 2,
                    (0, 0): rat("t")})
        images = A.cert_images()
        assert A.cert_images() is images
        # the first point is a pole of a coefficient
        assert images[0] is None
        for tau, row in zip(_CERT_POINTS[1:], images[1:]):
            assert row == [(i, j, _image(c, tau, _CERT_PRIME))
                           for (i, j), c in A.coeffs.items()]
        # outside ==, hash and pickling
        fresh = BiPoly(dict(A.coeffs))
        assert fresh._cert_images is None
        assert fresh == A and hash(fresh) == hash(A)
        thawed = pickle.loads(pickle.dumps(A))
        assert thawed == A and thawed._cert_images is None


class TestPolyHeight:
    def test_examples(self):
        assert poly_height(bi("X+Y+1")) == 0
        assert poly_height(bi("X*Y-t")) == 1
        assert poly_height(bi("(t^2)*X + (1/(t-1))*Y")) == 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_height(BiPoly.zero())


def _check_b_cleared(B: BiPoly) -> None:
    """B came from `b_polynomial` with its cleared form filled in from its
    known denominators: that form is `clear_denominators(B.coeffs)` int
    for int, and a fresh BiPoly with the same coefficients has none until
    it is asked for one."""
    filled = B._cleared_form
    assert filled is not None
    ints, d = clear_denominators(B.coeffs)
    assert filled[0] == ints and filled[1] == d
    assert list(filled[0]) == list(ints)
    assert all(type(ts) is list for ts in filled[0].values())
    assert BiPoly(B.coeffs)._cleared_form is None


class TestBPolynomial:
    def test_linear_example(self):
        w = choose_omega(S01.places)
        u = SUnit.make(1, {P0: 1}, S01)
        v = SUnit.make(1, {P0: 2}, S01)
        B = b_polynomial(bi("X+Y+1"), u, v, w)
        assert B == bi("X + 2*Y")

    def test_constant_a(self):
        w = choose_omega(S01.places)
        u = SUnit.make(1, {P0: 1}, S01)
        B = b_polynomial(BiPoly.const(rat("5")), u, u, w)
        assert B.is_zero

    def test_nonconstant_coefficient(self):
        w = choose_omega(S01.places)
        u = SUnit.make(1, {P0: 1}, S01)
        B = b_polynomial(bi("X*Y-t"), u, u, w)
        assert B == bi("2*X*Y - t")

    def test_derivation_identity(self):
        rng = random.Random(77)
        w = choose_omega(S011.places)
        for _ in range(60):
            A = rand_bipoly(rng)
            u = unit_over(S011, rng, 3)
            v = unit_over(S011, rng, 3)
            B = b_polynomial(A, u, v, w)
            U, V = as_ratfunc(u), as_ratfunc(v)
            assert deriv_omega(evaluate(A, U, V), w) == evaluate(B, U, V)
            _check_b_cleared(B)

    def test_filled_cleared_form_on_the_audit_pool(self):
        # the benchmark's audit_cubic pool: 144 pairs of the cubic over
        # {0, 1, inf} at max_exponent 2, seed 7
        from ffvojta.verify import _audit_setting

        cfg = RunConfig(poly="X^2*Y+X*Y^2-t*(X+Y)+1",
                        places=("0", "1", "inf"), epsilon="1/2",
                        max_exponent=2, seed=7, mode="audit")
        ctx = build_context(cfg)
        A, _, _, w = _audit_setting(cfg.poly, tuple(cfg.places), cfg.seed)
        for index in range(144):
            _check_b_cleared(b_polynomial(A, *pair_for_index(ctx, index), w))
        # every coefficient of A over one denominator that the units' own
        # places cancel in part
        A = A.scale(rat("1/(t*(t-1)^2*(2*t+1))"))
        for index in range(0, 144, 9):
            _check_b_cleared(b_polynomial(A, *pair_for_index(ctx, index), w))

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from(ODD_PLACE_SETS), st.integers(0, 2 ** 32))
    def test_derivation_identity_rational_coefficients(self, S, seed):
        # every coefficient has a denominator, and some share a place of
        # the units, so the companion's divide-out meets b^2 and D at once
        rng = random.Random(seed)
        w = choose_omega(S.places)
        finite = S.finite_places()
        A = BiPoly({(i, j): RatFunc(rand_poly(rng, 2),
                                    rand_poly(rng, 1)
                                    * rng.choice(finite).poly ** rng.randint(0, 2))
                    for i in range(3) for j in range(3) if rng.random() < 0.6})
        u = unit_over(S, rng, 3)
        v = unit_over(S, rng, 3)
        B = b_polynomial(A, u, v, w)
        U, V = as_ratfunc(u), as_ratfunc(v)
        assert deriv_omega(evaluate(A, U, V), w) == evaluate(B, U, V)
        _check_b_cleared(B)
        theta_u = deriv_omega(U, w) / U
        theta_v = deriv_omega(V, w) / V
        for (i, j), lam in A.coeffs.items():
            assert B.coeff(i, j) == (lam * (i * theta_u + j * theta_v)
                                     + deriv_omega(lam, w))


class TestTorusDerivative:
    def test_examples(self):
        assert torus_derivative(bi("X*Y-t"), 1, 1).is_zero
        assert torus_derivative(bi("X+Y"), 1, 1) == bi("X-Y")
        assert torus_derivative(bi("X^2"), 0, 1) == bi("2*X^2")

    def test_both_zero_rejected(self):
        with pytest.raises(BothZero):
            torus_derivative(bi("X+Y"), 0, 0)


def _perm_resultant(a: list[RatFunc], b: list[RatFunc]) -> RatFunc:
    """Independent univariate resultant over Q(t): permanent-style expansion
    of the Sylvester determinant with RatFunc entries."""
    m = len(a) - 1
    n = len(b) - 1
    size = m + n
    rows = []
    for k in range(n):
        row = [RatFunc.zero()] * size
        for idx, c in enumerate(reversed(a)):
            row[k + idx] = c
        rows.append(row)
    for k in range(m):
        row = [RatFunc.zero()] * size
        for idx, c in enumerate(reversed(b)):
            row[k + idx] = c
        rows.append(row)
    total = RatFunc.zero()
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = [False] * size
        for start in range(size):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = RatFunc.one()
        for i in range(size):
            term = term * rows[i][perm[i]]
            if term.is_zero:
                break
        total = total + (term if sign > 0 else -term)
    return total


def _swap(A: BiPoly) -> BiPoly:
    return BiPoly({(j, i): c for (i, j), c in A.coeffs.items()})


# denominators that the coefficients of one input share
_SHARED_DENS = ("1", "3", "t", "t-1", "2*t+6", "t^2+1")


@st.composite
def _resultant_inputs(draw):
    """(A, B, main, planted): main-degrees 1-3 of A and 0-3 of B, other
    degrees 0-1, t-degrees 0-3, coefficients over up to two shared
    denominators; planted means both carry a common factor of main-degree 1,
    so the resultant is zero.  Every draw stays under CLEARED_SIZE_CAP."""
    main = draw(st.sampled_from("xy"))
    dens = [rat(d) for d in draw(st.lists(st.sampled_from(_SHARED_DENS),
                                          min_size=1, max_size=2))]
    deg_t = draw(st.integers(0, 3))

    def coeff():
        num = Poly([draw(st.integers(-4, 4))
                    for _ in range(draw(st.integers(0, deg_t)) + 1)])
        return RatFunc(num) / draw(st.sampled_from(dens))

    def poly(main_deg, other_deg):
        coeffs = {(i, j): coeff() for i in range(main_deg + 1)
                  for j in range(other_deg + 1) if draw(st.booleans())}
        # the leading term keeps the main-degree
        lead = RatFunc(Poly([draw(st.sampled_from((-4, -1, 1, 3)))]))
        coeffs[(main_deg, draw(st.integers(0, other_deg)))] = lead
        P = BiPoly(coeffs)
        return P if main == "x" else _swap(P)

    A = poly(draw(st.integers(1, 3)), draw(st.integers(0, 1)))
    B = poly(draw(st.integers(0, 3)), draw(st.integers(0, 1)))
    planted = draw(st.booleans())
    if planted:
        C = poly(1, 0)
        A, B = A * C, B * C
    return A, B, main, planted


# functions of t planted in every coefficient of an input of a resultant:
# none, a constant, places that are also shared denominators (one of them
# with its square over 3), and the place 1/2, whose primitive 2*t - 1 has
# the lift 2, as a factor and as a pole
_PLANTED_FACTORS = ("1", "6", "t", "t-1", "(t-1)^2/3", "2*t+6", "t^2+1",
                    "2*t-1", "1/(2*t-1)")


@st.composite
def _filled_inputs(draw):
    """(A, B, main): `_resultant_inputs` without the common factor, with a
    function of t from _PLANTED_FACTORS multiplied into every coefficient
    of A and one into every coefficient of B, so that a power of each
    divides every coefficient of the resultant and cancels in part against
    the denominators."""
    A, B, main, _ = draw(_resultant_inputs().filter(lambda case: not case[3]))
    fa, fb = (rat(draw(st.sampled_from(_PLANTED_FACTORS))) for _ in "ab")
    return A.scale(fa), B.scale(fb), main


def _check_filled(F: BiPoly) -> None:
    """F came from a resultant with its cleared form filled in: that form
    is `clear_denominators(F.coeffs)` int for int, and F equals, hashes,
    pickles and finds roots like a fresh BiPoly with the same
    coefficients, which has no cleared form until it is asked for one."""
    filled = F._cleared_form
    assert filled is not None
    ints, d = clear_denominators(F.coeffs)
    assert filled[0] == ints and filled[1] == d
    assert all(type(ts) is list for ts in filled[0].values())
    fresh = BiPoly(F.coeffs)
    assert fresh._cleared_form is None
    assert fresh == F and hash(fresh) == hash(F)
    assert pickle.dumps(F) == pickle.dumps(fresh)
    thawed = pickle.loads(pickle.dumps(F))
    assert thawed == F and thawed._cleared_form is None
    assert rational_roots(F) == rational_roots(fresh)


class TestResultants:
    def test_examples(self):
        assert resultant_y(bi("X+Y"), bi("X-Y")) == bi("2*X")

        assert resultant_y(bi("Y-t"), bi("Y-t")).is_zero

        assert resultant_y(bi("Y^2-X"), bi("Y-1")) == bi("1-X")

        # B free of the variable: B^(deg A), and 1 when A is free of it too
        assert resultant_y(bi("Y^2+X"), bi("X+1")) == bi("X^2+2*X+1")
        assert resultant_x(bi("X^2+Y"), bi("Y-t")) == bi("Y^2-2*t*Y+t^2")
        assert resultant_y(bi("X+1"), bi("X-1")) == BiPoly.const(1)

        # lc(A)^3 * B(1/4) = (-4)^3 * (-4/64), the Sylvester determinant's
        # sign (sympy 1.14's PRS gives -4 for main-degrees 1 and 3)
        assert resultant_x(bi("1-4*X"), bi("-4*X^3")) == BiPoly.const(4)

        # a zero input gives the zero resultant, whatever the degrees
        zero = BiPoly.zero()
        assert resultant_y(zero, bi("X+1")).is_zero
        assert resultant_y(zero, bi("Y+1")).is_zero
        assert resultant_y(bi("X+Y"), zero).is_zero
        assert resultant_x(zero, bi("Y+1")).is_zero
        assert resultant_x(zero, bi("X+1")).is_zero
        assert resultant_x(bi("X+Y"), zero).is_zero

    def test_result_lies_on_the_other_axis(self):
        # Res_Y is keyed (i, 0), a polynomial in X; Res_X is keyed (0, j)
        for A, B in ((bi("X*Y+t*X+1"), bi("X^2*Y-Y+t")),
                     (bi("Y^2+X"), bi("X+1")),
                     (bi("X^2*Y^2+t*Y+X-1"), bi("t*X*Y+Y^2-2"))):
            F, G = resultant_y(A, B), resultant_x(A, B)
            assert F.deg_x > 0 and G.deg_y > 0
            assert all(j == 0 for _, j in F.coeffs)
            assert all(i == 0 for i, _ in G.coeffs)

    def test_degenerate_degree(self):
        with pytest.raises(DegenerateDegree):
            resultant_y(bi("X+1"), bi("X+Y"))
        with pytest.raises(DegenerateDegree):
            resultant_x(bi("Y+1"), bi("X+Y"))

    def test_specialization_property(self):
        rng = random.Random(88)
        done = 0
        while done < 100:
            A = rand_bipoly(rng, 2, 2, fancy_coeffs=False)
            B = rand_bipoly(rng, 2, 2, fancy_coeffs=False)
            if A.deg_y == 0 or B.deg_y == 0:
                continue
            res = resultant_y(A, B)
            # the X-resultant of the swapped pair is the same polynomial,
            # in Y
            assert _swap(resultant_x(_swap(A), _swap(B))) == res
            for _ in range(10):
                if done >= 100:
                    break
                x0 = RatFunc.const(
                    Fraction(rng.randint(1, 30), rng.randint(1, 3)))
                a_spec = [evaluate(BiPoly({(i, 0): c for (i, jj), c in
                                           A.coeffs.items() if jj == j}), x0,
                                   RatFunc.zero())
                          for j in range(A.deg_y + 1)]
                b_spec = [evaluate(BiPoly({(i, 0): c for (i, jj), c in
                                           B.coeffs.items() if jj == j}), x0,
                                   RatFunc.zero())
                          for j in range(B.deg_y + 1)]
                # only degree-preserving specializations
                if a_spec[-1].is_zero or b_spec[-1].is_zero:
                    continue
                assert (evaluate(res, x0, RatFunc.zero())
                        == _perm_resultant(a_spec, b_spec))
                done += 1

    def test_vanishes_iff_common_factor(self):
        shared = bi("Y - t*X")
        A = shared * bi("X+Y+1")
        B = shared * bi("X-Y+2")
        assert resultant_y(A, B).is_zero
        assert not resultant_y(bi("X+Y+1"), bi("X-Y+2")).is_zero

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_agrees_with_oracle(self, data):
        A, B, main, planted = data.draw(_resultant_inputs())
        res = (resultant_x if main == "x" else resultant_y)(A, B)
        assert res.coeffs == oracle_resultant(A, B, main).coeffs
        if planted:
            assert res.is_zero

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(_filled_inputs())
    def test_filled_cleared_form(self, case):
        A, B, main = case
        F = (resultant_x if main == "x" else resultant_y)(A, B)
        assume(not F.is_zero)
        _check_filled(F)

    @pytest.mark.parametrize("main", ["x", "y"])
    @pytest.mark.parametrize("pole, factor", [
        (None, "t+3"),
        # the lift 2 of 2*t - 1 meets the even leading coefficient of the
        # cleared denominator of A
        ("1/(2*t-1)", "2*t-1"),
    ])
    def test_filled_cleared_form_examples(self, main, pole, factor):
        # the cleared denominators 6*(t+3) of A and 2*(t^2+1) of B have
        # leading coefficients 6 and 2; a factor planted in B that is a
        # pole of A divides every coefficient of the resultant, and the
        # common denominator loses part of its known power
        A = BiPoly({(2, 0): rat("1/3"), (1, 1): rat("t"),
                    (0, 0): rat("1/(2*t+6)")})
        B = BiPoly({(1, 0): rat("(t-1)/2"), (0, 1): rat("3/(t^2+1)"),
                    (0, 0): rat("t")})
        if main == "y":
            A, B = _swap(A), _swap(B)
        assert A.cleared()[1].lc == 6 and B.cleared()[1].lc == 2
        res = resultant_x if main == "x" else resultant_y
        _check_filled(res(A, B))
        if pole is not None:
            A = A + BiPoly.monomial(*((1, 0) if main == "x" else (0, 1)),
                                    rat(pole))
        planted = res(A, B.scale(rat(factor)))
        _check_filled(planted)
        m, n = (A.deg_x, B.deg_x) if main == "x" else (A.deg_y, B.deg_y)
        da, db = A.cleared()[1].monic(), B.cleared()[1].monic()
        assert planted.cleared()[1].degree < n * da.degree + m * db.degree

    @pytest.mark.parametrize("main", ["x", "y"])
    @pytest.mark.parametrize("c", [-7, 6, -16])
    def test_digit_bound_reached(self, main, c):
        # B free of the main variable and a single term c * (other)^2 * t^3:
        # the resultant B^m has one coefficient, c^m, at the bound
        # ||A||_1^0 * ||B||_1^m itself
        A = bi("t*X^2*Y^3 - 3*X*Y^2 + (t^2+1)*X^2*Y - 2")
        if main == "x":
            A = _swap(A)
        other = (0, 2) if main == "x" else (2, 0)
        B = BiPoly({other: RatFunc(Poly.monomial(3)) * c})
        res = (resultant_x if main == "x" else resultant_y)(A, B)
        assert res.coeffs == oracle_resultant(A, B, main).coeffs
        assert res.deg_x + res.deg_y == 6
        assert res.coeffs[max(res.coeffs)] == RatFunc(Poly.monomial(9)) * c ** 3

    def test_sylvester_work_cap_raises_at_once(self):
        # Y-degree 32, X-degree 1, free of t, coefficients in [-5, 5]: under
        # CLEARED_SIZE_CAP, but a Sylvester matrix of size 64 whose
        # determinant packs into about 31,000 bits takes 15 s to eliminate
        rng = random.Random(5)
        A, B = [BiPoly({(i, j): rng.randint(-5, 5)
                        for i in range(2) for j in range(33)})
                for _ in range(2)]
        start = time.perf_counter()
        with pytest.raises(InputTooLarge, match=f"size cap {SYLVESTER_WORK_CAP}"):
            resultant_y(A, B)
        assert time.perf_counter() - start < 1


class TestRepeatedFactors:
    def test_gcd_basics(self):
        g = bipoly_gcd(bi("(X+Y)*(X-Y)"), bi("(X+Y)*(X+1)"))
        assert not g.is_constant
        assert g.deg_x == 1 and g.deg_y == 1
        assert bipoly_gcd(bi("X+Y"), bi("X-Y")).is_constant

    def test_gcd_quartic_and_companion_coprime(self):
        # the audit's quartic and its derivative companion on pair 0 of
        # seed 7, whose gcd over Q(t) swells its intermediate coefficients
        cfg = RunConfig(poly="X^4+Y^4+t*X^2*Y+X+Y+t",
                        places=("0", "1", "inf"), max_exponent=2, seed=7)
        ctx = build_context(cfg)
        u, v = pair_for_index(ctx, 0)
        A = ctx.A
        S_a = enlarge_for_coefficients(ctx.S, list(A.coeffs.values()))
        B = b_polynomial(A, u, v, choose_omega(S_a.places))
        assert bipoly_gcd(A, B).is_constant

    def test_gcd_recovers_common_factor(self):
        # the gcd is f itself, scaled so its lex-largest coefficient is 1
        rng = random.Random(41)
        checked = 0
        for _ in range(30):
            f = rand_bipoly(rng)
            if f.is_zero:
                continue
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            g = bipoly_gcd(f * bi(f"X+({a})"), f * bi(f"Y+({b})"))
            assert g == f.scale(RatFunc.one() / f.coeffs[max(f.coeffs)])
            checked += 1
        assert checked >= 25

    def test_gcd_with_zero_is_normalised(self):
        # gcd(0, B) is B scaled like every other gcd, in either order
        assert bipoly_gcd(bi("2*X+4"), bi("3*X+6")) == bi("X+2")
        for A in (bi("2*X+4"), bi("t*X*Y+t^2*Y")):
            g = bipoly_gcd(A, A.scale(RatFunc.const(3)))
            assert g.coeffs[max(g.coeffs)] == RatFunc.one()
            assert bipoly_gcd(BiPoly.zero(), A) == g
            assert bipoly_gcd(A, BiPoly.zero()) == g
        assert bipoly_gcd(BiPoly.zero(), BiPoly.zero()).is_zero

    def test_gcd_size_cap_raises_at_once(self):
        # X-degree 1 and t-degree 600 count as 75 * 600; Y-degree 80 and
        # t-degree 1 as 80 * 10
        for A in (BiPoly({(1, 0): 1, (0, 0): RatFunc(Poly.monomial(600))}),
                  bi("Y^80 + t*X + 1")):
            start = time.perf_counter()
            with pytest.raises(InputTooLarge, match="size cap"):
                bipoly_gcd(A, bi("X+Y"))
            with pytest.raises(InputTooLarge, match="size cap"):
                bipoly_gcd(bi("X+Y"), A)
            assert time.perf_counter() - start < 1


def _linear(r: RatFunc) -> BiPoly:
    return _z(-r, 1)


def _planted(rng: random.Random) -> tuple[BiPoly, list[RatFunc], bool]:
    """A product of planted linear factors, maybe an irreducible quadratic
    cofactor, times t-content; returns it with the planted roots and
    whether the cofactor is there."""
    roots: list[RatFunc] = []
    for _ in range(rng.randint(1, 4)):
        pick = rng.random()
        if pick < 0.15:
            roots.append(RatFunc.zero())
        elif pick < 0.35 and roots:
            roots.append(rng.choice(roots))
        else:
            roots.append(rand_ratfunc(rng, 1))
    F = _z(rand_ratfunc(rng, 2))
    for r in roots:
        F = F * _linear(r)
    quadratic = rng.random() < 0.3
    if quadratic:
        c = rng.choice([rat("t"), rat("-t"), rat("2"), rat("t+3"), rat("-1"),
                        rat("t^2+1")])
        F = F * _z(-c, 0, 1)
    return F, roots, quadratic


@st.composite
def _lift_inputs(draw):
    """(F, planted, quadratic) for the specialise-and-lift path: planted
    nonzero roots, each 1 to 3 times and 4 in all at most, among them roots
    that agree with another at the first tau, roots with a pole there (so
    the cleared leading coefficient vanishes) and roots with coefficients
    near 2^61, where the lift's modulus moves to the next Mersenne prime;
    maybe an irreducible quadratic cofactor.  The extreme coefficients stay
    within the oracle's degree cap."""
    tau = _LIFT_POINTS[0]
    small = st.integers(-4, 4)
    big = st.integers(2 ** 59, 2 ** 63) | st.integers(-2 ** 63, -2 ** 59)
    roots: list[RatFunc] = []
    total = 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("plain", "agree", "pole", "big")))
        if kind == "agree" and roots:
            c = draw(st.integers(1, 3))
            r = draw(st.sampled_from(roots)) + RatFunc(Poly([-tau * c, c]))
        elif kind == "pole":
            r = RatFunc(Poly([draw(small), draw(small)]), Poly([-tau, 1]))
        else:
            num = big if kind == "big" else small
            den = Poly([draw(st.integers(1, 4)), draw(st.integers(0, 2))])
            r = RatFunc(Poly([draw(num), draw(num)]), den)
        if r.is_zero or r in roots or total == 4:
            continue
        m = draw(st.integers(1, min(3, 4 - total)))
        roots += [r] * m
        total += m
    F = _z(RatFunc.const(draw(st.integers(1, 3))))
    for r in roots:
        F = F * _linear(r)
    quadratic = draw(st.booleans())
    if quadratic:
        c = draw(st.sampled_from(("2", "-1", "t", "t^2+1", "t^2+2")))
        F = F * _z(-rat(c), 0, 1)
    return F, roots, quadratic


def _lift_case(roots: list[str], square: str | None = None):
    """The `_lift_inputs` case with these planted roots, each listed as
    often as it is repeated, and the cofactor Z^2 - square if given."""
    planted = [rat(r) for r in roots]
    F = _z(1)
    for r in planted:
        F = F * _linear(r)
    if square is not None:
        F = F * _z(-rat(square), 0, 1)
    return F, planted, square is not None


def _cleared_ints(F: BiPoly) -> list[list[int]]:
    ints, _ = clear_denominators({(i,): F.coeff(i, 0)
                                  for i in range(F.deg_x + 1)})
    return list(ints.values())


def _key(r: RatFunc):
    return (r.num.coeffs, r.den.coeffs)


class TestRationalRoots:
    def test_examples(self):
        t = RatFunc.t()
        F = _z(-(t * t), 0, 1)
        roots, complete = rational_roots(F)
        assert complete and sorted(str(r) for r in roots) == ["-t", "t"]

        F2 = _z(-t, 0, 1)
        assert rational_roots(F2) == ([], False)

        F3 = _z(1, -2, 1)
        roots3, complete3 = rational_roots(F3)
        assert complete3 and roots3 == [RatFunc.one(), RatFunc.one()]

    def test_roots_satisfy(self):
        rng = random.Random(99)
        for _ in range(40):
            target_roots = [rand_ratfunc(rng, 1) for _ in range(rng.randint(1, 3))]
            F = _z(1)
            for r in target_roots:
                F = F * _linear(r)
            found, complete = rational_roots(F)
            assert complete
            for r in found:
                assert evaluate(F, r, RatFunc.zero()).is_zero
            assert sorted(map(str, found)) == sorted(map(str, target_roots))

    def test_denominator_roots(self):
        # roots with nontrivial denominators: (X - 1/t)(X - (t+1)/t)
        r1, r2 = rat("1/t"), rat("(t+1)/t")
        F = _linear(r1) * _linear(r2)
        found, complete = rational_roots(F)
        assert complete and sorted(map(str, found)) == sorted(map(str, [r1, r2]))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            rational_roots(BiPoly.zero())

    def test_both_variables_rejected(self):
        for F in (bi("X*Y+1"), bi("X+Y"), bi("X^2-t*Y^3")):
            with pytest.raises(ValueError, match="one variable"):
                rational_roots(F)

    def test_agrees_with_oracle(self):
        # planted roots (zero, repeated, with denominators), an irreducible
        # quadratic cofactor and t-content, all under the oracle's cap
        rng = random.Random(2024)
        for _ in range(60):
            F, planted, quadratic = _planted(rng)
            roots, complete = rational_roots(F)
            assert (roots, complete) == oracle_rational_roots(F)
            assert complete is not quadratic
            assert roots == sorted(planted, key=_key)
            # the same polynomial in Y has the same roots
            assert rational_roots(_swap(F)) == (roots, complete)

    def test_zero_root_multiplicity(self):
        # Z^2 * (Z - t) * (Z^2 - t): the root 0 twice, then t
        t = rat("t")
        F = _z(0, 0, 1) * _linear(t) * _z(-t, 0, 1)
        assert rational_roots(F) == oracle_rational_roots(F) == (
            [RatFunc.zero(), RatFunc.zero(), t], False)

    def test_root_mod_every_prime(self):
        # (Z^2 - 2)(Z^2 - 3)(Z^2 - 6) has a root mod every prime, since one
        # of 2, 3, 6 is a square there, but none in Q(t): every image prime
        # sees roots, and the p-adic lifts prove none is rational
        F = _z(1)
        for c in (2, 3, 6):
            F = F * _z(-c, 0, 1)
        image = [_value(ts, 0) for ts in _cleared_ints(F)]
        assert all(any(not _value(image, x) % p for x in range(p))
                   for p in _IMAGE_PRIMES)
        assert _image_roots(image) == {}
        assert _lifted_roots(_cleared_ints(F)) == {}
        assert rational_roots(F) == oracle_rational_roots(F) == ([], False)

    @pytest.mark.parametrize("k", [19, 32])
    def test_repeated_image_roots_from_the_squarefree_part(self, k):
        # (9 Z^3 + k)^3: the image of the X^3+Y^3+t audit's resultant at
        # tau = 2 for k = 19.  Each of the first three primes sees a root of
        # multiplicity 3 whose lift (a root of the second derivative) is no
        # root, so no prime decides; the squarefree part 9 Z^3 + k has no
        # rational root, and with (3 Z - 2)^2 beside it, 2/3 twice
        cube = Poly((k, 0, 0, 9)) ** 3
        for extra, want in ((Poly.one(), {}),
                            (Poly((-2, 3)) ** 2, {Fraction(2, 3): 2}),
                            (Poly((-2, 3)) ** 2 * Poly((1, 1)) ** 3,
                             {Fraction(2, 3): 2, Fraction(-1): 3})):
            g = list((cube * extra).nums)
            assert _squarefree_roots(g) == want
            assert _image_roots(g) == want
        # a squarefree image gives the squarefree part nothing to add
        assert _squarefree_roots(list(Poly((k, 0, 0, 9)).nums)) is None

    def test_repeated_nonlinear_factors_agree_with_oracle(self):
        # planted roots beside a repeated factor with no rational root:
        # (Z^3 + 13 t - 7)^3 and (Z^2 - t)^2
        rng = random.Random(57)
        cubic = _z(rat("13*t-7"), 0, 0, 9)
        quadratic = _z(-rat("t"), 0, 1)
        for k in range(12):
            F = cubic ** 3 if k % 2 else quadratic ** 2 * cubic
            planted = []
            for _ in range(k % 3):
                r, m = rand_ratfunc(rng, 1), rng.randint(1, 2)
                F = F * _linear(r) ** m
                planted += [r] * m
            assert rational_roots(F) == oracle_rational_roots(F) == (
                sorted(planted, key=_key), False)

    def test_vanishing_leading_coefficient_skipped(self):
        # ((t - 2) Z + 1)(Z^2 - t): at the first tau the leading coefficient
        # vanishes and the image would drop to Z^2 - 2, which has no
        # rational root; that tau is skipped and the root 1/(2 - t) is
        # still found, without the factorisation
        assert _LIFT_POINTS[0] == 2
        root = rat("1/(2-t)")
        F = _linear(root) * _z(-rat("t"), 0, 1) * _z(rat("t-2"))
        ints = _cleared_ints(F)
        assert _value(ints[-1], 2) == 0 and _value(ints[0], 2) != 0
        assert _lifted_roots(ints) == {root: 1}
        assert rational_roots(F) == oracle_rational_roots(F) == ([root], False)

    def test_certificate_and_fallback(self):
        # without a rational root the image at the first tau has none
        # either, which proves it; planted roots with denominators are
        # lifted from the image roots, without the factorisation
        for expr in ("t", "t^2+1", "2*t-1", "-t^3+t"):
            F = _z(-rat(expr), 0, 1)
            image = [_value(ts, _LIFT_POINTS[0]) for ts in _cleared_ints(F)]
            assert _image_roots(image) == {}
            assert rational_roots(F) == ([], False)
        roots = [rat("1/t"), rat("(t+1)/(t-1)"), rat("-3/(2*t^2+1)")]
        F = _z(-rat("t^3+2"), 0, 1)
        for r in roots:
            F = F * _linear(r)
        assert _lifted_roots(_cleared_ints(F)) == dict.fromkeys(roots, 1)
        found = rational_roots(F)
        assert found == oracle_rational_roots(F)
        assert found == (sorted(roots, key=_key), False)

    @given(_lift_inputs())
    @example(_lift_case(["t+1", "2*t-1"], "2"))
    @example(_lift_case(["1/(t-2)", "(t+3)/(t-2)", "3"]))
    @example(_lift_case(["1/t", "1/t", "-t-1", "-t-1", "-t-1"], "t"))
    @example(_lift_case([f"({2 ** 61 - 2}*t-1)/(t+1)", f"-{2 ** 62 + 1}"]))
    @settings(max_examples=25, deadline=None, database=None,
              derandomize=True)
    def test_lift_agrees_with_oracle(self, case):
        F, planted, quadratic = case
        roots, complete = rational_roots(F)
        assert (roots, complete) == oracle_rational_roots(F)
        assert roots == sorted(planted, key=_key)
        assert complete is not quadratic
        assert rational_roots(_swap(F)) == (roots, complete)

    def test_roots_agreeing_at_every_lift_point(self):
        # R2 - R1 vanishes at every tau of _LIFT_POINTS, so each image has
        # the double root R1(tau), whose lift (a root of dG/dZ) is no root
        # of G; the search goes on past them, and tau = 10 decides
        r1 = rat("t+1")
        gap = RatFunc.one()
        for tau in _LIFT_POINTS:
            gap = gap * RatFunc(Poly([-tau, 1]))
        r2 = r1 + gap
        F = _linear(r1) * _linear(r2)
        assert _lifted_roots(_cleared_ints(F)) == {r1: 1, r2: 1}
        assert rational_roots(F) == oracle_rational_roots(F) == (
            sorted([r1, r2], key=_key), True)
        assert rational_roots(_swap(F)) == rational_roots(F)

    def test_lift_past_the_largest_prime_raises(self):
        # a leading coefficient near 2^4500 puts Mignotte's bound past
        # every Mersenne prime of the lift
        F = _z(1, rat(f"{2 ** 4500}*t+1"))
        with pytest.raises(InputTooLarge, match="2\\^4423 - 1"):
            rational_roots(F)

    def test_complete_past_old_cap(self):
        # extreme coefficients of t-degree above 12: the oracle gives up,
        # the lift still finds every root
        rng = random.Random(77)
        for _ in range(5):
            planted = [rand_ratfunc(rng, 1)
                       * RatFunc(Poly([rng.randint(1, 5) for _ in range(15)]))
                       for _ in range(2)]
            planted.append(RatFunc.one() / RatFunc(
                Poly([rng.randint(1, 5) for _ in range(14)])))
            F = _z(1)
            for r in planted:
                F = F * _linear(r)
            assert rational_roots(F) == (sorted(planted, key=_key), True)
            assert oracle_rational_roots(F)[1] is False

    def test_size_cap_raises_at_once(self):
        # the size check comes before the roots are sought, which on these
        # would take far longer: t^2 * Z^n + t + 1 with n = CLEARED_SIZE_CAP;
        # free of t, Z-degree 72, counted as 72 * 9; Z-degree 2 with
        # t-degree 260, counted as 32 * 260 (each degree counts as at least
        # an eighth of the other)
        n = CLEARED_SIZE_CAP
        for F in (BiPoly({(0, 0): rat("t+1"), (n, 0): rat("t^2")}),
                  _z(*[k % 7 - 3 for k in range(72)], 1),
                  _z(rat("t^260+1"), 0, rat("t"))):
            start = time.perf_counter()
            with pytest.raises(InputTooLarge, match="size cap"):
                rational_roots(F)
            assert time.perf_counter() - start < 5

    def test_resultant_size_cap(self):
        # the Y-resultant of these has X-degree up to 2 * 8 * 8 and t-degree
        # up to 2 * 8 * 2: past the cap before any elimination starts
        A = bi("X^8*Y^8 + t^2*X + Y + 1")
        B = bi("X^8*Y^8 + X - t^2*Y")
        with pytest.raises(InputTooLarge):
            resultant_y(A, B)
        with pytest.raises(InputTooLarge):
            resultant_x(A, B)


class TestDependenceTransfer:
    def test_ray_case(self):
        w = choose_omega(S01.places)
        u = SUnit.make(1, {P0: 1}, S01)
        v = SUnit.make(1, {P0: -1}, S01)
        out = check_dependence_transfer(
            bi("X*Y-1"), u, v, RatFunc.one(), RatFunc.one(), 1, 1,
            Fraction(1), w)
        assert out.kind == "gamma"
        assert out.gamma == RatFunc.one()
        assert out.branch == "ray"
        assert as_ratfunc(u) * as_ratfunc(v) == out.gamma

    def test_constant_quotient(self):
        w = choose_omega(S01.places)
        u = SUnit.make(1, {P0: 1}, S01)
        v = SUnit.make(1, {P0: -1}, S01)
        alpha = RatFunc(Poly((0, Fraction(1, 2))))
        out = check_dependence_transfer(
            bi("X*Y-1"), u, v, alpha, RatFunc.one() / alpha, 1, 0,
            Fraction(2), w)
        assert out.kind == "constant_quotient"
        assert out.which == "first"

    def test_bezout_case(self):
        # A = X+Y+1, u = t^2, v = t; (alpha, beta) = (1, -2) kills A and B,
        # and (u/1)(v/-2)^-2 = 4
        w = choose_omega(S01.places)
        u = SUnit.make(1, {P0: 2}, S01)
        v = SUnit.make(1, {P0: 1}, S01)
        out = check_dependence_transfer(
            bi("X+Y+1"), u, v, RatFunc.one(), RatFunc.const(-2), 1, -2,
            Fraction(4), w)
        assert out.kind == "gamma"
        assert out.branch == "bezout"
        assert out.gamma == RatFunc.one()
        assert as_ratfunc(u) ** 1 * as_ratfunc(v) ** -2 == out.gamma

    def test_shared_factor_with_twist_is_not_irreducible(self):
        # A = (XY - 2)(X + Y + 1) at (alpha, beta) = (t + 1, 2/(t + 1)),
        # on XY = 2, with u v = 2: its twist along (1, 1) is
        # (X - Y)(XY - 2), so both resultants vanish
        S = PlaceSet.of(0, "inf")
        u = SUnit.make(1, {P0: 1}, S)
        v = SUnit.make(2, {P0: -1}, S)
        alpha = rat("t+1")
        with pytest.raises(PreconditionViolated) as err:
            check_dependence_transfer(
                bi("(X*Y-2)*(X+Y+1)"), u, v, alpha, RatFunc.const(2) / alpha,
                1, 1, Fraction(1), choose_omega(S.places))
        assert err.value.identity == "A irreducible"

    def test_precondition_failures(self):
        w = choose_omega(S01.places)
        u = SUnit.make(1, {P0: 1}, S01)
        v = SUnit.make(1, {P0: -1}, S01)
        with pytest.raises(PreconditionViolated, match="gcd"):
            check_dependence_transfer(bi("X*Y-1"), u, v, RatFunc.one(),
                                      RatFunc.one(), 2, 2, Fraction(1), w)
        with pytest.raises(PreconditionViolated, match="alpha, beta"):
            check_dependence_transfer(bi("X+Y"), u, v, RatFunc.zero(),
                                      RatFunc.zero(), 1, 1, Fraction(1), w)
        with pytest.raises(PreconditionViolated, match=r"A\(alpha"):
            check_dependence_transfer(bi("X+Y+1"), u, v, RatFunc.one(),
                                      RatFunc.one(), 1, 1, Fraction(1), w)
        with pytest.raises(PreconditionViolated, match="mu"):
            check_dependence_transfer(bi("X*Y-1"), u, v, RatFunc.one(),
                                      RatFunc.one(), 2, 1, Fraction(1), w)

    def test_gamma_identity_reasserted(self):
        # run the ray case over several unit pairs u * v = const
        w = choose_omega(S011.places)
        rng = random.Random(123)
        for _ in range(20):
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            if (a, b) == (0, 0):
                continue
            u = SUnit.make(1, {P0: a, P1: b}, S011)
            v = SUnit.make(2, {P0: -a, P1: -b}, S011)
            out = check_dependence_transfer(
                bi("X*Y-2"), u, v, RatFunc.one(), RatFunc.const(2), 1, 1,
                Fraction(1), w)
            assert out.kind == "gamma"
            assert as_ratfunc(u) * as_ratfunc(v) == out.gamma


class TestIrreducibilityAudit:
    def test_supports_fixtures(self):
        assert specialization_irreducibility_audit(bi("X+Y+1"))
        assert specialization_irreducibility_audit(bi("X*Y-t"))
        assert specialization_irreducibility_audit(
            bi("X^2*Y+X*Y^2-t*(X+Y)+1"))

    def test_point_where_every_coefficient_vanishes(self):
        # A(tau) = 0 at the first point drawn for seed 0, which is skipped
        draws = random.Random("irred-audit:0")
        tau = Fraction(draws.randint(2, 50), draws.randint(1, 7))
        A = bi("X+Y+1").scale(RatFunc(Poly((-tau, 1))))
        assert specialization_irreducibility_audit(A)
        assert oracle_irreducibility_audit(A)

    def test_rejects_products(self):
        assert not specialization_irreducibility_audit(
            bi("(X+Y+1)*(X-Y+t)"))

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            specialization_irreducibility_audit(BiPoly.const(rat("t")))

    @staticmethod
    def kronecker_verdicts(expr: str) -> list[bool]:
        """The Kronecker certificate's verdict at each point the audit
        draws for seeds 0 to 9 where A keeps its bidegree."""
        A = bi(expr)
        ints, _ = A.cleared()
        out = []
        for seed in range(10):
            draws = random.Random(f"irred-audit:{seed}")
            for _ in range(5):
                tau = Fraction(draws.randint(2, 50), draws.randint(1, 7))
                spec = _specialised(ints, tau)
                if (max(i for i, _ in spec) == A.deg_x
                        and max(j for _, j in spec) == A.deg_y):
                    out.append(_kronecker_irreducible(spec, A.deg_x))
        return out

    @pytest.mark.parametrize("expr", [
        "X+Y+1", "X*Y-t", "X^2*Y+X*Y^2-t*(X+Y)+1", "X^3+Y^3+t"])
    def test_kronecker_certifies_irreducibles(self, expr):
        # the certificate alone decides every point drawn, without sympy
        verdicts = self.kronecker_verdicts(expr)
        assert verdicts and all(verdicts)

    @pytest.mark.parametrize("expr", [
        "(X+Y+1)*(X-Y+t)", "(X*Y-t)*(X+t*Y+1)", "(X^2+Y)^2",
        "(X^2-t*Y^2)*(X+Y+1)"])
    def test_kronecker_never_certifies_a_product(self, expr):
        verdicts = self.kronecker_verdicts(expr)
        assert verdicts and not any(verdicts)

    def test_specialised_matches_evaluation(self):
        # each coefficient of A at tau, times one common nonzero factor
        A = bi("X^2*Y/(t+1)+X*Y^2-t^2*(X+Y)/3+1")
        ints, _ = A.cleared()
        for tau in (Fraction(2), Fraction(-5, 3), Fraction(7, 2)):
            spec = _specialised(ints, tau)
            scale = spec[(0, 0)] / A.coeff(0, 0).eval(tau)
            assert scale
            assert spec == {key: c.eval(tau) * scale
                            for key, c in A.coeffs.items() if c.eval(tau)}

    def test_agrees_with_oracle(self):
        # products, near-products and single factors; about a third of the
        # coefficients get a pole at one of the points the audit draws
        rng = random.Random(47)
        skipped = 0
        for k in range(40):
            draws = random.Random(f"irred-audit:{k}")
            taus = [Fraction(draws.randint(2, 50), draws.randint(1, 7))
                    for _ in range(5)]

            def coeff():
                c = rand_ratfunc(rng, 2)
                if rng.random() < 0.35:
                    c = c / RatFunc(Poly((-rng.choice(taus), 1)))
                return c

            def linear():
                return BiPoly({(1, 0): coeff(), (0, 1): coeff(),
                               (0, 0): coeff()})

            A = linear()
            if k % 3 == 0:
                A = A * linear()
            elif k % 3 == 1:
                A = A * linear() + BiPoly.const(coeff())
            if k % 4 == 3:
                # a pole at every drawn point: every trial is skipped
                q = Poly.one()
                for tau in set(taus):
                    q = q * Poly((-tau, 1))
                A = A.scale(RatFunc(Poly.one(), q))
            if A.is_constant:
                continue
            for c in A.coeffs.values():
                skipped += any(c.den.eval(tau) == 0 for tau in taus)
            assert (specialization_irreducibility_audit(A, seed=k)
                    == oracle_irreducibility_audit(A, seed=k))
        assert skipped > 0
