import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import ffvojta
from ffvojta.cli import main as cli_main
from conftest import ODD_PLACE_SETS
from ffvojta.constants import InvalidInput
from ffvojta.field_core import Place, Poly
from ffvojta.parser import (
    ParseError,
    parse_bipoly,
    parse_place,
    render_ratfunc_expr,
)
from ffvojta.sunits import PlaceSet, SUnit
from ffvojta.unitsum import check_bm, random_vanishing_sum
from ffvojta.verify import (
    NotIrreducibleAttested,
    RunConfig,
    audit_steps,
    build_context,
    build_report,
    classify,
    emit_report,
    outcome_json,
    pair_for_index,
    verify_trichotomy,
)


P0 = Place.rational(0)
P1 = Place.rational(1)
S011 = PlaceSet.of(0, 1, "inf")

BASE = RunConfig(poly="X+Y+1", places=("0", "1", "inf"), epsilon="1/2",
                 count=25, max_exponent=10, seed=5)


class TestConfig:
    def test_default_factor_is_poly(self):
        assert BASE.factor_list() == (("X+Y+1", True),)

    def test_factor_product_checked(self):
        bad = RunConfig(poly="X+Y+1", places=("0", "inf"),
                        factors=(("X+Y", True), ("X", True)))
        with pytest.raises(ValueError):
            build_context(bad)

    def test_bad_count_and_epsilon_rejected(self):
        from ffvojta.constants import InvalidInput

        for bad in ({"count": -1}, {"max_exponent": 0}):
            with pytest.raises(ValueError):
                build_context(RunConfig(poly="X+Y+1", places=("0", "inf"),
                                        **bad))
        with pytest.raises(InvalidInput):
            build_context(RunConfig(poly="X+Y+1", places=("0", "inf"),
                                    epsilon="0"))

    def test_factored_config(self):
        cfg = RunConfig(poly="(X+Y+1)*(X*Y-t)", places=("0", "1", "inf"),
                        factors=(("X+Y+1", True), ("X*Y-t", True)))
        ctx = build_context(cfg)
        assert len(ctx.ledger.factor_ledgers) == 2
        assert len(ctx.ledger.pair_ledgers) == 1


class TestPairOutcomes:
    def test_all_outcomes_classified(self):
        outcomes = verify_trichotomy(BASE)
        assert len(outcomes) == BASE.count
        assert all(o["kind"] in ("below_threshold", "relation", "bound_holds",
                                 "degenerate_on_z") for o in outcomes)

    @staticmethod
    def _rendered(poly, S, u, v, theta1, theta2):
        A = parse_bipoly(poly)
        c = classify(A, S, u, v, theta1, theta2, Fraction(1, 2))
        return json.dumps(outcome_json(A, 0, c))

    def test_degenerate_detection(self):
        # X*Y - t at (t, 1) vanishes identically
        u = SUnit.make(1, {P0: 1}, S011)
        v = SUnit.make(1, {}, S011)
        assert self._rendered("X*Y-t", S011, u, v, 0, 0) == (
            '{"pair_index": 0, "u": "(t)", "v": "(1)", '
            '"kind": "degenerate_on_z"}')

    def test_relation_outcome_with_forced_threshold(self):
        u = SUnit.make(1, {P0: 7}, S011)
        v = SUnit.make(2, {P0: -7}, S011)
        assert self._rendered("X+Y+1", S011, u, v, 0, 1) == (
            '{"pair_index": 0, "u": "(t^7)", "v": "(2)/(t^7)", "height": 7, '
            '"kind": "relation", "r": 1, "s": 1, "gamma": "(2)", '
            '"gamma_candidates": {"checked": true, "member": true, '
            '"candidates": 1}}')

    def test_gamma_candidate_membership(self):
        from ffvojta.field_core import RatFunc
        from ffvojta.verify import gamma_candidate_membership

        # ray case: the twist is zero, there is no common zero to compare
        # gamma with, and nothing is checked
        ray = gamma_candidate_membership(parse_bipoly("X*Y-1"), 1, 1,
                                         RatFunc.one())
        assert ray == {"checked": False, "member": None, "candidates": 0}

        # coprime twist: one rational common zero (1, -2); any constant
        # gamma is a constant multiple of alpha^r beta^s
        info = gamma_candidate_membership(parse_bipoly("X+Y+1"), 1, -2,
                                          RatFunc.const(4))
        assert info["checked"] and info["candidates"] == 1 and info["member"]
        bad = gamma_candidate_membership(parse_bipoly("X+Y+1"), 1, -2,
                                         RatFunc.t())
        assert bad["member"] is False

    @pytest.mark.parametrize("index, gamma", [(64, "(1/4)"),
                                              (282, "(-1/2)")])
    def test_relation_on_one_line_checks_nothing(self, index, gamma):
        # X*Y - t lies on one (1, 1) line, so u v = gamma pins no common
        # zero of A and its twist: the record says it checked nothing
        cfg = RunConfig(poly="X*Y-t", places=("0", "1", "inf"),
                        max_exponent=6, seed=3)
        ctx = build_context(cfg)
        u, v = pair_for_index(ctx, index)
        c = classify(ctx.A, ctx.S, u, v, 0, 1, Fraction(1, 2))
        out = outcome_json(ctx.A, index, c)
        assert (out["kind"], out["r"], out["s"], out["gamma"]) == (
            "relation", 1, 1, gamma)
        assert out["gamma_candidates"] == {"checked": False, "member": None,
                                           "candidates": 0}

    def test_bound_outcome_with_forced_threshold(self):
        S01 = PlaceSet.of(0, "inf")
        u = SUnit.make(1, {P0: 2}, S01)
        v = SUnit.make(-2, {P0: 1}, S01)
        assert self._rendered("X+Y+1", S01, u, v, 0, 0) == (
            '{"pair_index": 0, "u": "(t^2)", "v": "(-2*t)", "height": 2, '
            '"lhs": 1, "rhs": "1", "kind": "bound_holds"}')


Q2 = Place.finite(Poly((1, 0, 1)))
# {0, t^2 + 1, inf}: a set with a degree-2 place
S0Q = ODD_PLACE_SETS[1]
PIN_SETS = {"S011": S011, "S0Q": S0Q}
PIN_PLACES = {"0": P0, "1": P1, "q": Q2}


class TestBranchPins:
    """Byte pins of outcomes off the benchmarked branch: theta1 = 0 puts
    every nonzero pair above the threshold, so the pairs reach
    degenerate_on_z, relation (theta2 = 1) and bound_holds.  A unit is
    (constant, {place: exponent}) with places 0, 1 and q = t^2 + 1."""

    @pytest.mark.parametrize("index, poly, where, u, v, theta2, kind, digest", [
        (0, "X-Y", "S011", (3, {"0": 2, "1": -1}), (3, {"0": 2, "1": -1}), 0,
         "degenerate_on_z",
         "de1b5417e3a8f380957c24aab778d773526127c877f9c4e1812f06d82d4b20f0"),
        (1, "X*Y-1", "S011", (2, {"0": 3, "1": 2}),
         ("1/2", {"0": -3, "1": -2}), 1, "degenerate_on_z",
         "5440359e232a0ee222dbae506ee92417d4ecb5f4915559ffd24f7b22be1433f6"),
        (2, "X+Y+1", "S011", (-1, {"0": 1}), (1, {"1": 1}), 0,
         "degenerate_on_z",
         "25686fa42f40332f31f9efff9c778947e67547095c04da88776c2ca29618480c"),
        (3, "X-Y", "S0Q", (1, {"q": 2, "0": -1}), (1, {"q": 2, "0": -1}), 1,
         "degenerate_on_z",
         "4158ab7c90027839ac33862e5f6413c1dc79b1cb42a6b74d1f5e782d4f3eba7f"),
        (4, "X*Y-1", "S0Q", (5, {"q": -3}), ("1/5", {"q": 3}), 0,
         "degenerate_on_z",
         "13a978c2d205aa9102a29c682bca100bf0a5e88905de1fda9b3e61d8d7143a99"),
        (5, "X+Y+1", "S0Q", (-1, {"q": 1}), (1, {"0": 2}), 1,
         "degenerate_on_z",
         "265ffa21a08009569c98f81efad19a93ddb8c154f2e73b1ccbc683fdd683473d"),
        (6, "X+Y+1", "S011", (1, {"0": 3, "1": -1}), (2, {"0": -3, "1": 1}),
         1, "relation",
         "d21d99558807ea51c78bc327c12391615d25444e1032e87b72bed247691ee0af"),
        (7, "X-Y", "S011", (1, {"0": 1, "1": 2}),
         ("-1/3", {"0": -1, "1": -2}), 1, "relation",
         "3af0c6aa4df32af515b1177e45c929e883b52c5474d6e58f212d1d7dde069c3e"),
        # A(u, v) = 2 lies on one (1, 1) line: gamma_candidates checks nothing
        (8, "X*Y-1", "S0Q", (1, {"q": 1, "0": -2}), (3, {"q": -1, "0": 2}),
         1, "relation",
         "b81a8bced0f88c27ede689b64d01de767a25759e676b32508fb8a230db772e96"),
        (9, "X+Y+1", "S0Q", (1, {"q": 1}), (2, {}), 1, "relation",
         "97d0ed8126f80a0da18c1269e3a0ead5217b4ccb244a503148ebe94cee67252a"),
        # lhs = rhs = 1: (t + 1)^2
        (10, "X+Y+1", "S011", (1, {"0": 2}), (2, {"0": 1}), 0, "bound_holds",
         "e53f40d7f9f1d0bce2e2c2955350c38270ed034744b682dc77e14a1b3406eb05"),
        (11, "X-Y", "S011", (1, {"0": 2}), (1, {"0": -1}), 1, "bound_holds",
         "07e5fb6c9372a3ce3ffdf6326319ed33245abd8c396c2449e2afac41bd4a40ce"),
        # -(2t - 1)^2
        (12, "X*Y-1", "S011", (-4, {"0": 3}), (1, {"0": -2, "1": 1}), 0,
         "bound_holds",
         "e50d405002921d66130e68d1113f3d02522de648d984b938a533efbc2589c6fc"),
        (13, "X+Y+1", "S0Q", (1, {"q": 1, "0": -1}), ("-1/2", {"0": 1}), 0,
         "bound_holds",
         "8ae57636a15adc92d7c3aedd27e81b05cf2505fa44d1c5ca9502d71d361acb87"),
        # lhs = rhs = 1: (t + 1)^2
        (14, "X-Y", "S0Q", (1, {"q": 1}), (-2, {"0": 1}), 0, "bound_holds",
         "9fcb1557ba04a7b6192947381d08f95a500029afd482e8cdf2d4c7f29f25d34c"),
        (15, "X*Y-1", "S0Q", (2, {"q": -1, "0": 1}), (1, {"q": 1, "0": 1}), 1,
         "bound_holds",
         "bf7e8ea7f57c22964fd2917882416fbfb10e6d0f735821aea2778d323e52cd84"),
    ])
    def test_outcome_pinned(self, index, poly, where, u, v, theta2, kind,
                            digest):
        S = PIN_SETS[where]

        def unit(spec):
            c, exps = spec
            return SUnit.make(Fraction(c), {PIN_PLACES[k]: e
                                            for k, e in exps.items()}, S)

        A = parse_bipoly(poly)
        c = classify(A, S, unit(u), unit(v), 0, theta2, Fraction(1, 2))
        assert c.kind == kind
        text = json.dumps(outcome_json(A, index, c), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestThreshold:
    """classify compares the height with theta1 * max(1, chi(S)) on
    integers; the comparison is strict."""

    S0M1 = PlaceSet.of(0, 1, -1, "inf")  # chi = 2

    def _kind(self, S, theta1):
        # t^3 and t / (t - 1): height 3, independent
        u = SUnit.make(1, {P0: 3}, S)
        v = SUnit.make(1, {P0: 1, P1: -1}, S)
        return classify(parse_bipoly("X+Y+1"), S, u, v, theta1, 0,
                        Fraction(1, 2))

    def test_boundary(self):
        # an integral threshold equal to the height is not above it
        assert self._kind(S011, Fraction(3)).kind != "below_threshold"
        assert self._kind(self.S0M1, Fraction(3, 2)).kind != "below_threshold"
        assert self._kind(S011, 3).kind != "below_threshold"
        # a fractional threshold T keeps h = floor(T) below it
        for S, theta1 in ((S011, Fraction(10, 3)),
                          (self.S0M1, Fraction(7, 4))):
            c = self._kind(S, theta1)
            assert c.kind == "below_threshold" and c.height == 3

    def test_matches_the_fraction_comparison(self):
        # chi = 1, 2 and 3
        for S in (S011, self.S0M1, PlaceSet.of(0, 1, Q2, "inf")):
            chi = max(1, S.geometric_size - 2)
            for k in range(0, 60):
                theta1 = Fraction(k, 6)
                below = self._kind(S, theta1).kind == "below_threshold"
                assert below == (3 < theta1 * chi), (S, theta1)


class TestReports:
    def test_empty_outcomes_shape(self, tmp_path):
        cfg = RunConfig(poly="X+Y+1", places=("0", "inf"), count=0)
        report = build_report(cfg, [])
        assert report["outcomes"] == []
        assert "summary" in report and "constants" in report
        path = tmp_path / "empty.json"
        emit_report(report, str(path))
        assert json.loads(path.read_text(encoding="utf-8")) == report

    def test_report_ledger_is_the_context_ledger(self):
        cfg = RunConfig(poly="X*Y-t", places=("0", "inf"), epsilon="1/3",
                        count=0)
        for c in (cfg, dataclasses.replace(
                BASE, poly="(X+Y+1)*(X-Y)",
                factors=(("X+Y+1", True), ("X-Y", False)))):
            assert build_report(c, [])["constants"] == (
                build_context(c).ledger.to_json())

    def test_config_errors_reported_in_order(self):
        # counts, then the factor product, then the places, then epsilon
        bad_factor = (("X+Y+2", True),)
        cases = [
            (dict(count=-1, max_exponent=0, factors=bad_factor,
                  places=("zz",), epsilon="bad"),
             ValueError, "count must be nonnegative"),
            (dict(max_exponent=0, factors=bad_factor, places=("zz",),
                  epsilon="bad"),
             ValueError, "max_exponent must be at least 1"),
            (dict(factors=bad_factor, places=("zz",), epsilon="bad"),
             ValueError, "does not multiply back"),
            (dict(places=("zz",), epsilon="bad"),
             ParseError, "unexpected character"),
            (dict(epsilon="bad"), ValueError, "Invalid literal"),
            (dict(epsilon="-1"), InvalidInput, "eps must be positive"),
        ]
        for changes, kind, message in cases:
            with pytest.raises(kind, match=message):
                build_context(dataclasses.replace(BASE, **changes))

    def test_kind_strings(self):
        outcomes = verify_trichotomy(BASE)
        report = build_report(cfg=BASE, outcomes=outcomes)
        assert report["summary"]["below_threshold"] == len(outcomes)
        assert report["outcomes"][0]["kind"] == "below_threshold"

    def test_roundtrip(self, tmp_path):
        outcomes = verify_trichotomy(BASE)
        report = build_report(BASE, outcomes)
        path = tmp_path / "report.json"
        emit_report(report, str(path))
        assert json.loads(path.read_text(encoding="utf-8")) == report

    def test_emit_writes_indented_dump(self, tmp_path):
        report = build_report(BASE, verify_trichotomy(BASE))
        path = tmp_path / "report.json"
        emit_report(report, str(path))
        assert path.read_text(encoding="utf-8") == \
            json.dumps(report, indent=2) + "\n"

    def test_determinism_same_config(self, tmp_path):
        r1 = build_report(BASE, verify_trichotomy(BASE))
        r2 = build_report(BASE, verify_trichotomy(BASE))
        assert json.dumps(r1) == json.dumps(r2)

    def test_worker_determinism_small(self):
        cfg = RunConfig(poly="X*Y-t", places=("0", "1", "inf"), count=12,
                        max_exponent=6, seed=11)
        seq = build_report(cfg, verify_trichotomy(cfg, workers=1))
        par = build_report(cfg, verify_trichotomy(cfg, workers=3))
        assert json.dumps(seq) == json.dumps(par)

    def test_shipped_fixtures_never_violate(self):
        from ffvojta.verify import VERIFY_FIXTURES

        for name, poly in VERIFY_FIXTURES.items():
            cfg = RunConfig(poly=poly, places=("0", "1", "inf"),
                            epsilon="1/2", count=60, max_exponent=8,
                            seed=13)
            report = build_report(cfg, verify_trichotomy(cfg))
            assert report["summary"]["violation"] == 0, name


CUBIC = "X^2*Y+X*Y^2-t*(X+Y)+1"

# Inputs each of which once sent a decision to sympy, decided in turn; after
# each, the script prints its name and whether sympy is loaded by then.
FORMER_FALLBACKS = """
import sys
from fractions import Fraction
from ffvojta.bipoly import (BiPoly, PreconditionViolated,
                            check_dependence_transfer, rational_roots,
                            specialization_irreducibility_audit)
from ffvojta.field_core import (Place, Poly, RatFunc, choose_omega,
                                factor_poly, poly_gcd)
from ffvojta.parser import parse_bipoly, parse_ratfunc
from ffvojta.sunits import PlaceSet, SUnit
from ffvojta.verify import RunConfig, build_context, classify, pair_for_index

def done(name):
    print(name, 'sympy' in sys.modules)

# pair 47: a stripped numerator of degree 18, 6 factors over Q and 18
# linear factors mod 2^61 - 1
ctx = build_context(RunConfig(poly='X-Y', places=('0', 't^2+1', 'inf'),
                              max_exponent=6, seed=3))
c = classify(ctx.A, ctx.S, *pair_for_index(ctx, 47), 0, 1, Fraction(1, 2))
assert (c.kind, c.lhs) == ('bound_holds', 0)
done('pair-47')

# a coefficient past the largest Mersenne prime
big = 2 ** 4424 + 1
assert poly_gcd(Poly((big, 1)) * Poly((1, 1)),
                Poly((2, 1)) * Poly((1, 1))) == Poly((1, 1))
done('gcd-past-the-primes')

prod = Poly.one()
for k in range(1, 17):
    prod = prod * Poly((-k, 1))
assert [q.degree for q, _ in factor_poly(prod)] == [1] * 16
for n, degrees in ((15, [1, 2, 4, 8]), (24, [1, 1, 2, 2, 2, 4, 4, 8])):
    p = Poly((-1,) + (0,) * (n - 1) + (1,))
    assert [q.degree for q, _ in factor_poly(p)] == degrees
done('factor-products-and-cyclotomics')

# two roots that agree at t = 2, ..., 9
r1 = parse_ratfunc('t+1')
r2 = r1 + parse_ratfunc('(t-2)*(t-3)*(t-4)*(t-5)*(t-6)*(t-7)*(t-8)*(t-9)')
F = BiPoly({(0, 2): 1, (0, 1): -(r1 + r2), (0, 0): r1 * r2})
assert rational_roots(F) == ([r1, r2], True)
done('roots-agreeing-at-the-lift-points')

for expr, irreducible in (('X+Y+1', True), ('X*Y-t', True),
                          ('X^2*Y+X*Y^2-t*(X+Y)+1', True),
                          ('X^3+Y^3+t', True),
                          ('X^4+Y^4+t*X^2*Y+X+Y+t', True),
                          ('X^2+Y^2', True), ('X^2-t*Y^2', True),
                          ('X^2-Y^2', False), ('(X+Y+1)*(X-Y+t)', False)):
    A = parse_bipoly(expr)
    assert specialization_irreducibility_audit(A) is irreducible, expr
done('irreducibility-audit')

S = PlaceSet.of(0, 'inf')
P0 = Place.rational(0)
w = choose_omega(S.places)
out = check_dependence_transfer(
    parse_bipoly('X+Y+1'), SUnit.make(1, {P0: 2}, S),
    SUnit.make(1, {P0: 1}, S), RatFunc.one(), RatFunc.const(-2), 1, -2,
    Fraction(4), w)
assert out.branch == 'bezout'
alpha = parse_ratfunc('t+1')
try:
    check_dependence_transfer(
        parse_bipoly('(X*Y-2)*(X+Y+1)'), SUnit.make(1, {P0: 1}, S),
        SUnit.make(2, {P0: -1}, S), alpha, RatFunc.const(2) / alpha, 1, 1,
        Fraction(1), w)
except PreconditionViolated as err:
    assert err.identity == 'A irreducible'
else:
    raise AssertionError('the shared factor went unnoticed')
done('dependence-transfer')
"""


class TestAudit:
    @pytest.mark.parametrize("poly, places, indices", [
        # a seeded sample of the benchmark's audit_cubic pool pairs
        (CUBIC, ("0", "1", "inf"), random.Random(20).sample(range(144), 16)),
        # no infinity in S, and A's coefficients are constants, so none in
        # S_a: it comes in only through a coefficient of B
        ("X+Y+1", ("0", "1", "-1"), range(12)),
        # the degree-2 place t^2 + 1
        (CUBIC, ("0", "1", "t^2+1", "inf"), range(12)),
        # a coefficient of A with a pole at -1, which b^2 brings into B
        ("X^2*Y+X*Y^2-t*(X+Y)+1/(t+1)", ("0", "1", "inf"), range(12)),
    ])
    def test_companion_places(self, poly, places, indices):
        from ffvojta.bipoly import b_polynomial
        from ffvojta.sunits import enlarge_for_coefficients
        from ffvojta.verify import _audit_setting, _companion_places

        cfg = RunConfig(poly=poly, places=places, epsilon="1/2",
                        max_exponent=2, seed=7, mode="audit")
        ctx = build_context(cfg)
        A, _, S_a, w = _audit_setting(poly, places, 7)
        assert S_a.has_infinity == ("inf" in places or "t" in poly)
        assert (Place.rational(-1) in S_a.places) == ("-1" in places
                                                      or "t+1" in poly)
        for index in indices:
            u, v = pair_for_index(ctx, index)
            B = b_polynomial(A, u, v, w)
            assert _companion_places(S_a, B, u, v) == enlarge_for_coefficients(
                S_a, list(B.coeffs.values()))

    def test_companion_places_off_s_a(self):
        # u lives on a place that S_a lacks, so the poles of B's
        # coefficients are not all known: every coefficient is enlarged by
        # in full, and the place of u comes in as a pole
        from ffvojta.bipoly import b_polynomial
        from ffvojta.sunits import enlarge_for_coefficients
        from ffvojta.verify import _audit_setting, _companion_places

        A, _, S_a, w = _audit_setting("X+Y+1", ("0", "1", "inf"), 7)
        P2 = Place.rational(2)
        S2 = PlaceSet(S_a.places | {P2})
        u, v = SUnit.make(1, {P2: 1}, S2), SUnit.make(3, {P0: 1}, S2)
        B = b_polynomial(A, u, v, w)
        got = _companion_places(S_a, B, u, v)
        assert got == enlarge_for_coefficients(S_a, list(B.coeffs.values()))
        assert P2 in got.places

    def test_common_zeros_in_first_occurrence_order(self):
        # A vanishes at X in {1, t} and B at Y in {2, -t}, so every pair of
        # nonzero roots is a common zero; repeats and the zero root drop out
        from ffvojta.field_core import RatFunc
        from ffvojta.verify import _common_zeros

        t, one, two = RatFunc.t(), RatFunc.one(), RatFunc.const(2)
        A = parse_bipoly("(X-1)*(X-t)")
        B = parse_bipoly("(Y-2)*(Y+t)")
        zeros = _common_zeros(A, B, [t, RatFunc.zero(), one, t, one],
                              [-t, two, -t, two])
        assert zeros == [(t, -t), (t, two), (one, -t), (one, two)]
        zeros = _common_zeros(A, B, [one, t], [two, -t, two])
        assert zeros == [(one, two), (one, -t), (t, two), (t, -t)]

    def test_resultant_bounds_example(self):
        cfg = RunConfig(poly="X+Y+1", places=("0", "1", "inf"), seed=1)
        u = SUnit.make(1, {P0: 2}, S011)
        v = SUnit.make(-2, {P0: 1}, S011)
        rep = audit_steps(cfg, u, v)
        assert rep["step1"]["coprime"]
        assert rep["step2"]["deg_f"] <= rep["step2"]["deg_bound"] == 2
        assert rep["step2"]["holds"]
        assert rep["step3"]["complete_f"] and rep["step3"]["complete_g"]
        assert rep["outcome"] == "split_audit_complete"
        assert rep["step4"]["holds"]
        assert rep["split_case_only"] is True

    def test_pointwise_checks_outside_v(self):
        # same pair over {0, inf}: the double zero at t = 1 is outside V
        cfg = RunConfig(poly="X+Y+1", places=("0", "inf"), seed=1)
        S01 = PlaceSet.of(0, "inf")
        u = SUnit.make(1, {P0: 2}, S01)
        v = SUnit.make(-2, {P0: 1}, S01)
        rep = audit_steps(cfg, u, v)
        assert rep["outcome"] == "split_audit_complete"
        assert rep["step4"]["z_pairs"] == 1
        assert rep["step4"]["checks"], "expected a pointwise check at t = 1"
        assert rep["step4"]["holds"]

    def test_step1_relation_branch(self):
        # X*Y-1 with u v constant: the companion polynomial vanishes
        cfg = RunConfig(poly="X*Y-1", places=("0", "inf"), seed=1)
        S01 = PlaceSet.of(0, "inf")
        u = SUnit.make(1, {P0: 1}, S01)
        v = SUnit.make(2, {P0: -1}, S01)
        rep = audit_steps(cfg, u, v)
        assert rep["step1"]["coprime"] is False
        rel = rep["step1"]["relation"]
        assert (rel["r"], rel["s"]) == (1, 1)
        assert rel["mu_constant"]

    def test_not_split(self):
        # the Y-resultant is -X^2 + 2t, whose roots leave the field
        cfg = RunConfig(poly="X^2+Y-t", places=("0", "1", "inf"), seed=1)
        u = SUnit.make(1, {P0: 1}, S011)
        v = SUnit.make(1, {P0: 3}, S011)
        rep = audit_steps(cfg, u, v)
        assert not rep["step3"]["complete_f"]
        assert rep["outcome"] == "not_split"

    def test_quartic_not_split(self):
        # step 1 reads coprimality off the resultants
        cfg = RunConfig(poly="X^4+Y^4+t*X^2*Y+X+Y+t",
                        places=("0", "1", "inf"), max_exponent=2, seed=7,
                        mode="audit")
        u, v = pair_for_index(build_context(cfg), 0)
        rep = audit_steps(cfg, u, v)
        assert rep["step1"] == {"coprime": True}
        assert rep["outcome"] == "not_split"

    def test_quartic_pair_7_pinned(self):
        # both resultants have Z-degree 16 and are irreducible over Q(t);
        # the report is byte-identical to the trial-division root search's
        cfg = RunConfig(poly="X^4+Y^4+t*X^2*Y+X+Y+t",
                        places=("0", "1", "inf"), max_exponent=2, seed=7,
                        mode="audit")
        u, v = pair_for_index(build_context(cfg), 7)
        rep = audit_steps(cfg, u, v)
        assert rep["outcome"] == "not_split"
        assert hashlib.sha256(json.dumps(rep, indent=2).encode()).hexdigest() == (
            "c4162117170b9547f8e12df0cefeda68dca45022ff7da50f39a90b956de0effd")

    @pytest.mark.parametrize("index, outcome_digest", [
        # the only rational root of the Y-resultant is 0
        (0, "e784820b6bca714943f267536a76082ff35fb8351cb13a3f9e632945df76a18b"),
        # the costliest pair of the 144
        (10, "7a80e5f9f3e928e29b61ecfb2e2cf85811858010273c908d8daa3c5fe753f091"),
        # the Y-resultant has the nonzero rational root 1/t
        (39, "8760658d427aae2575b01110194e89d1c5ee88d8841e8fef2bdd113cff54bc45"),
    ])
    def test_cubic_audit_pairs_pinned(self, index, outcome_digest):
        # the pairs of the cubic audit at max_exponent 2, seed 7: the
        # companion's coefficients and the resultants' normal forms decide
        # every byte of the report
        cfg = RunConfig(poly="X^2*Y+X*Y^2-t*(X+Y)+1",
                        places=("0", "1", "inf"), epsilon="1/2",
                        max_exponent=2, seed=7, mode="audit")
        u, v = pair_for_index(build_context(cfg), index)
        rep = audit_steps(cfg, u, v)
        assert rep["outcome"] == "not_split"
        assert hashlib.sha256(json.dumps(rep, indent=2).encode()).hexdigest() == (
            outcome_digest)

    def test_attestation_required(self):
        cfg = RunConfig(poly="X+Y+1", places=("0", "inf"),
                        factors=(("X+Y+1", False),))
        u = SUnit.make(1, {P0: 1}, PlaceSet.of(0, "inf"))
        with pytest.raises(NotIrreducibleAttested):
            audit_steps(cfg, u, u)

    def test_reducible_poly_caught(self):
        cfg = RunConfig(poly="(X+Y+1)*(X+Y+2)", places=("0", "inf"))
        u = SUnit.make(1, {P0: 1}, PlaceSet.of(0, "inf"))
        with pytest.raises(NotIrreducibleAttested):
            audit_steps(cfg, u, u)

    def test_factor_audited_once_per_expr_and_seed(self):
        from ffvojta.sunits import generate
        from ffvojta.verify import _audit_setting

        cfg = RunConfig(poly="X*Y-t", places=("0", "1", "inf"), seed=31)
        units = generate(S011, 3, 6, seed=31)
        before = _audit_setting.cache_info()
        for u, v in zip(units[::2], units[1::2]):
            audit_steps(cfg, u, v)
        after = _audit_setting.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= 2

    @pytest.mark.parametrize("poly, error", [
        ("(X+Y+1)*(X+Y+2)", NotIrreducibleAttested),
        ("X+t", ValueError),
    ])
    def test_failed_audit_raises_on_every_call(self, poly, error):
        from ffvojta.verify import _audit_setting

        cfg = RunConfig(poly=poly, places=("0", "inf"))
        u = SUnit.make(1, {P0: 1}, PlaceSet.of(0, "inf"))
        size = _audit_setting.cache_info().currsize
        for _ in range(2):
            with pytest.raises(error):
                audit_steps(cfg, u, u)
        assert _audit_setting.cache_info().currsize == size

    def test_setting_not_shared_across_places(self):
        # S is part of the setting: configs that differ only in places
        # report different base sizes, so they must not share an entry
        from ffvojta.verify import _audit_setting

        S0 = PlaceSet.of(0, "inf")
        u, v = SUnit.make(1, {P0: 1}, S0), SUnit.make(1, {P0: 2}, S0)
        before = _audit_setting.cache_info()
        sizes = [audit_steps(RunConfig(poly="X*Y-t", places=places, seed=41),
                             u, v)["s_prime"]["base_size"]
                 for places in (("0", "inf"), ("0", "1", "inf"))]
        after = _audit_setting.cache_info()
        assert sizes[0] != sizes[1]
        assert after.misses - before.misses == 2

    @pytest.mark.parametrize("poly, places, index, outcome, digest", [
        # split pairs: both resultants' roots lie in Q(t) and step 4 runs
        ("X+Y+1", ("0", "1", "inf"), 0, "split_audit_complete",
         "2fa98c00e77306705c7d885f56368a5449b002a45c7b475940218376b6004f72"),
        ("X*Y-t", ("0", "1", "inf"), 1, "split_audit_complete",
         "c78648653b4073a90edb19c424bdda326ff6e995eb6003a64fbe440e105a0f36"),
        # with the degree-2 place t^2 + 1, four distinct denominators meet
        # in one clear of the resultants' inputs
        ("X^2*Y+X*Y^2-t*(X+Y)+1", ("0", "1", "t^2+1", "inf"), 3, "not_split",
         "0243a57e7aaee6da846d0373c573916e86960ba027d5cdfc7ad7d820419bc8a2"),
    ])
    def test_audit_pairs_off_the_benchmark_pinned(self, poly, places, index,
                                                  outcome, digest):
        cfg = RunConfig(poly=poly, places=places, epsilon="1/2",
                        max_exponent=2, seed=7, mode="audit")
        u, v = pair_for_index(build_context(cfg), index)
        rep = audit_steps(cfg, u, v)
        assert rep["outcome"] == outcome
        assert hashlib.sha256(json.dumps(rep, indent=2).encode()).hexdigest() == (
            digest)

    def test_step2_bounds_hold_on_audited_batch(self):
        from ffvojta.sunits import generate

        for poly in ("X+Y+1", "X*Y-t"):
            cfg = RunConfig(poly=poly, places=("0", "1", "inf"), seed=21)
            units = generate(S011, 4, 20, seed=21)
            for u, v in zip(units[::2], units[1::2]):
                rep = audit_steps(cfg, u, v)
                if "step2" in rep:
                    assert rep["step2"]["holds"], rep["step2"]
                if rep.get("outcome") == "split_audit_complete":
                    assert rep["step4"]["holds"]


class TestCLI:
    def test_verify_exit_code_and_report(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = cli_main([
            "--mode", "verify", "--poly", "X+Y+1", "--places", "0,1,inf",
            "--epsilon", "1/2", "--count", "8", "--max-exponent", "5",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "ffvojta-report/1"
        assert report["summary"]["violation"] == 0

    def test_constants_mode(self, capsys):
        code = cli_main(["--mode", "constants", "--poly", "X*Y-t",
                         "--epsilon", "1/4"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["constants"]["factors"][0]["c3"] == "14"
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_audit_past_size_cap(self, capsys):
        # the resultants of this audit would be past the size cap: a named
        # error, reported as invalid input, instead of a long elimination
        code = cli_main(["--mode", "audit", "--poly", "X^8*Y^8+t^2*X+Y+1",
                         "--places", "0,1,inf", "--u=t^2", "--v=-2*t"])
        assert code == 2
        assert "past the size cap" in capsys.readouterr().err

    def test_bm_mode(self, capsys):
        code = cli_main(["--mode", "bm",
                         "--terms", '["t", "1-t", "-1"]',
                         "--places", "0,1,inf"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["check"] == {"lhs": 1, "rhs": 3,
                                    "deficits": {"0": 1, "1": 1, "inf": 1},
                                    "holds": True}

    def test_bm_mode_rejects_bad_sum(self, capsys):
        code = cli_main(["--mode", "bm", "--terms", '["t", "1"]'])
        assert code == 2
        # the exact sum is checked before the term count
        assert "do not sum to zero" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--mode", "verify", "--poly", "X+Y+"],
        ["--mode", "verify", "--poly", "X/0"],
        ["--mode", "verify", "--poly", "X+Y+1", "--max-exponent", "0"],
        ["--mode", "audit", "--poly", "X+Y+1", "--u=t+2", "--v=t"],
        ["--mode", "constants", "--poly", "X+Y+1",
         "--factors", '[{"attested_irreducible": true}]'],
        ["--mode", "constants", "--poly", "X+Y+1", "--factors", "[1]"],
        ["--mode", "bm", "--terms", "[1,2,3]"],
        ["--mode", "bm", "--terms", "null"],
        ["--mode", "bm", "--terms", '{"t": 1}'],
    ], ids=["malformed-poly", "zero-denominator", "max-exponent-0",
            "non-unit", "factor-without-expr", "factor-not-object",
            "terms-not-strings", "terms-null", "terms-object"])
    def test_invalid_input_exit_code(self, capsys, argv):
        # exit 2 with one line on stderr; 1 is kept for a failed check
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1

    def test_audit_mode(self, tmp_path):
        out = tmp_path / "audit.json"
        code = cli_main([
            "--mode", "audit", "--poly", "X+Y+1", "--places", "0,1,inf",
            "--u=t^2", "--v=-2*t", "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "split_audit_complete"

    def test_quartic_mode(self, tmp_path):
        out = tmp_path / "quartic.json"
        code = cli_main(["--mode", "quartic", "--count", "4",
                         "--max-exponent", "3", "--seed", "2",
                         "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["family"]["z_bidegree"] == [1, 2]
        assert len(rep["sections"]) == 4

    def test_quartic_report_golden(self, tmp_path):
        # byte-exact report of the README's quartic command
        out = tmp_path / "quartic.json"
        code = cli_main(["--mode", "quartic", "--count", "25",
                         "--max-exponent", "6", "--seed", "2",
                         "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f9a043a488b9e53a248f9a58b337764d7330d95353b8ab838c0166bb09fab4fa")

    @pytest.mark.parametrize("argv, digest", [
        (["--mode", "verify", "--poly", "X+Y+1", "--count", "20",
          "--max-exponent", "25", "--seed", "7"],
         "354a6ff7e7d3f5b6cb74354f4a279d5d824ddd2637dbb0843fa66c536c3685bb"),
        (["--mode", "verify", "--poly", "X*Y-t", "--count", "20",
          "--max-exponent", "25", "--seed", "7"],
         "e1a39db6fa0021a40050bb7e53f9829252aed3c2c327015c560d6ac9a768bf40"),
        (["--mode", "verify", "--poly", "X^2*Y+X*Y^2-t*(X+Y)+1",
          "--count", "20", "--max-exponent", "25", "--seed", "7"],
         "8422af3bc85eb78f0aa56b23c5feab2ab064a8656113c8156635de4a4e51db64"),
        (["--mode", "audit", "--poly", "X+Y+1", "--places", "0,1,inf",
          "--u=t^2", "--v=-2*t"],
         "940e85567916384e103572cf4d53483afedac076052dc319c924f298b5de9f12"),
        # places no workload reaches: non-integer roots (content 1/L) and
        # an irreducible quadratic
        (["--mode", "verify", "--poly", "X*Y-t",
          "--places", "0,1/2,-3,t^2+1,inf", "--count", "20",
          "--max-exponent", "25", "--seed", "7"],
         "6ddc2ca829f7286e46a7792d3b9c0dfffe66e566e88e0d065a60e12abed77894"),
        (["--mode", "bm", "--terms", '["t", "1-t", "-1"]',
          "--places", "0,1,inf"],
         "4d7480a3e9a6e9a7a8da1fdbfc7f2268d82cdb41e19df6e80c1e2ccdf7d7caf2"),
    ], ids=["verify-linear", "verify-hyperbola", "verify-cubic",
            "readme-audit", "verify-wide-places", "readme-bm"])
    def test_report_golden(self, tmp_path, argv, digest):
        # byte-exact reports of the VERIFY_FIXTURES and the README examples
        out = tmp_path / "report.json"
        assert cli_main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_unitsum_op_golden(self):
        # one unit-sum op rendered as the benchmark's unitsum op renders it,
        # over places no workload reaches: non-integer roots and a quadratic
        S = PlaceSet(frozenset(parse_place(p)
                               for p in ("0", "1/2", "-3", "t^2+1", "inf")))
        vs = random_vanishing_sum(S, 5, 4, 4)
        out = {"terms": [render_ratfunc_expr(t) for t in vs.terms],
               "places": [str(p) for p in vs.place_set.sorted_places()],
               "check": check_bm(vs).to_json()}
        text = json.dumps(out, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3734ca0b38b92b3a2eaee7f6f83ce9394dcad7795331cf33cdaa95cc7d128082")

    def test_factors_flag(self, tmp_path):
        out = tmp_path / "factored.json"
        factors = ('[{"expr": "X+Y+1", "attested_irreducible": true},'
                   ' {"expr": "X*Y-t", "attested_irreducible": true}]')
        code = cli_main([
            "--mode", "verify", "--poly", "(X+Y+1)*(X*Y-t)",
            "--factors", factors, "--places", "0,1,inf",
            "--count", "5", "--max-exponent", "4", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["constants"]["factors"]) == 2
        assert len(report["constants"]["pairs"]) == 1

    def test_entry_point_runs(self):
        src = os.path.dirname(os.path.dirname(ffvojta.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "ffvojta.cli", "--mode", "constants",
             "--poly", "X+Y+1", "--epsilon", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert '"schema": "ffvojta-report/1"' in proc.stdout

    @pytest.mark.parametrize("poly", ["X+Y+1", "X^2*Y+X*Y^2-t*(X+Y)+1"])
    def test_verify_run_leaves_sympy_unloaded(self, tmp_path, poly):
        # over {0, 1, inf} no gcd falls back, nothing is factored and no
        # resultant is taken, so sympy, imported on first use, never loads
        src = os.path.dirname(os.path.dirname(ffvojta.__file__))
        argv = ["--mode", "verify", "--poly", poly, "--places", "0,1,inf",
                "--count", "40", "--max-exponent", "25", "--seed", "7",
                "--out", str(tmp_path / "run.json")]
        code = ("import sys\n"
                "from ffvojta.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "print('sympy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_cubed_resultant_audit_leaves_sympy_unloaded(self):
        # pair 57 of X^3+Y^3+t over {0, 1, inf} at max_exponent 2, seed 7:
        # its resultant is t^3 (9 Z^3 + 13 t - 7)^3, whose image at every
        # tau is a cube, so only the squarefree part of the image decides
        # the roots; the report is byte-identical to sympy's factorisation's
        src = os.path.dirname(os.path.dirname(ffvojta.__file__))
        code = ("import hashlib, json, sys\n"
                "from ffvojta.verify import (RunConfig, audit_steps,\n"
                "                            build_context, pair_for_index)\n"
                "cfg = RunConfig(poly='X^3+Y^3+t', places=('0', '1', 'inf'),\n"
                "                epsilon='1/2', max_exponent=2, seed=7,\n"
                "                mode='audit')\n"
                "rep = audit_steps(cfg, *pair_for_index(build_context(cfg), 57))\n"
                "print(hashlib.sha256(json.dumps(rep, indent=2).encode())"
                ".hexdigest())\n"
                "print('sympy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "90b71de2a93ed10ba5a55730582615a7b794126f18fa8093477dd9c0210c7783",
            "False"]

    def test_audit_run_leaves_sympy_unloaded(self, tmp_path):
        # the attestation's Kronecker certificate, the repeated-factor split
        # of t^2 and the lifted gcds decide everything in house: the 144
        # pairs of the cubic audit at max_exponent 2, seed 7, and two split
        # audits from the CLI
        src = os.path.dirname(os.path.dirname(ffvojta.__file__))
        audits = [["X+Y+1", "t^2/(t-1)", "2*(t-1)^3/t"],
                  ["X*Y-t", "t^3", "(t-1)^2/t^5"]]
        code = ("import json, sys\n"
                "from ffvojta.cli import main\n"
                "from ffvojta.verify import (RunConfig, audit_steps,\n"
                "                            build_context, pair_for_index)\n"
                f"cfg = RunConfig(poly={CUBIC!r}, places=('0', '1', 'inf'),\n"
                "                epsilon='1/2', max_exponent=2, seed=7,\n"
                "                mode='audit')\n"
                "ctx = build_context(cfg)\n"
                "for i in range(144):\n"
                "    rep = audit_steps(cfg, *pair_for_index(ctx, i))\n"
                "    assert rep['outcome'] == 'not_split', i\n"
                f"for k, (poly, u, v) in enumerate({audits!r}):\n"
                f"    out = {str(tmp_path)!r} + f'/audit{{k}}.json'\n"
                "    assert main(['--mode', 'audit', '--poly', poly,\n"
                "                 '--u', u, '--v', v, '--out', out]) == 0\n"
                "    with open(out, encoding='utf-8') as fh:\n"
                "        assert json.load(fh)['outcome'] == "
                "'split_audit_complete'\n"
                "print('sympy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_former_fallbacks_leave_sympy_unloaded(self):
        # every gcd, factorisation, root set, irreducibility certificate
        # and coprimality test is decided in house
        src = os.path.dirname(os.path.dirname(ffvojta.__file__))
        proc = subprocess.run([sys.executable, "-c", FORMER_FALLBACKS],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "pair-47", "False", "gcd-past-the-primes", "False",
            "factor-products-and-cyclotomics", "False",
            "roots-agreeing-at-the-lift-points", "False",
            "irreducibility-audit", "False", "dependence-transfer", "False"]
