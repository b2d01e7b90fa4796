"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is exact; the imported inequalities are checked in
exact rational arithmetic (cubed where a cube root appears), and the
trichotomy runs assert the absence of VIOLATION outcomes.
"""

import json
import random
import time
from fractions import Fraction

from ffvojta.bipoly import BiPoly, b_polynomial, evaluate
from ffvojta.constants import irred_ledger, pair_ledger
from ffvojta.counting import (
    check_cz_gcd_bound,
    check_zannier_bound,
    find_vanishing_subsum,
    trunc_count,
)
from ffvojta.field_core import (
    Place,
    Poly,
    RatFunc,
    choose_omega,
    height,
    poly_gcd,
)
from ffvojta.p2family import BiForm, log_canonical_bidegree, quartic_family
from ffvojta.sunits import (
    PlaceSet,
    as_ratfunc,
    euler_char,
    generate,
    mult_dependence,
)
from ffvojta.unitsum import VanishingSum, check_bm, random_vanishing_sum
from ffvojta.verify import RunConfig, build_report, verify_trichotomy
from conftest import (
    deriv_omega,
    log_derivative,
    oracle_trunc_count,
    rand_ratfunc,
    rat,
    unit_over,
)


P0 = Place.rational(0)
P1 = Place.rational(1)
S011 = PlaceSet.of(0, 1, "inf")


def _report(num: int, desc: str, elapsed: float, budget: float | None):
    budget_note = f" ({elapsed:.2f}s" + (f" < {budget:.0f}s)" if budget else ")")
    print(f"[criterion {num}] PASS: {desc}{budget_note}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_derivation_bounds():
    start = time.perf_counter()
    for spec in ((0, "inf"), (0, 1, "inf"), (0, 1, -1, "inf")):
        S = PlaceSet.of(*spec)
        w = choose_omega(S.places)
        chi = euler_char(S)
        for u in generate(S, 6, 1000, seed=2024):
            theta = log_derivative(u, w)
            if theta.is_zero:
                continue
            assert height(theta) <= chi
            # all poles simple: squarefree denominator
            assert poly_gcd(theta.den, theta.den.derivative()).degree == 0
    _report(1, "log-derivative heights within the Euler characteristic, "
               "poles simple (3 x 1000 units)",
            time.perf_counter() - start, 10)


def test_criterion_2_b_polynomial_identity():
    start = time.perf_counter()
    rng = random.Random(90125)
    w = choose_omega(S011.places)
    for trial in range(200):
        coeffs = {}
        for i in range(3):
            for j in range(3):
                if rng.random() < 0.5:
                    continue
                if rng.random() < 0.3:
                    coeffs[(i, j)] = rand_ratfunc(rng, 2)
                else:
                    coeffs[(i, j)] = RatFunc.const(rng.randint(-3, 3))
        A = BiPoly(coeffs)
        u = unit_over(S011, rng, 4)
        v = unit_over(S011, rng, 4)
        B = b_polynomial(A, u, v, w)
        U, V = as_ratfunc(u), as_ratfunc(v)
        assert deriv_omega(evaluate(A, U, V), w) == evaluate(B, U, V)
    _report(2, "derivative companion identity exact on 200 random triples",
            time.perf_counter() - start, 10)


def test_criterion_3_trunc_count_oracle():
    start = time.perf_counter()
    # the worked fixture: X+Y+1 at (t^2, -2t) gives (t-1)^2, count 1
    S01 = PlaceSet.of(0, "inf")
    fixture = evaluate(BiPoly({(1, 0): 1, (0, 1): 1, (0, 0): 1}),
                       rat("t^2"), rat("-2*t"))
    assert fixture == rat("(t-1)^2")
    assert trunc_count(fixture, S01) == 1 == \
        oracle_trunc_count(fixture, S01)

    rng = random.Random(555)
    for trial in range(500):
        f = Poly.const(Fraction(rng.choice((1, 2, 3, -2))))
        for _ in range(rng.randint(1, 3)):
            base = Poly([rng.randint(-3, 3)
                         for _ in range(rng.randint(1, 3))] + [1])
            f = f * base ** rng.randint(1, 4)
        func = RatFunc(f) * as_ratfunc(unit_over(S011, rng, 3))
        assert trunc_count(func, S011) == oracle_trunc_count(func, S011)
    _report(3, "truncated count equals the factorization oracle on 500 "
               "instances plus the fixture",
            time.perf_counter() - start, 30)


CRIT4_CONFIGS = (
    RunConfig(poly="X+Y+1", places=("0", "1", "inf"), epsilon="1/2",
              count=1000, max_exponent=25, seed=7),
    RunConfig(poly="X*Y-t", places=("0", "1", "inf"), epsilon="1/2",
              count=1000, max_exponent=25, seed=7),
)

_crit4_reports: dict[str, bytes] = {}


def _report_bytes(cfg: RunConfig, workers: int = 1) -> bytes:
    outcomes = verify_trichotomy(cfg, workers=workers)
    return (json.dumps(build_report(cfg, outcomes), indent=2) + "\n").encode()


def test_criterion_4_trichotomy():
    start = time.perf_counter()
    for cfg in CRIT4_CONFIGS:
        data = _report_bytes(cfg, workers=1)
        _crit4_reports[cfg.poly] = data
        report = json.loads(data)
        assert report["summary"]["violation"] == 0
        assert report["summary"]["pairs"] == 1000
        for outcome in report["outcomes"]:
            assert outcome["kind"] in ("below_threshold", "relation",
                                       "bound_holds", "degenerate_on_z")
            if outcome["kind"] == "relation":
                r, s = outcome["r"], outcome["s"]
                assert max(abs(r), abs(s)) <= \
                    Fraction(report["constants"]["theta2"])
    _report(4, "trichotomy holds with zero VIOLATION over 2 x 1000 pairs",
            time.perf_counter() - start, 60)


def test_criterion_5_constants_golden_values():
    start = time.perf_counter()
    led = irred_ledger(1, 1, 1, Fraction(1, 2))
    assert (led.c3, led.c4, led.c5, led.c6, led.c_v) == (14, 2, 118, 228, 2916)
    pled = pair_ledger(1, 1, 0, 0, Fraction(1, 2))
    assert (pled.d3, pled.d4, pled.d5, pled.d6) == (0, 4, 12, 8)
    _report(5, "constant ledgers match the golden values exactly",
            time.perf_counter() - start, 1)


def test_criterion_6_unit_sum_bound():
    start = time.perf_counter()
    fixture = VanishingSum.build([rat("t"), rat("1-t"), rat("-1")], S011)
    result = check_bm(fixture)
    assert result.lhs == 1 and result.rhs == 3 and result.holds

    for seed in range(500):
        n = 3 + seed % 3
        vs = random_vanishing_sum(S011, n, 3, seed)
        assert check_bm(vs).holds
    _report(6, "unit-sum height bound holds on the fixture and 500 "
               "constructed sums (n in 3..5)",
            time.perf_counter() - start, 30)


def test_criterion_7_gcd_and_sum_checkers():
    start = time.perf_counter()
    rng = random.Random(7777)
    done = 0
    while done < 500:
        q1 = unit_over(S011, rng, 4)
        if rng.random() < 0.4:
            k = rng.randint(1, 3)
            q2 = q1 ** k
            q2 = type(q2).make(q2.constant * rng.choice((1, 2, -1)),
                               dict(q2.exponents), S011)
        else:
            q2 = unit_over(S011, rng, 4)
        if q1.is_constant or q2.is_constant:
            continue
        alpha = as_ratfunc(unit_over(S011, rng, 2))
        beta = as_ratfunc(unit_over(S011, rng, 2))
        dep = mult_dependence(q1, q2)
        chk = check_cz_gcd_bound(as_ratfunc(q1) * alpha, alpha,
                                 as_ratfunc(q2) * beta, beta, S011, dep)
        assert chk.holds
        done += 1

    done = 0
    while done < 500:
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
    _report(7, "gcd bound and unit-sum lower bound hold on 500 instances "
               "each, cube comparisons exact",
            time.perf_counter() - start, 30)


def test_criterion_8_quartic_fixture():
    start = time.perf_counter()
    fam = quartic_family()
    assert fam.jacobian == BiForm.monomial(e0=1, e1=1, e2=1, f0=6, c=8)
    assert log_canonical_bidegree(4, 4).as_tuple() == (1, 2)
    assert fam.z_bidegree.as_tuple() == (1, 2)
    _report(8, "Jacobian of the quartic pencil and the log-canonical "
               "bidegree match exactly",
            time.perf_counter() - start, 5)


def test_criterion_9_worker_determinism():
    start = time.perf_counter()
    for cfg in CRIT4_CONFIGS:
        base = _crit4_reports.get(cfg.poly) or _report_bytes(cfg, workers=1)
        parallel = _report_bytes(cfg, workers=8)
        assert parallel == base
    _report(9, "reports byte-identical under 1 and 8 workers",
            time.perf_counter() - start, None)
