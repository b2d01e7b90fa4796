"""Batch verification of the height/relation/zero-count trichotomy.

Every generated unit pair must land in one of three buckets: height below
the ledger threshold, a short multiplicative relation, or a truncated zero
count within epsilon times the height.  A pair in none of them is a
VIOLATION and fails the run.  `classify` is the one place that decides
the bucket; the verify outcomes and the quartic mode's sections are both
rendered from its record.  Outcomes are computed per index from the seed
alone, so any worker partition yields byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bipoly import (
    BiPoly,
    b_polynomial,
    evaluate,
    poly_height,
    rational_roots,
    resultant_x,
    resultant_y,
    specialization_irreducibility_audit,
    torus_derivative,
    vanishes_at,
)
from .constants import ThetaLedger, theta_ledger
from .counting import BoundCheck, strip_set_factors, trunc_count
from .field_core import (
    OmegaForm,
    RatFunc,
    choose_omega,
    factor_poly,
    ord_at,
    Place,
)
from .parser import parse_bipoly, parse_place, render_ratfunc_expr
from .sunits import (
    DependenceResult,
    PlaceSet,
    SUnit,
    _unit_at_index,
    as_ratfunc,
    enlarge_for_coefficients,
    euler_char,
    mult_dependence,
    render_unit,
)

REPORT_SCHEMA = "ffvojta-report/1"

# polynomials exercised by the shipped verification suite
VERIFY_FIXTURES = {
    "linear": "X+Y+1",
    "hyperbola": "X*Y-t",
    "cubic": "X^2*Y+X*Y^2-t*(X+Y)+1",
}


class NotIrreducibleAttested(ValueError):
    """Raised when an audit is requested for an unattested factor."""


@dataclass(frozen=True)
class RunConfig:
    """Serializable description of one verification run."""

    poly: str
    places: tuple[str, ...]
    epsilon: str = "1/2"
    count: int = 100
    max_exponent: int = 10
    seed: int = 0
    mode: str = "verify"
    factors: tuple[tuple[str, bool], ...] = ()

    def factor_list(self) -> tuple[tuple[str, bool], ...]:
        if self.factors:
            return self.factors
        return ((self.poly, True),)

    def to_json(self) -> dict:
        return {
            "poly": self.poly,
            "factors": [{"expr": e, "attested_irreducible": a}
                        for e, a in self.factor_list()],
            "places": list(self.places),
            "epsilon": self.epsilon,
            "count": self.count,
            "max_exponent": self.max_exponent,
            "seed": self.seed,
            "mode": self.mode,
        }


@dataclass
class _Context:
    """Parsed form of a RunConfig, built once per process."""

    A: BiPoly
    factors: list[BiPoly]
    S: PlaceSet
    eps: Fraction
    ledger: ThetaLedger
    cfg: RunConfig


def build_context(cfg: RunConfig) -> _Context:
    if cfg.count < 0:
        raise ValueError("count must be nonnegative")
    if cfg.max_exponent < 1:
        raise ValueError("max_exponent must be at least 1")
    A = parse_bipoly(cfg.poly)
    factors = [A]
    if cfg.factors:
        factors = [parse_bipoly(expr) for expr, _ in cfg.factors]
        product = BiPoly.const(1)
        for f in factors:
            product = product * f
        if product != A:
            raise ValueError(
                "the factor list does not multiply back to the polynomial")
    S = PlaceSet(frozenset(parse_place(p) for p in cfg.places))
    eps = Fraction(cfg.epsilon)
    ledger = _ledger(factors, eps)
    return _Context(A=A, factors=factors, S=S, eps=eps, ledger=ledger, cfg=cfg)


def _ledger(factors: list[BiPoly], eps: Fraction) -> ThetaLedger:
    """The constant ledger of the parsed factors of a config and its epsilon."""
    shapes = [(f.deg_x, f.deg_y, poly_height(f)) for f in factors]
    return theta_ledger(shapes, eps)


def pair_for_index(ctx: _Context, index: int) -> tuple[SUnit, SUnit]:
    # units 2i and 2i+1 of the seeded stream form pair i
    base = 2 * index
    u = _unit_at_index(ctx.S, ctx.cfg.max_exponent, ctx.cfg.seed, base)
    v = _unit_at_index(ctx.S, ctx.cfg.max_exponent, ctx.cfg.seed, base + 1)
    return u, v


def _common_zeros(A: BiPoly, B: BiPoly, roots_f: list[RatFunc],
                  roots_g: list[RatFunc]
                  ) -> tuple[list[tuple[RatFunc, RatFunc]], list[RatFunc]]:
    """A and B evaluated once at each pair (alpha, beta) of distinct roots,
    alpha of F and beta of G, each in the order of its first occurrence in
    roots_f and roots_g.  Returns the common zeros, the pairs with
    alpha beta != 0 at which both values vanish, and the nonzero values."""
    zeros, values = [], []
    for alpha in dict.fromkeys(roots_f):
        for beta in dict.fromkeys(roots_g):
            a_ab, b_ab = evaluate(A, alpha, beta), evaluate(B, alpha, beta)
            values += [val for val in (a_ab, b_ab) if not val.is_zero]
            if (a_ab.is_zero and b_ab.is_zero
                    and not (alpha.is_zero or beta.is_zero)):
                zeros.append((alpha, beta))
    return zeros, values


def gamma_candidate_membership(A: BiPoly, r: int, s: int,
                               gamma: RatFunc) -> dict:
    """Informational check that gamma sits in the finite candidate set cut
    out by A and its torus derivative along (r, s).

    The candidates are the values c * alpha^r beta^s at rational common
    zeros (alpha, beta) with alpha beta != 0; membership means gamma is a
    constant multiple of one of them.  Only decidable when the resultant
    roots all lie in the field ("checked" reports this).  When the twist
    is zero or A's support lies on one (r, s) line, there are no common
    zeros to compare gamma with, and nothing is checked.
    """
    unchecked = {"checked": False, "member": None, "candidates": 0}
    offsets = {s * i - r * j for (i, j) in A.coeffs}
    if len(offsets) == 1:
        # the twist is zero, or a constant multiple of A
        return unchecked
    # twist's support lies inside A's, so neither resultant meets a
    # variable that A lacks and twist involves
    twist = torus_derivative(A, r, s)
    F = resultant_y(A, twist)
    G = resultant_x(A, twist)
    if F.is_zero or G.is_zero:
        return unchecked
    roots_f, complete_f = rational_roots(F)
    roots_g, complete_g = rational_roots(G)
    zeros, _ = _common_zeros(A, twist, roots_f, roots_g)
    member = any((gamma / (alpha ** r * beta ** s)).is_constant
                 for alpha, beta in zeros)
    return {"checked": complete_f and complete_g, "member": member,
            "candidates": len(zeros)}


@dataclass(frozen=True)
class Classification:
    """Where one unit pair landed in the trichotomy.

    u and v are the units as generated, never expanded here: a record is
    rendered from their exponents (`sunits.render_unit`).  `height` is None
    only on the zero locus, `dependence` is set once the relation step
    ran, and `count` (the truncated count against eps times the height)
    only for bound_holds and violation.
    """

    u: SUnit
    v: SUnit
    kind: str
    height: int | None
    dependence: DependenceResult | None
    count: BoundCheck | None


def classify(A: BiPoly, S: PlaceSet, u: SUnit, v: SUnit, theta1: Fraction,
             theta2: Fraction, eps: Fraction) -> Classification:
    """Place the pair (u, v) in the trichotomy for A over S.

    The steps run in this order and stop at the first that decides:
    A(u, v) = 0 is degenerate_on_z; a height below theta1 * max(1, chi(S))
    is below_threshold; a multiplicative relation with both exponents at
    most theta2 is a relation; otherwise the truncated zero count is
    compared with eps times the height (bound_holds or violation).

    The zero test and the height read the units' exponents: A(u, v) != 0
    is certified first by a term of strictly least order at a place of
    the units or at infinity, then by an image mod p, and only then by the
    exact value (`bipoly.vanishes_at`).  The threshold is compared on
    integers.  Only the count expands the units, to evaluate A on them.
    """
    if vanishes_at(A, u, v):
        return Classification(u, v, "degenerate_on_z", None, None, None)
    h = max(u.height, v.height)
    if h * theta1.denominator < theta1.numerator * max(1, euler_char(S)):
        return Classification(u, v, "below_threshold", h, None, None)
    dep = mult_dependence(u, v)
    if dep.dependent and max(abs(dep.r), abs(dep.s)) <= theta2:
        return Classification(u, v, "relation", h, dep, None)
    lhs = trunc_count(evaluate(A, as_ratfunc(u), as_ratfunc(v)), S).total
    rhs = eps * h
    count = BoundCheck(lhs, lhs <= rhs, rhs=rhs)
    kind = "bound_holds" if count.holds else "violation"
    return Classification(u, v, kind, h, dep, count)


def outcome_json(A: BiPoly, index: int, c: Classification) -> dict:
    """The verify outcome of pair `index`, keys in report order."""
    out: dict = {"pair_index": index,
                 "u": render_unit(c.u),
                 "v": render_unit(c.v)}
    if c.height is not None:
        out["height"] = c.height
    if c.count is not None:
        out["lhs"] = c.count.lhs
        out["rhs"] = str(c.count.rhs)
    out["kind"] = c.kind
    if c.kind == "relation":
        dep = c.dependence
        out["r"] = dep.r
        out["s"] = dep.s
        out["gamma"] = render_ratfunc_expr(dep.gamma)
        out["gamma_candidates"] = gamma_candidate_membership(
            A, dep.r, dep.s, dep.gamma)
    return out


def pair_outcome(ctx: _Context, index: int) -> dict:
    """Classify one generated pair; returns a JSON-ready outcome."""
    u, v = pair_for_index(ctx, index)
    c = classify(ctx.A, ctx.S, u, v, ctx.ledger.theta1, ctx.ledger.theta2,
                 ctx.eps)
    return outcome_json(ctx.A, index, c)


_WORKER_CTX: _Context | None = None


def _init_worker(cfg: RunConfig) -> None:
    global _WORKER_CTX
    _WORKER_CTX = build_context(cfg)


def _worker_pair(index: int) -> dict:
    return pair_outcome(_WORKER_CTX, index)


def verify_trichotomy(cfg: RunConfig, workers: int = 1) -> list[dict]:
    """Run the trichotomy over cfg.count seeded pairs.

    The pairs go to a pool of min(workers, cfg.count) processes when that
    is above 1; the outcome list is ordered by pair index either way.
    """
    workers = min(workers, cfg.count)
    if workers <= 1:
        ctx = build_context(cfg)
        return [pair_outcome(ctx, i) for i in range(cfg.count)]
    # imported on first use: a single-process run never loads the
    # multiprocessing modules (about 2.5 MB resident on CPython 3.11)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(cfg,)) as pool:
        outcomes = list(pool.map(_worker_pair, range(cfg.count),
                                 chunksize=max(1, cfg.count // (4 * workers))))
    outcomes.sort(key=lambda o: o["pair_index"])
    return outcomes


OUTCOME_KINDS = ("below_threshold", "relation", "bound_holds",
                 "degenerate_on_z", "violation")


def build_report(cfg: RunConfig, outcomes: list[dict]) -> dict:
    """The report of a run of cfg with these outcomes.

    cfg is trusted to be one that `build_context` accepted, as the cfg of a
    run is: only its factors and epsilon are parsed again, for the ledger,
    and its counts, places and factor product are not checked."""
    counted = [o for o in outcomes if o["kind"] != "degenerate_on_z"]
    factors = [parse_bipoly(expr) for expr, _ in cfg.factor_list()]
    ledger = _ledger(factors, Fraction(cfg.epsilon))
    summary = {"pairs": len(outcomes), "counted": len(counted)}
    for kind in OUTCOME_KINDS:
        summary[kind] = sum(1 for o in outcomes if o["kind"] == kind)
    return {
        "schema": REPORT_SCHEMA,
        "config": cfg.to_json(),
        "constants": ledger.to_json(),
        "summary": summary,
        "outcomes": outcomes,
    }


def emit_report(report: dict, path: str) -> None:
    """Write a report as canonical JSON: stable field order, exact rationals
    rendered as `p/q` strings."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Stepwise audit of one pair (split case)
# ---------------------------------------------------------------------------

def _companion_places(S_a: PlaceSet, B: BiPoly, u: SUnit,
                      v: SUnit) -> PlaceSet:
    """S', the place set S_a enlarged by the zeros and poles of the
    coefficients of the companion B = `b_polynomial(A, u, v, w)`: the set
    `enlarge_for_coefficients(S_a, B.coeffs.values())` builds, with only
    the numerators factored, when S_a is A's enlarged set from
    `_audit_setting` and u's and v's places lie in it.

    A coefficient of B is reduced over b^2 * D, b the denominator of A's
    coefficient and D the product of the places of u and v, so each of its
    finite poles is a place of b or of D.  The places of b are poles of a
    coefficient of A, which lie in S_a by its construction, and those of D
    lie in S_a when u's and v's places do.  So S' is S_a with the zeros of
    the numerators, and with infinity when some nonconstant coefficient has
    numerator and denominator of different degrees.  When u's or v's places
    leave S_a, every coefficient is enlarged by in full.
    """
    if not all(p in S_a.places for p, _ in u.exponents + v.exponents):
        return enlarge_for_coefficients(S_a, list(B.coeffs.values()))
    places = set(S_a.places)
    for c in B.coeffs.values():
        if c.is_constant:
            continue
        places.update(Place._trusted(q) for q, _ in factor_poly(c.num))
        if c.num.degree != c.den.degree:
            places.add(Place.infinity())
    return PlaceSet(frozenset(places))


@lru_cache(maxsize=64)
def _audit_setting(expr: str, places: tuple[str, ...],
                   seed: int) -> tuple[BiPoly, PlaceSet, PlaceSet, OmegaForm]:
    """The part of an audit that no pair changes, built once per (expr,
    places, seed): the attested factor A, parsed and passed through the
    specialisation audit with `seed`; the place set S; S_a, which is S
    enlarged so that A's coefficients are units; and the form w that
    `choose_omega` picks on S_a.  Returned as (A, S, S_a, w).  A call that
    raises is not cached, so it raises again on every call."""
    A = parse_bipoly(expr)
    if A.deg_x == 0 or A.deg_y == 0:
        raise ValueError("the audit needs a polynomial in both variables")
    if not specialization_irreducibility_audit(A, seed=seed):
        raise NotIrreducibleAttested(
            f"specialization audit could not support irreducibility of {expr!r}")
    S = PlaceSet(frozenset(parse_place(p) for p in places))
    S_a = enlarge_for_coefficients(S, list(A.coeffs.values()))
    return A, S, S_a, choose_omega(S_a.places)


def _s_prime_step(S: PlaceSet, S_a: PlaceSet, S_prime: PlaceSet) -> dict:
    """The sizes of S, S_a and S' (`_companion_places`)."""
    chi_term = max(1, euler_char(S))
    return {
        "base_size": S.geometric_size,
        "coefficient_enlarged_size": S_a.geometric_size,
        "size": S_prime.geometric_size,
        # reported, never asserted: the stated cardinality bound for the
        # enlarged set does not visibly include the base size
        "stated_bound": chi_term,
        "stated_bound_holds": S_prime.geometric_size <= chi_term,
    }


def _step1(A: BiPoly, F: BiPoly, u: SUnit, v: SUnit) -> dict:
    """Step 1, read off F = Res_Y(A, B): A and B are coprime, or the pair
    satisfies a short relation read off A's two least monomials.

    A is irreducible over Q(t) and involves both variables
    (`_audit_setting`), and B's support lies inside A's, so F vanishes
    exactly when B = c * A for some c in Q(t), or B = 0.  Otherwise A and
    B are coprime, and G = Res_X(A, B) is nonzero too."""
    if not F.is_zero:
        return {"coprime": True}
    (i, j), (hh, kk) = sorted(A.coeffs)[:2]
    r, s = i - hh, j - kk
    if r < 0 or (r == 0 and s < 0):
        r, s, (i, j), (hh, kk) = -r, -s, (hh, kk), (i, j)
    gamma = as_ratfunc(u) ** r * as_ratfunc(v) ** s
    mu = gamma / (A.coeff(hh, kk) / A.coeff(i, j))
    return {"coprime": False,
            "relation": {"r": r, "s": s, "gamma": render_ratfunc_expr(gamma),
                         "mu_constant": mu.is_constant}}


def _step2(A: BiPoly, F: BiPoly, G: BiPoly, S_prime: PlaceSet) -> dict:
    """Step 2: the resultants' degree and height bounds."""
    c4 = 2 * A.deg_x * A.deg_y
    scale = 3 * max(1, euler_char(S_prime)) + poly_height(A)
    bound_f, bound_g = 2 * A.deg_y * scale, 2 * A.deg_x * scale
    hf, hg = poly_height(F), poly_height(G)
    return {
        "deg_f": F.deg_x, "deg_g": G.deg_y, "deg_bound": c4,
        "h_f": hf, "h_g": hg,
        "h_bound_f": bound_f, "h_bound_g": bound_g,
        "holds": (F.deg_x <= c4 and G.deg_y <= c4
                  and hf <= bound_f and hg <= bound_g),
    }


def _step3(roots_f: list[RatFunc], roots_g: list[RatFunc], complete_f: bool,
           complete_g: bool) -> dict:
    """Step 3: the resultants' rational roots; the split case requires
    every root to lie in Q(t)."""
    return {"roots_f": [render_ratfunc_expr(r) for r in roots_f],
            "roots_g": [render_ratfunc_expr(r) for r in roots_g],
            "complete_f": complete_f, "complete_g": complete_g}


def _step4(A: BiPoly, B: BiPoly, F: BiPoly, G: BiPoly, S_prime: PlaceSet,
           roots_f: list[RatFunc], roots_g: list[RatFunc], u: SUnit,
           v: SUnit) -> dict:
    """Step 4: the common-zero set Z and the place set V, then the
    pointwise inequality at every zero of A(U, V) outside V.

    Z and the nonzero values of A and B at the root pairs come from one
    evaluation (`_common_zeros`); V is S' with the zeros and poles of
    those values and of F's and G's nonzero end coefficients (F's constant
    term is 0 when X divides F)."""
    zset, values = _common_zeros(A, B, roots_f, roots_g)
    ends = (F.coeff(0, 0), F.coeff(F.deg_x, 0),
            G.coeff(0, 0), G.coeff(0, G.deg_y))
    V_set = enlarge_for_coefficients(
        S_prime, [c for c in ends if not c.is_zero] + values)
    U, V = as_ratfunc(u), as_ratfunc(v)
    a_val, b_val = evaluate(A, U, V), evaluate(B, U, V)
    checks = []
    if not a_val.is_zero and not b_val.is_zero:
        outside = strip_set_factors(a_val.num, V_set)
        zero_places = [Place._trusted(q) for q, _ in factor_poly(outside)]
        if not V_set.has_infinity and a_val.den.degree > a_val.num.degree:
            zero_places.append(Place.infinity())
        for p in zero_places:
            lhs = min(ord_at(a_val, p), ord_at(b_val, p))
            rhs = sum(
                min(ord_at(U - alpha, p) if U != alpha else 10 ** 9,
                    ord_at(V - beta, p) if V != beta else 10 ** 9)
                for alpha, beta in zset)
            check = BoundCheck(lhs, lhs <= rhs, rhs=rhs)
            checks.append({"place": str(p), **check.to_json()})
    return {"v_geometric_size": V_set.geometric_size, "z_pairs": len(zset),
            "checks": checks, "holds": all(row["holds"] for row in checks)}


def audit_steps(cfg: RunConfig, u: SUnit, v: SUnit) -> dict:
    """Audit the resultant construction for a single attested-irreducible
    polynomial at one unit pair, in the split case.

    A driver over the step functions, each of which returns its section of
    the report: S' (`_s_prime_step`); step 1, whether A and its derivative
    companion B are coprime, read off F = Res_Y(A, B); step 2, the degree
    and height bounds of F and G = Res_X(A, B); step 3, their rational
    roots; and, when both split over Q(t), step 4, the pointwise
    common-zero inequality outside the assembled place set V.  Reports are
    labeled split-case only.

    Each polynomial is cleared of denominators once: A once per config
    (it is the one instance `_audit_setting` keeps), B once for both
    resultants, and each resultant arrives with its cleared form, which
    `rational_roots` reads.
    """
    exprs = cfg.factor_list()
    if len(exprs) != 1:
        raise ValueError("the stepwise audit takes a single irreducible factor")
    expr, attested = exprs[0]
    if not attested:
        raise NotIrreducibleAttested(f"factor {expr!r} is not attested irreducible")
    A, S, S_a, w = _audit_setting(expr, tuple(cfg.places), cfg.seed)
    report: dict = {"mode": "audit", "split_case_only": True, "poly": expr,
                    "u": render_unit(u), "v": render_unit(v)}
    B = b_polynomial(A, u, v, w)
    S_prime = _companion_places(S_a, B, u, v)
    report["s_prime"] = _s_prime_step(S, S_a, S_prime)
    F = resultant_y(A, B)
    report["step1"] = _step1(A, F, u, v)
    if F.is_zero:
        return report
    G = resultant_x(A, B)
    report["step2"] = _step2(A, F, G, S_prime)
    roots_f, complete_f = rational_roots(F)
    roots_g, complete_g = rational_roots(G)
    report["step3"] = _step3(roots_f, roots_g, complete_f, complete_g)
    if not (complete_f and complete_g):
        report["outcome"] = "not_split"
        return report
    report["step4"] = _step4(A, B, F, G, S_prime, roots_f, roots_g, u, v)
    report["outcome"] = "split_audit_complete"
    return report
