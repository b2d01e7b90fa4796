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
from .counting import strip_set_factors, trunc_count
from .field_core import (
    OmegaForm,
    RatFunc,
    choose_omega,
    divisor_of,
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
                  roots_g: list[RatFunc]) -> list[tuple[RatFunc, RatFunc]]:
    """The pairs (alpha, beta) of nonzero roots, alpha of F and beta of G,
    at which A and B both vanish, without repeats: alpha and beta each in
    the order of their first occurrence in roots_f and roots_g."""
    return [(alpha, beta) for alpha in dict.fromkeys(roots_f)
            for beta in dict.fromkeys(roots_g)
            if not (alpha.is_zero or beta.is_zero)
            and vanishes_at(A, alpha, beta) and vanishes_at(B, alpha, beta)]


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
    zeros = _common_zeros(A, twist, roots_f, roots_g)
    member = any((gamma / (alpha ** r * beta ** s)).is_constant
                 for alpha, beta in zeros)
    return {"checked": complete_f and complete_g, "member": member,
            "candidates": len(zeros)}


@dataclass(frozen=True)
class Classification:
    """Where one unit pair landed in the trichotomy.

    U and V are the expanded units.  `height` is None only on the zero
    locus, `dependence` is set once the relation step ran, and `lhs`/`rhs`
    (truncated count, eps times height) only for bound_holds and violation.
    """

    U: RatFunc
    V: RatFunc
    kind: str
    height: int | None
    dependence: DependenceResult | None
    lhs: int | None
    rhs: Fraction | None


def classify(A: BiPoly, S: PlaceSet, u: SUnit, v: SUnit, theta1: Fraction,
             theta2: Fraction, eps: Fraction) -> Classification:
    """Place the pair (u, v) in the trichotomy for A over S.

    The steps run in this order and stop at the first that decides:
    A(U, V) = 0 is degenerate_on_z; a height below theta1 * max(1, chi(S))
    is below_threshold; a multiplicative relation with both exponents at
    most theta2 is a relation; otherwise the truncated zero count is
    compared with eps times the height (bound_holds or violation).

    The zero test and the height read the units' exponents: A(u, v) != 0
    is certified first by a term of strictly least order at a place of
    the units or at infinity, then by an image mod p, and only then by the
    exact value (`bipoly.vanishes_at`).  The threshold is compared on
    integers; the units are expanded for the record, and the count
    evaluates A on the expansions.
    """
    degenerate = vanishes_at(A, u, v)
    U, V = as_ratfunc(u), as_ratfunc(v)
    if degenerate:
        return Classification(U, V, "degenerate_on_z", None, None, None, None)
    h = max(u.height, v.height)
    if h * theta1.denominator < theta1.numerator * max(1, euler_char(S)):
        return Classification(U, V, "below_threshold", h, None, None, None)
    dep = mult_dependence(u, v)
    if dep.dependent and max(abs(dep.r), abs(dep.s)) <= theta2:
        return Classification(U, V, "relation", h, dep, None, None)
    lhs = trunc_count(evaluate(A, U, V), S).total
    rhs = eps * h
    kind = "bound_holds" if lhs <= rhs else "violation"
    return Classification(U, V, kind, h, dep, lhs, rhs)


def outcome_json(A: BiPoly, index: int, c: Classification) -> dict:
    """The verify outcome of pair `index`, keys in report order."""
    out: dict = {"pair_index": index,
                 "u": render_ratfunc_expr(c.U),
                 "v": render_ratfunc_expr(c.V)}
    if c.height is not None:
        out["height"] = c.height
    if c.lhs is not None:
        out["lhs"] = c.lhs
        out["rhs"] = str(c.rhs)
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

    With workers > 1 the pairs are distributed over a process pool; the
    outcome list is ordered by pair index either way.
    """
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

def _support_places(f: RatFunc) -> set:
    if f.is_zero or f.is_constant:
        return set()
    return set(divisor_of(f))


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


def audit_steps(cfg: RunConfig, u: SUnit, v: SUnit) -> dict:
    """Audit the resultant construction for a single attested-irreducible
    polynomial at one unit pair, in the split case.

    Builds the derivative companion B and the two resultants, checks the
    degree and height bounds, extracts rational roots, and when both
    resultants split over Q(t) verifies the pointwise common-zero
    inequality outside the assembled place set V.  Reports are labeled
    split-case only.

    Each polynomial is cleared of denominators once: A once per config
    (it is the one instance `_audit_setting` keeps), B once for both
    resultants, and each resultant arrives with its cleared form, which
    `rational_roots` reads.  S' is S_a with the zeros of the numerators of
    B's coefficients (and infinity when one of them has a zero or pole
    there), since every finite pole of such a coefficient is a place of
    b^2 * D and so already in S_a (`_companion_places` gives the proof).
    """
    exprs = cfg.factor_list()
    if len(exprs) != 1:
        raise ValueError("the stepwise audit takes a single irreducible factor")
    expr, attested = exprs[0]
    if not attested:
        raise NotIrreducibleAttested(f"factor {expr!r} is not attested irreducible")
    A, S, S_a, w = _audit_setting(expr, tuple(cfg.places), cfg.seed)
    U_f, V_f = as_ratfunc(u), as_ratfunc(v)
    report: dict = {"mode": "audit", "split_case_only": True,
                    "poly": expr,
                    "u": render_ratfunc_expr(U_f),
                    "v": render_ratfunc_expr(V_f)}

    B = b_polynomial(A, u, v, w)
    S_prime = _companion_places(S_a, B, u, v)
    chi_term = max(1, euler_char(S))
    s2_value = S_prime.geometric_size
    report["s_prime"] = {
        "base_size": S.geometric_size,
        "coefficient_enlarged_size": S_a.geometric_size,
        "size": s2_value,
        # reported, never asserted: the stated cardinality bound for the
        # enlarged set does not visibly include the base size
        "stated_bound": chi_term,
        "stated_bound_holds": s2_value <= chi_term,
    }

    # Step 1: either A and B are coprime or the pair already satisfies a
    # short relation read off two monomials.
    step1: dict = {}
    proportional = False
    if B.is_zero:
        proportional = True
    elif all(ij in A.coeffs for ij in B.coeffs):
        base_ij = next(iter(sorted(A.coeffs)))
        a_ratio = B.coeff(*base_ij) / A.coeff(*base_ij)
        proportional = all(B.coeff(i, j) == A.coeff(i, j) * a_ratio
                           for (i, j) in A.coeffs)
    if proportional:
        monos = sorted(A.coeffs)
        (i, j), (hh, kk) = monos[0], monos[1]
        r, s = i - hh, j - kk
        if r < 0 or (r == 0 and s < 0):
            r, s, (i, j), (hh, kk) = -r, -s, (hh, kk), (i, j)
        gamma = U_f ** r * V_f ** s
        lam_ratio = A.coeff(hh, kk) / A.coeff(i, j)
        mu = gamma / lam_ratio
        step1 = {
            "coprime": False,
            "relation": {"r": r, "s": s,
                         "gamma": render_ratfunc_expr(gamma),
                         "mu_constant": mu.is_constant},
        }
        report["step1"] = step1
        return report
    # B's support lies inside A's and A involves both variables, so a
    # shared factor involving Y makes F vanish and one involving X makes G
    # vanish: A and B are coprime exactly when both resultants are nonzero.
    F = resultant_y(A, B)
    G = resultant_x(A, B)
    coprime = not (F.is_zero or G.is_zero)
    report["step1"] = {"coprime": coprime}
    if not coprime:
        raise NotIrreducibleAttested(
            "A shares a nonconstant factor with its companion but is not "
            "proportional to it; the attestation is suspect")

    # Step 2: the resultants' degree and height bounds.
    c4 = 2 * A.deg_x * A.deg_y
    h_a = poly_height(A)
    chi_sp = max(1, euler_char(S_prime))
    bound_f = 2 * A.deg_y * (3 * chi_sp + h_a)
    bound_g = 2 * A.deg_x * (3 * chi_sp + h_a)
    hf = poly_height(F)
    hg = poly_height(G)
    report["step2"] = {
        "deg_f": F.deg_x, "deg_g": G.deg_y, "deg_bound": c4,
        "h_f": hf, "h_g": hg,
        "h_bound_f": bound_f, "h_bound_g": bound_g,
        "holds": (F.deg_x <= c4 and G.deg_y <= c4
                  and hf <= bound_f and hg <= bound_g),
    }

    # Step 3: the split case requires every root to lie in Q(t).
    roots_f, complete_f = rational_roots(F)
    roots_g, complete_g = rational_roots(G)
    report["step3"] = {
        "roots_f": [render_ratfunc_expr(r) for r in roots_f],
        "roots_g": [render_ratfunc_expr(r) for r in roots_g],
        "complete_f": complete_f, "complete_g": complete_g,
    }
    if not (complete_f and complete_g):
        report["outcome"] = "not_split"
        return report

    # Step 4: assemble the common-zero set and the place set V, then check
    # the pointwise inequality at every zero of A(u, v) outside V.
    zset = _common_zeros(A, B, roots_f, roots_g)
    places = set(S_prime.places)
    for c in (F.coeff(0, 0), F.coeff(F.deg_x, 0),
              G.coeff(0, 0), G.coeff(0, G.deg_y)):
        places |= _support_places(c)
    for alpha in dict.fromkeys(roots_f):
        for beta in dict.fromkeys(roots_g):
            for val in (evaluate(A, alpha, beta), evaluate(B, alpha, beta)):
                if not val.is_zero:
                    places |= _support_places(val)
    V = PlaceSet(frozenset(places))

    a_val = evaluate(A, U_f, V_f)
    b_val = evaluate(B, U_f, V_f)
    checks = []
    holds = True
    if not a_val.is_zero and not b_val.is_zero:
        outside = strip_set_factors(a_val.num, V)
        zero_places = [Place._trusted(q) for q, _ in factor_poly(outside)]
        if not V.has_infinity and a_val.den.degree > a_val.num.degree:
            zero_places.append(Place.infinity())
        for p in zero_places:
            lhs = min(ord_at(a_val, p), ord_at(b_val, p))
            rhs = sum(
                min(ord_at(U_f - alpha, p) if U_f != alpha else 10 ** 9,
                    ord_at(V_f - beta, p) if V_f != beta else 10 ** 9)
                for alpha, beta in zset)
            ok = lhs <= rhs
            holds = holds and ok
            checks.append({"place": str(p), "lhs": lhs, "rhs": rhs, "holds": ok})
    report["step4"] = {
        "v_geometric_size": V.geometric_size,
        "z_pairs": len(zset),
        "checks": checks,
        "holds": holds,
    }
    report["outcome"] = "split_audit_complete"
    return report
