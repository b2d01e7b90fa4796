"""Command-line surface: verification runs, audits, ledgers and fixtures.

Exit codes: 0 on success, 1 on a VIOLATION or a failed bound, 2 on
missing or invalid input.

Modes:
  verify    run the trichotomy over seeded unit pairs (exit 1 on VIOLATION)
  audit     stepwise resultant audit of one pair (split case only)
  constants emit the constant ledger for the given factors and epsilon
  bm        check the unit-sum height bound for a JSON list of terms
  quartic   run the reducible-quartic fixture and a batch of section checks
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .counting import VanishingSubsum
from .p2family import quartic_family
from .parser import DivisionByZeroPoly, parse_place, parse_ratfunc
from .sunits import PlaceSet, euler_char, sunit_from_ratfunc
from .unitsum import SumNonzero, VanishingSum, check_bm
from .verify import (
    REPORT_SCHEMA,
    Classification,
    RunConfig,
    audit_steps,
    build_context,
    build_report,
    classify,
    emit_report,
    pair_for_index,
    verify_trichotomy,
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffvojta",
        description="exact verification harness for unit pairs over Q(t)")
    ap.add_argument("--mode", default="verify",
                    choices=["verify", "audit", "constants", "bm", "quartic"])
    ap.add_argument("--poly", help="polynomial in t, X, Y, e.g. 'X+Y+1'")
    ap.add_argument("--factors",
                    help="JSON list of {expr, attested_irreducible}")
    ap.add_argument("--places", default="0,1,inf",
                    help="comma-separated places, e.g. '0,1,inf' or 't^2+1'")
    ap.add_argument("--epsilon", default="1/2", help="tolerance, e.g. 1/2")
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--max-exponent", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--u", help="first unit expression (audit mode)")
    ap.add_argument("--v", help="second unit expression (audit mode)")
    ap.add_argument("--terms", help="JSON list of expressions (bm mode)")
    return ap


def _json_list(text: str, flag: str, valid, what: str) -> list:
    """The JSON list in `text`; ValueError unless every item is `valid`."""
    raw = json.loads(text)
    if not (isinstance(raw, list) and all(valid(item) for item in raw)):
        raise ValueError(f"{flag} must be a JSON list of {what}")
    return raw


def _config_from_args(args) -> RunConfig:
    factors: tuple[tuple[str, bool], ...] = ()
    if args.factors:
        raw = _json_list(
            args.factors, "--factors",
            lambda item: isinstance(item, dict)
            and isinstance(item.get("expr"), str),
            'objects with a string "expr"')
        factors = tuple(
            (item["expr"], bool(item.get("attested_irreducible", False)))
            for item in raw)
    return RunConfig(
        poly=args.poly or "",
        places=tuple(p.strip() for p in args.places.split(",") if p.strip()),
        epsilon=args.epsilon,
        count=args.count,
        max_exponent=args.max_exponent,
        seed=args.seed,
        mode=args.mode,
        factors=factors,
    )


def _write_or_print(report: dict, out: str | None) -> None:
    if out:
        emit_report(report, out)
        print(f"report written to {out}")
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _run_verify(args) -> int:
    if not args.poly:
        print("verify mode needs --poly", file=sys.stderr)
        return 2
    cfg = _config_from_args(args)
    outcomes = verify_trichotomy(cfg, workers=args.workers)
    report = build_report(cfg, outcomes)
    _write_or_print(report, args.out)
    violations = report["summary"]["violation"]
    summary = ", ".join(f"{k}={v}" for k, v in report["summary"].items())
    print(f"summary: {summary}")
    return 0 if violations == 0 else 1


def _run_audit(args) -> int:
    if not (args.poly and args.u and args.v):
        print("audit mode needs --poly, --u and --v", file=sys.stderr)
        return 2
    cfg = _config_from_args(args)
    S = PlaceSet(frozenset(parse_place(p) for p in cfg.places))
    u = sunit_from_ratfunc(parse_ratfunc(args.u), S)
    v = sunit_from_ratfunc(parse_ratfunc(args.v), S)
    report = audit_steps(cfg, u, v)
    _write_or_print(report, args.out)
    return 0


def _run_constants(args) -> int:
    if not args.poly:
        print("constants mode needs --poly", file=sys.stderr)
        return 2
    cfg = _config_from_args(args)
    ctx = build_context(cfg)
    report = {"schema": REPORT_SCHEMA, "config": cfg.to_json(),
              "constants": ctx.ledger.to_json()}
    _write_or_print(report, args.out)
    return 0


def _run_bm(args) -> int:
    if not args.terms:
        print("bm mode needs --terms", file=sys.stderr)
        return 2
    exprs = _json_list(args.terms, "--terms",
                       lambda e: isinstance(e, str), "strings")
    terms = [parse_ratfunc(e) for e in exprs]
    places = {parse_place(p.strip())
              for p in args.places.split(",") if p.strip()}
    from .field_core import divisor_of

    for f in terms:
        if not f.is_constant:
            places.update(divisor_of(f))
    S = PlaceSet(frozenset(places))
    try:
        vs = VanishingSum.build(terms, S)
    except (SumNonzero, VanishingSubsum, ValueError) as exc:
        print(f"invalid vanishing sum: {exc}", file=sys.stderr)
        return 2
    result = check_bm(vs)
    report = {"schema": REPORT_SCHEMA, "terms": exprs,
              "places": [str(p) for p in S.sorted_places()],
              "check": result.to_json()}
    _write_or_print(report, args.out)
    return 0 if result.holds else 1


def _quartic_section(index: int, c: Classification, threshold) -> dict:
    if c.kind == "degenerate_on_z":
        return {"pair_index": index, "kind": c.kind,
                "detail": "the section lies inside the zero locus"}
    out = {"pair_index": index, "kind": c.kind, "height": c.height,
           "threshold": str(threshold)}
    if c.count is not None:
        out["lhs"] = c.count.lhs
        out["rhs"] = str(c.count.rhs)
    if c.kind == "relation":
        dep = c.dependence
        out.update({"r": dep.r, "s": dep.s, "gamma": str(dep.gamma)})
    return out


def _run_quartic(args) -> int:
    fam = quartic_family()
    cfg = dataclasses.replace(
        _config_from_args(args), poly=str(fam.image_poly),
        places=tuple(str(p) for p in fam.bad_places.sorted_places()))
    ctx = build_context(cfg)
    ledger = ctx.ledger
    threshold = ledger.theta1 * max(1, euler_char(ctx.S))
    sections = []
    for i in range(cfg.count):
        u, v = pair_for_index(ctx, i)
        c = classify(ctx.A, ctx.S, u, v, ledger.theta1, ledger.theta2, ctx.eps)
        sections.append(_quartic_section(i, c, threshold))
    report = {
        "schema": REPORT_SCHEMA,
        "family": fam.to_json(),
        "constants": ledger.to_json(),
        "sections": sections,
    }
    _write_or_print(report, args.out)
    bad = [s for s in sections if s.get("kind") == "violation"]
    return 0 if not bad else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runners = {
        "verify": _run_verify,
        "audit": _run_audit,
        "constants": _run_constants,
        "bm": _run_bm,
        "quartic": _run_quartic,
    }
    try:
        return runners[args.mode](args)
    except (ValueError, DivisionByZeroPoly) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
