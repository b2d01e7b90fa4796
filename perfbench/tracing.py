"""Spans and counters for the traced run.

``install`` swaps the public functions of each ffvojta module for wrappers,
in the traced process only; the library's source is not edited and
untraced runs never import this module.  A wrapped function is replaced
under every module attribute that holds it, since modules call each other
through names imported with ``from .x import f``.

A span is (name, start, end, parent span, op id) and is kept in memory
until the run ends.  A layer's self time is its span's duration minus the
durations of its child spans.  The two hottest entry points,
``RatFunc.__init__`` and the modular gcd certificate, are only counted,
so that their wrappers do not swamp the timings of their callers.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

SETUP, REPORT = -1, -2  # op ids of spans made outside any op


def _phase(op: int) -> str:
    return "ops" if op >= 0 else ("setup" if op == SETUP else "report")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = SETUP
        self.counts: Counter = Counter()  # (phase, event) -> count
        self.cache_info = None  # the factor cache's cache_info, once installed
        self._cache_mark = None

    def set_op(self, op: int) -> None:
        """Attribute the spans that follow to op ``op`` (or SETUP/REPORT)."""
        if _phase(op) != _phase(self.op):
            self._cache_delta(_phase(self.op))
        self.op = op

    def _cache_delta(self, phase: str) -> None:
        info = self.cache_info()
        self.counts[(phase, "field_core.factor_cache.hit")] += \
            info.hits - self._cache_mark.hits
        self.counts[(phase, "field_core.factor_cache.miss")] += \
            info.misses - self._cache_mark.misses
        self._cache_mark = info

    def close(self) -> None:
        """Attribute the factor-cache traffic of the last phase."""
        self._cache_delta(_phase(self.op))

    def span(self, name: str, fn, tally=None):
        """Wrap fn so that each call records a span; ``tally(result)``, when
        given, names an outcome event to count as well."""
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self.stack, time.perf_counter
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                self.counts[(_phase(self.op), f"{name}.{tally(result)}")] += 1
            return result

        return wrapper

    def counter(self, name: str, fn, tally=None):
        """Wrap fn so that each call is counted, without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            phase = _phase(self.op)
            counts[(phase, name)] += 1
            result = fn(*args, **kwargs)
            if tally is not None:
                counts[(phase, f"{name}.{tally(result)}")] += 1
            return result

        return wrapper

    def self_times(self) -> dict[tuple[str, str], list]:
        """(phase, span name) -> [calls, self seconds]."""
        n = len(self.span_start)
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[tuple[str, str], list] = {}
        for i in range(n):
            key = (_phase(self.span_op[i]), self.names[self.span_name[i]])
            acc = out.setdefault(key, [0, 0.0])
            acc[0] += 1
            acc[1] += ends[i] - starts[i] - child[i]
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as a tab-separated row, gzip-compressed."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{(self.span_start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.span_end[i] - t0) * 1e6:.1f}\t"
                         f"{self.span_parent[i]}\t{self.span_op[i]}\n")


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ffvojta" or mod_name.startswith("ffvojta."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Put the tracer's wrappers on the public functions of every measured
    module.  ``p2family`` and ``cli`` are not measured (see README.md)."""
    from ffvojta import (bipoly, constants, counting, field_core, parser,
                         sunits, unitsum, verify)

    spans = [
        ("field_core.poly_gcd", field_core, "poly_gcd", None),
        ("field_core.factor_poly", field_core, "factor_poly", None),
        ("sunits.as_ratfunc", sunits, "as_ratfunc", None),
        ("sunits.unit_at_index", sunits, "_unit_at_index", None),
        ("sunits.mult_dependence", sunits, "mult_dependence", None),
        ("sunits.generate", sunits, "generate", None),
        ("bipoly.evaluate", bipoly, "evaluate", None),
        ("bipoly.bipoly_gcd", bipoly, "bipoly_gcd", None),
        ("bipoly.resultant", bipoly, "resultant_x", None),
        ("bipoly.resultant", bipoly, "resultant_y", None),
        ("bipoly.rational_roots", bipoly, "rational_roots",
         lambda res: "complete" if res[1] else "incomplete"),
        ("bipoly.b_polynomial", bipoly, "b_polynomial", None),
        ("bipoly.irreducibility_audit", bipoly,
         "specialization_irreducibility_audit", None),
        ("counting.find_vanishing_subsum", counting, "find_vanishing_subsum",
         None),
        ("counting.trunc_count", counting, "trunc_count", None),
        ("counting.strip_set_factors", counting, "strip_set_factors", None),
        ("unitsum.random_vanishing_sum", unitsum, "random_vanishing_sum", None),
        ("unitsum.check_bm", unitsum, "check_bm", None),
        ("constants.theta_ledger", constants, "theta_ledger", None),
        ("parser.parse", parser, "parse_bipoly", None),
        ("parser.parse", parser, "parse_ratfunc", None),
        ("parser.parse", parser, "parse_place", None),
        ("parser.render_ratfunc_expr", parser, "render_ratfunc_expr", None),
        ("verify.build_context", verify, "build_context", None),
        ("verify.pair_outcome", verify, "pair_outcome", None),
        ("verify.build_report", verify, "build_report", None),
        ("verify.emit", verify, "emit_report", None),
        ("verify.audit_steps", verify, "audit_steps", None),
    ]
    for name, mod, attr, tally in spans:
        original = getattr(mod, attr)
        _replace_everywhere(original, tracer.span(name, original, tally))

    certificate = field_core._mod_gcd_is_one
    _replace_everywhere(certificate, tracer.counter(
        "field_core.gcd_certificate", certificate,
        lambda ok: "hit" if ok else "miss"))

    Poly, RatFunc = field_core.Poly, field_core.RatFunc
    Poly.__mul__ = tracer.span("field_core.poly_mul", Poly.__mul__)
    Poly.__divmod__ = tracer.span("field_core.poly_divmod", Poly.__divmod__)
    RatFunc.__init__ = tracer.counter("field_core.ratfunc_new", RatFunc.__init__)
    build = vars(unitsum.VanishingSum)["build"].__func__
    unitsum.VanishingSum.build = staticmethod(
        tracer.span("unitsum.vanishing_sum_build", build))
    tracer.cache_info = field_core._factor_cached.cache_info
    tracer._cache_mark = tracer.cache_info()


VERIFY_KINDS = ("below_threshold", "relation", "bound_holds",
                "degenerate_on_z", "violation")


def layer_metrics(tracer: Tracer, n_ops: int, kinds: dict) -> dict:
    """The per-layer metrics of a traced run: name -> (value, unit).

    ``*_per_op`` metrics cover the ops only; ``constants.theta_ledger`` and
    ``parser.parse`` cover set-up, ``verify.build_report`` and
    ``verify.emit`` the report assembly after the last op.  A ratio whose
    base is zero reads 0.
    """
    spans = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return spans.get(("ops", name), (0, 0.0))[0] / n_ops

    def self_ms(name, phase="ops"):
        total = spans.get((phase, name), (0, 0.0))[1] * 1000
        return total / n_ops if phase == "ops" else total

    def per_op(event):
        return counts[("ops", event)] / n_ops

    def ratio(part, whole):
        return part / whole if whole else 0.0

    cert = counts[("ops", "field_core.gcd_certificate")]
    hits = counts[("ops", "field_core.factor_cache.hit")]
    misses = counts[("ops", "field_core.factor_cache.miss")]
    roots = spans.get(("ops", "bipoly.rational_roots"), (0, 0.0))[0]
    out = {}
    for name in ("field_core.poly_mul", "field_core.poly_divmod",
                 "field_core.poly_gcd"):
        out[f"{name}.calls_per_op"] = (calls(name), "calls/op")
        out[f"{name}.self_ms_per_op"] = (self_ms(name), "ms/op")
    out.update({
        "field_core.ratfunc_new.calls_per_op":
            (per_op("field_core.ratfunc_new"), "calls/op"),
        "field_core.gcd_certificate.calls_per_op": (cert / n_ops, "calls/op"),
        "field_core.gcd_certificate.hit_ratio":
            (ratio(counts[("ops", "field_core.gcd_certificate.hit")], cert),
             "ratio"),
        "field_core.factor_poly.calls_per_op":
            (calls("field_core.factor_poly"), "calls/op"),
        "field_core.factor_poly.self_ms_per_op":
            (self_ms("field_core.factor_poly"), "ms/op"),
        "field_core.factor_cache.hits_per_op": (hits / n_ops, "calls/op"),
        "field_core.factor_cache.misses_per_op": (misses / n_ops, "calls/op"),
        "field_core.factor_cache.miss_ratio":
            (ratio(misses, hits + misses), "ratio"),
        "sunits.as_ratfunc.calls_per_op":
            (calls("sunits.as_ratfunc"), "calls/op"),
        "sunits.as_ratfunc.self_ms_per_op":
            (self_ms("sunits.as_ratfunc"), "ms/op"),
        "sunits.unit_at_index.self_ms_per_op":
            (self_ms("sunits.unit_at_index"), "ms/op"),
        "sunits.mult_dependence.calls_per_op":
            (calls("sunits.mult_dependence"), "calls/op"),
    })
    for name in ("bipoly.evaluate", "bipoly.bipoly_gcd", "bipoly.resultant",
                 "bipoly.rational_roots"):
        out[f"{name}.self_ms_per_op"] = (self_ms(name), "ms/op")
    out["bipoly.rational_roots.complete_ratio"] = (
        ratio(counts[("ops", "bipoly.rational_roots.complete")], roots),
        "ratio")
    out.update({
        "bipoly.b_polynomial.self_ms_per_op":
            (self_ms("bipoly.b_polynomial"), "ms/op"),
        "bipoly.irreducibility_audit.self_ms_per_op":
            (self_ms("bipoly.irreducibility_audit"), "ms/op"),
        "counting.find_vanishing_subsum.calls_per_op":
            (calls("counting.find_vanishing_subsum"), "calls/op"),
        "counting.find_vanishing_subsum.self_ms_per_op":
            (self_ms("counting.find_vanishing_subsum"), "ms/op"),
        "counting.trunc_count.calls_per_op":
            (calls("counting.trunc_count"), "calls/op"),
        "counting.strip_set_factors.self_ms_per_op":
            (self_ms("counting.strip_set_factors"), "ms/op"),
        "unitsum.random_vanishing_sum.attempts_per_op":
            (calls("sunits.generate"), "calls/op"),
        "unitsum.vanishing_sum_build.self_ms_per_op":
            (self_ms("unitsum.vanishing_sum_build"), "ms/op"),
        "unitsum.check_bm.self_ms_per_op":
            (self_ms("unitsum.check_bm"), "ms/op"),
        "constants.theta_ledger.self_ms":
            (self_ms("constants.theta_ledger", "setup"), "ms"),
        "parser.parse.self_ms": (self_ms("parser.parse", "setup"), "ms"),
        "parser.render_ratfunc_expr.self_ms_per_op":
            (self_ms("parser.render_ratfunc_expr"), "ms/op"),
        "verify.pair_outcome.self_ms_per_op":
            (self_ms("verify.pair_outcome"), "ms/op"),
        "verify.build_report.self_ms":
            (self_ms("verify.build_report", "report"), "ms"),
        "verify.emit.self_ms": (self_ms("verify.emit", "report"), "ms"),
        "verify.audit_steps.self_ms_per_op":
            (self_ms("verify.audit_steps"), "ms/op"),
    })
    for kind in VERIFY_KINDS:
        out[f"verify.kind.{kind}.ratio"] = (kinds.get(kind, 0) / n_ops, "ratio")
    return out
