"""The benchmark's four workloads: fixed inputs, one op each, and the report
a run assembles from its ops.

Every workload draws its ops from a fixed pool of inputs.  The canonical
output of each pool op on the seed commit is recorded, as a digest, in
``golden/<workload>.json`` together with the time that op took there
(``ref_ms``).  The benchmark seed chooses which pool ops a run makes and in
which order; it never changes an input, so every op of every run is gated
against its golden output.

Op costs within one workload differ by up to 20x, so a plain random sample
would make throughput depend on the seed more than on the code.  The pool is
therefore cut into equal strata by ``ref_ms`` rank, and a run is made of
rounds that take one seeded pick from every stratum.  Runs on different
seeds then make the same mix of cheap and costly ops.  The strata are
narrow (3 to 30 pool ops each), so that the median and tail of a run
fall on ops of nearly the same cost on every seed.

Library calls go through module attributes (``verify.pair_outcome``, not a
name imported from it), so the wrappers that ``tracing.install`` puts on
those attributes see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

PLACES = ("0", "1", "inf")
LINEAR = "X+Y+1"
CUBIC = "X^2*Y+X*Y^2-t*(X+Y)+1"
# the library seed of the pair stream every verify and audit pool is cut from
LIBRARY_SEED = 7


def canonical(out) -> str:
    """The canonical text of an op's output: the JSON the CLI writes."""
    return json.dumps(out, indent=2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """One workload: ``setup`` runs before the first op, ``op`` makes the op
    for one pool index and returns its JSON-ready output, ``finish``
    assembles the run's report and returns the digests it is gated on.

    ``tail_pct`` is the op_tail_ms percentile; ``min_rounds`` gives at least
    ten samples beyond it; ``trace_rounds`` is the number of rounds each
    process of a traced run makes.
    """

    def __init__(self, name: str, pool_size: int, strata: int, tail_pct: int,
                 min_rounds: int, trace_rounds: int):
        self.name, self.pool_size, self.strata = name, pool_size, strata
        self.tail_pct, self.min_rounds = tail_pct, min_rounds
        self.trace_rounds = trace_rounds

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> dict:
        raise NotImplementedError

    def kind(self, out: dict) -> str:
        raise NotImplementedError

    def finish(self, outputs: list[dict], out_dir: Path) -> dict:
        return {}


class VerifyWorkload(Workload):
    """The trichotomy on one pair of S-units per op, max_exponent 25."""

    def __init__(self, name: str, poly: str, **sizes):
        super().__init__(name, **sizes)
        self.poly = poly

    def setup(self):
        from ffvojta import verify

        self.verify = verify
        self.cfg = verify.RunConfig(poly=self.poly, places=PLACES,
                                    epsilon="1/2", max_exponent=25,
                                    seed=LIBRARY_SEED)
        self.ctx = verify.build_context(self.cfg)

    def op(self, index):
        return self.verify.pair_outcome(self.ctx, index)

    def kind(self, out):
        return out["kind"]

    def finish(self, outputs, out_dir):
        cfg = dataclasses.replace(self.cfg, count=len(outputs))
        outcomes = sorted(outputs, key=lambda o: o["pair_index"])
        report = self.verify.build_report(cfg, outcomes)
        self.verify.emit_report(report, str(out_dir / f"{self.name}-report.json"))
        summary = report["summary"]
        kinds_agree = all(
            summary[k] == sum(1 for o in outcomes if o["kind"] == k)
            for k in self.verify.OUTCOME_KINDS)
        return {"constants": digest(canonical(report["constants"])),
                "summary_agrees": kinds_agree
                and summary["pairs"] == len(outcomes)}


class AuditWorkload(Workload):
    """``audit_steps`` on one seeded pair of the cubic, max_exponent 2."""

    def setup(self):
        from ffvojta import verify

        self.verify = verify
        self.cfg = verify.RunConfig(poly=CUBIC, places=PLACES, epsilon="1/2",
                                    max_exponent=2, seed=LIBRARY_SEED,
                                    mode="audit")
        self.ctx = verify.build_context(self.cfg)

    def op(self, index):
        u, v = self.verify.pair_for_index(self.ctx, index)
        return self.verify.audit_steps(self.cfg, u, v)

    def kind(self, out):
        return out.get("outcome", "step1_relation")


class UnitSumWorkload(Workload):
    """A 5-term vanishing sum at max_exponent 10, then ``check_bm``; the
    output is the report of the CLI's bm mode."""

    def setup(self):
        from ffvojta import parser, sunits, unitsum

        self.parser, self.unitsum = parser, unitsum
        self.S = sunits.PlaceSet(frozenset(parser.parse_place(p)
                                           for p in PLACES))

    def op(self, index):
        vs = self.unitsum.random_vanishing_sum(self.S, 5, 10, index)
        check = self.unitsum.check_bm(vs)
        return {"terms": [self.parser.render_ratfunc_expr(t) for t in vs.terms],
                "places": [str(p) for p in vs.place_set.sorted_places()],
                "check": check.to_json()}

    def kind(self, out):
        return "bm_holds" if out["check"]["holds"] else "bm_fails"


WORKLOADS = {w.name: w for w in (
    VerifyWorkload("verify_linear", LINEAR, pool_size=3000, strata=100,
                   tail_pct=99, min_rounds=10, trace_rounds=5),
    VerifyWorkload("verify_cubic", CUBIC, pool_size=480, strata=96,
                   tail_pct=90, min_rounds=2, trace_rounds=1),
    # three rounds of 48 strata of 3 make the whole pool, in a seeded order
    AuditWorkload("audit_cubic", pool_size=144, strata=48, tail_pct=85,
                  min_rounds=3, trace_rounds=1),
    UnitSumWorkload("unitsum_bm", pool_size=192, strata=48, tail_pct=80,
                    min_rounds=2, trace_rounds=1),
)}


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def rounds(ref_ms: list[float], strata: int, workload: str, seed: int):
    """Yield the run's rounds of pool indices, forever.

    Round r takes the r-th pick of each stratum's seeded shuffle, in a
    seeded order; a stratum whose picks run out starts over.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    by_cost = sorted(range(len(ref_ms)), key=lambda i: (ref_ms[i], i))
    size = len(by_cost) // strata
    groups = [by_cost[k * size:(k + 1) * size] for k in range(strata)]
    for group in groups:
        rng.shuffle(group)
    r = 0
    while True:
        picks = [group[r % size] for group in groups]
        rng.shuffle(picks)
        yield picks
        r += 1
