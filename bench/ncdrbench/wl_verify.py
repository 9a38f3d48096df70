"""verify-all: one op is one in-process `ncdr verify all --seed s --json`.

Why: this is the roadmap's named end-to-end command, and the only workload
that measures the verify and cli layers.  Ops run at successive seeds from
the workload seed.

Known defect: check 10 (chain, product and mixed rules) draws b*x*c with b
or c zero on about 1% of seeds, then inverts that zero map and crashes with
NotInvertible, so `verify all` fails on those seeds.  Before each op, check
10 alone runs untimed at the op's seed; a seed where it crashes that way is
skipped, and the skipped seeds are reported beside the run's result.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

from ncdr import cli, verify

from .harness import Case, OpType, Workload

DEFECT_CHECK = "10-chain-product-mixed"
DEFECT_ERROR = "NotInvertible"


def _defect_at(seed: int) -> str | None:
    """Check 10's crash detail at `seed` when it crashes with NotInvertible."""
    result = verify.run_check(DEFECT_CHECK, seed)
    if not result.passed and result.detail.startswith(DEFECT_ERROR):
        return result.detail
    return None


def _verify_all(_rng: random.Random, seeds: itertools.count) -> Case:
    extra: dict = {}
    skipped = []
    for seed in seeds:
        if _defect_at(seed) is None:
            break
        skipped.append(seed)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "all", "--seed", str(seed), "--json"])
        return code, out.getvalue()

    def check(out, exc):
        if exc is not None:
            return False, None
        code, text = out
        report = json.loads(text)
        extra["check_ms"] = {c["name"][:2]: c["elapsed_ms"] for c in report["checks"]}
        return code == 0 and report["passed"] is True, None

    props = {"seed": seed}
    if skipped:
        props["skipped_seeds"] = ",".join(map(str, skipped))
    return Case(run, check, props, extra=extra)


def _seeds(_rng: random.Random, seed: int, workload: Workload):
    op = workload.ops[0]
    seeds = itertools.count(seed)
    while True:
        yield op, seeds


def defect_probe(_seed: int, phase) -> dict[str, object]:
    """The seeds this run skipped because check 10 crashed on them."""
    skipped = phase.properties.get("verify-all", {}).get("skipped_seeds", {})
    seeds = sorted(int(s) for group in skipped for s in group.split(","))
    return {"check": DEFECT_CHECK, "error": DEFECT_ERROR, "seeds_skipped": seeds}


WORKLOAD = Workload(
    name="verify-all",
    ops=(OpType("verify-all", _verify_all, (None,)),),
    warm_seconds=0.0,
    schedule=_seeds,
    probe=defect_probe,
)
