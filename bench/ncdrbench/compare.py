"""Compare a parent and a change on the benchmark, pair by pair.

Each of PAIRS pairs runs both sides on the same seed, alternating which side
runs first, on every workload in BENCHMARK.json.  For every workload and
end-to-end metric it prints each side's median and quartiles, the fraction
of pairs the change wins (ties count for neither side), and one verdict:

  improved    the change wins at least 9/10 of the pairs, the medians
              differ by more than the parent's own quartile spread, and the
              change fails no op that the parent passed;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread (IQR / median) is wider than the bound and
              not every change run beats every parent run;
  unchanged   otherwise.

Runs of one seed deal the same inputs in the same order, so failures compare
op by op: a pair is flagged when the change fails more of the ops both sides
ran than the parent does, and a workload with a flagged pair gets no
"improved" verdict on any metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from .stats import quartiles

PAIRS = 10


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float,
            fails_more: bool = False) -> dict:
    """Verdict on paired runs: parent[i] and change[i] ran on the same seed.

    fails_more: the change failed ops the parent passed in some pair."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change)) / len(parent)
    worse_by = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    spread = (p3 - p1) / pm
    every_run_better = all(_better(c, p, better) for c in change for p in parent)
    if wins >= 0.9 and _better(cm, pm, better) and abs(cm - pm) > p3 - p1 and not fails_more:
        label = "improved"
    elif worse_by > bound:
        label = "regressed"
    elif spread > bound and not every_run_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "parent": [p1, pm, p3],
        "change": [c1, cm, c3],
        "win_fraction": wins,
        "worse_by": worse_by,
        "parent_spread": spread,
        "fails_more": fails_more,
        "verdict": label,
    }


def fails_more(parent: dict, change: dict) -> bool:
    """Whether the change failed more than the parent of the ops both ran."""
    common = min(parent["attempted"], change["attempted"])
    return sum(i < common for i in change["failed_ops"]) > sum(
        i < common for i in parent["failed_ops"]
    )


def _run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run's result object, with the failed op indices from its record."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{side}: {workload} seed {seed} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return dict(json.loads(lines[-1]), failed_ops=record["failed_ops"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two source checkouts on the benchmark.")
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    summary = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(getattr(args, side), w, args.seed + i, seconds))
        flagged = []
        for i, (rp, rc) in enumerate(zip(runs["parent"], runs["change"])):
            if fails_more(rp, rc):
                flagged.append(i)
                print(f"{w} pair {i} (seed {args.seed + i}): change failed {rc['failed']} of "
                      f"{rc['attempted']} ops, parent {rp['failed']} of {rp['attempted']}")
        for side, rs in runs.items():
            failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
            print(f"{w:<14} {side:<6} failed {failed} of {attempted} ops")
        for m in spec["end_to_end"]:
            name = m["name"]
            v = verdict(
                [r["metrics"][name]["value"] for r in runs["parent"]],
                [r["metrics"][name]["value"] for r in runs["change"]],
                m["better"], m["bound"], fails_more=bool(flagged),
            )
            summary[f"{w}/{name}"] = v
            print(
                f"{w:<14} {name:<18} parent {v['parent'][1]:.4g} [{v['parent'][0]:.4g}, "
                f"{v['parent'][2]:.4g}]  change {v['change'][1]:.4g} [{v['change'][0]:.4g}, "
                f"{v['change'][2]:.4g}] {m['unit']}  wins {v['win_fraction']:.2f}  {v['verdict']}"
            )
        summary[f"{w}/flagged_pairs"] = flagged
    print(json.dumps(summary))
    return 0
