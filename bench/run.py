"""Run one ncdr benchmark workload and print its metrics.

    python3 bench/run.py --workload exact-kernel --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

Run from the root of a source checkout; the benchmark imports ncdr from its
src/ directory.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --workload
all, each workload runs in its own process and the metrics are keyed
"<workload>/<metric>".
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("exact-kernel", "numeric-diff", "symbolic-poly", "verify-all")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ncdr" / "__init__.py").is_file():
        print(f"bench: no ncdr sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from ncdrbench import runner

    lines, result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
