"""Smoke tests for the benchmark: every workload at a tiny size.

    python3 -m pytest bench/tests -q
"""

import json
import math
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from ncdrbench import calib, compare, runner, stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DEFAULT_SEED = 1


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(runner.WORKLOADS)
    assert runner.per_layer_units() == PER_LAYER


@pytest.mark.parametrize("workload", list(runner.WORKLOADS))
def test_end_to_end_metrics(workload):
    _, result = runner.run(workload, DEFAULT_SEED, 1.0, False, ROOT, setup_probes=1)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in metrics.values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", list(runner.WORKLOADS))
def test_traced_metrics_account_for_wall_time(workload):
    lines, result = runner.run(workload, DEFAULT_SEED, 2.0, True, ROOT)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    acc = record["accounting_ms"]
    layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_ms"))
    assert layers == pytest.approx(acc["layer_self"], rel=1e-9)
    # Glue is timed part by part where it runs, so what is left of the wall
    # time is only the loop itself; op time outside every layer span stays
    # small unless a layer's calls go untraced.
    assert 0 <= acc["unaccounted"] <= 0.02 * acc["traced_wall"] + 5.0
    assert acc["unattributed"] <= 0.1 * metrics["bench.op_ms"]["value"]
    assert metrics["bench.traced_ops"]["value"] == runner.TRACE_OPS[workload]
    assert metrics["bench.trace_overhead_ratio"]["value"] > 0


def test_exp_defect_is_reported():
    lines, result = runner.run("numeric-diff", DEFAULT_SEED, 1.0, False, ROOT, setup_probes=1)
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    defect = record["known_defect"]
    assert defect["op"] == "exp" and defect["probes"] > 0
    # exp misses its tolerance above one turn at the current code; the
    # probe reads it without failing the timed ops.
    assert 0 <= defect["failed"] <= defect["probes"]
    assert result["correct"]


def test_rules_expect_not_invertible_only_where_undefined():
    from ncdr.errors import NotInvertible
    from ncdrbench import wl_numeric

    undefined = None
    for i in range(100_000):
        case = wl_numeric._rules(random.Random(i), None)
        if case.props["undefined"]:
            undefined = case
            break
    assert undefined is not None
    with pytest.raises(NotInvertible) as raised:
        undefined.run()
    assert undefined.check(None, raised.value) == (True, None)
    defined = wl_numeric._rules(random.Random("defined"), None)
    assert not defined.props["undefined"]
    assert defined.check(None, NotInvertible("x")) == (False, None)


def test_verify_all_reports_every_seed_it_skips():
    # Seed 63 is one where check 10 crashes at the current code.
    lines, result = runner.run("verify-all", 63, 0.1, False, ROOT, setup_probes=1)
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    ran = [int(s) for s in record["properties"]["verify-all"]["seed"]]
    skipped = record["known_defect"]["seeds_skipped"]
    assert result["correct"] and len(ran) == 1
    assert sorted(ran + skipped) == list(range(63, ran[0] + 1))


def test_command_line_contract():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-kernel", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(END_TO_END)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_tail_percentile():
    assert stats.tail(list(range(11))) == (0, 100.0 * 1 / 11, True)
    value, pct, met = stats.tail(list(range(2000)))
    assert pct == 99.0 and met and 1970 < value < 1990
    assert stats.tail([3.0, 1.0]) == (3.0, 100.0, False)


def test_calibrator_scales_by_samples_around_the_op():
    cal = calib.Calibrator()
    cal.times.extend([0.0, 1.0, 1.05, 2.0])
    cal.samples.extend([0.002, 0.004, 0.008, 0.004])
    nominal = calib.NOMINAL_KERNEL_S
    assert cal.factor(0.95, 1.0) == pytest.approx(nominal / 0.006)
    # No sample within the window: the phase's median.
    assert cal.factor(5.0, 6.0) == pytest.approx(nominal / 0.004)
    with cal:
        busy_until = time.perf_counter() + 0.3
        while time.perf_counter() < busy_until:
            pass
    assert len(cal.samples) >= 4 + 3 and cal.spent_cpu > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, faster, "lower", 0.1, fails_more=True)["verdict"] == "unchanged"


def test_fails_more_compares_common_ops():
    parent = {"attempted": 100, "failed_ops": [3, 50]}
    assert not compare.fails_more(parent, {"attempted": 120, "failed_ops": [3, 50, 110]})
    assert not compare.fails_more(parent, {"attempted": 40, "failed_ops": [3]})
    assert compare.fails_more(parent, {"attempted": 100, "failed_ops": [3, 7, 50]})
