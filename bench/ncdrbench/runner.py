"""One benchmark run: end-to-end metrics untraced, or per-layer metrics traced."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import calib, harness, stats, wl_exact, wl_numeric, wl_symbolic, wl_verify
from .trace import Tracer

WORKLOADS = {
    w.name: w
    for w in (wl_exact.WORKLOAD, wl_numeric.WORKLOAD, wl_symbolic.WORKLOAD, wl_verify.WORKLOAD)
}

# Ops in each phase of a traced run: a whole number of decks, run to the end
# with no deadline, so that counts repeat exactly for a seed and compare
# across versions of the program.  Each phase takes 4-12 s on the reference
# machine (2-core x86-64 VM).
TRACE_OPS = {"exact-kernel": 990, "numeric-diff": 2970, "symbolic-poly": 200, "verify-all": 3}

SETUP_PROBES = 11

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPANS = (
    "algebra.mul_exact", "algebra.mul_float", "algebra.inverse", "algebra.spec_build",
    "exactla.gauss_jordan", "exactla.bareiss", "exactla.mat_mul",
    "linmap.big_c", "linmap.std_to_coord", "linmap.coord_to_std", "linmap.compose_std",
    "dspace.dmatrix_inverse", "dspace.matmul",
    "gateaux.evaluator", "gateaux.engine", "gateaux.jacobian", "gateaux.second",
    "gateaux.std_components",
    "ncpoly.build", "ncpoly.rename", "ncpoly.derivative", "ncpoly.substitute",
    "ncpoly.extensional_equal", "ncpoly.word_eval", "ncpoly.taylor_poly",
    "taylor.solve_ode", "taylor.exp", "parsing.parse", "verify.run",
)
CALL_COUNTS = (
    "algebra.mul_exact", "algebra.mul_float", "algebra.spec_build", "exactla.gauss_jordan",
    "exactla.bareiss", "dspace.dmatrix_inverse", "ncpoly.build", "ncpoly.extensional_equal",
    "taylor.solve_ode", "taylor.exp",
)
COUNTERS = (
    "linmap.big_c.hits", "linmap.big_c.misses", "gateaux.derivatives", "gateaux.not_representable",
    "gateaux.nonconvergent", "ncpoly.build.terms_in", "ncpoly.build.terms_out",
    "ncpoly.extensional_equal.formal_hits", "ncpoly.extensional_equal.bindings_enumerated",
    "taylor.solve_ode.obstructed",
)
CHECK_IDS = tuple(f"{i:02d}" for i in range(1, 16))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run emits, with its unit."""
    units = {f"{s}.self_ms": "ms" for s in SPANS}
    units.update({f"{s}.calls": "count" for s in CALL_COUNTS})
    units.update({c: "count" for c in COUNTERS})
    units.update({
        "linmap.big_c.hit_ratio": "ratio",
        "gateaux.evaluator_calls": "count",
        "gateaux.evaluator_calls_per_derivative": "count",
        "gateaux.snap_ratio": "ratio",
        "gateaux.snap_base": "count",
        "gateaux.max_rel_residual": "ratio",
    })
    units.update({f"ncpoly.taylor_poly.d{d}_ms": "ms" for d in range(1, 7)})
    units.update({f"ncpoly.words_out.d{d}": "count" for d in range(1, 7)})
    units.update({f"verify.check.{c}_ms": "ms" for c in CHECK_IDS})
    units.update({
        "cli.overhead_ms": "ms",
        "error_rate": "ratio",
        "bench.wall_s": "s",
        "bench.ref_kernel_ms": "ms",
        "bench.trace_overhead_ratio": "ratio",
        "bench.traced_ops": "count",
        "bench.op_ms": "ms",
        "bench.unattributed_ms": "ms",
        "bench.glue_ms": "ms",
        "bench.spans": "count",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_setup(bench_dir: Path, src_dir: Path, probes: int = SETUP_PROBES) -> dict[str, Any]:
    """Set-up CPU times of `probes` fresh processes, after one discarded probe
    that may still be compiling bytecode.  Each probe is calibrated by the
    kernel samples taken in its own process while it set up: the host's speed
    changes within fractions of a second."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(bench_dir), str(src_dir)]))
    samples = []
    for i in range(probes + 1):
        out = subprocess.run(
            [sys.executable, "-m", "ncdrbench.setup_probe"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {
        "calibrated_setup_s": [d["setup_s"] * d["factor"] for d in samples],
        "cpu_setup_s": [d["setup_s"] for d in samples],
        "wall_setup_s": [d["wall_s"] for d in samples],
    }


def _environment() -> dict[str, Any]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": affinity,
        "machine": platform.machine(),
    }


def end_to_end(phase: harness.Phase, setup: dict[str, Any]) -> tuple[dict, dict]:
    """The user-facing metrics of an untraced phase, and the context record.

    Throughput charges the time of failed ops but credits only correct ones.
    The latencies are those of correct ops: a failed op has no latency that
    meets a limit, and counting it at its measured time would let a change
    that fails fast read faster.  Compare mode refuses a gain to a change
    that fails ops the parent did not.  Set-up time is the lower quartile of
    the probes, which leaves out probes that a busy host slowed.
    """
    every = phase.calibrated()
    lat = [t for t, ok in zip(every, phase.ok) if ok] or every
    correct = len(phase) - phase.failed
    tail_value, tail_pct, tail_rule = stats.tail(lat)
    values = {
        "throughput_ops_s": correct / sum(every),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": stats.quartiles(setup["calibrated_setup_s"])[0],
    }
    context = {
        "error_rate": phase.failed / len(phase),
        "tail_percentile": tail_pct,
        "tail_n": len(lat),
        "tail_rule_met": tail_rule,
        "bench.wall_s": phase.wall_s,
        "bench.ref_kernel_ms": phase.calibrator.kernel_s() * 1e3,
        "raw_wall": {
            "throughput_ops_s": correct / sum(phase.op_wall_s),
            "latency_p50_ms": statistics.median(phase.op_wall_s) * 1e3,
            "latency_tail_ms": stats.tail(phase.op_wall_s)[0] * 1e3,
        },
        "calibration_samples": len(phase.calibrator.samples),
        "setup": setup,
    }
    return values, context


def per_layer(untraced: harness.Phase, traced: harness.Phase, tracer: Tracer,
              kernel_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced phase; `untraced` ran the same ops without tracing.

    Neither phase samples the calibration kernel, whose runs would land in
    the spans; the overhead ratio compares their CPU times, taken back to
    back, and `kernel_s` is the kernel's time measured before them."""
    s = tracer.summary()
    self_ms, calls, c = s["self_ms"], s["calls"], tracer.counters
    m: dict[str, float] = {f"{n}.self_ms": self_ms.get(n, 0.0) for n in SPANS}
    m.update({f"{n}.calls": calls.get(n, 0) for n in CALL_COUNTS})
    m.update({n: c[n] for n in COUNTERS})
    lookups = c["linmap.big_c.hits"] + c["linmap.big_c.misses"]
    m["linmap.big_c.hit_ratio"] = _ratio(c["linmap.big_c.hits"], lookups)
    m["gateaux.evaluator_calls"] = calls.get("gateaux.evaluator", 0)
    m["gateaux.evaluator_calls_per_derivative"] = _ratio(
        m["gateaux.evaluator_calls"], c["gateaux.derivatives"]
    )
    m["gateaux.snap_base"] = c["gateaux.snap"] + c["gateaux.lstsq"]
    m["gateaux.snap_ratio"] = _ratio(c["gateaux.snap"], m["gateaux.snap_base"])
    residuals = [r for op, r in traced.max_residual.items() if op != "exp"]
    m["gateaux.max_rel_residual"] = max(residuals, default=0.0)
    for d in range(1, 7):
        n = c[f"ncpoly.taylor_poly.d{d}.calls"]
        m[f"ncpoly.taylor_poly.d{d}_ms"] = _ratio(c[f"ncpoly.taylor_poly.d{d}.ns"] / 1e6, n)
        m[f"ncpoly.words_out.d{d}"] = _ratio(c[f"ncpoly.words_out.d{d}"], n)
    reports = [(wall, extra["check_ms"]) for wall, extra in traced.extras if "check_ms" in extra]
    for cid in CHECK_IDS:
        m[f"verify.check.{cid}_ms"] = _ratio(
            sum(checks.get(cid, 0.0) for _, checks in reports), len(reports)
        )
    m["cli.overhead_ms"] = _ratio(
        sum(wall * 1e3 - sum(checks.values()) for wall, checks in reports), len(reports)
    )
    op_ms = tracer.op_ns / 1e6
    layer_ms = sum(self_ms.values())
    m["error_rate"] = _ratio(traced.failed, len(traced))
    m["bench.wall_s"] = traced.wall_s
    m["bench.ref_kernel_ms"] = kernel_s * 1e3
    m["bench.trace_overhead_ratio"] = _ratio(sum(traced.cpu_s), sum(untraced.cpu_s))
    m["bench.traced_ops"] = len(traced)
    m["bench.op_ms"] = op_ms
    # Op time outside every layer span, and the benchmark's own work between
    # ops as timed where it ran; with layer self times they should account
    # for the traced wall time (the record prints what is left over).
    m["bench.unattributed_ms"] = op_ms - s["root_ms"]
    m["bench.glue_ms"] = sum(traced.glue_s.values()) * 1e3
    m["bench.spans"] = s["spans"]
    m["_layer_ms"] = layer_ms
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
        setup_probes: int = SETUP_PROBES) -> tuple[list[str], dict[str, Any]]:
    """Returns (report lines, result object for the last line)."""
    workload = WORKLOADS[workload_name]
    lines = [f"workload {workload_name}  seed {seed}  seconds {seconds}  trace {int(trace)}"]
    if not trace:
        setup = measure_setup(root / "bench", root / "src", setup_probes)
        harness.warm(workload)
        phase = harness.run_phase(workload, seed, seconds, whole_decks=True)
        values, context = end_to_end(phase, setup)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        context["ops"] = len(phase)
    else:
        n = TRACE_OPS[workload_name]
        harness.warm(workload)
        kernel_s = calib.time_kernel(15)
        untraced = harness.run_phase(workload, seed, None, max_ops=n, calibrate=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced = harness.run_phase(
                workload, seed, None, tracer=tracer, max_ops=n, calibrate=False
            )
        finally:
            tracer.uninstall()
        values = per_layer(untraced, traced, tracer, kernel_s)
        layer_ms = values.pop("_layer_ms")
        units = per_layer_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        phase = traced
        out_path = root / ".bench_out" / f"trace-{workload_name}-{seed}.npz"
        tracer.write(out_path)
        total = layer_ms + values["bench.unattributed_ms"] + values["bench.glue_ms"]
        wall_ms = values["bench.wall_s"] * 1e3
        context = {
            "ops": len(phase),
            "spans_file": str(out_path.relative_to(root)),
            "accounting_ms": {
                "layer_self": layer_ms,
                "unattributed": values["bench.unattributed_ms"],
                "glue": values["bench.glue_ms"],
                "glue_parts": {k: v * 1e3 for k, v in traced.glue_s.items()},
                "sum": total,
                "traced_wall": wall_ms,
                "unaccounted": wall_ms - total,
            },
        }
    if workload.probe is not None:
        context["known_defect"] = workload.probe(seed, phase)
    context.update(
        seed=seed,
        workload=workload_name,
        op_counts=phase.op_counts(),
        failures_by_op=phase.failures_by_op(),
        failed_ops=phase.failed_ops(),
        properties=phase.property_record(),
    )
    context.update(_environment())
    failed = phase.failed
    for name, m in metrics.items():
        lines.append(f"{name:<48} {m['value']:.6g} {m['unit']}")
    lines.append(f"ops {len(phase)}  failed {failed}  by op {json.dumps(context['failures_by_op'])}")
    if "known_defect" in context:
        lines.append(f"known defect, untimed: {json.dumps(context['known_defect'])}")
    lines.append("record " + json.dumps(context, sort_keys=True, default=str))
    result = {
        "correct": failed == 0,
        "attempted": len(phase),
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result
