"""Closed-loop op loop: one client issues each op after the previous one returns.

A workload is a weighted deck of op types.  Each round the deck is shuffled
with the seeded generator and dealt in order, so op-type shares hold exactly
per round rather than only on average; that keeps the rare slow op types
(which set the tail) at a fixed share in every run.  Every op builds its
inputs (untimed), calls ncdr (timed), then checks the result with its own
oracle (untimed).
"""

from __future__ import annotations

import contextlib
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from .calib import Calibrator


@dataclass
class Case:
    """One op instance.

    run() does all the ncdr work of the op and is the only timed part.
    check(result, exc) returns (ok, residual): exc is the exception run()
    raised, or None; residual is a numeric relative residual when the oracle
    has one.  cleanup() runs untimed after the check.  props are the input
    properties for the run's record; extra holds per-op data the traced run
    reads (such as the per-check times of a verify report).
    """

    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], tuple[bool, float | None]]
    props: dict[str, Any] = field(default_factory=dict)
    cleanup: Callable[[], None] | None = None
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class OpType:
    name: str
    make: Callable[[random.Random, Any], Case]
    # One entry per deck slot; each entry is handed to make() as its variant.
    variants: tuple[Any, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[OpType, ...]
    warm_seconds: float = 0.5
    schedule: Callable[[random.Random, int, "Workload"], Iterator[tuple[OpType, Any]]] | None = None
    # probe(seed, phase) reports a known defect of ncdr that the timed ops
    # keep clear of, measured untimed, for the run's record.
    probe: Callable[[int, "Phase"], dict[str, Any]] | None = None

    @property
    def deck_size(self) -> int:
        return 1 if self.schedule is not None else sum(len(op.variants) for op in self.ops)

    def deal(self, rng: random.Random, seed: int) -> Iterator[tuple[OpType, Any]]:
        if self.schedule is not None:
            return self.schedule(rng, seed, self)
        return _deck(rng, self.ops)


def _deck(rng: random.Random, ops: Sequence[OpType]) -> Iterator[tuple[OpType, Any]]:
    deck = [(op, v) for op in ops for v in op.variants]
    while True:
        rng.shuffle(deck)
        yield from deck


class Phase:
    """What one phase measured.

    Per-op figures live in flat arrays and input properties are counted as
    they arrive, so the benchmark's own memory does not grow with the number
    of ops: peak_rss_mb is an end-to-end metric.
    """

    def __init__(self) -> None:
        self.op_names: list[str] = []
        self._codes: dict[str, int] = {}
        self.codes = array("B")
        self.cpu_s = array("d")
        self.op_start = array("d")  # perf_counter() when the op started and ended
        self.op_end = array("d")
        self.op_wall_s = array("d")
        self.ok = bytearray()
        self.failures: Counter = Counter()  # (op name, error) -> count
        self.properties: dict[str, dict[str, Counter]] = {}
        self.max_residual: dict[str, float] = {}
        self.extras: list[tuple[float, dict[str, Any]]] = []  # (op wall s, extra)
        self.calibrator = Calibrator()
        self.wall_s = 0.0
        # Wall seconds of the benchmark's own work between ops, each part
        # timed where it runs: building inputs, oracles and cleanup, and
        # recording the op.
        self.glue_s = dict.fromkeys(("inputs", "oracle", "record"), 0.0)

    def add(self, name: str, start: float, end: float, wall_s: float, cpu_s: float, ok: bool,
            residual: float | None, error: str | None, case: Case) -> None:
        if name not in self._codes:
            self._codes[name] = len(self.op_names)
            self.op_names.append(name)
        self.codes.append(self._codes[name])
        self.cpu_s.append(cpu_s)
        self.op_start.append(start)
        self.op_end.append(end)
        self.op_wall_s.append(wall_s)
        self.ok.append(ok)
        if not ok:
            self.failures[name, error] += 1
        per_op = self.properties.setdefault(name, {})
        for key, value in case.props.items():
            per_op.setdefault(key, Counter())[str(value)] += 1
        if residual is not None:
            self.max_residual[name] = max(residual, self.max_residual.get(name, 0.0))
        if case.extra:
            self.extras.append((wall_s, case.extra))

    def __len__(self) -> int:
        return len(self.cpu_s)

    @property
    def failed(self) -> int:
        return len(self.ok) - sum(self.ok)

    def failed_ops(self) -> list[int]:
        """Indices of the failed ops: runs of one seed deal the same inputs
        in the same order, so two versions of ncdr compare op by op."""
        return [i for i, ok in enumerate(self.ok) if not ok]

    def calibrated(self) -> list[float]:
        """Each op's CPU time scaled by the kernel samples taken around it."""
        cal = self.calibrator
        return [c * cal.factor(t0, t1) for c, t0, t1 in zip(self.cpu_s, self.op_start, self.op_end)]

    def op_counts(self) -> dict[str, int]:
        counts = Counter(self.codes)
        return {name: counts[i] for i, name in enumerate(self.op_names)}

    def failures_by_op(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (name, error), n in sorted(self.failures.items()):
            out.setdefault(name, {})[error] = n
        return out

    def property_record(self) -> dict[str, Any]:
        """Histogram of every input property the ops reported, by op type."""
        return {
            op: {k: dict(sorted(c.items())) for k, c in props.items()}
            for op, props in self.properties.items()
        }


def run_phase(
    workload: Workload,
    seed: int,
    seconds: float | None,
    tracer=None,
    max_ops: int | None = None,
    calibrate: bool = True,
    whole_decks: bool = False,
) -> Phase:
    """Deal ops until `seconds` of wall time have passed or `max_ops` ops
    have run; with `seconds` None, exactly `max_ops` ops.  With
    `whole_decks`, the phase ends only between decks, so that every run
    holds the same mix of op types whatever the host's speed.

    An op's time is the CPU time of this thread while it ran, less the
    calibration samples taken during it (with `calibrate`; see calib.py).
    On a shared host the OS hands the CPU to other processes for whole time
    slices; CPU time leaves those out, while wall time (kept as context)
    counts them.
    """
    phase = Phase()
    with phase.calibrator if calibrate else contextlib.nullcontext():
        _loop(phase, workload, seed, seconds, tracer, max_ops, whole_decks)
    return phase


def _loop(phase: Phase, workload: Workload, seed: int, seconds: float | None,
          tracer, max_ops: int | None, whole_decks: bool) -> None:
    rng = random.Random(f"{workload.name}/{seed}")
    cal = phase.calibrator
    glue = phase.glue_s
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds if seconds is not None else float("inf")
    deck = workload.deck_size if whole_decks else 1
    for op, variant in workload.deal(rng, seed):
        if len(phase) % deck == 0 and clock() >= deadline:
            break
        if max_ops is not None and len(phase) >= max_ops:
            break
        g0 = clock()
        case = op.make(rng, variant)
        glue["inputs"] += clock() - g0
        if tracer is not None:
            tracer.begin_op(len(phase))
        exc = None
        result = None
        h_wall, h_cpu = cal.spent_wall, cal.spent_cpu
        t0, c0 = clock(), time.thread_time()
        try:
            result = case.run()
        except Exception as e:  # the oracle decides whether this outcome was expected
            exc = e
        t1, c1 = clock(), time.thread_time()
        wall_s = t1 - t0 - (cal.spent_wall - h_wall)
        cpu_s = c1 - c0 - (cal.spent_cpu - h_cpu)
        if tracer is not None:
            tracer.end_op()
        g0 = clock()
        try:
            ok, residual = case.check(result, exc)
        except Exception as e:  # an oracle that cannot read the result fails the op
            ok, residual, exc = False, None, exc or e
        if case.cleanup is not None:
            case.cleanup()
        g1 = clock()
        glue["oracle"] += g1 - g0
        error = None
        if not ok:
            error = type(exc).__name__ if exc is not None else "wrong-result"
        phase.add(op.name, t0, t1, wall_s, cpu_s, ok, residual, error, case)
        glue["record"] += clock() - g1
    phase.wall_s = clock() - start


def warm(workload: Workload) -> None:
    """Fill lazy caches and import paths on a separate stream before timing."""
    if workload.warm_seconds > 0:
        run_phase(workload, seed=-1, seconds=workload.warm_seconds, calibrate=False)
