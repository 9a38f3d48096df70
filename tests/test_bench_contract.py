"""The benchmark under bench/ still runs against ncdr.

The workloads import ncdr names at module level and the tracer rebinds
functions and methods by name when it installs, so importing every workload
and installing the tracer once touches each name the benchmark depends on.
Each workload's deck is then dealt once with a fixed seed, so every op's own
oracle checks what it calls of ncdr.  verify-all deals seeds, one `verify
all` run per op, so only its untimed probe of check 10 is called here.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = ("wl_exact", "wl_numeric", "wl_symbolic", "wl_verify")


def _ncdr_namespaces():
    return {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if name == "ncdr" or name.startswith("ncdr.")
    }


def test_workloads_import_and_tracer_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in WORKLOADS:
        importlib.import_module(f"ncdrbench.{name}")
    before = _ncdr_namespaces()
    tracer = importlib.import_module("ncdrbench.trace").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    # Uninstalling restores every rebound name for the tests that follow.
    assert _ncdr_namespaces() == before


@pytest.mark.parametrize("name", ("wl_exact", "wl_numeric", "wl_symbolic"))
def test_every_deck_slot_passes_its_check(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("ncdrbench.harness")
    workload = importlib.import_module(f"ncdrbench.{name}").WORKLOAD
    phase = harness.run_phase(workload, seed=0, seconds=None, max_ops=workload.deck_size,
                              calibrate=False)
    assert len(phase) == workload.deck_size
    assert phase.failed == 0, phase.failures_by_op()


def test_verify_all_defect_probe_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    wl_verify = importlib.import_module("ncdrbench.wl_verify")
    assert wl_verify._defect_at(0) is None
    # None also stands for a check that crashed with another error.
    assert wl_verify.verify.run_check(wl_verify.DEFECT_CHECK, 0).passed
