"""The names the benchmark under bench/ binds in ncdr still exist.

The workloads import ncdr names at module level and the tracer rebinds
functions and methods by name when it installs, so importing every workload
and installing the tracer once touches each name the benchmark depends on.
"""

import importlib
import sys
from pathlib import Path

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
