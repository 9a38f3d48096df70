"""Per-layer spans, recorded from the benchmark's own files.

install() rebinds ncdr's public functions (and a few methods) at every name
other ncdr modules import them by, so calls between layers pass through a
wrapper that records a span: name, start, end, parent span and op id.  Spans
are kept in flat arrays in memory and written out once, at the end.  A span's
self time is its duration minus the time its child spans cover.  Counts are
taken at the same boundaries.  Outside an op the wrappers call straight
through, so oracles and set-up are never traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from ncdr import algebra, cli, dspace, exactla, linmap, ncpoly, parsing, taylor
from ncdr.errors import NoSolution, NonConvergent, NotRepresentable

# The package re-exports the gateaux() function under the module's name.
gateaux = importlib.import_module("ncdr.gateaux")

_now = time.perf_counter_ns

# (module, attribute, span name) for plain function boundaries.
FUNCTIONS = (
    (algebra, "inverse", "algebra.inverse"),
    (exactla, "rref", "exactla.gauss_jordan"),
    (exactla, "solve", "exactla.gauss_jordan"),
    (exactla, "nullspace", "exactla.gauss_jordan"),
    (exactla, "inverse", "exactla.gauss_jordan"),
    (exactla, "min_norm_solution", "exactla.gauss_jordan"),
    (exactla, "rank", "exactla.bareiss"),
    (exactla, "det", "exactla.bareiss"),
    (exactla, "mat_mul", "exactla.mat_mul"),
    (exactla, "mat_vec", "exactla.mat_mul"),
    (linmap, "std_to_coord", "linmap.std_to_coord"),
    (linmap, "coord_to_std", "linmap.coord_to_std"),
    (linmap, "compose_std", "linmap.compose_std"),
    (dspace, "dmatrix_inverse", "dspace.dmatrix_inverse"),
    (gateaux, "gateaux_with_error", "gateaux.engine"),
    (gateaux, "jacobian", "gateaux.jacobian"),
    (gateaux, "second_gateaux", "gateaux.second"),
    (ncpoly, "word_eval", "ncpoly.word_eval"),
    (taylor, "exp", "taylor.exp"),
    (parsing, "parse_ncpoly", "parsing.parse"),
    (parsing, "parse_word_poly", "parsing.parse"),
    (parsing, "parse_element", "parsing.parse"),
    (cli, "main", "verify.run"),
)

# (class, attribute, span name) for method boundaries.
METHODS = (
    (algebra.AlgebraSpec, "__post_init__", "algebra.spec_build"),
    (dspace.DMatrix, "__matmul__", "dspace.matmul"),
    (gateaux.MapEvaluator, "__call__", "gateaux.evaluator"),
    (ncpoly.WordPoly, "rename", "ncpoly.rename"),
    (ncpoly.WordPoly, "derivative", "ncpoly.derivative"),
    (ncpoly.WordPoly, "substitute", "ncpoly.substitute"),
)

# Spans of these names count NonConvergent only where no enclosing span of
# the family exists, so a failure is counted once.
_GATEAUX_SPANS = ("gateaux.engine", "gateaux.jacobian", "gateaux.second", "gateaux.std_components")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.active = False
        self.op_id = -1
        self.op_ns = 0
        self._op_start = 0
        self.counters: Counter = Counter()
        self.taylor_degree: int | None = None
        self._restore: list = []

    # -- span recording ---------------------------------------------------

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = _now()
        self.stack.pop()

    def parent_name(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.span_name[top]]

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True
        self._op_start = _now()

    def end_op(self) -> None:
        self.op_ns += _now() - self._op_start
        self.active = False

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, on_exc=None):
        nid = self.nid(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(idx)
                if on_exc is not None:
                    on_exc(exc)
                raise
            tracer.close(idx)
            return result

        return traced

    def _count_nonconvergent(self, exc: Exception) -> None:
        if isinstance(exc, NonConvergent) and self.parent_name() not in _GATEAUX_SPANS:
            self.counters["gateaux.nonconvergent"] += 1

    def _special(self) -> dict:
        """Wrappers that also take counts at their boundary."""
        c = self.counters
        tracer = self
        orig_mul = algebra.mul
        exact_id, float_id = self.nid("algebra.mul_exact"), self.nid("algebra.mul_float")

        @functools.wraps(orig_mul)
        def mul(x, y):
            if not tracer.active:
                return orig_mul(x, y)
            floaty = type(x.coords[0]) is float or type(y.coords[0]) is float
            idx = tracer.open(float_id if floaty else exact_id)
            try:
                return orig_mul(x, y)
            finally:
                tracer.close(idx)

        orig_big_c = linmap.big_c
        big_c_id = self.nid("linmap.big_c")

        @functools.wraps(orig_big_c)
        def big_c(alg):
            if not tracer.active:
                return orig_big_c(alg)
            misses = orig_big_c.cache_info().misses
            idx = tracer.open(big_c_id)
            try:
                return orig_big_c(alg)
            finally:
                tracer.close(idx)
                missed = orig_big_c.cache_info().misses > misses
                c["linmap.big_c.misses" if missed else "linmap.big_c.hits"] += 1

        directional = self.wrap("gateaux.engine", gateaux._directional, on_exc=self._count_nonconvergent)

        @functools.wraps(gateaux._directional)
        def counted_directional(*args, **kwargs):
            if tracer.active:
                c["gateaux.derivatives"] += 1
            return directional(*args, **kwargs)

        coord_id = self.nid("linmap.coord_to_std")
        std_inner = gateaux.differential_std_components
        std_id = self.nid("gateaux.std_components")

        @functools.wraps(std_inner)
        def std_components(*args, **kwargs):
            if not tracer.active:
                return std_inner(*args, **kwargs)
            first = len(tracer.span_name)
            idx = tracer.open(std_id)

            def count_branch():
                # Only the snap branch calls coord_to_std.
                snapped = coord_id in tracer.span_name[first:]
                c["gateaux.snap" if snapped else "gateaux.lstsq"] += 1

            try:
                result = std_inner(*args, **kwargs)
            except NotRepresentable:
                tracer.close(idx)
                c["gateaux.not_representable"] += 1
                count_branch()
                raise
            except Exception as exc:
                tracer.close(idx)
                tracer._count_nonconvergent(exc)
                raise
            tracer.close(idx)
            count_branch()
            return result

        we_calls = "ncpoly.word_eval.calls"
        orig_word_eval = ncpoly.word_eval
        word_eval_traced = self.wrap("ncpoly.word_eval", orig_word_eval)

        @functools.wraps(orig_word_eval)
        def word_eval(*args, **kwargs):
            if tracer.active:
                c[we_calls] += 1
            return word_eval_traced(*args, **kwargs)

        ext_inner = self.wrap("ncpoly.extensional_equal", ncpoly.extensional_equal)

        @functools.wraps(ncpoly.extensional_equal)
        def extensional_equal(w1, w2):
            if not tracer.active:
                return ext_inner(w1, w2)
            before = c[we_calls]
            result = ext_inner(w1, w2)
            enumerated = c[we_calls] - before
            c["ncpoly.extensional_equal.bindings_enumerated"] += enumerated
            if result and not enumerated:
                c["ncpoly.extensional_equal.formal_hits"] += 1
            return result

        taylor_inner = self.wrap("ncpoly.taylor_poly", ncpoly.taylor_poly)

        @functools.wraps(ncpoly.taylor_poly)
        def taylor_poly(p, y0):
            if not tracer.active:
                return taylor_inner(p, y0)
            outer, tracer.taylor_degree = tracer.taylor_degree, p.degree
            t0 = _now()
            try:
                return taylor_inner(p, y0)
            finally:
                c[f"ncpoly.taylor_poly.d{p.degree}.ns"] += _now() - t0
                c[f"ncpoly.taylor_poly.d{p.degree}.calls"] += 1
                tracer.taylor_degree = outer

        def count_obstructed(exc):
            if isinstance(exc, NoSolution):
                c["taylor.solve_ode.obstructed"] += 1

        build_fn = ncpoly.WordPoly.__dict__["build"].__func__
        build_id = self.nid("ncpoly.build")

        @functools.wraps(build_fn)
        def build(cls, alg, raw):
            if not tracer.active:
                return build_fn(cls, alg, raw)
            raw = list(raw)
            idx = tracer.open(build_id)
            try:
                result = build_fn(cls, alg, raw)
            finally:
                tracer.close(idx)
            c["ncpoly.build.terms_in"] += len(raw)
            c["ncpoly.build.terms_out"] += len(result.terms)
            if tracer.taylor_degree is not None:
                c[f"ncpoly.words_out.d{tracer.taylor_degree}"] += len(result.terms)
            return result

        return {
            "functions": {
                orig_mul: mul,
                orig_big_c: big_c,
                gateaux._directional: counted_directional,
                std_inner: std_components,
                orig_word_eval: word_eval,
                ncpoly.extensional_equal: extensional_equal,
                ncpoly.taylor_poly: taylor_poly,
                taylor.solve_ode_taylor: self.wrap(
                    "taylor.solve_ode", taylor.solve_ode_taylor, on_exc=count_obstructed
                ),
            },
            "methods": [(ncpoly.WordPoly, "build", classmethod(build))],
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced callable wherever an ncdr module holds it.

        The benchmark's workloads call ncdr through module attributes
        (linmap.std_to_coord, ...), so rebinding inside ncdr reaches them too.
        """
        special = self._special()
        replace = dict(special["functions"])
        for module, attr, name in FUNCTIONS:
            fn = getattr(module, attr)
            on_exc = self._count_nonconvergent if name in _GATEAUX_SPANS else None
            replace.setdefault(fn, self.wrap(name, fn, on_exc=on_exc))
        by_id = {id(k): v for k, v in replace.items()}
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "ncdr" or n.startswith("ncdr."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                new = by_id.get(id(value))
                if new is not None:
                    setattr(module, attr, new)
                    self._restore.append((module, attr, value))
        for cls, attr, name in METHODS:
            old = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, old))
            self._restore.append((cls, attr, old))
        for cls, attr, new in special["methods"]:
            self._restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.int64),
            "end": np.frombuffer(self.span_end, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Self time and outermost call count per span name, and root time."""
        a = self.arrays()
        k = len(self.names)
        dur = (a["end"] - a["start"]).astype(np.float64)
        parent = a["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = np.bincount(a["name"], weights=dur - child, minlength=k)
        parent_name = np.full(len(dur), -1, dtype=np.int64)
        parent_name[nested] = a["name"][parent[nested]]
        outer = parent_name != a["name"]
        calls = np.bincount(a["name"][outer], minlength=k)
        return {
            "self_ms": {n: float(self_ns[i]) / 1e6 for i, n in enumerate(self.names)},
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "root_ms": float(dur[~nested].sum()) / 1e6,
            "spans": int(len(dur)),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())
