"""numeric-diff: the float Gateaux engine, checked against exact closed forms.

Why: a batched numpy float path shows here, and so do the jacobian-versus-
single-direction and snap-versus-lstsq splits.  It uses almost none of the
exact kernel, so an exact-path change should leave it unchanged.  The timed
exp op takes theta over one full turn, [0, 2 pi), where exp meets its
tolerance, so that every timed op can succeed.  exp's known precision defect
above that, up to theta = 40, is measured by exp_defect_probe() and reported
beside the run's result rather than hidden.
"""

from __future__ import annotations

import importlib
import math
import random
from fractions import Fraction

import numpy as np

from ncdr import algebra, linmap, maps, taylor
from ncdr.errors import NotInvertible, NotRepresentable
from ncdr.gateaux import MapEvaluator

from . import draws
from .harness import Case, OpType, Workload

# The package re-exports the gateaux() function under the module's name.
gateaux = importlib.import_module("ncdr.gateaux")

H = algebra.QUATERNIONS
C = algebra.COMPLEX

TABLE_TOL = 1e-8
RULE_TOL = 1e-7
MIXED_TOL = 1e-6
EXP_TOL = 1e-12


def _rel(got, want) -> float:
    """|got - want| / max(1, |want|) in the Euclidean coordinate norm."""
    diff = algebra.norm_float(got - want.to_float())
    return diff / max(1.0, algebra.norm_float(want))


# -- derivative-table rows: (map, exact closed-form derivative) ------------

def _table_row(rng: random.Random, row: str):
    x = draws.numeric_point(rng, H)
    h = draws.numeric_direction(rng, H)
    b, c, a = (draws.numeric_direction(rng, H) for _ in range(3))
    mul = algebra.mul
    if row == "constant":
        return x, h, maps.constant(b), lambda: H.zero
    if row == "b*f(x)*c":
        f = MapEvaluator.unary(H, lambda y: algebra.mul(algebra.mul(b, algebra.mul(y, y)), c))
        return x, h, f, lambda: mul(mul(b, mul(x, h) + mul(h, x)), c)
    if row == "b*x*c":
        return x, h, maps.two_sided(b, c), lambda: mul(mul(b, h), c)
    if row == "x*b-b*x":
        return x, h, maps.commutator(b), lambda: mul(h, b) - mul(b, h)
    if row == "x^2":
        return x, h, maps.square(H), lambda: mul(x, h) + mul(h, x)
    if row == "x^-1":
        def closed():
            xi = algebra.inverse(x)
            return -mul(mul(xi, h), xi)
        return x, h, maps.invert(H), closed
    if row == "x*a*x^-1":
        def closed():
            xi = algebra.inverse(x)
            return mul(mul(h, a), xi) - mul(mul(mul(mul(x, a), xi), h), xi)
        return x, h, maps.sandwich(a), closed
    raise ValueError(row)


TABLE_ROWS = ("constant", "b*f(x)*c", "b*x*c", "x*b-b*x", "x^2", "x^-1", "x*a*x^-1")


def _table(rng: random.Random, row: str) -> Case:
    x, h, f, closed = _table_row(rng, row)

    def run():
        return gateaux.gateaux(f, x, h)

    def check(got, exc):
        if exc is not None:
            return False, None
        r = _rel(got, closed())
        return r <= TABLE_TOL, r

    return Case(run, check, {"row": row})


# -- closed-form differentials of the builtin maps --------------------------

def _differential(name: str, x, h):
    """Exact df(x)(h) of maps.BUILTINS[name]."""
    mul = algebra.mul
    if name == "identity":
        return h
    if name == "square":
        return mul(x, h) + mul(h, x)
    if name == "cube":
        return mul(mul(h, x), x) + mul(mul(x, h), x) + mul(mul(x, x), h)
    if name == "inverse":
        xi = algebra.inverse(x)
        return -mul(mul(xi, h), xi)
    if name == "conj":
        return algebra.conj(h)
    if name == "normsq":
        return mul(algebra.conj(h), x) + mul(algebra.conj(x), h)
    raise ValueError(name)


def _exact_jacobian(name: str, alg, x) -> list[list[Fraction]]:
    """Entry (j, i): coordinate j of df(x)(e_i)."""
    cols = [_differential(name, x, alg.basis(i)).coords for i in range(alg.dim)]
    return [[Fraction(cols[i][j]) for i in range(alg.dim)] for j in range(alg.dim)]


def _jac_residual(got: np.ndarray, exact) -> float:
    want = np.array([[float(v) for v in row] for row in exact])
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


JACOBIAN_MAPS = ("identity", "square", "cube", "inverse", "conj", "normsq")


def _jacobian(rng: random.Random, variant) -> Case:
    alg_name, name = variant
    alg = H if alg_name == "H" else C
    x = draws.numeric_point(rng, alg)
    f = maps.BUILTINS[name](alg)

    def run():
        return gateaux.jacobian(f, x)

    def check(jac, exc):
        if exc is not None:
            return False, None
        r = _jac_residual(jac, _exact_jacobian(name, alg, x))
        return r <= TABLE_TOL, r

    return Case(run, check, {"alg": alg_name, "map": name})


def _c_linear(J) -> bool:
    """A real 2x2 Jacobian is C-linear (representable over C) iff it has the
    form [[a, -b], [b, a]]."""
    return J[0][0] == J[1][1] and J[0][1] == -J[1][0]


def _std_components(rng: random.Random, variant) -> Case:
    alg_name, branch, name = variant
    alg = H if alg_name == "H" else C
    # Small-denominator points give Jacobians that snap to exact rationals;
    # denominator-97 points do not, and take the float least-squares branch.
    x = draws.numeric_point(rng, alg) if branch == "snap" else draws.coarse_point(rng, alg)
    f = maps.BUILTINS[name](alg)

    props = {"alg": alg_name, "branch": branch, "map": name}

    def run():
        return gateaux.differential_std_components(f, x)

    def check(sol, exc):
        exact = _exact_jacobian(name, alg, x)
        representable = alg is H or _c_linear(exact)
        if isinstance(exc, NotRepresentable):
            props["observed"] = "raised"
            return not representable, None
        if exc is not None or not representable:
            return False, None
        if sol.unique != (alg is H):
            return False, None
        coords = linmap.std_to_coord(sol.components).mat
        if all(isinstance(v, Fraction) for row in sol.components.comps for v in row):
            props["observed"] = "snap"
            return [list(r) for r in coords] == exact, 0.0
        props["observed"] = "lstsq"
        got = np.array([[float(v) for v in row] for row in coords])
        r = _jac_residual(got, exact)
        return r <= TABLE_TOL, r

    return Case(run, check, props)


def _rules(rng: random.Random, _variant) -> Case:
    x = draws.numeric_point(rng, H)
    a = draws.numeric_direction(rng, H)
    b, c = draws.numeric_direction(rng, H), draws.numeric_direction(rng, H)
    family = (maps.square(H), maps.invert(H), maps.two_sided(b, c), maps.cube(H))
    fi, gi = rng.randrange(len(family)), rng.randrange(len(family))
    f, g = family[fi], family[gi]
    # With b or c zero, b*x*c is the zero map, and inverting it is undefined:
    # the chain rule of invert after it must raise NotInvertible.
    undefined = fi == 2 and gi == 1 and (b.is_zero() or c.is_zero())

    def run():
        return gateaux.verify_product_rule(f, g, x, a), gateaux.verify_chain_rule(g, f, x, a)

    def check(out, exc):
        if isinstance(exc, NotInvertible):
            return undefined, None
        if exc is not None or undefined:
            return False, None
        r = max(out)
        return r <= RULE_TOL, r

    return Case(run, check, {"undefined": undefined})


def _mixed(rng: random.Random, _variant) -> Case:
    x = draws.numeric_point(rng, H)
    a1, a2 = draws.numeric_direction(rng, H), draws.numeric_direction(rng, H)
    f = maps.cube(H)

    def run():
        return gateaux.mixed_partial_residual(f, x, a1, a2)

    def check(r, exc):
        if exc is not None:
            return False, None
        return r <= MIXED_TOL, r

    return Case(run, check, {})


EXP_BINS = 5
EXP_TURN = 2 * math.pi
EXP_DEFECT_MAX = 40.0
EXP_DEFECT_PROBES = 40


def _exp_case(rng: random.Random, lo: float, hi: float) -> Case:
    theta = rng.uniform(lo, hi)
    s = rng.uniform(-1.0, 1.0)
    raw = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    scale = math.sqrt(sum(v * v for v in raw))
    u = [v / scale for v in raw]
    x = H.element([s] + [theta * v for v in u])

    def run():
        return taylor.exp(x)

    def check(got, exc):
        if exc is not None:
            return False, None
        es = math.exp(s)
        want = [es * math.cos(theta)] + [es * math.sin(theta) * v for v in u]
        err = math.sqrt(sum((float(g) - w) ** 2 for g, w in zip(got.coords, want)))
        limit = EXP_TOL * max(1.0, es)
        return err <= limit, err / limit

    return Case(run, check, {"theta_bin": f"[{lo:.3g},{hi:.3g})"})


def _exp(rng: random.Random, theta_bin: int) -> Case:
    # theta is uniform over one turn, stratified into EXP_BINS equal bins.
    width = EXP_TURN / EXP_BINS
    return _exp_case(rng, width * theta_bin, width * (theta_bin + 1))


def exp_defect_probe(seed: int, _phase) -> dict[str, object]:
    """exp over the rest of its documented domain, theta in [2 pi, 40], run
    untimed after the timed phase.  exp loses precision to cancellation
    there; the share of probes that miss the tolerance is the defect's
    measure and reads 0 once exp is fixed."""
    rng = random.Random(f"exp-defect/{seed}")
    failed, worst = 0, 0.0
    for _ in range(EXP_DEFECT_PROBES):
        case = _exp_case(rng, EXP_TURN, EXP_DEFECT_MAX)
        try:
            ok, residual = case.check(case.run(), None)
        except Exception:
            ok, residual = False, None
        failed += not ok
        worst = max(worst, residual or 0.0)
    return {
        "op": "exp",
        "theta_range": f"[{EXP_TURN:.4g},{EXP_DEFECT_MAX:g}]",
        "probes": EXP_DEFECT_PROBES,
        "failed": failed,
        "max_residual_over_limit": worst,
    }


_JAC_VARIANTS = tuple(("H", m) for m in JACOBIAN_MAPS) * 2 + tuple(("C", m) for m in JACOBIAN_MAPS)
_STD_VARIANTS = (
    ("H", "snap", "square"), ("H", "snap", "cube"), ("H", "snap", "conj"), ("H", "snap", "identity"),
    ("C", "snap", "square"), ("C", "snap", "conj"), ("C", "snap", "cube"), ("C", "snap", "normsq"),
    ("H", "lstsq", "square"), ("H", "lstsq", "cube"), ("H", "lstsq", "inverse"), ("H", "lstsq", "normsq"),
    ("C", "lstsq", "square"), ("C", "lstsq", "conj"), ("C", "lstsq", "inverse"), ("C", "lstsq", "cube"),
)

WORKLOAD = Workload(
    name="numeric-diff",
    ops=(
        OpType("table-row", _table, TABLE_ROWS * 6),
        OpType("jacobian", _jacobian, _JAC_VARIANTS),
        OpType("std-components", _std_components, _STD_VARIANTS),
        OpType("rules", _rules, (None,) * 16),
        # The slowest op type at 2 slots in 99: p99 falls near the middle of
        # its mode rather than in its noise tail.
        OpType("mixed-partial", _mixed, (None,) * 2),
        OpType("exp", _exp, tuple(range(EXP_BINS))),
    ),
    probe=exp_defect_probe,
)
