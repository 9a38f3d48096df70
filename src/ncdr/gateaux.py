"""Numeric directional differentiation of black-box maps D -> D.

The limit t^-1 (f(x + t a) - f(x)) is discretized by central differences with
Richardson extrapolation; everything here runs in float coordinates.  The
directional value is scalar-linear in the direction, so Jacobians and
reconstructed standard components reduce to repeated calls of the same
engine along basis directions.

There is one engine with one fixed step schedule: LEVELS central differences
at steps BASE_STEP / RATIO^k, extrapolated in t^2, and one fixed relative
tolerance REL_TOL for its convergence test.  The zero direction takes the
general path: its samples f(x) - f(x) are 0, so it returns 0 with error 0.0
where f is defined and finite at x, and raises what f raises where it is not.

The stencil is sampled eagerly, f on x + t a then on x - t a at each step,
and each coordinate then runs its own Neville table, in plain Python floats.
The Jacobian's snap stops at the first entry no small fraction is near; the
least-squares solve multiplies by big_c's exact pseudo-inverse in floats.  A
NaN or infinite extrapolant or error estimate raises NonConvergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import AlgebraSpec, Element, _float_coords, _float_element, mul, norm_float
from .errors import NcdrError, NonConvergent, NotRepresentable
from .linmap import CoordMatrix, StdComponents, StdSolution, big_c, coord_to_std
from .linmap import _float_rows_vec, _square

# The step schedule.  BASE_STEP is a power of two: with RATIO 2 every step is
# an exact binary fraction, so x +- t a and the division by 2t round nothing
# for dyadic x and a, and rounding in f alone sets the error floor.
BASE_STEP = 2.0**-6
RATIO = 2.0
LEVELS = 4
#: The steps BASE_STEP / RATIO^k, k = 0 .. LEVELS - 1, largest first.
STEPS = tuple(BASE_STEP / RATIO**k for k in range(LEVELS))
#: Relative tolerance of the convergence test of every first derivative.
REL_TOL = 1e-8
#: Relative tolerance of second_gateaux's outer extrapolation.
SECOND_ORDER_TOL = 1e-6
# differential_std_components snaps Jacobian entries within SNAP_TOL of a
# fraction of denominator <= SNAP_DENOMINATOR; otherwise the least-norm
# components come from big_c's pseudo-inverse in floats, and a residual above
# LSTSQ_RESIDUAL_TOL means the differential is not representable.
SNAP_DENOMINATOR = 64
SNAP_TOL = 1e-7
LSTSQ_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class MapEvaluator:
    """A deterministic black-box map D -> D: fn takes one element of alg and
    returns one."""

    alg: AlgebraSpec
    fn: Callable[[Element], Element]

    @classmethod
    def unary(cls, alg: AlgebraSpec, f: Callable[[Element], Element]) -> "MapEvaluator":
        return cls(alg, f)

    def __call__(self, x: Element) -> Element:
        return self.fn(x)


def _richardson(rows: list[list[float]], tol: float, message: str) -> tuple[list[float], float]:
    """Extrapolate the LEVELS sample rows, one per step, in t^2.

    Each coordinate runs its own Neville table: column m divides by
    RATIO^(2m) - 1 = 3, 15, 63.  The error estimate is the final Neville
    correction, the change the last extrapolation order made.  It estimates
    the remaining error and does not bound it: rounding in f is not in it,
    and for inverse over H the true error exceeded it at most of 2,000
    dyadic points, by a median of 60x.  Unless it is finite and at most tol
    times the scale max(1, |value|), NonConvergent is raised with message
    formatted from error and scale.
    """
    best, diffs = [], []
    for s0, s1, s2, s3 in zip(*rows):
        t11 = s1 + (s1 - s0) / 3.0
        t21 = s2 + (s2 - s1) / 3.0
        t22 = t21 + (t21 - t11) / 15.0
        t31 = s3 + (s3 - s2) / 3.0
        t32 = t31 + (t31 - t21) / 15.0
        t33 = t32 + (t32 - t22) / 63.0
        best.append(t33)
        diffs.append(abs(t33 - t32))
    # max skips a NaN that is not first; the sum of magnitudes does not.
    err = math.nan if math.isnan(sum(diffs)) else max(diffs)
    scale = math.nan if math.isnan(sum(map(abs, best))) else max(1.0, *map(abs, best))
    # A non-finite error fails, so no NaN or infinity passes as a derivative.
    if not (math.isfinite(err) and err <= tol * scale):
        raise NonConvergent(
            message.format(error=err, scale=scale), error=err, scale=scale, step=BASE_STEP
        )
    return best, err


def _stencil(f: Callable[[Element], Element], x: Element, a: Element) -> list[list[float]]:
    """Rows (f(x + t a) - f(x - t a)) / 2t for t in STEPS, f on x + t a first.

    x and a are float, x - t a is x + (-t) a as (-t) v == -(t v) exactly, and
    f may return an exact element, as maps.constant does.
    """
    alg, xc, ac = x.alg, x.coords, a.coords
    rows = []
    for t in STEPS:
        plus = _float_coords(f(_float_element(alg, tuple([u + t * v for u, v in zip(xc, ac)]))))
        minus = _float_coords(f(_float_element(alg, tuple([u + -t * v for u, v in zip(xc, ac)]))))
        rows.append([(p - m) / (2.0 * t) for p, m in zip(plus, minus)])
    return rows


def _directional(f: MapEvaluator, x: Element, a: Element) -> tuple[list[float], float]:
    try:
        return _richardson(
            _stencil(f, x, a), REL_TOL, "extrapolants disagree by {error:.3e} (scale {scale:.3e})"
        )
    except NonConvergent as exc:
        # A pole at x itself (an inverse at 0) only shows as disagreement.
        try:
            f(x)
        except NcdrError as cause:
            raise cause from exc
        raise


def gateaux_with_error(f: MapEvaluator, x: Element, a: Element) -> tuple[Element, float]:
    """Directional derivative and its extrapolation error estimate, which is
    an estimate of the error and not a bound on it (see _richardson)."""
    value, err = _directional(f, x.to_float(), a.to_float())
    return _float_element(f.alg, tuple(value)), err


def gateaux(f: MapEvaluator, x: Element, a: Element) -> Element:
    """Directional derivative of f at x along a (zero where a = 0 and f is defined)."""
    return gateaux_with_error(f, x, a)[0]


def second_gateaux(f: MapEvaluator, x: Element, a1: Element, a2: Element) -> Element:
    """Iterated derivative d(df(x)(a1))(a2) by nested central differences.

    The outer extrapolation is held to SECOND_ORDER_TOL.
    """
    x, a1, a2 = x.to_float(), a1.to_float(), a2.to_float()

    def g(y: Element) -> Element:
        return _float_element(f.alg, tuple(_directional(f, y, a1)[0]))

    value, _ = _richardson(
        _stencil(g, x, a2), SECOND_ORDER_TOL, "second-order extrapolants disagree by {error:.3e}"
    )
    return _float_element(f.alg, tuple(value))


def mixed_partial_residual(f: MapEvaluator, x: Element, a1: Element, a2: Element) -> float:
    """Swap-symmetry defect of the iterated second derivative."""
    d12 = second_gateaux(f, x, a1, a2)
    d21 = second_gateaux(f, x, a2, a1)
    return norm_float(d12 - d21)


def jacobian(f: MapEvaluator, x: Element) -> tuple[tuple[float, ...], ...]:
    """Real Jacobian as float rows: entry (j, i) is the derivative of output
    coordinate j with respect to input coordinate i, by central differences."""
    x = x.to_float()
    n = f.alg.dim
    cols = [_directional(f, x, _float_element(f.alg, tuple(float(i == c) for i in range(n))))[0]
            for c in range(n)]
    return tuple(zip(*cols))


def differential_std_components(f: MapEvaluator, x: Element) -> StdSolution:
    """Standard components of the differential at x, from its Jacobian."""
    return jacobian_std_components(f.alg, jacobian(f, x))


def jacobian_std_components(alg: AlgebraSpec, rows: tuple[tuple[float, ...], ...]) -> StdSolution:
    """Standard components of the map whose Jacobian is rows (float rows J).

    Entries snap to fractions of denominator <= SNAP_DENOMINATOR within SNAP_TOL,
    up to the first that does not; if all do, the map is solved exactly.  Else the
    least-norm components are big_c's pseudo-inverse times vec(J) in floats, and
    the residual max |mat x - vec(J)| decides representability at LSTSQ_RESIDUAL_TOL.
    """
    n = alg.dim
    b = [v for row in rows for v in row]
    snapped = []
    for v in b:
        s = Fraction(v).limit_denominator(SNAP_DENOMINATOR)
        if not abs(float(s) - v) <= SNAP_TOL:
            break
        snapped.append(s)
    else:
        return coord_to_std(CoordMatrix(alg, _square(snapped, n)))
    if not all(map(math.isfinite, b)):
        list(map(Fraction, b))  # NaN or infinity raises as in a full snap
    B = big_c(alg)
    sol = _float_rows_vec(B.pinv_rows, b)
    residual = max(abs(v - w) for v, w in zip(_float_rows_vec(B.mat_rows, sol), b))
    if residual > LSTSQ_RESIDUAL_TOL:
        raise NotRepresentable(
            f"Jacobian is {residual:.3e} away from the representable subspace",
            residual=residual,
        )
    return StdSolution(StdComponents(alg, _square(sol, n)), unique=B.rank == n * n)


def verify_product_rule(f: MapEvaluator, g: MapEvaluator, x: Element, a: Element) -> float:
    """Residual of d(fg)(x)(a) = df(x)(a) g(x) + f(x) dg(x)(a)."""
    x, a = x.to_float(), a.to_float()
    product = MapEvaluator.unary(f.alg, lambda y: mul(f(y), g(y)))
    lhs = gateaux(product, x, a)
    rhs = mul(gateaux(f, x, a), g(x)) + mul(f(x), gateaux(g, x, a))
    return norm_float(lhs - rhs)


def verify_chain_rule(g: MapEvaluator, f: MapEvaluator, x: Element, a: Element) -> float:
    """Residual of d(g o f)(x)(a) = dg(f(x))(df(x)(a))."""
    x, a = x.to_float(), a.to_float()
    composed = MapEvaluator.unary(f.alg, lambda y: g(f(y)))
    lhs = gateaux(composed, x, a)
    rhs = gateaux(g, f(x), gateaux(f, x, a))
    return norm_float(lhs - rhs)

