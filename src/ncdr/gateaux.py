"""Numeric directional differentiation of black-box maps between algebras.

The limit t^-1 (f(x + t a) - f(x)) is discretized by central differences with
Richardson extrapolation; everything here runs in float coordinates.  The
directional value is scalar-linear in the direction, so Jacobians, operator
norms and reconstructed standard components all reduce to repeated calls of
the same engine along basis directions.

The samples and the Neville table are plain lists of Python floats, one
float operation per coordinate.  numpy serves only where whole matrices
are: the Jacobian array, the least-squares solve, the SVD and the sampled
norm.  A derivative whose extrapolants or error estimate are NaN or
infinite raises NonConvergent instead of passing as a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .algebra import AlgebraSpec, Element, inverse, mul, norm_float, norm_sq
from .errors import (
    IndexOutOfRange,
    NonConvergent,
    NotRepresentable,
    ZeroDirection,
)
from .linmap import CoordMatrix, StdComponents, StdSolution, big_c, coord_to_std

Point = Union[Element, Sequence[Element]]


@dataclass(frozen=True)
class DiffConfig:
    """Step policy for the difference engine and its downstream thresholds."""

    # A power of two: with ratio 2 every step is an exact binary fraction, so
    # x +- t a and the division by 2t round nothing for dyadic x and a, and
    # rounding in f alone sets the error floor of the differences.
    base_step: float = 2.0**-6
    levels: int = 4
    ratio: float = 2.0
    rel_tol: float = 1e-8
    snap_denominator: int = 64
    snap_tol: float = 1e-7
    lstsq_residual_tol: float = 1e-6
    norm_samples: int = 10_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_step) and self.base_step > 0):
            raise ValueError(f"base step must be finite and positive: {self.base_step!r}")
        if not (math.isfinite(self.ratio) and self.ratio > 1):
            raise ValueError(f"step ratio must be finite and above 1: {self.ratio!r}")
        if self.levels < 2:
            raise ValueError("need at least two extrapolation levels")
        # The smallest step must not underflow to 0 (a division by zero) nor
        # the largest Neville factor ratio^(2 (levels - 1)) overflow.
        try:
            smallest = self.base_step / (self.ratio * self.ratio) ** (self.levels - 1)
        except OverflowError:
            smallest = 0.0
        if not smallest > 0:
            raise ValueError("steps leave the float range at this ratio and level count")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"relative tolerance must be finite and positive: {self.rel_tol!r}")


DEFAULT_CONFIG = DiffConfig()


@dataclass(frozen=True)
class MapEvaluator:
    """A deterministic black-box map between coordinate spaces of algebras."""

    domain: tuple[AlgebraSpec, int]
    codomain: tuple[AlgebraSpec, int]
    fn: Callable[[tuple[Element, ...]], tuple[Element, ...]]

    @classmethod
    def unary(
        cls, alg: AlgebraSpec, f: Callable[[Element], Element], out_alg: AlgebraSpec | None = None
    ) -> "MapEvaluator":
        return cls(
            domain=(alg, 1),
            codomain=(out_alg or alg, 1),
            fn=lambda args: (f(args[0]),),
        )

    @classmethod
    def nary(
        cls,
        alg: AlgebraSpec,
        arity: int,
        f: Callable[..., Element],
        out_alg: AlgebraSpec | None = None,
    ) -> "MapEvaluator":
        return cls(
            domain=(alg, arity),
            codomain=(out_alg or alg, 1),
            fn=lambda args: (f(*args),),
        )

    def __call__(self, args: tuple[Element, ...]) -> tuple[Element, ...]:
        out = self.fn(args)
        if len(out) != self.codomain[1]:
            raise ValueError("evaluator returned wrong arity")
        return out


def _as_tuple(f: MapEvaluator, point: Point) -> tuple[Element, ...]:
    arity = f.domain[1]
    if isinstance(point, Element):
        if arity != 1:
            raise ValueError(f"expected {arity} elements")
        return (point,)
    return tuple(point)


def _floats(elems: tuple[Element, ...]) -> tuple[Element, ...]:
    return tuple(e.to_float() for e in elems)


def _unflatten(alg: AlgebraSpec, arity: int, flat: list[float]) -> tuple[Element, ...]:
    n = alg.dim
    return tuple(Element(alg, tuple(flat[k * n : (k + 1) * n])) for k in range(arity))


def _wrap(f: MapEvaluator, out: tuple[Element, ...]):
    return out[0] if f.codomain[1] == 1 else out


def _richardson(sample: Callable[[float], list[float]], cfg: DiffConfig) -> tuple[list[float], float]:
    """Extrapolate a central-difference sample with error series in t^2.

    The error estimate is the final Neville correction, which bounds the
    remaining error one extrapolation order above the returned value's.  It
    is NaN or infinite whenever any extrapolant is.
    """
    r2 = cfg.ratio * cfg.ratio
    t = cfg.base_step
    row: list[list[float]] = []
    for k in range(cfg.levels):
        prev, row = row, [sample(t / cfg.ratio**k)]
        for m in range(1, k + 1):
            d = r2**m - 1
            row.append([c + (c - q) / d for c, q in zip(row[m - 1], prev[m - 1])])
    best = row[-1]
    diffs = [abs(b - q) for b, q in zip(best, row[-2])]
    # max skips a NaN that is not first; the sum of the differences does not.
    err = math.nan if math.isnan(sum(diffs)) else max(diffs)
    return best, err


def _directional(
    f: MapEvaluator, x: tuple[Element, ...], a: tuple[Element, ...], cfg: DiffConfig
) -> tuple[list[float], float]:
    # x and a hold float coordinates, so x + t a is built coordinate-wise;
    # (-t) v == -(t v) exactly, so x - t a is shifted(-t).
    parts = [(xi.alg, xi.coords, ai.coords) for xi, ai in zip(x, a)]

    def shifted(t: float) -> tuple[Element, ...]:
        return tuple(
            Element(alg, tuple([u + t * v for u, v in zip(xc, ac)])) for alg, xc, ac in parts
        )

    def sample(t: float) -> list[float]:
        # float(): a map may return exact coordinates, as maps.constant does.
        out = zip(f(shifted(t)), f(shifted(-t)))
        return [(float(p) - float(m)) / (2.0 * t) for e, o in out for p, m in zip(e.coords, o.coords)]

    value, err = _richardson(sample, cfg)
    scale = max(1.0, *map(abs, value))
    # A non-finite error fails, so no NaN or infinity passes as a derivative.
    if not (math.isfinite(err) and err <= cfg.rel_tol * scale):
        raise NonConvergent(
            f"extrapolants disagree by {err:.3e} (scale {scale:.3e})",
            error=err,
            scale=scale,
            step=cfg.base_step,
        )
    return value, err


def gateaux_with_error(
    f: MapEvaluator, x: Point, a: Point, cfg: DiffConfig = DEFAULT_CONFIG
):
    """Directional derivative and its extrapolation error estimate."""
    xt = _floats(_as_tuple(f, x))
    at = _floats(_as_tuple(f, a))
    if all(e.is_zero() for e in at):
        # df(x)(0) = 0 only where f is defined: evaluating f at x raises at
        # an undefined point, as every other direction would.
        f(xt)
        zero = tuple(f.codomain[0].zero.to_float() for _ in range(f.codomain[1]))
        return _wrap(f, zero), 0.0
    value, err = _directional(f, xt, at, cfg)
    return _wrap(f, _unflatten(f.codomain[0], f.codomain[1], value)), err


def gateaux(f: MapEvaluator, x: Point, a: Point, cfg: DiffConfig = DEFAULT_CONFIG):
    """Directional derivative of f at x along a (zero where a = 0 and f is defined)."""
    return gateaux_with_error(f, x, a, cfg)[0]


def _require_scalar_map(f: MapEvaluator) -> None:
    if f.domain[1] != 1 or f.codomain[1] != 1:
        raise ValueError("directional-ratio derivatives need a map D -> D")


def dstar(f: MapEvaluator, x: Element, a: Element, cfg: DiffConfig = DEFAULT_CONFIG) -> Element:
    """Left-extracted derivative a^{-1} * df(x)(a); constant on real rays."""
    _require_scalar_map(f)
    a = a.to_float()
    if not norm_sq(a):
        raise ZeroDirection("derivative undefined along a direction of zero norm")
    return mul(inverse(a), gateaux(f, x, a, cfg))


def star_d(f: MapEvaluator, x: Element, a: Element, cfg: DiffConfig = DEFAULT_CONFIG) -> Element:
    """Right-extracted derivative df(x)(a) * a^{-1}."""
    _require_scalar_map(f)
    a = a.to_float()
    if not norm_sq(a):
        raise ZeroDirection("derivative undefined along a direction of zero norm")
    return mul(gateaux(f, x, a, cfg), inverse(a))


def partial_gateaux(
    f: MapEvaluator, x: Sequence[Element], i: int, h: Element, cfg: DiffConfig = DEFAULT_CONFIG
):
    """Directional derivative perturbing only argument slot i."""
    arity = f.domain[1]
    if not 0 <= i < arity:
        raise IndexOutOfRange(f"slot {i} outside arity {arity}")
    direction = tuple(h if k == i else f.domain[0].zero for k in range(arity))
    return gateaux(f, tuple(x), direction, cfg)


def second_gateaux(
    f: MapEvaluator, x: Element, a1: Element, a2: Element, cfg: DiffConfig = DEFAULT_CONFIG
):
    """Iterated derivative d(df(x)(a1))(a2) by nested central differences."""
    inner_cfg = cfg
    outer_cfg = replace(cfg, rel_tol=max(cfg.rel_tol, 1e-6))
    x = x.to_float()
    a1 = a1.to_float()
    a2 = a2.to_float()

    def g(y: Element) -> list[float]:
        value, _ = _directional(f, (y,), (a1,), inner_cfg)
        return value

    def sample(t: float) -> list[float]:
        return [(p - m) / (2.0 * t) for p, m in zip(g(x + t * a2), g(x - t * a2))]

    value, err = _richardson(sample, outer_cfg)
    scale = max(1.0, *map(abs, value))
    if not (math.isfinite(err) and err <= outer_cfg.rel_tol * scale):
        raise NonConvergent(
            f"second-order extrapolants disagree by {err:.3e}",
            error=err,
            scale=scale,
            step=outer_cfg.base_step,
        )
    return _wrap(f, _unflatten(f.codomain[0], f.codomain[1], value))


def mixed_partial_residual(
    f: MapEvaluator, x: Element, a1: Element, a2: Element, cfg: DiffConfig = DEFAULT_CONFIG
) -> float:
    """Swap-symmetry defect of the iterated second derivative."""
    d12 = second_gateaux(f, x, a1, a2, cfg)
    d21 = second_gateaux(f, x, a2, a1, cfg)
    return norm_float(d12 - d21)


def jacobian(f: MapEvaluator, x: Point, cfg: DiffConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Real Jacobian: entry (j, i) is the derivative of output coordinate j
    with respect to input coordinate i, by central differences."""
    xt = _floats(_as_tuple(f, x))
    alg_in, arity_in = f.domain
    n_in = alg_in.dim
    zero = Element(alg_in, (0.0,) * n_in)
    units = [Element(alg_in, tuple(float(i == c) for i in range(n_in))) for c in range(n_in)]
    cols = []
    for slot in range(arity_in):
        for unit in units:
            direction = tuple(unit if k == slot else zero for k in range(arity_in))
            col, _ = _directional(f, xt, direction, cfg)
            cols.append(col)
    return np.array(list(zip(*cols)))


def differential_std_components(
    f: MapEvaluator, x: Element, cfg: DiffConfig = DEFAULT_CONFIG
) -> StdSolution:
    """Standard components of the differential at x, via the Jacobian.

    Entries near small rationals (denominator <= snap_denominator, within
    snap_tol) are snapped and solved exactly; otherwise a float least-squares
    solve decides representability at lstsq_residual_tol.
    """
    _require_scalar_map(f)
    alg = f.domain[0]
    n = alg.dim
    jac = jacobian(f, x, cfg)
    snapped = [[Fraction(float(jac[j, i])).limit_denominator(cfg.snap_denominator)
                for i in range(n)] for j in range(n)]
    if all(
        abs(float(snapped[j][i]) - float(jac[j, i])) <= cfg.snap_tol
        for j in range(n)
        for i in range(n)
    ):
        return coord_to_std(CoordMatrix.from_rows(alg, snapped))
    B = big_c(alg)
    A = B.float_mat
    b = jac.ravel()
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.max(np.abs(A @ sol - b)))
    if residual > cfg.lstsq_residual_tol:
        raise NotRepresentable(
            f"Jacobian is {residual:.3e} away from the representable subspace",
            residual=residual,
        )
    comps = tuple(tuple(float(sol[k * n + r]) for r in range(n)) for k in range(n))
    return StdSolution(StdComponents(alg, comps), unique=B.rank == n * n)


def verify_product_rule(
    f: MapEvaluator, g: MapEvaluator, x: Element, a: Element, cfg: DiffConfig = DEFAULT_CONFIG
) -> float:
    """Residual of d(fg)(x)(a) = df(x)(a) g(x) + f(x) dg(x)(a)."""
    x = x.to_float()
    a = a.to_float()
    product = MapEvaluator.unary(f.domain[0], lambda y: mul(f((y,))[0], g((y,))[0]))
    lhs = gateaux(product, x, a, cfg)
    rhs = mul(gateaux(f, x, a, cfg), g((x,))[0]) + mul(f((x,))[0], gateaux(g, x, a, cfg))
    return norm_float(lhs - rhs)


def verify_chain_rule(
    g: MapEvaluator, f: MapEvaluator, x: Element, a: Element, cfg: DiffConfig = DEFAULT_CONFIG
) -> float:
    """Residual of d(g o f)(x)(a) = dg(f(x))(df(x)(a))."""
    x = x.to_float()
    a = a.to_float()
    composed = MapEvaluator.unary(f.domain[0], lambda y: g((f((y,))[0],))[0])
    lhs = gateaux(composed, x, a, cfg)
    rhs = gateaux(g, f((x,))[0], gateaux(f, x, a, cfg), cfg)
    return norm_float(lhs - rhs)


def differential_norm(f: MapEvaluator, x: Element, cfg: DiffConfig = DEFAULT_CONFIG) -> float:
    """Operator norm of the differential: the Jacobian's top singular value.

    Cross-checked against a sampled supremum over random unit directions;
    the Euclidean coordinate norm makes the singular value exact.
    """
    jac = jacobian(f, x, cfg)
    sigma = float(np.linalg.svd(jac, compute_uv=False)[0])
    rng = np.random.default_rng(12345)
    dirs = rng.normal(size=(cfg.norm_samples, jac.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sampled = float(np.max(np.linalg.norm(dirs @ jac.T, axis=1)))
    if sampled > sigma + 1e-6:
        raise NonConvergent(
            f"sampled direction norm {sampled:.9f} exceeds singular value {sigma:.9f}",
            error=sampled - sigma,
            scale=sigma,
        )
    return sigma
