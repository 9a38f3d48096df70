"""Ready-made evaluators for the differentiation engine and the CLI."""

from __future__ import annotations

from .algebra import AlgebraSpec, Element, _float_element, conj, inverse, mul, norm_sq
from .gateaux import MapEvaluator


def identity_map(alg: AlgebraSpec) -> MapEvaluator:
    return MapEvaluator.unary(alg, lambda x: x)


def square(alg: AlgebraSpec) -> MapEvaluator:
    return MapEvaluator.unary(alg, lambda x: mul(x, x))


def cube(alg: AlgebraSpec) -> MapEvaluator:
    return MapEvaluator.unary(alg, lambda x: mul(mul(x, x), x))


def invert(alg: AlgebraSpec) -> MapEvaluator:
    return MapEvaluator.unary(alg, inverse)


def conjugate(alg: AlgebraSpec) -> MapEvaluator:
    return MapEvaluator.unary(alg, conj)


def norm_square(alg: AlgebraSpec) -> MapEvaluator:
    pad = (0.0,) * (alg.dim - 1)
    return MapEvaluator.unary(alg, lambda x: _float_element(alg, (float(norm_sq(x)),) + pad))


def two_sided(b: Element, c: Element) -> MapEvaluator:
    return MapEvaluator.unary(b.alg, lambda x: mul(mul(b, x), c))


def commutator(b: Element) -> MapEvaluator:
    return MapEvaluator.unary(b.alg, lambda x: mul(x, b) - mul(b, x))


def sandwich(a: Element) -> MapEvaluator:
    """x -> x a x^{-1}."""
    return MapEvaluator.unary(a.alg, lambda x: mul(mul(x, a), inverse(x)))


def constant(value: Element) -> MapEvaluator:
    return MapEvaluator.unary(value.alg, lambda x: value)


#: Parameterless builtins addressable from the command line.
BUILTINS = {
    "identity": identity_map,
    "square": square,
    "cube": cube,
    "inverse": invert,
    "conj": conjugate,
    "normsq": norm_square,
}
