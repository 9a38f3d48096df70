"""Seeded input draws, following the distributions of ncdr's own acceptance checks.

Only the generated values reach ncdr; the draws themselves use no ncdr code
beyond building elements from coordinates.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ncdr.algebra import AlgebraSpec, Element
from ncdr.linmap import StdComponents


def rational(rng: random.Random, hi: int = 5, den: int = 4) -> Fraction:
    """As verify._random_fraction: numerator in [-hi, hi], denominator in [1, den]."""
    return Fraction(rng.randint(-hi, hi), rng.randint(1, den))


def element(rng: random.Random, alg: AlgebraSpec) -> Element:
    return alg.element([rational(rng) for _ in range(alg.dim)])


def nonzero_element(rng: random.Random, alg: AlgebraSpec) -> Element:
    while True:
        coords = [rational(rng) for _ in range(alg.dim)]
        if any(coords):
            return alg.element(coords)


def std_components(rng: random.Random, alg: AlgebraSpec) -> StdComponents:
    n = alg.dim
    return StdComponents.from_rows(alg, [[rational(rng) for _ in range(n)] for _ in range(n)])


def numeric_direction(rng: random.Random, alg: AlgebraSpec) -> Element:
    """As verify._numeric_direction: coordinates k/1 or k/2 with |k| <= 2."""
    return alg.element([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(alg.dim)])


def numeric_point(rng: random.Random, alg: AlgebraSpec) -> Element:
    """As verify._numeric_point: a numeric direction of norm at least 1."""
    while True:
        x = numeric_direction(rng, alg)
        if sum(c * c for c in x.coords) >= 1:
            return x


def coarse_point(rng: random.Random, alg: AlgebraSpec, den: int = 97) -> Element:
    """A point whose coordinates have a large prime denominator (norm at least 1)."""
    while True:
        coords = [Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(alg.dim)]
        if sum(c * c for c in coords) >= 1:
            return alg.element(coords)
