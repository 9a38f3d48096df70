"""Finite-dimensional algebras over the rationals defined by structure constants.

An algebra is a basis e_0..e_{n-1} together with a rational tensor C such that
e_k * e_l = sum_p C[k][l][p] * e_p, with e_0 acting as the unit.  The two
canonical instances are the quaternion algebras E(F, a, b) and the complex
field viewed as a 2-dimensional real algebra.

Products run on one of two scalar kernels, picked by the operands' types:
when either operand holds a float coordinate, `mul` converts both coordinate
tuples to float once and accumulates float products over a float copy of the
structure tensor, so the result holds only floats; otherwise it multiplies
exactly.  The float kernel rounds each term as float(a) * float(b) *
float(c), exactly as mixed Fraction/float arithmetic would, so the numeric
differentiation paths see the same values either way.  The exact kernel
works on integers: each operand's coordinates become integer numerators over
the lcm of their denominators, the structure constants integer numerators
over one denominator cached per algebra, and only the final sum of each
output coordinate becomes a Fraction, so one gcd normalizes it.  The
associativity check at construction sums the same integer triples over
pairs sharing an index, so it costs O(t^2) for t nonzero constants, not
O(n^5): the 16-dimensional hyper-dual quaternions validate in milliseconds.

Elements are hashed by their coordinates alone, and the hash is cached on
the element: the canonical forms of `ncpoly` key dictionaries by words of
constant elements, and an uncached Fraction hash costs a modular inverse.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .errors import (
    AlgebraMismatch,
    AxiomViolated,
    DimensionMismatch,
    NotInvertible,
    ParseError,
    WrongDimension,
    ZeroParameter,
)
from .exactla import numerators

# Exact scalar of the algebraic kernel.  Numeric paths substitute float.
Scalar = Fraction
ScalarLike = Union[Fraction, int, float]


def as_scalar(value: ScalarLike) -> ScalarLike:
    """Normalize ints and rational strings to Fraction; floats pass through."""
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise TypeError(f"cannot interpret {value!r} as a scalar")


@dataclass(frozen=True)
class AlgebraSpec:
    """An n-dimensional algebra given by its structure-constant tensor.

    structure[k][l][p] is the e_p-coordinate of e_k * e_l.  conj_signs, when
    present, is the (+1, -1, ..., -1) vector splitting the basis into unit and
    pure part; algebras without that split reject conjugation-dependent
    operations.
    """

    name: str
    dim: int
    # Excluded from the hash: the tensor is large and (name, dim, conj_signs)
    # already discriminates; equality still compares it in full.
    structure: tuple[tuple[tuple[Fraction, ...], ...], ...] = field(hash=False)
    conj_signs: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n = self.dim
        if n <= 0:
            raise DimensionMismatch("dimension must be positive")
        C = self.structure
        if len(C) != n or any(len(row) != n or any(len(v) != n for v in row) for row in C):
            raise DimensionMismatch("structure tensor must be n x n x n")
        if self.conj_signs is not None and len(self.conj_signs) != n:
            raise DimensionMismatch("conj_signs length must equal dim")
        # Unit axiom: e_0 * e_r = e_r * e_0 = e_r.
        for r in range(n):
            for j in range(n):
                delta = Fraction(int(r == j))
                if C[0][r][j] != delta or C[r][0][j] != delta:
                    raise AxiomViolated(f"unit axiom violated at e_0, e_{r}")
        # Associativity: (e_k e_l) e_m == e_k (e_l e_m), as numerators over den^2.
        diff: defaultdict[tuple[int, int, int, int], int] = defaultdict(int)
        _, triples = self._int_triples
        for k, l, p, c1 in triples:
            for s, m, q, c2 in triples:
                if s == p:  # (e_k e_l) e_m through e_p
                    diff[k, l, m, q] += c1 * c2
                if m == p:  # e_s (e_k e_l) through e_p
                    diff[s, k, l, q] -= c1 * c2
        bad = min((key for key, v in diff.items() if v), default=None)
        if bad is not None:
            raise AxiomViolated(f"associativity violated at (e_{bad[0]} e_{bad[1]}) e_{bad[2]}")

    @cached_property
    def _nonzero_triples(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        # Sparse form of the structure tensor; the hot loop of every product.
        n, C = self.dim, self.structure
        return tuple(
            (k, l, p, C[k][l][p])
            for k in range(n) for l in range(n) for p in range(n) if C[k][l][p]
        )

    @cached_property
    def _float_triples(self) -> tuple[tuple[int, int, int, float], ...]:
        # The same sparse tensor with float constants, for the float kernel.
        return tuple((k, l, p, float(c)) for k, l, p, c in self._nonzero_triples)

    @cached_property
    def _int_triples(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        # The same sparse tensor as integer numerators over one common
        # denominator, for the exact kernel: (denominator, triples).
        den = math.lcm(*(c.denominator for *_, c in self._nonzero_triples))
        return den, tuple((k, l, p, int(c * den)) for k, l, p, c in self._nonzero_triples)

    # -- element factories ------------------------------------------------

    def element(self, coords: Sequence[ScalarLike]) -> "Element":
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(coords)}")
        return Element(self, tuple(as_scalar(c) for c in coords))

    def basis(self, i: int) -> "Element":
        return self.element([Fraction(int(j == i)) for j in range(self.dim)])

    def scalar(self, value: ScalarLike) -> "Element":
        coords = [as_scalar(value)] + [Fraction(0)] * (self.dim - 1)
        return self.element(coords)

    @property
    def zero(self) -> "Element":
        return self.scalar(0)

    @property
    def one(self) -> "Element":
        return self.scalar(1)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        flat = [
            str(self.structure[k][l][p])
            for k in range(self.dim)
            for l in range(self.dim)
            for p in range(self.dim)
        ]
        doc = {
            "name": self.name,
            "dim": self.dim,
            "structure": flat,
            "conj_signs": list(self.conj_signs) if self.conj_signs else None,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "AlgebraSpec":
        """Parse to_json's document; ParseError when it is malformed."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"algebra document is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("algebra document must be a JSON object")
        missing = [key for key in ("name", "dim", "structure") if key not in doc]
        if missing:
            raise ParseError(f"algebra document lacks {', '.join(missing)}")
        name, n = doc["name"], doc["dim"]
        if not isinstance(name, str) or type(n) is not int:
            raise ParseError("algebra name must be a string and dim an integer")
        try:
            flat = [Fraction(s) for s in doc["structure"]]
            signs = tuple(int(s) for s in doc.get("conj_signs") or ())
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad structure constant or conj sign: {exc}") from exc
        if len(flat) != n ** 3:
            raise ParseError("structure array must hold dim^3 entries")
        C = tuple(
            tuple(tuple(flat[(k * n + l) * n + p] for p in range(n)) for l in range(n))
            for k in range(n)
        )
        return cls(name=name, dim=n, structure=C, conj_signs=signs or None)


@dataclass(frozen=True)
class Element:
    """An algebra element as its coordinate vector over the scalar field."""

    alg: AlgebraSpec
    coords: tuple[ScalarLike, ...]

    def __hash__(self) -> int:
        # Cached, since a Fraction's hash costs a modular inverse.  Taken from
        # the coordinates alone: Fraction, int and float hashes are the same
        # in every process, so a pickled or copied element keeps a valid one.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash(self.coords)
            return h

    def _check_same(self, other: "Element") -> None:
        if self.alg is not other.alg and self.alg != other.alg:
            raise AlgebraMismatch(
                f"elements of {self.alg.name} and {other.alg.name} cannot mix"
            )

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.alg, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.alg, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.alg, tuple(-a for a in self.coords))

    def __mul__(self, other: object) -> "Element":
        if isinstance(other, Element):
            return mul(self, other)
        if isinstance(other, (int, Fraction, float)):
            return Element(self.alg, tuple(a * other for a in self.coords))
        return NotImplemented

    def __rmul__(self, other: object) -> "Element":
        if isinstance(other, (int, Fraction, float)):
            return Element(self.alg, tuple(other * a for a in self.coords))
        return NotImplemented

    def __truediv__(self, other: object) -> "Element":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, float):
            return self * (1.0 / other)
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def conj(self) -> "Element":
        return conj(self)

    def norm_sq(self) -> ScalarLike:
        return norm_sq(self)

    def inverse(self) -> "Element":
        return inverse(self)

    def to_float(self) -> "Element":
        return Element(self.alg, tuple(float(c) for c in self.coords))

    def __str__(self) -> str:
        return format_element(self)


def mul(x: Element, y: Element) -> Element:
    """Product via structure constants: (xy)^p = sum x^k y^l C[k][l][p].

    A float coordinate in either operand selects the float kernel.  Exact
    operands are scaled to integer numerators over one denominator each and
    multiplied over the integer structure triples; each output coordinate is
    one Fraction of the integer sum over the product of the denominators.
    """
    x._check_same(y)
    xc, yc = x.coords, y.coords
    if float in map(type, xc) or float in map(type, yc):
        xf = tuple(map(float, xc))
        yf = tuple(map(float, yc))
        acc = [0.0] * x.alg.dim
        for k, l, p, c in x.alg._float_triples:
            a = xf[k]
            b = yf[l]
            if a and b:
                acc[p] += a * b * c
        return Element(x.alg, tuple(acc))
    xn, dx = numerators(xc)
    yn, dy = numerators(yc)
    den, triples = x.alg._int_triples
    acc = [0] * x.alg.dim
    for k, l, p, c in triples:
        a = xn[k]
        b = yn[l]
        if a and b:
            acc[p] += a * b * c
    den *= dx * dy
    return Element(x.alg, tuple([Fraction(v, den) for v in acc]))


def conj(x: Element) -> Element:
    """Conjugate: unit coordinate kept, pure coordinates negated."""
    signs = x.alg.conj_signs
    if signs is None:
        raise WrongDimension(f"algebra {x.alg.name} defines no conjugation")
    # Negation skips the gcd that a product with -1 costs.
    return Element(x.alg, tuple([c if s == 1 else -c if s == -1 else s * c
                                 for s, c in zip(signs, x.coords)]))


def norm_sq(x: Element) -> ScalarLike:
    """Norm squared |x|^2 = x * conj(x), read off the unit coordinate."""
    return mul(x, conj(x)).coords[0]


def inverse(x: Element) -> Element:
    """x^{-1} = conj(x) / |x|^2; NotInvertible on zero norm."""
    n = norm_sq(x)
    if not n:
        raise NotInvertible(f"{format_element(x)} has zero norm")
    if isinstance(n, float):
        return conj(x) * (1.0 / n)
    return conj(x) * (Fraction(1) / Fraction(n))


def rotate(q: Element, p: Element) -> Element:
    """Inner automorphism p -> q p q^{-1}.

    For unit q = cos(t) + u sin(t) with pure unit u this rotates the pure
    vector p about u through angle 2t; the norm of p is preserved.
    """
    return mul(mul(q, p), inverse(q))


def norm_float(x: Element) -> float:
    """Euclidean length of the coordinate vector, for float tolerance checks."""
    return math.sqrt(sum(float(c) * float(c) for c in x.coords))


def make_quaternion_algebra(a: ScalarLike, b: ScalarLike, name: str | None = None) -> AlgebraSpec:
    """The quaternion algebra E(F, a, b): i^2 = a, j^2 = b, ij = -ji = k.

    Constructible whenever a*b != 0; it is a division algebra only for
    a < 0, b < 0, and elements with zero norm surface NotInvertible lazily.
    """
    a = as_scalar(a)
    b = as_scalar(b)
    if not isinstance(a, Fraction) or not isinstance(b, Fraction):
        raise TypeError("quaternion parameters must be exact rationals")
    if a * b == 0:
        raise ZeroParameter("quaternion algebra requires a*b != 0")
    n = 4
    C = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]

    def put(k: int, l: int, coords: dict[int, Fraction]) -> None:
        for p, v in coords.items():
            C[k][l][p] = v

    one = Fraction(1)
    for r in range(n):
        C[0][r][r] = one
        if r:
            C[r][0][r] = one
    # Multiplication table of i, j, k (rows act from the left).
    put(1, 1, {0: a})
    put(1, 2, {3: one})
    put(1, 3, {2: a})
    put(2, 1, {3: -one})
    put(2, 2, {0: b})
    put(2, 3, {1: -b})
    put(3, 1, {2: -a})
    put(3, 2, {1: b})
    put(3, 3, {0: -a * b})
    if name is None:
        name = "H" if a == -1 and b == -1 else f"E({a},{b})"
    return AlgebraSpec(
        name=name,
        dim=n,
        structure=tuple(tuple(tuple(row) for row in plane) for plane in C),
        conj_signs=(1, -1, -1, -1),
    )


def make_complex_algebra() -> AlgebraSpec:
    """The complex field as a 2-dimensional real algebra: e_1^2 = -e_0."""
    one = Fraction(1)
    zero = Fraction(0)
    C = (
        ((one, zero), (zero, one)),
        ((zero, one), (-one, zero)),
    )
    return AlgebraSpec(name="C", dim=2, structure=C, conj_signs=(1, -1))


QUATERNIONS = make_quaternion_algebra(-1, -1)
COMPLEX = make_complex_algebra()

#: Canonical embedded specs, keyed by the names the CLI accepts.
CANONICAL = {"H": QUATERNIONS, "C": COMPLEX}

_UNIT_NAMES = {2: ("", "i"), 4: ("", "i", "j", "k")}


def format_element(x: Element) -> str:
    """Render as a+bi+cj+dk (or a+bi for 2-dimensional algebras)."""
    units = _UNIT_NAMES.get(x.alg.dim)
    if units is None:
        units = tuple("" if i == 0 else f"e{i}" for i in range(x.alg.dim))
    parts = []
    for c, u in zip(x.coords, units):
        s = str(c)
        if not s.startswith("-") and parts:
            s = "+" + s
        parts.append(s + u)
    return "".join(parts)


def element_to_strings(x: Element) -> list[str]:
    return [str(c) for c in x.coords]


def element_from_strings(alg: AlgebraSpec, coords: Sequence[str]) -> Element:
    return alg.element([Fraction(s) for s in coords])
