"""Finite-dimensional algebras over the rationals defined by structure constants.

An algebra is a basis e_0..e_{n-1} together with a rational tensor C such that
e_k * e_l = sum_p C[k][l][p] * e_p, with e_0 acting as the unit.  The two
canonical instances are the quaternion algebras E(F, a, b) and the complex
field viewed as a 2-dimensional real algebra.

An element is exact or float, fixed when it is built.  Exact arithmetic runs
on integer numerators over one denominator, as do the structure constants
(cached per algebra): a product sums numerator products, and one gcd reduces
it.  Fraction coordinates are built only when read.  A float element holds
Python floats only, converted once when it is built.  A float operand sends
a product to the float kernel, which rounds each term as float(a) *
float(b) * float(c), exactly as mixed Fraction/float arithmetic would.  Both
kernels, integer and float, are straight-line code with one statement per
nonzero constant, generated and compiled on the algebra's first product of
their kind and cached on it.  Finite results are bit for bit those of a loop
over the constants; a zero meeting an infinite coordinate gives NaN.  The
associativity check at construction sums the same integer triples over pairs
sharing an index, so it costs O(t^2) for t nonzero constants, not O(n^5);
construction refuses more than MAX_STRUCTURE_CONSTANTS of them.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, attrgetter, sub
from typing import Any, Callable, Iterable, Sequence, Union

from .errors import (
    AlgebraMismatch,
    AxiomViolated,
    DimensionMismatch,
    NcdrError,
    NotInvertible,
    ParseError,
    RangeError,
    WrongDimension,
    ZeroParameter,
)

ScalarLike = Union[Fraction, int, float]

#: Most nonzero structure constants an algebra may have.  Construction visits
#: t^2 pairs of them: a dense 16-dimensional tensor, at the limit, takes
#: about a second.
MAX_STRUCTURE_CONSTANTS = 4096


def as_scalar(value: ScalarLike) -> ScalarLike:
    """Normalize ints and rational strings to Fraction; floats pass through."""
    if isinstance(value, (float, Fraction)):
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
    pure part, and x * conj(x) must be a scalar for every x; algebras without
    that split reject conjugation-dependent operations.
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
        if self.conj_signs is not None:
            if len(self.conj_signs) != n:
                raise DimensionMismatch("conj_signs length must equal dim")
            if any(s not in (1, -1) for s in self.conj_signs):
                raise AxiomViolated("conj_signs entries must be 1 or -1")
        t = len(self._nonzero_triples)
        if t > MAX_STRUCTURE_CONSTANTS:
            raise RangeError(f"{t} nonzero structure constants exceed the limit of "
                             f"{MAX_STRUCTURE_CONSTANTS}")
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
        if self.conj_signs is not None:
            # x conj(x) = sum x_k x_l s_l e_k e_l must lie in Q e_0 for every x:
            # each symmetric coefficient of x_k x_l off e_0 vanishes.
            norm: defaultdict[tuple[int, int, int], int] = defaultdict(int)
            for k, l, p, c in triples:
                norm[min(k, l), max(k, l), p] += self.conj_signs[l] * c
            if any(v for (_, _, p), v in norm.items() if p):
                raise AxiomViolated("conj_signs do not make x * conj(x) a scalar")

    @cached_property
    def _nonzero_triples(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        # Sparse form of the structure tensor, from which the product kernels
        # are generated.
        n, C = self.dim, self.structure
        return tuple(
            (k, l, p, C[k][l][p])
            for k in range(n) for l in range(n) for p in range(n) if C[k][l][p]
        )

    @cached_property
    def _int_triples(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        # The same sparse tensor as integer numerators over one common
        # denominator, for the exact kernel: (denominator, triples).
        den = math.lcm(*(c.denominator for *_, c in self._nonzero_triples))
        return den, tuple((k, l, p, int(c * den)) for k, l, p, c in self._nonzero_triples)

    @cached_property
    def _int_kernel(self) -> Callable[[Sequence[int], Sequence[int]], tuple[int, ...]]:
        # Numerator products over the integer triples; the sums are over den.
        return _kernel(self.dim, self._int_triples[1], "0")

    @cached_property
    def _float_kernel(self) -> Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]:
        # The same triples with float constants: each term rounds as (x * y) * float(c).
        triples = [(k, l, p, float(c)) for k, l, p, c in self._nonzero_triples]
        return _kernel(self.dim, triples, "0.0")

    def __hash__(self) -> int:  # cached: each interned constant's key hashes its algebra
        return self._hash

    _hash = cached_property(lambda self: hash((self.name, self.dim, self.conj_signs)))

    def __reduce__(self) -> tuple:
        # The cached kernels are functions, which do not pickle: rebuild.
        return AlgebraSpec, (self.name, self.dim, self.structure, self.conj_signs)

    # -- element factories ------------------------------------------------

    def element(self, coords: Sequence[ScalarLike]) -> "Element":
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(coords)}")
        return Element(self, tuple(as_scalar(c) for c in coords))

    def basis(self, i: int) -> "Element":
        if i not in range(self.dim):
            raise RangeError(f"basis index {i!r} outside 0..{self.dim - 1}")
        return _exact(self, tuple([int(j == i) for j in range(self.dim)]), 1)

    def scalar(self, value: ScalarLike) -> "Element":
        v = as_scalar(value)
        if isinstance(v, float):
            return _float_element(self, (float(v),) + (0.0,) * (self.dim - 1))
        return _exact(self, (v.numerator,) + (0,) * (self.dim - 1), v.denominator)

    @cached_property
    def zero(self) -> "Element":
        return self.scalar(0)

    @cached_property
    def one(self) -> "Element":
        return self.scalar(1)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        flat = [str(v) for plane in self.structure for row in plane for v in row]
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
        return _read_json(text, "algebra document", cls._from_doc)

    @classmethod
    def _from_doc(cls, doc: Any) -> "AlgebraSpec":
        if not isinstance(doc, dict):
            raise ParseError("algebra document must be a JSON object")
        missing = [key for key in ("name", "dim", "structure") if key not in doc]
        if missing:
            raise ParseError(f"algebra document lacks {', '.join(missing)}")
        name, n = doc["name"], doc["dim"]
        if not isinstance(name, str) or type(n) is not int:
            raise ParseError("algebra name must be a string and dim an integer")
        flat = [Fraction(s) for s in doc["structure"]]
        if len(flat) != n ** 3:
            raise ParseError("structure array must hold dim^3 entries")
        C = tuple(
            tuple(tuple(flat[(k * n + l) * n + p] for p in range(n)) for l in range(n))
            for k in range(n)
        )
        signs = tuple(doc.get("conj_signs") or ())
        if any(type(s) is not int for s in signs):
            raise ParseError("conj_signs entries must be integers")
        return cls(name=name, dim=n, structure=C, conj_signs=signs or None)


def _frozen(self: "Element", value: object) -> None:
    raise FrozenInstanceError("cannot assign to an Element's algebra or coordinates")


class Element:
    """An algebra element as its coordinate vector over the scalar field.

    Coordinates holding a float (anything without a denominator) build a
    float element, which converts each to a Python float once and has
    `_ints` None.  Others build an exact element: `_ints` is (numerators,
    den) with den > 0 and gcd(den, *numerators) == 1, and `coords` is a
    Fraction view built on first read and cached (given coordinates are
    kept as it).  Elements are frozen, and compare and hash as their
    coordinate tuples do.
    """

    __slots__ = ("_alg", "_ints", "_coords")

    def __init__(self, alg: AlgebraSpec, coords: Sequence[ScalarLike]) -> None:
        self._alg, self._coords = alg, tuple(coords)
        try:  # floats have no denominator
            den = math.lcm(*[c.denominator for c in self._coords])
        except AttributeError:
            self._ints, self._coords = None, tuple(map(float, self._coords))
        else:  # over the lcm of the reduced denominators, gcd(den, *num) == 1
            self._ints = tuple([c.numerator * (den // c.denominator) for c in self._coords]), den

    alg = property(attrgetter("_alg"), _frozen)

    @property
    def coords(self) -> tuple[ScalarLike, ...]:
        c = self._coords
        if c is None:
            num, den = self._ints
            c = self._coords = tuple([Fraction(v, den) for v in num])
        return c

    @coords.setter
    def coords(self, value: object) -> None:
        _frozen(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Element:
            return NotImplemented
        if self._alg is not other._alg and self._alg != other._alg:
            return False
        a, b = self._ints, other._ints
        if a is None or b is None:
            return self.coords == other.coords
        return a == b

    def __hash__(self) -> int:
        return hash(self.coords)

    def __reduce__(self) -> tuple:
        return Element, (self._alg, self.coords)

    def __repr__(self) -> str:
        return f"Element(alg={self._alg!r}, coords={self.coords!r})"

    def _check_same(self, other: "Element") -> None:
        if self._alg is not other._alg and self._alg != other._alg:
            raise AlgebraMismatch(f"elements of {self._alg.name} and {other._alg.name} cannot mix")

    def __add__(self, other: "Element") -> "Element":
        return _combine(self, other, add)

    def __sub__(self, other: "Element") -> "Element":
        return _combine(self, other, sub)

    def __neg__(self) -> "Element":
        ints = self._ints
        if ints is None:
            return _float_element(self._alg, tuple([-a for a in self._coords]))
        return _exact(self._alg, tuple([-v for v in ints[0]]), ints[1])

    def __mul__(self, other: object) -> "Element":
        return mul(self, other) if isinstance(other, Element) else self._scaled(other)

    def _scaled(self, s: object) -> "Element":
        if not isinstance(s, (int, Fraction, float)):
            return NotImplemented
        if self._ints is None or isinstance(s, float):
            s = float(s)
            return _float_element(self._alg, tuple([a * s for a in _float_coords(self)]))
        return _times(self, s.numerator, s.denominator)

    __rmul__ = _scaled  # scalars commute with every coordinate, floats included

    def __bool__(self) -> bool:
        ints = self._ints
        return any(self._coords if ints is None else ints[0])

    def is_zero(self) -> bool:
        return not self

    def to_float(self) -> "Element":
        return _float_element(self._alg, _float_coords(self))

    def __str__(self) -> str:
        return format_element(self)


_new = object.__new__


def _exact(alg: AlgebraSpec, num: tuple[int, ...], den: int) -> Element:
    """An exact element of numerators over den > 0 with gcd(den, *num) == 1."""
    e = _new(Element)
    e._alg, e._ints, e._coords = alg, (num, den), None
    return e


def _reduced(alg: AlgebraSpec, num: Sequence[int], den: int) -> Element:
    """An exact element of numerators over den > 0, reduced by one gcd."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [v // g for v in num]
        den //= g
    return _exact(alg, tuple(num), den)


def _combine(x: Element, y: Element, op: Callable) -> Element:
    """x + y or x - y, coordinate by coordinate."""
    x._check_same(y)
    a, b = x._ints, y._ints
    if a is None or b is None:
        return _float_element(x._alg, tuple(map(op, _float_coords(x), _float_coords(y))))
    (an, ad), (bn, bd) = a, b
    if ad != bd:
        an, bn, ad = [v * bd for v in an], [v * ad for v in bn], ad * bd
    return _reduced(x._alg, list(map(op, an, bn)), ad)


def _times(x: Element, p: int, q: int) -> Element:
    """Exact x times p / q, q > 0."""
    num, den = x._ints
    return _reduced(x._alg, [v * p for v in num], den * q)


def _float_element(alg: AlgebraSpec, coords: tuple) -> Element:
    """A float element of a tuple of Python floats; no conversion or check."""
    e = _new(Element)
    e._alg, e._ints, e._coords = alg, None, coords
    return e


def _float_coords(x: Element) -> tuple[float, ...]:
    """The coordinates as floats; v / den rounds as float(Fraction(v, den)) does."""
    if x._ints is None:
        return x._coords
    num, den = x._ints
    return tuple([v / den for v in num])


def _kernel(dim: int, triples: Iterable[tuple], zero: str) -> Callable:
    """The product function _kernel_source writes, run with no builtins."""
    namespace: dict[str, Any] = {"__builtins__": {}}
    exec(_kernel_source(dim, triples, zero), namespace)
    return namespace["kernel"]


def _kernel_source(dim: int, triples: Iterable[tuple], zero: str) -> str:
    """Source of kernel(x, y), the product of two coordinate sequences.

    One flat statement per triple, in triple order, adds x_k * y_l * c to
    the accumulator of e_p, which starts at zero (+= and -= for c = 1, -1).
    Only index names, hex ints and the repr of finite floats enter it, and
    its nesting depth does not grow with the algebra.
    """
    lines = [
        "def kernel(x, y):",
        "".join(f" x{k}," for k in range(dim)) + " = x",
        "".join(f" y{l}," for l in range(dim)) + " = y",
    ]
    lines += [f" a{p} = {zero}" for p in range(dim)]
    for k, l, p, c in triples:
        if c == 1:
            lines.append(f" a{p} += x{k} * y{l}")
        elif c == -1:
            lines.append(f" a{p} -= x{k} * y{l}")
        else:  # hex, as decimal ints are capped at 4,300 digits
            lines.append(f" a{p} += x{k} * y{l} * {hex(c) if type(c) is int else repr(c)}")
    lines.append(" return (" + "".join(f"a{p}, " for p in range(dim)) + ")")
    return "\n".join(lines)


def mul(x: Element, y: Element) -> Element:
    """Product via structure constants: (xy)^p = sum x^k y^l C[k][l][p].

    A float operand selects the algebra's float kernel: an exact operand's
    numerators become floats over its denominator, and each term is rounded
    as (x^k * y^l) * c and summed from 0.0 in triple order, bit for bit as a
    loop over the triples.  No term is skipped for a zero operand, so 0 times
    an infinite coordinate adds NaN.  Otherwise the integer kernel sums
    numerator products; one gcd reduces them over the product of the three
    denominators, and no Fraction is built.
    """
    x._check_same(y)
    alg = x._alg
    xi, yi = x._ints, y._ints
    if xi is None or yi is None:
        return _float_element(alg, alg._float_kernel(_float_coords(x), _float_coords(y)))
    (xn, dx), (yn, dy) = xi, yi
    return _reduced(alg, alg._int_kernel(xn, yn), alg._int_triples[0] * dx * dy)


def conj(x: Element) -> Element:
    """Conjugate: unit coordinate kept, pure coordinates negated."""
    signs = x._alg.conj_signs
    if signs is None:
        raise WrongDimension(f"algebra {x._alg.name} defines no conjugation")
    if x._ints is None:
        return _float_element(x._alg, tuple([c if s == 1 else -c
                                             for s, c in zip(signs, x._coords)]))
    num, den = x._ints
    return _reduced(x._alg, [s * v for s, v in zip(signs, num)], den)


def norm_sq(x: Element) -> ScalarLike:
    """Norm squared |x|^2 = x * conj(x), read off the unit coordinate."""
    m = mul(x, conj(x))
    ints = m._ints
    return m._coords[0] if ints is None else Fraction(ints[0][0], ints[1])


def inverse(x: Element) -> Element:
    """x^{-1} = conj(x) / |x|^2; NotInvertible on zero norm."""
    c = conj(x)
    m = mul(x, c)
    ints = m._ints
    n = m._coords[0] if ints is None else ints[0][0]
    if not n:
        raise NotInvertible(f"{format_element(x)} has zero norm")
    if ints is None:
        return c * (1.0 / n)
    s = -1 if n < 0 else 1  # |x|^2 = n / den, so x^{-1} = conj(x) * den / n
    return _times(c, s * ints[1], s * n)


def norm_float(x: Element) -> float:
    """Euclidean length of the coordinate vector, for float tolerance checks."""
    return math.sqrt(sum(c * c for c in _float_coords(x)))


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
    n, one = 4, Fraction(1)
    C = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for r in range(n):
        C[0][r][r] = C[r][0][r] = one
    # Multiplication table of i, j, k (rows act from the left): e_k e_l = v e_p.
    for k, l, p, v in [(1, 1, 0, a), (1, 2, 3, one), (1, 3, 2, a), (2, 1, 3, -one), (2, 2, 0, b),
                       (2, 3, 1, -b), (3, 1, 2, -a), (3, 2, 1, b), (3, 3, 0, -a * b)]:
        C[k][l][p] = v
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
    one, zero = Fraction(1), Fraction(0)
    C = (((one, zero), (zero, one)), ((zero, one), (-one, zero)))
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


def _read_json(text: str, what: str, build: Callable[[Any], Any]) -> Any:
    """build(json.loads(text)); ParseError for text that is not JSON, nests too
    deeply or holds values build cannot read.  build's NcdrErrors pass through."""
    try:
        return build(json.loads(text))
    except NcdrError:
        raise
    except (RecursionError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from exc
