"""Vector spaces over a division algebra with twin (left/right) scalar actions.

Matrices of algebra elements multiply with the left factor first; a square
matrix over an n-dimensional algebra is inverted by embedding every entry
into its n x n rational left-action block, inverting the block matrix
exactly, and reading the blocks back.  Maps between spaces are two-sided
component sums; a 1 x 1 one converts to standard components.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactla
from .algebra import (
    AlgebraSpec,
    Element,
    _read_json,
    element_from_strings,
    element_to_strings,
    mul,
)
from .errors import DimensionMismatch, NotQuaternionBlock
from .linmap import StdComponents, embed_matrix


def _common_algebra(entries: Iterable[Element]) -> AlgebraSpec:
    alg = None
    for e in entries:
        if alg is None:
            alg = e.alg
        elif e.alg != alg:
            raise DimensionMismatch("entries span different algebras")
    if alg is None:
        raise DimensionMismatch("empty container has no algebra")
    return alg


@dataclass(frozen=True)
class DVector:
    entries: tuple[Element, ...]

    def __post_init__(self) -> None:
        _common_algebra(self.entries)

    @property
    def alg(self) -> AlgebraSpec:
        return self.entries[0].alg

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int) -> Element:
        return self.entries[k]

    def __add__(self, other: "DVector") -> "DVector":
        if len(self) != len(other):
            raise DimensionMismatch("vector lengths differ")
        return DVector(tuple(a + b for a, b in zip(self.entries, other.entries)))


@dataclass(frozen=True)
class DMatrix:
    entries: tuple[tuple[Element, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or any(len(r) != len(self.entries[0]) for r in self.entries):
            raise DimensionMismatch("matrix must be rectangular and nonempty")
        _common_algebra(e for row in self.entries for e in row)

    @property
    def alg(self) -> AlgebraSpec:
        return self.entries[0][0].alg

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    @classmethod
    def identity(cls, alg: AlgebraSpec, n: int) -> "DMatrix":
        return cls.diagonal([alg.one] * n)

    @classmethod
    def diagonal(cls, diag: Sequence[Element]) -> "DMatrix":
        zero = diag[0].alg.zero
        return cls(tuple(tuple(d if i == j else zero for j in range(len(diag)))
                         for i, d in enumerate(diag)))

    def __matmul__(self, other: "DMatrix") -> "DMatrix":
        rows, inner = self.shape
        inner2, cols = other.shape
        if inner != inner2:
            raise DimensionMismatch("inner dimensions differ")
        alg = self.alg
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                acc = alg.zero
                for k in range(inner):
                    acc = acc + mul(self.entries[i][k], other.entries[k][j])
                row.append(acc)
            out.append(tuple(row))
        return DMatrix(tuple(out))

    def apply(self, v: DVector) -> DVector:
        rows, cols = self.shape
        if len(v) != cols:
            raise DimensionMismatch("vector length does not match matrix")
        return DVector(tuple(
            sum((mul(self.entries[i][k], v[k]) for k in range(cols)), self.alg.zero)
            for i in range(rows)
        ))

    def to_json(self) -> str:
        return json.dumps([[element_to_strings(e) for e in row] for row in self.entries])

    @classmethod
    def from_json(cls, alg: AlgebraSpec, text: str) -> "DMatrix":
        return _read_json(text, "D-matrix", lambda grid: cls(
            tuple(tuple(element_from_strings(alg, e) for e in row) for row in grid)))


def lin_comb(a: Element, v: DVector, b: Element, c: Element, w: DVector, d: Element) -> DVector:
    """Entrywise a*v_k*b + c*w_k*d, the two-sided linear combination."""
    if len(v) != len(w):
        raise DimensionMismatch("vector lengths differ")
    return DVector(
        tuple(
            mul(mul(a, vk), b) + mul(mul(c, wk), d)
            for vk, wk in zip(v.entries, w.entries)
        )
    )


def dmatrix_inverse(A: DMatrix) -> DMatrix:
    """Two-sided inverse of a square matrix over an n-dimensional algebra.

    Embeds entrywise into a rational nr x nr block matrix M, inverts it
    exactly (Singular if it cannot), and reads each block's entry off its
    first column.  The result B is checked once, as B @ A == I over D, which
    holds exactly when every block of M^-1 is the left-action matrix of its
    entry; NotQuaternionBlock reports a failure (impossible for valid input).
    """
    r, cols = A.shape
    if r != cols:
        raise DimensionMismatch("only square matrices invert")
    alg = A.alg
    n = alg.dim
    blocks = [[embed_matrix(e).mat for e in row] for row in A.entries]
    big = [[v for block in brow for v in block[bi]] for brow in blocks for bi in range(n)]
    inv = exactla.inverse(big)  # Singular propagates
    B = DMatrix(tuple(tuple(alg.element([inv[n * i + bi][n * j] for bi in range(n)])
                            for j in range(r)) for i in range(r)))
    if B @ A != DMatrix.identity(alg, r):
        raise NotQuaternionBlock("the inverse's blocks are not left-action matrices")
    return B


@dataclass(frozen=True)
class ComponentMap:
    """A linear map between D-vector spaces as two-sided component sums.

    pairs[j][i] lists the (u, v) factors of w^j += sum_s u_s * v^i * v_s.
    Representations are not canonical; equality of maps is extensional.
    """

    alg: AlgebraSpec
    pairs: tuple[tuple[tuple[tuple[Element, Element], ...], ...], ...]

    def __post_init__(self) -> None:
        if any(len(r) != self.cols for r in self.pairs):
            raise DimensionMismatch("component map rows must have equal lengths")

    @property
    def rows(self) -> int:
        return len(self.pairs)

    @property
    def cols(self) -> int:
        return len(self.pairs[0]) if self.pairs else 0

    @classmethod
    def identity(cls, alg: AlgebraSpec, n: int) -> "ComponentMap":
        one = alg.one
        return cls(alg, tuple(tuple(((one, one),) if i == j else () for i in range(n))
                              for j in range(n)))

    @classmethod
    def from_lists(cls, alg: AlgebraSpec, pairs) -> "ComponentMap":
        return cls(alg, tuple(tuple(tuple((u, v) for u, v in cell) for cell in row)
                              for row in pairs))

    def to_json(self) -> str:
        return json.dumps([[[[element_to_strings(u), element_to_strings(v)] for u, v in cell]
                            for cell in row] for row in self.pairs])

    @classmethod
    def from_json(cls, alg: AlgebraSpec, text: str) -> "ComponentMap":
        read = element_from_strings
        return _read_json(text, "component map", lambda doc: cls.from_lists(
            alg, [[[(read(alg, u), read(alg, v)) for u, v in cell] for cell in row] for row in doc]))


def apply_component_map(M: ComponentMap, v: DVector) -> DVector:
    """w^j = sum over i and s of u_s * v^i * v_s."""
    if len(v) != M.cols:
        raise DimensionMismatch("input length does not match map")
    out = []
    for j in range(M.rows):
        acc = M.alg.zero
        for i in range(M.cols):
            for u, w in M.pairs[j][i]:
                acc = acc + mul(mul(u, v[i]), w)
        out.append(acc)
    return DVector(tuple(out))


def component_sum_to_std(M: ComponentMap) -> StdComponents:
    """Standard components of a 1 x 1 map x -> sum_s u_s x v_s.

    f^{ij} = sum_s u_s^i v_s^j, the superposed outer products, summed as
    integer numerators over one common denominator.  Exact pairs only: a
    float element raises TypeError.
    """
    if M.rows != 1 or M.cols != 1:
        raise DimensionMismatch("standard components need a 1 x 1 component map")
    n = M.alg.dim
    pairs = [(u._ints, v._ints) for u, v in M.pairs[0][0]]
    den = math.lcm(*[du * dv for (_, du), (_, dv) in pairs])
    acc = [[0] * n for _ in range(n)]
    for (un, du), (vn, dv) in pairs:
        s = den // (du * dv)
        for a, row in zip(un, acc):
            if a:
                a *= s
                for j, b in enumerate(vn):
                    row[j] += a * b
    return StdComponents(M.alg, tuple(tuple(Fraction(v, den) for v in row) for row in acc))


def compose_component_maps(B: ComponentMap, A: ComponentMap) -> ComponentMap:
    """Pairs of B after A: left factors multiply B*A, right factors A*B."""
    if B.cols != A.rows:
        raise DimensionMismatch("inner dimensions differ")
    rows, cols = B.rows, A.cols
    out = []
    for k in range(rows):
        row = []
        for i in range(cols):
            cell = []
            for j in range(A.rows):
                for b0, b1 in B.pairs[k][j]:
                    for a0, a1 in A.pairs[j][i]:
                        cell.append((mul(b0, a0), mul(a1, b1)))
            row.append(tuple(cell))
        out.append(tuple(row))
    return ComponentMap(B.alg, tuple(out))


def shift_components(M: ComponentMap, a: Element, b: Element) -> ComponentMap:
    """The map x -> M(a*x*b): left factors pick up a, right factors pick up b."""
    return ComponentMap(
        M.alg,
        tuple(
            tuple(
                tuple((mul(u, a), mul(b, v)) for u, v in cell) for cell in row
            )
            for row in M.pairs
        ),
    )
