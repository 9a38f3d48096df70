"""Vector spaces over a division algebra with twin (left/right) scalar actions.

Matrices of algebra elements multiply with the left factor first; a square
matrix is inverted by Gauss-Jordan over D, or, at a column with no
invertible pivot, through its rational block embedding.  Maps between
spaces are two-sided component sums; a 1 x 1 one converts to standard
components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import exactla
from .algebra import AlgebraSpec, Element, inverse, mul
from .errors import DimensionMismatch, NotInvertible, NotQuaternionBlock, Singular, WrongDimension
from .linmap import StdComponents, embed_matrix


def _common_algebra(entries: Iterable[Element]) -> AlgebraSpec:
    alg = None
    for e in entries:
        if alg is None:
            alg = e.alg
        elif e.alg is not alg and e.alg != alg:
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
        zero = diag[0].alg.zero if diag else None  # no entries: the constructor refuses
        return cls(tuple(tuple(d if i == j else zero for j in range(len(diag)))
                         for i, d in enumerate(diag)))

    def __matmul__(self, other: "DMatrix") -> "DMatrix":
        rows, inner = self.shape
        inner2, cols = other.shape
        if inner != inner2:
            raise DimensionMismatch("inner dimensions differ")
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                acc = mul(self.entries[i][0], other.entries[0][j])
                for k in range(1, inner):
                    acc = acc + mul(self.entries[i][k], other.entries[k][j])
                row.append(acc)
            out.append(tuple(row))
        return DMatrix(tuple(out))

    def apply(self, v: DVector) -> DVector:
        cols = self.shape[1]
        if len(v) != cols:
            raise DimensionMismatch("vector length does not match matrix")
        return DVector(tuple(
            sum((mul(row[k], v[k]) for k in range(1, cols)), mul(row[0], v[0]))
            for row in self.entries
        ))


def dmatrix_inverse(A: DMatrix) -> DMatrix:
    """Two-sided inverse of a square matrix over an n-dimensional algebra.

    Gauss-Jordan over D on [A | I], multiplying rows on the left, pivots on
    the first entry at or below the diagonal that `inverse` accepts; a
    column that is zero there raises Singular.  A column whose nonzero
    entries all fail to invert (zero divisors; no conjugation) falls back to
    inverting A's rational nr x nr block embedding.  B is checked once, as
    B @ A == I over D (NotQuaternionBlock otherwise: impossible for valid
    input).  Exact entries only: a float entry raises TypeError.
    """
    r, cols = A.shape
    if r != cols:
        raise DimensionMismatch("only square matrices invert")
    if any(e._ints is None for row in A.entries for e in row):
        raise TypeError("dmatrix_inverse takes exact entries only")
    eye = DMatrix.identity(A.alg, r)
    B = _gauss_jordan(A, eye)
    if B is None:
        n = A.alg.dim
        blocks = [[embed_matrix(e).mat for e in row] for row in A.entries]
        big = [[v for block in brow for v in block[bi]] for brow in blocks for bi in range(n)]
        inv = exactla.inverse(big)  # Singular propagates
        B = DMatrix(tuple(tuple(A.alg.element([inv[n * i + bi][n * j] for bi in range(n)])
                                for j in range(r)) for i in range(r)))
    if B @ A != eye:
        raise NotQuaternionBlock("the inverse fails its check B @ A == I")
    return B


def _gauss_jordan(A: DMatrix, eye: DMatrix) -> DMatrix | None:
    """A's inverse over D; None at a column with no invertible pivot."""
    r = len(A.entries)
    rows = [list(a + e) for a, e in zip(A.entries, eye.entries)]
    for c in range(r):
        for p in range(c, r):
            try:  # zero has zero norm
                x = inverse(rows[p][c])
                break
            except (NotInvertible, WrongDimension):
                pass
        else:
            if any(rows[p][c] for p in range(c, r)):
                return None
            raise Singular("a column is a right-combination of the columns before it")
        rows[c], rows[p] = rows[p], rows[c]
        top = rows[c]
        top[c + 1:] = [mul(x, t) if t else t for t in top[c + 1:]]  # columns <= c: read no more
        for i, row in enumerate(rows):
            f = row[c]
            if i != c and f:
                row[c + 1:] = [y - mul(f, t) if t else y for y, t in zip(row[c + 1:], top[c + 1:])]
    return DMatrix(tuple(tuple(row[r:]) for row in rows))


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

    f^{ij} = sum_s u_s^i v_s^j, the superposed outer products: f = U^T V,
    where row s of U holds the coordinates of u_s and row s of V those of
    v_s.  Exact pairs only: a float element raises TypeError.
    """
    if M.rows != 1 or M.cols != 1:
        raise DimensionMismatch("standard components need a 1 x 1 component map")
    zero = M.alg.zero
    pairs = M.pairs[0][0] or ((zero, zero),)  # an empty cell is the zero map
    f = exactla.mat_mul(list(zip(*[u.coords for u, _ in pairs])), [v.coords for _, v in pairs])
    return StdComponents(M.alg, tuple(map(tuple, f)))


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
