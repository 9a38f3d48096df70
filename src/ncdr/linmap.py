"""The two faces of a linear map of a division algebra.

A map f(x) = sum f^{ij} e_i x e_j is given by its standard components f^{ij};
the same map acts on coordinates through the matrix f^j_i.  The n^2 x n^2
structure contraction ("big C") converts one into the other; its rank decides
whether a coordinate matrix is representable at all and whether the standard
components are unique.

The exact layer runs on integers.  big_c keeps mat and its pseudo-inverse as
integer rows, so std_to_coord and coord_to_std are one row-vector product each,
plus a membership check when mat is singular; compose_std and embed_matrix sum
numerators over the structure triples, and CoordMatrix.apply is one
exactla.mat_vec.  Only final entries are Fractions.

CoordMatrix.apply and @, embed_matrix, coord_to_std and compose_std take
exact scalars only; each raises TypeError on a float element or float-entry
matrix.  std_to_coord also takes float components
(least-squares differentials).  _float_rows_vec multiplies big_c's integer
rows with a float vector, adding float(entry) * v[c] over each row's nonzero
entries in column order: std_to_coord runs it over mat_rows, and the numeric
least-squares solve over pinv_rows and mat_rows.  No numpy here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import exactla
from .algebra import AlgebraSpec, Element, ScalarLike, as_scalar, mul
from .errors import AlgebraMismatch, DimensionMismatch, NotRepresentable

Grid = tuple[tuple[Fraction, ...], ...]


def _grid(rows: Sequence[Sequence[ScalarLike]]) -> Grid:
    return tuple(tuple(as_scalar(v) for v in row) for row in rows)


@dataclass(frozen=True)
class StdComponents:
    """Standard components f^{ij} of the map x -> sum f^{ij} e_i x e_j."""

    alg: AlgebraSpec
    comps: Grid

    def __post_init__(self) -> None:
        n = self.alg.dim
        if len(self.comps) != n or any(len(r) != n for r in self.comps):
            raise DimensionMismatch("standard components must form an n x n grid")

    @classmethod
    def from_rows(cls, alg: AlgebraSpec, rows) -> "StdComponents":
        return cls(alg, _grid(rows))

    @classmethod
    def identity(cls, alg: AlgebraSpec) -> "StdComponents":
        n = alg.dim
        return cls.from_rows(alg, [[int(i == j == 0) for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class CoordMatrix:
    """Coordinate matrix of a linear map: f(a)^j = sum_i mat[j][i] a^i."""

    alg: AlgebraSpec
    mat: Grid

    def __post_init__(self) -> None:
        n = self.alg.dim
        if len(self.mat) != n or any(len(r) != n for r in self.mat):
            raise DimensionMismatch("coordinate matrix must be n x n")

    @classmethod
    def from_rows(cls, alg: AlgebraSpec, rows) -> "CoordMatrix":
        return cls(alg, _grid(rows))

    @classmethod
    def identity(cls, alg: AlgebraSpec) -> "CoordMatrix":
        n = alg.dim
        return cls.from_rows(alg, [[int(i == j) for j in range(n)] for i in range(n)])

    def apply(self, a: Element) -> Element:
        """The image of an exact element; exact entries only."""
        if a.alg != self.alg:
            raise AlgebraMismatch("element belongs to a different algebra")
        return self.alg.element(exactla.mat_vec(self.mat, a.coords))

    def __matmul__(self, other: "CoordMatrix") -> "CoordMatrix":
        if self.alg != other.alg:
            raise AlgebraMismatch("coordinate matrices over different algebras")
        prod = exactla.mat_mul(self.mat, other.mat)
        return CoordMatrix(self.alg, tuple(tuple(row) for row in prod))


def embed_matrix(a: Element) -> CoordMatrix:
    """Left-multiplication matrix J_a, the coordinate matrix of x -> a*x.

    Column l holds the coordinates of a*e_l.  J is a ring homomorphism:
    J_a J_b = J_{ab} and J_{a+b} = J_a + J_b.  Exact coordinates only.
    """
    n = a.alg.dim
    an, da = a._ints
    den, triples = a.alg._int_triples
    J = [0] * (n * n)
    for k, l, p, c in triples:
        if an[k]:
            J[p * n + l] += an[k] * c
    return CoordMatrix(a.alg, _square([Fraction(v, den * da) for v in J], n))


def _square(flat: Sequence, n: int) -> Grid:
    return tuple(tuple(flat[j * n : j * n + n]) for j in range(n))


@dataclass(frozen=True)
class BigC:
    """The n^2 x n^2 contraction sum_p C[k][i][p] C[p][r][j].

    Row index (j, i) flattens to j*n + i; column index (k, r) to k*n + r, so
    vec(coordinate matrix) = mat @ vec(standard components).  When singular,
    zero_map_kernel holds standard-component grids spanning the zero map.
    mat_rows and pinv_rows hold mat and its Moore-Penrose inverse as
    exactla.int_rows, the integer rows that the exact conversions multiply with.
    """

    alg: AlgebraSpec
    mat: Grid
    rank: int
    det: Fraction
    zero_map_kernel: tuple[Grid, ...]
    mat_rows: exactla.IntRows = field(repr=False, compare=False)
    pinv_rows: exactla.IntRows = field(repr=False, compare=False)

    def report(self) -> dict:
        return {
            "dim": self.alg.dim,
            "size": len(self.mat),
            "rank": self.rank,
            "det": str(self.det),
            "invertible": self.rank == len(self.mat),
            "zero_map_kernel_dim": len(self.zero_map_kernel),
        }


@lru_cache(maxsize=None)
def big_c(alg: AlgebraSpec) -> BigC:
    n = alg.dim
    size = n * n
    den, triples = alg._int_triples
    acc = [[0] * size for _ in range(size)]
    for k, i, p, c1 in triples:
        for s, r, j, c2 in triples:
            if s == p:
                acc[j * n + i][k * n + r] += c1 * c2
    mat = [[Fraction(v, den * den) for v in row] for row in acc]
    elim = exactla.eliminate_square(mat)
    return BigC(
        alg=alg,
        mat=tuple(tuple(row) for row in mat),
        rank=elim.rank,
        det=elim.det,
        zero_map_kernel=tuple(_square(v, n) for v in elim.kernel),
        mat_rows=exactla.int_rows(mat),
        pinv_rows=exactla.int_rows(elim.inverse or exactla.pseudo_inverse(mat)),
    )


def std_to_coord(f: StdComponents) -> CoordMatrix:
    """f^j_i = sum f^{kr} C[k][i][p] C[p][r][j]; floats if any f^{kr} is one."""
    alg = f.alg
    n = alg.dim
    flat = [v for row in f.comps for v in row]
    rows = big_c(alg).mat_rows
    if float in map(type, flat):
        out = _float_rows_vec(rows, [float(v) for v in flat])
    else:
        out = exactla.rows_vec(rows, flat)
    return CoordMatrix(alg, _square(out, n))


def _float_rows_vec(rows: exactla.IntRows, v: Sequence[float]) -> list[float]:
    """Integer rows times a float vector: each entry sums a / den * v[c] over
    its row's nonzero terms in column order."""
    out = []
    for terms, den in rows:
        acc = 0.0
        for c, a in terms:
            acc += a / den * v[c]
        out.append(acc)
    return out


@dataclass(frozen=True)
class StdSolution:
    """Standard components recovered from a coordinate matrix.

    unique is False when the contraction is rank deficient and the returned
    grid is the minimum-norm representative of the solution set.
    """

    components: StdComponents
    unique: bool


def coord_to_std(m: CoordMatrix) -> StdSolution:
    """Least-norm standard components of m; NotRepresentable when none give m."""
    alg = m.alg
    n = alg.dim
    B = big_c(alg)
    rhs = [m.mat[j][i] for j in range(n) for i in range(n)]
    x = exactla.rows_vec(B.pinv_rows, rhs)
    unique = B.rank == n * n
    if not unique and exactla.rows_vec(B.mat_rows, x) != rhs:
        raise NotRepresentable("coordinate matrix lies outside the representable subspace")
    return StdSolution(StdComponents(alg, _square(x, n)), unique)


def eval_std(f: StdComponents, x: Element) -> Element:
    """Evaluate sum f^{ij} e_i x e_j exactly."""
    if x.alg != f.alg:
        raise AlgebraMismatch("element belongs to a different algebra")
    alg = f.alg
    acc = alg.zero
    for i in range(alg.dim):
        for j in range(alg.dim):
            c = f.comps[i][j]
            if c:
                acc = acc + c * mul(mul(alg.basis(i), x), alg.basis(j))
    return acc


def compose_std(g: StdComponents, f: StdComponents) -> StdComponents:
    """Components of g after f: h^{pr} = g^{ij} f^{kl} C[i][k][p] C[l][j][r]."""
    if g.alg != f.alg:
        raise AlgebraMismatch("maps over different algebras")
    alg = g.alg
    n = alg.dim
    gn, gd = exactla.numerators([v for row in g.comps for v in row])
    fn, fd = exactla.numerators([v for row in f.comps for v in row])
    den, triples = alg._int_triples
    acc = [0] * (n * n)
    for i, k, p, c1 in triples:
        gi, fk = gn[i * n : i * n + n], fn[k * n : k * n + n]
        for l, j, r, c2 in triples:
            v = gi[j] * fk[l]
            if v:
                acc[p * n + r] += v * c1 * c2
    return StdComponents(alg, _square([Fraction(v, gd * fd * den * den) for v in acc], n))

