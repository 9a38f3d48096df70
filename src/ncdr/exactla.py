"""Exact linear algebra over the rationals.

One elimination routine serves every operation: fraction-free (Bareiss)
Gauss-Jordan on a copy whose rows are scaled to integers.  Rank is its pivot
count, the determinant its common pivot value divided by the row scales, and
the reduced row echelon form that solving, nullspaces, inverses and
pseudo-inverses read is its integer matrix over that pivot value.  Products
scale each row of the left factor and each column of the right one to
integer numerators over the lcm of their denominators, take integer dot
products and make one Fraction per entry.  Rows may be lists or tuples.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple, Sequence

from .errors import Singular

Matrix = list[list[Fraction]]
Vector = list[Fraction]
IntRows = tuple[tuple[tuple[tuple[int, int], ...], int], ...]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators.

    TypeError for an entry without a denominator, such as a float.
    """
    try:
        d = lcm(*[v.denominator for v in values])
    except AttributeError:
        raise TypeError("exact entries only: a float has no denominator") from None
    return [v.numerator * (d // v.denominator) for v in values], d


def int_rows(A: Matrix) -> IntRows:
    """Each row of A as its nonzero (column, integer numerator) pairs and its
    lcm, in tuples, so rows held in a cache cannot be changed."""
    rows = map(numerators, A)
    return tuple([(tuple([(k, a) for k, a in enumerate(nums) if a]), d) for nums, d in rows])


def _dot_rows(rows: IntRows, cols: list[tuple[list[int], int]]) -> Matrix:
    """Integer rows times columns given as numerators(): per entry one integer
    dot product over the row's nonzero terms, over the product of the denominators."""
    return [
        [Fraction(sum([a * bn[k] for k, a in terms]), d * db) for bn, db in cols]
        for terms, d in rows
    ]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    assert len(A[0]) == len(B)
    return _dot_rows(int_rows(A), [numerators(col) for col in zip(*B)])


def mat_vec(A: Matrix, v: Vector) -> Vector:
    return rows_vec(int_rows(A), v)


def rows_vec(rows: IntRows, v: Vector) -> Vector:
    """mat_vec over rows already converted by int_rows."""
    return [row[0] for row in _dot_rows(rows, [numerators(v)])]


def _integerize_rows(M: Matrix) -> tuple[list[list[int]], list[int]]:
    """Scale each row to integers; returns (int matrix, per-row factors)."""
    scaled = [numerators(row) for row in M]
    return [nums for nums, _ in scaled], [d for _, d in scaled]


def _fraction_free(A: list[list[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Bareiss's update (Math. Comp. 22, 1968) applied above the pivot as well
    as below it: at each pivot p every other row becomes
    (p * row - row[c] * pivot_row) // prev, an exact division because every
    entry is a minor of A; a row with 0 in the pivot column only scales, to
    p * row // prev.  Returns (A, pivot columns, swap sign, d): every
    pivot entry ends equal to d, so A / d is the reduced row echelon form,
    and for square A of full rank sign * d is its determinant.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if A[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            A[r], A[pivot_row] = A[pivot_row], A[r]
            sign = -sign
        top = A[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                f = A[i][c]
                A[i] = ([(p * a - f * b) // prev for a, b in zip(A[i], top)] if f
                        else [p * a // prev for a in A[i]])
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots, sign, prev


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    A, pivots, _, d = _fraction_free(_integerize_rows(M)[0])
    return [[Fraction(v, d) for v in row] for row in A], pivots


def rank(M: Matrix) -> int:
    """Rank: the number of pivots of the fraction-free elimination."""
    return len(_fraction_free(_integerize_rows(M)[0])[1])


def det(M: Matrix) -> Fraction:
    """Determinant: sign * d of the denominator-cleared rows, divided back."""
    n = len(M)
    assert all(len(row) == n for row in M)
    A, factors = _integerize_rows(M)
    _, pivots, sign, d = _fraction_free(A)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, prod(factors))


def _kernel(R: Matrix, pivots: list[int], cols: int) -> list[Vector]:
    """Kernel basis read off a reduced row echelon form, one vector per free column."""
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in enumerate(pivots):
            v[pc] = -R[row][fc]
        basis.append(v)
    return basis


def nullspace(M: Matrix) -> list[Vector]:
    """Basis of the kernel, one vector per free column."""
    if not M:
        return []
    R, pivots = rref(M)
    return _kernel(R, pivots, len(M[0]))


def solve(M: Matrix, b: Vector) -> Vector | None:
    """One solution of M x = b (free variables at 0), or None if inconsistent."""
    cols = len(M[0])
    R, pivots = rref([[*row, rhs] for row, rhs in zip(M, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, pc in enumerate(pivots):
        x[pc] = R[row][cols]
    return x


def inverse(M: Matrix) -> Matrix:
    """Exact inverse of square M; raises Singular when rank deficient."""
    inv = eliminate_square(M).inverse
    if inv is None:
        raise Singular("matrix has no inverse over the rationals")
    return inv


class SquareElimination(NamedTuple):
    rank: int
    det: Fraction
    inverse: Matrix | None  # None when rank deficient
    kernel: list[Vector]  # empty when invertible


def eliminate_square(M: Matrix) -> SquareElimination:
    """Rank, determinant, and the inverse or a kernel basis of square M.

    One fraction-free elimination of [M | I] serves all of them: the pivots
    in M's columns give the rank and, with the row scales, the determinant.
    At full rank the right half is the inverse; otherwise the left half is
    M's reduced row echelon form, which the kernel is read from.
    """
    n = len(M)
    assert all(len(row) == n for row in M)
    aug = [[*row, *ident_row] for row, ident_row in zip(M, identity(n))]
    A, factors = _integerize_rows(aug)
    _, pivots, sign, d = _fraction_free(A)
    left = [c for c in pivots if c < n]
    if len(left) < n:
        R = [[Fraction(v, d) for v in row[:n]] for row in A]
        return SquareElimination(len(left), Fraction(0), None, _kernel(R, left, n))
    value = Fraction(sign * d, prod(factors))
    return SquareElimination(n, value, [[Fraction(v, d) for v in row[n:]] for row in A], [])


def pseudo_inverse(M: Matrix) -> Matrix:
    """Moore-Penrose inverse G^T (G G^T)^{-1} (F^T F)^{-1} F^T of M = F G, where
    G is the nonzero rows of rref(M) and F the pivot columns of M; both have
    full rank.  A rank-0 M gives the zero matrix of the transposed shape."""
    R, pivots = rref(M)
    if not pivots:
        return [[Fraction(0)] * len(M) for _ in M[0]]
    G, Ft = R[: len(pivots)], [[row[c] for row in M] for c in pivots]
    Gt = list(zip(*G))
    left = mat_mul(Gt, inverse(mat_mul(G, Gt)))
    return mat_mul(left, mat_mul(inverse(mat_mul(Ft, list(zip(*Ft)))), Ft))


def min_norm_solution(M: Matrix, b: Vector) -> Vector | None:
    """The solution M+ b of M x = b of least Euclidean norm, or None if none exists."""
    x = mat_vec(pseudo_inverse(M), b)
    return x if mat_vec(M, x) == list(b) else None
