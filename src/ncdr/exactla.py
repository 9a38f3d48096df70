"""Exact linear algebra over the rationals.

One elimination routine serves every operation: fraction-free (Bareiss)
Gauss-Jordan on a copy whose rows are scaled to integers.  Rank is its pivot
count, the determinant its common pivot value divided by the row scales, and
the reduced row echelon form that solving, nullspaces and inverses read is
its integer matrix over that pivot value.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import Singular

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    rows, inner, cols = len(A), len(B), len(B[0])
    assert len(A[0]) == inner
    return [
        [sum((A[i][k] * B[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(A: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in A]


def _integerize_rows(M: Matrix) -> tuple[list[list[int]], list[Fraction]]:
    """Scale each row to integers; returns (int matrix, per-row factors)."""
    out: list[list[int]] = []
    factors: list[Fraction] = []
    for row in M:
        denom = 1
        for v in row:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        out.append([int(v * denom) for v in row])
        factors.append(Fraction(denom))
    return out, factors


def _fraction_free(A: list[list[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Bareiss's update (Math. Comp. 22, 1968) applied above the pivot as well
    as below it: at each pivot p every other row becomes
    (p * row - row[c] * pivot_row) // prev, an exact division because every
    entry is a minor of A.  Returns (A, pivot columns, swap sign, d): every
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
                A[i] = [(p * a - f * b) // prev for a, b in zip(A[i], top)]
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
    value = Fraction(sign * d)
    for f in factors:
        value /= f
    return value


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
    aug = [row[:] + [rhs] for row, rhs in zip(M, b)]
    R, pivots = rref(aug)
    cols = len(M[0])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, pc in enumerate(pivots):
        x[pc] = R[row][cols]
    return x


def inverse(M: Matrix) -> Matrix:
    """Exact inverse; raises Singular when rank deficient."""
    n = len(M)
    aug = [row[:] + ident_row[:] for row, ident_row in zip(M, identity(n))]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise Singular("matrix has no inverse over the rationals")
    return [row[n:] for row in R]


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
    aug = [row[:] + ident_row for row, ident_row in zip(M, identity(n))]
    A, factors = _integerize_rows(aug)
    _, pivots, sign, d = _fraction_free(A)
    left = [c for c in pivots if c < n]
    if len(left) < n:
        R = [[Fraction(v, d) for v in row[:n]] for row in A]
        return SquareElimination(len(left), Fraction(0), None, _kernel(R, left, n))
    value = Fraction(sign * d)
    for f in factors:
        value /= f
    return SquareElimination(n, value, [[Fraction(v, d) for v in row[n:]] for row in A], [])


def min_norm_solution(M: Matrix, b: Vector) -> Vector | None:
    """The solution of M x = b of least Euclidean norm, or None if none exists.

    Computed as x0 - N (N^T N)^{-1} N^T x0 with N a kernel basis; exact since
    the Gram matrix of an independent rational family is invertible.
    """
    x0 = solve(M, b)
    if x0 is None:
        return None
    N = nullspace(M)
    if not N:
        return x0
    Nt = N  # rows of Nt are the kernel basis vectors
    gram = [[sum(u[i] * v[i] for i in range(len(x0))) for v in Nt] for u in Nt]
    rhs = [sum(u[i] * x0[i] for i in range(len(x0))) for u in Nt]
    z = mat_vec(inverse(gram), rhs)
    return [x0[i] - sum(z[k] * Nt[k][i] for k in range(len(Nt))) for i in range(len(x0))]
