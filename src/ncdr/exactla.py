"""Exact linear algebra over the rationals.

Rank and determinant go through fraction-free (Bareiss) elimination on a
denominator-cleared integer copy; solving, nullspaces and inverses use plain
Gauss-Jordan on Fractions.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    R = [row[:] for row in M]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if pivot_row is None:
            continue
        R[r], R[pivot_row] = R[pivot_row], R[r]
        inv = Fraction(1) / R[r][c]
        R[r] = [v * inv for v in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


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


def rank(M: Matrix) -> int:
    """Rank via fraction-free Bareiss elimination."""
    if not M or not M[0]:
        return 0
    A, _ = _integerize_rows(M)
    rows, cols = len(A), len(A[0])
    r = 0
    prev = 1
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if pivot_row is None:
            continue
        A[r], A[pivot_row] = A[pivot_row], A[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                A[i][j] = (A[i][j] * A[r][c] - A[i][c] * A[r][j]) // prev
            A[i][c] = 0
        prev = A[r][c]
        r += 1
        if r == rows:
            break
    return r


def det(M: Matrix) -> Fraction:
    """Determinant via Bareiss; exact, fraction-free after row clearing."""
    n = len(M)
    if n == 0:
        return Fraction(1)
    assert all(len(row) == n for row in M)
    A, factors = _integerize_rows(M)
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot_row = next((i for i in range(c, n) if A[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            A[c], A[pivot_row] = A[pivot_row], A[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                A[i][j] = (A[i][j] * A[c][c] - A[i][c] * A[c][j]) // prev
            A[i][c] = 0
        prev = A[c][c]
    value = Fraction(sign * A[n - 1][n - 1])
    for f in factors:
        value /= f
    return value


def nullspace(M: Matrix) -> list[Vector]:
    """Basis of the kernel, one vector per free column."""
    if not M:
        return []
    R, pivots = rref(M)
    cols = len(M[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in enumerate(pivots):
            v[pc] = -R[row][fc]
        basis.append(v)
    return basis


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
