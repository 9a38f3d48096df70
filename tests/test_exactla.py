"""Exact rational elimination: rank, determinant, solve, nullspace.

The single fraction-free routine behind rref, rank and det is checked against
the two eliminations it replaced, kept here as references: Gauss-Jordan on
Fractions for rref, and Bareiss below the pivot for rank and det.  The
integer mat_mul and mat_vec are checked against the Fraction loops they
replaced, kept here the same way.  pseudo_inverse is checked against the four
Penrose conditions, and every routine must give equal results on tuple rows.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdr import exactla
from ncdr.errors import Singular


def frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def cofactor_det(M):
    # Independent oracle: Laplace expansion along the first row.
    n = len(M)
    if n == 1:
        return M[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * cofactor_det(minor)
    return total


def test_det_known_values():
    assert exactla.det(frac_matrix([[1, 2], [3, 4]])) == -2
    assert exactla.det(frac_matrix([[1, 2], [2, 4]])) == 0
    M = frac_matrix([["1/2", 3], ["-2/3", "1/5"]])
    assert exactla.det(M) == Fraction(1, 10) + 2


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        M = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        assert exactla.det(M) == cofactor_det(M)


def test_rank_and_nullspace():
    M = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert exactla.rank(M) == 2
    basis = exactla.nullspace(M)
    assert len(basis) == 1
    for v in basis:
        assert exactla.mat_vec(M, v) == [0, 0, 0]
    assert exactla.rank(exactla.identity(5)) == 5
    assert exactla.rank([[Fraction(0)] * 3 for _ in range(2)]) == 0


def test_solve_and_consistency():
    M = frac_matrix([[1, 1], [2, 2]])
    assert exactla.solve(M, [Fraction(2), Fraction(4)]) is not None
    assert exactla.solve(M, [Fraction(2), Fraction(5)]) is None
    A = frac_matrix([[2, 1], [1, 3]])
    x = exactla.solve(A, [Fraction(5), Fraction(10)])
    assert exactla.mat_vec(A, x) == [5, 10]


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        while True:
            M = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            if exactla.det(M) != 0:
                break
        inv = exactla.inverse(M)
        assert exactla.mat_mul(M, inv) == exactla.identity(n)
        assert exactla.mat_mul(inv, M) == exactla.identity(n)
    with pytest.raises(Singular):
        exactla.inverse(frac_matrix([[1, 2], [2, 4]]))


def test_min_norm_solution():
    # x + y = 2 has min-norm solution (1, 1).
    M = frac_matrix([[1, 1]])
    assert exactla.min_norm_solution(M, [Fraction(2)]) == [1, 1]
    # Inconsistent system reports None.
    M2 = frac_matrix([[1, 1], [1, 1]])
    assert exactla.min_norm_solution(M2, [Fraction(0), Fraction(1)]) is None
    # Unique system returns its solution.
    A = frac_matrix([[1, 0], [0, 2]])
    assert exactla.min_norm_solution(A, [Fraction(3), Fraction(4)]) == [3, 2]


def test_min_norm_is_orthogonal_to_kernel():
    rng = random.Random(11)
    for _ in range(10):
        M = [
            [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            for _ in range(2)
        ]
        target = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        b = exactla.mat_vec(M, target)
        x = exactla.min_norm_solution(M, b)
        assert exactla.mat_vec(M, x) == b
        for v in exactla.nullspace(M):
            assert sum(a * c for a, c in zip(x, v)) == 0


def reference_rref(M):
    R = [row[:] for row in M]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
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


def reference_rank(M):
    if not M or not M[0]:
        return 0
    A, _ = exactla._integerize_rows(M)
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


def reference_det(M):
    n = len(M)
    if n == 0:
        return Fraction(1)
    A, factors = exactla._integerize_rows(M)
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


entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def matrices(draw, square=False):
    """Rational matrices up to 6 x 8: full, rank-deficient, with zero lines."""
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 8))

    def block(r, c):
        flat = draw(st.lists(entries, min_size=r * c, max_size=r * c))
        return [flat[i * c : (i + 1) * c] for i in range(r)]

    kind = draw(st.sampled_from(["full", "deficient", "zero-lines"]))
    if kind == "deficient":
        inner = draw(st.integers(0, min(rows, cols) - 1))
        M = exactla.mat_mul(block(rows, inner), block(inner, cols)) if inner else [
            [Fraction(0)] * cols for _ in range(rows)
        ]
    else:
        M = block(rows, cols)
    if kind == "zero-lines":
        for i in draw(st.sets(st.integers(0, rows - 1))):
            M[i] = [Fraction(0)] * cols
        for j in draw(st.sets(st.integers(0, cols - 1))):
            for row in M:
                row[j] = Fraction(0)
    return M


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rref_and_rank_match_references(M):
    copy = [row[:] for row in M]
    R, pivots = exactla.rref(M)
    assert (R, pivots) == reference_rref(M)
    assert all(type(v) is Fraction for row in R for v in row)
    assert exactla.rank(M) == reference_rank(M) == len(pivots)
    assert M == copy


@given(matrices(square=True))
@settings(max_examples=300, deadline=None)
def test_det_matches_reference(M):
    assert exactla.det(M) == reference_det(M)


def test_empty_and_tall_shapes():
    assert exactla.det([]) == 1
    assert exactla.rank([]) == 0
    assert exactla.rank([[]]) == 0
    assert exactla.rref([]) == ([], [])
    tall = frac_matrix([[0, 2], [0, 4], [3, 1], [6, 2]])
    assert exactla.rref(tall) == reference_rref(tall)
    assert exactla.rank(tall) == 2


@given(matrices(square=True))
@settings(max_examples=300, deadline=None)
def test_eliminate_square_matches_separate_passes(M):
    copy = [row[:] for row in M]
    got = exactla.eliminate_square(M)
    assert got.rank == exactla.rank(M)
    assert got.det == exactla.det(M)
    if got.rank == len(M):
        assert got.inverse == exactla.inverse(M)
        assert got.kernel == []
    else:
        assert got.inverse is None
        assert got.kernel == exactla.nullspace(M)
    assert M == copy


def test_eliminate_square_of_empty_matrix():
    assert exactla.eliminate_square([]) == (0, Fraction(1), [], [])


@st.composite
def sparse_matrices(draw, square=False):
    """Integer matrices up to 8 x 10 with about a fifth of the entries nonzero."""
    rows = draw(st.integers(1, 8))
    cols = rows if square else draw(st.integers(1, 10))
    M = [[Fraction(0)] * cols for _ in range(rows)]
    for _ in range(draw(st.integers(0, rows * cols // 5 + 1))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        M[i][j] = Fraction(draw(st.integers(-9, 9)))
    return M


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_matrices_match_references(M):
    # Most rows hold 0 in the pivot column, so they take the scaling-only update.
    R, pivots = exactla.rref(M)
    assert (R, pivots) == reference_rref(M)
    assert exactla.rank(M) == reference_rank(M) == len(pivots)


@given(sparse_matrices(square=True))
@settings(max_examples=300, deadline=None)
def test_sparse_square_eliminations_match_references(M):
    n = len(M)
    got = exactla.eliminate_square(M)
    assert got.det == exactla.det(M) == reference_det(M)
    assert got.rank == reference_rank(M)
    R, pivots = reference_rref([row + [Fraction(int(i == j)) for j in range(n)]
                                for i, row in enumerate(M)])
    if got.rank == n:
        assert got.inverse == [row[n:] for row in R]
    else:
        assert got.inverse is None
        assert len(got.kernel) == n - got.rank
        assert all(reference_mat_vec(M, v) == [0] * n for v in got.kernel)
        assert got.kernel == exactla.nullspace(M)


def reference_mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    return [
        [sum((A[i][k] * B[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


def reference_mat_vec(A, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in A]


@given(matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_mat_mul_and_mat_vec_match_references(A, data):
    inner, cols = len(A[0]), data.draw(st.integers(1, 8), label="cols")
    row = st.lists(entries, min_size=cols, max_size=cols)
    B = data.draw(st.lists(row, min_size=inner, max_size=inner), label="B")
    for j in data.draw(st.sets(st.integers(0, cols - 1)), label="zero columns"):
        for r in B:
            r[j] = Fraction(0)
    v = [r[0] for r in B]
    copies = [row[:] for row in A], [row[:] for row in B]
    got = exactla.mat_mul(A, B)
    assert got == reference_mat_mul(A, B)
    assert all(type(x) is Fraction for row in got for x in row)
    got = exactla.mat_vec(A, v)
    assert got == reference_mat_vec(A, v)
    assert all(type(x) is Fraction for x in got)
    assert (A, B) == copies


def test_mat_mul_mixed_denominators_and_zero_lines():
    A = [[Fraction(1, 2), Fraction(0), Fraction(-2, 3)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    B = [[Fraction(3, 7), Fraction(0)], [Fraction(5), Fraction(0)], [Fraction(9, 4), Fraction(0)]]
    assert exactla.mat_mul(A, B) == [[Fraction(3, 14) - Fraction(3, 2), 0], [0, 0]]
    assert exactla.mat_vec(A, [Fraction(1, 5), Fraction(7), Fraction(3, 10)]) == [
        Fraction(1, 10) - Fraction(1, 5), 0]
    assert exactla.mat_mul([[Fraction(2, 3)]], [[Fraction(3, 4)]]) == [[Fraction(1, 2)]]


def transpose(M):
    return [list(col) for col in zip(*M)]


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_pseudo_inverse_satisfies_the_penrose_conditions(M):
    X = exactla.pseudo_inverse(M)
    assert (len(X), len(X[0])) == (len(M[0]), len(M))
    assert all(type(v) is Fraction for row in X for v in row)
    MX, XM = exactla.mat_mul(M, X), exactla.mat_mul(X, M)
    assert exactla.mat_mul(MX, M) == M
    assert exactla.mat_mul(XM, X) == X
    assert transpose(MX) == MX
    assert transpose(XM) == XM


def test_pseudo_inverse_known_values():
    assert exactla.pseudo_inverse(frac_matrix([[0, 0, 0], [0, 0, 0]])) == [[0, 0]] * 3
    assert exactla.pseudo_inverse(frac_matrix([[1, 1]])) == [[Fraction(1, 2)], [Fraction(1, 2)]]
    assert exactla.pseudo_inverse(frac_matrix([[2, 0], [0, 4]])) == [
        [Fraction(1, 2), 0], [0, Fraction(1, 4)]]


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_tuple_rows_give_the_same_results(M, data):
    T = tuple(map(tuple, M))
    b = data.draw(st.lists(entries, min_size=len(M), max_size=len(M)))
    for f in (exactla.rref, exactla.rank, exactla.nullspace, exactla.pseudo_inverse):
        assert f(T) == f(M)
    for rhs in (b, exactla.mat_vec(M, [Fraction(1)] * len(M[0]))):
        assert exactla.solve(T, tuple(rhs)) == exactla.solve(M, rhs)
        assert exactla.min_norm_solution(T, tuple(rhs)) == exactla.min_norm_solution(M, rhs)
    assert exactla.mat_mul(T, tuple(zip(*T))) == exactla.mat_mul(M, transpose(M))
    S = T[: len(T[0])] if len(T) >= len(T[0]) else tuple(row[: len(T)] for row in T)
    square = [list(row) for row in S]
    assert exactla.det(S) == exactla.det(square)
    assert exactla.eliminate_square(S) == exactla.eliminate_square(square)
    try:
        want = exactla.inverse(square)
    except Singular:
        with pytest.raises(Singular):
            exactla.inverse(S)
    else:
        assert exactla.inverse(S) == want
