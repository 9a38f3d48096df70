"""big_c eliminated block by block on integers, against its dense body.

big_c used to build the contraction as n^4 Fractions, eliminate [M | I] once
with exactla.eliminate_square and convert the Fraction mat and inverse (or
pseudo-inverse) back to integer rows.  It now keeps the contraction as
integers over den^2 and hands it to exactla.eliminate_blocks, which splits
it into the connected components of its nonzero pattern and eliminates each
block on its own.  The dense body is kept here as the reference: every field
must be equal, entry types included, on H, C, H[eps], C[eps] and E(a, b),
split algebras included.  eliminate_blocks is checked on permuted
block-diagonal matrices against the whole-matrix eliminations, a counting
wrapper pins its eliminations to the blocks, and the cache is bounded.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_algebra import dual_extension
from test_mul_kernels import DUAL_H, algebras

from ncdr import exactla
from ncdr.algebra import COMPLEX, QUATERNIONS, make_quaternion_algebra
from ncdr.linmap import BigC, _square, big_c

ALGEBRAS = (
    QUATERNIONS,
    COMPLEX,
    DUAL_H,
    dual_extension(COMPLEX),
    make_quaternion_algebra(1, 1),
    make_quaternion_algebra(Fraction(-3, 2), Fraction(5, 7)),
)


def reference_big_c(alg):
    """big_c's body before the block split."""
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


def assert_same_big_c(got, want):
    assert got.alg == want.alg
    assert got.mat == want.mat
    assert got.rank == want.rank
    assert got.det == want.det
    assert got.zero_map_kernel == want.zero_map_kernel
    assert got.mat_rows == want.mat_rows
    assert got.pinv_rows == want.pinv_rows
    assert type(got.det) is Fraction
    grids = [got.mat, *got.zero_map_kernel]
    assert all(type(v) is Fraction for grid in grids for row in grid for v in row)
    for rows in (got.mat_rows, got.pinv_rows):
        assert all(type(d) is int and d > 0 for _, d in rows)
        assert all(type(c) is int and type(a) is int for terms, _ in rows for c, a in terms)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: alg.name)
def test_big_c_matches_dense_reference(alg):
    assert_same_big_c(big_c(alg), reference_big_c(alg))


@given(algebras)
@settings(max_examples=60, deadline=None)
def test_big_c_matches_dense_reference_on_drawn_algebras(alg):
    assert_same_big_c(big_c.__wrapped__(alg), reference_big_c(alg))


scalars = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def block_diagonal(draw):
    """A block-diagonal rational matrix with its rows and columns shuffled.

    Blocks run from 0 x c and r x 0 (zero columns and rows) to 3 x 3, with
    zeros among the entries, so blocks are singular, rectangular or split
    further; one dense block of up to 5 x 5 covers the undivided case.
    """
    shapes = draw(st.one_of(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5),
        st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda rc: [rc]),
    ))
    m, k = sum(r for r, _ in shapes), sum(c for _, c in shapes)
    assume(m > 0)
    M = [[Fraction(0)] * k for _ in range(m)]
    top = left = 0
    for r, c in shapes:
        for i in range(top, top + r):
            for j in range(left, left + c):
                M[i][j] = draw(scalars)
        top, left = top + r, left + c
    row_order = draw(st.permutations(range(m)))
    col_order = draw(st.permutations(range(k)))
    return [[M[i][j] for j in col_order] for i in row_order]


@given(block_diagonal())
@settings(max_examples=300, deadline=None)
def test_eliminate_blocks_matches_whole_matrix_eliminations(M):
    m, k = len(M), len(M[0])
    nums, den = exactla.numerators([v for row in M for v in row])
    A = [nums[i * k : (i + 1) * k] for i in range(m)]
    got = exactla.eliminate_blocks(A, den)
    assert got.rank == exactla.rank(M)
    assert got.pinv_rows == exactla.int_rows(exactla.pseudo_inverse(M))
    assert got.kernel == exactla.nullspace(M)
    assert all(type(v) is Fraction for vec in got.kernel for v in vec)
    assert type(got.det) is Fraction
    if m != k:
        assert got.det == 0
        return
    whole = exactla.eliminate_square(M)
    assert (got.rank, got.det) == (whole.rank, whole.det)
    if whole.inverse is not None:
        assert got.pinv_rows == exactla.int_rows(whole.inverse)
    else:
        assert got.kernel == whole.kernel


def test_eliminate_blocks_of_zero_lines():
    # A zero column is its own kernel vector; a zero row adds nothing.
    got = exactla.eliminate_blocks([[0, 0, 2], [0, 0, 0]], 3)
    assert got.rank == 1 and got.det == 0
    assert got.kernel == [[1, 0, 0], [0, 1, 0]]
    assert got.pinv_rows == (((), 1), ((), 1), (((0, 3),), 2))


@pytest.fixture
def eliminated_rows(monkeypatch):
    rows = []
    fraction_free = exactla._fraction_free

    def counted_fraction_free(A):
        rows.append(len(A))
        return fraction_free(A)

    monkeypatch.setattr(exactla, "_fraction_free", counted_fraction_free)
    return rows


@pytest.mark.parametrize("alg", [QUATERNIONS, make_quaternion_algebra(Fraction(2, 3), 5)],
                         ids=lambda alg: alg.name)
def test_graded_big_c_eliminates_four_4_row_blocks(alg, eliminated_rows):
    # E(a, b) is Z/2 x Z/2-graded, so its 16 x 16 contraction is four 4 x 4
    # blocks after a row and column permutation; the dense body made one
    # 16-row elimination.
    big_c.__wrapped__(alg)
    assert eliminated_rows == [4, 4, 4, 4]


def test_dual_big_c_eliminates_no_more_than_8_rows(eliminated_rows):
    # H[eps]'s 64 x 64 contraction is 4 x 8 and 8 x 4 blocks and zero lines.
    big_c.__wrapped__(DUAL_H)
    assert eliminated_rows and max(eliminated_rows) <= 8


def test_big_c_cache_is_bounded():
    size = big_c.cache_info().maxsize
    assert size is not None
    want = {alg: reference_big_c(alg) for alg in (QUATERNIONS, COMPLEX)}
    rng = random.Random(7)
    for t in range(200):
        a, b = (Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 3))
                for _ in range(2))
        big_c(make_quaternion_algebra(a, b, name=f"fresh-{t}"))
        assert big_c.cache_info().currsize <= size
    for alg, ref in want.items():
        assert_same_big_c(big_c(alg), ref)
    big_c.cache_clear()
    assert big_c.cache_info().currsize == 0
    assert_same_big_c(big_c(QUATERNIONS), want[QUATERNIONS])
