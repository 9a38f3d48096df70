"""One fraction-free elimination per exact inverse, solve, rank and kernel.

exactla.inverse reads eliminate_square, min_norm_solution is the
pseudo-inverse times b, coord_to_std multiplies by big_c's cached
pseudo-inverse without eliminating at all, nullspace eliminates once, and
dmatrix_inverse checks its result once, as B @ A == I over D.  The
compositions they replaced, and the block embedding that dmatrix_inverse now
uses only at a column with no invertible pivot, are kept here as references:
results must be equal, entry types included, on H, C and E(a, b), split
algebras included.  Counting wrappers pin the number of eliminations and
embeddings.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exactla import matrices
from test_general_algebras import (
    IDEMPOTENT,
    NO_UNIT_PIVOT,
    SPLIT,
    block_matrix,
    dmatrices,
    elements,
    std_maps,
)
from test_mul_kernels import DUAL_H, algebras

from ncdr import dspace, exactla
from ncdr.algebra import COMPLEX, QUATERNIONS, make_quaternion_algebra, mul
from ncdr.dspace import DMatrix, dmatrix_inverse
from ncdr.errors import NotQuaternionBlock, Singular
from ncdr.linmap import (
    CoordMatrix,
    StdComponents,
    big_c,
    coord_to_std,
    embed_matrix,
    std_to_coord,
)


def reference_inverse(M):
    n = len(M)
    aug = [row[:] + ident_row[:] for row, ident_row in zip(M, exactla.identity(n))]
    R, pivots = exactla.rref(aug)
    if pivots != list(range(n)):
        raise Singular("matrix has no inverse over the rationals")
    return [row[n:] for row in R]


def reference_min_norm_solution(M, b):
    x0 = exactla.solve(M, b)
    if x0 is None:
        return None
    N = exactla.nullspace(M)
    if not N:
        return x0
    gram = [[sum(u[i] * v[i] for i in range(len(x0))) for v in N] for u in N]
    rhs = [sum(u[i] * x0[i] for i in range(len(x0))) for u in N]
    z = exactla.mat_vec(reference_inverse(gram), rhs)
    return [x0[i] - sum(z[k] * N[k][i] for k in range(len(N))) for i in range(len(x0))]


def reference_dmatrix_inverse(A):
    """Inverts the block embedding and re-embeds every block to check it."""
    n, r = A.alg.dim, A.shape[0]
    blocks = [[embed_matrix(e).mat for e in row] for row in A.entries]
    big = [[v for block in brow for v in block[bi]] for brow in blocks for bi in range(n)]
    inv = reference_inverse(big)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            candidate = A.alg.element([inv[n * i + bi][n * j] for bi in range(n)])
            pattern = embed_matrix(candidate).mat
            if any(inv[n * i + bi][n * j : n * j + n] != list(pattern[bi]) for bi in range(n)):
                raise NotQuaternionBlock(f"inverse block ({i},{j}) is not a left-action matrix")
            row.append(candidate)
        out.append(tuple(row))
    return DMatrix(tuple(out))


def outcome(f, *args):
    """f's result, or the type of the exception it raised."""
    try:
        return f(*args)
    except Singular:
        return Singular


def assert_fractions(values):
    assert all(type(v) is Fraction for v in values)


def assert_exact(element):
    assert element._ints is not None
    assert_fractions(element.coords)


@given(dmatrices())
@settings(max_examples=100, deadline=None)
def test_inverse_and_dmatrix_inverse_match_references(A):
    big = block_matrix(A)
    got = outcome(exactla.inverse, big)
    assert got == outcome(reference_inverse, big)
    if got is not Singular:
        assert_fractions(v for row in got for v in row)
    got = outcome(dmatrix_inverse, A)
    assert got == outcome(reference_dmatrix_inverse, A)
    if got is not Singular:
        for row in got.entries:
            for e in row:
                assert_exact(e)


@st.composite
def square_dmatrices(draw):
    """r x r matrices over H, C, E(-3/2, 5/7), split E(1, 1) and H[eps], r = 1-4
    (1-2 over H[eps]).  Zero entries, zero divisors x*e in E(1, 1), and a
    last row that is a left-combination of the rows above are drawn often."""
    alg = draw(st.sampled_from([QUATERNIONS, COMPLEX, make_quaternion_algebra(Fraction(-3, 2),
                                Fraction(5, 7)), SPLIT, DUAL_H]))
    r = draw(st.integers(1, 2 if alg is DUAL_H else 4))

    def entry():
        kind = draw(st.integers(0, 5))
        if kind == 0:
            return alg.zero
        x = draw(elements(alg))
        return mul(x, IDEMPOTENT) if kind == 1 and alg is SPLIT else x

    rows = [[entry() for _ in range(r)] for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        cs = [entry() for _ in range(r - 1)]
        rows[-1] = [sum((mul(c, row[j]) for c, row in zip(cs, rows)), alg.zero) for j in range(r)]
    return DMatrix(tuple(map(tuple, rows)))


@given(square_dmatrices())
@settings(max_examples=150, deadline=None)
def test_dmatrix_inverse_matches_block_embedding(A):
    got = outcome(dmatrix_inverse, A)
    assert got == outcome(reference_dmatrix_inverse, A)
    if got is not Singular:
        for row in got.entries:
            for e in row:
                assert_exact(e)


def test_dmatrix_inverse_without_invertible_pivots():
    assert dmatrix_inverse(NO_UNIT_PIVOT) == NO_UNIT_PIVOT
    with pytest.raises(Singular):
        dmatrix_inverse(DMatrix(((IDEMPOTENT, SPLIT.zero), (SPLIT.zero, SPLIT.one))))


@given(algebras.flatmap(lambda alg: st.tuples(std_maps(alg), std_maps(alg))))
@settings(max_examples=100, deadline=None)
def test_min_norm_solution_matches_reference_on_big_c(fg):
    # big_c of C is singular: a coordinate matrix of a map is in its range,
    # a drawn grid mostly is not.
    f, g = fg
    M = [list(row) for row in big_c(f.alg).mat]
    for grid in (std_to_coord(f).mat, g.comps):
        b = [v for row in grid for v in row]
        got = exactla.min_norm_solution(M, b)
        assert got == reference_min_norm_solution(M, b)
        if got is not None:
            assert_fractions(got)


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_min_norm_solution_matches_reference_on_general_matrices(M, data):
    # b = M x is consistent; a drawn b mostly is not when M is deficient.
    scalars = st.fractions(-9, 9, max_denominator=12)
    x = data.draw(st.lists(scalars, min_size=len(M[0]), max_size=len(M[0])))
    drawn = data.draw(st.lists(scalars, min_size=len(M), max_size=len(M)))
    for b in (exactla.mat_vec(M, x), drawn):
        got = exactla.min_norm_solution(M, b)
        assert got == reference_min_norm_solution(M, b)
        if got is not None:
            assert_fractions(got)


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    fraction_free, embed = exactla._fraction_free, dspace.embed_matrix

    def counted_fraction_free(A):
        counts["eliminations"] += 1
        return fraction_free(A)

    def counted_embed(a):
        counts["embeddings"] += 1
        return embed(a)

    monkeypatch.setattr(exactla, "_fraction_free", counted_fraction_free)
    monkeypatch.setattr(dspace, "embed_matrix", counted_embed)
    return counts


def test_one_elimination_per_operation(calls):
    big_c(COMPLEX)  # cached: its eliminations, pseudo-inverse included, are not counted
    f = std_to_coord(StdComponents.from_rows(COMPLEX, [[1, 2], [-3, 5]]))
    calls.clear()
    assert not coord_to_std(f).unique
    # Two products with big_c's cached integer rows: the pseudo-inverse and
    # the membership check.  No elimination.
    assert calls["eliminations"] == 0

    singular = CoordMatrix.from_rows(QUATERNIONS, [[1, 2, 0, 0], [2, 4, 0, 0],
                                                   [0, 0, 1, 0], [0, 0, 0, 1]])
    for m, rank in ((singular, 3), (CoordMatrix.identity(QUATERNIONS), 4)):
        calls.clear()
        assert len(exactla.nullspace([list(row) for row in m.mat])) == 4 - rank
        assert calls["eliminations"] == 1

    # Over H every pivot inverts: Gauss-Jordan over D, no embedding.  The
    # fallback, at a column with no invertible entry, embeds every entry
    # and eliminates once.
    H = QUATERNIONS
    for r in (1, 2, 3):
        A = DMatrix(tuple(tuple(H.element([1 + (i == j), i, j, 1]) for j in range(r))
                          for i in range(r)))
        calls.clear()
        B = dmatrix_inverse(A)
        assert B @ A == DMatrix.identity(H, r)
        assert (calls["embeddings"], calls["eliminations"]) == (0, 0)
    calls.clear()
    assert dmatrix_inverse(NO_UNIT_PIVOT) == NO_UNIT_PIVOT
    assert (calls["embeddings"], calls["eliminations"]) == (4, 1)
