"""Exact linear-map identities over general E(a, b), split algebras included.

The algebras are test_mul_kernels' strategy: H, C and E(a, b) with a*b != 0
and a, b != +-1, so both division and split quaternion algebras appear.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mul_kernels import algebras

from ncdr import exactla
from ncdr.algebra import COMPLEX, make_quaternion_algebra, mul
from ncdr.dspace import DMatrix, dmatrix_inverse
from ncdr.errors import Singular
from ncdr.linmap import (
    CoordMatrix,
    StdComponents,
    compose_std,
    coord_to_std,
    embed_matrix,
    std_to_coord,
)

scalars = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
SPLIT = make_quaternion_algebra(1, 1)
IDEMPOTENT = SPLIT.element([Fraction(1, 2), Fraction(1, 2), 0, 0])  # e = (1 + i)/2, e(1 - e) = 0
# No entry of either column inverts; the matrix is its own inverse.
NO_UNIT_PIVOT = DMatrix(((IDEMPOTENT, SPLIT.one - IDEMPOTENT),
                         (SPLIT.one - IDEMPOTENT, IDEMPOTENT)))


def elements(alg):
    return st.lists(scalars, min_size=alg.dim, max_size=alg.dim).map(alg.element)


def std_maps(alg):
    n = alg.dim
    return st.lists(scalars, min_size=n * n, max_size=n * n).map(
        lambda flat: StdComponents.from_rows(alg, [flat[i * n : (i + 1) * n] for i in range(n)])
    )


@given(algebras.flatmap(lambda alg: st.tuples(*[elements(alg)] * 3)))
@settings(max_examples=100, deadline=None)
def test_embedding_is_left_multiplication_and_a_ring_homomorphism(abx):
    a, b, x = abx
    alg = a.alg
    Ja, Jb = embed_matrix(a), embed_matrix(b)
    assert Ja.apply(x) == mul(a, x)
    assert embed_matrix(mul(a, b)) == Ja @ Jb
    assert embed_matrix(a + b).mat == tuple(
        tuple(u + v for u, v in zip(ra, rb)) for ra, rb in zip(Ja.mat, Jb.mat)
    )
    assert embed_matrix(alg.one) == CoordMatrix.identity(alg)


@st.composite
def dmatrices(draw):
    """2 x 2 matrices; with dependent rows the second is c times the first."""
    alg = draw(algebras)
    first = (draw(elements(alg)), draw(elements(alg)))
    if draw(st.booleans()):
        c = draw(elements(alg))
        second = (mul(c, first[0]), mul(c, first[1]))
    else:
        second = (draw(elements(alg)), draw(elements(alg)))
    return DMatrix((first, second))


def block_matrix(A):
    n = A.alg.dim
    big = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(2):
        for j in range(2):
            block = embed_matrix(A.entries[i][j]).mat
            for bi in range(n):
                for bj in range(n):
                    big[n * i + bi][n * j + bj] = block[bi][bj]
    return big


@given(dmatrices())
@settings(max_examples=100, deadline=None)
def test_dmatrix_inverse_round_trips_or_is_singular(A):
    eye = DMatrix.identity(A.alg, 2)
    if exactla.det(block_matrix(A)) == 0:
        with pytest.raises(Singular):
            dmatrix_inverse(A)
    else:
        B = dmatrix_inverse(A)
        assert A @ B == eye
        assert B @ A == eye


def test_dmatrix_inverse_over_complex():
    C = COMPLEX
    one, i = C.one, C.basis(1)
    A = DMatrix(((one, i), (i, C.element([2, 0]))))
    B = dmatrix_inverse(A)
    # det = 2 - i*i = 3, so the inverse is (1/3) [[2, -i], [-i, 1]].
    third = Fraction(1, 3)
    assert B == DMatrix(
        (
            (C.element([2 * third, 0]), C.element([0, -third])),
            (C.element([0, -third]), C.element([third, 0])),
        )
    )
    assert A @ B == DMatrix.identity(C, 2) == B @ A
    with pytest.raises(Singular):
        dmatrix_inverse(DMatrix(((one, i), (i, -one))))


@given(algebras.flatmap(std_maps))
@settings(max_examples=60, deadline=None)
def test_std_coord_round_trip(f):
    m = std_to_coord(f)
    sol = coord_to_std(m)
    # The contraction is invertible exactly for the 4-dimensional quaternion
    # algebras, split or not; over C the minimum-norm representative
    # reproduces the same matrix.
    assert sol.unique == (f.alg.dim == 4)
    if sol.unique:
        assert sol.components == f
    assert std_to_coord(sol.components) == m


@given(algebras.flatmap(lambda alg: st.tuples(std_maps(alg), std_maps(alg))))
@settings(max_examples=60, deadline=None)
def test_compose_std_matches_coordinate_product(fg):
    f, g = fg
    assert std_to_coord(compose_std(g, f)) == std_to_coord(g) @ std_to_coord(f)
