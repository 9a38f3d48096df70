"""coord_to_std as one product with big_c's cached pseudo-inverse.

Before, coord_to_std multiplied by big_c's inverse when big_c was invertible
and otherwise ran exactla.min_norm_solution on big_c, which eliminated
[M | b] and solved a Gram system on every call.  That coord_to_std and that
min_norm_solution are kept here as references.  Over C, R[eps] (e1^2 = 0),
C[eps], H and E(a, b) the new one must give equal components, the same
unique flag and the same error type, on converted maps (always
representable) and on drawn grids (mostly not, when big_c is singular).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import dual_extension
from test_general_algebras import std_maps

from ncdr import exactla
from ncdr.algebra import COMPLEX, QUATERNIONS, AlgebraSpec, make_quaternion_algebra
from ncdr.errors import NotRepresentable
from ncdr.linmap import (
    CoordMatrix,
    StdComponents,
    StdSolution,
    _square,
    big_c,
    coord_to_std,
    std_to_coord,
)


def reference_min_norm_solution(M, b):
    """x0 - N (N^T N)^{-1} N^T x0, with x0 and N read off one rref of [M | b]."""
    cols = len(M[0])
    R, pivots = exactla.rref([row + [rhs] for row, rhs in zip(M, b)])
    if cols in pivots:
        return None
    x0 = [Fraction(0)] * cols
    for row, pc in enumerate(pivots):
        x0[pc] = R[row][cols]
    N = exactla._kernel(R, pivots, cols)
    if not N:
        return x0
    gram = [[sum(a * c for a, c in zip(u, v)) for v in N] for u in N]
    z = exactla.solve(gram, [sum(a * c for a, c in zip(u, x0)) for u in N])
    return [x0[i] - sum(z[k] * N[k][i] for k in range(len(N))) for i in range(cols)]


def reference_coord_to_std(m):
    alg = m.alg
    n = alg.dim
    B = big_c(alg)
    rhs = [m.mat[j][i] for j in range(n) for i in range(n)]
    if B.rank == n * n:
        x = exactla.mat_vec(exactla.inverse([list(r) for r in B.mat]), rhs)
        unique = True
    else:
        x = reference_min_norm_solution([list(r) for r in B.mat], rhs)
        if x is None:
            raise NotRepresentable("coordinate matrix lies outside the representable subspace")
        unique = False
    return StdSolution(StdComponents(alg, _square(x, n)), unique)


def _dual_numbers() -> AlgebraSpec:
    one, zero = Fraction(1), Fraction(0)
    C = (((one, zero), (zero, one)), ((zero, one), (zero, zero)))
    return AlgebraSpec(name="R[eps]", dim=2, structure=C)


DUAL = _dual_numbers()
COMPLEX_DUAL = dual_extension(COMPLEX)
ALGEBRAS = (COMPLEX, DUAL, COMPLEX_DUAL, QUATERNIONS, make_quaternion_algebra(3, Fraction(-2, 5)))


def test_ranks_of_the_singular_contractions():
    assert (big_c(COMPLEX).rank, big_c(DUAL).rank, big_c(COMPLEX_DUAL).rank) == (2, 2, 4)


def outcome(m):
    try:
        return coord_to_std(m)
    except NotRepresentable as exc:
        return type(exc), str(exc)


def reference_outcome(m):
    try:
        return reference_coord_to_std(m)
    except NotRepresentable as exc:
        return type(exc), str(exc)


@given(st.sampled_from(ALGEBRAS).flatmap(lambda alg: st.tuples(std_maps(alg), std_maps(alg))))
@settings(max_examples=150, deadline=None)
def test_coord_to_std_matches_reference(fg):
    f, g = fg
    alg = f.alg
    converted = std_to_coord(f)
    drawn = CoordMatrix(alg, g.comps)
    for m in (converted, drawn):
        got = outcome(m)
        assert got == reference_outcome(m)
        if isinstance(got, StdSolution):
            assert all(type(v) is Fraction for row in got.components.comps for v in row)
    # A converted map is always representable, and its components reproduce it.
    sol = coord_to_std(converted)
    assert sol.unique == (big_c(alg).rank == alg.dim ** 2)
    assert std_to_coord(sol.components) == converted


def test_unrepresentable_matrices_are_refused():
    # Conjugation over C and the swap of 1 and eps over R[eps] are not of the
    # form x -> sum f^{ij} e_i x e_j: both algebras are commutative.
    for alg in (COMPLEX, DUAL):
        with pytest.raises(NotRepresentable, match="outside the representable subspace"):
            coord_to_std(CoordMatrix.from_rows(alg, [[1, 0], [0, -1]]))
    with pytest.raises(NotRepresentable):
        coord_to_std(CoordMatrix.from_rows(DUAL, [[0, 1], [1, 0]]))
