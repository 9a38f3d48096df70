"""The integer linear-map layer against the Fraction loops it replaced.

big_c's contraction, std_to_coord, compose_std, embed_matrix and the
associativity check of AlgebraSpec run on integer numerators over the sparse
structure triples, and CoordMatrix.apply and component_sum_to_std are
exactla products over exact coordinates; those two reject float inputs with
TypeError.  The dense Fraction loops they replaced are kept here as
references: results must be equal, entry types included, and a corrupted
tensor must be rejected with the same message, naming the same first
violating basis triple.  Float standard components take std_to_coord's float
branch, whose entries must be the reference's bit for bit.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mul_kernels import algebras

from ncdr import exactla, maps
from ncdr.algebra import COMPLEX, AlgebraSpec, Element
from ncdr.dspace import ComponentMap, component_sum_to_std
from ncdr.errors import AxiomViolated
from ncdr.gateaux import differential_std_components
from ncdr.linmap import (
    CoordMatrix,
    StdComponents,
    big_c,
    compose_std,
    coord_to_std,
    embed_matrix,
    std_to_coord,
)


@lru_cache(maxsize=None)
def reference_big_c_mat(alg):
    n = alg.dim
    C = alg.structure
    size = n * n
    mat = [[Fraction(0)] * size for _ in range(size)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                for r in range(n):
                    mat[j * n + i][k * n + r] = sum(
                        (C[k][i][p] * C[p][r][j] for p in range(n)), Fraction(0)
                    )
    return tuple(tuple(row) for row in mat)


def reference_std_to_coord(f):
    n = f.alg.dim
    B = reference_big_c_mat(f.alg)
    out = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            acc = Fraction(0)
            row = B[j * n + i]
            for k in range(n):
                for r in range(n):
                    c = row[k * n + r]
                    if c:
                        acc += c * f.comps[k][r]
            out[j][i] = acc
    return out


def reference_compose_std(g, f):
    n = g.alg.dim
    out = [[Fraction(0)] * n for _ in range(n)]
    triples = g.alg._nonzero_triples
    for i, k, p, c1 in triples:
        for l, j, r, c2 in triples:
            v = g.comps[i][j] * f.comps[k][l]
            if v:
                out[p][r] += v * c1 * c2
    return out


def reference_embed_matrix(a):
    n = a.alg.dim
    J = [[Fraction(0)] * n for _ in range(n)]
    for k, l, p, c in a.alg._nonzero_triples:
        J[p][l] += a.coords[k] * c
    return J


def reference_associativity_message(n, C):
    for k in range(n):
        for l in range(n):
            for m in range(n):
                for q in range(n):
                    lhs = sum(C[k][l][p] * C[p][m][q] for p in range(n))
                    rhs = sum(C[l][m][p] * C[k][p][q] for p in range(n))
                    if lhs != rhs:
                        return f"associativity violated at (e_{k} e_{l}) e_{m}"
    return None


def assert_same_grid(got, want):
    assert [list(row) for row in got] == [list(row) for row in want]
    for g, w in zip((v for row in got for v in row), (v for row in want for v in row)):
        assert type(g) is type(w)
        if isinstance(w, float):
            assert g.hex() == w.hex()


values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=97),
)


def grids(alg):
    n = alg.dim
    return st.lists(values, min_size=n * n, max_size=n * n).map(
        lambda flat: tuple(tuple(flat[i * n : i * n + n]) for i in range(n))
    )


@st.composite
def algebra_and_maps(draw):
    alg = draw(algebras)
    a = Element(alg, tuple(draw(values) for _ in range(alg.dim)))
    return alg, StdComponents(alg, draw(grids(alg))), StdComponents(alg, draw(grids(alg))), a


@given(algebra_and_maps())
@settings(max_examples=100, deadline=None)
def test_layer_matches_dense_references(case):
    alg, f, g, a = case
    B = big_c(alg)
    want = reference_big_c_mat(alg)
    # rank, det, the inverse and the kernel are read off mat by one elimination.
    assert_same_grid(B.mat, want)
    assert_same_grid(std_to_coord(f).mat, reference_std_to_coord(f))
    assert_same_grid(compose_std(g, f).comps, reference_compose_std(g, f))
    assert_same_grid(embed_matrix(a).mat, reference_embed_matrix(a))
    # coord_to_std inverts through the cached integer rows of big_c's inverse.
    n = alg.dim
    if B.rank == n * n:
        sol = coord_to_std(CoordMatrix(alg, g.comps))
        rhs = [v for row in g.comps for v in row]
        x = exactla.mat_vec(exactla.inverse([list(r) for r in B.mat]), rhs)
        assert_same_grid(sol.components.comps, [x[k * n : k * n + n] for k in range(n)])



def reference_apply(m, a):
    n = m.alg.dim
    return [sum((m.mat[j][i] * a.coords[i] for i in range(n)), Fraction(0)) for j in range(n)]


def reference_component_sum_to_std(pairs, n):
    out = [[Fraction(0)] * n for _ in range(n)]
    for u, v in pairs:
        for i in range(n):
            if u.coords[i]:
                for j in range(n):
                    out[i][j] += u.coords[i] * v.coords[j]
    return out


@given(algebra_and_maps(), st.data())
@settings(max_examples=100, deadline=None)
def test_element_entry_points_match_fraction_references(case, data):
    # Exact inputs only: a float element, a float-entry matrix or a float
    # pair raises TypeError.
    alg, f, g, a = case
    n = alg.dim
    for m in (std_to_coord(f), CoordMatrix(alg, g.comps)):
        assert_same_grid([m.apply(a).coords], [reference_apply(m, a)])
        with pytest.raises(TypeError):
            m.apply(a.to_float())
    with pytest.raises(TypeError):
        CoordMatrix(alg, tuple(tuple(float(v) for v in row) for row in g.comps)).apply(a)
    element = st.tuples(*[values] * n).map(lambda c: Element(alg, c))
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=4).map(tuple))
    got = component_sum_to_std(ComponentMap(alg, ((pairs,),))).comps
    assert_same_grid(got, reference_component_sum_to_std(pairs, n))
    if pairs:
        floaty = ((pairs[0][0].to_float(), pairs[0][1]),) + pairs[1:]
        with pytest.raises(TypeError):
            component_sum_to_std(ComponentMap(alg, ((floaty,),)))

floats = st.one_of(st.just(0.0), st.floats(min_value=-1e6, max_value=1e6))


@given(algebras.flatmap(lambda alg: st.lists(floats, min_size=alg.dim**2, max_size=alg.dim**2)
                        .map(lambda flat: (alg, flat))))
@settings(max_examples=100, deadline=None)
def test_float_components_match_the_reference_bit_for_bit(case):
    alg, flat = case
    n = alg.dim
    f = StdComponents(alg, tuple(tuple(flat[i * n : i * n + n]) for i in range(n)))
    got = std_to_coord(f).mat
    assert all(type(v) is float for row in got for v in row)
    assert_same_grid(got, reference_std_to_coord(f))


def test_least_squares_components_convert_like_the_reference():
    # A denominator-97 point: the Jacobian does not snap, so the float
    # least-squares branch returns float components.
    x = COMPLEX.element([Fraction(31, 97), Fraction(-58, 97)])
    sol = differential_std_components(maps.cube(COMPLEX), x)
    assert all(type(v) is float for row in sol.components.comps for v in row)
    got = std_to_coord(sol.components).mat
    assert all(type(v) is float for row in got for v in row)
    assert_same_grid(got, reference_std_to_coord(sol.components))


@st.composite
def corrupted_tensors(draw):
    alg = draw(algebras)
    n = alg.dim
    C = [[list(v) for v in row] for row in alg.structure]
    for _ in range(draw(st.integers(1, 3))):
        # Off the unit row and column, so that associativity is what breaks.
        k, l = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        C[k][l][draw(st.integers(0, n - 1))] = draw(values)
    return n, tuple(tuple(tuple(v) for v in row) for row in C)


@given(corrupted_tensors())
@settings(max_examples=200, deadline=None)
def test_associativity_check_names_the_first_violation(case):
    n, C = case
    want = reference_associativity_message(n, C)
    try:
        AlgebraSpec(name="corrupted", dim=n, structure=C)
    except AxiomViolated as exc:
        assert str(exc) == want
    else:
        assert want is None
