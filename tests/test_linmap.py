"""Linear-map representations: conversion, solvability and composition, and
the numpy boundary: the linear-map layers hold no numpy values."""

import random
import types
from fractions import Fraction

import pytest
from test_general_algebras import IDEMPOTENT, NO_UNIT_PIVOT, SPLIT

from ncdr import closed_forms, exactla, linmap
from ncdr.algebra import COMPLEX, QUATERNIONS, make_quaternion_algebra
from ncdr.dspace import (
    ComponentMap,
    DMatrix,
    DVector,
    apply_component_map,
    component_sum_to_std,
    dmatrix_inverse,
)
from ncdr.errors import DimensionMismatch, NotRepresentable
from ncdr.linmap import (
    CoordMatrix,
    StdComponents,
    big_c,
    compose_std,
    coord_to_std,
    eval_std,
    std_to_coord,
)

H = QUATERNIONS
ONE, I, J, K = (H.basis(n) for n in range(4))


def random_fraction(rng, hi=5):
    return Fraction(rng.randint(-hi, hi), rng.randint(1, 4))


def random_std(rng, alg=H):
    n = alg.dim
    return StdComponents.from_rows(
        alg, [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
    )


def random_element(rng, alg=H):
    return alg.element([random_fraction(rng) for _ in range(alg.dim)])


def component_sum(*terms):
    """The 1 x 1 component map x -> sum u x v over (u, v) in terms."""
    return ComponentMap(H, (((*terms,),),))


def test_std_to_coord_identity():
    assert std_to_coord(StdComponents.identity(H)) == CoordMatrix.identity(H)
    assert std_to_coord(StdComponents.identity(COMPLEX)) == CoordMatrix.identity(COMPLEX)


def test_coord_matrix_apply_reads_a_column():
    m = CoordMatrix.from_rows(H, [[1, "1/2", 0, 0], [0, 2, 0, "-1/3"], [0, 0, 1, 0], [5, 0, 0, 1]])
    assert m.apply(H.basis(1)) == H.element([Fraction(1, 2), 2, 0, 0])


def test_std_to_coord_matches_closed_forms():
    rng = random.Random(2)
    for _ in range(20):
        f = random_std(rng)
        assert std_to_coord(f).mat == closed_forms.h_std_to_coord(f.comps)
    for _ in range(20):
        g = random_std(rng, COMPLEX)
        assert std_to_coord(g).mat == closed_forms.c_std_to_coord(g.comps)


def test_coord_to_std_identity_and_conjugation():
    sol = coord_to_std(CoordMatrix.identity(H))
    assert sol.unique
    assert sol.components == StdComponents.identity(H)
    conj_matrix = CoordMatrix.from_rows(
        H,
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    )
    got = coord_to_std(conj_matrix).components
    half = Fraction(-1, 2)
    assert got == StdComponents.from_rows(
        H,
        [[half, 0, 0, 0], [0, half, 0, 0], [0, 0, half, 0], [0, 0, 0, half]],
    )


def test_complex_conjugation_not_representable():
    conj_matrix = CoordMatrix.from_rows(COMPLEX, [[1, 0], [0, -1]])
    with pytest.raises(NotRepresentable):
        coord_to_std(conj_matrix)


def test_coord_to_std_matches_closed_forms():
    rng = random.Random(5)
    for _ in range(20):
        m = CoordMatrix.from_rows(
            H, [[random_fraction(rng) for _ in range(4)] for _ in range(4)]
        )
        sol = coord_to_std(m)
        assert sol.unique
        assert sol.components.comps == closed_forms.h_coord_to_std(m.mat)


def test_sign_matrices_invert_each_other():
    S = [list(r) for r in closed_forms.H_SIGNS]
    Sinv = [list(r) for r in closed_forms.H_SIGNS_INV]
    assert exactla.mat_mul(S, Sinv) == exactla.identity(4)
    assert exactla.mat_mul(Sinv, S) == exactla.identity(4)


def test_big_c_report():
    bc = big_c(COMPLEX)
    assert len(bc.mat) == 4 and bc.rank == 2 and bc.det == 0
    assert len(bc.zero_map_kernel) == 2
    bh = big_c(H)
    assert len(bh.mat) == 16 and bh.rank == 16 and bh.det != 0
    assert bh.report()["invertible"] and not bc.report()["invertible"]
    assert bh.pinv_rows == exactla.int_rows(exactla.inverse([list(r) for r in bh.mat]))
    assert bc.mat[0][0] == 1  # row (j,i)=(0,0), column (k,r)=(0,0)
    assert bh.mat[0][0] == 1


def test_zero_map_kernel_members_evaluate_to_zero():
    bc = big_c(COMPLEX)
    for grid in bc.zero_map_kernel:
        z = StdComponents(COMPLEX, grid)
        for b in range(2):
            assert eval_std(z, COMPLEX.basis(b)).is_zero()


def test_component_sum_to_std():
    assert component_sum_to_std(component_sum((ONE, ONE))) == StdComponents.identity(H)
    f = component_sum_to_std(component_sum((I, J)))
    expected = [[0] * 4 for _ in range(4)]
    expected[1][2] = 1
    assert f == StdComponents.from_rows(H, expected)
    rng = random.Random(9)
    a, b = random_element(rng), random_element(rng)
    g = component_sum_to_std(component_sum((a, ONE), (ONE, b)))
    for i in range(4):
        for j in range(4):
            want = a.coords[i] * (j == 0) + (i == 0) * b.coords[j]
            assert g.comps[i][j] == want
    assert component_sum_to_std(component_sum()) == StdComponents.from_rows(H, [[0] * 4] * 4)
    for rows, cols in ((0, 0), (1, 2), (2, 1), (2, 2)):
        M = ComponentMap.from_lists(H, [[[(ONE, ONE)]] * cols] * rows)
        with pytest.raises(DimensionMismatch):
            component_sum_to_std(M)


def test_eval_std():
    x = H.element([3, -2, 1, 5])
    assert eval_std(StdComponents.identity(H), x) == x
    grid = [[0] * 4 for _ in range(4)]
    grid[1][2] = 1
    assert eval_std(StdComponents.from_rows(H, grid), ONE) == K
    rng = random.Random(13)
    for _ in range(10):
        f = random_std(rng)
        y = random_element(rng)
        assert eval_std(f, y) == std_to_coord(f).apply(y)


def test_extensional_equality_via_component_sum():
    rng = random.Random(17)
    terms = tuple((random_element(rng), random_element(rng)) for _ in range(3))
    cs = component_sum(*terms)
    f = component_sum_to_std(cs)
    for b in range(4):
        assert eval_std(f, H.basis(b)) == apply_component_map(cs, DVector((H.basis(b),)))[0]


def test_compose_std_examples():
    rng = random.Random(21)
    f = random_std(rng)
    composed = compose_std(StdComponents.identity(H), f)
    for b in range(4):
        assert eval_std(composed, H.basis(b)) == eval_std(f, H.basis(b))
    # g(x) = x j, f(x) = i x: g(f(x)) = i x j.
    g_grid = [[0] * 4 for _ in range(4)]
    g_grid[0][2] = 1
    f_grid = [[0] * 4 for _ in range(4)]
    f_grid[1][0] = 1
    h = compose_std(StdComponents.from_rows(H, g_grid), StdComponents.from_rows(H, f_grid))
    want = [[0] * 4 for _ in range(4)]
    want[1][2] = 1
    assert h == StdComponents.from_rows(H, want)


def test_compose_order_matters_for_same_side_maps():
    # f(x) = i x and g(x) = j x: the two composites differ already at x = 1.
    f_grid = [[0] * 4 for _ in range(4)]
    f_grid[1][0] = 1
    g_grid = [[0] * 4 for _ in range(4)]
    g_grid[2][0] = 1
    f = StdComponents.from_rows(H, f_grid)
    g = StdComponents.from_rows(H, g_grid)
    gf = compose_std(g, f)
    fg = compose_std(f, g)
    assert eval_std(gf, ONE) == -K
    assert eval_std(fg, ONE) == K


def test_compose_coordinate_consistency():
    rng = random.Random(25)
    for _ in range(20):
        f, g = random_std(rng), random_std(rng)
        lhs = std_to_coord(compose_std(g, f))
        rhs = std_to_coord(g) @ std_to_coord(f)
        assert lhs == rhs


def test_round_trips():
    rng = random.Random(29)
    for _ in range(20):
        f = random_std(rng)
        assert coord_to_std(std_to_coord(f)).components == f
    for _ in range(20):
        m = CoordMatrix.from_rows(
            H, [[random_fraction(rng) for _ in range(4)] for _ in range(4)]
        )
        assert std_to_coord(coord_to_std(m).components) == m
    # Complex: representable matrices round-trip through the min-norm branch.
    for _ in range(20):
        g = random_std(rng, COMPLEX)
        m = std_to_coord(g)
        sol = coord_to_std(m)
        assert not sol.unique
        assert std_to_coord(sol.components) == m


def test_std_to_coord_is_scalar_linear():
    rng = random.Random(31)
    f, g = random_std(rng), random_std(rng)
    c = Fraction(3, 7)
    combined = StdComponents(
        H,
        tuple(
            tuple(c * a + b for a, b in zip(fr, gr))
            for fr, gr in zip(f.comps, g.comps)
        ),
    )
    lhs = std_to_coord(combined)
    want = tuple(
        tuple(c * a + b for a, b in zip(fr, gr))
        for fr, gr in zip(std_to_coord(f).mat, std_to_coord(g).mat)
    )
    assert lhs.mat == want


def test_complex_cauchy_riemann_relations():
    rng = random.Random(33)
    for _ in range(20):
        m = std_to_coord(random_std(rng, COMPLEX)).mat
        assert m[0][0] == m[1][1]
        assert m[1][0] == -m[0][1]


FLOAT_GRID = tuple(tuple(0.5 + (i == j) for j in range(4)) for i in range(4))


@pytest.mark.parametrize("call", [
    lambda m, f: compose_std(f, f),
    lambda m, f: coord_to_std(m),
    lambda m, f: m @ m,
    # One float entry, on the route over D and on the block-embedding route.
    lambda m, f: dmatrix_inverse(DMatrix(((H.one, H.zero), (H.zero, H.one.to_float())))),
    lambda m, f: dmatrix_inverse(DMatrix((NO_UNIT_PIVOT.entries[0],
                                          (SPLIT.one - IDEMPOTENT, IDEMPOTENT.to_float())))),
], ids=["compose_std", "coord_to_std", "matmul", "dmatrix_inverse",
        "dmatrix_inverse_fallback"])
def test_exact_entry_points_reject_floats(call):
    with pytest.raises(TypeError):
        call(CoordMatrix(H, FLOAT_GRID), StdComponents(H, FLOAT_GRID))


@pytest.mark.parametrize(
    "alg",
    [
        H,
        COMPLEX,
        make_quaternion_algebra(Fraction(-3, 2), Fraction(5, 7), name="fresh-1"),
        make_quaternion_algebra(Fraction(2, 3), Fraction(-7, 5), name="fresh-2"),
        make_quaternion_algebra(1, 1, name="fresh-split"),
    ],
    ids=lambda alg: alg.name,
)
def test_big_c_matches_separate_eliminations(alg):
    # One elimination of [M | I] gives what rank, det and inverse or
    # nullspace give as separate passes; C is the rank-deficient case.
    B = big_c(alg)
    M = [list(row) for row in B.mat]
    n = alg.dim
    assert B.rank == exactla.rank(M)
    assert B.det == exactla.det(M)
    if B.rank == n * n:
        assert B.pinv_rows == exactla.int_rows(exactla.inverse(M))
        assert B.zero_map_kernel == ()
    else:
        flat = [[g[k][r] for k in range(n) for r in range(n)] for g in B.zero_map_kernel]
        assert flat == exactla.nullspace(M)
        assert B.rank < n * n


def _from_numpy(value) -> bool:
    origins = [type(value).__module__, getattr(value, "__module__", None)]
    if isinstance(value, types.ModuleType):
        origins.append(value.__name__)
    return any(str(o).split(".")[0] == "numpy" for o in origins)


@pytest.mark.parametrize("module", [linmap, exactla], ids=lambda m: m.__name__)
def test_exact_layers_hold_no_numpy(module):
    # The linear-map layers, float least squares included, run on Python
    # integers, Fractions and floats; no library module imports numpy.
    assert [name for name, v in vars(module).items() if _from_numpy(v)] == []
