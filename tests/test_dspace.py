"""D-vector spaces: linear combinations, matrix inversion, component maps."""

import random
from fractions import Fraction

import pytest
from test_general_algebras import NO_UNIT_PIVOT

from ncdr import dspace, exactla
from ncdr.algebra import QUATERNIONS, mul
from ncdr.dspace import (
    ComponentMap,
    DMatrix,
    DVector,
    apply_component_map,
    compose_component_maps,
    dmatrix_inverse,
    shift_components,
)
from ncdr.errors import DimensionMismatch, NotQuaternionBlock, Singular

H = QUATERNIONS
ONE, I, J, K = (H.basis(n) for n in range(4))


def random_element(rng, small=False):
    hi = 3 if small else 5
    return H.element(
        [Fraction(rng.randint(-hi, hi), rng.randint(1, 3)) for _ in range(4)]
    )


def random_invertible_matrix(rng, n):
    while True:
        M = DMatrix(
            tuple(tuple(random_element(rng, small=True) for _ in range(n)) for _ in range(n))
        )
        try:
            return M, dmatrix_inverse(M)
        except Singular:
            continue


def test_twin_associativity():
    rng = random.Random(5)
    for _ in range(30):
        a, m, b = (random_element(rng) for _ in range(3))
        v = random_element(rng)
        assert mul(mul(a, mul(v, m)), b) == mul(a, mul(mul(v, m), b))


def test_dmatrix_inverse_examples():
    eye = DMatrix.identity(H, 2)
    assert dmatrix_inverse(eye) == eye
    assert dmatrix_inverse(DMatrix.diagonal([I, J])) == DMatrix.diagonal([-I, -J])
    half = Fraction(1, 2)
    one_plus_i = DMatrix(((ONE + I,),))
    assert dmatrix_inverse(one_plus_i) == DMatrix(((H.element([half, -half, 0, 0]),),))


def test_dmatrix_inverse_round_trip():
    rng = random.Random(19)
    for n in (2, 3):
        for _ in range(4):
            M, Minv = random_invertible_matrix(rng, n)
            assert (M @ Minv) == DMatrix.identity(H, n)
            assert (Minv @ M) == DMatrix.identity(H, n)


def test_dmatrix_inverse_singular():
    # Rows proportional over H: second row = i * first row.
    M = DMatrix(((ONE, J), (I, mul(I, J))))
    with pytest.raises(Singular):
        dmatrix_inverse(M)


def test_wrong_inverse_is_not_a_quaternion_block(monkeypatch):
    # Both routes are forged: a wrong pivot inverse over D, and one entry off
    # in the first column of block (0, 0) of the block embedding's inverse,
    # which is then no left-action matrix and reads a wrong entry.  Either
    # way the result fails its check B @ A == I.
    true_pivot_inverse, true_inverse = dspace.inverse, exactla.inverse

    def forged_pivot_inverse(x):
        return true_pivot_inverse(x) + ONE

    def forged(M):
        inv = true_inverse(M)
        inv[1][0] += 1
        return inv

    A = DMatrix(((ONE + I, J), (K, ONE)))
    assert dmatrix_inverse(A) @ A == DMatrix.identity(H, 2)
    with monkeypatch.context() as m:
        m.setattr(dspace, "inverse", forged_pivot_inverse)
        with pytest.raises(NotQuaternionBlock):
            dmatrix_inverse(A)

    # No entry of either column inverts in split E(1, 1): the fallback runs.
    assert dmatrix_inverse(NO_UNIT_PIVOT) == NO_UNIT_PIVOT
    monkeypatch.setattr(exactla, "inverse", forged)
    with pytest.raises(NotQuaternionBlock):
        dmatrix_inverse(NO_UNIT_PIVOT)


def test_dual_basis():
    # The dual basis of A's rows is the coordinate matrix B with B @ A = 1.
    assert dmatrix_inverse(DMatrix.identity(H, 3)) == DMatrix.identity(H, 3)
    assert dmatrix_inverse(DMatrix.diagonal([J, K])) == DMatrix.diagonal([-J, -K])
    rng = random.Random(23)
    A, _ = random_invertible_matrix(rng, 2)
    B = dmatrix_inverse(A)
    assert (B @ A) == DMatrix.identity(H, 2)


def random_component_map(rng, rows, cols):
    pairs = [
        [
            [(random_element(rng, small=True), random_element(rng, small=True))
             for _ in range(rng.randint(0, 2))]
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return ComponentMap.from_lists(H, pairs)


def basis_vectors(n):
    for i in range(n):
        yield DVector(tuple(ONE if j == i else H.zero for j in range(n)))


def maps_agree(M1, M2, n):
    return all(
        apply_component_map(M1, v) == apply_component_map(M2, v)
        for v in basis_vectors(n)
    )


def test_apply_component_map_examples():
    ident = ComponentMap.identity(H, 3)
    v = DVector((I, J + K, ONE))
    assert apply_component_map(ident, v) == v
    M = ComponentMap.from_lists(H, [[[(I, J)]]])
    assert apply_component_map(M, DVector((K,))) == DVector((ONE,))


def test_apply_is_additive():
    rng = random.Random(31)
    M = random_component_map(rng, 2, 3)
    v = DVector(tuple(random_element(rng) for _ in range(3)))
    w = DVector(tuple(random_element(rng) for _ in range(3)))
    assert apply_component_map(M, v + w) == apply_component_map(M, v) + apply_component_map(M, w)


def test_apply_commutes_with_rational_scaling():
    rng = random.Random(37)
    M = random_component_map(rng, 2, 2)
    v = DVector(tuple(random_element(rng) for _ in range(2)))
    c = Fraction(-7, 3)
    scaled = DVector(tuple(c * e for e in v.entries))
    assert apply_component_map(M, scaled) == DVector(
        tuple(c * e for e in apply_component_map(M, v).entries)
    )


def test_compose_examples():
    ident = ComponentMap.identity(H, 2)
    rng = random.Random(41)
    M = random_component_map(rng, 2, 2)
    assert compose_component_maps(ident, M).pairs == M.pairs
    assert compose_component_maps(M, ident).pairs == M.pairs
    # B after A with A: x -> i x j and B: y -> k y k gives x -> (ki) x (jk).
    A = ComponentMap.from_lists(H, [[[(I, J)]]])
    B = ComponentMap.from_lists(H, [[[(K, K)]]])
    C = compose_component_maps(B, A)
    assert C.pairs[0][0] == ((mul(K, I), mul(J, K)),)
    expected = ComponentMap.from_lists(H, [[[(J, I)]]])
    assert maps_agree(C, expected, 1)


def test_compose_extensional_and_associative():
    rng = random.Random(43)
    A = random_component_map(rng, 2, 3)
    B = random_component_map(rng, 2, 2)
    C = random_component_map(rng, 3, 2)
    BA = compose_component_maps(B, A)
    for v in basis_vectors(3):
        assert apply_component_map(BA, v) == apply_component_map(B, apply_component_map(A, v))
    left = compose_component_maps(compose_component_maps(B, A), C)
    right = compose_component_maps(B, compose_component_maps(A, C))
    assert maps_agree(left, right, 2)


def test_shift_components():
    rng = random.Random(47)
    M = random_component_map(rng, 2, 2)
    assert shift_components(M, ONE, ONE).pairs == M.pairs
    ident = ComponentMap.identity(H, 1)
    shifted = shift_components(ident, I, J)
    assert apply_component_map(shifted, DVector((K,))) == DVector((mul(mul(I, K), J),))
    a, b = random_element(rng), random_element(rng)
    S = shift_components(M, a, b)
    for v in basis_vectors(2):
        inner = DVector(tuple(mul(mul(a, e), b) for e in v.entries))
        assert apply_component_map(S, v) == apply_component_map(M, inner)


def test_empty_dmatrix_is_refused():
    for build in (lambda: DMatrix.identity(H, 0), lambda: DMatrix.diagonal([]), lambda: DMatrix(())):
        with pytest.raises(DimensionMismatch, match="nonempty"):
            build()


def test_component_map_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch):
        ComponentMap(H, (((),), ((), ())))
