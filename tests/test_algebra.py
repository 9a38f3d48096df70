"""Algebra kernel: multiplication tables, conjugation, norm, embedding."""

import copy
import dataclasses
import json
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdr.algebra import (
    COMPLEX,
    MAX_STRUCTURE_CONSTANTS,
    QUATERNIONS,
    AlgebraSpec,
    Element,
    conj,
    inverse,
    make_quaternion_algebra,
    mul,
    norm_sq,
)
from ncdr.errors import (
    AlgebraMismatch,
    AxiomViolated,
    NotInvertible,
    ParseError,
    RangeError,
    ZeroParameter,
)
from ncdr.linmap import CoordMatrix, embed_matrix
from ncdr.verify import check_negative_control

H = QUATERNIONS
ONE, I, J, K = (H.basis(n) for n in range(4))

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
quaternions = st.builds(
    lambda a, b, c, d: H.element([a, b, c, d]), rationals, rationals, rationals, rationals
)


def test_scalar_arithmetic_is_exact():
    a = Fraction(1, 3)
    b = Fraction(10**40, 7)
    assert a + b - b == a
    assert float(Fraction(12)) == 12.0


def test_quaternion_table_matches_closed_form():
    # Structure constants of H: the sixteen nonzero entries.
    C = H.structure
    one = Fraction(1)
    assert C[1][2][3] == one and C[1][1][0] == -one
    expected = {
        (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (0, 3, 3): 1,
        (1, 0, 1): 1, (1, 1, 0): -1, (1, 2, 3): 1, (1, 3, 2): -1,
        (2, 0, 2): 1, (2, 1, 3): -1, (2, 2, 0): -1, (2, 3, 1): 1,
        (3, 0, 3): 1, (3, 1, 2): 1, (3, 2, 1): -1, (3, 3, 0): -1,
    }
    for k in range(4):
        for l in range(4):
            for p in range(4):
                assert C[k][l][p] == Fraction(expected.get((k, l, p), 0))


def test_general_quaternion_parameters():
    E = make_quaternion_algebra(1, 1)
    x = E.element([1, 1, 0, 0])  # 1 + i with i^2 = 1
    assert norm_sq(x) == 0
    with pytest.raises(NotInvertible):
        inverse(x)
    with pytest.raises(ZeroParameter):
        make_quaternion_algebra(0, 3)


def test_complex_algebra_table():
    C = COMPLEX.structure
    assert C[1][1][0] == Fraction(-1)
    assert C[0][1][1] == Fraction(1)
    assert C[1][0][1] == Fraction(1)


def test_associativity_on_all_basis_triples():
    for alg in (H, COMPLEX, make_quaternion_algebra(2, -3)):
        n = alg.dim
        for k in range(n):
            for l in range(n):
                for m in range(n):
                    ekl_m = mul(mul(alg.basis(k), alg.basis(l)), alg.basis(m))
                    ek_lm = mul(alg.basis(k), mul(alg.basis(l), alg.basis(m)))
                    assert ekl_m == ek_lm


def test_corrupted_table_is_rejected():
    C = [[list(v) for v in row] for row in H.structure]
    C[1][2][3] = Fraction(2)  # break i*j = k
    with pytest.raises(AxiomViolated):
        AlgebraSpec(
            name="broken",
            dim=4,
            structure=tuple(tuple(tuple(v) for v in row) for row in C),
            conj_signs=(1, -1, -1, -1),
        )


def dual_extension(D: AlgebraSpec) -> AlgebraSpec:
    """D[eps] = D (x) R[eps]/(eps^2) on the basis e_0..e_{n-1}, eps e_0..eps e_{n-1}.

    It has no conjugation: no signs make x * conj(x) a scalar once eps^2 = 0.
    """
    n = D.dim
    C = [[[Fraction(0)] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for k in range(n):
        for l in range(n):
            for p in range(n):
                c = D.structure[k][l][p]
                C[k][l][p] = C[k][n + l][n + p] = C[n + k][l][n + p] = c
    return AlgebraSpec(
        name=f"{D.name}[eps]",
        dim=2 * n,
        structure=tuple(tuple(tuple(v) for v in row) for row in C),
    )


def test_dual_extensions_validate():
    # H[eps] (dim 8) and the hyper-dual H[eps1, eps2] (dim 16) pass the unit
    # and associativity checks over their sparse triples.
    dual = dual_extension(H)
    hyper = dual_extension(dual)
    assert (dual.dim, hyper.dim) == (8, 16)
    assert len(hyper._nonzero_triples) == 9 * len(H._nonzero_triples)
    # (x + eps a)^2 = x^2 + eps (x a + a x).
    x, a = H.element([1, 2, -1, 3]), H.element([Fraction(1, 2), 0, 4, -1])
    y = mul(dual.element(x.coords + a.coords), dual.element(x.coords + a.coords))
    assert y.coords == mul(x, x).coords + (mul(x, a) + mul(a, x)).coords
    # H's signs doubled would make (e1 + eps e1) conj(e1 + eps e1) = 1 + 2 eps.
    with pytest.raises(AxiomViolated, match="scalar"):
        AlgebraSpec(name="H[eps]", dim=8, structure=dual.structure, conj_signs=H.conj_signs * 2)
    # One corrupted entry, eps i * j = 2 eps k instead of eps k, breaks them.
    for alg in (dual, hyper):
        C = [[list(v) for v in row] for row in alg.structure]
        C[alg.dim // 2 + 1][2][alg.dim // 2 + 3] = Fraction(2)
        with pytest.raises(AxiomViolated, match="associativity"):
            AlgebraSpec(
                name="broken",
                dim=alg.dim,
                structure=tuple(tuple(tuple(v) for v in row) for row in C),
            )


def test_mul_examples():
    assert mul(I, J) == K
    x = H.element([2, -1, Fraction(1, 2), 3])
    assert mul(ONE, x) == x
    # (i+j)(i-j) = -1 - ij + ji + 1... expanded by the (7.2.3) table: -2k.
    assert mul(I + J, I - J) == -2 * K


def test_mul_rejects_algebra_mix():
    with pytest.raises(AlgebraMismatch):
        mul(I, COMPLEX.basis(1))


def test_conj_examples():
    assert conj(ONE + I) == ONE - I
    five = H.scalar(5)
    assert conj(five) == five
    x = H.element([1, 2, 3, 4])
    assert conj(conj(x)) == x


def test_norm_examples():
    assert norm_sq(ONE + I + J + K) == 4
    assert norm_sq(H.zero) == 0


def test_inverse_examples():
    assert inverse(I) == -I
    assert inverse(ONE) == ONE
    half = Fraction(1, 2)
    assert inverse(ONE + I) == H.element([half, -half, 0, 0])


def test_embed_matrix_pattern():
    assert embed_matrix(ONE) == CoordMatrix.identity(H)
    Ji = embed_matrix(I)
    assert [row[0] for row in Ji.mat] == [0, 1, 0, 0]
    a = [Fraction(p) for p in (2, -3, 5, 7)]
    Ja = embed_matrix(H.element(a))
    a0, a1, a2, a3 = a
    assert Ja.mat == (
        (a0, -a1, -a2, -a3),
        (a1, a0, -a3, a2),
        (a2, a3, a0, -a1),
        (a3, -a2, a1, a0),
    )
    assert embed_matrix(I) @ embed_matrix(J) == embed_matrix(K)


def test_embed_matrix_pattern_complex():
    C = COMPLEX
    assert embed_matrix(C.one) == CoordMatrix.identity(C)
    a0, a1 = Fraction(3, 2), Fraction(-7)
    assert embed_matrix(C.element([a0, a1])).mat == ((a0, -a1), (a1, a0))
    i = C.basis(1)
    assert embed_matrix(i) @ embed_matrix(i) == embed_matrix(-C.one)


@given(quaternions, quaternions)
@settings(max_examples=60)
def test_norm_is_multiplicative(x, y):
    assert norm_sq(mul(x, y)) == norm_sq(x) * norm_sq(y)


@given(quaternions, quaternions)
@settings(max_examples=60)
def test_conj_antihomomorphism(x, y):
    assert conj(mul(x, y)) == mul(conj(y), conj(x))


@given(quaternions)
@settings(max_examples=60)
def test_inverse_round_trip(x):
    if norm_sq(x) == 0:
        return
    assert mul(x, inverse(x)) == ONE
    assert mul(inverse(x), x) == ONE


@given(quaternions, quaternions)
@settings(max_examples=40)
def test_embedding_is_a_ring_homomorphism(x, y):
    assert embed_matrix(mul(x, y)) == embed_matrix(x) @ embed_matrix(y)
    sum_rows = tuple(
        tuple(a + b for a, b in zip(ra, rb))
        for ra, rb in zip(embed_matrix(x).mat, embed_matrix(y).mat)
    )
    assert embed_matrix(x + y).mat == sum_rows


def test_json_round_trip():
    for alg in (H, COMPLEX, make_quaternion_algebra(Fraction(1, 2), -3)):
        again = AlgebraSpec.from_json(alg.to_json())
        assert again == alg


_MISSING = object()


def _corrupt(**changes):
    """C's document with keys replaced, or dropped when set to _MISSING."""
    doc = json.loads(COMPLEX.to_json())
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not _MISSING})


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '"H"',
        _corrupt(name=_MISSING),
        _corrupt(dim=_MISSING),
        _corrupt(structure=_MISSING),
        _corrupt(dim="2"),
        _corrupt(dim=2.0),
        _corrupt(name=7),
        _corrupt(structure=["1", "0", "0", "1", "0", "1", "-1", "1/0"]),
        _corrupt(structure=["1", "0", "0", "1", "0", "1", "-1", "x"]),
        _corrupt(structure=["1", "0", "0", "1", "0", "1", "-1", None]),
        _corrupt(structure=5),
        _corrupt(structure=["1", "0", "0", "1"]),
        _corrupt(conj_signs=["+", "-"]),
        _corrupt(conj_signs=[1, 2.7]),
        _corrupt(conj_signs=[1, -1.0]),
        _corrupt(conj_signs=[True, -1]),
    ],
)
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(ParseError):
        AlgebraSpec.from_json(text)


def dense_document(dim: int, nonzero: int) -> str:
    """A JSON algebra whose first `nonzero` structure constants are 1, the rest 0."""
    flat = ["1"] * nonzero + ["0"] * (dim**3 - nonzero)
    return json.dumps({"name": "dense", "dim": dim, "structure": flat})


def test_structure_constants_are_capped():
    # Construction visits t^2 pairs of the t nonzero constants.  At the cap
    # the document reaches the axiom checks, and fails the first; past it,
    # it is refused before them.
    assert MAX_STRUCTURE_CONSTANTS == 16**3
    with pytest.raises(AxiomViolated, match="unit"):
        AlgebraSpec.from_json(dense_document(16, MAX_STRUCTURE_CONSTANTS))
    with pytest.raises(RangeError, match="4097 nonzero"):
        AlgebraSpec.from_json(dense_document(17, MAX_STRUCTURE_CONSTANTS + 1))


def test_conj_signs_must_be_units():
    # A sign of 2 would make inverse(1+i) = -1-2i, which is no inverse.
    with pytest.raises(AxiomViolated):
        AlgebraSpec.from_json(_corrupt(conj_signs=[1, 2]))
    with pytest.raises(AxiomViolated):
        AlgebraSpec(name="C", dim=2, structure=COMPLEX.structure, conj_signs=(1, 0))
    assert AlgebraSpec.from_json(_corrupt(conj_signs=[1, -1])) == COMPLEX


def test_conj_signs_must_give_a_scalar_norm():
    # With signs (1, 1), x conj(x) for x = 2+i would be 3+4i: inverse(2+i)
    # came out as 2/3+1/3i, and (2+i)(2/3+1/3i) = 1+4/3i.
    with pytest.raises(AxiomViolated, match="scalar"):
        AlgebraSpec.from_json(_corrupt(conj_signs=[1, 1]))
    with pytest.raises(AxiomViolated, match="scalar"):
        AlgebraSpec(name="H", dim=4, structure=H.structure, conj_signs=(1, -1, 1, -1))
    # Split and non-split E(a, b) keep their signs and scalar norm.
    for a, b in [(-1, -1), (1, 1), (-1, 1), (Fraction(-3, 2), Fraction(5, 7)), (2, -5)]:
        E = make_quaternion_algebra(a, b)
        x = E.element([2, 1, -3, Fraction(1, 2)])
        assert mul(x, conj(x)) == E.scalar(norm_sq(x))
    assert norm_sq(COMPLEX.element([2, 1])) == 5
    # Verify check 15's corrupted table fails associativity before the norm check.
    C = [[list(v) for v in row] for row in H.structure]
    C[1][2][3] = Fraction(2)
    with pytest.raises(AxiomViolated, match="associativity"):
        AlgebraSpec(name="corrupted", dim=4, structure=tuple(tuple(map(tuple, r)) for r in C),
                    conj_signs=H.conj_signs)
    assert check_negative_control(random.Random(0)) == (
        True, "corrupted table rejected at construction")


def test_equal_elements_hash_equal():
    E = make_quaternion_algebra(Fraction(-3, 2), Fraction(5, 7))
    x = E.element([Fraction(1, 2), 3, 0, Fraction(-2, 3)])
    built = [
        Element(E, (Fraction(1, 2), 3, 0, Fraction(-2, 3))),  # ints kept as ints
        E.element(["1/2", "3", "0", "-2/3"]),
        mul(x, E.one),
        mul(E.one, x),
        x - E.zero,
        -(-x),
    ]
    for y in built:
        assert y == x
        assert hash(y) == hash(x)
    assert len({x, *built}) == 1
    assert {x: "value"}[built[0]] == "value"


def test_hash_survives_pickle_and_copy():
    x = H.element([Fraction(1, 3), -2, Fraction(7, 5), 0])
    h = hash(x)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x
        assert hash(y) == h
    # A different process, with its own string hash seed, agrees on the hash
    # of an unpickled element and of a freshly built equal one.
    script = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from ncdr.algebra import QUATERNIONS as H\n"
        "x = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = H.element([Fraction(1, 3), -2, Fraction(7, 5), 0])\n"
        "print(hash(x), hash(fresh), x == fresh)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(x),
        capture_output=True,
        check=True,
        env={"PYTHONHASHSEED": "12345", "PYTHONPATH": ":".join(sys.path)},
    )
    assert out.stdout.decode().split() == [str(h), str(h), "True"]


def test_elements_stay_frozen():
    x = H.element([1, 2, 3, 4])
    hash(x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.coords = (0, 0, 0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.alg = COMPLEX
    assert x.coords == (1, 2, 3, 4)


@pytest.mark.parametrize("alg", [QUATERNIONS, COMPLEX], ids=["H", "C"])
def test_basis_rejects_an_index_outside_the_dimension(alg):
    assert [alg.basis(i).coords for i in range(alg.dim)] == [
        tuple(Fraction(int(j == i)) for j in range(alg.dim)) for i in range(alg.dim)
    ]
    for i in (-1, alg.dim, 7, 1.5):
        with pytest.raises(RangeError, match="basis index"):
            alg.basis(i)
