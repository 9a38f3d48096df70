"""Both kernels of algebra.mul against the Fraction loop they replaced.

A float coordinate in either operand selects the float kernel.  Its nonzero
coordinates must be bit-for-bit those of the single mixed Fraction/float
loop that served both kinds of operand before the kernels were split,
kept here as the reference.  Exact operands run the integer kernel, whose
coordinates must be Fractions equal to the same loop's.  Both kernels are
generated source: it must hold only index names, operators and numeric
literals, survive pickling and copying of its algebra, build safely from
racing threads, and keep IEEE arithmetic on non-finite coordinates.
"""

import copy
import io
import json
import math
import pickle
import sys
import threading
import tokenize
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import dual_extension

from ncdr import algebra, maps
from ncdr.algebra import (
    COMPLEX,
    QUATERNIONS,
    AlgebraSpec,
    Element,
    make_quaternion_algebra,
    mul,
)
from ncdr.errors import NonConvergent
from ncdr.gateaux import gateaux, jacobian

DUAL_H = dual_extension(QUATERNIONS)


# E(-3/2, 5/7) read back from a JSON document whose name is code; names never
# enter a kernel.
_doc = json.loads(make_quaternion_algebra(Fraction(-3, 2), Fraction(5, 7)).to_json())
FROM_JSON = AlgebraSpec.from_json(json.dumps({**_doc, "name": "E'); import os; ('"}))


def reference_mul(x: Element, y: Element) -> list:
    out = [Fraction(0)] * x.alg.dim
    xc, yc = x.coords, y.coords
    for k, l, p, c in x.alg._nonzero_triples:
        a = xc[k]
        b = yc[l]
        if a and b:
            out[p] = out[p] + a * b * c
    return out


def assert_matches_reference(x: Element, y: Element) -> None:
    got = mul(x, y).coords
    want = reference_mul(x, y)
    assert all(type(v) is float for v in got)
    for g, w in zip(got, want):
        if w:
            assert g.hex() == float(w).hex()
        else:
            assert g == 0.0


nonunit = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
    lambda v: v not in (0, 1, -1)
)
algebras = st.one_of(
    st.just(QUATERNIONS),
    st.just(COMPLEX),
    st.builds(make_quaternion_algebra, nonunit, nonunit),
)
# The kernels' own tests add a dim-8 algebra without conjugation and one read
# from JSON; the reference tests of other layers draw from algebras alone.
kernel_algebras = st.one_of(algebras, st.just(DUAL_H), st.just(FROM_JSON))
floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
exacts = st.fractions(min_value=-50, max_value=50, max_denominator=97)


@st.composite
def operands(draw):
    alg = draw(kernel_algebras)
    n = alg.dim
    xf = Element(alg, tuple(draw(floats) for _ in range(n)))
    yf = Element(alg, tuple(draw(floats) for _ in range(n)))
    ye = alg.element([draw(exacts) for _ in range(n)])
    return xf, yf, ye


@given(operands())
@settings(max_examples=300, deadline=None)
def test_float_kernel_matches_reference(ops):
    xf, yf, ye = ops
    assert_matches_reference(xf, yf)
    assert_matches_reference(xf, ye)
    assert_matches_reference(ye, xf)


def test_float_products_hold_only_floats():
    H = QUATERNIONS
    i, j = H.basis(1).to_float(), H.basis(2).to_float()
    # i*j = k leaves three coordinates untouched by any product.
    k = mul(i, j)
    assert k.coords == (0.0, 0.0, 0.0, 1.0)
    assert all(type(v) is float for v in k.coords)
    # One float coordinate among exact ones selects the float kernel.
    mixed = H.element([Fraction(1), 0.5, Fraction(0), Fraction(-2)])
    assert all(type(v) is float for v in mul(mixed, H.basis(3)).coords)
    assert all(type(v) is float for v in mul(H.basis(3), mixed).coords)


def test_exact_operands_stay_exact():
    H = QUATERNIONS
    x = H.element([Fraction(1, 3), 2, Fraction(-5, 7), 0])
    y = H.element([Fraction(2), Fraction(1, 2), 0, Fraction(3, 4)])
    got = mul(x, y)
    assert all(type(v) is Fraction for v in got.coords)
    assert list(got.coords) == reference_mul(x, y)


non_integer = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
    lambda v: v.denominator > 1
)
exact_algebras = st.one_of(
    st.just(QUATERNIONS),
    st.just(COMPLEX),
    st.just(DUAL_H),
    st.just(FROM_JSON),
    # Non-integer parameters put a denominator into the structure constants.
    st.builds(make_quaternion_algebra, non_integer, non_integer),
)
# Zero, plain ints and Fractions, as Elements built without as_scalar hold.
exact_coords = st.one_of(
    st.just(0),
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-50, max_value=50, max_denominator=97),
)


@st.composite
def exact_operands(draw):
    alg = draw(exact_algebras)
    x = Element(alg, tuple(draw(exact_coords) for _ in range(alg.dim)))
    y = Element(alg, tuple(draw(exact_coords) for _ in range(alg.dim)))
    return x, y


@given(exact_operands())
@settings(max_examples=300, deadline=None)
def test_exact_kernel_matches_reference(ops):
    x, y = ops
    for a, b in ((x, y), (y, x)):
        got = mul(a, b).coords
        assert all(type(v) is Fraction for v in got)
        assert list(got) == reference_mul(a, b)


def test_exact_kernel_with_denominators_in_the_structure():
    E = make_quaternion_algebra(Fraction(-3, 2), Fraction(5, 7))
    assert E._int_triples[0] == 14
    x = Element(E, (Fraction(1, 3), 2, 0, Fraction(-5, 7)))
    y = Element(E, (0, Fraction(1, 2), Fraction(-4, 9), 3))
    # Noncommutative, so an operand swap inside the kernel shows.
    assert mul(x, y) != mul(y, x)
    assert list(mul(x, y).coords) == reference_mul(x, y)
    assert list(mul(y, x).coords) == reference_mul(y, x)
    zero = Element(E, (0, 0, 0, 0))
    assert mul(x, zero).coords == (Fraction(0),) * 4
    assert all(type(v) is Fraction for v in mul(zero, x).coords)


def fresh(alg: AlgebraSpec) -> AlgebraSpec:
    """An equal spec whose kernels are not built yet."""
    return AlgebraSpec(alg.name, alg.dim, alg.structure, alg.conj_signs)


def sample_operands(alg: AlgebraSpec):
    n = alg.dim
    x = alg.element([Fraction(k + 1, k + 2) * (-1) ** k for k in range(n)])
    y = alg.element([Fraction(2 * k - 3, 5) for k in range(n)])
    return x, y


@pytest.mark.parametrize("alg", [QUATERNIONS, COMPLEX, DUAL_H, FROM_JSON],
                         ids=["H", "C", "H[eps]", "from_json"])
def test_kernel_source_holds_only_indices_operators_and_numbers(alg, monkeypatch):
    sources = []
    write = algebra._kernel_source

    def recording(dim, triples, zero):
        triples = list(triples)
        sources.append((triples, write(dim, triples, zero)))
        return sources[-1][1]

    monkeypatch.setattr(algebra, "_kernel_source", recording)
    spec = fresh(alg)
    x, y = sample_operands(spec)
    mul(x, y)
    assert len(sources) == 1  # an exact product builds the integer kernel only
    mul(x.to_float(), y)
    assert len(sources) == 2
    keywords = {"def", "kernel", "x", "y", "return"}
    operators = {"(", ")", ",", ":", "=", "+=", "-=", "*", "-"}
    for triples, source in sources:
        assert spec.name not in source
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in keywords or (
                    tok.string[0] in "xya" and tok.string[1:].isdigit()
                ), tok
            elif tok.type == tokenize.OP:
                assert tok.string in operators, tok
            elif tok.type == tokenize.NUMBER:  # a hex int or a finite float
                assert tok.string.startswith("0x") or math.isfinite(float(tok.string)), tok
            else:
                assert tok.type in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                    tokenize.DEDENT, tokenize.ENDMARKER), tok
        # One flat statement per triple, in triple order.
        terms = [w for w in map(str.split, source.splitlines()) if w[1] in ("+=", "-=")]
        want = []
        for k, l, p, c in triples:
            literal = hex(c) if type(c) is int else repr(c)
            op, const = ("+=", []) if c == 1 else ("-=", []) if c == -1 else ("+=", ["*", literal])
            want.append([f"a{p}", op, f"x{k}", "*", f"y{l}"] + const)
        assert terms == want


def test_integer_constants_past_the_decimal_digit_limit():
    # Python refuses decimal ints of more than 4,300 digits; the kernel
    # writes its integer constants in hex.
    big = make_quaternion_algebra(-(10**5000), -1, name="E(-10^5000,-1)")
    x, y = sample_operands(big)
    assert list(mul(x, y).coords) == reference_mul(x, y)


@pytest.mark.parametrize("alg", [QUATERNIONS, DUAL_H, FROM_JSON], ids=["H", "H[eps]", "from_json"])
def test_specs_with_built_kernels_pickle_and_copy(alg):
    spec = fresh(alg)
    x, y = sample_operands(spec)
    exact, floats = mul(x, y), mul(x.to_float(), y)
    assert "_int_kernel" in vars(spec) and "_float_kernel" in vars(spec)
    for other in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert other == spec and hash(other) == hash(spec)
        u, v = Element(other, x.coords), Element(other, y.coords)
        assert mul(u, v) == exact
        assert [c.hex() for c in mul(u.to_float(), v).coords] == [
            c.hex() for c in floats.coords
        ]


def test_kernels_built_from_racing_threads_agree():
    # A short switch interval makes the threads interleave inside the build.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            spec = fresh(DUAL_H)
            x, y = sample_operands(spec)
            start = threading.Barrier(8, timeout=10)

            def build(_):
                start.wait()
                return mul(x, y), mul(x.to_float(), y.to_float())

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(build, range(8), timeout=30))
            assert len(results) == 8
            want = reference_mul(x, y)
            for exact, floats in results:
                assert list(exact.coords) == want
                assert floats.coords == results[0][1].coords
    finally:
        sys.setswitchinterval(interval)


def test_non_finite_coordinates_follow_ieee_arithmetic():
    H = QUATERNIONS
    # No term is skipped for a zero operand: 0 * inf is NaN.
    got = mul(H.element([math.inf, 0.0, 0.0, 0.0]), H.element([0.0, 1.0, 0.0, 0.0])).coords
    assert math.isnan(got[0]) and got[1] == math.inf
    assert math.isnan(got[2]) and math.isnan(got[3])
    # cube overflows near 1e110; the engine still refuses every direction.
    for alg in (H, COMPLEX):
        big = alg.element([10**110] + [0] * (alg.dim - 1))
        for i in range(alg.dim):
            with pytest.raises(NonConvergent):
                gateaux(maps.cube(alg), big, alg.basis(i))
        with pytest.raises(NonConvergent):
            jacobian(maps.cube(alg), big)
