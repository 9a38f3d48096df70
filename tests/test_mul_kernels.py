"""Both kernels of algebra.mul against the Fraction loop they replaced.

A float coordinate in either operand selects the float kernel.  Its nonzero
coordinates must be bit-for-bit those of the single mixed Fraction/float
loop that served both kinds of operand before the kernels were split,
kept here as the reference.  Exact operands run the integer kernel, whose
coordinates must be Fractions equal to the same loop's.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ncdr.algebra import COMPLEX, QUATERNIONS, Element, make_quaternion_algebra, mul


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
floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
exacts = st.fractions(min_value=-50, max_value=50, max_denominator=97)


@st.composite
def operands(draw):
    alg = draw(algebras)
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
