"""Exact elements on integer numerators against Fraction-tuple arithmetic.

An exact Element stores integer numerators over one denominator and builds
its Fraction coordinates only when they are read.  The Fraction-tuple
arithmetic it replaced is kept here as the reference: every operation must
give equal coordinates, all of them Fractions, over H, C and general
E(a, b), split algebras included.  The integer view must be canonical, and
the hash must be that of the coordinate tuple for exact and float elements.
A float element holds Python floats only, whichever route built it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mul_kernels import algebras, exact_coords, reference_mul

from ncdr import maps
from ncdr.algebra import COMPLEX, QUATERNIONS, Element, conj, inverse, mul, norm_sq
from ncdr.errors import NotInvertible
from ncdr.gateaux import MapEvaluator, gateaux, jacobian

H = QUATERNIONS


def reference_conj(x: Element) -> list:
    return [c if s == 1 else -c for s, c in zip(x.alg.conj_signs, x.coords)]


def reference_norm_sq(x: Element) -> Fraction:
    return reference_mul(x, Element(x.alg, tuple(reference_conj(x))))[0]


def reference_inverse(x: Element) -> list:
    n = reference_norm_sq(x)
    return [c / n for c in reference_conj(x)]


def assert_exact(e: Element, want: list) -> None:
    assert list(e.coords) == want
    assert all(type(v) is Fraction for v in e.coords)
    num, den = e._ints
    assert den > 0 and math.gcd(den, *num) == 1
    assert hash(e) == hash(e.coords)


@st.composite
def cases(draw):
    """Two elements as given (ints kept), one kernel-built, and two scalars."""
    alg = draw(algebras)
    x, y, z = (Element(alg, tuple(draw(exact_coords) for _ in range(alg.dim))) for _ in "xyz")
    k = draw(st.integers(-7, 7))
    q = draw(st.fractions(min_value=-5, max_value=5, max_denominator=9))
    return x, y, mul(y, z), k, q


@given(cases())
@settings(max_examples=300, deadline=None)
def test_exact_operations_match_fraction_tuples(case):
    x, y, p, k, q = case
    for a, b in ((x, y), (y, p), (p, x)):
        # Results hold Fractions also where an operand holds ints.
        ac, bc = list(map(Fraction, a.coords)), list(map(Fraction, b.coords))
        assert_exact(a + b, [u + v for u, v in zip(ac, bc)])
        assert_exact(a - b, [u - v for u, v in zip(ac, bc)])
        assert_exact(-a, [-u for u in ac])
        assert_exact(mul(a, b), reference_mul(a, b))
        assert_exact(a * b, reference_mul(a, b))
        assert_exact(conj(a), reference_conj(a))
        for s in (k, q):
            assert_exact(a * s, [u * s for u in ac])
            assert_exact(s * a, [s * u for u in ac])
        n = norm_sq(a)
        assert type(n) is Fraction and n == reference_norm_sq(a)
        if reference_norm_sq(a):
            assert_exact(inverse(a), reference_inverse(a))
        else:
            with pytest.raises(NotInvertible):
                inverse(a)
        assert (a == b) == (ac == bc)
        assert bool(a) == any(ac) == (not a.is_zero())
        f = a.to_float()
        assert f.coords == tuple(float(u) for u in ac)
        assert all(type(v) is float for v in f.coords)
        assert hash(f) == hash(f.coords)
    assert_exact(x + x - x, list(map(Fraction, x.coords)))


def test_exact_and_float_elements_compare_and_hash_by_value():
    f = Element(H, (1.0, 0.0, 0.0, 0.0))
    assert H.one == f and f == H.one
    assert hash(H.one) == hash(f) == hash(H.one.coords)
    assert len({H.one, f, H.scalar(1), H.element(["1", "0", "0", "0"])}) == 1
    assert H.basis(2) != H.one and H.scalar(Fraction(1, 2)) == Element(H, (0.5, 0, 0, 0))
    mixed = H.scalar(1.5)
    assert mixed.coords == (1.5, 0, 0, 0) and type(mixed.coords[1]) is float
    assert hash(mixed) == hash(mixed.coords)


def assert_float_only(e):
    assert e._ints is None and all(type(c) is float for c in e.coords), repr(e)


def test_float_elements_hold_python_floats_only():
    exact = H.element([1, Fraction(1, 3), -2, Fraction(5, 7)])
    mixed = H.element([1, Fraction(1, 3), 0.5, np.float64(2.5)])
    assert mixed.coords == (1.0, 1 / 3, 0.5, 2.5)
    floats = [
        mixed,
        Element(H, (np.float64(1.5), 0, Fraction(1, 2), 2)),
        H.scalar(1.5),
        H.scalar(np.float64(-0.25)),
        exact + mixed,
        mixed - exact,
        exact * 0.5,
        0.5 * exact,
        exact * np.float64(0.5),
        mixed * Fraction(1, 3),
        Fraction(1, 3) * mixed,
        mixed * 3,
        -mixed,
        conj(mixed),
        inverse(mixed),
        mul(exact, mixed),
        exact.to_float(),
        mixed.to_float(),
        COMPLEX.element([Fraction(1, 3), np.float64(2)]),
    ]
    seen = []

    def spy(x):
        y = mul(mul(x, exact), x)
        seen.extend((x, y))
        return y

    f = MapEvaluator.unary(H, spy)
    floats += [gateaux(f, exact, H.basis(2)), gateaux(maps.constant(exact), exact, mixed)]
    jacobian(f, exact)
    floats += seen
    norm = maps.norm_square(H)
    floats += [norm(exact), norm(mixed), gateaux(norm, exact, H.basis(1))]
    for e in floats:
        assert_float_only(e)
    assert type(norm_sq(mixed)) is float


def test_exact_chain_builds_no_fraction_until_coords_are_read(monkeypatch):
    x = H.element([Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4), Fraction(1, 2)])
    y = H.element([Fraction(2, 7), Fraction(1, 3), Fraction(-5, 6), Fraction(3, 2)])
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    z = x
    for i in range(50):
        z = mul(z, y) + conj(x) - (-z) * 2
        z = conj(z) if i % 2 else z
    assert z == z and not z.is_zero()
    assert made == []
    coords = z.coords
    assert len(made) == 4
    assert z.coords is coords and len(made) == 4
