"""The numeric engine's sample points, the snap's early stop and the float
fast paths of algebra, each pinned against the loop it must reproduce.

The engine samples f at x + t a and then at x - t a for t = BASE_STEP /
RATIO^k, k = 0 .. LEVELS - 1, and evaluates f at x once more only when the
extrapolation fails.  The snap of jacobian_std_components stops at the first
entry with no fraction of denominator <= SNAP_DENOMINATOR within SNAP_TOL and
hands the Jacobian to the least-squares branch, which must agree with the
numpy reference.  Float
products and inverses must be bit for bit those of a loop over the
structure constants.
"""

import importlib
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from test_gateaux_reference import reference_least_squares

from ncdr.algebra import COMPLEX, QUATERNIONS, inverse, make_quaternion_algebra, mul
from ncdr.errors import AlgebraMismatch, NonConvergent, NotInvertible
from ncdr.gateaux import MapEvaluator, gateaux, jacobian_std_components, second_gateaux
from ncdr.linmap import CoordMatrix, coord_to_std

# The package re-exports the gateaux() function under the module's name.
engine = importlib.import_module("ncdr.gateaux")

H = QUATERNIONS
ALGEBRAS = [QUATERNIONS, COMPLEX, make_quaternion_algebra(Fraction(-3, 2), Fraction(5, 7))]
STEPS = [2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]


def recording(alg, g):
    """A map that records the coordinates of every point it is called on."""
    calls = []

    def fn(y):
        calls.append(tuple(c.hex() for c in y.coords))
        return g(y)

    return MapEvaluator.unary(alg, fn), calls


def point(u, v, t):
    return tuple((p + t * q).hex() for p, q in zip(u, v))


def floats(x):
    return [float(c) for c in x.coords]


# Coordinates off the dyadic grid, so that x + t a rounds.
X = H.element([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(1, 10)])
A = H.element([Fraction(1, 10), Fraction(3, 7), -1, Fraction(2, 3)])
B = H.element([Fraction(-5, 9), 1, Fraction(1, 6), Fraction(-3, 13)])


def test_step_schedule():
    assert list(engine.STEPS) == [engine.BASE_STEP / engine.RATIO**k
                                  for k in range(engine.LEVELS)] == STEPS


def test_gateaux_samples_plus_then_minus_at_each_step():
    f, calls = recording(H, lambda y: mul(y, y))
    gateaux(f, X, A)
    xs, as_ = floats(X), floats(A)
    want = []
    for t in STEPS:
        want += [point(xs, as_, t), point(xs, as_, -t)]
    assert calls == want


def test_second_gateaux_nests_the_same_stencil():
    f, calls = recording(H, lambda y: mul(mul(y, y), y))
    second_gateaux(f, X, A, B)
    xs, as_, bs = floats(X), floats(A), floats(B)
    want = []
    for t2 in STEPS:
        for sign in (1.0, -1.0):
            y = [p + sign * t2 * q for p, q in zip(xs, bs)]
            for t1 in STEPS:
                want += [point(y, as_, t1), point(y, as_, -t1)]
    assert calls == want


def test_f_at_x_only_when_extrapolation_fails():
    one, i = H.one, H.basis(1)
    kink, calls = recording(H, lambda y: abs(y.coords[0] - 1.0075) * i.to_float())
    with pytest.raises(NonConvergent):
        gateaux(kink, one, one)
    ones, e0 = floats(one), floats(one)
    want = []
    for t in STEPS:
        want += [point(ones, e0, t), point(ones, e0, -t)]
    assert calls == want + [tuple(c.hex() for c in ones)]


# -- the snap's first miss --------------------------------------------------

class CountingFraction(Fraction):
    """Fraction that counts its limit_denominator calls."""

    calls = 0

    def limit_denominator(self, max_denominator):
        CountingFraction.calls += 1
        return super().limit_denominator(max_denominator)


def snap_counted(alg, jac):
    CountingFraction.calls = 0
    with mock.patch.object(engine, "Fraction", CountingFraction):
        sol = jacobian_std_components(alg, jac)
    return sol, CountingFraction.calls


def lattice(alg, rng):
    """Float rows on the 1/64 lattice; over C, a C-linear map, so that it is
    representable."""
    def v():
        return rng.randint(-256, 256) / 64

    if alg is COMPLEX:
        re, im = v(), v()
        return [[re, -im], [im, re]]
    return [[v() for _ in range(alg.dim)] for _ in range(alg.dim)]


@pytest.mark.parametrize("alg", [QUATERNIONS, COMPLEX], ids=["H", "C"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_one_entry_off_the_lattice_takes_least_squares(alg, where):
    # k/64 + 5e-7 is 5e-7 from its nearest fraction of denominator <= 64, so
    # it misses SNAP_TOL; it stays inside LSTSQ_RESIDUAL_TOL, so over C the
    # perturbed map is still representable.
    n = alg.dim
    rng = random.Random(f"{alg.name}-{where}")
    for _ in range(20):
        rows = lattice(alg, rng)
        pos = {"first": 0, "middle": n * n // 2, "last": n * n - 1}[where]
        rows[pos // n][pos % n] += 5e-7
        jac = tuple(map(tuple, rows))
        sol, calls = snap_counted(alg, jac)
        assert calls == pos + 1
        comps = [v for row in sol.components.comps for v in row]
        assert all(type(v) is float for v in comps)
        want, _, unique = reference_least_squares(alg, jac)
        scale = max(1.0, *(abs(v) for row in jac for v in row))
        assert max(abs(g - w) for g, w in zip(comps, want)) <= 1e-12 * scale
        assert sol.unique == unique


@pytest.mark.parametrize("alg", [QUATERNIONS, COMPLEX], ids=["H", "C"])
def test_lattice_jacobian_still_snaps(alg):
    rng = random.Random(alg.name)
    rows = lattice(alg, rng)
    sol, calls = snap_counted(alg, tuple(map(tuple, rows)))
    assert calls == alg.dim**2
    exact = [[Fraction(v) for v in row] for row in rows]
    assert sol == coord_to_std(CoordMatrix.from_rows(alg, exact))
    assert all(type(v) is Fraction for row in sol.components.comps for v in row)


@pytest.mark.parametrize("bad, error", [(math.nan, ValueError), (math.inf, OverflowError)])
def test_non_finite_entry_after_a_miss_raises_as_the_full_snap(bad, error):
    # The snap stops at the miss in entry 0, before it reaches the bad entry.
    jac = ((math.sqrt(2), 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
           (0.0, 0.0, 0.0, bad))
    with pytest.raises(error) as info:
        jacobian_std_components(H, jac)
    with pytest.raises(error) as want:
        Fraction(bad)
    assert str(info.value) == str(want.value)


# -- float fast paths ---------------------------------------------------------

def loop_mul(x, y):
    """The float product as a loop over the constants, summed from 0.0."""
    xs, ys = floats(x), floats(y)
    out = [0.0] * x.alg.dim
    for k, l, p, c in x.alg._nonzero_triples:
        out[p] += xs[k] * ys[l] * float(c)
    return out


def loop_inverse(x):
    c = [v if s == 1 else -v for s, v in zip(x.alg.conj_signs, floats(x))]
    n = loop_mul(x, x.alg.element(c))[0]
    return [v * (1.0 / n) for v in c]


def random_float(alg, rng):
    return alg.element([rng.uniform(-4, 4) for _ in range(alg.dim)])


def random_exact(alg, rng):
    return alg.element([Fraction(rng.randint(-50, 50), rng.randint(1, 97)) for _ in range(alg.dim)])


def hexes(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_float_mul_with_an_exact_operand_matches_the_loop(alg):
    rng = random.Random(alg.name)
    for _ in range(200):
        xf, ye = random_float(alg, rng), random_exact(alg, rng)
        assert hexes(mul(xf, ye).coords) == hexes(loop_mul(xf, ye))
        assert hexes(mul(ye, xf).coords) == hexes(loop_mul(ye, xf))
        assert hexes(mul(xf, xf).coords) == hexes(loop_mul(xf, xf))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_float_inverse_matches_the_loop(alg):
    rng = random.Random(alg.name)
    for _ in range(200):
        x = random_float(alg, rng)
        assert hexes(inverse(x).coords) == hexes(loop_inverse(x))
    with pytest.raises(NotInvertible):
        inverse(alg.zero.to_float())


def test_float_mul_checks_the_algebra_only_when_the_objects_differ():
    twin = make_quaternion_algebra(-1, -1)
    assert twin is not H and twin == H
    x, y = H.element([0.5, 1, 2, 3]), twin.element([1, Fraction(1, 3), 0, -1])
    assert mul(x, y).coords == tuple(loop_mul(x, y))
    with pytest.raises(AlgebraMismatch):
        mul(x, COMPLEX.element([1.0, 2.0]))
    with pytest.raises(AlgebraMismatch):
        mul(H.one, COMPLEX.one)


def test_to_float_of_a_float_element_is_that_element():
    x = H.element([0.5, -1.25, 3.0, 0.1])
    assert x.to_float() is x
    exact = H.element([Fraction(1, 3), 2, 0, -1])
    assert exact.to_float().coords == (1 / 3, 2.0, 0.0, -1.0)
