"""The float-list difference engine against the numpy engine it replaced.

The numpy Richardson table and sampler are kept here as the reference, as
they ran before the engine moved to plain float lists.  Every coordinate is
the same IEEE operation in the same order, so values and error estimates
must be equal as floats, and the same inputs must raise the same errors
with the same numbers.  The one intended difference: the reference lets NaN
and infinity through as derivatives, where the engine raises NonConvergent.
Where the extrapolants disagree, both evaluate f at x once and raise the
error f raises there, so that a pole at x is named rather than reported as
non-convergence.
The reference reads the engine's fixed step schedule and tolerances
(BASE_STEP, RATIO, LEVELS, REL_TOL, SECOND_ORDER_TOL).

The least-squares branch of differential_std_components multiplies vec(J)
by big_c's exact pseudo-inverse in floats.  numpy's lstsq over big_c in
floats, which it replaced, is kept as its reference: components and
residuals must agree to 1e-12, and NotRepresentable must be raised for the
same Jacobians with the same message.
"""

import importlib
import math
from fractions import Fraction
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncdr import maps
from ncdr.algebra import COMPLEX, QUATERNIONS, Element, make_quaternion_algebra
from ncdr.errors import NcdrError, NonConvergent, NotRepresentable
from ncdr.gateaux import (
    MapEvaluator,
    differential_std_components,
    gateaux_with_error,
    jacobian,
    second_gateaux,
)
from ncdr.linmap import StdComponents, big_c, std_to_coord

# The package re-exports the gateaux() function under the module's name.
engine = importlib.import_module("ncdr.gateaux")


def reference_richardson(sample):
    r2 = engine.RATIO * engine.RATIO
    rows = []
    t = engine.BASE_STEP
    for k in range(engine.LEVELS):
        row = [sample(t / engine.RATIO**k)]
        for m in range(1, k + 1):
            factor = r2**m
            row.append(row[m - 1] + (row[m - 1] - rows[k - 1][m - 1]) / (factor - 1))
        rows.append(row)
    best = rows[-1][-1]
    err = float(np.max(np.abs(best - rows[-1][-2])))
    return best, err


def _flatten(elem):
    return np.array([float(c) for c in elem.coords], dtype=float)


def reference_directional(f, x, a):
    def shifted(t):
        return Element(x.alg, tuple([u + t * v for u, v in zip(x.coords, a.coords)]))

    def sample(t):
        return (_flatten(f(shifted(t))) - _flatten(f(shifted(-t)))) / (2.0 * t)

    with np.errstate(all="ignore"):
        value, err = reference_richardson(sample)
    scale = max(1.0, float(np.max(np.abs(value))))
    if err > engine.REL_TOL * scale:
        exc = NonConvergent(
            f"extrapolants disagree by {err:.3e} (scale {scale:.3e})",
            error=err,
            scale=scale,
            step=engine.BASE_STEP,
        )
        try:
            f(x)
        except NcdrError as cause:
            raise cause from exc
        raise exc
    return value, err


def reference_second_gateaux(f, x, a1, a2):
    outer_tol = max(engine.REL_TOL, engine.SECOND_ORDER_TOL)
    x, a1, a2 = x.to_float(), a1.to_float(), a2.to_float()

    def g(y):
        return reference_directional(f, y, a1)[0]

    def sample(t):
        return (g(x + t * a2) - g(x - t * a2)) / (2.0 * t)

    with np.errstate(all="ignore"):
        value, err = reference_richardson(sample)
    scale = max(1.0, float(np.max(np.abs(value))))
    if err > outer_tol * scale:
        raise NonConvergent(
            f"second-order extrapolants disagree by {err:.3e}",
            error=err,
            scale=scale,
            step=engine.BASE_STEP,
        )
    return Element(f.alg, tuple(value.tolist()))


def reference_directional_lists(*args):
    value, err = reference_directional(*args)
    return value.tolist(), err


@contextmanager
def reference_engine():
    """Run the public entry points on the reference sampler and table."""
    with mock.patch.object(engine, "_directional", reference_directional_lists):
        yield


def outcome(call):
    """A call's floats, or the name, message and numbers of the error it raised."""
    try:
        return "value", _data(call())
    except (NcdrError, ValueError) as exc:
        numbers = tuple(getattr(exc, k, None) for k in ("error", "scale", "step", "residual"))
        return "raised", type(exc).__name__, str(exc), numbers


def _data(result):
    if isinstance(result, (tuple, list)):
        return tuple(_data(r) for r in result)
    if isinstance(result, Element):
        return result.coords
    if hasattr(result, "components"):
        return result.components.comps, result.unique
    return result


def _finite(data):
    if isinstance(data, tuple):
        return all(_finite(d) for d in data)
    return not isinstance(data, float) or math.isfinite(data)


def assert_same(got, want):
    if want[0] == "value" and not _finite(want[1]) or want[1] == "ValueError":
        # The reference passed NaN or infinity through, or failed to snap a
        # NaN to a fraction; the engine refuses it as NonConvergent.
        assert got[:2] == ("raised", "NonConvergent")
        assert not math.isfinite(got[3][0])
    else:
        assert got == want


def check_entry_points(f, x, a, b=None):
    """Compare every engine entry point at (x, a); with b, also the standard
    components and the second derivative along (a, b)."""
    xt, at = x.to_float(), a.to_float()
    assert_same(outcome(lambda: engine._directional(f, xt, at)),
                outcome(lambda: reference_directional_lists(f, xt, at)))
    calls = [lambda: gateaux_with_error(f, x, a), lambda: jacobian(f, x)]
    if b is not None:
        calls.append(lambda: differential_std_components(f, x))
    for call in calls:
        with reference_engine():
            want = outcome(call)
        assert_same(outcome(call), want)
    if b is not None:
        assert_same(outcome(lambda: second_gateaux(f, x, a, b)),
                    outcome(lambda: reference_second_gateaux(f, x, a, b)))


def unary_maps(b, c):
    alg = b.alg
    return [make(alg) for make in maps.BUILTINS.values()] + [
        maps.two_sided(b, c),
        maps.commutator(b),
        maps.sandwich(c),
        maps.constant(b),
    ]


nonunit = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
    lambda v: v not in (0, 1, -1)
)
algebras = st.one_of(
    st.just(QUATERNIONS),
    st.just(COMPLEX),
    st.builds(make_quaternion_algebra, nonunit, nonunit),
)
scalars = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def points(draw):
    alg = draw(algebras)
    return [alg.element([draw(scalars) for _ in range(alg.dim)]) for _ in range(4)]


@given(points())
@settings(max_examples=40, deadline=None)
def test_engine_matches_reference(pts):
    x, a, b, c = pts
    for f in unary_maps(b, c):
        check_entry_points(f, x, a, b=b)


def test_engine_matches_reference_on_builtin_table():
    H = QUATERNIONS
    one, i, j, k = (H.basis(n) for n in range(4))
    x = H.element([1, "1/2", -2, "3/4"])
    for alg, a, b, c in [(H, i + k, j, one + i), (COMPLEX, COMPLEX.basis(1), COMPLEX.one,
                                                    COMPLEX.element([1, 2]))]:
        point = x if alg is H else COMPLEX.element([3, "-1/4"])
        for f in unary_maps(b, c):
            check_entry_points(f, point, a, b=b)


def test_same_nonconvergent_as_reference():
    H = QUATERNIONS
    one, i = H.one, H.basis(1)
    kink = MapEvaluator.unary(H, lambda x: abs(float(x.coords[0]) - 1.0075) * i.to_float())
    bent = MapEvaluator.unary(
        H, lambda x: float(x.coords[1]) * abs(float(x.coords[0]) - 1.0075) * i.to_float()
    )
    check_entry_points(kink, one, one, b=i)
    check_entry_points(bent, one, i, b=one)
    got = outcome(lambda: second_gateaux(bent, one, i, one))
    assert got[:2] == ("raised", "NonConvergent")


def test_non_finite_reference_values_raise():
    # cube overflows near 1e110: the reference returns NaN, the engine raises.
    H = QUATERNIONS
    big = H.element([10**110, 0, 0, 0])
    i, j = H.basis(1), H.basis(2)
    with reference_engine():
        value, _ = gateaux_with_error(maps.cube(H), big, i)
    assert not all(math.isfinite(v) for v in value.coords)
    check_entry_points(maps.cube(H), big, i, b=j)


def reference_least_squares(alg, jac):
    """The float solve the engine ran before: numpy's lstsq over big_c."""
    A = np.array(big_c(alg).mat, dtype=float)
    b = np.array(jac).ravel()
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.max(np.abs(A @ sol - b)))
    if residual > engine.LSTSQ_RESIDUAL_TOL:
        raise NotRepresentable(
            f"Jacobian is {residual:.3e} away from the representable subspace",
            residual=residual,
        )
    return sol.tolist(), residual, big_c(alg).rank == alg.dim**2


LSTSQ_ALGEBRAS = (
    QUATERNIONS,
    COMPLEX,
    make_quaternion_algebra(Fraction(-3, 2), Fraction(5, 7)),
    make_quaternion_algebra(1, 1),
)
entries = st.floats(-8, 8)


@st.composite
def float_jacobians(draw):
    """A float coordinate matrix, representable up to noise below 1e-9 or
    drawn entry by entry.  The sqrt(2)/8 shift keeps it off the snap grid."""
    alg = draw(st.sampled_from(LSTSQ_ALGEBRAS))
    n = alg.dim
    grid = [[draw(entries) for _ in range(n)] for _ in range(n)]
    grid[0][0] += math.sqrt(2) / 8
    if draw(st.booleans()):
        noise = st.floats(-1e-9, 1e-9)
        coords = std_to_coord(StdComponents(alg, tuple(map(tuple, grid)))).mat
        grid = [[v + draw(noise) for v in row] for row in coords]
    return alg, tuple(tuple(float(v) for v in row) for row in grid)


def _snaps(jac):
    return all(
        abs(float(Fraction(v).limit_denominator(engine.SNAP_DENOMINATOR)) - v) <= engine.SNAP_TOL
        for row in jac for v in row
    )


@given(float_jacobians())
@settings(max_examples=300, deadline=None)
def test_least_squares_matches_lstsq(drawn):
    alg, jac = drawn
    assume(not _snaps(jac))
    f = maps.identity_map(alg)
    with mock.patch.object(engine, "jacobian", lambda *_: jac):
        got = outcome(lambda: differential_std_components(f, alg.one))
    want = outcome(lambda: reference_least_squares(alg, jac))
    if want[0] == "raised":
        assert got[:3] == want[:3]
        assert abs(got[3][3] - want[3][3]) <= 1e-12
        return
    (comps, unique), (sol, residual, want_unique) = got[1], want[1]
    n = alg.dim
    scale = max(1.0, *(abs(v) for row in jac for v in row))
    assert all(type(v) is float for row in comps for v in row)
    assert np.max(np.abs(np.array(comps).ravel() - np.array(sol))) <= 1e-12 * scale
    assert unique == want_unique
    back = std_to_coord(StdComponents(alg, comps)).mat
    got_residual = max(abs(back[j][i] - jac[j][i]) for j in range(n) for i in range(n))
    assert abs(got_residual - residual) <= 1e-12
