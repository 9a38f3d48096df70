"""Numeric directional derivatives against the closed-form table."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ncdr import maps
from ncdr.algebra import (
    COMPLEX,
    QUATERNIONS,
    conj,
    inverse,
    mul,
    norm_float,
    norm_sq,
)
from ncdr.errors import (
    NonConvergent,
    NotInvertible,
    NotRepresentable,
)
from ncdr.gateaux import (
    BASE_STEP,
    LEVELS,
    REL_TOL,
    MapEvaluator,
    differential_std_components,
    gateaux,
    gateaux_with_error,
    jacobian,
    mixed_partial_residual,
    second_gateaux,
    verify_chain_rule,
    verify_product_rule,
)
from ncdr.linmap import StdComponents, embed_matrix

H = QUATERNIONS
ONE, I, J, K = (H.basis(n) for n in range(4))


def random_element(rng, lo=1, hi=3):
    return H.element(
        [Fraction(rng.randint(-3, 3), rng.randint(lo, hi)) for _ in range(4)]
    )


def random_invertible(rng):
    while True:
        x = random_element(rng)
        if norm_sq(x) >= Fraction(1, 4):
            return x


def close(a, b, tol):
    return norm_float(a - b) <= tol


def test_gateaux_of_square():
    x = ONE + K
    got = gateaux(maps.square(H), x, I)
    want = mul(x, I) + mul(I, x)
    assert close(got, want.to_float(), 1e-10)


def test_gateaux_of_constant_is_zero():
    f = maps.constant(H.element([2, 3, -1, 5]))
    got, err = gateaux_with_error(f, ONE, J)
    assert norm_float(got) == 0.0
    assert err < 1e-12


def test_gateaux_of_inverse():
    got = gateaux(maps.invert(H), I, J)
    assert close(got, (-J).to_float(), 1e-10)


def test_gateaux_zero_direction():
    assert norm_float(gateaux(maps.square(H), I, H.zero)) == 0.0
    # The general path samples f(x) - f(x): exactly 0, with error 0.0, also
    # for a map with exact output.
    for f, x, a in [(maps.cube(H), ONE + J, H.zero), (maps.constant(K), I, H.zero)]:
        value, err = gateaux_with_error(f, x, a)
        assert value.coords == (0.0,) * 4 and err == 0.0
        assert all(type(c) is float for c in value.coords)


def test_real_homogeneity():
    rng = random.Random(3)
    f = maps.cube(H)
    for _ in range(20):
        x, a = random_element(rng), random_element(rng)
        r = rng.uniform(-3, 3)
        lhs = gateaux(f, x, r * a.to_float())
        rhs = r * gateaux(f, x, a)
        assert norm_float(lhs - rhs) <= 1e-8 * max(1.0, norm_float(rhs))


def test_second_gateaux():
    rng = random.Random(11)
    x, a1, a2 = random_element(rng), random_element(rng), random_element(rng)
    got = second_gateaux(maps.square(H), x, a1, a2)
    want = mul(a1, a2) + mul(a2, a1)
    assert close(got, want.to_float(), 1e-6)
    b, c = random_element(rng), random_element(rng)
    linear = maps.two_sided(b, c)
    assert norm_float(second_gateaux(linear, x, a1, a2)) <= 1e-8
    assert mixed_partial_residual(maps.cube(H), x, a1, a2) <= 1e-6


def test_jacobian_of_conjugation():
    jac = jacobian(maps.conjugate(H), ONE + I)
    assert np.max(np.abs(jac - np.diag([1.0, -1.0, -1.0, -1.0]))) <= 1e-10


def test_jacobian_identity_and_left_multiplication():
    jac = jacobian(maps.identity_map(H), I)
    assert np.max(np.abs(jac - np.eye(4))) <= 1e-12
    rng = random.Random(13)
    a = random_element(rng)
    f = MapEvaluator.unary(H, lambda x: mul(a, x))
    jac = jacobian(f, random_element(rng))
    want = np.array([[float(v) for v in row] for row in embed_matrix(a).mat])
    assert np.max(np.abs(jac - want)) <= 1e-10


def test_differential_std_components_of_conjugation():
    sol = differential_std_components(maps.conjugate(H), ONE + J)
    assert sol.unique
    half = Fraction(-1, 2)
    assert sol.components == StdComponents.from_rows(
        H, [[half, 0, 0, 0], [0, half, 0, 0], [0, 0, half, 0], [0, 0, 0, half]]
    )


def test_differential_std_components_of_two_sided():
    rng = random.Random(15)
    b = H.element([Fraction(rng.randint(-3, 3), 2) for _ in range(4)])
    c = H.element([Fraction(rng.randint(-3, 3), 2) for _ in range(4)])
    sol = differential_std_components(maps.two_sided(b, c), random_element(rng))
    # d(bxc)(h) = b h c has the rank-one components b^i c^j.
    want = tuple(tuple(b.coords[i] * c.coords[j] for j in range(4)) for i in range(4))
    for i in range(4):
        for j in range(4):
            assert abs(float(sol.components.comps[i][j]) - float(want[i][j])) <= 1e-6


def test_complex_conjugation_is_not_representable():
    with pytest.raises(NotRepresentable):
        differential_std_components(maps.conjugate(COMPLEX), COMPLEX.basis(0) + COMPLEX.basis(1))


def test_differential_std_components_float_fallback():
    # Denominators beyond the snapping cutoff force the least-squares branch.
    b = H.element([Fraction(1, 7), Fraction(2, 13), 0, 1])
    c = H.element([Fraction(3, 11), 1, Fraction(-1, 7), 0])
    sol = differential_std_components(maps.two_sided(b, c), ONE)
    assert sol.unique
    assert isinstance(sol.components.comps[0][0], float)
    worst = max(
        abs(float(sol.components.comps[i][j]) - float(b.coords[i] * c.coords[j]))
        for i in range(4)
        for j in range(4)
    )
    assert worst <= 1e-9


def test_nonconvergent_on_kinked_map():
    # Absolute-value kink straddled by the larger stencil steps only: the
    # difference quotients are not a series in t^2 and the gate must trip.
    from ncdr.errors import NonConvergent

    kink = MapEvaluator.unary(
        H, lambda x: abs(float(x.coords[0]) - 1.0075) * I.to_float()
    )
    with pytest.raises(NonConvergent):
        gateaux(kink, ONE, ONE)


def test_norm_sq_derivative():
    rng = random.Random(17)
    f = maps.norm_square(H)
    for _ in range(20):
        x, h = random_element(rng), random_element(rng)
        got = gateaux(f, x, h)
        want = mul(conj(h), x) + mul(conj(x), h)
        # The two conjugate pairings agree and are real.
        assert want == mul(h, conj(x)) + mul(x, conj(h))
        assert want.coords[1:] == (0, 0, 0)
        assert norm_float(got - want.to_float()) <= 1e-8 * max(1.0, norm_float(want))


def test_product_rule():
    rng = random.Random(19)
    ident = maps.identity_map(H)
    x, a = random_element(rng), random_element(rng)
    assert verify_product_rule(ident, ident, x, a) < 1e-8
    const = maps.constant(random_element(rng))
    assert verify_product_rule(const, maps.square(H), x, a) < 1e-8
    x = random_invertible(rng)
    assert verify_product_rule(ident, maps.invert(H), x, a) < 1e-8


def test_chain_rule():
    rng = random.Random(21)
    ident = maps.identity_map(H)
    x, a = random_invertible(rng), random_element(rng)
    assert verify_chain_rule(ident, maps.square(H), x, a) < 1e-8
    assert verify_chain_rule(maps.square(H), maps.invert(H), x, a) < 1e-7
    b, c = random_element(rng), random_element(rng)
    assert verify_chain_rule(maps.two_sided(b, c), maps.cube(H), x, a) < 1e-7


def test_derivative_table_conformance():
    rng = random.Random(23)
    for _ in range(25):
        x = random_invertible(rng)
        h = random_element(rng)
        b, c = random_element(rng), random_element(rng)
        a = random_element(rng)
        cases = [
            (maps.two_sided(b, c), mul(mul(b, h), c)),
            (maps.commutator(b), mul(h, b) - mul(b, h)),
            (maps.square(H), mul(x, h) + mul(h, x)),
            (maps.invert(H), -mul(mul(inverse(x), h), inverse(x))),
            (maps.sandwich(a), mul(mul(h, a), inverse(x))
             - mul(mul(mul(mul(x, a), inverse(x)), h), inverse(x))),
        ]
        for f, want in cases:
            got = gateaux(f, x, h)
            assert norm_float(got - want.to_float()) <= 1e-8 * max(1.0, norm_float(want))


def test_non_finite_derivatives_raise():
    # cube overflows to infinity near 1e110, so the differences turn NaN;
    # no NaN or infinity may pass as a derivative.
    big = H.element([10**110, 0, 0, 0])
    with pytest.raises(NonConvergent) as info:
        gateaux(maps.cube(H), big, I)
    assert not math.isfinite(info.value.error)
    assert info.value.step == BASE_STEP
    with pytest.raises(NonConvergent):
        jacobian(maps.cube(H), big)
    with pytest.raises(NonConvergent):
        differential_std_components(maps.cube(H), big)
    with pytest.raises(NonConvergent) as info:
        second_gateaux(maps.cube(H), big, I, J)
    assert not math.isfinite(info.value.error)
    # A map with a pole at 1 in its j-coordinate, sampled there by the third
    # step from 1 + 2^-8: that coordinate's extrapolant turns NaN behind a
    # finite first coordinate, which Python's max alone would pass over.
    def pole(x):
        u = x.coords[0] - 1.0
        return H.element([u, 0.0, 1.0 / u if u else math.inf, 0.0])

    with pytest.raises(NonConvergent) as info:
        gateaux(MapEvaluator.unary(H, pole), H.element([1 + 2.0**-8, 0, 0, 0]), ONE)
    assert math.isnan(info.value.error)


def test_nan_extrapolant_reports_a_nan_scale():
    # cube overflows at 10^120 in its unit coordinate, whose extrapolant
    # turns NaN; max(1.0, nan) is 1.0, so max alone would report a scale of 1.
    with pytest.raises(NonConvergent) as info:
        jacobian(maps.cube(H), H.element([10**120, 0, 0, 0]))
    assert math.isnan(info.value.error) and math.isnan(info.value.scale)
    assert str(info.value) == "extrapolants disagree by nan (scale nan)"
    # Finite extrapolants keep the scale max(1, |value|).
    kink = MapEvaluator.unary(H, lambda x: 3.0 * abs(float(x.coords[0]) - 1.0075) * I.to_float())
    with pytest.raises(NonConvergent) as info:
        gateaux(kink, ONE, ONE)
    assert 1.0 < info.value.scale < 4.0


def test_overflowing_extrapolant_raises():
    # Finite samples M, M, 0, M at the four steps, whose last Neville
    # difference overflows: the extrapolant, the error estimate and the scale
    # are all infinite, so the relative test alone (inf <= tol * inf) would
    # pass it.
    M = 1e308

    def swing(x):
        s = x.coords[0] - 1.0
        return H.element([0.0 if abs(s) == BASE_STEP / 4 else s * M, 0.0, 0.0, 0.0])

    assert LEVELS == 4
    with pytest.raises(NonConvergent) as info:
        gateaux(MapEvaluator.unary(H, swing), ONE, ONE)
    assert info.value.error == math.inf and info.value.scale == math.inf


def test_zero_direction_still_needs_f_defined_at_x():
    # d(invert)(0)(0) does not exist: invert is undefined at 0.
    with pytest.raises(NotInvertible):
        gateaux(maps.invert(H), H.zero, H.zero)
    # invert after the zero map b*x*c (b = 0), along the zero direction.
    with pytest.raises(NotInvertible):
        verify_chain_rule(maps.invert(H), maps.two_sided(H.zero, ONE), ONE + I, H.zero)
    # cube overflows at 1e110, so f(x) - f(x) is NaN there: the zero
    # direction fails as every other direction does.
    with pytest.raises(NonConvergent):
        gateaux(maps.cube(H), H.element([10**110, 0, 0, 0]), H.zero)


def test_pole_at_the_point_names_its_cause():
    # The stencil never evaluates f at x, so a pole there first shows as
    # disagreeing extrapolants; f(x), evaluated once, names the cause.
    with pytest.raises(NotInvertible) as info:
        gateaux(maps.invert(H), H.zero, I)
    assert isinstance(info.value.__cause__, NonConvergent)
    with pytest.raises(NotInvertible):
        jacobian(maps.invert(H), H.zero)
    # A converging derivative costs no evaluation at x.
    calls = []
    counted = MapEvaluator.unary(H, lambda x: calls.append(x) or mul(x, x))
    gateaux(counted, ONE, I)
    assert len(calls) == 2 * LEVELS


def test_chain_rule_at_large_point_meets_tolerance():
    # x^9 at |x| = 4: both sides near 5e5, so 1e-7 absolute asks for about
    # 1e-13 relative; the power-of-two steps keep the differences exact
    # enough to meet it.
    x = H.element([2, 2, -2, -2])
    a = H.element([Fraction(-1, 2), 1, 1, 1])
    assert verify_chain_rule(maps.cube(H), maps.cube(H), x, a) <= 1e-7


def test_nonconvergent_carries_its_numbers():
    kink = MapEvaluator.unary(
        H, lambda x: abs(float(x.coords[0]) - 1.0075) * I.to_float()
    )
    with pytest.raises(NonConvergent) as info:
        gateaux(kink, ONE, ONE)
    exc = info.value
    assert exc.error > REL_TOL * exc.scale
    assert exc.scale >= 1.0
    assert exc.step == BASE_STEP
    assert str(exc) == f"extrapolants disagree by {exc.error:.3e} (scale {exc.scale:.3e})"


def test_second_order_nonconvergent_carries_its_numbers():
    # Smooth along a1, kinked along a2: the inner derivatives converge and
    # the outer extrapolation fails.
    kink = MapEvaluator.unary(
        H, lambda x: float(x.coords[1]) * abs(float(x.coords[0]) - 1.0075) * I.to_float()
    )
    with pytest.raises(NonConvergent) as info:
        second_gateaux(kink, ONE, I, ONE)
    exc = info.value
    assert exc.error > 1e-6 * exc.scale
    assert exc.step == BASE_STEP
    assert str(exc) == f"second-order extrapolants disagree by {exc.error:.3e}"


def test_not_representable_carries_its_residual():
    # Entries 1/97 escape the snap to denominators <= 64, so the
    # least-squares branch decides, and conjugation is not C-linear.
    f = MapEvaluator.unary(COMPLEX, lambda x: conj(x) * (1.0 / 97))
    with pytest.raises(NotRepresentable) as info:
        differential_std_components(f, COMPLEX.one)
    exc = info.value
    assert exc.residual == pytest.approx(1 / 97, rel=1e-6)
    assert str(exc) == f"Jacobian is {exc.residual:.3e} away from the representable subspace"
    # The snapped branch decides exactly and has no residual to report.
    with pytest.raises(NotRepresentable) as info:
        differential_std_components(maps.conjugate(COMPLEX), COMPLEX.one)
    assert info.value.residual is None
