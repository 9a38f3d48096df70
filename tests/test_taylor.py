"""ODE solving by the homotopy formula, the exponent, and homogeneity checks."""

import math
import random
from fractions import Fraction

import pytest

from ncdr import maps, ncpoly
from ncdr.algebra import COMPLEX, QUATERNIONS, mul, norm_float
from ncdr.errors import NoSolution, ParseError, RangeError
from ncdr.gateaux import MapEvaluator
from ncdr.ncpoly import (
    WordPoly,
    eval_poly,
    extensional_equal,
    sym_derivative,
)
from ncdr.parsing import parse_word_poly
from ncdr.taylor import (
    OdeRhs,
    euler_check,
    exp,
    exp_additivity_gap,
    exp_derivative_diagonal,
    exp_permutations,
    solve_ode_taylor,
)

H = QUATERNIONS
ONE, I, J, K = (H.basis(n) for n in range(4))


def wp(name):
    return WordPoly.variable(H, name)


def cube_rhs():
    x, h = wp("x"), wp("h")
    return OdeRhs(h * x * x + x * h * x + x * x * h)


def test_ode_rhs_validation():
    with pytest.raises(ParseError):
        OdeRhs(wp("x") * wp("x"))  # no h at all
    with pytest.raises(ParseError):
        OdeRhs(wp("h") * wp("h"))  # h twice
    with pytest.raises(ParseError):
        OdeRhs(wp("h") * wp("z"))  # foreign symbol


def test_ode_cubic_example():
    sol = solve_ode_taylor(cube_rhs(), H.zero, H.zero)
    assert extensional_equal(sol.solution.to_words(), wp("x") ** 3)


def test_ode_component_sum_example():
    rng = random.Random(3)
    x, h = wp("x"), wp("h")
    rhs_poly = WordPoly.zero(H)
    consts = []
    for _ in range(3):
        u = H.element([Fraction(rng.randint(-3, 3), 2) for _ in range(4)])
        v = H.element([Fraction(rng.randint(-3, 3), 2) for _ in range(4)])
        consts.append((u, v))
        rhs_poly = rhs_poly + WordPoly.constant(u) * h * WordPoly.constant(v)
    sol = solve_ode_taylor(OdeRhs(rhs_poly), H.zero, H.zero)
    want = WordPoly.zero(H)
    for u, v in consts:
        want = want + WordPoly.constant(u) * x * WordPoly.constant(v)
    assert extensional_equal(sol.solution.to_words(), want)


def test_ode_asymmetric_rhs_rejected():
    x, h = wp("x"), wp("h")
    with pytest.raises(NoSolution):
        solve_ode_taylor(OdeRhs(3 * (h * x * x)), H.zero, H.zero)


def test_ode_over_c_with_five_symbols():
    # Order 5 of 5*h*x^4 has five direction symbols; y = x^5 solves it.
    C = COMPLEX
    rhs = OdeRhs(parse_word_poly(C, "5*h*x^4"))
    sol = solve_ode_taylor(rhs, C.zero, C.zero)
    assert sol.solution.to_words().terms == (WordPoly.variable(C, "x") ** 5).terms


def _count_lattice_points(monkeypatch):
    calls = []
    real = ncpoly._eval_plan
    monkeypatch.setattr(ncpoly, "_eval_plan", lambda a, p, b: calls.append(b) or real(a, p, b))
    return calls


def test_obstruction_costs_one_order(monkeypatch):
    # h x^32 is obstructed, so dP = F fails; the x lattice of degree 32
    # varies slowest, so its first points meet a witness among the h bindings.
    rhs = OdeRhs(parse_word_poly(H, "h*x^32"))
    calls = _count_lattice_points(monkeypatch)
    with pytest.raises(NoSolution):
        solve_ode_taylor(rhs, H.zero, H.zero)
    assert 0 < len(calls) <= 16


def test_symmetric_rhs_is_checked_once(monkeypatch):
    # dP = F alone decides solvability: a symmetric F over C costs only the
    # lattice of dP - F, 33 x points by 2 h points.
    rhs = OdeRhs(parse_word_poly(COMPLEX, "33*h*x^32"))
    calls = _count_lattice_points(monkeypatch)
    solve_ode_taylor(rhs, COMPLEX.zero, COMPLEX.zero)
    assert len(calls) <= 100


@pytest.mark.parametrize("alg, rhs_poly", [
    (H, parse_word_poly(H, "x^9").derivative("x", "h")),
    (H, parse_word_poly(H, "x^32").derivative("x", "h")),
    (COMPLEX, parse_word_poly(COMPLEX, "33*h*x^32")),
], ids=["d(x^9)(h) in H", "d(x^32)(h) in H", "33*h*x^32 in C"])
def test_ode_solves_past_the_derivative_chain(alg, rhs_poly):
    # High degrees at a nonzero base point: each word of F is integrated once.
    rhs = OdeRhs(rhs_poly)
    x0 = alg.element([Fraction(1, 2), -1] + [Fraction(1, 3)] * (alg.dim - 2))
    y0 = alg.element([2] + [0] * (alg.dim - 2) + [-1])
    sol = solve_ode_taylor(rhs, x0, y0)
    assert extensional_equal(sol.solution.to_words().derivative("x", "h"), rhs.poly)
    assert eval_poly(sol.solution, x0) == y0


def test_ode_solution_satisfies_equation():
    rhs = cube_rhs()
    x0 = H.element([1, 0, Fraction(1, 2), 0])
    y0 = H.element([0, 2, 0, -1])
    sol = solve_ode_taylor(rhs, x0, y0)
    recovered = sym_derivative(sol.solution, 1).rename({"h1": "h"})
    assert extensional_equal(recovered, rhs.poly)
    assert eval_poly(sol.solution, x0) == y0


def test_exp_basics():
    assert norm_float(exp(H.zero) - ONE.to_float()) <= 1e-15
    got = exp(math.pi * I.to_float())
    assert norm_float(got - (-ONE).to_float()) <= 1e-12


def test_exp_angle_identity():
    rng = random.Random(5)
    for _ in range(10):
        theta = rng.uniform(-2.5, 2.5)
        u = H.element([0.0, *(rng.uniform(-1, 1) for _ in range(3))])
        scale = norm_float(u)
        u = u * (1.0 / scale)
        got = exp(theta * u)
        want = math.cos(theta) * ONE.to_float() + math.sin(theta) * u
        assert norm_float(got - want) <= 1e-12


def test_exp_tail_bound_honored():
    rng = random.Random(7)
    x = H.element([rng.uniform(-1.5, 1.5) for _ in range(4)])
    tol = 1e-9
    assert norm_float(exp(x, tol) - exp(x, tol / 10)) < tol


def test_exp_inverse_pairing():
    rng = random.Random(9)
    x = H.element([rng.uniform(-1, 1) for _ in range(4)])
    tol = 1e-12
    assert norm_float(mul(exp(x, tol), exp(-x, tol)) - ONE.to_float()) <= 10 * tol


@pytest.mark.parametrize("theta", [20.0, 40.0, 300.0])
def test_exp_large_angles(theta):
    rng = random.Random(int(theta))
    points = [(0.0, [1.0, 0.0, 0.0])]  # s + theta*i
    for _ in range(10):
        raw = [rng.uniform(-1, 1) for _ in range(3)]
        scale = math.sqrt(sum(v * v for v in raw))
        points.append((rng.uniform(-1, 1), [v / scale for v in raw]))
    for s, u in points:
        got = exp(H.element([s] + [theta * v for v in u]))
        es = math.exp(s)
        want = H.element([es * math.cos(theta)] + [es * math.sin(theta) * v for v in u])
        assert norm_float(got - want) <= 1e-12 * max(1.0, es)


def test_exp_at_norm_800_raises_range_error():
    # e^800 exceeds the float range; at the default tol the squarings alone
    # would also round beyond the tolerance.
    with pytest.raises(RangeError):
        exp(H.scalar(800))
    with pytest.raises(RangeError):
        exp(H.scalar(800), tol=1e-9)
    with pytest.raises(RangeError):
        exp(H.element([0, 800, 0, 0]))
    got = exp(H.element([0, 800, 0, 0]), tol=1e-11)
    assert abs(got.coords[0] - math.cos(800.0)) <= 1e-11
    assert abs(got.coords[1] - math.sin(800.0)) <= 1e-11


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_exp_rejects_bad_tolerance(tol):
    with pytest.raises(RangeError):
        exp(I, tol)


def test_exp_additivity_gap():
    assert exp_additivity_gap(I, mul(I, I)) <= 1e-10
    assert exp_additivity_gap(I, J) > 0.01
    rng = random.Random(11)
    b = H.element([rng.uniform(-1, 1) for _ in range(4)])
    assert exp_additivity_gap(H.zero, b) <= 1e-12


def test_exp_permutations_small():
    one = exp_permutations(1)
    assert {p.symbols for p in one} == {("y", "h1"), ("h1", "y")}
    assert len(exp_permutations(2)) == 4
    assert len(exp_permutations(3)) == 8
    for n in range(1, 7):
        perms = exp_permutations(n)
        assert len(perms) == 2**n
        assert len({p.symbols for p in perms}) == 2**n
        assert all(p.satisfies_conditions() for p in perms)
    with pytest.raises(RangeError):
        exp_permutations(0)
    with pytest.raises(RangeError):
        exp_permutations(13)


def test_exp_permutations_second_order_matches_direct_expansion():
    # d2 y = (1/4)(y h2 h1 + h2 y h1 + h1 y h2 + h1 h2 y) from iterating
    # dy(h) = (yh + hy)/2 by hand.
    got = {p.symbols for p in exp_permutations(2)}
    want = {
        ("y", "h2", "h1"),
        ("h2", "y", "h1"),
        ("h1", "y", "h2"),
        ("h1", "h2", "y"),
    }
    assert got == want


def test_exp_derivative_diagonal_is_h_power():
    for n in (1, 2, 3, 6, 10):
        diag = exp_derivative_diagonal(H, n)
        h = wp("h")
        want = WordPoly.constant(ONE)
        for _ in range(n):
            want = want * h
        assert diag.terms == want.terms


def test_exp_flow_defect():
    # d(x^k/k!)(h) against (x^(k-1) h + h x^(k-1)) / (2 (k-1)!): equal for
    # k <= 2, and from k = 3 on an x h x cross term survives.
    x, h = wp("x"), wp("h")

    def defect(k):
        series = Fraction(1, math.factorial(k)) * (x**k).derivative("x", "h")
        power = x ** (k - 1)
        return series - Fraction(1, 2 * math.factorial(k - 1)) * (power * h + h * power)

    assert defect(1).is_zero()
    assert defect(2).is_zero()
    assert not defect(3).is_zero()
    # The x h x cross term survives with weight 1/6.
    xhx = (Fraction(1, 6) * (x * h * x)).terms[0]
    assert xhx in defect(3).terms


def test_euler_checks():
    assert euler_check(maps.square(H), 2) < 1e-7
    rng = random.Random(13)
    b = H.element([rng.uniform(-1, 1) for _ in range(4)])
    c = H.element([rng.uniform(-1, 1) for _ in range(4)])
    linear = MapEvaluator.unary(H, lambda v: mul(mul(b, v), c))
    assert euler_check(linear, 1) < 1e-8
    assert euler_check(maps.cube(H), 3) < 1e-7
