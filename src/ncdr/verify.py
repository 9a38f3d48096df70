"""Batch verification: every acceptance check behind `ncdr verify all`.

Each check is a named function taking a seeded RNG and returning pass/fail
plus a residual-or-witness string.  The registry is shared by the command
line and the test suite; every check derives its own RNG from the seed, so
the pass/fail pattern does not depend on execution order.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import closed_forms, maps
from .algebra import (
    COMPLEX,
    QUATERNIONS,
    AlgebraSpec,
    Element,
    _reduced,
    conj,
    inverse,
    mul,
    norm_float,
    norm_sq,
)
from .dspace import (
    ComponentMap,
    DMatrix,
    DVector,
    apply_component_map,
    component_sum_to_std,
    compose_component_maps,
    dmatrix_inverse,
    shift_components,
)
from .errors import AxiomViolated, NoSolution, NotRepresentable, RangeError, Singular
from .gateaux import (
    MapEvaluator,
    gateaux,
    jacobian,
    jacobian_std_components,
    mixed_partial_residual,
    verify_chain_rule,
    verify_product_rule,
)
from .linmap import (
    CoordMatrix,
    StdComponents,
    big_c,
    compose_std,
    coord_to_std,
    embed_matrix,
    std_to_coord,
)
from .ncpoly import (
    Const,
    Monomial,
    NCPoly,
    Var,
    WordPoly,
    diagonal,
    extensional_equal,
)
from .taylor import (
    OdeRhs,
    euler_check,
    exp,
    exp_additivity_gap,
    exp_derivative_diagonal,
    exp_permutations,
    solve_ode_taylor,
)

H = QUATERNIONS


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_ms: float


@dataclass(frozen=True)
class Report:
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "passed": self.all_passed,
                "checks": [
                    {
                        "name": r.name,
                        "status": "pass" if r.passed else "fail",
                        "detail": r.detail,
                        "elapsed_ms": round(r.elapsed_ms, 3),
                    }
                    for r in self.results
                ],
            }
        )

    def format_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name:<28} {r.detail}  [{r.elapsed_ms:.1f} ms]")
        verdict = "all checks passed" if self.all_passed else "FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines)


def random_rational_element(
    rng: random.Random, alg: AlgebraSpec = H, hi: int = 5, den: int = 4
) -> Element:
    # Coordinates randint(-hi, hi) / randint(1, den), drawn in that order.
    pairs = [(rng.randint(-hi, hi), rng.randint(1, den)) for _ in range(alg.dim)]
    d = math.lcm(*[q for _, q in pairs])
    return _reduced(alg, [p * (d // q) for p, q in pairs], d)


def _numeric_direction(rng: random.Random) -> Element:
    # Gentle magnitudes keep the higher-order difference terms inside the
    # extrapolation's asymptotic regime at the default base step.
    return random_rational_element(rng, H, 2, 2)


def _numeric_point(rng: random.Random) -> Element:
    while True:
        x = _numeric_direction(rng)
        if norm_sq(x) >= 1:
            return x


def _nonzero_direction(rng: random.Random) -> Element:
    while True:
        x = _numeric_direction(rng)
        if not x.is_zero():
            return x


def _random_std(rng: random.Random, alg: AlgebraSpec = H) -> StdComponents:
    rows = [random_rational_element(rng, alg).coords for _ in range(alg.dim)]
    return StdComponents.from_rows(alg, rows)


#: Structure constants of the quaternion table, transcribed by hand.
H_TABLE = {
    (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (0, 3, 3): 1,
    (1, 0, 1): 1, (1, 1, 0): -1, (1, 2, 3): 1, (1, 3, 2): -1,
    (2, 0, 2): 1, (2, 1, 3): -1, (2, 2, 0): -1, (2, 3, 1): 1,
    (3, 0, 3): 1, (3, 1, 2): 1, (3, 2, 1): -1, (3, 3, 0): -1,
}


def std_components_to_word(f: StdComponents) -> WordPoly:
    """The map h -> sum f^{ij} e_i h e_j as a formal word polynomial."""
    alg = f.alg
    raw = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            c = f.comps[i][j]
            if c:
                raw.append((Fraction(c), (Const(alg.basis(i)), Var("h"), Const(alg.basis(j)))))
    return WordPoly.build(alg, raw)


def check_algebra_axioms(rng: random.Random) -> tuple[bool, str]:
    C = H.structure
    for k in range(4):
        for l in range(4):
            for p in range(4):
                if C[k][l][p] != Fraction(H_TABLE.get((k, l, p), 0)):
                    return False, f"structure constant ({k},{l},{p}) off"
    # AlgebraSpec construction checked associativity of the table; this
    # checks it through mul.
    for k, l, m in itertools.product(range(4), repeat=3):
        if mul(mul(H.basis(k), H.basis(l)), H.basis(m)) != mul(
            H.basis(k), mul(H.basis(l), H.basis(m))
        ):
            return False, f"element associativity broken at ({k},{l},{m})"
    for _ in range(1000):
        x, y = random_rational_element(rng), random_rational_element(rng)
        if norm_sq(mul(x, y)) != norm_sq(x) * norm_sq(y):
            return False, f"norm multiplicativity failed at {x}, {y}"
    return True, "64 triples + 1000 norm pairs, exact"


def check_conversion(rng: random.Random) -> tuple[bool, str]:
    from . import exactla

    S, Sinv = closed_forms.H_SIGNS, closed_forms.H_SIGNS_INV
    if exactla.mat_mul(S, Sinv) != exactla.identity(4):
        return False, "sign matrices do not invert"
    if exactla.mat_mul(Sinv, S) != exactla.identity(4):
        return False, "sign matrices do not invert (reversed)"
    for _ in range(100):
        f = _random_std(rng)
        m = std_to_coord(f)
        if m.mat != closed_forms.h_std_to_coord(f.comps):
            return False, "generic std->coord disagrees with closed form"
        sol = coord_to_std(m)
        if not sol.unique or sol.components != f:
            return False, "round trip lost components"
        if sol.components.comps != closed_forms.h_coord_to_std(m.mat):
            return False, "generic coord->std disagrees with closed form"
    return True, "100 round trips + closed forms, exact"


def check_nonrepresentable(rng: random.Random) -> tuple[bool, str]:
    try:
        coord_to_std(CoordMatrix.from_rows(COMPLEX, [[1, 0], [0, -1]]))
        return False, "complex conjugation was not rejected"
    except NotRepresentable:
        pass
    rank_c = big_c(COMPLEX).rank
    rank_h = big_c(H).rank
    if rank_c != 2 or rank_h != 16:
        return False, f"ranks {rank_c}/{rank_h}, expected 2/16"
    return True, "conjugation rejected; ranks 2 and 16"


def check_composition(rng: random.Random) -> tuple[bool, str]:
    for _ in range(100):
        f, g = _random_std(rng), _random_std(rng)
        if std_to_coord(compose_std(g, f)) != std_to_coord(g) @ std_to_coord(f):
            return False, "composition coordinates disagree"
    return True, "100 random pairs, exact"


def derivative_table_cases(rng: random.Random):
    """The point, direction and (map, closed form) rows of the derivative table."""
    x = _numeric_point(rng)
    h = _numeric_direction(rng)
    b, c = _numeric_direction(rng), _numeric_direction(rng)
    a = _numeric_direction(rng)
    xinv = inverse(x)
    square_df = mul(x, h) + mul(h, x)
    bfc = MapEvaluator.unary(H, lambda y: mul(mul(b, mul(y, y)), c))
    return x, h, [
        ("constant", maps.constant(b), H.zero),
        ("b*f(x)*c", bfc, mul(mul(b, square_df), c)),
        ("b*x*c", maps.two_sided(b, c), mul(mul(b, h), c)),
        ("x*b-b*x", maps.commutator(b), mul(h, b) - mul(b, h)),
        ("x^2", maps.square(H), square_df),
        ("x^-1", maps.invert(H), -mul(mul(xinv, h), xinv)),
        ("x*a*x^-1", maps.sandwich(a),
         mul(mul(h, a), xinv) - mul(mul(mul(mul(x, a), xinv), h), xinv)),
    ]


def derivative_table_residuals(rng: random.Random, points: int = 100):
    if points < 1:
        raise RangeError(f"need at least one point, got {points}")
    worst: dict[str, float] = {}
    for _ in range(points):
        x, h, rows = derivative_table_cases(rng)
        for name, evaluator, closed in rows:
            got = gateaux(evaluator, x, h)
            scale = max(1.0, norm_float(closed))
            residual = norm_float(got - closed.to_float()) / scale
            worst[name] = max(worst.get(name, 0.0), residual)
    return worst


def check_derivative_table(rng: random.Random) -> tuple[bool, str]:
    worst = derivative_table_residuals(rng, points=100)
    top = max(worst.values())
    return top <= 1e-8, f"max relative residual {top:.2e} over {len(worst)} identities"


def check_conjugation_differential(rng: random.Random) -> tuple[bool, str]:
    point = random_rational_element(rng)
    jac = jacobian(maps.conjugate(H), point)
    signs = (1.0, -1.0, -1.0, -1.0)
    gap = max(abs(v - (signs[i] if i == j else 0.0))
              for j, row in enumerate(jac) for i, v in enumerate(row))
    if gap > 1e-10:
        return False, f"Jacobian off by {gap:.2e}"
    sol = jacobian_std_components(H, jac)
    half = Fraction(-1, 2)
    expected = StdComponents.from_rows(
        H, [[half, 0, 0, 0], [0, half, 0, 0], [0, 0, half, 0], [0, 0, 0, half]]
    )
    if sol.components != expected:
        return False, "standard components are not -1/2 on the diagonal"
    reconstructed = std_components_to_word(sol.components)
    hsym = WordPoly.variable(H, "h")
    conjugation_form = hsym
    for u in (H.basis(1), H.basis(2), H.basis(3)):
        conjugation_form = conjugation_form + WordPoly.constant(u) * hsym * WordPoly.constant(u)
    conjugation_form = Fraction(-1, 2) * conjugation_form
    if not extensional_equal(reconstructed, conjugation_form):
        return False, "symbolic reconstruction mismatch"
    return True, f"Jacobian gap {gap:.1e}; components exact; symbolic match"


def check_norm_derivative(rng: random.Random) -> tuple[bool, str]:
    f = maps.norm_square(H)
    worst = 0.0
    for _ in range(100):
        x, h = random_rational_element(rng), random_rational_element(rng)
        closed = mul(conj(h), x) + mul(conj(x), h)
        if closed != mul(h, conj(x)) + mul(x, conj(h)):
            return False, "conjugate pairings disagree"
        got = gateaux(f, x, h)
        worst = max(
            worst,
            norm_float(got - closed.to_float()) / max(1.0, norm_float(closed)),
        )
    return worst <= 1e-8, f"max relative residual {worst:.2e}"


def check_embedding(rng: random.Random) -> tuple[bool, str]:
    for _ in range(100):
        a, b = random_rational_element(rng), random_rational_element(rng)
        if embed_matrix(a) @ embed_matrix(b) != embed_matrix(mul(a, b)):
            return False, f"J_a J_b != J_ab at {a}, {b}"
    return True, "100 random pairs, exact"


def _random_monomial(rng: random.Random, degree: int) -> NCPoly:
    coeffs = []
    for _ in range(degree + 1):
        while True:
            c = random_rational_element(rng)
            if not c.is_zero():
                break
        coeffs.append(c)
    return NCPoly(H, (Monomial(tuple(coeffs)),))


def check_polynomial_calculus(rng: random.Random) -> tuple[bool, str]:
    for _ in range(50):
        degree = rng.randint(1, 5)
        p = _random_monomial(rng, degree)
        chain = []
        w = p.to_words("x")
        for order in range(1, degree + 2):
            w = w.derivative("x", f"h{order}")
            chain.append(w)
        if not chain[degree].is_zero():
            return False, f"degree-{degree} monomial survived order {degree + 1}"
        diag = diagonal(chain[degree - 1], degree)
        if not extensional_equal(diag, math.factorial(degree) * p.to_words("h")):
            return False, "diagonal factorial identity failed"
        for order in range(1, degree):
            if not chain[order - 1].substitute_element("x", H.zero).is_zero():
                return False, "derivative at zero below degree is nonzero"
        for order in range(2, degree + 1):
            d = chain[order - 1]
            for i in range(1, order):
                swap = {f"h{i}": f"h{i + 1}", f"h{i + 1}": f"h{i}"}
                if d.terms != d.rename(swap).terms:
                    return False, "permutation symmetry not structural"
    return True, "50 monomials of degree <= 5, exact"


def check_chain_product_mixed(rng: random.Random) -> tuple[bool, str]:
    worst_rule = 0.0
    for _ in range(50):
        x = _numeric_point(rng)
        a = _numeric_direction(rng)
        # Nonzero b and c keep b*x*c invertible, so invert may follow it.
        b, c = _nonzero_direction(rng), _nonzero_direction(rng)
        family = [maps.square(H), maps.invert(H), maps.two_sided(b, c), maps.cube(H)]
        f = rng.choice(family)
        g = rng.choice(family)
        worst_rule = max(worst_rule, verify_product_rule(f, g, x, a))
        worst_rule = max(worst_rule, verify_chain_rule(g, f, x, a))
    if worst_rule > 1e-7:
        return False, f"rule residual {worst_rule:.2e}"
    worst_mixed = 0.0
    for _ in range(5):
        x = _numeric_point(rng)
        a1, a2 = _numeric_direction(rng), _numeric_direction(rng)
        worst_mixed = max(worst_mixed, mixed_partial_residual(maps.cube(H), x, a1, a2))
    if worst_mixed > 1e-6:
        return False, f"mixed-partial residual {worst_mixed:.2e}"
    return True, f"rules {worst_rule:.1e}; mixed partials {worst_mixed:.1e}"


def check_ode_suite(rng: random.Random) -> tuple[bool, str]:
    x = WordPoly.variable(H, "x")
    h = WordPoly.variable(H, "h")
    sol = solve_ode_taylor(OdeRhs(h * x * x + x * h * x + x * x * h), H.zero, H.zero)
    if not extensional_equal(sol.solution.to_words(), x**3):
        return False, "cubic equation missed x^3"
    terms = []
    rhs = WordPoly.zero(H)
    for _ in range(2):
        u, v = random_rational_element(rng), random_rational_element(rng)
        terms.append((u, v))
        rhs = rhs + WordPoly.constant(u) * h * WordPoly.constant(v)
    sol2 = solve_ode_taylor(OdeRhs(rhs), H.zero, H.zero)
    want = WordPoly.zero(H)
    for u, v in terms:
        want = want + WordPoly.constant(u) * x * WordPoly.constant(v)
    if not extensional_equal(sol2.solution.to_words(), want):
        return False, "component-sum equation missed its primitive"
    try:
        solve_ode_taylor(OdeRhs(3 * (h * x * x)), H.zero, H.zero)
        return False, "asymmetric right-hand side was accepted"
    except NoSolution:
        pass
    return True, "cubic, component-sum and obstruction cases agree"


def check_exponent(rng: random.Random) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(-3.0, 3.0)
        raw = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        scale = math.sqrt(sum(v * v for v in raw))
        u = H.element([0.0, *(v / scale for v in raw)])
        got = exp(theta * u, 1e-13)
        want = math.cos(theta) * H.one.to_float() + math.sin(theta) * u
        worst = max(worst, norm_float(got - want))
    if worst > 1e-12:
        return False, f"angle identity residual {worst:.2e}"
    gap_ij = exp_additivity_gap(H.basis(1), H.basis(2))
    if gap_ij <= 0.01:
        return False, f"gap(i, j) = {gap_ij:.4f} not positive enough"
    for a, b in [
        (H.basis(1), 2 * H.basis(1)),
        (H.scalar(Fraction(1, 2)), H.basis(3)),
        (H.zero, random_rational_element(rng)),
    ]:
        gap = exp_additivity_gap(a, b)
        if gap > 1e-10:
            return False, f"commuting pair gap {gap:.2e}"
    for n in range(1, 11):
        perms = exp_permutations(n)
        if len(perms) != 2**n or len({p.symbols for p in perms}) != 2**n:
            return False, f"order {n} does not have 2^n arrangements"
        if not all(p.satisfies_conditions() for p in perms):
            return False, f"order {n} violates the ordering conditions"
        diag = exp_derivative_diagonal(H, n)
        if diag.terms != (WordPoly.variable(H, "h") ** n).terms:
            return False, f"order-{n} diagonal is not h^{n}"
    return True, f"angle residual {worst:.1e}; gap(i,j) = {gap_ij:.3f}; 2^n counts"


def check_euler(rng: random.Random) -> tuple[bool, str]:
    r2 = euler_check(maps.square(H), 2, seed=rng.randint(0, 10**6))
    r3 = euler_check(maps.cube(H), 3, seed=rng.randint(0, 10**6))
    top = max(r2, r3)
    return top <= 1e-7, f"max relative residual {top:.2e}"


def check_dual_basis_twin(rng: random.Random) -> tuple[bool, str]:
    count = 0
    while count < 50:
        A = DMatrix(
            tuple(
                tuple(random_rational_element(rng) for _ in range(2)) for _ in range(2)
            )
        )
        try:
            B = dmatrix_inverse(A)
        except Singular:
            continue
        count += 1
        # dmatrix_inverse checked B @ A == I; the right inverse is the other half.
        if (A @ B) != DMatrix.identity(H, 2):
            return False, "dual basis does not right-invert"
    for _ in range(100):
        a, m, b = (random_rational_element(rng) for _ in range(3))
        v = random_rational_element(rng)
        if mul(mul(a, mul(v, m)), b) != mul(a, mul(mul(v, m), b)):
            return False, "twin associativity failed"
    return True, "50 inversions + 100 associativity triples, exact"


def check_negative_control(rng: random.Random) -> tuple[bool, str]:
    grid = [[list(v) for v in row] for row in H.structure]
    grid[1][2][3] = Fraction(2)  # corrupt i*j
    try:
        AlgebraSpec(
            name="corrupted",
            dim=4,
            structure=tuple(tuple(tuple(v) for v in row) for row in grid),
            conj_signs=(1, -1, -1, -1),
        )
        return False, "corrupted table was accepted"
    except AxiomViolated:
        return True, "corrupted table rejected at construction"


def _random_component_map(rng: random.Random, rows: int, cols: int) -> ComponentMap:
    """A map D^cols -> D^rows with one or two (u, v) pairs per cell."""
    return ComponentMap(H, tuple(
        tuple(tuple((random_rational_element(rng), random_rational_element(rng))
                    for _ in range(rng.randint(1, 2))) for _ in range(cols))
        for _ in range(rows)))


def _random_dvector(rng: random.Random) -> DVector:
    return DVector((random_rational_element(rng), random_rational_element(rng)))


def check_component_maps(rng: random.Random) -> tuple[bool, str]:
    for _ in range(10):
        A, B = _random_component_map(rng, 2, 2), _random_component_map(rng, 2, 2)
        v = _random_dvector(rng)
        if apply_component_map(compose_component_maps(B, A), v) != apply_component_map(
            B, apply_component_map(A, v)
        ):
            return False, "composed map differs from the maps applied in turn"
    for _ in range(10):
        M = _random_component_map(rng, 2, 2)
        a, b = random_rational_element(rng), random_rational_element(rng)
        v = _random_dvector(rng)
        inner = DVector(tuple(mul(mul(a, e), b) for e in v.entries))
        if apply_component_map(shift_components(M, a, b), v) != apply_component_map(M, inner):
            return False, "shifted components differ from x -> M(a*x*b)"
    for _ in range(10):
        M = _random_component_map(rng, 1, 1)
        # Column i of the coordinate matrix is M(e_i).
        cols = [apply_component_map(M, DVector((H.basis(i),)))[0].coords for i in range(4)]
        sol = coord_to_std(CoordMatrix.from_rows(H, list(zip(*cols))))
        if not sol.unique or component_sum_to_std(M) != sol.components:
            return False, "component sum disagrees with coord_to_std"
    return True, "10 compositions, 10 shifts, 10 std conversions, exact"


CHECKS: list[tuple[str, Callable[[random.Random], tuple[bool, str]]]] = [
    ("01-algebra-axioms", check_algebra_axioms),
    ("02-conversion-round-trip", check_conversion),
    ("03-nonrepresentable-rank", check_nonrepresentable),
    ("04-composition-coordinates", check_composition),
    ("05-derivative-table", check_derivative_table),
    ("06-conjugation-differential", check_conjugation_differential),
    ("07-norm-derivative", check_norm_derivative),
    ("08-matrix-embedding", check_embedding),
    ("09-polynomial-calculus", check_polynomial_calculus),
    ("10-chain-product-mixed", check_chain_product_mixed),
    ("11-ode-suite", check_ode_suite),
    ("12-exponent", check_exponent),
    ("13-euler-homogeneity", check_euler),
    ("14-dual-basis-twin", check_dual_basis_twin),
    ("15-negative-control", check_negative_control),
    ("16-component-maps", check_component_maps),
]


def run_check(name: str, seed: int = 42) -> CheckResult:
    fn = dict(CHECKS)[name]
    rng = random.Random(f"{seed}/{name}")
    start = time.perf_counter()
    try:
        passed, detail = fn(rng)
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(name=name, passed=passed, detail=detail, elapsed_ms=elapsed)


def run_verify_all(seed: int = 42) -> Report:
    results = [run_check(name, seed) for name, _ in sorted(CHECKS)]
    return Report(seed=seed, results=tuple(results))
