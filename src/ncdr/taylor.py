"""ODE solving by the homotopy formula, and the exponent.

dy(h) = F(x; h), with F linear in h, is solvable exactly when the second
derivative of F is symmetric in its two directions (the Poincare lemma on
R^n); then y(x) = y0 + P(x) - P(x0) with P(x) the integral over t in [0, 1]
of F(tx; x) (Spivak, Calculus on Manifolds, 1965, Thm 4-11), exact word by
word.  The exponent is the everywhere-convergent series sum x^n/n!, by
scaling and squaring; additivity exp(a+b) = exp(a) exp(b) holds exactly when
a and b commute, and the gap is measurable otherwise.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraSpec, Element, mul, norm_float
from .errors import NoSolution, ParseError, RangeError
from .gateaux import MapEvaluator, gateaux
from .ncpoly import (
    Const,
    NCPoly,
    Var,
    WordPoly,
    extensional_equal,
    ncpoly_from_words,
    word_eval,
)


@dataclass(frozen=True)
class OdeRhs:
    """Right-hand side of dy(h) = F(x; h): every word is degree 1 in h."""

    poly: WordPoly

    def __post_init__(self) -> None:
        if not self.poly.variables() <= {"x", "h"}:
            raise ParseError("right-hand side may use only the symbols x and h")
        h = Var("h")
        for _, word in self.poly.terms:
            if word.count(h) != 1:
                raise ParseError("each word must contain the direction h exactly once")


@dataclass(frozen=True)
class TaylorSolution:
    """The solution y(x) of dy(h) = F(x; h) with y(x0) = y0."""

    x0: Element
    y0: Element
    solution: NCPoly


def solve_ode_taylor(rhs: OdeRhs, x0: Element, y0: Element) -> TaylorSolution:
    """Integrate dy(h) = F(x; h) by the homotopy formula, y(x0) = y0.

    A word of F with n x-slots is t^n times itself with h = x at (tx; x), so
    it integrates over t in [0, 1] to 1/(n+1) times that word.  The
    integral's derivative is F exactly when dF is symmetric, so one exact
    check decides: NoSolution when it is not F.
    """
    poly = rhs.poly
    words = tuple((c / (w.count(Var("x")) + 1), w) for c, w in poly.terms)
    integral = WordPoly(poly.alg, words).rename({"h": "x"})
    solution = integral + WordPoly.constant(y0 - word_eval(integral, {"x": x0}))
    if not extensional_equal(solution.derivative("x", "h"), poly):
        raise NoSolution("integrated polynomial does not satisfy the equation")
    return TaylorSolution(x0=x0, y0=y0, solution=ncpoly_from_words(solution, "x"))


def exp(x: Element, tol: float = 1e-12) -> Element:
    """Exponent sum x^n/n! by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26(4) 2005).

    x is halved s times to y with |y| <= 1, the series of y is summed until
    its tail bound |y|^{N+1} e^{|y|} / (N+1)! falls below tol / 2^{s+1}
    relative to e^{-|y|} <= |exp(y)|, and the sum is squared s times; each
    squaring at most doubles a relative error, to first order.  Where the
    coordinate norm is multiplicative (H, C) this keeps the truncation error
    within tol/2 of |exp(x)|.  Rounding in the squarings is estimated at
    2^{s+1} m u (u the unit roundoff, m the most products summed into one
    coordinate); RangeError is raised when that estimate exceeds tol/2, when
    tol is not finite and positive, and when the result overflows floats.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise RangeError(f"tolerance must be finite and positive, got {tol!r}")
    x = x.to_float()
    r = norm_float(x)
    if not math.isfinite(r):
        raise RangeError(f"exp needs a finite argument, got |x| = {r!r}")
    s = max(0, math.ceil(math.log2(r))) if r > 1 else 0
    m = max(Counter(p for _, _, p, _ in x.alg._nonzero_triples).values())
    unit_roundoff = sys.float_info.epsilon / 2
    # 2^{s+1} m u > tol/2, compared in log2 so that a huge s cannot overflow.
    if s + 1 + math.log2(m * unit_roundoff) > math.log2(tol / 2):
        raise RangeError(f"exp at |x| = {r:.6g} cannot meet tol {tol:.3g} in floats")
    y = x * 0.5**s
    r = r * 0.5**s
    target = tol / 2 ** (s + 1) * math.exp(-r)
    acc = x.alg.one.to_float()
    term = acc
    n = 0
    bound = r * math.exp(r)  # tail after the n = 0 partial sum
    # r <= 1, so the bound falls faster than 1/n! and the loop ends.
    while bound > target:
        n += 1
        term = mul(term, y) * (1.0 / n)
        acc = acc + term
        bound = bound * r / (n + 1)
    for _ in range(s):
        acc = mul(acc, acc)
    if not all(map(math.isfinite, acc.coords)):
        raise RangeError(f"exp overflows the float range at |x| = {norm_float(x):.6g}")
    return acc


def exp_additivity_gap(a: Element, b: Element, tol: float = 1e-12) -> float:
    """|exp(a+b) - exp(a) exp(b)|; vanishes exactly when ab = ba."""
    return norm_float(exp(a + b, tol) - mul(exp(a, tol), exp(b, tol)))


@dataclass(frozen=True)
class ExpPermutation:
    """An arrangement of (y, h_1..h_n) reachable by attaching each next h
    immediately left or right of y; indices increase toward y on both sides."""

    symbols: tuple[str, ...]

    def satisfies_conditions(self) -> bool:
        pos_y = self.symbols.index("y")
        left = [int(s[1:]) for s in self.symbols[:pos_y]]
        right = [int(s[1:]) for s in self.symbols[pos_y + 1 :]]
        return left == sorted(left) and right == sorted(right, reverse=True)


def exp_permutations(n: int) -> list[ExpPermutation]:
    """All 2^n arrangements behind the order-n derivative of the exponent."""
    if not 1 <= n <= 12:
        raise RangeError("supported orders are 1..12")
    arrangements: list[tuple[str, ...]] = [("y",)]
    for q in range(1, n + 1):
        h = f"h{q}"
        grown = []
        for arr in arrangements:
            at = arr.index("y")
            grown.append(arr[:at] + (h,) + arr[at:])
            grown.append(arr[: at + 1] + (h,) + arr[at + 1 :])
        arrangements = grown
    return [ExpPermutation(a) for a in arrangements]


def exp_derivative_diagonal(alg: AlgebraSpec, n: int) -> WordPoly:
    """(1/2^n) sum over the arrangements, at y = 1 and all h_i = h."""
    perms = exp_permutations(n)
    raw = []
    for p in perms:
        word = tuple(
            Const(alg.one) if s == "y" else Var("h") for s in p.symbols
        )
        raw.append((Fraction(1, 2**n), word))
    return WordPoly.build(alg, raw)


def euler_check(f: MapEvaluator, k: int, seed: int = 0) -> float:
    """Max relative residual of df(v)(v) = k f(v) over 20 random points."""
    rng = random.Random(seed)
    alg = f.alg
    worst = 0.0
    for _ in range(20):
        v = alg.element([rng.uniform(0.5, 2.0) * rng.choice([-1, 1]) for _ in range(alg.dim)])
        fv = f(v)
        residual = norm_float(gateaux(f, v, v) - k * fv)
        worst = max(worst, residual / max(norm_float(fv), 1e-9))
    return worst
