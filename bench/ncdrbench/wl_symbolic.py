"""symbolic-poly: ncpoly, taylor and parsing over H; no floats.

Why: this is where _canonical/rename cost and factorial polarization live.
Degree-6 ops are 4% of the deck, which puts latency_tail_ms inside that mode,
so multiset polarization should move the tail far more than latency_p50_ms.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ncdr import algebra, ncpoly, parsing, taylor
from ncdr.errors import NoSolution
from ncdr.ncpoly import Const, Monomial, NCPoly, Var, WordPoly

from . import draws
from .harness import Case, OpType, Workload

H = algebra.QUATERNIONS


def _monomial(rng: random.Random, degree: int) -> Monomial:
    return Monomial(tuple(draws.nonzero_element(rng, H) for _ in range(degree + 1)))


def _poly(rng: random.Random, degree: int, kind: str) -> NCPoly:
    """A monomial of the degree, or ("sum2") that plus one of degree 1..degree."""
    monos = [_monomial(rng, degree)]
    if kind == "sum2":
        monos.append(_monomial(rng, rng.randint(1, degree)))
    return NCPoly(H, tuple(monos))


def _chain(rng: random.Random, variant) -> Case:
    degree, kind = variant
    p = _poly(rng, degree, kind)
    top = NCPoly(H, tuple(m for m in p.monomials if m.degree == degree))
    low = min(m.degree for m in p.monomials)

    def run():
        chain = []
        w = p.to_words("x")
        for order in range(1, degree + 2):
            w = w.derivative("x", f"h{order}")
            chain.append(w)
        vanishes = chain[degree].is_zero()
        diag = ncpoly.diagonal(chain[degree - 1], degree)
        factorial = ncpoly.extensional_equal(diag, math.factorial(degree) * top.to_words("h"))
        zero_at_origin = all(
            chain[order - 1].substitute_element("x", H.zero).is_zero() for order in range(1, low)
        )
        symmetric = all(
            chain[order - 1].terms
            == chain[order - 1].rename({f"h{i}": f"h{i + 1}", f"h{i + 1}": f"h{i}"}).terms
            for order in range(2, degree + 1)
            for i in range(1, order)
        )
        return vanishes, factorial, zero_at_origin, symmetric

    def check(out, exc):
        return exc is None and all(out), None

    return Case(run, check, {"degree": degree, "kind": kind})


def _taylor(rng: random.Random, degree: int) -> Case:
    p = _poly(rng, degree, "mono")
    y0 = draws.element(rng, H)

    def run():
        return ncpoly.taylor_poly(p, y0).reconstruct()

    def check(back, exc):
        return exc is None and ncpoly.extensional_equal(back.to_words(), p.to_words()), None

    return Case(run, check, {"degree": degree})


def _word(*factors) -> WordPoly:
    """Product of the factors in order; algebra elements enter as constants."""
    out = WordPoly.constant(H.one)
    for f in factors:
        out = out * (f if isinstance(f, WordPoly) else WordPoly.constant(f))
    return out


def _ode(rng: random.Random, variant) -> Case:
    kind, degree = variant
    q = _poly(rng, degree, "sum2" if degree > 1 else "mono")
    x0, y0 = draws.element(rng, H), draws.element(rng, H)
    rhs = ncpoly.sym_derivative(q, 1).rename({"h1": "h"})
    if kind == "obstructed":
        # a(hx - xh)b has an antisymmetric nonzero second derivative, so the
        # sum is not the derivative of any polynomial.
        a, b = draws.nonzero_element(rng, H), draws.nonzero_element(rng, H)
        x, h = WordPoly.variable(H, "x"), WordPoly.variable(H, "h")
        rhs = rhs + _word(a, h * x - x * h, b)

    def run():
        return taylor.solve_ode_taylor(taylor.OdeRhs(rhs), x0, y0)

    def check(sol, exc):
        if isinstance(exc, NoSolution):
            return kind == "obstructed", None
        if exc is not None or kind == "obstructed":
            return False, None
        want = q.to_words() + WordPoly.constant(y0 - ncpoly.eval_poly(q, x0))
        return ncpoly.extensional_equal(sol.solution.to_words(), want), None

    return Case(run, check, {"kind": kind, "degree": degree})


def _exteq(rng: random.Random, kind: str) -> Case:
    c, d, e, f = (draws.nonzero_element(rng, H) for _ in range(4))
    x, h = WordPoly.variable(H, "x"), WordPoly.variable(H, "h")
    first, second = _word(c, x, d, h, e), _word(f, h, x)
    w1 = first + second
    if kind == "formal":
        w2 = second + first
    elif kind == "split":
        # c split into its basis parts: formally different words, equal maps,
        # so equality is decided by enumerating basis bindings.
        parts = WordPoly.build(
            H,
            [
                (Fraction(1), (Const(H.basis(r) * c.coords[r]), Var("x"), Const(d), Var("h"), Const(e)))
                for r in range(4)
                if c.coords[r]
            ],
        )
        w2 = parts + second
    else:
        w2 = _word(c + H.basis(1), x, d, h, e) + second

    def run():
        return ncpoly.extensional_equal(w1, w2)

    def check(equal, exc):
        return exc is None and equal == (kind != "unequal"), None

    return Case(run, check, {"kind": kind})


def _element_text(e) -> str:
    units = ("", "*i", "*j", "*k")
    return "(" + " + ".join(f"{c}{u}" for c, u in zip(e.coords, units)) + ")"


def poly_text(p: NCPoly) -> str:
    """Render in the parser's syntax; runs of x between unit factors become powers."""
    chunks = []
    for m in p.monomials:
        parts = [_element_text(m.coefficients[0])]
        run_len = 0
        for coeff in m.coefficients[1:]:
            run_len += 1
            if coeff == H.one:
                continue
            parts.append("x" if run_len == 1 else f"x^{run_len}")
            parts.append(_element_text(coeff))
            run_len = 0
        if run_len:
            parts.append("x" if run_len == 1 else f"x^{run_len}")
        chunks.append("*".join(parts))
    return " + ".join(chunks)


def _parse(rng: random.Random, _variant) -> Case:
    monos = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [draws.nonzero_element(rng, H) for _ in range(rng.randint(2, 4))]
        # Unit factors between x's exercise the power syntax.
        coeffs[1:-1] = [H.one if rng.random() < 0.5 else c for c in coeffs[1:-1]]
        monos.append(Monomial(tuple(coeffs)))
    q = NCPoly(H, tuple(monos))
    text = poly_text(q)

    def run():
        return parsing.parse_ncpoly(H, text)

    def check(p, exc):
        return exc is None and ncpoly.extensional_equal(p.to_words(), q.to_words()), None

    return Case(run, check, {"terms": len(monos)})


# Deck of 100.  About a third of the ops take under 1.5 ms; degree-3 monomial
# chains (a tight 1.6-2.1 ms mode) fill the next quarter, so the median
# always lands inside one homogeneous op type instead of between modes.
_CHAIN_VARIANTS = (
    ((1, "mono"),) * 4 + ((1, "sum2"),) * 2
    + ((2, "mono"),) * 5 + ((2, "sum2"),) * 2
    + ((3, "mono"),) * 24 + ((3, "sum2"),) * 1
    + ((4, "mono"),) * 3 + ((4, "sum2"),) * 1
    + ((5, "mono"),) * 1 + ((5, "sum2"),) * 1
    + ((6, "mono"),) * 1
)
_TAYLOR_VARIANTS = (1,) * 10 + (2,) * 3 + (3,) * 3 + (4,) * 3 + (5,) * 3 + (6,) * 3
_ODE_VARIANTS = (
    (("symmetric", 1),) * 4 + (("symmetric", 2),) * 4 + (("symmetric", 3),) * 2
    + (("obstructed", 2),) * 3 + (("obstructed", 3),) * 2
)

WORKLOAD = Workload(
    name="symbolic-poly",
    ops=(
        OpType("chain", _chain, _CHAIN_VARIANTS),
        OpType("taylor", _taylor, _TAYLOR_VARIANTS),
        OpType("ode", _ode, _ODE_VARIANTS),
        OpType("exteq", _exteq, ("formal",) * 3 + ("split",) * 3 + ("unequal",) * 4),
        OpType("parse", _parse, (None,) * 5),
    ),
)
