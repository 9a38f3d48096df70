"""Exact extensional equality and the order-2 ODE obstruction, against the
code they replaced and against evaluation at random rational points.

extensional_equal evaluates each homogeneous part of a difference on the
principal lattices of its degrees.  The oracle is Schwartz's lemma (J. ACM
27(4), 1980): a nonzero polynomial map of degree d vanishes at a point drawn
uniformly from S^N with probability at most d/|S|.  So an "equal" verdict
must agree at random rational points, and an "unequal" one must differ at one
of them.  The algebras are test_mul_kernels' strategy: H, C and E(a, b),
split algebras included.

Two references are the code this replaced.  The basis-binding equality is
sound only where every word of the difference holds every symbol exactly
once, and must agree with the new code there.  The ODE solver that checked
every adjacent swap at every order and reassembled the Taylor polynomial
about x0, run with the new equality, must raise the same error as the
homotopy solver; otherwise the homotopy solver's solution must equal the
reference's extensionally, in no more words.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_mul_kernels import algebras

from ncdr.algebra import mul
from ncdr.errors import AlgebraMismatch, DegreeTooLarge, NcdrError, NoSolution
from ncdr.ncpoly import (
    Const,
    Var,
    WordPoly,
    diagonal,
    extensional_equal,
    ncpoly_from_words,
    word_eval,
)
from ncdr.taylor import OdeRhs, TaylorSolution, solve_ode_taylor


def reference_extensional_equal(w1, w2):
    """The difference evaluated at every basis binding of its symbols."""
    if w1.alg != w2.alg:
        raise AlgebraMismatch("word polynomials over different algebras")
    diff = w1 - w2
    if diff.is_zero():
        return True
    symbols = sorted(diff.variables())
    if len(symbols) > 4:
        raise DegreeTooLarge(f"basis enumeration over {len(symbols)} symbols is not supported")
    alg = w1.alg
    for combo in itertools.product(range(alg.dim), repeat=len(symbols)):
        bindings = {s: alg.basis(i) for s, i in zip(symbols, combo)}
        if not word_eval(diff, bindings).is_zero():
            return False
    return True


def _swap(k, i):
    return {f"h{i}": f"h{i + 1}", f"h{i + 1}": f"h{i}"}


class OrderExceeded(NcdrError):
    """The reference's derivative chain did not vanish within max_order."""


def reference_solve_ode_taylor(rhs, x0, y0, max_order=16):
    """Every adjacent swap checked at every order, with the exact equality,
    and the solution reassembled from the diagonals at x0."""
    alg = x0.alg
    d = rhs.poly.rename({"h": "h1"})
    derivatives = [d]
    terminated = False
    order = 1
    while order < max_order:
        order += 1
        d = d.derivative("x", f"h{order}")
        for i in range(1, order):
            if not extensional_equal(d, d.rename(_swap(order, i))):
                raise NoSolution(f"derivative of order {order} is not symmetric in its directions")
        derivatives.append(d)
        if d.is_zero():
            terminated = True
            break
    if not terminated:
        raise OrderExceeded(f"no termination within {max_order} orders")
    diagonals = []
    in_h = []
    for k, dk in enumerate(derivatives, start=1):
        diag_k = diagonal(dk, k).substitute_element("x", x0)
        diagonals.append(diag_k)
        in_h += (Fraction(1, math.factorial(k)) * diag_k).terms
    shift = WordPoly.variable(alg, "x") - WordPoly.constant(x0)
    assembled = WordPoly.build(alg, in_h).substitute("h", shift) + WordPoly.constant(y0)
    if not extensional_equal(assembled.derivative("x", "h"), rhs.poly):
        raise NoSolution("assembled polynomial does not satisfy the equation")
    return TaylorSolution(x0, y0, ncpoly_from_words(assembled, "x"))


scalars = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def constants(alg):
    return st.lists(scalars, min_size=alg.dim, max_size=alg.dim).filter(any).map(alg.element)


@st.composite
def word_polys(draw, alg, symbols, max_len=4, max_terms=3):
    """A sum of words of constants and the symbols, each at most max_len long."""
    factor = st.one_of(st.sampled_from(symbols).map(Var), constants(alg).map(Const))
    raw = [
        (draw(scalars.filter(bool)), tuple(draw(st.lists(factor, max_size=max_len))))
        for _ in range(draw(st.integers(1, max_terms)))
    ]
    return WordPoly.build(alg, raw)


def split(w):
    """Each word's first constant c as the separate words of its basis parts c_r e_r."""
    alg = w.alg
    raw = []
    for coeff, word in w.terms:
        at = next((q for q, f in enumerate(word) if isinstance(f, Const)), None)
        if at is None:
            raw.append((coeff, word))
            continue
        for r, v in enumerate(word[at].value.coords):
            if v:
                part = Const(v * alg.basis(r))
                raw.append((coeff, word[:at] + (part,) + word[at + 1 :]))
    return WordPoly.build(alg, raw)


def reversed_words(w):
    return WordPoly.build(w.alg, [(c, word[::-1]) for c, word in w.terms])


def annihilator(alg):
    """(x - 1) times x^2 - s over the distinct squares s = e_r^2, r >= 1: zero
    at every basis element, but a nonzero real polynomial on real x."""
    x = WordPoly.variable(alg, "x")
    one = WordPoly.constant(alg.one)
    squares = []
    for r in range(1, alg.dim):
        square = mul(alg.basis(r), alg.basis(r))
        assert square == alg.scalar(square.coords[0])
        if square.coords[0] not in squares:
            squares.append(square.coords[0])
    z = x - one
    for s in squares:
        z = z * (x * x - s * one)
    return z


@st.composite
def pairs(draw):
    alg = draw(algebras)
    symbols = draw(st.sampled_from([("x",), ("x", "y")]))
    w1 = draw(word_polys(alg, symbols))
    kind = draw(st.sampled_from(["split", "reversed", "annihilator", "perturbed"]))
    if kind == "split":
        w2 = split(w1)
    elif kind == "reversed":
        w2 = reversed_words(w1)
    elif kind == "annihilator":
        w2 = w1 + annihilator(alg) * WordPoly.constant(draw(constants(alg)))
    else:
        w2 = w1 + draw(word_polys(alg, symbols, max_len=3, max_terms=1))
    return w1, w2, kind, draw(st.integers(0, 2**32))


def random_point(rng, alg):
    return alg.element(
        [Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3)) for _ in range(alg.dim)]
    )


@given(pairs())
@settings(max_examples=250, deadline=None)
def test_equality_agrees_with_random_points(case):
    w1, w2, kind, seed = case
    rng = random.Random(seed)
    symbols = w1.variables() | w2.variables()
    points = [{s: random_point(rng, w1.alg) for s in symbols} for _ in range(3)]
    differs = any(word_eval(w1, p) != word_eval(w2, p) for p in points)
    equal = extensional_equal(w1, w2)
    assert equal != differs
    if kind == "split":
        assert equal
    if kind == "annihilator":
        # Zero at every basis binding, so the reference calls it equal.
        assert not equal and reference_extensional_equal(w1, w2)


@st.composite
def multilinear_pairs(draw):
    """Pairs whose words all hold each of the same symbols exactly once."""
    alg = draw(algebras)
    symbols = draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")]))

    def word():
        factors = [Const(draw(constants(alg)))]
        for s in draw(st.permutations(symbols)):
            factors += [Var(s), Const(draw(constants(alg)))]
        return tuple(factors)

    w1 = WordPoly.build(alg, [(Fraction(1), word()) for _ in range(draw(st.integers(1, 3)))])
    kind = draw(st.sampled_from(["split", "reversed", "perturbed"]))
    if kind == "split":
        w2 = split(w1)
    elif kind == "reversed":
        w2 = reversed_words(w1)
    else:
        w2 = split(w1) + WordPoly.build(alg, [(draw(scalars.filter(bool)), word())])
    return w1, w2


@given(multilinear_pairs())
@settings(max_examples=150, deadline=None)
def test_equality_matches_reference_on_multilinear_words(case):
    w1, w2 = case
    assert extensional_equal(w1, w2) == reference_extensional_equal(w1, w2)


@st.composite
def ode_cases(draw):
    """F = dq(h) for a random q of degree <= 3, plus for some an obstruction
    a(hx - xh)b or a random word with one h."""
    alg = draw(algebras)
    q = draw(word_polys(alg, ("x",), max_len=5))
    rhs = q.derivative("x", "h")
    x, h = WordPoly.variable(alg, "x"), WordPoly.variable(alg, "h")
    kind = draw(st.sampled_from(["solvable", "obstructed", "random"]))
    if kind == "obstructed":
        a, b = (WordPoly.constant(draw(constants(alg))) for _ in range(2))
        rhs = rhs + a * (h * x - x * h) * b
    elif kind == "random":
        left = draw(word_polys(alg, ("x",), max_len=2, max_terms=1))
        right = draw(word_polys(alg, ("x",), max_len=2, max_terms=1))
        rhs = rhs + left * h * right
    x0, y0 = (alg.element(draw(st.lists(scalars, min_size=alg.dim, max_size=alg.dim)))
              for _ in range(2))
    return OdeRhs(rhs), x0, y0


def outcome(solver, rhs, x0, y0):
    try:
        return solver(rhs, x0, y0).solution.to_words()
    except NcdrError as exc:
        return type(exc)


@given(ode_cases())
@settings(max_examples=120, deadline=None)
def test_order_two_obstruction_matches_every_order(case):
    got = outcome(solve_ode_taylor, *case)
    want = outcome(reference_solve_ode_taylor, *case)
    if isinstance(want, WordPoly) and isinstance(got, WordPoly):
        assert extensional_equal(got, want)
        assert len(got.terms) <= len(want.terms)
    else:
        assert got == want
