"""Taylor re-expansion as one substitution, against the code it replaced.

taylor_poly substitutes x = h + y0 into p's words and sorts the words of the
result into terms by their count of h; eval_poly evaluates p's words.  The
references are the versions this replaced, kept unchanged: taylor_poly
walked the slot fillings of each monomial itself, asking _fill_slots for the
fillings bucketed by how many slots took h and building each bucket again,
and eval_poly ran its own left-to-right loop over the monomial form.  The
new code must return the same records, print the same terms and evaluate
to the same elements over H, C and E(a, b).
"""

from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mul_kernels import algebras

from ncdr.algebra import QUATERNIONS, mul
from ncdr.errors import AlgebraMismatch, DegreeTooLarge
from ncdr.ncpoly import (
    MAX_TAYLOR_WORDS,
    Const,
    Monomial,
    NCPoly,
    TaylorExpansion,
    Term,
    Var,
    WordPoly,
    Word,
    _extend,
    eval_poly,
    ncpoly_from_words,
    taylor_poly,
    word_eval,
)


def _fill_slots(alg, coeff: Fraction, segments: Sequence[Word], fills: Sequence[Term]):
    """Canonical terms of coeff g_0 s_1 g_1 ... s_n g_n over every filling.

    segments are the words g_0..g_n; each slot s_i takes in turn each term
    (c, w) of fills, which multiplies the coefficient by c.  Result m lists
    the fillings in which exactly m slots took fills[0].  Fillings that share
    a prefix share its fusion, so a word with n slots and two fills costs
    about 2^(n+1) constant products instead of n 2^n.
    """
    n = len(segments) - 1
    out: list[list[Term]] = [[] for _ in range(n + 1)]
    first = _extend(((), coeff), segments[0])
    stack = [(0, 0, first)] if first is not None else []
    while stack:
        i, m, (word, scale) = stack.pop()
        if i == n:
            out[m].append((scale, word or (Const(alg.one),)))
            continue
        for j, (c, w) in enumerate(fills):
            state = _extend((word, scale * c), w)
            if state is not None:
                state = _extend(state, segments[i + 1])
            if state is not None:
                stack.append((i + 1, m + (j == 0), state))
    return out


def reference_eval_poly(p, x):
    """Exact evaluation, left-to-right per monomial."""
    if x.alg != p.alg:
        raise AlgebraMismatch("point belongs to a different algebra")
    acc = p.alg.zero
    for m in p.monomials:
        value = m.coefficients[0]
        for c in m.coefficients[1:]:
            value = mul(mul(value, x), c)
        acc = acc + value
    return acc


def reference_taylor_poly(p, y0):
    """Taylor coefficients (k!)^{-1} d^k p(y0) on the diagonal direction.

    On the diagonal, the order-k polarization of a_0 x a_1 ... x a_n holds
    each k-subset of the n x-slots k! times, so term k is the sum over the
    C(n, k) subsets of the word with h in the chosen slots and y0 in the
    others.  The expansion terminates at deg p: a degree-n monomial has no
    subset of more than n slots.  DegreeTooLarge when the terms would hold
    more than MAX_TAYLOR_WORDS words in all, counted as the sum of 2^n.
    """
    alg = p.alg
    words = sum(2**m.degree for m in p.monomials)
    if words > MAX_TAYLOR_WORDS:
        raise DegreeTooLarge(
            f"Taylor expansion would build {words} words (limit {MAX_TAYLOR_WORDS})"
        )
    by_order: list[list[Term]] = [[] for _ in range(max(p.degree, 0) + 1)]
    fills = ((Fraction(1), (Var("h"),)), (Fraction(1), (Const(y0),)))
    for m in p.monomials:
        segments = [(Const(c),) for c in m.coefficients]
        for k, terms in enumerate(_fill_slots(alg, Fraction(1), segments, fills)):
            by_order[k] += terms
    terms = tuple(ncpoly_from_words(WordPoly.build(alg, raw), "h") for raw in by_order)
    return TaylorExpansion(base_point=y0, terms=terms)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def cases(draw):
    """p of degree <= 5 over H, C or E(a, b), a base point y0 and a point x."""
    alg = draw(algebras)

    def element(kinds):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return alg.zero
        if kind == "scalar":
            return alg.scalar(draw(small))
        if kind == "unit":
            sign = draw(st.sampled_from([-1, 1]))
            return sign * alg.basis(draw(st.integers(0, alg.dim - 1)))
        return alg.element([draw(small) for _ in range(alg.dim)])

    constant_kinds = ["zero", "scalar", "unit", "unit", "general", "general"]
    monos = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(0, 5))
        monos.append(Monomial(tuple(element(constant_kinds) for _ in range(degree + 1))))
    y0 = element(["zero", "scalar", "general"])
    x = element(["general"])
    return NCPoly(alg, tuple(monos)), y0, x


@given(cases())
@settings(max_examples=150, deadline=None)
def test_taylor_poly_matches_reference(case):
    p, y0, _ = case
    got, want = taylor_poly(p, y0), reference_taylor_poly(p, y0)
    assert got == want
    assert [str(t.to_words("h")) for t in got.terms] == [
        str(t.to_words("h")) for t in want.terms
    ]


@given(cases())
@settings(max_examples=150, deadline=None)
def test_eval_poly_matches_reference(case):
    p, y0, x = case
    for point in (x, y0):
        assert eval_poly(p, point) == reference_eval_poly(p, point)
    # Float points, as the CLI's poly: maps take them: evaluating the words
    # rounds bit for bit as the monomial form of the same words did.
    words = p.to_words("x")
    xf = x.to_float()
    got = word_eval(words, {"x": xf}).coords
    want = reference_eval_poly(ncpoly_from_words(words, "x"), xf).coords
    assert [v.hex() for v in map(float, got)] == [v.hex() for v in map(float, want)]


@pytest.mark.parametrize("expand", [taylor_poly, reference_taylor_poly])
def test_taylor_poly_refuses_what_the_reference_refuses(expand):
    # x^13 counts 2^13 words, two x^12 monomials 2^12 each.
    H = QUATERNIONS
    for degrees in ((13,), (12, 12)):
        p = NCPoly(H, tuple(Monomial((H.one,) * (n + 1)) for n in degrees))
        with pytest.raises(DegreeTooLarge):
            expand(p, H.one)
