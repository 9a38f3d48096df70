"""Symbolic polynomial calculus: polarization derivatives and Taylor forms."""

import contextlib
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mul_kernels import kernel_algebras
from test_taylor_reference import _extend as eager_extend

from ncdr import maps, ncpoly
from ncdr.algebra import (
    COMPLEX,
    QUATERNIONS,
    Element,
    make_quaternion_algebra,
    mul,
    norm_float,
)
from ncdr.errors import AlgebraMismatch, DegreeTooLarge, RangeError, UnboundSymbol
from ncdr.gateaux import gateaux
from ncdr.ncpoly import (
    MAX_DERIVATIVE_WORDS,
    MAX_PRODUCT_WORDS,
    MAX_TAYLOR_WORDS,
    Const,
    Monomial,
    NCPoly,
    TaylorExpansion,
    Var,
    WordPoly,
    diagonal,
    eval_poly,
    extensional_equal,
    ncpoly_from_words,
    sym_derivative,
    taylor_poly,
    word_eval,
)
from ncdr.parsing import parse_ncpoly, parse_word_poly

H = QUATERNIONS
ONE, I, J, K = (H.basis(n) for n in range(4))


def poly(text):
    return parse_ncpoly(H, text)


def concat(*polys):
    """The record holding every monomial of polys, in order and unmerged."""
    return NCPoly(H, sum((p.monomials for p in polys), ()))


def wp_var(name):
    return WordPoly.variable(H, name)


def random_element(rng):
    return H.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])


def random_monomial(rng, degree):
    coeffs = []
    for _ in range(degree + 1):
        while True:
            c = random_element(rng)
            if not c.is_zero():
                break
        coeffs.append(c)
    return NCPoly(H, (Monomial(tuple(coeffs)),))


def test_eval_poly():
    assert eval_poly(poly("x^3"), I) == -I
    c = H.element([2, 0, 1, 0])
    assert eval_poly(NCPoly(H, (Monomial((c,)),)), J) == c
    p = poly("i*x*k")
    assert eval_poly(p, J) == H.scalar(-1)


def test_sym_derivative_square():
    d = sym_derivative(poly("x^2"), 1)
    want = wp_var("x") * wp_var("h1") + wp_var("h1") * wp_var("x")
    assert d.terms == want.terms


def test_sym_derivative_cube_third_order():
    d = sym_derivative(poly("x^3"), 3)
    expected = WordPoly.zero(H)
    for p in itertools.permutations(["h1", "h2", "h3"]):
        term = wp_var(p[0]) * wp_var(p[1]) * wp_var(p[2])
        expected = expected + term
    assert d.terms == expected.terms


def test_sym_derivative_square_second_order():
    d = sym_derivative(poly("x^2"), 2)
    want = wp_var("h1") * wp_var("h2") + wp_var("h2") * wp_var("h1")
    assert d.terms == want.terms


def test_word_eval():
    w = wp_var("x") * wp_var("h") + wp_var("h") * wp_var("x")
    assert word_eval(w, {"x": ONE, "h": J}) == 2 * J
    third = sym_derivative(poly("x^3"), 3)
    bound = word_eval(third.rename({"h1": "h", "h2": "h", "h3": "h"}), {"h": I + J})
    assert bound == 6 * eval_poly(poly("x^3"), I + J)
    assert word_eval(WordPoly.zero(H), {}).is_zero()
    with pytest.raises(UnboundSymbol):
        word_eval(w, {"x": ONE})


def test_extensional_equal():
    xh_hx = wp_var("x") * wp_var("h") + wp_var("h") * wp_var("x")
    hx_xh = wp_var("h") * wp_var("x") + wp_var("x") * wp_var("h")
    assert extensional_equal(xh_hx, hx_xh)
    assert not extensional_equal(wp_var("x") * wp_var("h"), wp_var("h") * wp_var("x"))


def test_extensional_equal_conjugation_form():
    # -(1/2)(h + ihi + jhj + khk) agrees with the conjugation map pointwise.
    h = wp_var("h")
    w = h
    for u in (I, J, K):
        w = w + WordPoly.constant(u) * h * WordPoly.constant(u)
    w = Fraction(-1, 2) * w
    for b in range(4):
        e = H.basis(b)
        assert word_eval(w, {"h": e}) == e.conj()


def test_extensional_guard(monkeypatch):
    # Five symbols are no longer refused: 4^5 basis bindings decide them.
    w = wp_var("a") * wp_var("b") * wp_var("c") * wp_var("d") * wp_var("e")
    assert not extensional_equal(w, WordPoly.zero(H))
    split = WordPoly.constant(ONE) * w + WordPoly.constant(I) * w
    assert extensional_equal(WordPoly.constant(ONE + I) * w, split)
    # The guard counts the products taken as the bindings run: an equal pair
    # past it raises, an unequal one returns at its first witness.
    monkeypatch.setattr(ncpoly, "_MAX_EVAL_PRODUCTS", 100)
    with pytest.raises(DegreeTooLarge):
        extensional_equal(WordPoly.constant(ONE + I) * w, split)
    assert not extensional_equal(w, WordPoly.zero(H))


def test_extensional_equal_is_exact_off_the_basis():
    # Each difference vanishes at every basis binding but is not zero.
    assert not extensional_equal(poly("x^3 - x^2 + x - 1").to_words(), WordPoly.zero(H))
    C = COMPLEX
    assert not extensional_equal(parse_word_poly(C, "x^4 - 1"), WordPoly.zero(C))
    # s(x) - 1, s the sum of x's coordinates: coordinate r is Re(e_r^-1 x),
    # and Re(y) = (y - iyi - jyj - kyk)/4.
    x = wp_var("x")
    s = WordPoly.zero(H)
    for e in (ONE, I, J, K):
        y = WordPoly.constant(e.inverse()) * x
        for u in (I, J, K):
            y = y - WordPoly.constant(u) * WordPoly.constant(e.inverse()) * x * WordPoly.constant(u)
        s = s + Fraction(1, 4) * y
    affine = s - WordPoly.constant(ONE)
    assert len(affine.terms) == 17
    assert word_eval(affine, {"x": H.zero}) == -ONE
    assert not extensional_equal(affine, WordPoly.zero(H))
    ixix = parse_word_poly(H, "i*x*i*x - x*i*x*i")
    at = H.element([Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7), Fraction(3, 2)])
    assert word_eval(ixix, {"x": at}) == H.element([0, 0, Fraction(12, 5), Fraction(8, 35)])
    assert not extensional_equal(ixix, WordPoly.zero(H))


def test_split_equality_evaluates_sixteen_bindings(monkeypatch):
    # The benchmark's split pair: c x d h e + f h x against c split into its
    # basis parts.  Multilinear, so its lattices are the bases: the 4 x 4
    # basis bindings, in the order the basis enumeration took them.
    rng = random.Random(5)
    c, d, e, f = (random_element(rng) + ONE for _ in range(4))
    x, h = wp_var("x"), wp_var("h")
    second = WordPoly.constant(f) * h * x
    w1 = WordPoly.constant(c) * x * WordPoly.constant(d) * h * WordPoly.constant(e) + second
    parts = WordPoly.build(H, [
        (Fraction(1), (Const(H.basis(r) * c.coords[r]), Var("x"), Const(d), Var("h"), Const(e)))
        for r in range(4) if c.coords[r]
    ])
    assert len(parts.terms) > 1
    calls = []
    real = ncpoly._eval_plan
    monkeypatch.setattr(ncpoly, "_eval_plan", lambda a, p, b: calls.append(b) or real(a, p, b))
    assert extensional_equal(w1, parts + second)
    assert calls == [{"h": H.basis(i), "x": H.basis(j)} for i in range(4) for j in range(4)]


def conj_form(w):
    """-(1/2)(w + iwi + jwj + kwk), conjugation applied to w's values."""
    total = w
    for u in (I, J, K):
        total = total + WordPoly.constant(u) * w * WordPoly.constant(u)
    return Fraction(-1, 2) * total


@pytest.mark.parametrize("n", [4, 5])
def test_conj_power_is_decided_within_the_guard(n):
    # One group of 4^n words; at n = 5 its 56 lattice points take 176,456
    # products, inside the guard.
    x = wp_var("x")
    assert extensional_equal(conj_form(x) ** n, conj_form(x**n))
    assert not extensional_equal(conj_form(x) ** n, conj_form(x) ** (n - 1) * x)


def symmetry(w, names):
    """Symmetric, skew or neither in the symbols names, from their adjacent
    transpositions: they generate every permutation, and each has sign -1."""
    swapped = [w.rename({a: b, b: a}) for a, b in zip(names, names[1:])]
    if all(extensional_equal(w, s) for s in swapped):
        return "symmetric"
    if all(extensional_equal(w, -s) for s in swapped):
        return "skew"
    return "neither"


def test_symmetry_of_bilinear_words():
    h1, h2 = wp_var("h1"), wp_var("h2")
    assert symmetry(h1 * h2 + h2 * h1, ["h1", "h2"]) == "symmetric"
    assert symmetry(h1 * h2 - h2 * h1, ["h1", "h2"]) == "skew"
    assert symmetry(h1 * h2, ["h1", "h2"]) == "neither"
    # Re(h1 h2) = (y + conj y)/2 at y = h1 h2 is symmetric as a map but not
    # as words, so the lattice points decide it, not the formal match.
    re = Fraction(1, 2) * (h1 * h2 + conj_form(h1 * h2))
    assert re.terms != re.rename({"h1": "h2", "h2": "h1"}).terms
    assert symmetry(re, ["h1", "h2"]) == "symmetric"
    assert symmetry(re - h1 * h2, ["h1", "h2"]) == "neither"


def test_symmetry_of_trilinear_words_with_noncentral_constants():
    # a h_s1 b h_s2 c h_s3 summed over the permutations s, unsigned and signed.
    a, b, c = ONE + I, J - 2 * K, Fraction(1, 2) * I + K
    names = ["h1", "h2", "h3"]

    def form(signed, first=a):
        raw = []
        for n, perm in enumerate(itertools.permutations(range(3))):
            inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
            coeff = Fraction((-1) ** inversions if signed else 1)
            consts = (first if n == 0 else a, b, c)
            raw.append((coeff, tuple(
                f for k, s in zip(consts, perm) for f in (Const(k), Var(names[s]))
            )))
        return WordPoly.build(H, raw)

    assert symmetry(form(False), names) == "symmetric"
    assert symmetry(form(True), names) == "skew"
    # One word's constant changed leaves it neither.
    assert symmetry(form(False, first=a + J), names) == "neither"
    assert symmetry(form(True, first=a + J), names) == "neither"


@pytest.mark.parametrize("op", [
    lambda x, c: x + c,
    lambda x, c: x - c,
    lambda x, c: x * c,
    lambda x, c: c * x,
    lambda x, c: x.substitute("x", c),
    lambda x, c: x.substitute("x", WordPoly.zero(c.alg)),
])
def test_word_poly_operations_reject_other_algebras(op):
    # x + (0+1i) over H would print as a polynomial of H holding a C constant.
    with pytest.raises(AlgebraMismatch):
        op(wp_var("x"), WordPoly.constant(COMPLEX.basis(1)))


def test_taylor_poly_rejects_base_point_of_other_algebra():
    with pytest.raises(AlgebraMismatch):
        taylor_poly(poly("x^2"), COMPLEX.basis(1))
    with pytest.raises(AlgebraMismatch):
        eval_poly(poly("x^2"), COMPLEX.basis(1))


def test_vanishing_above_degree():
    rng = random.Random(3)
    for degree in range(6):
        p = random_monomial(rng, degree)
        assert sym_derivative(p, degree + 1).is_zero()


def test_diagonal_factorial():
    rng = random.Random(5)
    for degree in range(1, 6):
        p = random_monomial(rng, degree)
        d = diagonal(sym_derivative(p, degree), degree)
        target = math.factorial(degree) * p.to_words("h")
        assert extensional_equal(d, target)


def test_derivative_at_zero_below_degree():
    rng = random.Random(7)
    for degree in range(2, 6):
        p = random_monomial(rng, degree)
        for order in range(1, degree):
            at0 = sym_derivative(p, order).substitute_element("x", H.zero)
            assert at0.is_zero()


def test_permutation_symmetry_is_structural():
    rng = random.Random(9)
    for degree in range(2, 6):
        p = random_monomial(rng, degree)
        for order in range(2, degree + 1):
            d = sym_derivative(p, order)
            swapped = d.rename({"h1": "h2", "h2": "h1"})
            assert d.terms == swapped.terms


def test_numeric_symbolic_agreement():
    rng = random.Random(11)
    p = poly("x^2 + i*x*j - k + x^3")
    f = maps.MapEvaluator.unary(H, lambda x: eval_poly(p, x))
    d1 = sym_derivative(p, 1)
    for _ in range(10):
        x, h = random_element(rng), random_element(rng)
        sym = word_eval(d1, {"x": x, "h1": h})
        num = gateaux(f, x, h)
        assert norm_float(num - sym.to_float()) <= 1e-8 * max(1.0, norm_float(sym))


def test_taylor_poly_about_zero():
    t = taylor_poly(poly("x^2"), H.zero)
    rebuilt = t.reconstruct()
    assert extensional_equal(rebuilt.to_words(), poly("x^2").to_words())


def test_taylor_poly_about_point():
    c = H.element([1, -2, 3, Fraction(1, 2)])
    t = taylor_poly(poly("x^2"), c)
    # Terms: c^2, c h + h c, h^2.
    assert eval_poly(t.terms[0], H.zero) == mul(c, c)
    h = random_element(random.Random(13))
    assert eval_poly(t.terms[1], h) == mul(c, h) + mul(h, c)
    assert eval_poly(t.terms[2], h) == mul(h, h)
    assert extensional_equal(t.reconstruct().to_words(), poly("x^2").to_words())


def test_taylor_degree_bound():
    rng = random.Random(15)
    p = concat(random_monomial(rng, 4), random_monomial(rng, 2))
    t = taylor_poly(p, random_element(rng))
    assert len(t.terms) == p.degree + 1
    assert extensional_equal(t.reconstruct().to_words(), p.to_words())


def test_infinitesimal_order():
    # A zero of multiplicity n+1 makes p(x0 + t h) vanish to order > n.
    rng = random.Random(17)
    x0 = random_element(rng)
    h = random_element(rng)
    shifted = wp_var("x") - WordPoly.constant(x0)
    for zeros, expect_order in ((2, 2.0), (3, 3.0)):
        p = ncpoly_from_words(shifted**zeros)
        assert eval_poly(p, x0).is_zero()
        for vanished in range(1, zeros):
            dk = sym_derivative(p, vanished).substitute_element("x", x0)
            assert word_eval(
                dk, {f"h{q}": h for q in range(1, vanished + 1)}
            ).is_zero()
        ts = [1e-2 / 2**k for k in range(8)]
        values = [
            norm_float(eval_poly(p, x0.to_float() + t * h.to_float())) for t in ts
        ]
        slopes = [
            math.log(values[k] / values[k + 1]) / math.log(2.0)
            for k in range(len(ts) - 1)
        ]
        assert min(slopes) >= expect_order - 0.05


def test_ncpoly_word_round_trip():
    rng = random.Random(19)
    p = concat(random_monomial(rng, 3), random_monomial(rng, 1))
    again = ncpoly_from_words(p.to_words(), "x")
    assert extensional_equal(again.to_words(), p.to_words())
    x = random_element(rng)
    assert eval_poly(again, x) == eval_poly(p, x)


def _raw_word_eval(terms, bindings):
    # Term-by-term oracle that never goes through canonicalization.
    from ncdr.ncpoly import Var

    total = H.zero
    for coeff, word in terms:
        value = H.one
        for f in word:
            value = mul(value, bindings[f.name] if isinstance(f, Var) else f.value)
        total = total + coeff * value
    return total


def test_canonicalization_preserves_value():
    # Fusing constants, folding central scalars and merging words must not
    # change the evaluated function.
    from fractions import Fraction as F

    from ncdr.ncpoly import Const, Var, WordPoly

    rng = random.Random(23)
    for _ in range(40):
        raw = []
        for _ in range(rng.randint(1, 5)):
            word = []
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.45:
                    word.append(Var(rng.choice(["x", "h"])))
                elif rng.random() < 0.3:
                    word.append(Const(H.scalar(F(rng.randint(-3, 3)))))
                else:
                    word.append(Const(random_element(rng)))
            raw.append((F(rng.randint(-3, 3), rng.randint(1, 3)), tuple(word)))
        built = WordPoly.build(H, raw)
        for _ in range(5):
            bindings = {"x": random_element(rng), "h": random_element(rng)}
            assert word_eval(built, bindings) == _raw_word_eval(raw, bindings)


def test_ncpoly_arithmetic_is_pointwise():
    # WordPoly is the polynomial algebra: its sums, products, negation and
    # powers evaluate like the same operations on the values.
    rng = random.Random(29)
    for _ in range(15):
        p = concat(random_monomial(rng, rng.randint(0, 3)), random_monomial(rng, 1)).to_words()
        q = random_monomial(rng, rng.randint(0, 2)).to_words()
        x = {"x": random_element(rng)}
        px, qx = word_eval(p, x), word_eval(q, x)
        assert word_eval(p + q, x) == px + qx
        assert word_eval(p - q, x) == px - qx
        assert word_eval(p * q, x) == mul(px, qx)
        assert word_eval(-p, x) == -px
        assert word_eval(q**3, x) == mul(mul(qx, qx), qx)


def test_word_poly_power():
    x, h = wp_var("x"), wp_var("h")
    for w in (x, x + WordPoly.constant(I), WordPoly.constant(J) * x * h, WordPoly.zero(H)):
        assert w**0 == WordPoly.constant(ONE)
        product = WordPoly.constant(ONE)
        for k in range(1, 6):
            product = product * w
            assert w**k == product
        with pytest.raises(RangeError):
            w ** -1
    # x+i+j is x + (i+j), two words; its words alternate x and the constant,
    # so (x+i+j)^17 holds 6,764 and the eighteenth factor would build 13,528.
    with pytest.raises(DegreeTooLarge):
        (x + WordPoly.constant(I) + WordPoly.constant(J)) ** 18


def reference_taylor_terms(p, y0):
    """Term k as the order-k polarization on the diagonal, over k!.

    The algorithm taylor_poly used before it built terms from k-subsets.
    """
    c = eval_poly(p, y0)
    terms = [NCPoly(p.alg, (Monomial((c,)),) if c else ())]
    for k in range(1, max(p.degree, 0) + 1):
        dk_at = diagonal(sym_derivative(p, k), k).substitute_element("x", y0)
        terms.append(ncpoly_from_words(Fraction(1, math.factorial(k)) * dk_at, "h"))
    return terms


E = make_quaternion_algebra(Fraction(-3, 2), Fraction(5, 7))
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def taylor_inputs(draw):
    alg = draw(st.sampled_from([H, E]))

    def element():
        # Zero, central scalars and general elements all occur.
        kind = draw(st.sampled_from(["general", "general", "scalar", "zero"]))
        if kind == "zero":
            return alg.zero
        if kind == "scalar":
            return alg.scalar(draw(small))
        return alg.element([draw(small) for _ in range(alg.dim)])

    monos = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(0, 6))
        monos.append(Monomial(tuple(element() for _ in range(degree + 1))))
    y0 = alg.zero if draw(st.booleans()) else element()
    return NCPoly(alg, tuple(monos)), y0


@given(taylor_inputs())
@settings(max_examples=60, deadline=None)
def test_taylor_terms_match_polarization(inputs):
    p, y0 = inputs
    t = taylor_poly(p, y0)
    want = reference_taylor_terms(p, y0)
    assert len(t.terms) == len(want)
    for got, ref in zip(t.terms, want):
        assert extensional_equal(got.to_words("h"), ref.to_words("h"))
    assert extensional_equal(t.reconstruct().to_words(), p.to_words())


@st.composite
def word_poly_pairs(draw):
    alg = draw(st.sampled_from([H, E, COMPLEX]))

    def factor():
        # Variables, zero, central scalars and general constants all occur,
        # so the built words exercise every step of the constant fusion.
        kind = draw(st.sampled_from(["x", "h", "zero", "scalar", "general", "general"]))
        if kind in ("x", "h"):
            return Var(kind)
        if kind == "zero":
            return Const(alg.zero)
        if kind == "scalar":
            return Const(alg.scalar(draw(small)))
        return Const(alg.element([draw(small) for _ in range(alg.dim)]))

    def poly():
        raw = [(draw(small), tuple(factor() for _ in range(draw(st.integers(1, 4)))))
               for _ in range(draw(st.integers(0, 5)))]
        return WordPoly.build(alg, raw)

    w1 = poly()
    # Reusing w1's words makes sums merge and cancel words.
    w2 = WordPoly.build(alg, list(w1.terms) * draw(st.integers(0, 1)) + list(poly().terms))
    return w1, w2


@given(word_poly_pairs())
@settings(max_examples=150, deadline=None)
def test_word_poly_sums_merge_like_build(pair):
    w1, w2 = pair
    alg = w1.alg
    assert w1 + w2 == WordPoly.build(alg, w1.terms + w2.terms)
    assert w1 - w2 == WordPoly.build(alg, w1.terms + tuple((-c, w) for c, w in w2.terms))
    assert (w1 - w1).is_zero()


@given(word_poly_pairs())
@settings(max_examples=100, deadline=None)
def test_renaming_matches_build(pair):
    # Permutations of names and mappings that merge names.
    w1, w2 = pair

    def renamed_by_hand(w, mapping):
        new = {Var(a): Var(b) for a, b in mapping.items()}
        return WordPoly.build(w.alg, [(c, tuple(new.get(f, f) for f in word))
                                      for c, word in w.terms])

    # With w1's words swapped in, x -> h merges words; the swap maps the
    # symmetric sum onto itself and the skew difference onto its negative.
    swapped = renamed_by_hand(w1, {"x": "h", "h": "x"})
    for w in (w1, w2, w1 + 2 * swapped, w1 + swapped, w1 - swapped):
        for mapping in ({"x": "h", "h": "x"}, {"x": "y", "y": "z", "z": "x"}, {},
                        {"x": "h"}, {"x": "y"}, {"x": "h", "h": "y"}):
            assert w.rename(mapping) == renamed_by_hand(w, mapping)


@given(word_poly_pairs())
@settings(max_examples=100, deadline=None)
def test_substituting_zero_keeps_the_words_without_the_variable(pair):
    w, _ = pair
    alg = w.alg
    # A zero replacement with a term, so the slot walk runs and finds that
    # every filling vanishes.
    walked = WordPoly(alg, ((Fraction(1), (Const(alg.zero),)),))
    for name in ("x", "h"):
        got = w.substitute(name, WordPoly.zero(alg))
        assert got == w.substitute(name, walked)
        assert got == w.substitute_element(name, alg.zero)
        assert name not in got.variables()


@given(word_poly_pairs())
@settings(max_examples=100, deadline=None)
def test_prefix_shared_evaluation_matches_word_eval(pair):
    w1, w2 = pair
    w = w1 * w2
    rng = random.Random(len(w.terms))
    alg = w.alg
    for _ in range(2):
        at = {s: alg.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(alg.dim)]) for s in ("x", "h")}
        plan = ncpoly._prefix_plan(w.terms)
        assert ncpoly._eval_plan(alg, plan, at) == word_eval(w, at)


@st.composite
def constant_pairs(draw):
    """Elements a, b of H, C or E(a, b) whose sum is general, central or zero."""
    alg = draw(st.sampled_from([H, COMPLEX, make_quaternion_algebra(2, Fraction(-3, 5))]))
    scalars = st.fractions(-5, 5, max_denominator=4)
    a = alg.element(draw(st.lists(scalars, min_size=alg.dim, max_size=alg.dim)))
    kind = draw(st.sampled_from(["general", "central", "zero", "equal"]))
    if kind == "general":
        b = alg.element(draw(st.lists(scalars, min_size=alg.dim, max_size=alg.dim)))
    elif kind == "central":
        b = alg.scalar(draw(scalars)) - a
    else:
        b = -a if kind == "zero" else a
    return a, b


@given(constant_pairs())
@settings(max_examples=150, deadline=None)
def test_constant_words_merge_into_one(pair):
    a, b = pair
    got = WordPoly.constant(a) + WordPoly.constant(b)
    assert got.terms == WordPoly.constant(a + b).terms
    assert len(got.terms) <= 1
    x = WordPoly.variable(a.alg, "x")
    with_x = x + WordPoly.constant(a) + WordPoly.constant(b)
    assert with_x.terms == (x + WordPoly.constant(a + b)).terms


@given(taylor_inputs())
@settings(max_examples=40, deadline=None)
def test_reconstruct_merges_like_build(inputs):
    p, y0 = inputs
    t = taylor_poly(p, y0)
    alg = y0.alg
    # reconstruct as it ran before: every term through build again.
    shift = WordPoly.build(alg, [(Fraction(1), (Var("x"),)), (Fraction(-1), (Const(y0),))])
    in_h = WordPoly.build(alg, [w for term in t.terms for w in term.to_words("h").terms])
    assert t.reconstruct() == ncpoly_from_words(in_h.substitute("h", shift), "x")
    assert TaylorExpansion(y0, ()).reconstruct() == NCPoly(alg, ())


def eager_build(alg, raw):
    """WordPoly.build over the eager fusion, which interned every fused constant."""
    fused = []
    for coeff, word in raw:
        if not coeff:
            continue
        state = eager_extend(((), Fraction(coeff)), word)
        if state is not None:
            out, scale = state
            fused.append((scale, out or (Const(alg.one),)))
    return WordPoly(alg, ncpoly._collect(fused))


def eager_substitute(w, name, replacement):
    """WordPoly.substitute's slot walk over the eager fusion."""
    x = Var(name)
    raw = []
    for coeff, word in w.terms:
        segments = [[]]
        for f in word:
            if f is x:
                segments.append([])
            else:
                segments[-1].append(f)
        first = eager_extend(((), coeff), segments[0])
        stack = [(1, first)] if first is not None else []
        while stack:
            i, (out, scale) = stack.pop()
            if i == len(segments):
                raw.append((scale, out or (Const(w.alg.one),)))
                continue
            for c, fill in replacement.terms:
                state = eager_extend((out, scale * c), fill)
                if state is not None:
                    state = eager_extend(state, segments[i])
                if state is not None:
                    stack.append((i + 1, state))
    return WordPoly(w.alg, ncpoly._collect(raw))


@st.composite
def fusion_cases(draw):
    """Raw words and a 1-3 term replacement over an algebra of the kernel tests.

    Constants are zero, central scalars, signed units (in H[eps] the eps
    units multiply to zero), general or float, the floats including zero and
    values equal to exact ones.  Coefficients of the replacement include 1
    and -1.
    """
    alg = draw(kernel_algebras)

    def factor():
        kind = draw(st.sampled_from(["x", "h", "zero", "scalar", "unit", "general", "float"]))
        if kind in ("x", "h"):
            return Var(kind)
        if kind == "zero":
            return Const(alg.zero)
        if kind == "scalar":
            return Const(alg.scalar(draw(small)))
        if kind == "unit":
            sign = draw(st.sampled_from([-1, 1]))
            return Const(sign * alg.basis(draw(st.integers(0, alg.dim - 1))))
        if kind == "general":
            return Const(alg.element([draw(small) for _ in range(alg.dim)]))
        floats = st.one_of(st.sampled_from([0.0, 0.5, -1.0, 2.0]), st.floats(-8, 8))
        return Const(Element(alg, tuple(draw(floats) for _ in range(alg.dim))))

    def words(coeffs, count, length):
        return [(draw(coeffs), tuple(factor() for _ in range(draw(length))))
                for _ in range(draw(count))]

    raw = words(small, st.integers(0, 4), st.integers(0, 6))
    units = st.sampled_from([Fraction(1), Fraction(-1)])
    fill = words(st.one_of(units, units, small), st.integers(1, 3), st.integers(1, 3))
    return alg, raw, fill


@given(fusion_cases())
@settings(max_examples=200, deadline=None)
def test_fusion_matches_eager_fusion(case):
    # Equal terms: equal scales, and words of the same interned factors.
    alg, raw, fill = case
    w = WordPoly.build(alg, raw)
    assert w.terms == eager_build(alg, raw).terms
    replacement = eager_build(alg, fill)
    for name in ("x", "h"):
        got = w.substitute(name, replacement).terms
        assert got == eager_substitute(w, name, replacement).terms
        assert all(type(c) is Fraction for c, _ in got)


@contextlib.contextmanager
def interned_consts():
    """Weak references to the constants interned while the block runs.

    Nothing is held, so the count is the walk's own: a constant freed and
    made again is interned again.
    """
    made = []
    intern = ncpoly._intern

    def recording(cls, table, key, value):
        obj = intern(cls, table, key, value)
        if cls is Const:
            made.append(weakref.ref(obj))
        return obj

    ncpoly._intern = recording
    try:
        yield made
    finally:
        ncpoly._intern = intern


def factors_of(w):
    return {f for _, word in w.terms for f in word}


@st.composite
def runs_of_constants(draw):
    """A monomial with a base point, and a raw word of runs of constants,
    over a division algebra, so no word vanishes after its constants fuse."""
    alg = draw(st.sampled_from([H, COMPLEX, E]))

    def constant():
        kind = draw(st.sampled_from(["scalar", "unit", "general", "general"]))
        if kind == "scalar":
            return alg.scalar(draw(small.filter(bool)))
        if kind == "unit":
            return draw(st.sampled_from([-1, 1])) * alg.basis(draw(st.integers(0, alg.dim - 1)))
        # A zero constant would make its whole word vanish, after the runs
        # before it were already interned.
        coords = st.lists(small, min_size=alg.dim, max_size=alg.dim).filter(any)
        return alg.element(draw(coords))

    p = NCPoly(alg, (Monomial(tuple(constant() for _ in range(draw(st.integers(1, 5))))),))
    word = []
    for _ in range(draw(st.integers(1, 4))):
        word += [Const(constant()) for _ in range(draw(st.integers(0, 4)))] + [Var("x")]
    return p, constant(), (Fraction(draw(st.integers(1, 3))), tuple(word))


@given(runs_of_constants())
@settings(max_examples=100, deadline=None)
def test_walk_interns_only_the_constants_that_stay(case):
    # The products a run of constants fuses on the way are never interned:
    # each constant the walk interns is a factor of a word it returns.
    p, y0, term = case
    alg = y0.alg
    w = p.to_words("x")
    shift = WordPoly.variable(alg, "h") + WordPoly.constant(y0)
    with interned_consts() as made:
        built = WordPoly.build(alg, [term])
    # A constant freed since is no factor of built.
    assert all(ref() in factors_of(built) for ref in made)
    with interned_consts() as made:
        expanded = w.substitute("x", shift)
    assert all(ref() in factors_of(expanded) for ref in made)


def test_degree_six_round_trip_interns_few_constants():
    # One taylor_poly(p, y0).reconstruct() of a fixed degree-6 monomial over
    # H.  The eager fusion interned 787 constants, most of them products the
    # next constant fused away at once.
    rng = random.Random(20)
    coeffs = [H.element([Fraction(rng.randint(-50, 50), 97) for _ in range(4)])
              for _ in range(7)]
    y0 = H.element([Fraction(rng.randint(-50, 50), 89) for _ in range(4)])
    p = NCPoly(H, (Monomial(tuple(coeffs)),))
    with interned_consts() as made:
        back = taylor_poly(p, y0).reconstruct()
    assert len(made) == 59
    assert back == ncpoly_from_words(p.to_words(), "x")


def test_taylor_of_zero_polynomial():
    for y0 in (H.zero, H.element([1, -2, 3, Fraction(1, 2)])):
        t = taylor_poly(NCPoly(H, ()), y0)
        assert [term.monomials for term in t.terms] == [()]
        assert t.reconstruct().to_words().is_zero()


def test_taylor_term_has_one_monomial_per_subset():
    # Generic constants keep every subset's word distinct, so term k of a
    # degree-n monomial holds exactly C(n, k) monomials, each of degree k.
    rng = random.Random(31)
    y0 = H.element([Fraction(2, 3), -1, Fraction(5, 4), 3])
    for degree in range(7):
        p = random_monomial(rng, degree)
        t = taylor_poly(p, y0)
        for k in range(1, degree + 1):
            assert len(t.terms[k].monomials) == math.comb(degree, k)
            assert all(m.degree == k for m in t.terms[k].monomials)


def test_derivative_size_guard():
    # x^9 to order 9 would build 9! words; the guard refuses before building.
    with pytest.raises(DegreeTooLarge):
        sym_derivative(poly("x^9"), 9)
    assert math.perm(9, 9) > MAX_DERIVATIVE_WORDS
    assert len(sym_derivative(poly("x^7"), 7).terms) == math.factorial(7)
    two = concat(random_monomial(random.Random(37), 7), random_monomial(random.Random(41), 7))
    with pytest.raises(DegreeTooLarge):
        sym_derivative(concat(two, two, two, two), 7)


def test_sym_derivative_stops_at_zero(monkeypatch):
    # x^2 vanishes at order 3; the order past it must not cost a step each.
    calls = []
    derivative = WordPoly.derivative

    def counted(self, name, new_symbol):
        calls.append(new_symbol)
        assert len(calls) <= 3, "differentiated past zero"
        return derivative(self, name, new_symbol)

    monkeypatch.setattr(WordPoly, "derivative", counted)
    assert sym_derivative(poly("x^2"), 10**12).is_zero()
    assert calls == ["h1", "h2", "h3"]
    assert sym_derivative(NCPoly(H, ()), 10**12).is_zero()
    assert calls == ["h1", "h2", "h3"]


def test_taylor_size_guard():
    # The guard counts 2^n words per degree-n monomial and refuses before
    # building: one monomial of degree `over`, or two of degree over - 1.
    over = MAX_TAYLOR_WORDS.bit_length()
    with pytest.raises(DegreeTooLarge):
        taylor_poly(poly(f"x^{over}"), H.one)
    with pytest.raises(DegreeTooLarge):
        taylor_poly(concat(poly(f"x^{over - 1}"), poly(f"x^{over - 1}")), H.one)
    assert len(taylor_poly(poly("x^6"), H.one).terms) == 7


def test_product_size_guard():
    # The guard counts the product of the operands' term counts and refuses
    # before building, so a power of a sum stops at the first large product.
    side = math.isqrt(MAX_PRODUCT_WORDS) + 1
    many = WordPoly.build(H, [(Fraction(1), (Var(f"h{k}"),)) for k in range(side)])
    with pytest.raises(DegreeTooLarge):
        many * many
    assert len((many * wp_var("y")).terms) == side
    with pytest.raises(DegreeTooLarge):
        parse_word_poly(H, "(x+i+j)^20")
    assert len(parse_word_poly(H, "(x+i+j)^17").terms) == 6764
