"""Element literals and polynomial expression parsing."""

from fractions import Fraction

import pytest

from ncdr.algebra import COMPLEX, QUATERNIONS
from ncdr.errors import ParseError
from ncdr.ncpoly import Var, eval_poly, extensional_equal, word_eval
from ncdr.parsing import (
    MAX_EXPONENT,
    parse_element,
    parse_ncpoly,
    parse_rational,
    parse_word_poly,
)

H = QUATERNIONS
ONE, I, J, K = (H.basis(n) for n in range(4))


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0.5") == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_rational("x")


def test_parse_element_quaternion():
    assert parse_element(H, "1/2+0i+3j-1/4k") == H.element(
        [Fraction(1, 2), 0, 3, Fraction(-1, 4)]
    )
    assert parse_element(H, "1-i") == ONE - I
    assert parse_element(H, "i") == I
    assert parse_element(H, "-k") == -K
    assert parse_element(H, "0") == H.zero
    assert parse_element(H, "2i+2i") == 4 * I


def test_parse_element_complex():
    assert parse_element(COMPLEX, "3+2i") == COMPLEX.element([3, 2])
    with pytest.raises(ParseError):
        parse_element(COMPLEX, "1+2j")


def test_parse_element_errors():
    for bad in ("", "1 2", "++1", "1+", "q"):
        with pytest.raises(ParseError):
            parse_element(H, bad)


def test_parse_ncpoly_evaluates():
    p = parse_ncpoly(H, "(1+i)*x*j*x + x^2 - 3")
    x = H.element([1, 2, Fraction(-1, 2), 0])
    from ncdr.algebra import mul

    want = mul(mul(mul(ONE + I, x), J), x) + mul(x, x) - H.scalar(3)
    assert eval_poly(p, x) == want


def test_parse_precedence():
    # Unary minus binds a whole power factor; ^ binds tighter than *.
    x = H.element([0, 1, 1, 0])
    assert eval_poly(parse_ncpoly(H, "-x^2"), x) == -(x * x)
    assert eval_poly(parse_ncpoly(H, "2*x^2"), x) == 2 * (x * x)
    shifted = x + ONE
    assert eval_poly(parse_ncpoly(H, "(x+1)^2"), x) == shifted * shifted


def test_parse_word_poly_with_h():
    w = parse_word_poly(H, "h*x^2 + x*h*x + x^2*h")
    got = word_eval(w, {"x": I, "h": J})
    from ncdr.algebra import mul

    want = mul(J, mul(I, I)) + mul(mul(I, J), I) + mul(mul(I, I), J)
    assert got == want
    y = parse_word_poly(H, "x*h - h*x")
    z = parse_word_poly(H, "-(h*x - x*h)")
    assert extensional_equal(y, z)


def test_parse_word_poly_rejects_unknown():
    with pytest.raises(ParseError):
        parse_word_poly(H, "x*q")
    with pytest.raises(ParseError):
        parse_ncpoly(H, "x*h")  # h is not a variable of one-variable polynomials
    with pytest.raises(ParseError):
        parse_word_poly(H, "x^(2)")
    with pytest.raises(ParseError):
        parse_word_poly(H, "x +")


def test_exponent_limit():
    w = parse_word_poly(H, f"x^{MAX_EXPONENT}")
    ((_, word),) = w.terms
    assert sum(isinstance(f, Var) for f in word) == MAX_EXPONENT
    with pytest.raises(ParseError):
        parse_word_poly(H, f"x^{MAX_EXPONENT + 1}")
    with pytest.raises(ParseError):
        parse_ncpoly(H, "(x+1)^1000000000")
