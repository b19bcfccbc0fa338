import pytest

from liaison.errors import ParseError
from liaison.fields import GF, QQ
from liaison.parse import parse_polynomial, tokenize
from liaison.rings import PolyRing


@pytest.fixture(scope="module")
def ring():
    return PolyRing(QQ, ["x", "y"])


def test_basic_polynomial(ring):
    f = parse_polynomial("x^2 - 1/2*y", ring)
    assert f.terms == (((2, 0), QQ.of(1)), ((0, 1), QQ.frac(-1, 2)))


def test_monomial_product():
    ring4 = PolyRing(QQ, ["x1", "x2", "x3", "x4"])
    f = parse_polynomial("x1*x3", ring4)
    assert f.terms == (((1, 0, 1, 0), QQ.of(1)),)


def test_double_star_rejected_at_second_star(ring):
    with pytest.raises(ParseError) as err:
        parse_polynomial("x**2", ring)
    assert err.value.line == 1
    assert err.value.col == 3


def test_unknown_variable_reported(ring):
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + z", ring)
    assert "z" in str(err.value)
    assert err.value.col == 5


def test_implicit_multiplication_forbidden(ring):
    with pytest.raises(ParseError):
        parse_polynomial("2x", ring)
    with pytest.raises(ParseError):
        parse_polynomial("x y", ring)


def test_unary_minus_first_term_only(ring):
    f = parse_polynomial("-x + y", ring)
    assert f == ring.parse("y - x")
    with pytest.raises(ParseError):
        parse_polynomial("x + -y", ring)


def test_coefficient_grammar(ring):
    assert parse_polynomial("3/2*x*y", ring).terms == (((1, 1), QQ.frac(3, 2)),)
    assert parse_polynomial("0", ring).is_zero()
    with pytest.raises(ParseError):
        parse_polynomial("1/0*x", ring)
    # coefficients belong in front: a factor after the coeff needs '*'
    with pytest.raises(ParseError):
        parse_polynomial("x*2", ring)


def test_fp_denominator_divisible_by_modulus():
    ring = PolyRing(GF(5), ["x"])
    assert parse_polynomial("1/2*x", ring).terms == (((1,), 3),)
    with pytest.raises(ParseError):
        parse_polynomial("1/5*x", ring)


def test_whitespace_and_comments_insignificant(ring):
    a = parse_polynomial("x ^ 2+ y", ring)
    b = parse_polynomial("x^2 + y  # trailing comment", ring)
    assert a == b


def test_tokenizer_positions():
    toks = tokenize("ab +\n 12")
    assert [(t.kind, t.line, t.col) for t in toks] == [
        ("ident", 1, 1),
        ("sym", 1, 4),
        ("int", 2, 2),
        ("eof", 2, 4),
    ]


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        tokenize("x ? y")
    assert err.value.col == 3


@pytest.mark.parametrize("digit", ["²", "١"])
def test_non_ascii_digit_rejected_at_its_position(ring, digit):
    # a superscript two and an Arabic-Indic one both pass str.isdigit
    with pytest.raises(ParseError) as err:
        parse_polynomial(f"y +\nx^{digit}", ring)
    assert "unexpected character" in err.value.message
    assert (err.value.line, err.value.col) == (2, 3)
