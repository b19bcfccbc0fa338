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


# the token rules, spelled out apart from the tokenizer's own constants
ASCII_DIGITS = "0123456789"
SYMBOLS = "+-*/^=,;()[]"


def _starts_token(ch):
    return ch in ASCII_DIGITS or ch.isalpha() or ch in SYMBOLS


def _continues_ident(ch):
    return ch.isalnum() or ch == "_"


def _blank(gap):
    """Whether gap holds only isspace characters and '#' comments."""
    return not gap.strip() or all(not ln.partition("#")[0].strip() for ln in gap.split("\n"))


def _assert_token_rules(text):
    """tokenize(text) against the token rules of the parse module: ints are
    runs of ASCII digits, identifiers an isalpha character and then isalnum
    characters or '_', symbols single characters, isspace characters and
    comments blank; any other character raises at its own line and column.
    An int is matched in its shortest form, so text has no leading zeros."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]

    def offset(tok):
        return line_starts[tok.line - 1] + tok.col - 1

    try:
        tokens = tokenize(text)
    except ParseError as err:
        at = offset(err)
        bad = text[at]
        assert err.message == f"unexpected character {bad!r}"
        assert not (_starts_token(bad) or bad.isspace() or bad == "#")
        # the text before it tokenizes, and no identifier there absorbs it
        before = tokenize(text[:at])[:-1]
        assert not (before and before[-1].kind == "ident" and _continues_ident(bad))
        return
    end = 0
    for tok in tokens[:-1]:
        start = offset(tok)
        assert _blank(text[end:start])
        source = str(tok.value)
        assert text.startswith(source, start)
        end = start + len(source)
        follow = text[end : end + 1] or " "
        if tok.kind == "int":
            assert all(ch in ASCII_DIGITS for ch in source) and follow not in ASCII_DIGITS
        elif tok.kind == "ident":
            assert source[0].isalpha() and all(map(_continues_ident, source[1:]))
            assert not _continues_ident(follow)
        else:
            assert tok.kind == "sym" and source in SYMBOLS
    assert _blank(text[end:])
    # the end of input sits at the '#' of a final comment, if there is one
    last_line = text[end:].rpartition("\n")[2]
    comment = last_line.find("#")
    eof = len(text) - len(last_line) + comment if comment >= 0 else len(text)
    assert offset(tokens[-1]) == eof


def test_tokenizer_rules_on_every_basic_plane_character():
    # each code point alone, after an identifier, before one and after an int
    for cp in range(0x10000):
        if 0xD800 <= cp <= 0xDFFF:
            continue
        ch = chr(cp)
        for text in (ch, "x" + ch, ch + "x", "1" + ch):
            _assert_token_rules(text)
