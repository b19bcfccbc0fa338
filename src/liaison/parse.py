"""Tokenizer and recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant, implicit multiplication forbidden, unary
minus allowed only on the first term):

    poly   := term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' uint)?
    coeff  := int | int '/' uint
    var    := identifier

The same tokenizer serves the instance-file parser; '#' starts a comment that
runs to end of line.
"""

from .errors import ParseError

SYMBOLS = "+-*/^=,;()[]"
DIGITS = "0123456789"  # ASCII only: str.isdigit admits superscripts and other scripts


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # "int" | "ident" | "sym" | "eof"
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            tokens.append(Token("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in SYMBOLS:
            tokens.append(Token("sym", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", None, line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, *chars):
        tok = self.peek()
        return tok.kind == "sym" and tok.value in chars

    def try_sym(self, ch):
        if self.at_sym(ch):
            return self.next()
        return None

    def expect_sym(self, ch):
        tok = self.peek()
        if tok.kind != "sym" or tok.value != ch:
            raise ParseError(f"expected {ch!r}", tok.line, tok.col)
        return self.next()

    def expect_int(self, what="integer"):
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.next()

    def expect_ident(self, what="identifier"):
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.next()

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError("unexpected trailing input", tok.line, tok.col)


def _coeff(ts, field):
    tok = ts.expect_int("coefficient")
    num = tok.value
    if ts.at_sym("/"):
        slash = ts.next()
        den_tok = ts.expect_int("denominator")
        try:
            return field.frac(num, den_tok.value)
        except ZeroDivisionError as exc:
            raise ParseError(str(exc), slash.line, slash.col) from None
    return field.of(num)


def _factor(ts, ring):
    tok = ts.expect_ident("variable")
    if tok.value not in ring._index:
        raise ParseError(f"unknown variable {tok.value!r}", tok.line, tok.col)
    exp = 1
    if ts.try_sym("^"):
        exp = ts.expect_int("exponent").value
    exps = [0] * ring.nvars
    exps[ring._index[tok.value]] = exp
    return tuple(exps)


def _term(ts, ring):
    tok = ts.peek()
    exps = (0,) * ring.nvars
    if tok.kind == "int":
        coeff = _coeff(ts, ring.field)
    elif tok.kind == "ident":
        coeff = ring.field.one
        exps = _factor(ts, ring)
    else:
        raise ParseError("expected a term", tok.line, tok.col)
    while ts.try_sym("*"):
        fac = _factor(ts, ring)
        exps = tuple(a + b for a, b in zip(exps, fac))
    return ring.poly([(exps, coeff)])


def parse_poly_tokens(ts, ring):
    """Parse one polynomial from the stream, stopping before any token that
    cannot continue it (',', ';', ')', eof, ...)."""
    negate = ts.try_sym("-") is not None
    p = _term(ts, ring)
    if negate:
        p = -p
    while ts.at_sym("+", "-"):
        op = ts.next()
        q = _term(ts, ring)
        p = p + q if op.value == "+" else p - q
    return p


def parse_polynomial(src, ring):
    """Parse a complete polynomial string into canonical form."""
    ts = TokenStream(tokenize(src))
    p = parse_poly_tokens(ts, ring)
    ts.expect_eof()
    return p
