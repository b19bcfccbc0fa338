"""Tokenizer and recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant, implicit multiplication forbidden, unary
minus allowed only on the first term):

    poly   := term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' uint)?
    coeff  := int | int '/' uint
    var    := identifier

The same tokenizer serves the instance-file parser.  Its tokens are

    int    ASCII digits only (str.isdigit admits superscripts and other scripts)
    ident  a str.isalpha character, then str.isalnum characters or '_'
    sym    one character of +-*/^=,;()[]
    eof    the end of input, at the '#' of a final comment if there is one

'#' starts a comment that runs to end of line, str.isspace characters are
blank, and any other character is an error.  Only a line feed ends a line,
and a token's column is its offset from the start of its line plus one.
"""

from .errors import ParseError

SYMBOLS = "+-*/^=,;()[]"
DIGITS = "0123456789"


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
    line, line_start = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        col = i - line_start + 1
        j = i + 1
        if ch == "\n":
            line, line_start = line + 1, j
        elif ch == "#":
            j = text.find("\n", i)
            if j < 0:
                break
        elif ch in DIGITS:
            while j < n and text[j] in DIGITS:
                j += 1
            try:
                tokens.append(Token("int", int(text[i:j]), line, col))
            except ValueError as exc:  # more digits than int() reads from a string
                raise ParseError(str(exc), line, col) from None
        elif ch.isalpha():
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
        elif ch in SYMBOLS:
            tokens.append(Token("sym", ch, line, col))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i = j
    tokens.append(Token("eof", None, line, i - line_start + 1))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0):
        """The next token, or the one `ahead` tokens past it (at most eof)."""
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

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

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.next()

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError("unexpected trailing input", tok.line, tok.col)


def _coeff(ts, field):
    tok = ts.expect("int", "coefficient")
    num = tok.value
    if ts.at_sym("/"):
        slash = ts.next()
        den_tok = ts.expect("int", "denominator")
        try:
            return field.frac(num, den_tok.value)
        except ZeroDivisionError as exc:
            raise ParseError(str(exc), slash.line, slash.col) from None
    return field.of(num)


def _factor(ts, ring):
    tok = ts.expect("ident", "variable")
    if tok.value not in ring._index:
        raise ParseError(f"unknown variable {tok.value!r}", tok.line, tok.col)
    exp = 1
    if ts.try_sym("^"):
        exp = ts.expect("int", "exponent").value
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


def parse_text(text, parse_item, *args):
    """parse_item(ts, *args) over the whole of text, which it must consume."""
    ts = TokenStream(tokenize(text))
    out = parse_item(ts, *args)
    ts.expect_eof()
    return out


def parse_polynomial(src, ring):
    """Parse a complete polynomial string into canonical form."""
    return parse_text(src, parse_poly_tokens, ring)
