"""Line-oriented instance files: parser, canonical printer, content digest.

Grammar (semicolon-terminated statements, '#' comments, one ring per file):

    ring NAME = (QQ | FP(prime)) [ var {, var} ] (lex | grevlex) ;
    ideal NAME = poly {, poly} ;          # the literal 0 denotes the zero ideal
    module NAME = quotient (IDEALNAME | 0) ;
    regseq NAME = poly {, poly} ;
    check CHECKID ( argname = NAME {, argname = NAME} ) ;

Check arguments: a, b, I (ideals), M (module), seq, alt_seq (regseqs),
alt_I (ideal).  `seq` is omitted exactly when I is the zero ideal, and
`alt_seq` exactly when alt_I is.  Only APRIME_T7 takes alt_I and alt_seq,
its alternate, and the global checks (C11_GLOBAL, T1_GLOBAL, C1_WITNESS)
take no arguments.  A pair check's arguments resolve to one LinkageInstance
when the check is parsed, with the empty witness for a zero I and (alt_I,
its witness) as the alternate.

`ideal Z = 0;` is the zero ideal, while `regseq s = 0;` is the one-element
sequence of the zero polynomial, which no check accepts as a witness.
"""

import hashlib

from .checks import GLOBAL_CHECKS, CheckId
from .errors import ParseError
from .fields import GF, QQ
from .groebner import Ideal
from .linkage import (
    CyclicModule,
    EMPTY_WITNESS,
    LinkageInstance,
    RegularSequenceWitness,
)
from .parse import TokenStream, parse_poly_tokens, tokenize
from .record import Record
from .rings import ORDERS, PolyRing, poly_str

# Each check argument and the kind of declaration it names, in the order
# print_instance writes them.
_CHECK_ARGS = {
    "a": "ideal",
    "b": "ideal",
    "I": "ideal",
    "M": "module",
    "seq": "regseq",
    "alt_I": "ideal",
    "alt_seq": "regseq",
}
# Each declaration keyword and what its name is called in errors.
_NAME_WHAT = {"ideal": "ideal name", "module": "module name", "regseq": "sequence name"}
# The `liaison gen` profiles (see generate.py), kept with the file format so
# that the CLI can list them without loading the generator.
PROFILES = ("self-links", "geometric-links", "monomial-ci")


class CheckDirective(Record):
    """One `check` statement: its CheckId, its arguments (argument name to
    declared name) and the LinkageInstance they resolve to, None for a
    global check, which runs on (ring, corpus) instead."""

    def __init__(self, check, args, instance):
        self._set(locals())


class InstanceFile(Record):
    """A parsed file; module_defs maps each module name to the name of its
    ideal, or "0"."""

    def __init__(self, ring, ring_name, ideals, module_defs, regseqs, directives):
        self._set(locals())

    def instances(self):
        """The pair checks' instances, one per distinct argument list, in
        file order: the corpus of the global checks."""
        unique = {}
        for d in self.directives:
            if d.instance is not None:
                unique.setdefault(tuple(sorted(d.args.items())), d.instance)
        return list(unique.values())


def _comma_list(ts, parse_item, *args):
    """parse_item(ts, *args) once, then again after each comma."""
    items = [parse_item(ts, *args)]
    while ts.try_sym(","):
        items.append(parse_item(ts, *args))
    return items


def parse_ring_spec(ts, default_order=None):
    """`(QQ | FP(prime)) [ var {, var} ] (lex | grevlex)`; the order may be
    left out only when a default is given."""
    field_tok = ts.expect("ident", "coefficient field")
    if field_tok.value == "QQ":
        field = QQ
    elif field_tok.value == "FP":
        ts.expect_sym("(")
        p_tok = ts.expect("int", "prime modulus")
        try:
            field = GF(p_tok.value)
        except ValueError as exc:
            raise ParseError(str(exc), p_tok.line, p_tok.col) from None
        ts.expect_sym(")")
    else:
        raise ParseError(
            f"unknown field {field_tok.value!r} (expected QQ or FP(p))",
            field_tok.line,
            field_tok.col,
        )
    ts.expect_sym("[")
    variables = [tok.value for tok in _comma_list(ts, TokenStream.expect, "ident", "variable")]
    close = ts.expect_sym("]")
    if len(set(variables)) != len(variables):
        raise ParseError("duplicate variable", close.line, close.col)
    if default_order is not None and ts.peek().kind != "ident":
        return PolyRing(field, variables, default_order)
    order_tok = ts.expect("ident", "monomial order")
    if order_tok.value not in ORDERS:
        raise ParseError(
            f"unknown order {order_tok.value!r}", order_tok.line, order_tok.col
        )
    return PolyRing(field, variables, order_tok.value)


def parse_poly_list(ts, ring):
    """Comma-separated polynomials; a lone literal 0 (before ';' or the end of
    input) denotes the empty list."""
    first, after = ts.peek(), ts.peek(1)
    if first.kind == "int" and first.value == 0 and (after.kind == "eof" or after.value == ";"):
        ts.next()
        return []
    return _comma_list(ts, parse_poly_tokens, ring)


def parse_instance(text):
    """Parse instance-file text; all polynomials come out canonical and every
    name reference is resolved."""
    ts = TokenStream(tokenize(text))
    ring = None
    ring_name = None
    names = {kind: {} for kind in _NAME_WHAT}
    module_defs = {}
    directives = []
    while ts.peek().kind != "eof":
        head = ts.expect("ident", "statement keyword")
        if head.value == "ring":
            if ring is not None:
                raise ParseError("second ring declaration", head.line, head.col)
            ring_name = ts.expect("ident", "ring name").value
            ts.expect_sym("=")
            ring = parse_ring_spec(ts)
            ts.expect_sym(";")
        elif head.value not in names and head.value != "check":
            raise ParseError(f"unknown statement {head.value!r}", head.line, head.col)
        elif ring is None:
            raise ParseError("no ring in scope", head.line, head.col)
        elif head.value == "check":
            directives.append(_parse_check(ts, ring, names))
        else:
            _parse_declaration(ts, head.value, ring, names, module_defs)
    if ring is None:
        tok = ts.peek()
        raise ParseError("no ring in scope", tok.line, tok.col)
    return InstanceFile(
        ring=ring,
        ring_name=ring_name,
        ideals=names["ideal"],
        module_defs=module_defs,
        regseqs=names["regseq"],
        directives=directives,
    )


def _parse_declaration(ts, kind, ring, names, module_defs):
    """`NAME = body ;` after the keyword `kind`; a module's R/J is built, and
    refused for a unit J, only once its `;` is read."""
    name = ts.expect("ident", _NAME_WHAT[kind])
    if name.value in names[kind]:
        raise ParseError(f"duplicate {kind} name {name.value!r}", name.line, name.col)
    ts.expect_sym("=")
    if kind == "ideal":
        value = Ideal(ring, parse_poly_list(ts, ring))
    elif kind == "regseq":
        value = tuple(_comma_list(ts, parse_poly_tokens, ring))
    else:
        kw = ts.expect("ident", "quotient keyword")
        if kw.value != "quotient":
            raise ParseError("expected 'quotient'", kw.line, kw.col)
        ref = ts.peek()
        if ref.kind == "int" and ref.value == 0:
            ts.next()
            module_defs[name.value] = "0"
            defining = Ideal(ring, ())
        else:
            ref = ts.expect("ident", "ideal name")
            if ref.value not in names["ideal"]:
                raise ParseError(f"unresolved ideal {ref.value!r}", ref.line, ref.col)
            module_defs[name.value] = ref.value
            defining = names["ideal"][ref.value]
    ts.expect_sym(";")
    if kind == "module":
        try:
            value = CyclicModule(ring, defining)
        except ValueError as exc:
            raise ParseError(str(exc), name.line, name.col) from None
    names[kind][name.value] = value


def _parse_check(ts, ring, names):
    """`CHECKID ( arguments ) ;` after the keyword; the arguments a check
    needs are asked for, and a pair check's instance built, once its `;` is
    read."""
    id_tok = ts.expect("ident", "check id")
    try:
        check_id = CheckId(id_tok.value)
    except ValueError:
        raise ParseError(f"unknown check {id_tok.value!r}", id_tok.line, id_tok.col) from None
    ts.expect_sym("(")
    args = {}
    if not ts.at_sym(")"):
        _comma_list(ts, _parse_argument, names, args)
    ts.expect_sym(")")
    ts.expect_sym(";")
    if check_id in GLOBAL_CHECKS:
        if args:
            raise ParseError(f"check {check_id.value} takes no arguments", id_tok.line, id_tok.col)
        return CheckDirective(check_id, args, None)
    if check_id is not CheckId.APRIME_T7 and args.keys() & {"alt_I", "alt_seq"}:
        raise ParseError("only APRIME_T7 takes alt_I or alt_seq", id_tok.line, id_tok.col)
    if "alt_seq" in args and "alt_I" not in args:
        raise ParseError("alt_seq needs alt_I", id_tok.line, id_tok.col)
    for key in ("a", "I", "M"):
        if key not in args:
            raise ParseError(
                f"check {check_id.value} needs argument {key!r}", id_tok.line, id_tok.col
            )
    I, witness = _linking_ideal(names, args, "I", "seq", id_tok)
    instance = LinkageInstance(
        ring=ring,
        module=names["module"][args["M"]],
        a=names["ideal"][args["a"]],
        I=I,
        witness=witness,
        b=names["ideal"][args["b"]] if "b" in args else None,
        alternate=_linking_ideal(names, args, "alt_I", "alt_seq", id_tok),
    )
    return CheckDirective(check_id, args, instance)


def _linking_ideal(names, args, ideal_key, seq_key, id_tok):
    """The ideal named by ideal_key and its witness (the sequence named by
    seq_key, or the empty witness of a zero ideal); None when ideal_key is
    not given."""
    if ideal_key not in args:
        return None
    I = names["ideal"][args[ideal_key]]
    if seq_key in args:
        return I, RegularSequenceWitness(names["regseq"][args[seq_key]])
    if any(I.gens):
        raise ParseError(
            f"check needs {seq_key}= for a nonzero linking ideal", id_tok.line, id_tok.col
        )
    return I, EMPTY_WITNESS


def _parse_argument(ts, names, args):
    """`argname = NAME` into args, with NAME declared as the kind argname takes."""
    key_tok = ts.expect("ident", "argument name")
    key = key_tok.value
    if key not in _CHECK_ARGS:
        raise ParseError(f"unknown argument {key!r}", key_tok.line, key_tok.col)
    if key in args:
        raise ParseError(f"duplicate argument {key!r}", key_tok.line, key_tok.col)
    ts.expect_sym("=")
    val_tok = ts.expect("ident", "name")
    if val_tok.value not in names[_CHECK_ARGS[key]]:
        raise ParseError(f"unresolved reference {val_tok.value!r}", val_tok.line, val_tok.col)
    args[key] = val_tok.value


def format_declaration(kind, name, polys):
    """The `ideal` or `regseq` statement declaring name as polys; no
    polynomials (the zero ideal) are written 0."""
    return f"{kind} {name} = {', '.join(map(poly_str, polys)) or '0'};"


def format_check(check_id, args):
    """The `check` statement, its arguments in _CHECK_ARGS order."""
    listed = ", ".join(f"{key} = {args[key]}" for key in _CHECK_ARGS if key in args)
    return f"check {check_id.value}({listed});"


def print_instance(parsed):
    """Canonical text form: declaration order kept, polynomials canonical,
    comments stripped, arguments in fixed order."""
    lines = [f"ring {parsed.ring_name} = {parsed.ring!r};"]
    lines += [format_declaration("ideal", n, ideal.gens) for n, ideal in parsed.ideals.items()]
    lines += [f"module {n} = quotient {ref};" for n, ref in parsed.module_defs.items()]
    lines += [format_declaration("regseq", n, seq) for n, seq in parsed.regseqs.items()]
    lines += [format_check(d.check, d.args) for d in parsed.directives]
    return "\n".join(lines) + "\n"


def instance_digest(parsed):
    """Stable content hash of the canonicalized input."""
    return hashlib.sha256(print_instance(parsed).encode()).hexdigest()
