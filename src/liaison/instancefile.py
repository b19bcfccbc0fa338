"""Line-oriented instance files: parser, canonical printer, content digest.

Grammar (semicolon-terminated statements, '#' comments, one ring per file):

    ring NAME = (QQ | FP(prime)) [ var {, var} ] (lex | grevlex) ;
    ideal NAME = poly {, poly} ;          # the literal 0 denotes the zero ideal
    module NAME = quotient (IDEALNAME | 0) ;
    regseq NAME = poly {, poly} ;
    check CHECKID ( argname = NAME {, argname = NAME} ) ;

Check arguments: a, b, I (ideals), M (module), seq, alt_seq (regseqs),
alt_I (ideal).  `seq` is omitted exactly when I is the zero ideal.
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
from .rings import PolyRing, poly_str

_IDEAL_ARGS = ("a", "b", "I", "alt_I")
_SEQ_ARGS = ("seq", "alt_seq")
_ARG_ORDER = ("a", "b", "I", "M", "seq", "alt_I", "alt_seq")
# The `liaison gen` profiles (see generate.py), kept with the file format so
# that the CLI can list them without loading the generator.
PROFILES = ("self-links", "geometric-links", "monomial-ci")


class CheckDirective(Record):
    def __init__(self, check, args, line):
        self._set(locals())


class InstanceFile(Record):
    """A parsed file; module_defs maps each module name to the name of its
    ideal, or "0"."""

    def __init__(self, ring, ring_name, ideals, modules, module_defs, regseqs, directives):
        self._set(locals())

    # -- directive resolution ------------------------------------------------

    def _witness_for(self, directive, seq_key, ideal_key):
        ideal = self.ideals[directive.args[ideal_key]]
        seq_name = directive.args.get(seq_key)
        if seq_name is None:
            if ideal.gens:
                raise ParseError(
                    f"check needs {seq_key}= for a nonzero linking ideal",
                    directive.line,
                    1,
                )
            return EMPTY_WITNESS
        return RegularSequenceWitness(self.regseqs[seq_name])

    def instance_for(self, directive):
        args = directive.args
        module = self.modules[args["M"]]
        b = self.ideals[args["b"]] if "b" in args else None
        return LinkageInstance(
            ring=self.ring,
            module=module,
            a=self.ideals[args["a"]],
            I=self.ideals[args["I"]],
            witness=self._witness_for(directive, "seq", "I"),
            b=b,
            name=f"line {directive.line}",
        )

    def alternate_for(self, directive):
        if "alt_I" not in directive.args:
            return None
        alt = self.ideals[directive.args["alt_I"]]
        witness = self._witness_for(directive, "alt_seq", "alt_I")
        return alt, witness

    def instances(self):
        out = []
        seen = set()
        for d in self.directives:
            if d.check in GLOBAL_CHECKS:
                continue
            key = tuple(sorted(d.args.items()))
            if key in seen:
                continue
            seen.add(key)
            out.append(self.instance_for(d))
        return out


def parse_ring_spec(ts, default_order=None):
    """`(QQ | FP(prime)) [ var {, var} ] (lex | grevlex)`; the order may be
    left out only when a default is given."""
    field_tok = ts.expect_ident("coefficient field")
    if field_tok.value == "QQ":
        field = QQ
    elif field_tok.value == "FP":
        ts.expect_sym("(")
        p_tok = ts.expect_int("prime modulus")
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
    variables = [ts.expect_ident("variable").value]
    while ts.try_sym(","):
        variables.append(ts.expect_ident("variable").value)
    close = ts.expect_sym("]")
    if len(set(variables)) != len(variables):
        raise ParseError("duplicate variable", close.line, close.col)
    if default_order is not None and ts.peek().kind != "ident":
        return PolyRing(field, variables, default_order)
    order_tok = ts.expect_ident("monomial order")
    if order_tok.value not in ("lex", "grevlex"):
        raise ParseError(
            f"unknown order {order_tok.value!r}", order_tok.line, order_tok.col
        )
    return PolyRing(field, variables, order_tok.value)


def parse_poly_list(ts, ring):
    """Comma-separated polynomials; a lone literal 0 (before ';' or the end of
    input) denotes the empty list."""
    polys = []
    first = ts.peek()
    if first.kind == "int" and first.value == 0:
        probe = ts.pos
        ts.next()
        if ts.at_sym(";") or ts.peek().kind == "eof":
            return []
        ts.pos = probe
    polys.append(parse_poly_tokens(ts, ring))
    while ts.try_sym(","):
        polys.append(parse_poly_tokens(ts, ring))
    return polys


def parse_instance(text):
    """Parse instance-file text; all polynomials come out canonical and every
    name reference is resolved."""
    ts = TokenStream(tokenize(text))
    ring = None
    ring_name = None
    ideals = {}
    modules = {}
    module_defs = {}
    regseqs = {}
    directives = []

    def check_fresh(name_tok, kind, table):
        if name_tok.value in table:
            raise ParseError(
                f"duplicate {kind} name {name_tok.value!r}",
                name_tok.line,
                name_tok.col,
            )

    def need_ring(tok):
        if ring is None:
            raise ParseError("no ring in scope", tok.line, tok.col)

    while ts.peek().kind != "eof":
        head = ts.expect_ident("statement keyword")
        if head.value == "ring":
            if ring is not None:
                raise ParseError("second ring declaration", head.line, head.col)
            ring_name = ts.expect_ident("ring name").value
            ts.expect_sym("=")
            ring = parse_ring_spec(ts)
            ts.expect_sym(";")
        elif head.value == "ideal":
            need_ring(head)
            name = ts.expect_ident("ideal name")
            check_fresh(name, "ideal", ideals)
            ts.expect_sym("=")
            polys = parse_poly_list(ts, ring)
            ts.expect_sym(";")
            ideals[name.value] = Ideal(ring, tuple(polys))
        elif head.value == "module":
            need_ring(head)
            name = ts.expect_ident("module name")
            check_fresh(name, "module", modules)
            ts.expect_sym("=")
            kw = ts.expect_ident("quotient keyword")
            if kw.value != "quotient":
                raise ParseError("expected 'quotient'", kw.line, kw.col)
            ref = ts.peek()
            if ref.kind == "int" and ref.value == 0:
                ts.next()
                defining = Ideal(ring, ())
                module_defs[name.value] = "0"
            else:
                ref = ts.expect_ident("ideal name")
                if ref.value not in ideals:
                    raise ParseError(
                        f"unresolved ideal {ref.value!r}", ref.line, ref.col
                    )
                defining = ideals[ref.value]
                module_defs[name.value] = ref.value
            ts.expect_sym(";")
            try:
                modules[name.value] = CyclicModule(ring, defining)
            except ValueError as exc:
                raise ParseError(str(exc), name.line, name.col) from None
        elif head.value == "regseq":
            need_ring(head)
            name = ts.expect_ident("sequence name")
            check_fresh(name, "regseq", regseqs)
            ts.expect_sym("=")
            polys = [parse_poly_tokens(ts, ring)]
            while ts.try_sym(","):
                polys.append(parse_poly_tokens(ts, ring))
            ts.expect_sym(";")
            regseqs[name.value] = tuple(polys)
        elif head.value == "check":
            need_ring(head)
            id_tok = ts.expect_ident("check id")
            try:
                check_id = CheckId(id_tok.value)
            except ValueError:
                raise ParseError(
                    f"unknown check {id_tok.value!r}", id_tok.line, id_tok.col
                ) from None
            ts.expect_sym("(")
            args = {}
            if not ts.at_sym(")"):
                while True:
                    key_tok = ts.expect_ident("argument name")
                    key = key_tok.value
                    if key not in _ARG_ORDER:
                        raise ParseError(
                            f"unknown argument {key!r}", key_tok.line, key_tok.col
                        )
                    if key in args:
                        raise ParseError(
                            f"duplicate argument {key!r}", key_tok.line, key_tok.col
                        )
                    ts.expect_sym("=")
                    val_tok = ts.expect_ident("name")
                    table = (
                        ideals
                        if key in _IDEAL_ARGS
                        else regseqs
                        if key in _SEQ_ARGS
                        else modules
                    )
                    if val_tok.value not in table:
                        raise ParseError(
                            f"unresolved reference {val_tok.value!r}",
                            val_tok.line,
                            val_tok.col,
                        )
                    args[key] = val_tok.value
                    if not ts.try_sym(","):
                        break
            ts.expect_sym(")")
            ts.expect_sym(";")
            if check_id not in GLOBAL_CHECKS:
                for required in ("a", "I", "M"):
                    if required not in args:
                        raise ParseError(
                            f"check {check_id.value} needs argument {required!r}",
                            id_tok.line,
                            id_tok.col,
                        )
                if "seq" not in args and ideals[args["I"]].gens:
                    raise ParseError(
                        "check needs seq= for a nonzero linking ideal",
                        id_tok.line,
                        id_tok.col,
                    )
            directives.append(CheckDirective(check_id, args, head.line))
        else:
            raise ParseError(
                f"unknown statement {head.value!r}", head.line, head.col
            )
    if ring is None:
        tok = ts.peek()
        raise ParseError("no ring in scope", tok.line, tok.col)
    return InstanceFile(
        ring=ring,
        ring_name=ring_name,
        ideals=ideals,
        modules=modules,
        module_defs=module_defs,
        regseqs=regseqs,
        directives=directives,
    )


def print_instance(parsed):
    """Canonical text form: declaration order kept, polynomials canonical,
    comments stripped, arguments in fixed order."""
    lines = []
    field = parsed.ring.field
    field_str = "QQ" if field.characteristic == 0 else f"FP({field.characteristic})"
    lines.append(
        f"ring {parsed.ring_name} = {field_str}[{', '.join(parsed.ring.vars)}] "
        f"{parsed.ring.order};"
    )
    for name, ideal in parsed.ideals.items():
        if not ideal.gens:
            lines.append(f"ideal {name} = 0;")
        else:
            lines.append(
                f"ideal {name} = {', '.join(poly_str(g) for g in ideal.gens)};"
            )
    for name in parsed.modules:
        lines.append(f"module {name} = quotient {parsed.module_defs[name]};")
    for name, seq in parsed.regseqs.items():
        lines.append(f"regseq {name} = {', '.join(poly_str(g) for g in seq)};")
    for d in parsed.directives:
        args = ", ".join(
            f"{key} = {d.args[key]}" for key in _ARG_ORDER if key in d.args
        )
        lines.append(f"check {d.check.value}({args});")
    return "\n".join(lines) + "\n"


def instance_digest(parsed):
    """Stable content hash of the canonicalized input."""
    return hashlib.sha256(print_instance(parsed).encode()).hexdigest()
