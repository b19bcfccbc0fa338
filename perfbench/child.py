"""The child side of the benchmark: run the liaison CLI in this process.

Usage: python3 perfbench/child.py clock|trace OUT -- run FILE --format json

``clock`` reads the process CPU clock around each check (``checks.run_check``)
and writes the per-check CPU milliseconds, in verdict order, to ``OUT.json``.
Wall-clock ``millis`` in the report include time the process waited for a
CPU; the CPU clock does not.

``trace`` also traces the layers.  Every traced function is rebound, from
outside the package, in each ``liaison`` module namespace (and module-level
dict) that holds it: ``from .x import f`` copies the binding, while calls
inside a module look their globals up at call time, so rebinding every
holder catches every call.  Spans (name, start, end, parent) are kept in
typed arrays and written out when the CLI returns: ``OUT.json`` also holds
names, counters and distinct-key counts, and ``OUT.spans`` holds the span
arrays, for the parent to turn into self times.
"""

import json
import sys
import time
from array import array

import liaison.cli
from liaison import checks, fields, groebner, ideal_ops, instancefile, limits
from liaison import linkage, monomials, resolutions, rings

SPANNED = [
    (groebner, "reduced_groebner_basis"),
    (groebner, "buchberger"),
    (groebner, "reduce_normal_form"),
    (groebner, "syzygy_module"),
    (groebner, "module_groebner_basis"),
    (ideal_ops, "intersect_ideals"),
    (ideal_ops, "ideal_quotient"),
    (ideal_ops, "radical_membership"),
    (monomials, "hochster_pd"),
    (monomials, "reduced_homology_dims"),
    (monomials, "associated_primes_monomial"),
    (resolutions, "free_resolution"),
    (resolutions, "ext_nonzero"),
    (resolutions, "grade_via_ext"),
    (linkage, "validate_witness"),
    (linkage, "is_linked"),
    (instancefile, "parse_instance"),
] + [(checks, fn.__name__) for fn in checks.CHECK_RUNNERS.values()]

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")


def _gens_key(gens):
    return frozenset(g for g in gens if g.terms)


def _all_monomial(*ideals):
    return all(len(g.terms) <= 1 for I in ideals for g in I.gens)


# Distinct-key functions, by span name: the input that a per-run memo would
# be keyed on.
DISTINCT = {
    "groebner.reduced_groebner_basis": lambda gens, ring=None: (
        ring if ring is not None else next((g.ring for g in gens), None),
        _gens_key(gens),
    ),
    "monomials.hochster_pd": lambda I: (I.ring, _gens_key(I.gens)),
    "linkage.validate_witness": lambda witness, I, M: (
        witness.elements,
        I.ring,
        _gens_key(I.gens),
        _gens_key(M.defining_ideal.gens),
    ),
}
# Share of calls whose inputs are all monomial, by span name.
MONOMIAL_SHARE = {"ideal_ops.intersect_ideals", "ideal_ops.ideal_quotient"}


class Trace:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.distinct = {}
        self.monomial_calls = {}
        self.counts = {"fields.qq_ops": 0, "fields.gf_ops": 0, "rings.poly.calls": 0}
        self.peaks = {"limits.peak_degree": 0, "limits.peak_terms": 0}

    def spanned(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        key_of = DISTINCT.get(name)
        keys = self.distinct.setdefault(name, set()) if key_of else None
        share = name in MONOMIAL_SHARE
        if share:
            self.monomial_calls[name] = 0
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(key_of(*args, **kwargs))
            if share and _all_monomial(*args):
                self.monomial_calls[name] += 1
            i = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def peak_checker(self, fn):
        peaks = self.peaks

        def check_terms(n_terms, max_degree):
            if max_degree > peaks["limits.peak_degree"]:
                peaks["limits.peak_degree"] = max_degree
            if n_terms > peaks["limits.peak_terms"]:
                peaks["limits.peak_terms"] = n_terms
            return fn(n_terms, max_degree)

        return check_terms

    def install(self):
        for module, attr in SPANNED:
            layer = module.__name__.rsplit(".", 1)[1]
            original = getattr(module, attr, None)
            if original is None:
                continue  # gone from the program: its metrics read 0 calls
            _rebind(original, self.spanned(f"{layer}.{attr}", original))
        limits.check_terms = self.peak_checker(limits.check_terms)
        rings.PolyRing.poly = self.counted("rings.poly.calls", rings.PolyRing.poly)
        for cls, name in ((fields.RationalField, "fields.qq_ops"), (fields.PrimeField, "fields.gf_ops")):
            for op in FIELD_OPS:
                setattr(cls, op, self.counted(name, getattr(cls, op)))

    def meta(self, out):
        """Write the span arrays to ``OUT.spans``; return the rest."""
        with open(out + ".spans", "wb") as handle:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)
        return {
            "names": self.names,
            "spans": len(self.span_name),
            "counts": {**self.counts, **self.peaks},
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "monomial_calls": self.monomial_calls,
        }


def _rebind(original, wrapper):
    for name, module in list(sys.modules.items()):
        if not name.startswith("liaison"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is original:
                        value[key] = wrapper


class CheckClock:
    """Process CPU milliseconds of each check, in the order checks run."""

    def __init__(self):
        self.cpu_ms = []

    def install(self):
        run_check = checks.run_check
        cpu_ms = self.cpu_ms
        clock = time.process_time

        def timed_check(*args, **kwargs):
            start = clock()
            verdict = run_check(*args, **kwargs)
            cpu_ms.append((clock() - start) * 1000.0)
            return verdict

        checks.run_check = timed_check


def main(argv):
    mode, out, sep, cli_args = argv[0], argv[1], argv[2], argv[3:]
    if mode not in ("clock", "trace") or sep != "--":
        raise SystemExit("usage: child.py clock|trace OUT -- CLI-ARGS")
    clock = CheckClock()
    clock.install()
    trace = Trace() if mode == "trace" else None
    if trace:
        trace.install()
    try:
        return liaison.cli.main(cli_args)
    finally:
        meta = trace.meta(out) if trace else {}
        with open(out + ".json", "w") as handle:
            json.dump({**meta, "check_cpu_ms": clock.cpu_ms}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
