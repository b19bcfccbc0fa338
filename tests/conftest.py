import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import liaison.checks as checks_mod
import liaison.linkage as linkage_mod
from liaison import ideal_ops
from liaison.checks import run_suite
from liaison.errors import ResourceLimitError
from liaison.fields import QQ
from liaison.groebner import Ideal, module_groebner_basis, single_term_exponents, unit_vector
from liaison.instancefile import parse_instance
from liaison.monomials import monomial_radical
from liaison.rings import PolyRing

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
CORPUS_FILES = (
    "flagship.link",
    "principal_pair.link",
    "zero_link.link",
    "selflink.link",
    "fp_selflink.link",
)


@pytest.fixture(scope="session")
def r2():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture(scope="session")
def r3():
    return PolyRing(QQ, ["x", "y", "z"])


@pytest.fixture(scope="session")
def r4():
    return PolyRing(QQ, ["x1", "x2", "x3", "x4"])


@pytest.fixture(scope="session")
def corpus_files():
    return {name: (CORPUS_DIR / name).read_text() for name in CORPUS_FILES}


@pytest.fixture
def degree_four_file(tmp_path):
    """An instance file whose S_REFLEX check builds the degree-4 monomial
    x^2*y^2 (in the colon of (x^3, y^3) by (x, y)): a run exits 3 under
    --degree-cap 3 and 0 under the default cap."""
    path = tmp_path / "degree_four.link"
    path.write_text(
        "ring R = QQ[x, y] grevlex;\n"
        "ideal a = x, y;\n"
        "ideal I = x^3, y^3;\n"
        "module M = quotient 0;\n"
        "regseq s = x^3, y^3;\n"
        "check S_REFLEX(a = a, I = I, M = M, seq = s);\n"
    )
    return path


@pytest.fixture(scope="session")
def corpus_instances(corpus_files):
    """(file name, LinkageInstance) pairs from every shipped corpus file."""
    out = []
    for name, text in corpus_files.items():
        parsed = parse_instance(text)
        for inst in parsed.instances():
            out.append((name, inst))
    return out


def random_polynomial(rng, ring, max_degree=3, max_terms=4, zero_ok=False):
    """Small random polynomial with coefficients in [-3, 3]."""
    n_terms = rng.randrange(1, max_terms + 1)
    items = []
    for _ in range(n_terms):
        degree = rng.randrange(max_degree + 1)
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rng.randrange(ring.nvars)] += 1
        coeff = rng.randrange(-3, 4)
        items.append((tuple(exps), ring.field.of(coeff)))
    p = ring.poly((e, c) for e, c in items if c != ring.field.zero)
    if p.is_zero() and not zero_ok:
        return ring.one
    return p


def random_monomial(rng, ring, max_degree=3, squarefree=False):
    if squarefree:
        while True:
            exps = tuple(rng.randrange(2) for _ in range(ring.nvars))
            if any(exps):
                return exps
    while True:
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(1, max_degree + 1)):
            exps[rng.randrange(ring.nvars)] += 1
        if any(exps):
            return tuple(exps)


def random_monomial_ideal(rng, ring, max_gens=4, max_degree=3, squarefree=False):
    n = rng.randrange(1, max_gens + 1)
    gens = {random_monomial(rng, ring, max_degree, squarefree) for _ in range(n)}
    return Ideal(ring, tuple(ring.monomial(e) for e in sorted(gens)))


def seeded(seed):
    return random.Random(seed)


def syzygy_oracle(rows):
    """Generators of the syzygies of rows (of one rank r), found without the
    pair loop's syzygies: the reduced module basis of the rows (g_i | e_i),
    position over term, eliminates the first r coordinates, so its rows that
    vanish there carry the syzygies in their tails."""
    rank, n = len(rows[0]), len(rows)
    ring = rows[0][0].ring
    tagged = [tuple(g) + unit_vector(ring, n, i) for i, g in enumerate(rows)]
    basis = module_groebner_basis(tagged)
    return [row[rank:] for row in basis if not any(row[:rank])]


def to_sympy(sympy, p, symbols, modulus):
    """p as a sympy expression in symbols; GF(p) coefficients as integers."""
    expr = sympy.Integer(0)
    for exps, coeff in p.terms:
        if modulus:
            term = sympy.Integer(coeff)
        else:
            term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, exps):
            term *= s**e
        expr += term
    return expr


def from_sympy(poly, ring):
    """The monic polynomial of ring with the terms of the sympy Poly poly."""
    items = []
    for exps, coeff in poly.terms():
        if ring.field.characteristic:
            items.append((exps, ring.field.of(int(coeff))))
        else:
            items.append((exps, Fraction(int(coeff.p), int(coeff.q))))
    return ring.poly(items).monic()


def load_perfbench(name, monkeypatch):
    """The benchmark module perfbench/NAME.py, loaded from its file."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # run.py imports workloads
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def reference_workload_files(tmp_path_factory):
    """{workload: files} for the benchmark's three workloads at its reference
    seed: the corpus, and the gen-wide and nonmonomial files built the way
    the benchmark builds them."""
    with pytest.MonkeyPatch.context() as mp:
        run = load_perfbench("run", mp)
    files = {"corpus": sorted(CORPUS_DIR.glob("*.link"))}
    for workload in ("gen-wide", "nonmonomial"):
        workdir = tmp_path_factory.mktemp(workload)
        built = run.workloads.build(
            workload, run.REFERENCE_SEED, CORPUS_DIR.parent, workdir, run.child_env()
        )
        files[workload] = built.files
    return files


def _fuzz_texts():
    """The texts of test_fuzz's files, seed by seed."""
    # imported on use: test_fuzz imports this module
    from test_fuzz import (
        ALTERNATE_SEEDS,
        FILES_PER_SEED,
        LINKED_SEEDS,
        PARTNER_SEEDS,
        SEEDS,
        linked_instance,
        random_instance,
    )

    for seed in SEEDS + PARTNER_SEEDS:
        rng = random.Random(seed)
        partners = seed in PARTNER_SEEDS
        yield from (random_instance(rng, partners) for _ in range(FILES_PER_SEED))
    for seed in LINKED_SEEDS + ALTERNATE_SEEDS:
        rng = random.Random(seed)
        alternate = seed in ALTERNATE_SEEDS
        yield from (linked_instance(rng, alternate) for _ in range(FILES_PER_SEED))


def _monomial_basis(I):
    gb = I.groebner()
    return bool(gb) and all(len(g.terms) == 1 for g in gb)


@pytest.fixture(scope="session")
def workload_pass(reference_workload_files):
    """One run_suite of each reference-seed workload file and then of each
    fuzz file, recording what the workload-wide differential tests compare
    against the general routes; each question is kept once, as first asked:
    - "grades": the ideals over M = R that the checks ask grade_oracle for;
    - "radicals": the radicals that cd_monomial reduces to, on the workload
      files only;
    - "members": the (I, f) that Ideal.contains answers over a reduced basis
      of monomials;
    - "carried": each result of Ideal.reduced, by (ring, gens, basis);
    - "radical_questions": the (f, I) that radical_membership answers for an
      I with a generator that is not a monomial;
    - "runs": each file's (directives, verdicts)."""
    seen = {key: {} for key in ("grades", "radicals", "members", "carried", "radical_questions")}
    runs = []
    true_grade, true_cd = checks_mod.grade_oracle, linkage_mod.cd_monomial
    true_contains, true_reduced = Ideal.contains, Ideal.reduced.__func__
    true_membership = ideal_ops.radical_membership

    def recording_grade(a, M):
        if M.is_free() and not a.is_unit():
            seen["grades"].setdefault((a.ring, a.gens_key()), a)
        return true_grade(a, M)

    def recording_cd(a):
        if not a.is_unit():
            radical = monomial_radical(a)
            seen["radicals"].setdefault((a.ring, radical.gens_key()), radical)
        return true_cd(a)

    def recording_contains(I, f):
        if _monomial_basis(I):
            seen["members"].setdefault((I.ring, I.groebner(), f), I)
        return true_contains(I, f)

    def recording_reduced(cls, ring, basis):
        ideal = true_reduced(cls, ring, basis)
        seen["carried"].setdefault((ring, ideal.gens, ideal.groebner()), ideal)
        return ideal

    def recording_membership(f, I):
        if single_term_exponents(I.gens) is None:
            seen["radical_questions"].setdefault((f, I.ring, I.gens_key()), (f, I))
        return true_membership(f, I)

    def run(text):
        try:
            parsed = parse_instance(text)
        except ResourceLimitError:
            return
        runs.append((parsed.directives, run_suite(parsed)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks_mod, "grade_oracle", recording_grade)
        mp.setattr(Ideal, "contains", recording_contains)
        mp.setattr(Ideal, "reduced", classmethod(recording_reduced))
        for module in list(sys.modules.values()):
            if getattr(module, "radical_membership", None) is true_membership:
                mp.setattr(module, "radical_membership", recording_membership)
        mp.setattr(linkage_mod, "cd_monomial", recording_cd)
        for paths in reference_workload_files.values():
            for path in paths:
                run(path.read_text())
        mp.setattr(linkage_mod, "cd_monomial", true_cd)
        for text in _fuzz_texts():
            run(text)
    return {**seen, "runs": runs}
