"""Self-tests of the benchmark: traced counts repeat exactly, and the input
rewrites do what their docstrings say.

Run with: python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import workloads  # noqa: E402

# Small files that still reach every traced layer, GF(p) included.
SUBSETS = {
    "corpus": {"principal_pair.link", "fp_selflink.link", "zero_link.link"},
    "nonmonomial": {"geometric-links-4.link"},
}


def _traced_counts(name, workdir):
    env = run.child_env()
    workload = workloads.build(name, run.REFERENCE_SEED, run.ROOT, workdir, env)
    files = [f for f in workload.files if f.name in SUBSETS[name]]
    gate = run.Gate(workload, run.load_reference())
    metrics, _ = run.trace_files(files, env, workdir, gate)
    assert gate.failed == 0, gate.problems
    return {key: value for key, (value, unit) in metrics.items() if unit != "s"}


def test_traced_counts_repeat(tmp_path):
    counts = {}
    for name in SUBSETS:
        counts[name] = _traced_counts(name, tmp_path / "first")
        assert _traced_counts(name, tmp_path / "second") == counts[name]
        assert counts[name]["groebner.reduced_groebner_basis.calls"] > 0
        assert counts[name]["linkage.validate_witness.distinct"] > 0
        assert counts[name]["fields.qq_ops"] > 0
    assert counts["corpus"]["fields.gf_ops"] > 0
    assert counts["corpus"]["ideal_ops.intersect_ideals.monomial_share"] == 1
    assert counts["nonmonomial"]["ideal_ops.intersect_ideals.monomial_share"] < 1


def test_triangular_rewrite_expands_the_substitution():
    text = "ideal a = x1^2, x2;\nregseq s = x1*x2;\nring R = QQ[x1, x2] grevlex;\n"
    out = workloads.triangular_rewrite(text, [2])
    assert out.splitlines() == [
        "ideal a = x1^2 + 4*x1*x2 + 4*x2^2, x2;",
        "regseq s = x1*x2 + 2*x2^2;",
        "ring R = QQ[x1, x2] grevlex;",
    ]


def test_permutation_renames_generators_only():
    text = "ring R = QQ[x1, x2, x3] grevlex;\nideal a = x1*x3, x2;\n"
    out = workloads.permute_variables(text, [3, 1, 2])
    assert out == "ring R = QQ[x1, x2, x3] grevlex;\nideal a = x3*x2, x1;\n"
