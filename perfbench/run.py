"""Benchmark of the liaison CLI: time to a verdict per instance file.

Usage:
    python3 perfbench/run.py --workload corpus|gen-wide|nonmonomial
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --write-reference

Each instance file runs as ``liaison run FILE --format json`` in a fresh
interpreter (``child.py``), one child at a time, with a pinned environment,
because that is what a CLI user pays on every call: module-level caches start
cold.

``--trace 0`` cycles through the workload's files for S seconds and reports
the end-to-end metrics: per-file medians over the repetitions, summed over the
files.  The gated metrics are CPU times, because on a shared virtual machine
other guests take a varying share of the wall clock; the wall-clock figures
are printed beside them.  ``--trace 1`` runs every file once with only the
check clock and once traced, and reports the per-layer metrics plus the
tracing overhead.
Every run checks each report against ``reference.json``; the last line of
standard output is one JSON object with the result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 1
CHILD_TIMEOUT = 120
SETUP_REPS = 5

# What a CLI call pays before its first check: a fresh interpreter, importing
# the CLI, and parsing the file.
SETUP_PROBE = (
    "import sys, liaison.cli\n"
    "from liaison.instancefile import parse_instance\n"
    "with open(sys.argv[1]) as f:\n"
    "    parse_instance(f.read())\n"
)


def child_env():
    """The same environment for every child: no inherited PYTHON* settings,
    the checkout's sources first, no bytecode written, fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


class Child:
    """One finished child process: exit code, wall and CPU seconds, peak RSS."""

    def __init__(self, argv, env, workdir):
        out_path, err_path = workdir / "child.out", workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.timed_out = self.code == -9
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.meta = None
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()


def run_file(path, mode, env, workdir):
    """``liaison run FILE --format json`` in a fresh interpreter, under
    child.py in ``mode``; the child's side output lands in ``child.meta``."""
    out = workdir / "child"
    for suffix in (".json", ".spans"):
        Path(f"{out}{suffix}").unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), mode, str(out), "--",
            "run", str(path), "--format", "json"]
    child = Child(argv, env, workdir)
    try:
        child.meta = json.loads(Path(f"{out}.json").read_text())
    except (OSError, ValueError):
        child.meta = None
    return child


# -- correctness --------------------------------------------------------------


def normalized(report):
    """The report without its timings, as canonical JSON."""
    plain = dict(report, verdicts=[{k: v for k, v in verdict.items() if k != "millis"}
                                   for verdict in report["verdicts"]])
    return json.dumps(plain, sort_keys=True)


def signature(report):
    """What must not change under the seeded transforms: each verdict's check,
    status, and integer and boolean details (degrees, grades, cd values)."""
    sig = [
        [v["check"], v["status"],
         sorted((k, x) for k, x in v["details"].items() if isinstance(x, (bool, int)))]
        for v in report["verdicts"]
    ]
    return json.dumps(sig, sort_keys=True)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Checks every report of a run and counts failed files."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.expected = reference.get(workload.name, {})
        # The corpus files do not depend on the seed, so their full reports
        # are checked at every seed; transformed files only at the
        # reference seed.
        self.full = workload.name == "corpus" or workload.seed == REFERENCE_SEED
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, path, child):
        """Record one run of ``path``; return its report, or None if it failed."""
        self.attempted += 1
        problem, report = self._problem(path, child)
        if problem:
            self.failed += 1
            self.problems.append(f"{path.name}: {problem}")
            return None
        return report

    def _problem(self, path, child):
        if child.timed_out:
            return "timed out", None
        if "Traceback" in child.stderr:
            return "traceback on stderr", None
        ref = self.expected.get(path.name)
        if ref is None:
            return "no reference entry", None
        if child.code != ref["exit"]:
            return f"exit {child.code}, expected {ref['exit']}", None
        try:
            report = json.loads(child.stdout)
            sig = sha(signature(report))
        except (ValueError, KeyError, TypeError):
            return "stdout is not a JSON report", None
        n_checks = sum(line.startswith("check ") for line in path.read_text().splitlines())
        if len(report["verdicts"]) != n_checks:
            return f"{len(report['verdicts'])} verdicts for {n_checks} checks", None
        if sig != ref["signature"]:
            return "verdict signature differs from the reference", None
        body = normalized(report)
        if self.full and sha(body) != ref["report"]:
            return "report differs from the reference", None
        if not child.meta or len(child.meta["check_cpu_ms"]) != n_checks:
            return "per-check CPU times missing", None
        if self.first.setdefault(path.name, body) != body:
            return "report differs between repetitions", None
        return None, report


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def write_reference(workload, env, workdir):
    reference = load_reference()
    entries = {}
    for path in workload.files:
        child = run_file(path, "clock", env, workdir)
        report = json.loads(child.stdout)
        entries[path.name] = {
            "exit": child.code,
            "signature": sha(signature(report)),
            "report": sha(normalized(report)),
        }
        print(f"{path.name}: exit {child.code}, {len(report['verdicts'])} verdicts")
    reference[workload.name] = entries
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


# -- timed run ------------------------------------------------------------------


def measure_setup(files, env, workdir):
    """CPU seconds of a fresh interpreter that imports the CLI and parses the
    file: median of SETUP_REPS per file, summed over the files."""
    times = {path: [] for path in files}
    for _ in range(SETUP_REPS):
        for path in files:
            child = Child([sys.executable, "-c", SETUP_PROBE, str(path)], env, workdir)
            if child.code != 0:
                raise RuntimeError(f"setup probe failed on {path.name}: {child.stderr}")
            times[path].append(child.cpu)
    return sum(statistics.median(t) for t in times.values())


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else (values or [0.0]) * 3


def timed_run(workload, seconds, env, workdir, gate):
    setup_s = measure_setup(workload.files, env, workdir)
    samples = {path: [] for path in workload.files}
    start = time.perf_counter()
    i = 0
    while True:
        path = workload.files[i % len(workload.files)]
        done = samples[path]
        # Every file runs at least once; after that a file starts only if its
        # usual time still fits in the budget.
        if done and time.perf_counter() - start + statistics.median(c.wall for c, _ in done) > seconds:
            break
        child = run_file(path, "clock", env, workdir)
        done.append((child, gate.check(path, child)))
        i += 1

    ok = [runs for runs in samples.values() if all(r is not None for _, r in runs)]

    def summed(value, groups):
        return sum(statistics.median(value(c, r) for c, r in runs) for runs in groups)

    def per_verdict(times):
        return [statistics.median(times(c, r)[k] for c, r in runs)
                for runs in ok for k in range(len(runs[0][1]["verdicts"]))]

    cpu_ms = per_verdict(lambda c, r: c.meta["check_cpu_ms"])
    cpu_q = _quartiles(cpu_ms)
    wall_q = _quartiles(per_verdict(lambda c, r: [v["millis"] for v in r["verdicts"]]))
    metrics = {
        "cpu_s": (summed(lambda c, r: c.cpu, samples.values()), "s"),
        "check_cpu_s": (summed(lambda c, r: sum(c.meta["check_cpu_ms"]), ok) / 1000, "s"),
        "check_cpu_ms.p50": (cpu_q[1], "ms"),
        "check_cpu_ms.p75": (cpu_q[2], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(c.rss_mb for runs in samples.values() for c, _ in runs), "MB"),
    }
    wall = {
        "wall_s": (summed(lambda c, r: c.wall, samples.values()), "s"),
        "check_s": (summed(lambda c, r: sum(v["millis"] for v in r["verdicts"]), ok) / 1000, "s"),
        "check_ms.p50": (wall_q[1], "ms"),
        "check_ms.p75": (wall_q[2], "ms"),
    }
    reps = sorted({len(runs) for runs in samples.values()})
    notes = [
        f"repetitions per file: {reps}",
        f"check percentiles over {len(cpu_ms)} verdicts (per-verdict medians)",
        f"fail_ratio: {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.4f} ratio",
    ] + [f"{name}: {value:.6g} {unit} (wall clock, not gated)" for name, (value, unit) in wall.items()]
    return metrics, notes


# -- traced run -----------------------------------------------------------------

LAYER_MODULES = ("groebner", "ideal_ops", "monomials", "resolutions", "linkage", "checks", "instancefile")
SELF_S = (
    "groebner.reduced_groebner_basis", "groebner.buchberger", "groebner.reduce_normal_form",
    "groebner.syzygy_module", "groebner.module_groebner_basis",
    "ideal_ops.intersect_ideals", "ideal_ops.ideal_quotient", "ideal_ops.radical_membership",
    "monomials.hochster_pd", "monomials.reduced_homology_dims",
    "resolutions.free_resolution", "resolutions.ext_nonzero",
    "linkage.validate_witness", "instancefile.parse_instance",
)
# associated_primes_monomial is counted but not timed: nonmonomial never calls
# it, and a time that is exactly 0 on every run reads as a constant.
CALLS = SELF_S[:-1] + (
    "monomials.associated_primes_monomial", "resolutions.grade_via_ext", "linkage.is_linked",
)
CHECK_FUNCTIONS = (
    "check_structure", "check_ass_containment", "check_mv_bound", "check_vanishing_pattern",
    "check_grade_formula", "check_cd_formula", "check_e3_identity", "check_aprime",
    "check_c4", "check_s_reflex", "check_c11", "check_t1", "check_c1",
)
DISTINCT = ("groebner.reduced_groebner_basis", "monomials.hochster_pd", "linkage.validate_witness")
SHARE = ("ideal_ops.intersect_ideals", "ideal_ops.ideal_quotient")
COUNTS = ("fields.qq_ops", "fields.gf_ops", "rings.poly.calls")
PEAKS = ("limits.peak_degree", "limits.peak_terms")


def read_spans(meta, path):
    """Calls and self seconds per span name, from one traced process."""
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path, "rb") as handle:
        for arr in arrays:
            arr.fromfile(handle, n)
    names, parents, starts, ends = arrays
    duration = [e - s for s, e in zip(starts, ends)]
    covered = [0.0] * n
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += duration[i]
    calls, self_s = {}, {}
    for i, idx in enumerate(names):
        name = meta["names"][idx]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration[i] - covered[i]
    return calls, self_s


def trace_files(files, env, workdir, gate):
    """Per-layer metrics of one traced pass over ``files``, plus its CPU."""
    calls, self_s, distinct, monomial, counts = {}, {}, {}, {}, {}
    cpu = 0.0
    for path in files:
        child = run_file(path, "trace", env, workdir)
        if gate.check(path, child) is None:
            continue
        cpu += child.cpu
        meta = child.meta
        c, s = read_spans(meta, workdir / "child.spans")
        for table, part in ((calls, c), (self_s, s), (distinct, meta["distinct"]),
                            (monomial, meta["monomial_calls"])):
            for k, v in part.items():
                table[k] = table.get(k, 0) + v
        for k, v in meta["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k in PEAKS else counts.get(k, 0) + v
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_S:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in DISTINCT:
        metrics[f"{name}.distinct"] = (distinct.get(name, 0), "count")
    for name in SHARE:
        metrics[f"{name}.monomial_share"] = (monomial.get(name, 0) / max(calls.get(name, 0), 1), "ratio")
    for fn in CHECK_FUNCTIONS:
        metrics[f"checks.{fn}.self_s"] = (self_s.get(f"checks.{fn}", 0.0), "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["limits.peak_degree"] = (counts.get("limits.peak_degree", 0), "degree")
    metrics["limits.peak_terms"] = (counts.get("limits.peak_terms", 0), "terms")
    for module in LAYER_MODULES:
        total = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        metrics[f"layer.{module}.self_s"] = (total, "s")
    return metrics, cpu


def traced_run(workload, env, workdir, gate):
    untraced = 0.0
    for path in workload.files:
        child = run_file(path, "clock", env, workdir)
        gate.check(path, child)
        untraced += child.cpu
    metrics, traced = trace_files(workload.files, env, workdir, gate)
    metrics["trace.overhead_cpu_s"] = (traced - untraced, "s")
    layers = sorted(((v[0], k) for k, v in metrics.items() if k.startswith("layer.")), reverse=True)
    notes = [f"untraced cpu_s {untraced:.3f}, traced cpu_s {traced:.3f}",
             "self time by layer: " + ", ".join(f"{k[6:-7]} {v:.3f} s" for v, k in layers)]
    return metrics, notes


# -- entry point ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record exit codes and report digests at seed {REFERENCE_SEED}")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "liaison" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no liaison sources under {ROOT}", file=sys.stderr)
        return 2
    env = child_env()
    workdir = BENCH / f".work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.write_reference:
            args.seed = REFERENCE_SEED
        workload = workloads.build(args.workload, args.seed, ROOT, workdir, env)
        print(f"workload {workload.name}: seed {workload.seed}, "
              f"{len(workload.files)} files, {json.dumps(workload.params)}")
        if args.write_reference:
            write_reference(workload, env, workdir)
            return 0
        gate = Gate(workload, load_reference())
        if args.trace:
            metrics, notes = traced_run(workload, env, workdir, gate)
        else:
            metrics, notes = timed_run(workload, args.seconds, env, workdir, gate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes + gate.problems:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
