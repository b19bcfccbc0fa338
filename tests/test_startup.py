"""What a cold `liaison` process imports.

Each case runs a fresh interpreter (no bytecode written, sources from src/)
and lists the modules that the CLI adds to a bare interpreter's
``sys.modules``.  Only the difference is meaningful: ``site`` may already
load modules (for example ``importlib.resources`` through a ``.pth`` file).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """\
import sys
before = set(sys.modules)
import liaison.cli
code = liaison.cli.main(sys.argv[1:])
sys.stderr.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

NEVER_AT_RUN = (
    "dataclasses",
    "inspect",
    "random",
    "liaison.generate",
    "fractions",
    "decimal",
    "argparse",
    "gettext",
    "locale",
    "_hashlib",
)


def _loaded(*argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split("\n"))


def test_run_loads_only_what_it_uses():
    loaded = _loaded("run", "corpus/flagship.link", "--format", "json")
    assert "liaison.checks" in loaded
    assert loaded.isdisjoint(NEVER_AT_RUN), sorted(loaded.intersection(NEVER_AT_RUN))


def test_compute_loads_only_what_it_uses():
    loaded = _loaded("compute", "colon", "--ring", "QQ[x,y]", "--ideal", "x*y", "--by", "x")
    assert loaded.isdisjoint(NEVER_AT_RUN), sorted(loaded.intersection(NEVER_AT_RUN))


def test_gen_loads_the_generator():
    loaded = _loaded("gen", "--seed", "1", "--profile", "self-links", "--count", "1")
    assert "liaison.generate" in loaded
    never = set(NEVER_AT_RUN) - {"liaison.generate", "random"}
    assert loaded.isdisjoint(never), sorted(loaded.intersection(never))


def test_a_non_integral_coefficient_loads_fractions(tmp_path):
    link = tmp_path / "half.link"
    link.write_text(
        "ring R = QQ[x1, x2] grevlex;\n"
        "ideal a = 3/2*x1;\n"
        "ideal b = x2;\n"
        "ideal I = x1*x2;\n"
        "module M = quotient 0;\n"
        "regseq s = x1*x2;\n"
        "check L07(a = a, b = b, I = I, M = M, seq = s);\n"
    )
    loaded = _loaded("run", str(link), "--format", "json")
    assert "fractions" in loaded
