"""The benchmark traces functions by name; a renamed or deleted one would be
skipped silently and its metrics would read 0, so the names are checked here."""

import importlib.util
from pathlib import Path

from liaison import checks

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports workloads
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_exists(monkeypatch):
    child = _load("child", monkeypatch)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in child.SPANNED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_check_functions_are_the_check_runners(monkeypatch):
    run = _load("run", monkeypatch)
    runners = {fn.__name__ for fn in checks.CHECK_RUNNERS.values()}
    assert set(run.CHECK_FUNCTIONS) == runners
    assert len(runners) == len(checks.CHECK_RUNNERS)
