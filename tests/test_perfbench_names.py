"""The benchmark traces functions by name; a renamed or deleted one would be
skipped silently and its metrics would read 0, so the names are checked here."""

from conftest import load_perfbench
from liaison import checks


def test_every_spanned_name_exists(monkeypatch):
    child = load_perfbench("child", monkeypatch)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in child.SPANNED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_check_functions_are_the_check_runners(monkeypatch):
    run = load_perfbench("run", monkeypatch)
    runners = {fn.__name__ for fn in checks.CHECK_RUNNERS.values()}
    assert set(run.CHECK_FUNCTIONS) == runners
    assert len(runners) == len(checks.CHECK_RUNNERS)
