"""Every Python file of the project parses under the Python 3.10 grammar.

pyproject.toml declares ``requires-python >= 3.10``, so a construct from a
later grammar (``except*``, type parameter lists, ...) would break the oldest
supported interpreter even where the tests run on a newer one.
``ast.parse(..., feature_version=(3, 10))`` refuses such constructs (on a
best-effort basis, as the ``ast`` documentation says).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOPS = ("src", "tests", "demos", "perfbench")


def test_sources_parse_as_python_3_10():
    paths = sorted(path for top in TOPS for path in (ROOT / top).rglob("*.py"))
    assert {path.relative_to(ROOT).parts[0] for path in paths} == set(TOPS)
    refused = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not refused, refused
