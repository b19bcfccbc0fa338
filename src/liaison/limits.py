"""Per-run resource caps and memo.

A run (`liaison run`, `checks.run_suite` nested inside it, `liaison compute`)
opens a RunContext, held in a context variable; `_RUN.get()` is the open one,
or None outside a run.  Every polynomial built is checked against a total-degree
cap (the run's, else the default) and a term-count cap, every row that the
Buchberger pair loop keeps against a coefficient-size cap, and blowing past
any of them aborts with ResourceLimitError instead of grinding on.  The run
also memoizes exact computations whose value depends only on their key, so
it makes each once; only completed values are stored, and only until it
ends.
"""

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import ResourceLimitError

DEFAULT_DEGREE_CAP = 128
TERM_CAP = 200_000
# Bits of the numerator or denominator of one coefficient.
COEFF_BITS_CAP = 16_384

_RUN = ContextVar("liaison_run", default=None)
# A memo miss; None cannot mark one, since valid witnesses memoize None.
_MISSING = object()


class RunContext:
    """The degree cap and the memo of one run."""

    __slots__ = ("degree_cap", "memo")

    def __init__(self, degree_cap):
        if degree_cap < 1:
            raise ValueError("degree cap must be positive")
        self.degree_cap = degree_cap
        self.memo = {}


def _degree_cap():
    run = _RUN.get()
    return run.degree_cap if run else DEFAULT_DEGREE_CAP


@contextmanager
def run_context(degree=None):
    """A run with an empty memo, under the enclosing degree cap if none given."""
    run = RunContext(_degree_cap() if degree is None else degree)
    token = _RUN.set(run)
    try:
        yield run
    finally:
        _RUN.reset(token)


def memo(kind, key, compute):
    """compute() once per (kind, key) in the open run; outside a run, always.
    An exception (a ResourceLimitError among them) stores nothing."""
    run = _RUN.get()
    if run is None:
        return compute()
    slot = (kind, key)
    value = run.memo.get(slot, _MISSING)
    if value is _MISSING:
        value = run.memo[slot] = compute()
    return value


def check_terms(n_terms, max_degree):
    degree_cap = _degree_cap()
    if max_degree > degree_cap:
        raise ResourceLimitError(
            f"polynomial degree {max_degree} exceeds cap {degree_cap}"
        )
    if n_terms > TERM_CAP:
        raise ResourceLimitError(
            f"polynomial with {n_terms} terms exceeds cap {TERM_CAP}"
        )

