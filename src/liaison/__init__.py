"""liaison: exact linkage calculus for ideals over cyclic modules.

A stdlib-only computer-algebra kernel (polynomial rings over QQ or GF(p),
Groebner bases, colon-ideal calculus, monomial-ideal combinatorics, free
resolutions and Ext) together with linkage predicates, a statement-checking
harness, an instance-file format, and a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    LiaisonError,
    ParseError,
    ResourceLimitError,
    RingMismatchError,
    WitnessError,
)
from .fields import GF, QQ
from .groebner import (
    Ideal,
    ideal_sum,
    module_groebner_basis,
    reduce_normal_form,
    reduced_groebner_basis,
    syzygy_module,
)
from .ideal_ops import (
    ideal_contains,
    ideal_equal,
    ideal_quotient,
    intersect_ideals,
    radical_membership,
    radicals_equal,
    saturate,
)
from .parse import parse_polynomial
from .rings import Polynomial, PolyRing

__all__ = [
    "GF",
    "QQ",
    "Ideal",
    "LiaisonError",
    "ParseError",
    "Polynomial",
    "PolyRing",
    "ResourceLimitError",
    "RingMismatchError",
    "WitnessError",
    "ideal_contains",
    "ideal_equal",
    "ideal_quotient",
    "intersect_ideals",
    "module_groebner_basis",
    "parse_polynomial",
    "radical_membership",
    "radicals_equal",
    "reduce_normal_form",
    "reduced_groebner_basis",
    "saturate",
    "syzygy_module",
    "__version__",
]
