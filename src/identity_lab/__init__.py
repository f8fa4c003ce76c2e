"""Finite identity structures and the colorings that realize them.

An identity is a finite ground set 0..n-1 together with an equivalence
relation on a family of its subsets, where equivalent subsets have equal
size.  The package builds the duplication/restriction closure catalog,
decides the ranked-coloring criterion, constructs the explicit separating
families, and brute-forces realization questions against concrete finite
colorings.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core import (
    Identity,
    Embedding,
    canonical_form,
    embeds,
    from_json,
    identity_from_subsets,
    permute,
    to_json,
    to_pairs,
    validate,
)
from .families import (
    LabeledIdentity,
    SimplifyError,
    is_meet_respecting,
    max_meet_identity,
    meet,
    order_forcing_extension,
    s_doubleprime_n,
    s_k,
    s_prime_n,
    simplify_k,
    trivial,
    trivial_full,
)
from .closure import (
    Catalog,
    CatalogEntry,
    catalog_from_json,
    catalog_to_json,
    duplicate,
    generate_catalog,
    member_of_catalog,
    replay_trace,
    restrict,
)
from .criterion import CriterionVerdict, check, explain
from .oracle import (
    Coloring,
    Realization,
    arrow_check,
    builtin_coloring,
    coloring_from_json,
    coloring_to_json,
    id_of,
    normalize_vertex_colors,
    product_coloring,
    realizes,
)
from .errors import SizeGuardError, UsageError

# every public name imported above, and nothing else
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
