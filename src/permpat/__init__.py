"""permpat: generalized permutation pattern matching.

The package decides, counts and enumerates matchings of (generalized)
permutation patterns into texts, builds matching instances from
independent-set questions through an auditable three-stage construction,
and cross-checks the matching engines with an independent first-order
model checker.
"""

from .core import (
    BudgetExceededError,
    Embedding,
    GeneralizedPattern,
    Graph,
    MultisetHalves,
    Permutation,
    ValidationError,
)
from .folog import (
    FoFormula,
    FoStructure,
    encode_formula,
    encode_structure,
    export_instance,
    model_check,
    parse_instance,
)
from .matcher import (
    MatchRequest,
    Mode,
    first_embedding,
    is_valid_embedding,
    iter_embeddings,
    lis_length,
    match_bruteforce,
    match_dispatch,
)
from .reduction import (
    KRangeError,
    ReductionTrace,
    attach_separator,
    build_multiset_instance,
    deduplicate,
    deduplicate_with_reals,
    find_independent_set,
    format_trace,
    matched_vertices,
    reduce,
    simultaneous_multiset_witness,
)
from .textio import (
    ParseError,
    PatternSyntax,
    parse_graph,
    parse_pattern,
    parse_permutation,
    serialize_graph,
    serialize_pattern,
    serialize_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Embedding",
    "FoFormula",
    "FoStructure",
    "GeneralizedPattern",
    "Graph",
    "KRangeError",
    "MatchRequest",
    "Mode",
    "MultisetHalves",
    "ParseError",
    "PatternSyntax",
    "Permutation",
    "ReductionTrace",
    "ValidationError",
    "attach_separator",
    "build_multiset_instance",
    "deduplicate",
    "deduplicate_with_reals",
    "encode_formula",
    "encode_structure",
    "export_instance",
    "find_independent_set",
    "first_embedding",
    "format_trace",
    "is_valid_embedding",
    "iter_embeddings",
    "lis_length",
    "match_bruteforce",
    "match_dispatch",
    "matched_vertices",
    "model_check",
    "parse_graph",
    "parse_instance",
    "parse_pattern",
    "parse_permutation",
    "reduce",
    "serialize_graph",
    "serialize_pattern",
    "serialize_permutation",
    "simultaneous_multiset_witness",
]
