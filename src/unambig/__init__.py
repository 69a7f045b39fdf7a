"""Ambiguity of morphisms with respect to patterns.

A pattern is a finite word over variables 1, 2, 3, ...; a morphism maps each
variable to a word over a..z.  A morphism sigma is ambiguous with respect to
a pattern if some other morphism produces the same image of that pattern.
This package decides ambiguity, detects fixed points of nontrivial
morphisms, constructs the classic pattern and word families that witness
(un)ambiguity results, and sweeps pattern space for evidence on the open
questions about 1-uniform morphisms.
"""

from .conditions import (
    BillaudReport,
    PairConditionReport,
    billaud_instance,
    candidate_pairs,
    fixed_point_by_neighbourhoods,
    has_unique_2_factors,
    image_is_fixed_point,
    pair_condition,
)
from .errors import (
    BudgetError,
    DomainError,
    InconsistencyError,
    ParseError,
    ResourceError,
)
from .explorer import (
    ScanRecord,
    canonical_colorings,
    conjecture_scan,
    enumerate_canonical_patterns,
    search_1uniform,
    search_sigma_ij,
)
from .generators import (
    DeBruijnPattern,
    debruijn_patterns,
    debruijn_word,
    double_letters,
    enumerate_debruijn,
    exponent_pattern,
    shortest_non_fixed_point,
    splice,
    squares_pattern,
    thue_morphism,
    thue_word,
)
from .morphisms import (
    Morphism,
    Substitution,
    erase_variable,
    merge_morphism,
    renaming,
)
from .solver import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    FixedPoint,
    NotFixedPoint,
    NoWitness,
    Witness,
    enumerate_preimages,
    find_alternative,
    fixed_point_verdict,
    is_ambiguous,
    is_fixed_point,
)
from .words import (
    ALPHABET,
    BOUNDARY,
    Neighbourhoods,
    Pattern,
    alphabet,
    canonical_form,
    factor_multiplicity,
    is_square_free,
    neighbourhoods,
    parse_pattern,
    word_to_pattern,
)

__all__ = [
    "ALPHABET",
    "BOUNDARY",
    "BillaudReport",
    "BudgetError",
    "BudgetExhausted",
    "DEFAULT_BUDGET",
    "DeBruijnPattern",
    "DomainError",
    "FixedPoint",
    "InconsistencyError",
    "Morphism",
    "Neighbourhoods",
    "NoWitness",
    "NotFixedPoint",
    "PairConditionReport",
    "ParseError",
    "Pattern",
    "ResourceError",
    "ScanRecord",
    "Substitution",
    "Witness",
    "alphabet",
    "billaud_instance",
    "candidate_pairs",
    "canonical_colorings",
    "canonical_form",
    "conjecture_scan",
    "debruijn_patterns",
    "debruijn_word",
    "double_letters",
    "enumerate_canonical_patterns",
    "enumerate_debruijn",
    "enumerate_preimages",
    "erase_variable",
    "exponent_pattern",
    "factor_multiplicity",
    "find_alternative",
    "fixed_point_by_neighbourhoods",
    "fixed_point_verdict",
    "has_unique_2_factors",
    "image_is_fixed_point",
    "is_ambiguous",
    "is_fixed_point",
    "is_square_free",
    "merge_morphism",
    "neighbourhoods",
    "pair_condition",
    "parse_pattern",
    "renaming",
    "search_1uniform",
    "search_sigma_ij",
    "shortest_non_fixed_point",
    "splice",
    "squares_pattern",
    "thue_morphism",
    "thue_word",
    "word_to_pattern",
]
