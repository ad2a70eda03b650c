"""Exact-arithmetic workbench for string algebras."""

from .presentation import (
    Presentation,
    Quiver,
    load_presentation,
    parse_presentation,
    serialize_presentation,
    validate_axioms,
)
from .words import (
    Letter,
    Walk,
    canonical_cyclic,
    check_finite_dimensional,
    concat,
    enumerate_words,
    fine_wolf_common_power,
    inverse,
    is_cyclic,
    is_primitive,
    is_word,
    parse_word,
)
from .reps import (
    Representation,
    band_module,
    direct_sum,
    projective,
    simple,
    string_module,
)
from .homalg import ext1, ext1_dim, hom_basis, hom_dim, middle_census
from .decomp import DecompositionReport, catalog_decompose, decompose
from .artheory import (
    Catalog,
    ar_sequence,
    catalog_for,
    delta_count_formula,
    enumerate_indecomposables,
    hom_leq,
    riedtmann_witness,
)
from .classify import build_witness, classify, find_bands, find_witness_triple

__version__ = "0.1.0"
