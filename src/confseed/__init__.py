"""Seeds for moduli of decorated local systems: build, glue, mutate, verify."""
from __future__ import annotations

from .root_data import (
    RootDatum,
    dual_weight_map,
    fold_d4_word,
    g2_weight_dual,
    parse_word,
    root_datum,
    standard_longest_word,
)
from .seed_core import (
    Exchange,
    Minor,
    Seed,
    arrows,
    langlands_dual,
    matches_under,
    mutate,
    mutate_x,
    p_exponents,
    permute_slots,
    quiver_isomorphic,
    x_from_a,
)
from .seed_io import load_seed, save_seed, seed_from_json, seed_to_json, to_dot
from .seed_builder import (
    build_bruhat_seed,
    build_triangle_seed,
    complete_triangle_seed,
    reverse_word_seed,
)
from .surface_glue import (
    Triangulation,
    amalgamate,
    build_conf_m_seed,
    diagonal_pairs,
    fan_triangulation,
    flip_diagonal,
)
from .sequence_verifier import (
    MutationSequence,
    apply_sequence,
    builtin_sequences,
    flip_target,
    verify_flip,
    verify_langlands_pairing,
    verify_s3,
)

__version__ = "0.1.0"

__all__ = [
    "Exchange",
    "Minor",
    "MutationSequence",
    "RootDatum",
    "Seed",
    "Triangulation",
    "amalgamate",
    "apply_sequence",
    "arrows",
    "build_bruhat_seed",
    "build_conf_m_seed",
    "build_triangle_seed",
    "builtin_sequences",
    "complete_triangle_seed",
    "diagonal_pairs",
    "dual_weight_map",
    "fan_triangulation",
    "flip_diagonal",
    "flip_target",
    "fold_d4_word",
    "g2_weight_dual",
    "langlands_dual",
    "load_seed",
    "matches_under",
    "mutate",
    "mutate_x",
    "p_exponents",
    "parse_word",
    "permute_slots",
    "quiver_isomorphic",
    "reverse_word_seed",
    "root_datum",
    "save_seed",
    "seed_from_json",
    "seed_to_json",
    "standard_longest_word",
    "to_dot",
    "verify_flip",
    "verify_langlands_pairing",
    "verify_s3",
    "x_from_a",
]
