"""Tests for the seed builders.

Claims covered:
    - word quivers for the standard a3, g2, d4 words match the frozen
      adjacency tables, half arrows and multipliers included
    - non-reduced and non-longest words are rejected
    - word-quiver rows at inner vertices are balanced; row weights follow
      the partial products of the word
    - triangle completion adds one edge vertex per letter class, matches
      the frozen tables, and certifies its linear systems unique
    - the sl4 start-edge imbalances equal the three frozen vectors
    - reverse_word_seed is the slot-swapped, arrow-reversed standard seed
"""
from __future__ import annotations

from fractions import Fraction as Q

import pytest

from confseed import golden
from confseed.root_data import (
    parse_word,
    root_datum,
    standard_longest_word,
    w0_dual,
)
from confseed.seed_builder import (
    build_bruhat_seed,
    build_triangle_seed,
    complete_triangle_seed,
    reverse_word_seed,
    vertex_node_occ,
)
from confseed.seed_core import (
    arrows,
    assert_face_equations,
    check_seed,
    is_balanced,
    permute_slots,
    quiver_isomorphic,
    weight_balance,
)

WORD_TABLES = (
    ("a3", golden.ARROWS_A3_WORD),
    ("g2", golden.ARROWS_G2_WORD),
    ("d4", golden.ARROWS_D4_WORD),
)


def _arrowset(seed):
    return {(a, b): m for a, b, m in arrows(seed)}


def _goldenset(table):
    return {(a, b): Q(m) for a, b, m in table}


# == 1. word quivers =========================================================

class TestWordQuivers:
    def test_frozen_adjacency_tables(self):
        for kind, table in WORD_TABLES:
            datum = root_datum(kind)
            seed = build_bruhat_seed(datum, standard_longest_word(datum))
            assert _arrowset(seed) == _goldenset(table), kind

    def test_vertex_counts(self):
        sizes = {"a3": 9, "g2": 8, "d4": 16}
        for kind, size in sizes.items():
            datum = root_datum(kind)
            seed = build_bruhat_seed(datum, standard_longest_word(datum))
            assert seed.size == size

    def test_every_word_quiver_is_well_formed(self):
        for kind, _ in WORD_TABLES:
            datum = root_datum(kind)
            seed = build_bruhat_seed(datum, standard_longest_word(datum))
            check_seed(seed)

    def test_another_reduced_word_accepted(self):
        datum = root_datum("a2")
        seed = build_bruhat_seed(datum, parse_word(datum, "212"))
        assert seed.size == 5
        check_seed(seed)

    def test_non_longest_word_rejected(self):
        datum = root_datum("g2")
        with pytest.raises(ValueError):
            build_bruhat_seed(datum, parse_word(datum, "abab"))
        with pytest.raises(ValueError):
            build_bruhat_seed(datum, parse_word(datum, "aabbab"))

    def test_unbalanced_rows_are_exactly_the_completion_targets(self):
        # before the edge vertices exist, the rows that will touch them
        # carry the imbalance the completion later cancels
        datum = root_datum("g2")
        seed = build_bruhat_seed(datum, standard_longest_word(datum))
        touching = {
            name for name, row in golden.G2_TRIANGLE_ROWS.items()
            if "x_a" in row or "x_b" in row
        }
        for name in seed.unfrozen_names():
            assert is_balanced(seed, name) == (name not in touching), name


# == 2. triangle completion ==================================================

class TestTriangleCompletion:
    def test_frozen_adjacency_tables(self):
        for kind, table in (("a3", golden.ARROWS_A3_TRIANGLE),
                            ("g2", golden.ARROWS_G2_TRIANGLE)):
            datum = root_datum(kind)
            seed = build_triangle_seed(datum)
            assert _arrowset(seed) == _goldenset(table), kind

    def test_completion_unique(self):
        for kind in ("a2", "a3", "g2", "d4"):
            datum = root_datum(kind)
            word_seed = build_bruhat_seed(datum, standard_longest_word(datum))
            seed, report = complete_triangle_seed(datum, word_seed)
            assert report.unique
            assert set(report.edge_names) <= set(seed.names)
            assert len(report.edge_names) == datum.rank

    def test_g2_weights_and_rows(self):
        seed = build_triangle_seed(root_datum("g2"))
        assert {n: seed.weight(n) for n in seed.names} == dict(
            golden.G2_TRIANGLE_WEIGHTS
        )
        for name, row in golden.G2_TRIANGLE_ROWS.items():
            for other in seed.names:
                assert seed.b(other, name) == row.get(other, 0), (name, other)

    def test_all_rows_balanced_after_completion(self):
        for kind in ("a2", "a3", "g2", "d4"):
            seed = build_triangle_seed(root_datum(kind))
            for name in seed.names:
                assert is_balanced(seed, name) or name in (
                    nm for nm in seed.names if seed.frozen[seed.index(nm)]
                )

    def test_face_equations_hold(self):
        for kind in ("a2", "a3", "g2"):
            assert_face_equations(build_triangle_seed(root_datum(kind)))

    def test_sl4_boundary_sums(self):
        seed = build_triangle_seed(root_datum("a3"))
        for name, want in golden.SL4_START_SUMS.items():
            doubled = tuple(tuple(2 * c for c in w) for w in want)
            assert weight_balance(seed, name) == doubled, name


# == 3. the reversed word ====================================================

class TestReversedWord:
    def test_matches_slot_swap_with_reversed_arrows(self):
        for kind in ("a2", "a3", "g2"):
            datum = root_datum(kind)
            rev = reverse_word_seed(datum)
            std = permute_slots(build_triangle_seed(datum), (1, 0, 2))
            iso = quiver_isomorphic(rev, std, reverse_arrows=True)
            assert iso is not None

    def test_mapping_reflects_occurrences(self):
        datum = root_datum("g2")
        rev = reverse_word_seed(datum)
        std = permute_slots(build_triangle_seed(datum), (1, 0, 2))
        iso = quiver_isomorphic(rev, std, reverse_arrows=True)
        word = standard_longest_word(datum)
        for name, other in iso.items():
            node, occ = vertex_node_occ(datum, name)
            if occ is None:
                assert other == "x_" + w0_dual(datum, node)
            else:
                r = sum(1 for x in word if x == node)
                assert other == f"x_{node}{r - occ}"
