"""Tests for the seed builders.

Claims covered:
    - word quivers for the standard a3, g2, d4 words match the frozen
      adjacency tables, half arrows and multipliers included
    - word-vertex weights on the standard words of a1-a12, g2 and d4 equal
      the type-A closed form, the G2 golden table and the D4 table kept
      here; on the reversed words they follow the reversed-word rule
    - every reduced word of a2, a3 and g2 builds and completes; along a
      seeded braid walk on a4 and d4, a commutation move gives an
      isomorphic seed and a length-3 move a seed one mutation away
    - non-reduced and non-longest words are rejected
    - word-quiver rows at inner vertices are balanced; row weights follow
      the partial products of the word
    - triangle completion adds one edge vertex per letter class and matches
      the frozen tables; the arrows it reads off equal the reference solver's
      solution of each row's edge-weight system, whose kernel is empty, on
      the standard and reversed words and on every reduced word of a2, a3
      and g2
    - completion refuses swapped word-vertex weights with the message of the
      first check they fail
    - the sl4 start-edge imbalances equal the three frozen vectors
    - reverse_word_seed is the slot-swapped, arrow-reversed standard seed
    - names are literal up to a9 and distinct from a10 on; word vertices are
      frozen exactly at occurrence 0 and at their node's last occurrence
    - completion refuses a frozen vertex whose weights are off the edges
    - build_triangle_seed returns one object per type and word, a list word
      the same as its tuple, equal to a fresh completion on the standard and
      reversed words of a2-a5, g2 and d4; a refused word is checked and
      refused on every call
    - an a16 triangle costs at most one simple reflection per letter of
      its word
"""
from __future__ import annotations

import random
import re
from fractions import Fraction as Q

import pytest

from confseed import golden, root_data
from confseed.linalg import solve_with_kernel
from confseed.root_data import (
    fundamental_weight,
    parse_word,
    reflect,
    root_datum,
    standard_longest_word,
    w0_dual,
)
from confseed.seed_builder import (
    _boundary_pattern,
    build_bruhat_seed,
    build_triangle_seed,
    complete_triangle_seed,
    reverse_word_seed,
    triangle_name,
    triangle_vertices,
)
from confseed.seed_core import (
    arrows,
    check_seed,
    mutate,
    opposite,
    permute_slots,
    quiver_isomorphic,
    weight_balance,
)

from dense_reference import dense_minor, dense_seed, dense_weights
from seed_checks import assert_face_equations, is_balanced

TABLED_KINDS = [f"a{n}" for n in range(1, 13)] + ["g2", "d4"]

WORD_TABLES = (
    ("a3", golden.ARROWS_A3_WORD),
    ("g2", golden.ARROWS_G2_WORD),
    ("d4", golden.ARROWS_D4_WORD),
)


def _arrowset(seed):
    return {(a, b): m for a, b, m in arrows(seed)}


def _goldenset(table):
    return {(a, b): Q(m) for a, b, m in table}


def _with_weights(seed, weights: dict):
    """seed with the dense weights given by vertex name, each vertex
    labelled by the minor of its weights."""
    dense = [weights[nm] for nm in seed.names]
    return dense_seed(seed.names, seed.frozen, seed.mult, seed.b2, dense,
                      tuple(map(dense_minor, dense)))


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
        # uniqueness itself: test_read_off_matches_the_reference_solver
        for kind in ("a2", "a3", "g2", "d4"):
            datum = root_datum(kind)
            word_seed = build_bruhat_seed(datum, standard_longest_word(datum))
            seed = complete_triangle_seed(datum, word_seed)
            edge_names = [triangle_name(datum, node) for node in datum.nodes]
            assert seed.names == word_seed.names + tuple(edge_names)
            assert seed.frozen[word_seed.size:] == (True,) * datum.rank

    @pytest.mark.parametrize("kind, words", [
        (kind, words) for kind in TABLED_KINDS for words in ("standard", "reversed")
    ] + [(kind, "every-word") for kind in ("a2", "a3", "g2")])
    def test_read_off_matches_the_reference_solver(self, kind, words):
        # each row's entries at the edge vertices solve the stacked system
        # (edge weights) x = pattern - (balance over the other columns)
        datum = root_datum(kind)
        std = standard_longest_word(datum)
        if words == "every-word":
            # completion leaves its matrix tests to Seed; this checks its rows
            todo = _reduced_words(datum)
        else:
            todo = [std if words == "standard" else tuple(reversed(std))]
        zero = ((0,) * datum.rank,) * 3
        for word in todo:
            seed = complete_triangle_seed(datum, build_bruhat_seed(datum, word))
            edges = [seed.index(triangle_name(datum, node)) for node in datum.nodes]
            others = [j for j in range(seed.size) if j not in edges]
            weights = dense_weights(seed)
            columns = [[c for w in weights[e] for c in w] for e in edges]
            matrix = [list(row) for row in zip(*columns)]
            for i, name in enumerate(seed.names):
                want = (
                    _boundary_pattern(datum, name, weights[i]) if seed.frozen[i] else zero
                )
                target = [
                    [want[s][r] - sum(seed.b2[i][j] * weights[j][s][r] for j in others)
                     for r in range(datum.rank)]
                    for s in range(3)
                ]
                sol, kernel = solve_with_kernel(matrix, [c for w in target for c in w])
                assert kernel == [], (word, name)
                assert [seed.b2[i][e] for e in edges] == sol, (word, name)

    @pytest.mark.parametrize("kind, first, second, message", [
        ("a2", "x_20", "x_21", "inconsistent linear system"),
        ("g2", "x_a1", "x_a2", "inconsistent linear system"),
        ("a2", "x_10", "x_20", "third-corner component obstructs completion at x_10"),
    ])
    def test_swapped_word_weights_rejected(self, kind, first, second, message):
        datum = root_datum(kind)
        word = standard_longest_word(datum)
        seed = build_bruhat_seed(datum, word)
        weights = dict(zip(seed.names, dense_weights(seed)))
        weights[first], weights[second] = weights[second], weights[first]
        seed = _with_weights(seed, weights)
        with pytest.raises(ValueError, match=re.escape(message)):
            complete_triangle_seed(datum, seed)

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
            iso = quiver_isomorphic(opposite(rev), std)
            assert iso is not None

    def test_mapping_reflects_occurrences(self):
        datum = root_datum("g2")
        rev = reverse_word_seed(datum)
        std = permute_slots(build_triangle_seed(datum), (1, 0, 2))
        iso = quiver_isomorphic(opposite(rev), std)
        word = standard_longest_word(datum)
        for node, occ in triangle_vertices(datum):
            name = triangle_name(datum, node, occ)
            if occ is None:
                assert iso[name] == triangle_name(datum, w0_dual(datum, node))
            else:
                r = sum(1 for x in word if x == node)
                assert iso[name] == triangle_name(datum, node, r - occ)
        assert len(iso) == len(triangle_vertices(datum))


# == 4. vertex names and boundary patterns ===================================

A9_TRIANGLE_NAMES = tuple("""
    x_10 x_20 x_30 x_40 x_50 x_60 x_70 x_80 x_90
    x_11 x_21 x_31 x_41 x_51 x_61 x_71 x_81 x_91
    x_12 x_22 x_32 x_42 x_52 x_62 x_72 x_82
    x_13 x_23 x_33 x_43 x_53 x_63 x_73
    x_14 x_24 x_34 x_44 x_54 x_64
    x_15 x_25 x_35 x_45 x_55
    x_16 x_26 x_36 x_46
    x_17 x_27 x_37
    x_18 x_28
    x_19
    x_1 x_2 x_3 x_4 x_5 x_6 x_7 x_8 x_9
""".split())


class TestVertexNames:
    def test_a9_triangle_names(self):
        assert build_triangle_seed(root_datum("a9")).names == A9_TRIANGLE_NAMES

    def test_separator_from_rank_10(self):
        datum = root_datum("a10")
        assert triangle_name(datum, "1", 0) == "x_1_0"
        assert triangle_name(datum, "10") == "x_10"
        assert triangle_name(datum, "10", 1) == "x_10_1"
        assert triangle_name(root_datum("a9"), "1", 0) == "x_10"

    @pytest.mark.parametrize("kind", ["a10", "a11", "a12"])
    def test_two_digit_ranks_build(self, kind):
        datum = root_datum(kind)
        word = standard_longest_word(datum)
        quiver = build_bruhat_seed(datum, word)
        assert len(set(quiver.names)) == quiver.size
        for node, occ in triangle_vertices(datum):
            if occ is not None:
                frozen = quiver.frozen[quiver.index(triangle_name(datum, node, occ))]
                assert frozen == (occ in (0, word.count(node))), (node, occ)
        seed = build_triangle_seed(datum)
        assert len(set(seed.names)) == seed.size == len(triangle_vertices(datum))
        assert_face_equations(seed)


class TestBoundaryPatterns:
    @pytest.mark.parametrize("slots", [
        # omega_1 also at the middle corner: the weights leave every edge
        ((0, 1), (1, 0), (1, 0)),
        # on the edge from corner 3 to corner 1, but 2 omega_1 is not fundamental
        ((0, 1), (0, 0), (2, 0)),
        # at corner 3 alone, not along an edge
        ((0, 0), (0, 0), (1, 0)),
    ])
    def test_frozen_weights_off_the_edges_rejected(self, slots):
        datum = root_datum("a2")
        word = standard_longest_word(datum)
        seed = build_bruhat_seed(datum, word)
        weights = dict(zip(seed.names, dense_weights(seed)))
        weights[triangle_name(datum, "1", 0)] = slots
        seed = _with_weights(seed, weights)
        with pytest.raises(ValueError, match="off the triangle's edges"):
            complete_triangle_seed(datum, seed)


# == 5. word-vertex weights ==================================================

def _type_a_weights(datum, node, occ):
    """(omega_{n-i-j}, omega_j, omega_i) at x_{i,j} of the standard a<n-1> word."""
    n, i = datum.rank + 1, int(node)
    fw = lambda k: fundamental_weight(datum, str(k)) if k else (0,) * datum.rank
    return fw(n - i - occ), fw(occ), fw(i)


def _d4_weights(datum, node, occ):
    """x_{i,j} of the standard d4 word, from the outer sum a1 + a2 + a3."""
    fw = lambda nd: fundamental_weight(datum, nd)
    zero = (0,) * datum.rank
    outer = (1, 1, 1, 0)
    if node == "b":
        return {
            0: (fw("b"), zero, fw("b")),
            1: ((0, 0, 0, 2), outer, fw("b")),
            2: (fw("b"), outer, fw("b")),
            3: (zero, fw("b"), fw("b")),
        }[occ]
    others = tuple(c - x for c, x in zip(outer, fw(node)))
    return {
        0: (fw(node), zero, fw(node)),
        1: (fw("b"), fw(node), fw(node)),
        2: (fw("b"), others, fw(node)),
        3: (zero, fw(node), fw(node)),
    }[occ]


def _reference_weights(datum) -> dict:
    """Weights of the word vertices of the standard word, from the tables."""
    if datum.kind == "g2":
        return {nm: ws for nm, ws in golden.G2_TRIANGLE_WEIGHTS.items()
                if nm not in ("x_a", "x_b")}
    per = _d4_weights if datum.kind == "d4" else _type_a_weights
    return {
        triangle_name(datum, node, occ): per(datum, node, occ)
        for node, occ in triangle_vertices(datum) if occ is not None
    }


def _reduced_words(datum) -> list[tuple[str, ...]]:
    """Every reduced word for w0, grown leftwards: s_i w is longer than w
    exactly when coordinate i of w(rho) is positive."""
    length = len(standard_longest_word(datum))
    out = []

    def grow(word, image):
        if len(word) == length:
            out.append(word)
            return
        for k, node in enumerate(datum.nodes):
            if image[k] > 0:
                grow((node,) + word, reflect(datum, node, image))

    grow((), (1,) * datum.rank)
    return out


def _braid_moves(datum, word) -> list[tuple[str, tuple[str, ...]]]:
    """("commute", word') or ("braid", word') for every move that applies:
    ij -> ji for unjoined i, j and iji -> jij for simply joined i, j."""
    out = []
    for p in range(len(word) - 1):
        i, j = word[p], word[p + 1]
        cij = datum.cartan[datum.index(i)][datum.index(j)]
        cji = datum.cartan[datum.index(j)][datum.index(i)]
        if cij == 0:
            out.append(("commute", word[:p] + (j, i) + word[p + 2:]))
        elif cij * cji == 1 and word[p + 2:p + 3] == (i,):
            out.append(("braid", word[:p] + (j, i, j) + word[p + 3:]))
    return out


class TestWordVertexWeights:
    @pytest.mark.parametrize("kind", TABLED_KINDS)
    def test_standard_and_reversed_words_match_the_tables(self, kind):
        # the reversed word gives x_{i,j} the weights of x_{i,r_i-j} with
        # corners 1 and 2 swapped
        datum = root_datum(kind)
        word = standard_longest_word(datum)
        want = _reference_weights(datum)
        seed = build_bruhat_seed(datum, word)
        assert dict(zip(seed.names, dense_weights(seed))) == want
        rev = build_bruhat_seed(datum, tuple(reversed(word)))
        for node, occ in triangle_vertices(datum):
            if occ is not None:
                first, second, third = want[triangle_name(datum, node, word.count(node) - occ)]
                assert rev.weight(triangle_name(datum, node, occ)) == (second, first, third)

    @pytest.mark.parametrize("kind, count", [("a2", 2), ("a3", 16), ("g2", 2)])
    def test_every_reduced_word_builds_and_completes(self, kind, count):
        datum = root_datum(kind)
        words = _reduced_words(datum)
        assert len(words) == count
        for word in words:
            seed = complete_triangle_seed(datum, build_bruhat_seed(datum, word))
            assert_face_equations(seed)

    @pytest.mark.parametrize("kind", ["a4", "d4"])
    def test_braid_walk(self, kind):
        # a commutation move relabels the seed; a length-3 move is one
        # mutation at an unfrozen vertex (Berenstein, Fomin and Zelevinsky
        # 2005); weights included in both comparisons
        datum = root_datum(kind)
        rng = random.Random(0)
        word = standard_longest_word(datum)
        seed = build_triangle_seed(datum, word)
        seen = set()
        for _ in range(60):
            move, nxt = rng.choice(_braid_moves(datum, word))
            after = build_triangle_seed(datum, nxt)
            if move == "commute":
                assert quiver_isomorphic(seed, after) is not None, nxt
            else:
                assert any(
                    quiver_isomorphic(mutate(seed, nm), after) is not None
                    for nm in seed.unfrozen_names()
                ), nxt
            seen.add(move)
            word, seed = nxt, after
        assert seen == {"commute", "braid"}


# == 6. cost =================================================================

class TestTriangleMemo:
    @pytest.mark.parametrize("kind", ["a2", "a3", "a4", "a5", "g2", "d4"])
    def test_memo_equals_a_fresh_completion(self, kind):
        datum = root_datum(kind)
        std = standard_longest_word(datum)
        for word in (std, tuple(reversed(std))):
            fresh = complete_triangle_seed(datum, build_bruhat_seed(datum, word))
            memo = build_triangle_seed(datum, word)
            assert memo == fresh and memo is not fresh
            assert build_triangle_seed(datum, list(word)) is memo
            assert build_triangle_seed(root_datum(kind), word) is memo
        assert build_triangle_seed(datum) is build_triangle_seed(datum, std)

    def test_a_refused_word_raises_on_every_call(self, monkeypatch):
        datum = root_datum("a2")
        calls = []
        is_longest = root_data.is_longest_word

        def counted(*args):
            calls.append(args)
            return is_longest(*args)

        monkeypatch.setattr(root_data, "is_longest_word", counted)
        for _ in range(2):
            with pytest.raises(ValueError, match="not a reduced word"):
                build_triangle_seed(datum, ("1", "1"))
        assert len(calls) == 2



def test_triangle_build_reflects_once_per_letter(monkeypatch):
    # the longest-word test is one pass of the word over rho; w0 on weights
    # and on nodes is the diagram involution, with no reflections at all
    calls = 0
    reflect = root_data.reflect

    def counting(*args):
        nonlocal calls
        calls += 1
        return reflect(*args)

    monkeypatch.setattr(root_data, "reflect", counting)
    build_triangle_seed(root_datum("a16"))
    assert 0 < calls <= 16 * 17 // 2
