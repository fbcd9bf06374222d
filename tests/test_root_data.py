"""Tests for the root-datum layer.

Claims covered:
    - root_datum builds symmetrizable Cartan data for a_n, g2, d4
    - simple reflections are involutions and fix the complementary weights
    - standard longest words are reduced and have inversion-set length
    - parse_word round-trips node letters, with digit aliases for d4;
      commas or spaces split the text into one node per token
    - w0 acts as minus a diagram automorphism (w0_dual)
    - the closed forms (length and rho for longest words, the diagram
      involution for w0) agree with the Weyl-group search kept here as
      the reference: positive-root enumeration and the reducedness test
    - kinds are canonical and the vertex cap refuses oversized ranks
    - folding d4 words along the triality orbit lands on g2 words
    - the two-node weight dual is an involution exchanging the node roles;
      equal datums give one dual weight map object, g2's the exported one
    - every type-table entry is consistent: iota is a diagram involution
      that the standard word realizes as -w0, and the Langlands node
      permutation transposes the Cartan matrix and inverts the symmetrizers
"""
from __future__ import annotations

import itertools
import random

import pytest

from confseed.linalg import mat_mul
from confseed.root_data import (
    MAX_VERTICES,
    RootDatum,
    apply_word,
    dual_weight_map,
    dynkin_neighbors,
    fold_d4_word,
    fundamental_weight,
    g2_weight_dual,
    is_longest_word,
    parse_word,
    reflect,
    root_datum,
    scale_weight,
    simple_root,
    standard_longest_word,
    w0_dual,
    w0_on_weight,
    zero_weight,
)

KINDS = ("a1", "a2", "a3", "g2", "d4")


def check_symmetrizable(datum: RootDatum) -> None:
    n = datum.rank
    for i in range(n):
        if datum.cartan[i][i] != 2:
            raise ValueError("Cartan diagonal must be 2")
        for j in range(n):
            if datum.d[i] * datum.cartan[i][j] != datum.d[j] * datum.cartan[j][i]:
                raise ValueError(f"symmetrizer fails at ({i},{j})")


def _random_weight(rng: random.Random, datum: RootDatum):
    return tuple(rng.randint(-6, 6) for _ in datum.nodes)


# == reference: the Weyl-group search ========================================

def _reflection_on_roots(datum: RootDatum, j: int) -> list[list[int]]:
    """Matrix of s_j in simple-root coordinates: S_j = I - e_j (row j of C)."""
    n = datum.rank
    mat = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for c in range(n):
        mat[j][c] -= datum.cartan[j][c]
    return mat


def is_reduced(datum: RootDatum, word: tuple[str, ...]) -> bool:
    """True when no shorter word represents the same Weyl group element."""
    n = datum.rank
    cur = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for node in word:
        j = datum.index(node)
        # column j of cur is the image of alpha_j; length goes up iff positive
        col = [cur[r][j] for r in range(n)]
        if any(c < 0 for c in col):
            return False
        cur = mat_mul(cur, _reflection_on_roots(datum, j))
    return True


def positive_roots(datum: RootDatum) -> frozenset[tuple[int, ...]]:
    """All positive roots, in simple-root coordinates."""
    n = datum.rank
    refl = [_reflection_on_roots(datum, j) for j in range(n)]
    roots = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
    frontier = set(roots)
    while frontier:
        fresh = set()
        for r in frontier:
            for j in range(n):
                img = tuple(
                    sum(refl[j][p][q] * r[q] for q in range(n)) for p in range(n)
                )
                if all(c >= 0 for c in img) and img not in roots:
                    fresh.add(img)
        roots |= fresh
        frontier = fresh
    return frozenset(roots)


def positive_root_count(datum: RootDatum) -> int:
    return len(positive_roots(datum))


# == 1. datum tables ==========================================================

class TestDatum:
    def test_known_ranks(self):
        assert root_datum("a3").rank == 3
        assert root_datum("g2").rank == 2
        assert root_datum("d4").rank == 4

    def test_symmetrizable(self):
        for kind in KINDS:
            check_symmetrizable(root_datum(kind))

    @pytest.mark.parametrize("kind", [f"a{n}" for n in range(1, 9)] + ["g2", "d4"])
    def test_type_table_entry_is_consistent(self, kind):
        datum = root_datum(kind)
        cartan, d, iota, dual = datum.cartan, datum.d, datum.iota, datum.dual
        nodes = range(datum.rank)
        assert sorted(iota) == sorted(dual) == list(nodes)
        for i in nodes:
            assert iota[iota[i]] == i
            assert d[dual[i]] == max(d) // d[i]
            wt = fundamental_weight(datum, datum.nodes[i])
            assert w0_on_weight(datum, wt) == apply_word(datum, datum.word, wt)
            for j in nodes:
                assert cartan[iota[i]][iota[j]] == cartan[i][j]
                assert cartan[dual[i]][dual[j]] == cartan[j][i]
        wmap = dual_weight_map(datum)
        rng = random.Random(kind)
        for _ in range(20):
            w = _random_weight(rng, datum)
            assert wmap(wmap(w)) == scale_weight(max(d), w)

    def test_each_type_has_one_dual_weight_map(self):
        # one map object per type, so every dual under it shares its cached rows
        assert dual_weight_map(root_datum("g2")) is g2_weight_dual
        assert dual_weight_map(root_datum("a3")) is dual_weight_map(root_datum("A3"))
        assert dual_weight_map(root_datum("a3")) is not dual_weight_map(root_datum("a4"))

    def test_g2_cartan_is_asymmetric(self):
        datum = root_datum("g2")
        a, b = datum.index("a"), datum.index("b")
        assert datum.cartan[a][b] == -3
        assert datum.cartan[b][a] == -1
        assert datum.d == (1, 3)

    def test_d4_center_touches_all_legs(self):
        datum = root_datum("d4")
        assert set(dynkin_neighbors(datum, "b")) == {"a1", "a2", "a3"}
        for leg in ("a1", "a2", "a3"):
            assert dynkin_neighbors(datum, leg) == ("b",)

    def test_unknown_kind_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            root_datum("e9")

    @pytest.mark.parametrize("kind", [
        "a01", "a0", "a", "a\uff11", "a\u0663", "a-1", "a+1", " a1", "a1\n",
        "g02", "d04", "g3",
    ])
    def test_only_canonical_kinds(self, kind):
        with pytest.raises(ValueError, match="unsupported type"):
            root_datum(kind)

    def test_case_blind_kinds(self):
        assert root_datum("A12").kind == "a12"
        assert root_datum("G2") == root_datum("g2")

    def test_rank_cap(self):
        # a42's triangle has 2*42 + 903 = 987 vertices, a43's has 1,032
        assert root_datum("a42").rank == 42
        with pytest.raises(ValueError, match=f"cap of {MAX_VERTICES}"):
            root_datum("a43")
        with pytest.raises(ValueError, match="5000250000 vertices"):
            root_datum("a100000")


# == 2. weights and reflections ==============================================

class TestReflections:
    def test_reflection_is_involution(self):
        rng = random.Random(7)
        for kind in KINDS:
            datum = root_datum(kind)
            for _ in range(200):
                w = _random_weight(rng, datum)
                node = rng.choice(datum.nodes)
                assert reflect(datum, node, reflect(datum, node, w)) == w

    def test_reflection_moves_own_weight_by_root(self):
        for kind in KINDS:
            datum = root_datum(kind)
            for node in datum.nodes:
                wt = fundamental_weight(datum, node)
                alpha = simple_root(datum, node)
                assert reflect(datum, node, wt) == tuple(
                    a - b for a, b in zip(wt, alpha)
                )

    def test_reflection_fixes_other_weights(self):
        for kind in KINDS:
            datum = root_datum(kind)
            for node in datum.nodes:
                for other in datum.nodes:
                    if other == node:
                        continue
                    wt = fundamental_weight(datum, other)
                    assert reflect(datum, node, wt) == wt

    def test_weight_arithmetic(self):
        datum = root_datum("a2")
        v = fundamental_weight(datum, "2")
        assert zero_weight(datum) == (0, 0)
        assert scale_weight(3, v) == (0, 3)
        assert scale_weight(0, v) == zero_weight(datum)


# == 3. words ================================================================

class TestWords:
    def test_standard_word_is_reduced_and_longest(self):
        for kind in KINDS:
            datum = root_datum(kind)
            word = standard_longest_word(datum)
            assert len(word) == positive_root_count(datum)
            assert is_reduced(datum, word)
            assert is_longest_word(datum, word)

    def test_truncated_word_is_not_longest(self):
        for kind in KINDS:
            datum = root_datum(kind)
            word = standard_longest_word(datum)
            assert not is_longest_word(datum, word[1:])

    def test_doubled_letter_is_not_reduced(self):
        datum = root_datum("a2")
        assert not is_reduced(datum, ("1", "1"))

    def test_w0_squares_to_identity_on_weights(self):
        rng = random.Random(11)
        for kind in KINDS:
            datum = root_datum(kind)
            for _ in range(50):
                w = _random_weight(rng, datum)
                assert w0_on_weight(datum, w0_on_weight(datum, w)) == w

    def test_w0_dual_matches_w0_action(self):
        # w0 sends the weight of node i to minus the weight of its dual node.
        for kind in KINDS:
            datum = root_datum(kind)
            for node in datum.nodes:
                wt = fundamental_weight(datum, node)
                dual = fundamental_weight(datum, w0_dual(datum, node))
                assert w0_on_weight(datum, wt) == scale_weight(-1, dual)

    def test_apply_word_composes_reflections(self):
        datum = root_datum("g2")
        w = (1, -2)
        assert apply_word(datum, ("a", "b"), w) == reflect(
            datum, "a", reflect(datum, "b", w)
        )


# == 4. closed forms against the search ======================================

def _random_reduced_word(datum: RootDatum, length: int, rng) -> tuple[str, ...]:
    """A random reduced word of the given length, grown by the reference's
    ascent test; at length |positive roots| it is a word for w0."""
    r = datum.rank
    cur = [[int(i == j) for j in range(r)] for i in range(r)]
    word = []
    for _ in range(length):
        j = rng.choice([j for j in range(r) if all(row[j] >= 0 for row in cur)])
        word.append(datum.nodes[j])
        cur = mat_mul(cur, _reflection_on_roots(datum, j))
    return tuple(word)


class TestClosedForms:
    def test_length_is_positive_root_count(self):
        for kind in [f"a{r}" for r in range(1, 13)] + ["g2", "d4"]:
            datum = root_datum(kind)
            assert len(standard_longest_word(datum)) == positive_root_count(datum)

    @pytest.mark.parametrize("kind", ["a2", "a3", "g2"])
    def test_rho_test_on_every_word_of_length_n(self, kind):
        datum = root_datum(kind)
        n = positive_root_count(datum)
        words = list(itertools.product(datum.nodes, repeat=n))
        hits = [w for w in words if is_reduced(datum, w)]
        assert [w for w in words if is_longest_word(datum, w)] == hits
        assert len(hits) == {"a2": 2, "a3": 16, "g2": 2}[kind]

    @pytest.mark.parametrize("kind", ["a4", "d4"])
    def test_rho_test_on_random_words(self, kind):
        # uniform words are almost never reduced, so every fourth word is a
        # random reduced word and every eighth one of those has a letter changed
        datum = root_datum(kind)
        n = positive_root_count(datum)
        rng = random.Random(2016)
        hits = 0
        for k in range(2000):
            if k % 4:
                word = tuple(rng.choice(datum.nodes) for _ in range(n))
            else:
                word = _random_reduced_word(datum, n, rng)
                if k % 8:
                    at = rng.randrange(n)
                    word = word[:at] + (rng.choice(datum.nodes),) + word[at + 1:]
            want = len(word) == n and is_reduced(datum, word)
            assert is_longest_word(datum, word) == want, word
            hits += want
        assert hits >= 250

    def test_diagram_involution_matches_word_action(self):
        # the word acts linearly with entries far below 2**20, so its value
        # on the weight with coordinates 2**(20 i) fixes every entry
        for kind in [f"a{r}" for r in range(1, 33)] + ["g2", "d4"]:
            datum = root_datum(kind)
            generic = tuple(1 << (20 * i) for i in range(datum.rank))
            word = standard_longest_word(datum)
            assert w0_on_weight(datum, generic) == apply_word(datum, word, generic)
            for node in datum.nodes:
                wt = fundamental_weight(datum, node)
                dual = fundamental_weight(datum, w0_dual(datum, node))
                assert w0_on_weight(datum, wt) == scale_weight(-1, dual)


# == 5. parsing ==============================================================

class TestParseWord:
    def test_type_a_digits(self):
        datum = root_datum("a3")
        assert parse_word(datum, "121321") == ("1", "2", "1", "3", "2", "1")

    def test_g2_letters(self):
        datum = root_datum("g2")
        assert parse_word(datum, "bababa") == ("b", "a", "b", "a", "b", "a")

    def test_d4_digit_aliases(self):
        datum = root_datum("d4")
        assert parse_word(datum, "b123") == ("b", "a1", "a2", "a3")
        assert parse_word(datum, "a1ba2") == ("a1", "b", "a2")

    def test_separators_split_tokens(self):
        assert parse_word(root_datum("a3"), "1,2,1") == ("1", "2", "1")
        assert parse_word(root_datum("a3"), " 1 2, 1 ") == ("1", "2", "1")
        assert parse_word(root_datum("a11"), "10,1,11") == ("10", "1", "11")
        assert parse_word(root_datum("a11"), "10 1 11") == ("10", "1", "11")
        assert parse_word(root_datum("d4"), "b, 1, a2") == ("b", "a1", "a2")
        with pytest.raises(ValueError, match="cannot read a a3 node at '12'"):
            parse_word(root_datum("a3"), "12,1")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_word(root_datum("a2"), "1x2")
        with pytest.raises(ValueError):
            parse_word(root_datum("g2"), "abc")


# == 6. folding and the two-node dual ========================================

class TestFolding:
    def test_standard_word_folds(self):
        word = standard_longest_word(root_datum("d4"))
        assert fold_d4_word(word) == standard_longest_word(root_datum("g2"))

    def test_folded_word_is_reduced(self):
        g2 = root_datum("g2")
        word = fold_d4_word(standard_longest_word(root_datum("d4")))
        assert is_reduced(g2, word)

    def test_g2_weight_dual_squares_to_symmetrizer(self):
        # The seed-level dual divides by the vertex multiplier, so the raw
        # weight map squares to 3x the identity rather than the identity.
        rng = random.Random(3)
        for _ in range(100):
            w = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert g2_weight_dual(g2_weight_dual(w)) == scale_weight(3, w)

    def test_g2_weight_dual_swaps_nodes(self):
        datum = root_datum("g2")
        wa = fundamental_weight(datum, "a")
        wb = fundamental_weight(datum, "b")
        assert g2_weight_dual(wa) == wb
        assert g2_weight_dual(wb) == scale_weight(3, wa)
        rng = random.Random(5)
        for _ in range(50):
            ca, cb = rng.randint(-9, 9), rng.randint(-9, 9)
            assert g2_weight_dual((ca, cb)) == (3 * cb, ca)
