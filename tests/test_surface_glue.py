"""Tests for triangulations and polygon gluing.

Claims covered:
    - Triangulation validates itself: it accepts exactly the triangulations
      of the m-gon, with pairwise non-crossing diagonals; fans and flips
      behave combinatorially
    - embedding a triangle spreads weights to the right slots, with odd
      corner orders reversing all arrows
    - amalgamation merges matching frozen vertices, adds their rows, and
      unfreezes them; mismatches, and pairs that do not keep a vertex of an
      earlier piece or keep one twice, are rejected; no pieces glue to the
      seed with no vertices
    - diagonal_pairs matches boundary vertices across a diagonal by weight
    - each refusal of a malformed input carries its message: an unsorted
      triangle, a fan of fewer than three corners, a seed of other than
      three slots to embed, pieces of different slot counts, a pair of
      mismatched multipliers or weights, a side with vertices on one piece
      only, and corner orders that do not fit the triangles
    - one amalgamate pass over all pieces glues exactly as gluing them one
      at a time with a name-by-name reference does, on the flip targets and
      on triangulations that are not fans, including one whose listed order
      is not its placement order
    - a polygon build amalgamates once and, with the triangle built, runs
      check_seed once, on the glued seed, on fans and on other shapes
    - each glued vertex's minor label stores the very tuple of the vertex's
      weights
    - matching each diagonal between the two triangles on it glues the same
      seed as scanning the whole glued seed for partners does, on fans and
      on triangulations that are not fans
    - the glued g2 four-point seed equals the frozen tables, and the a3 and
      g2 four-point seeds carry the literal default names
    - glued seeds of every shape stay well-formed and face-balanced
    - the vertex count from rank, word length and m equals the built size,
      and an m over the cap is refused before any triangulation is built
"""
from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations

import pytest

from confseed import golden, seed_core, surface_glue
from confseed.root_data import root_datum, standard_longest_word, vertex_count
from confseed.seed_core import (
    Seed,
    arrows,
    check_seed,
)
from confseed.seed_builder import build_bruhat_seed, build_triangle_seed
from confseed.sequence_verifier import flip_target
from confseed.surface_glue import (
    Triangulation,
    amalgamate,
    build_conf_m_seed,
    default_corner_orders,
    diagonal_pairs,
    embed_triangle,
    fan_triangulation,
    flip_diagonal,
)

from dense_reference import dense_weights, reference_amalgamate, reference_fold
from seed_checks import assert_face_equations


# == 1. triangulations =======================================================

class TestTriangulation:
    def test_fan_shape(self):
        tri = fan_triangulation(5)
        assert tri.triangles == ((1, 2, 3), (1, 3, 4), (1, 4, 5))
        assert tri.diagonals() == frozenset(
            {frozenset({1, 3}), frozenset({1, 4})}
        )

    def test_wrong_triangle_count_rejected(self):
        with pytest.raises(ValueError):
            Triangulation(5, ((1, 2, 3), (1, 3, 4)))

    def test_corner_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Triangulation(4, ((1, 2, 3), (1, 3, 7)))

    # tests/test_cli.py covers a side in two triangles and a repeated one
    @pytest.mark.parametrize("m, triangles, message", [
        (6, ((1, 2, 3), (1, 3, 4), (1, 3, 6), (4, 5, 6)),
         "diagonal 1-3 must lie in exactly two triangles"),
        # an octahedron on corners 1,2,4,5,7,8 with antipodes 1-2, 4-5, 7-8:
        # every edge lies in two triangles, but no side in any
        (10, tuple((a, b, c) for a in (1, 2) for b in (4, 5) for c in (7, 8)),
         "side 1-2 must lie in exactly one triangle"),
    ], ids=["diagonal-once", "no-side"])
    def test_listings_that_do_not_tile_rejected(self, m, triangles, message):
        with pytest.raises(ValueError) as exc:
            Triangulation(m, triangles)
        assert str(exc.value) == message

    def test_accepted_listings_are_the_triangulations(self):
        # the m-gon has Catalan(m-2) triangulations: 1, 2, 5, 14
        for m, catalan in ((3, 1), (4, 2), (5, 5), (6, 14)):
            accepted = []
            for triangles in combinations(combinations(range(1, m + 1), 3), m - 2):
                try:
                    accepted.append(Triangulation(m, triangles))
                except ValueError:
                    pass
            assert len(accepted) == catalan
            for tri in accepted:
                for d, e in combinations(sorted(map(sorted, tri.diagonals())), 2):
                    assert not (d[0] < e[0] < d[1] < e[1]), (tri, d, e)

    def test_flip_quad(self):
        tri = fan_triangulation(4)
        flipped = flip_diagonal(tri, (1, 3))
        assert flipped.triangles == ((1, 2, 4), (2, 3, 4))
        # flipping back returns the fan
        assert flip_diagonal(flipped, (2, 4)) == tri

    def test_flip_needs_a_diagonal(self):
        with pytest.raises(ValueError):
            flip_diagonal(fan_triangulation(4), (1, 2))

    def test_unsorted_triangle_rejected(self):
        with pytest.raises(ValueError) as exc:
            Triangulation(4, ((1, 3, 2), (1, 3, 4)))
        assert str(exc.value) == "triangle (1, 3, 2) must be listed ascending"

    @pytest.mark.parametrize("m", [2, 1, 0])
    def test_fan_needs_a_triangle(self, m):
        with pytest.raises(ValueError) as exc:
            fan_triangulation(m)
        assert str(exc.value) == "need at least a triangle"


# == 2. embedding ============================================================

class TestEmbedding:
    def test_weights_land_on_corners(self):
        seed = build_triangle_seed(root_datum("a2"))
        placed = embed_triangle(seed, (2, 4, 1), 4, "t.")
        for nm in seed.names:
            old = seed.weight(nm)
            new = placed.weight("t." + nm)
            assert new[1] == old[0]
            assert new[3] == old[1]
            assert new[0] == old[2]
            assert new[2] == (Q(0), Q(0))

    def test_odd_order_reverses_arrows(self):
        seed = build_triangle_seed(root_datum("a2"))
        placed = embed_triangle(seed, (2, 1, 3), 3, "t.")
        want = {("t." + a, "t." + b) for a, b, _ in arrows(seed)}
        assert {(b, a) for a, b, _ in arrows(placed)} == want

    def test_only_a_triangle_seed_embeds(self):
        # a seed already spread over four slots is not a triangle's
        placed = embed_triangle(build_triangle_seed(root_datum("a2")), (1, 2, 3), 4, "t.")
        with pytest.raises(ValueError) as exc:
            embed_triangle(placed, (1, 2, 3), 5, "s.")
        assert str(exc.value) == "triangle seeds have three slots"


# == 3. amalgamation =========================================================

def _reference_pairs(a: Seed, b: Seed, diag) -> list[tuple[str, str]]:
    """Pairs across a diagonal found by scanning every vertex of a, a slow
    reference that takes the whole glued seed for a."""
    want = frozenset(c - 1 for c in diag)
    a_weights, b_weights = dense_weights(a), dense_weights(b)

    def on_diag(seed, i):
        support = {t for t, _ in seed.slot_weights[i]}
        return seed.frozen[i] and support == want

    left = {a_weights[i]: nm for i, nm in enumerate(a.names) if on_diag(a, i)}
    pairs = [
        (left.pop(b_weights[i]), nm) for i, nm in enumerate(b.names) if on_diag(b, i)
    ]
    assert not left
    return pairs


def _reference_glue(datum, tri: Triangulation) -> Seed:
    """Glue pieces one at a time in build_conf_m_seed's order, finding each
    triangle's pairs in the whole glued seed."""
    base = build_triangle_seed(datum)
    pieces = [
        embed_triangle(base, order, tri.m, f"t{k}.")
        for k, order in enumerate(default_corner_orders(tri))
    ]
    placed, placed_tris, remaining = pieces[0], [0], list(range(1, len(pieces)))
    while remaining:
        for k in list(remaining):
            corners = frozenset(tri.triangles[k])
            diags = {corners & frozenset(tri.triangles[s]) for s in placed_tris}
            diags = [d for d in diags if len(d) == 2]
            if diags:
                pairs = [p for d in diags for p in _reference_pairs(placed, pieces[k], d)]
                placed = reference_amalgamate(placed, pieces[k], pairs)
                placed_tris.append(k)
                remaining.remove(k)
    return placed


# (type, m, triangles) for triangulations that are not fans; the last is
# listed out of placement order, since (3,4,5) meets (1,2,3) in a corner only
NON_FAN_SHAPES = (
    ("a2", 5, ((1, 2, 3), (1, 3, 4), (1, 4, 5))),
    ("g2", 6, ((1, 2, 3), (1, 3, 5), (3, 4, 5), (1, 5, 6))),
    ("a3", 6, ((1, 2, 6), (2, 3, 6), (3, 5, 6), (3, 4, 5))),
    ("a2", 5, ((1, 2, 3), (3, 4, 5), (1, 3, 5))),
)
NON_FAN_IDS = ("a2", "g2", "a3", "a2-out-of-order")


class TestAmalgamate:
    def _two_triangles(self, kind="a2"):
        datum = root_datum(kind)
        base = build_triangle_seed(datum)
        a = embed_triangle(base, (1, 2, 3), 4, "t0.")
        b = embed_triangle(base, (3, 4, 1), 4, "t1.")
        return a, b

    def test_merged_vertices_unfreeze(self):
        a, b = self._two_triangles()
        pairs = diagonal_pairs(a, b, (1, 3))
        glued = amalgamate((a, b), pairs)
        check_seed(glued)
        assert glued.size == a.size + b.size - len(pairs)
        for p, _ in pairs:
            assert not glued.frozen[glued.index(p)]

    def test_rows_add_on_the_diagonal(self):
        a, b = self._two_triangles()
        pairs = diagonal_pairs(a, b, (1, 3))
        glued = amalgamate((a, b), pairs)
        into = {q: p for p, q in pairs}
        for q in b.names:
            src = into.get(q, q)
            for q2 in b.names:
                dst = into.get(q2, q2)
                contrib = b.b2[b.index(q)][b.index(q2)]
                both = contrib + (
                    a.b2[a.index(src)][a.index(dst)]
                    if src in a.names and dst in a.names else 0
                )
                assert glued.b2[glued.index(src)][glued.index(dst)] == both

    def test_name_collision_rejected(self):
        base = build_triangle_seed(root_datum("a2"))
        a = embed_triangle(base, (1, 2, 3), 4, "t0.")
        with pytest.raises(ValueError):
            amalgamate((a, a), ())

    def test_unfrozen_pair_rejected(self):
        a, b = self._two_triangles()
        with pytest.raises(ValueError):
            amalgamate((a, b), (("t0.x_11", "t1.x_11"),))

    def test_half_arrow_at_a_merged_vertex_rejected(self):
        # t0.x_10 and t1.x_20 carry equal weights, so they merge, but the
        # merged vertex unfreezes and keeps t0's half arrow to t0.x_20
        a, b = self._two_triangles()
        assert a.weight("t0.x_10") == b.weight("t1.x_20")
        with pytest.raises(ValueError) as exc:
            amalgamate((a, b), (("t0.x_10", "t1.x_20"),))
        assert str(exc.value) == "half-integral entry at unfrozen pair (t0.x_10,t0.x_20)"

    def test_pieces_of_different_slot_counts_rejected(self):
        base = build_triangle_seed(root_datum("a2"))
        a, _ = self._two_triangles()
        with pytest.raises(ValueError) as exc:
            amalgamate((base, a), ())
        assert str(exc.value) == "all vertices must use the same number of slots"

    @pytest.mark.parametrize("kind, pair, message", [
        # g2's x_a0 has multiplier 1 and x_b0 multiplier 3
        ("g2", ("t0.x_a0", "t1.x_b0"), "pair (t0.x_a0,t1.x_b0) has mismatched multipliers"),
        # both frozen, both of multiplier 1, on the diagonal's two corners in
        # the two opposite orders
        ("a2", ("t0.x_10", "t1.x_10"), "pair (t0.x_10,t1.x_10) has mismatched weights"),
    ], ids=["multipliers", "weights"])
    def test_mismatched_pair_named(self, kind, pair, message):
        a, b = self._two_triangles(kind)
        with pytest.raises(ValueError) as exc:
            amalgamate((a, b), (pair,))
        assert str(exc.value) == message

    @pytest.mark.parametrize("order, message", [
        # a's side 1-2 carries t0.x_1 and t0.x_2, and no vertex of b lies on it
        ((0, 1), "unmatched vertices ['t0.x_1', 't0.x_2'] on [1, 2]"),
        ((1, 0), "no partner for t0.x_1 across [1, 2]"),
    ], ids=["unmatched", "no-partner"])
    def test_a_side_that_is_not_shared_has_no_pairs(self, order, message):
        pieces = self._two_triangles()
        with pytest.raises(ValueError) as exc:
            diagonal_pairs(pieces[order[0]], pieces[order[1]], (1, 2))
        assert str(exc.value) == message

    def test_no_pieces_glue_to_the_seed_with_no_vertices(self):
        empty = Seed((), (), (), ())
        assert amalgamate([], []) == empty
        assert amalgamate((empty, empty), ()) == empty
        with pytest.raises(KeyError, match="no vertex named 'a'"):
            amalgamate([], [("a", "b")])

    def test_three_pieces_in_one_pass(self):
        # the a2 pentagon fan, glued by hand: t1 meets t0 on 1-3 and t2 on 1-4
        datum = root_datum("a2")
        base = build_triangle_seed(datum)
        pieces = [
            embed_triangle(base, order, 5, f"t{k}.")
            for k, order in enumerate(((1, 2, 3), (3, 4, 1), (4, 5, 1)))
        ]
        pairs = diagonal_pairs(pieces[0], pieces[1], (1, 3))
        pairs += diagonal_pairs(pieces[1], pieces[2], (1, 4))
        glued = amalgamate(pieces, pairs)
        assert glued.size == sum(p.size for p in pieces) - len(pairs)
        assert glued == reference_fold(pieces, pairs)
        assert glued == build_conf_m_seed(datum, 5)

    def test_kept_vertex_must_come_first_and_once(self):
        a, b = self._two_triangles()
        pairs = diagonal_pairs(a, b, (1, 3))
        with pytest.raises(ValueError, match="must keep a vertex of an earlier piece"):
            amalgamate((a, b), [(q, p) for p, q in pairs])
        # a third piece, a copy of b: each diagonal vertex of a has a partner
        # of equal weight in b and in c, but can be kept only once, and a
        # vertex merged into a cannot be kept for c
        c = embed_triangle(build_triangle_seed(root_datum("a2")), (3, 4, 1), 4, "t2.")
        for extra in ([(p, "t2." + q[3:]) for p, q in pairs],
                      [(q, "t2." + q[3:]) for _, q in pairs]):
            with pytest.raises(ValueError, match="pairs must be disjoint"):
                amalgamate((a, b, c), pairs + extra)

    def test_diagonal_pairs_cover_the_edge(self):
        # the shared side carries one frozen vertex per node (the row starts
        # supported exactly on the diagonal's two corners)
        a, b = self._two_triangles("g2")
        pairs = diagonal_pairs(a, b, (1, 3))
        assert sorted(pairs) == [
            ("t0.x_a0", "t1.x_a0"), ("t0.x_b0", "t1.x_b0"),
        ]
        for p, q in pairs:
            assert a.weight(p) == b.weight(q)

    @pytest.mark.parametrize("kind", ["a2", "a3", "g2", "d4"])
    def test_flip_targets_match_the_reference(self, kind, monkeypatch):
        datum = root_datum(kind)
        got = flip_target(datum)
        monkeypatch.setattr(surface_glue, "amalgamate", reference_fold)
        # seeds compare names, frozen, mult, b2, weights and labels
        assert got == flip_target(datum)

    @pytest.mark.parametrize("kind,m,triangles", NON_FAN_SHAPES, ids=NON_FAN_IDS)
    def test_non_fan_shapes_match_the_reference(self, kind, m, triangles, monkeypatch):
        datum = root_datum(kind)
        tri = Triangulation(m, triangles)
        got = build_conf_m_seed(datum, m, tri)
        monkeypatch.setattr(surface_glue, "amalgamate", reference_fold)
        assert got == build_conf_m_seed(datum, m, tri)

    @pytest.mark.parametrize(
        "kind,m,triangles",
        NON_FAN_SHAPES + (("g2", 8, None), ("a3", 7, None)),
        ids=NON_FAN_IDS + ("g2-fan-8", "a3-fan-7"),
    )
    def test_pairs_per_triangle_match_the_whole_seed_scan(self, kind, m, triangles):
        datum = root_datum(kind)
        tri = Triangulation(m, triangles) if triangles else fan_triangulation(m)
        assert build_conf_m_seed(datum, m, tri) == _reference_glue(datum, tri)


# == 4. glued polygon seeds ==================================================

class TestPolygonSeeds:
    def test_g2_quad_matches_frozen_tables(self):
        quad = build_conf_m_seed(root_datum("g2"), 4)
        got = {(a, b): m for a, b, m in arrows(quad)}
        want = {(a, b): Q(m) for a, b, m in golden.ARROWS_G2_CONF4}
        assert got == want
        assert {n: quad.weight(n) for n in quad.names} == dict(
            golden.G2_CONF4_WEIGHTS
        )
        for name, row in golden.G2_CONF4_ROWS.items():
            for other in quad.names:
                assert quad.b(other, name) == row.get(other, 0)

    def test_quad_names_follow_the_signed_scheme(self):
        quad = build_conf_m_seed(root_datum("a2"), 4)
        assert "x_01" in quad.names
        assert "x_-11" in quad.names
        assert "y_1" in quad.names and "y_-1" in quad.names

    def test_default_quad_names(self):
        a3 = build_conf_m_seed(root_datum("a3"), 4)
        assert a3.names == tuple("""
            x_01 x_02 x_03 x_11 x_12 x_13 x_21 x_22 x_31 y_1 y_2 y_3
            x_-11 x_-12 x_-13 x_-21 x_-22 x_-31 y_-1 y_-2 y_-3
        """.split())
        g2 = build_conf_m_seed(root_datum("g2"), 4)
        assert g2.names == tuple("""
            x_0a x_0b x_1a x_1b x_2a x_2b x_3a x_3b y_a y_b
            x_-1a x_-1b x_-2a x_-2b x_-3a x_-3b y_-a y_-b
        """.split())

    def test_shapes_stay_well_formed(self):
        for kind in ("a2", "g2"):
            for m in (4, 5, 6):
                seed = build_conf_m_seed(root_datum(kind), m)
                check_seed(seed)
                assert_face_equations(seed)
                assert seed.slots == m

    def test_size_matches_gluing_count(self):
        # each diagonal merges one vertex per node of the diagram
        datum = root_datum("a2")
        tri = build_triangle_seed(datum)
        for m in (4, 5):
            seed = build_conf_m_seed(datum, m)
            merged = datum.rank * len(fan_triangulation(m).diagonals())
            assert seed.size == (m - 2) * tri.size - merged

    def test_vertex_count_matches_built_sizes(self):
        for kind in ("a1", "a2", "a3", "a5", "g2", "d4"):
            datum = root_datum(kind)
            word = standard_longest_word(datum)
            assert build_bruhat_seed(datum, word).size == datum.rank + len(word)
            count = lambda m: vertex_count(kind, datum.rank, len(word), m)
            assert build_triangle_seed(datum).size == count(3)
            for m in (3, 4, 5, 7):
                assert build_conf_m_seed(datum, m).size == count(m), (kind, m)

    def test_oversized_polygon_refused_before_building(self, monkeypatch):
        def unbuilt(m):
            raise AssertionError(f"built a triangulation of a {m}-gon")

        monkeypatch.setattr(surface_glue, "fan_triangulation", unbuilt)
        # g2 has 8m - 14 vertices: 1,018 at m = 129 and 1,026 at m = 130
        assert vertex_count("g2", 2, 6, 129) == 1018
        with pytest.raises(ValueError, match="1026 vertices, over the cap of 1024"):
            build_conf_m_seed(root_datum("g2"), 130)
        with pytest.raises(ValueError, match="over the cap"):
            build_conf_m_seed(root_datum("g2"), 10**9)

    @pytest.mark.parametrize("kind, m, triangles", [
        ("g2", 4, None), ("g2", 16, None), *NON_FAN_SHAPES,
    ], ids=("4", "16") + NON_FAN_IDS)
    def test_one_amalgamation_and_one_check_per_polygon(self, kind, m, triangles,
                                                        monkeypatch):
        glued_with, checked = [], []
        amalgamate = surface_glue.amalgamate
        check = seed_core.check_seed

        def counted_amalgamate(pieces, pairs):
            glued_with.append(len(pieces))
            return amalgamate(pieces, pairs)

        def counted_check(seed):
            checked.append(len(seed.names))
            check(seed)

        datum = root_datum(kind)
        tri = Triangulation(m, triangles) if triangles else None
        build_triangle_seed(datum)  # the completed triangle, built once per process
        monkeypatch.setattr(surface_glue, "amalgamate", counted_amalgamate)
        monkeypatch.setattr(seed_core, "check_seed", counted_check)
        seed = build_conf_m_seed(datum, m, tri)
        assert glued_with == [m - 2]
        # the pieces are not seeds: only the glued seed is checked
        assert checked == [seed.size]

    @pytest.mark.parametrize("kind, m, triangles", [
        ("g2", 16, None), ("g2", 128, None), ("a3", 6, None), NON_FAN_SHAPES[1],
    ], ids=["g2-16", "g2-128", "a3-6", "g2-non-fan"])
    def test_each_minor_shares_its_vertex_tuple(self, kind, m, triangles):
        tri = Triangulation(m, triangles) if triangles else None
        seed = build_conf_m_seed(root_datum(kind), m, tri)
        assert all(label.weights is ws for label, ws in zip(seed.labels, seed.slot_weights))

    def test_triangulation_size_must_match(self):
        with pytest.raises(ValueError):
            build_conf_m_seed(root_datum("a2"), 5, fan_triangulation(4))

    @pytest.mark.parametrize("orders, message", [
        ([(1, 2, 3)], "one corner order per triangle required"),
        ([(1, 2, 3), (1, 2, 4)], "corner order (1, 2, 4) does not match triangle (1, 3, 4)"),
    ], ids=["one-short", "wrong-corners"])
    def test_corner_orders_must_fit_the_triangles(self, orders, message):
        with pytest.raises(ValueError) as exc:
            build_conf_m_seed(root_datum("a2"), 4, None, orders)
        assert str(exc.value) == message
