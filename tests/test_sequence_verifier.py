"""Tests for staged mutation sequences and their equivalence checks.

Claims covered:
    - the named sequences carry the right stage shapes and mutation counts;
      the generated a2 flip is the former hand table, the a3 flip runs the
      former table's ten mutations in three layers, layer k of every a<n>
      flip holds k(n+1-k) mutations, and other types have no type-A flip
    - apply_sequence rejects stages whose vertices are joined by an arrow and
      stages that repeat a vertex; every built-in stage gives the same seed,
      labels and stage tables in reversed and shuffled order
    - the two-node transposition sequences reproduce the frozen stage tables
      and land on slot-permuted, arrow-reversed seeds; on them and on the
      reversed-word triangles, the opposite seed gets the mapping of a
      dense reference search for a reversed match
    - the g2 flip and the type-A flips of ranks 2 to 7 land on the
      independently rebuilt flipped-triangulation seed; after the type-A
      flips every label's value on random flags equals the rebuilt seed's
      value at its image
    - the composite twelve-step sequence reaches the reversed-word seed
    - sequences correspond across the Langlands dual, stagewise
    - the outer-node permutations of the triality diagram act on its triangle,
      each under its own report name, the suite's; a permutation moving the
      center node breaks the seed, and a map that is not a permutation of
      the four nodes is refused
"""
from __future__ import annotations

import itertools
import random

import pytest

from confseed import golden
from confseed import minor_oracle as mo
from confseed.root_data import root_datum, standard_longest_word
from confseed.seed_builder import build_triangle_seed, reverse_word_seed
from confseed.seed_core import mutate, opposite, permute_slots, quiver_isomorphic
from confseed.sequence_verifier import (
    MutationSequence,
    StageOrderError,
    apply_sequence,
    builtin_sequences,
    flip_target,
    type_a_flip,
    verify_dynkin_automorphism_d4,
    verify_flip,
    verify_langlands_pairing,
    verify_s3,
)
from confseed.suites import suite_triality
from confseed.surface_glue import build_conf_m_seed

from dense_reference import dense_weights

G2_TRI = build_triangle_seed(root_datum("g2"))
G2_QUAD = build_conf_m_seed(root_datum("g2"), 4)


# == 1. the named sequences ==================================================

class TestBuiltinSequences:
    def test_catalog(self):
        seqs = builtin_sequences()
        assert set(seqs) == {
            "g2_swap13", "g2_swap23", "g2_swap12", "g2_flip",
            "a2_flip", "a3_flip",
        }

    def test_mutation_counts(self):
        seqs = builtin_sequences()
        count = lambda s: sum(len(st) for st in s.stages)
        assert count(seqs["g2_swap13"]) == 4
        assert count(seqs["g2_swap23"]) == 4
        assert count(seqs["g2_swap12"]) == 12
        assert count(seqs["g2_flip"]) == 18
        assert count(seqs["a2_flip"]) == 4
        assert count(seqs["a3_flip"]) == 10

    def test_stage_shapes(self):
        seqs = builtin_sequences()
        assert tuple(len(st) for st in seqs["g2_flip"].stages) == \
            (1, 3, 5, 5, 3, 1)
        assert tuple(len(st) for st in seqs["g2_swap13"].stages) == (1, 2, 1)

    def test_a2_flip_is_the_former_table(self):
        assert builtin_sequences()["a2_flip"].stages == (
            ("x_01", "x_02"), ("x_11", "x_-11"),
        )

    def test_a3_flip_runs_by_layer(self):
        # the octahedra of each layer of the subdivided tetrahedron commute
        assert builtin_sequences()["a3_flip"].stages == (
            ("x_01", "x_02", "x_03"),
            ("x_11", "x_12", "x_-11", "x_-12"),
            ("x_02", "x_21", "x_-21"),
        )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_type_a_layers_count_octahedra(self, n):
        # layer k of the SL_(n+1) flip holds k(n+1-k) octahedra
        seq = type_a_flip(root_datum(f"a{n}"))
        assert seq.name == f"a{n}_flip"
        assert tuple(map(len, seq.stages)) == tuple(
            k * (n + 1 - k) for k in range(1, n + 1)
        )

    @pytest.mark.parametrize("kind", ["g2", "d4"])
    def test_type_a_flip_refuses_other_types(self, kind):
        with pytest.raises(ValueError, match=f"type {kind} has no type-A flip"):
            type_a_flip(root_datum(kind))

    def test_reversed_and_conjugated(self):
        seq = builtin_sequences()["g2_swap13"]
        assert seq.reversed().stages == tuple(reversed(seq.stages))
        swap = {nm: nm for nm in G2_TRI.names}
        swap["x_a2"], swap["x_b1"] = "x_b1", "x_a2"
        conj = seq.conjugated(swap)
        assert conj.stages[0] == ("x_b1",)


# == 2. staged application ===================================================

class TestApplySequence:
    def test_stage_tables_are_recorded(self):
        seq = builtin_sequences()["g2_swap13"]
        res = apply_sequence(G2_TRI, seq)
        assert len(res.stage_weights) == 3
        start = {nm: G2_TRI.weight(nm) for nm in G2_TRI.names}
        assert res.stage_weights == golden.stage_tables("g2_swap13", start)

    def test_singleton_stages_match_plain_mutation(self):
        seq = MutationSequence("demo", (("x_a2",), ("x_a1",)))
        res = apply_sequence(G2_TRI, seq)
        assert res.final == mutate(mutate(G2_TRI, "x_a2"), "x_a1")

    def test_order_dependent_stage_rejected(self):
        # x_a1 and x_a2 are joined by an arrow, so they do not commute
        seq = MutationSequence("bad", (("x_a1", "x_a2"),))
        with pytest.raises(StageOrderError):
            apply_sequence(G2_TRI, seq)

    def test_repeated_vertex_rejected(self):
        seq = MutationSequence("bad", (("x_a2", "x_a2"),))
        with pytest.raises(ValueError):
            apply_sequence(G2_TRI, seq)

    @pytest.mark.parametrize("name", sorted(builtin_sequences()))
    def test_stage_order_does_not_matter(self, name):
        seq = builtin_sequences()[name]
        if name.startswith("g2_swap"):
            start = G2_TRI
        elif name == "g2_flip":
            start = G2_QUAD
        else:
            start = build_conf_m_seed(root_datum(name[:2]), 4)
        want = apply_sequence(start, seq)
        rng = random.Random(0)
        reordered = (
            tuple(stage[::-1] for stage in seq.stages),
            tuple(tuple(rng.sample(stage, len(stage))) for stage in seq.stages),
        )
        for stages in reordered:
            got = apply_sequence(start, MutationSequence(name, stages))
            assert got.final == want.final
            assert got.final.labels == want.final.labels
            assert got.stage_weights == want.stage_weights


# == 3. transpositions and flips =============================================

class TestTranspositions:
    def test_swap13(self):
        seqs = builtin_sequences()
        assert verify_s3(G2_TRI, seqs["g2_swap13"], (2, 1, 0)).passed

    def test_swap23(self):
        seqs = builtin_sequences()
        assert verify_s3(G2_TRI, seqs["g2_swap23"], (0, 2, 1)).passed

    def test_swap12_composite(self):
        seqs = builtin_sequences()
        assert verify_s3(G2_TRI, seqs["g2_swap12"], (1, 0, 2)).passed

    def test_swap12_reaches_the_reversed_word(self):
        datum = root_datum("g2")
        final = apply_sequence(G2_TRI, builtin_sequences()["g2_swap12"]).final
        assert quiver_isomorphic(final, reverse_word_seed(datum)) is not None

    def test_wrong_permutation_fails(self):
        seqs = builtin_sequences()
        assert not verify_s3(G2_TRI, seqs["g2_swap13"], (0, 2, 1)).passed

    @staticmethod
    def _least_reversed_mapping(s1, s2):
        """Reference: the least bijection under which s2 is s1 with every
        arrow reversed, by a dense depth-first search in s2's vertex order."""
        n = s1.size
        w1, w2 = dense_weights(s1), dense_weights(s2)

        def extend(image):
            i = len(image)
            if i == n:
                return {s1.names[p]: s2.names[j] for p, j in enumerate(image)}
            for j in range(n):
                if j in image or (s1.mult[i], s1.frozen[i], w1[i]) != (
                    s2.mult[j], s2.frozen[j], w2[j]
                ):
                    continue
                if all(s2.b2[j][image[p]] == -s1.b2[i][p]
                       and s2.b2[image[p]][j] == -s1.b2[p][i] for p in range(i)):
                    found = extend(image + [j])
                    if found is not None:
                        return found
            return None

        return extend([])

    @pytest.mark.parametrize("case", [
        "g2_swap13", "g2_swap23", "g2_swap12", "reversed a3", "reversed g2",
    ])
    def test_opposite_seed_gives_the_reference_mapping(self, case):
        # the S3 checks and the reversal suite match the opposite of one
        # seed against a slot permutation of another
        if case.startswith("reversed"):
            datum = root_datum(case.split()[1])
            s1 = reverse_word_seed(datum)
            s2 = permute_slots(build_triangle_seed(datum), (1, 0, 2))
        else:
            perm = {"g2_swap13": (2, 1, 0), "g2_swap23": (0, 2, 1),
                    "g2_swap12": (1, 0, 2)}[case]
            s1 = apply_sequence(G2_TRI, builtin_sequences()[case]).final
            s2 = permute_slots(G2_TRI, perm)
        want = self._least_reversed_mapping(s1, s2)
        assert want is not None
        assert quiver_isomorphic(opposite(s1), s2) == want


class TestFlips:
    def test_g2(self):
        assert verify_flip(root_datum("g2"), G2_QUAD,
                           builtin_sequences()["g2_flip"]).passed

    def test_a2(self):
        datum = root_datum("a2")
        quad = build_conf_m_seed(datum, 4)
        assert verify_flip(datum, quad, builtin_sequences()["a2_flip"]).passed

    def test_a3(self):
        datum = root_datum("a3")
        quad = build_conf_m_seed(datum, 4)
        assert verify_flip(datum, quad, builtin_sequences()["a3_flip"]).passed

    @pytest.mark.parametrize("kind", [f"a{n}" for n in range(2, 8)])
    def test_type_a_flip_on_values(self, kind):
        # the flip lands on the rebuilt seed, and each flipped label is the
        # function of the rebuilt seed at its image
        datum = root_datum(kind)
        quad = build_conf_m_seed(datum, 4)
        seq = type_a_flip(datum)
        assert verify_flip(datum, quad, seq).passed
        flipped = apply_sequence(quad, seq).final
        target = flip_target(datum)
        rng = random.Random(5)
        for _ in range(5):
            assert mo.until_defined("flip values", lambda: mo.check_flip_values(
                flipped, target, mo.random_flags(rng, datum.rank + 1, 4))) == ()

    def test_flip_target_differs_from_start(self):
        datum = root_datum("a2")
        quad = build_conf_m_seed(datum, 4)
        assert quiver_isomorphic(quad, flip_target(datum)) is None

    def test_g2_stage_tables(self):
        res = apply_sequence(G2_QUAD, builtin_sequences()["g2_flip"])
        start = {nm: G2_QUAD.weight(nm) for nm in G2_QUAD.names}
        assert res.stage_weights == golden.stage_tables("g2_flip", start)


# == 4. duality pairings =====================================================

class TestLanglandsPairings:
    PAIRING = {
        "x_a0": "x_b3", "x_a1": "x_b2", "x_a2": "x_b1", "x_a3": "x_b0",
        "x_b0": "x_a3", "x_b1": "x_a2", "x_b2": "x_a1", "x_b3": "x_a0",
        "x_a": "x_b", "x_b": "x_a",
    }

    def test_swaps_pair_up(self):
        seqs = builtin_sequences()
        rep = verify_langlands_pairing(
            G2_TRI, seqs["g2_swap13"], seqs["g2_swap23"], self.PAIRING,
            slot_perm=(1, 0, 2),
        )
        assert rep.passed

    def test_flip_pairs_with_its_reverse(self):
        quad_pairing = {
            nm: (nm[:-1] + "b" if nm.endswith("a") else nm[:-1] + "a")
            for nm in G2_QUAD.names
        }
        seq = builtin_sequences()["g2_flip"]
        dual = seq.conjugated(quad_pairing, name="g2_flip_dual").reversed()
        rep = verify_langlands_pairing(
            G2_QUAD, seq, dual, quad_pairing,
            stage_reversal=True,
        )
        assert rep.passed

    def test_mismatched_pairing_fails(self):
        seqs = builtin_sequences()
        rep = verify_langlands_pairing(
            G2_TRI, seqs["g2_swap13"], seqs["g2_swap13"], self.PAIRING,
            slot_perm=(1, 0, 2),
        )
        assert not rep.passed


# == 5. triality =============================================================

class TestTriality:
    def test_all_outer_permutations_act(self):
        tri = build_triangle_seed(root_datum("d4"))
        rng = random.Random(1)
        perms = [("a1", "a2", "a3"), ("a2", "a3", "a1"), ("a3", "a1", "a2"),
                 ("a2", "a1", "a3"), ("a1", "a3", "a2"), ("a3", "a2", "a1")]
        for perm in perms:
            sigma = dict(zip(("a1", "a2", "a3"), perm))
            sigma["b"] = "b"
            assert verify_dynkin_automorphism_d4(tri, sigma).passed

    def test_moving_the_center_fails(self):
        # a bijection of the four nodes, so the arrows and weights decide
        tri = build_triangle_seed(root_datum("d4"))
        sigma = {"a1": "b", "b": "a1", "a2": "a2", "a3": "a3"}
        rep = verify_dynkin_automorphism_d4(tri, sigma)
        assert not rep.passed
        assert rep.lines == (f"permutation {sigma} breaks the seed",)

    @pytest.mark.parametrize("sigma", [
        {"a1": "a1", "a2": "a2", "a3": "a3", "b": "a1"},
        {"a1": "a2", "a2": "a1", "a3": "a3"},
        {"a1": "a1", "a2": "a2", "a3": "a3", "b": "b", "c": "c"},
    ], ids=["repeated-image", "missing-node", "extra-node"])
    def test_a_non_permutation_is_refused(self, sigma):
        tri = build_triangle_seed(root_datum("d4"))
        with pytest.raises(ValueError, match="not a permutation of the d4 nodes"):
            verify_dynkin_automorphism_d4(tri, sigma)

    def test_report_names_match_the_suite(self):
        tri = build_triangle_seed(root_datum("d4"))
        names = [
            verify_dynkin_automorphism_d4(
                tri, {**dict(zip(("a1", "a2", "a3"), perm)), "b": "b"}
            ).name
            for perm in itertools.permutations(("a1", "a2", "a3"))
        ]
        assert names == [rep.name for rep in suite_triality()[:6]]
        assert len(set(names)) == 6
        assert names[1] == "triality a1a3a2"
