"""Tests for seeds, mutation, labels, and duality.

Claims covered:
    - check_seed enforces skew-symmetrizability and frozen-row parity
    - mutation is an involution on the full seed, labels included
    - mutation preserves skew-symmetrizability and weight homogeneity
    - face equations hold at every unfrozen vertex along random walks
    - X-coordinates transport through mutation compatibly with the p-map
    - slot permutations compose; the Langlands dual squares to the identity
    - quiver_isomorphic finds real isomorphisms and rejects broken ones
    - every weight coordinate is an int, through building, gluing,
      mutation, duality and a save/load round trip
"""
from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from confseed.root_data import g2_weight_dual, root_datum
from confseed.seed_core import (
    Exchange,
    Minor,
    Seed,
    arrows,
    assert_face_equations,
    check_seed,
    is_balanced,
    langlands_dual,
    matches_under,
    mutate,
    mutate_x,
    negate_b2,
    p_exponents,
    permute_slots,
    quiver_isomorphic,
    x_from_a,
)
from confseed.seed_builder import build_triangle_seed
from confseed.seed_io import load_seed, save_seed
from confseed.surface_glue import build_conf_m_seed


# seeds are immutable, so one shared zoo serves every test
ZOO = (
    build_triangle_seed(root_datum("a2")),
    build_triangle_seed(root_datum("a3")),
    build_triangle_seed(root_datum("g2")),
    build_conf_m_seed(root_datum("a2"), 4),
    build_conf_m_seed(root_datum("g2"), 4),
)


def _seed_zoo():
    return ZOO


def _random_walk(rng, seed, steps):
    names = []
    for _ in range(steps):
        at = rng.choice(seed.unfrozen_names())
        seed = mutate(seed, at)
        names.append(at)
    return seed, names


# == 1. well-formedness ======================================================

class TestCheckSeed:
    def test_built_seeds_are_valid(self):
        for seed in _seed_zoo():
            check_seed(seed)

    def test_broken_diagonal_rejected(self):
        # construction itself runs check_seed
        base = build_triangle_seed(root_datum("a2"))
        b2 = [list(r) for r in base.b2]
        b2[0][0] = 2
        with pytest.raises(ValueError):
            Seed(base.names, base.frozen, base.mult,
                 tuple(tuple(r) for r in b2), base.weights, base.labels)

    def test_broken_symmetrizability_rejected(self):
        base = build_triangle_seed(root_datum("g2"))
        b2 = [list(r) for r in base.b2]
        i = base.index("x_a1")
        j = base.index("x_b1")
        b2[i][j] += 2
        with pytest.raises(ValueError):
            Seed(base.names, base.frozen, base.mult,
                 tuple(tuple(r) for r in b2), base.weights, base.labels)

    def test_odd_unfrozen_entry_rejected(self):
        base = build_triangle_seed(root_datum("a2"))
        b2 = [list(r) for r in base.b2]
        i = base.index("x_11")
        j = base.index("x_10")
        b2[i][j] += 1
        b2[j][i] -= 1
        with pytest.raises(ValueError):
            Seed(base.names, base.frozen, base.mult,
                 tuple(tuple(r) for r in b2), base.weights, base.labels)

    def test_mutating_frozen_vertex_rejected(self):
        seed = build_triangle_seed(root_datum("a2"))
        with pytest.raises(ValueError):
            mutate(seed, "x_10")


# == 2. mutation =============================================================

class TestMutation:
    def test_involution_everywhere(self):
        for seed in _seed_zoo():
            for at in seed.unfrozen_names():
                assert mutate(mutate(seed, at), at) == seed

    def test_involution_along_random_walks(self):
        rng = random.Random(2024)
        for _ in range(500):
            seed = rng.choice(_seed_zoo())
            seed, _ = _random_walk(rng, seed, rng.randint(0, 6))
            at = rng.choice(seed.unfrozen_names())
            assert mutate(mutate(seed, at), at) == seed

    def test_walks_stay_well_formed(self):
        rng = random.Random(5)
        for seed in _seed_zoo():
            cur, _ = _random_walk(rng, seed, 12)
            check_seed(cur)
            assert_face_equations(cur)

    def test_mutation_is_balanced_first(self):
        # the weight rule only makes sense at a homogeneous vertex, and every
        # unfrozen vertex of a built seed is homogeneous
        for seed in _seed_zoo():
            for at in seed.unfrozen_names():
                assert is_balanced(seed, at)

    def test_frozen_rows_never_change_sign_pattern(self):
        # "face" rows: mutation keeps every frozen vertex frozen and its
        # weight fixed
        rng = random.Random(99)
        for seed in _seed_zoo():
            cur, _ = _random_walk(rng, seed, 10)
            assert cur.frozen == seed.frozen
            for name in seed.names:
                if seed.frozen[seed.index(name)]:
                    assert cur.weight(name) == seed.weight(name)

    def test_exchange_label_collapses(self):
        seed = build_triangle_seed(root_datum("g2"))
        once = mutate(seed, "x_a2")
        twice = mutate(once, "x_a2")
        k = seed.index("x_a2")
        assert isinstance(once.labels[k], Exchange)
        assert twice.labels[k] is seed.labels[k]

    def test_matrix_rule_on_a_known_pair(self):
        seed = build_triangle_seed(root_datum("a2"))
        at = "x_11"
        k = seed.index(at)
        nxt = mutate(seed, at)
        for j in range(seed.size):
            assert nxt.b2[k][j] == -seed.b2[k][j]
            assert nxt.b2[j][k] == -seed.b2[j][k]


# == 3. X-coordinates ========================================================

class TestXCoordinates:
    def _avals(self, rng, seed):
        return {
            nm: Q(rng.randint(1, 9), rng.randint(1, 9)) for nm in seed.names
        }

    def test_p_exponents_match_rows(self):
        seed = build_conf_m_seed(root_datum("a2"), 4)
        for name in seed.unfrozen_names():
            row = p_exponents(seed, name)
            i = seed.index(name)
            for other, e in row.items():
                assert seed.b2[i][seed.index(other)] == 2 * e

    def test_x_transport_matches_exchange(self):
        # mutate A-values by the exchange relation; the induced X-values must
        # obey the X-mutation rule
        rng = random.Random(17)
        for _ in range(60):
            seed = rng.choice(_seed_zoo())
            avals = self._avals(rng, seed)
            at = rng.choice(seed.unfrozen_names())
            k = seed.index(at)
            plus = Q(1)
            minus = Q(1)
            for j in range(seed.size):
                e = seed.b2[k][j]
                if e > 0:
                    plus *= avals[seed.names[j]] ** (e // 2)
                elif e < 0:
                    minus *= avals[seed.names[j]] ** (-e // 2)
            new_avals = dict(avals)
            new_avals[at] = (plus + minus) / avals[at]

            stepped = mutate(seed, at)
            want = x_from_a(stepped, new_avals)
            got = mutate_x(seed, at, x_from_a(seed, avals))
            assert want == got


# == 4. slot permutations and duality ========================================

class TestSymmetries:
    def test_permute_slots_composes(self):
        seed = build_triangle_seed(root_datum("g2"))
        assert permute_slots(permute_slots(seed, (1, 2, 0)), (1, 2, 0)) == \
            permute_slots(seed, (2, 0, 1))

    def test_permute_identity(self):
        seed = build_conf_m_seed(root_datum("a2"), 4)
        assert permute_slots(seed, (0, 1, 2, 3)) == seed

    def test_dual_squares_to_identity(self):
        for kind, wmap in (("a2", None), ("a3", None), ("g2", g2_weight_dual)):
            seed = build_triangle_seed(root_datum(kind))
            bare = Seed(seed.names, seed.frozen, seed.mult, seed.b2, seed.weights)
            dd = langlands_dual(langlands_dual(seed, weight_map=wmap),
                                weight_map=wmap)
            assert dd == bare

    def test_dual_of_simply_laced_reverses_arrows(self):
        seed = build_triangle_seed(root_datum("a3"))
        dual = langlands_dual(seed)
        for i in range(seed.size):
            for j in range(seed.size):
                assert dual.b2[i][j] == -seed.b2[i][j]

    def test_dual_commutes_with_mutation(self):
        rng = random.Random(41)
        seed = build_triangle_seed(root_datum("g2"))
        for _ in range(40):
            at = rng.choice(seed.unfrozen_names())
            left = langlands_dual(mutate(seed, at), weight_map=g2_weight_dual)
            right = mutate(langlands_dual(seed, weight_map=g2_weight_dual), at)
            assert left == right
            seed = mutate(seed, at)


# == 5. isomorphism search ===================================================

class TestIsomorphism:
    def test_identity_found(self):
        for seed in _seed_zoo():
            iso = quiver_isomorphic(seed, seed)
            assert iso is not None
            final = {nm: nm for nm in seed.names}
            assert matches_under(seed, seed, final)

    def test_respects_multipliers(self):
        g2 = build_triangle_seed(root_datum("g2"))
        a3 = build_triangle_seed(root_datum("a3"))
        assert quiver_isomorphic(g2, a3) is None

    def test_detects_reversal(self):
        # weights pin the vertex map, so the only candidate against the
        # negated matrix is the identity, which needs reversed arrows
        seed = build_triangle_seed(root_datum("g2"))
        flipped = negate_b2(seed)
        assert quiver_isomorphic(seed, flipped) is None
        iso = quiver_isomorphic(seed, flipped, reverse_arrows=True)
        assert iso == {nm: nm for nm in seed.names}

    def test_rejects_corrupted_arrow(self):
        seed = build_triangle_seed(root_datum("a3"))
        b2 = [list(r) for r in seed.b2]
        i, j = seed.index("x_11"), seed.index("x_21")
        b2[i][j], b2[j][i] = -b2[i][j], -b2[j][i]
        other = Seed(seed.names, seed.frozen, seed.mult,
                     tuple(tuple(r) for r in b2), seed.weights)
        assert quiver_isomorphic(seed, other) is None

    def test_arrow_multiplicities(self):
        seed = build_triangle_seed(root_datum("g2"))
        table = {(a, b): m for a, b, m in arrows(seed)}
        # a single unit arrow into the long-root column carries b-value 3
        assert table[("x_a1", "x_b1")] == 1
        assert seed.b("x_a1", "x_b1") == 3
        assert seed.b("x_b1", "x_a1") == -1
        # dashed half arrows only between frozen vertices
        for (a, b), m in table.items():
            if m == Q(1, 2):
                assert seed.frozen[seed.index(a)]
                assert seed.frozen[seed.index(b)]


# == 6. the weight number type ===============================================

def _weight_coordinates(seed):
    """Every weight coordinate of a seed: vertex weights and minor labels."""
    tables = list(seed.weights)
    stack = list(seed.labels or ())
    while stack:
        label = stack.pop()
        if isinstance(label, Minor):
            tables.append(label.weights)
        else:
            stack.extend(l for l, _ in label.plus + label.minus)
            stack.append(label.over)
    return [c for ws in tables for w in ws for c in w]


class TestWeightType:
    def test_weights_are_ints(self, tmp_path):
        g2 = root_datum("g2")
        seeds = [
            build_triangle_seed(root_datum(kind))
            for kind in ("a2", "a3", "a4", "a5", "g2", "d4")
        ]
        hexagon = build_conf_m_seed(g2, 6)
        walked, _ = _random_walk(random.Random(5), hexagon, 5)
        seeds += [hexagon, walked]
        seeds.append(langlands_dual(build_triangle_seed(g2), weight_map=g2_weight_dual))
        save_seed(walked, tmp_path / "walked.json")
        seeds.append(load_seed(tmp_path / "walked.json"))
        for seed in seeds:
            coords = _weight_coordinates(seed)
            assert coords
            assert all(type(c) is int for c in coords), seed
