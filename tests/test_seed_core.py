"""Tests for seeds, mutation, labels, and duality.

Claims covered:
    - check_seed enforces skew-symmetrizability and frozen-row parity, and
      refuses rows and slot weights not stored as strictly ascending
      nonzero pairs of the right length; replace takes only stored fields
    - mutation is an involution on the full seed, labels included
    - exchange's sides, weight and label agree with the dense reference over
      every column along random walks, mutate stores them, and exchanging
      straight back collapses the label
    - the nonzero-only mutation and dual kernels agree with the dense
      reference formulas along random walks
    - mutation refuses a step that writes a b2 entry over the entry cap
      and takes one at the cap
    - mutation preserves skew-symmetrizability and weight homogeneity;
      the full check_seed holds after every step of random walks, on the
      zoo and on the g2 16-gon and the a3 hexagon
    - mutation checks only the block it writes, names a fault planted there
      by the same message as the full check of the dense reference, and
      runs no full check_seed; construction and load run it once each
    - mutation at any unfrozen vertex of the g2 128-gon keeps every row
      outside the vertex and its neighbours as the parent's own row object
      and builds no dense view of the parent
    - against the dense references of dense_reference: the sparse check
      raises the dense check's message, naming the same first pair, on
      every planted refusal; after every step of seeded walks on the g2
      16-gon, the a3 hexagon and the d4 triangle the dense b2 and weights
      equal the references; the glued seeds equal the one-at-a-time dense
      gluing
    - a seed keeps its fields as tuples, so a caller's lists of names,
      flags, multipliers, rows, slot weights and labels cannot change it
      afterwards
    - face equations hold at every unfrozen vertex along random walks
    - X-coordinates transport through mutation compatibly with the p-map;
      x_from_a equals the product of one Fraction power per factor on
      signed rationals with exponents of both signs, returns Fractions, and
      raises ZeroDivisionError where a vanishing value has a negative
      exponent
    - every refusal of a malformed seed carries its exact message, on
      construction, mutation, exchange, duality, slot permutation and
      comparison; the faults a seed file
      can hold are refused by load_seed and exit the command line with 2
    - slot permutations compose; the opposite seed negates b2, keeps every
      other field, passes check_seed and is its own inverse; the Langlands
      dual squares to the identity, and its matrix equals the dense rule on
      the zoo, the a4 and d4 triangles and the polygons, each also after a
      random walk
    - quiver_isomorphic and matches_under find real isomorphisms and reject
      broken ones, an arrow added where none was included; the search finds
      the identity on the g2 128-gon (1,010 vertices) without recursion,
      backtracks to the brute-force least mapping, and returns None once the
      first vertex runs out of candidates
    - every weight coordinate is an int, through building, gluing,
      mutation, duality and a save/load round trip
    - labels are hash-consed: equal labels are one immutable object, a
      save/load round trip returns the saved objects, and along the SL4
      4-gon's cyclic walk the label table grows by one entry per step, and
      map_weights maps each distinct node once, keeping their number;
      slot permutations, evaluation on fresh flags (against values stepped
      by the exchange relation) and repr take labels 1,200 steps deep
      without recursion
"""
from __future__ import annotations

import itertools
import json
import operator
import random
import sys
from fractions import Fraction as Q

import pytest

from confseed import minor_oracle as mo
from confseed import seed_core, surface_glue
from confseed.cli import main
from confseed.root_data import MAX_ENTRY_BITS, g2_weight_dual, root_datum
from confseed.seed_core import (
    Exchange,
    Minor,
    Seed,
    arrows,
    check_seed,
    exchange,
    langlands_dual,
    map_weights,
    matches_under,
    mutate,
    mutate_x,
    opposite,
    p_exponents,
    permute_slots,
    quiver_isomorphic,
    x_from_a,
)
from confseed.seed_builder import build_triangle_seed
from confseed.seed_io import load_seed, save_seed, seed_from_json, seed_to_json
from confseed.surface_glue import build_conf_m_seed

from dense_reference import (
    dense_dual_b2,
    dense_exchange,
    dense_mutate_b2,
    dense_seed,
    dense_weights,
    plant,
    reference_check_seed,
    reference_fold,
)
from seed_checks import assert_face_equations, is_balanced


# seeds are immutable, so one shared zoo serves every test
ZOO = (
    build_triangle_seed(root_datum("a2")),
    build_triangle_seed(root_datum("a3")),
    build_triangle_seed(root_datum("g2")),
    build_conf_m_seed(root_datum("a2"), 4),
    build_conf_m_seed(root_datum("g2"), 4),
)

# larger seeds for the walks: the g2 16-gon (114 vertices), the a3 hexagon
POLYGONS = (
    build_conf_m_seed(root_datum("g2"), 16),
    build_conf_m_seed(root_datum("a3"), 6),
)

# check_seed's refusals of a list in a stored field and of a malformed weight shape
_LISTS = "seed fields must be hashable: tuples, not lists"
_SHAPE = "the weight shape must be a slot count and a zero weight tuple"


def _at_x10(field: str, pairs) -> dict:
    """The change to the a2 triangle that stores ``pairs`` as its vertex
    x_10's entry of ``field``."""
    base = ZOO[0]
    assert base.names[0] == "x_10" and base.weight_shape == (3, (0, 0))
    stored = list(getattr(base, field))
    stored[0] = pairs
    return {field: stored}


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
            dense_seed(base.names, base.frozen, base.mult, b2, dense_weights(base),
                       base.labels)

    def test_broken_symmetrizability_rejected(self):
        base = build_triangle_seed(root_datum("g2"))
        b2 = [list(r) for r in base.b2]
        i = base.index("x_a1")
        j = base.index("x_b1")
        b2[i][j] += 2
        with pytest.raises(ValueError):
            dense_seed(base.names, base.frozen, base.mult, b2, dense_weights(base),
                       base.labels)

    def test_odd_unfrozen_entry_rejected(self):
        base = build_triangle_seed(root_datum("a2"))
        b2 = [list(r) for r in base.b2]
        i = base.index("x_11")
        j = base.index("x_10")
        b2[i][j] += 1
        b2[j][i] -= 1
        with pytest.raises(ValueError):
            dense_seed(base.names, base.frozen, base.mult, b2, dense_weights(base),
                       base.labels)

    def test_entry_facing_a_zero_rejected(self):
        base = build_triangle_seed(root_datum("a2"))
        i, j = next(
            (i, j) for i in range(base.size) for j in range(base.size)
            if i != j and base.b2[i][j] == 0
        )
        b2 = [list(r) for r in base.b2]
        b2[i][j] = 2
        with pytest.raises(ValueError, match="not skew-symmetrizable"):
            dense_seed(base.names, base.frozen, base.mult, b2, dense_weights(base),
                       base.labels)

    def test_odd_entry_in_frozen_row_at_unfrozen_column_rejected(self):
        base = build_triangle_seed(root_datum("a2"))
        i = base.index("x_10")
        j = base.index("x_11")
        assert base.frozen[i] and not base.frozen[j]
        b2 = [list(r) for r in base.b2]
        b2[i][j] += 1
        b2[j][i] -= 1
        with pytest.raises(ValueError, match="half-integral"):
            dense_seed(base.names, base.frozen, base.mult, b2, dense_weights(base),
                       base.labels)

    @pytest.mark.parametrize("changes, message", [
        (_at_x10("rows", ((1, -1), (1, -1), (2, 2), (5, -2))),
         "index 1 out of order in the b2 row of x_10"),
        (_at_x10("rows", ((2, 2), (1, -1), (5, -2))),
         "index 1 out of order in the b2 row of x_10"),
        (_at_x10("rows", ((1, -1), (2, 2), (3, 0), (5, -2))),
         "stored zero at 3 in the b2 row of x_10"),
        # a column past the end that is not the row's last: mutate, arrows
        # and the b2 view would index past the rows
        (_at_x10("rows", ((7, 2), (1, -1), (2, 2), (5, -2))),
         "index 1 out of order in the b2 row of x_10"),
        (_at_x10("slot_weights", ((2, (1, 0)), (0, (0, 1)))),
         "index 0 out of order in the slot weights of x_10"),
        (_at_x10("slot_weights", ((0, (0, 1)), (1, (0, 0)), (2, (1, 0)))),
         "stored zero at 1 in the slot weights of x_10"),
        (_at_x10("slot_weights", ((0, (0, 1)), (2, (1, 0, 5)))),
         "a weight of x_10 does not have 2 coordinates"),
        # lists would stay the caller's to change inside an immutable seed
        (_at_x10("rows", [(1, -1), (2, 2), (5, -2)]), _LISTS),
        (_at_x10("rows", ((1, -1), [2, 2], (5, -2))), _LISTS),
        (_at_x10("slot_weights", [(0, (0, 1)), (2, (1, 0))]), _LISTS),
        (_at_x10("slot_weights", ((0, (0, 1)), [2, (1, 0)])), _LISTS),
        (_at_x10("slot_weights", ((0, (0, 1)), (2, [1, 0]))), _LISTS),
        ({"weight_shape": None}, "slot weights and a weight shape must be given together"),
        ({"slot_weights": None}, "slot weights and a weight shape must be given together"),
        # a nonzero zero weight would fill every unstored slot with it
        ({"weight_shape": (3, (1, 0))}, _SHAPE),
        ({"weight_shape": (-1, (0, 0))}, _SHAPE),
        ({"weight_shape": (True, (0, 0))}, _SHAPE),
        ({"weight_shape": (3, [0, 0])}, _LISTS),
        ({"weight_shape": (3,)}, _SHAPE),
    ], ids=["repeated-column", "descending-columns", "stored-zero-entry",
            "column-past-the-end-first", "descending-slots", "stored-zero-weight",
            "wrong-coordinate-count", "row-list", "row-pair-list", "slot-weights-list",
            "slot-pair-list", "weight-list", "shape-without-weights", "weights-without-shape",
            "nonzero-zero-weight", "negative-slot-count", "bool-slot-count",
            "zero-weight-list", "shape-too-short"])
    def test_stored_form_not_canonical_rejected(self, changes, message):
        # the a2 triangle with a pair of vertex x_10 repeated, out of order,
        # zero, of the wrong length or not a tuple, or with a weight shape
        # that is missing or malformed; were it accepted, each seed would
        # compare unequal to the one stored canonically, or fail to hash
        with pytest.raises(ValueError) as err:
            ZOO[0].replace(**changes)
        assert str(err.value) == message

    @pytest.mark.parametrize("field", ["b2", "weights"])
    def test_replace_takes_stored_fields_only(self, field):
        with pytest.raises(TypeError, match=f"'{field}'"):
            ZOO[0].replace(**{field: None})

    def test_mutating_frozen_vertex_rejected(self):
        seed = build_triangle_seed(root_datum("a2"))
        with pytest.raises(ValueError):
            mutate(seed, "x_10")


def _dense_fields(seed, **changes):
    """dense_seed's arguments for seed, some of them replaced."""
    fields = dict(names=seed.names, frozen=seed.frozen, mult=seed.mult,
                  b2=seed.b2, weights=dense_weights(seed), labels=seed.labels)
    fields.update(changes)
    return fields


def _a2_fields(**changes):
    """dense_seed(...) on the a2 triangle's fields, some of them replaced."""
    fields = _dense_fields(ZOO[0], **changes)
    return lambda: dense_seed(**fields)


def _odd_path():
    """The a3 triangle with arrows q -> k -> p at an unfrozen k made odd.

    b2[p][k] = b2[k][q] = 1 makes the increment at (p, q) 2/4; the entries
    are planted past every check, so mutate's own test must refuse it.
    """
    base = ZOO[1]
    n = base.size
    k, p, q = next(
        (k, p, q) for k in range(n) if not base.frozen[k]
        for p in range(n) if base.b2[p][k] > 0
        for q in range(n) if base.b2[k][q] > 0
    )
    b2 = [list(r) for r in base.b2]
    b2[p][k], b2[k][p] = 1, -1
    b2[k][q], b2[q][k] = 1, -1
    return plant(base, b2), base.names[k]


A2_WEIGHTS = dense_weights(ZOO[0])
_G2_TRI = ZOO[2]
_G2_LONG = next(nm for nm, d in zip(_G2_TRI.names, _G2_TRI.mult) if d != 1)


def _without_weights(seed):
    return seed.replace(slot_weights=None, weight_shape=None)


def _extra_slot(data):
    data["vertices"][0]["weights"].append(data["vertices"][0]["weights"][0])


def _oversized(b2):
    """b2 with the arrow between x_10 and x_20 grown one bit over the cap."""
    rows = [list(r) for r in b2]
    rows[0][1], rows[1][0] = -1 << MAX_ENTRY_BITS, 1 << MAX_ENTRY_BITS
    return rows


class TestRefusals:
    """Every refusal of a malformed seed, with its exact message.

    A fault a seed file can hold is also written to one, which load_seed
    refuses with the same message and the command line with one line on
    stderr and exit status 2.
    """

    @pytest.mark.parametrize("call, message, file_fault", [
        (_a2_fields(names=(ZOO[0].names[1],) + ZOO[0].names[1:]),
         "vertex names must be unique",
         lambda data: data["vertices"][0].update(tag=data["vertices"][1]["tag"])),
        (_a2_fields(b2=ZOO[0].b2[:-1]), "field lengths disagree",
         lambda data: data["b2"].pop()),
        (_a2_fields(mult=(0,) + ZOO[0].mult[1:]), "multipliers must be positive",
         None),
        (_a2_fields(b2=(ZOO[0].b2[0] + (0,),) + ZOO[0].b2[1:]), "b2 must be square",
         lambda data: data["b2"][0].append(0)),
        (_a2_fields(weights=A2_WEIGHTS[:-1]),
         "one weight tuple per vertex required", None),
        (_a2_fields(weights=(A2_WEIGHTS[0] * 2,) + A2_WEIGHTS[1:]),
         "all vertices must use the same number of slots", _extra_slot),
        (_a2_fields(labels=ZOO[0].labels[:-1]), "one label per vertex required",
         None),
        (lambda: mutate(*_odd_path()), "mutation increment not integral", None),
        (lambda: langlands_dual(Seed(("u", "v"), (True, True), (2, 3), ((), ()))),
         "multipliers must divide their maximum", None),
        (lambda: langlands_dual(_G2_TRI), "weight_map required unless simply laced",
         None),
        (lambda: langlands_dual(_G2_TRI, weight_map=lambda w: (1, 1)),
         f"dual weight not integral at {_G2_LONG}", None),
        (lambda: quiver_isomorphic(*[_without_weights(ZOO[0])] * 2),
         "seeds to compare need weights", None),
        (lambda: matches_under(_without_weights(ZOO[0]), ZOO[0],
                               {nm: nm for nm in ZOO[0].names}),
         "seeds to compare need weights", None),
        (lambda: permute_slots(ZOO[0], (0, 1)),
         "(0, 1) is not a permutation of the 3 slots", None),
        (lambda: permute_slots(ZOO[0], (0, 0, 0)),
         "(0, 0, 0) is not a permutation of the 3 slots", None),
        (lambda: permute_slots(ZOO[0], (0, 1, 5)),
         "(0, 1, 5) is not a permutation of the 3 slots", None),
        (lambda: mutate(ZOO[0], "x_10"), "cannot mutate frozen vertex 'x_10'", None),
        (lambda: mutate_x(ZOO[0], "x_10", {"x_10": Q(1)}),
         "cannot mutate frozen vertex 'x_10'", None),
        (lambda: exchange(ZOO[0], "x_10"), "cannot mutate frozen vertex 'x_10'", None),
        (_a2_fields(b2=_oversized(ZOO[0].b2)),
         f"b2 entry over the cap of {MAX_ENTRY_BITS} bits at (x_10,x_20)",
         lambda data: data.update(b2=_oversized(data["b2"]))),
    ], ids=["duplicate-names", "missing-row", "zero-multiplier", "ragged-row",
            "missing-weights", "extra-slot", "missing-label", "odd-increment",
            "non-dividing-multipliers", "dual-without-weight-map",
            "non-integral-dual-weight", "comparison-without-weights",
            "weight-map-without-weights", "short-slot-permutation",
            "repeated-slot", "slot-out-of-range", "mutate-frozen",
            "mutate-x-frozen", "exchange-frozen", "oversized-entry"])
    def test_refusal_message(self, call, message, file_fault, tmp_path, capsys):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
        if file_fault is None:
            return
        path = tmp_path / "broken.json"
        save_seed(ZOO[0], path)
        data = json.loads(path.read_text())
        file_fault(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as err:
            load_seed(path)
        assert str(err.value) == message
        capsys.readouterr()
        assert main(["export-dot", "--seed", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"confseed: error: {message}\n"


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
        # the full check after every step is the reference for the local
        # check inside mutate
        rng = random.Random(5)
        for seed in _seed_zoo() + POLYGONS:
            cur = seed
            for _ in range(12):
                cur = mutate(cur, rng.choice(cur.unfrozen_names()))
                check_seed(cur)
            assert_face_equations(cur)

    @pytest.mark.parametrize("bits, refused", [(2047, False), (2048, True)])
    def test_entry_cap(self, bits, refused):
        # a path a -> b -> c whose b2 entries are 2**(bits + 1): mutating at
        # b writes -2**(2 * bits + 1) at (a, c), of 2 * bits + 2 bits, so
        # exactly the cap when bits is 2,047 and over it when bits is 2,048
        big = 2 << bits
        seed = Seed(("a", "b", "c"), (False,) * 3, (1,) * 3,
                    (((1, -big),), ((0, big), (2, -big)), ((1, big),)))
        if refused:
            with pytest.raises(ValueError, match=(
                    rf"^b2 entry over the cap of {MAX_ENTRY_BITS} bits at \(a,c\)$")):
                mutate(seed, "b")
        else:
            assert mutate(seed, "b").b2[0][2].bit_length() <= MAX_ENTRY_BITS

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

    def test_matches_dense_rule_along_random_walks(self):
        rng = random.Random(808)
        for seed in _seed_zoo() + POLYGONS[:1]:
            cur = seed
            for _ in range(25):
                at = rng.choice(cur.unfrozen_names())
                want = dense_mutate_b2(cur.b2, cur.index(at))
                cur = mutate(cur, at, with_labels=False)
                assert cur.b2 == want

    def test_exchange_matches_dense_rule_along_random_walks(self):
        # each step also checks that mutate stores exchange's weight and
        # label, and that exchanging straight back collapses the label
        rng = random.Random(909)
        for seed in _seed_zoo() + POLYGONS:
            cur = seed
            for _ in range(12):
                at = rng.choice(cur.unfrozen_names())
                k = cur.index(at)
                got = exchange(cur, at)
                want = dense_exchange(cur, k)
                assert got[:3] == want[:3]
                assert got[3] is want[3]
                nxt = mutate(cur, at)
                assert nxt.weight(at) == got[2]
                assert nxt.labels[k] is got[3]
                back = exchange(nxt, at)
                assert back[3] is cur.labels[k]
                assert back == dense_exchange(nxt, k)
                cur = nxt

    def test_matrix_rule_on_a_known_pair(self):
        seed = build_triangle_seed(root_datum("a2"))
        at = "x_11"
        k = seed.index(at)
        nxt = mutate(seed, at)
        for j in range(seed.size):
            assert nxt.b2[k][j] == -seed.b2[k][j]
            assert nxt.b2[j][k] == -seed.b2[j][k]


def _full_check_message(seed, at):
    """What check_seed says on the dense mutation of seed at ``at``."""
    dense = plant(seed, dense_mutate_b2(seed.b2, seed.index(at)))
    with pytest.raises(ValueError) as err:
        check_seed(dense)
    return str(err.value)


def _count_full_checks(monkeypatch):
    """Sizes of the seeds check_seed sees from now on."""
    seen = []
    real = seed_core.check_seed

    def counting(seed):
        seen.append(seed.size)
        real(seed)

    monkeypatch.setattr(seed_core, "check_seed", counting)
    return seen


class TestLocalCheck:
    def _neighbourhood(self, seed):
        """An unfrozen vertex k with two neighbours p, q (p < q)."""
        for k in range(seed.size):
            nbrs = [j for j, b in enumerate(seed.b2[k]) if b]
            if not seed.frozen[k] and len(nbrs) >= 2:
                return k, nbrs[0], nbrs[1]
        raise AssertionError("no vertex with two neighbours")

    @pytest.mark.parametrize("fault, message", [
        ("diagonal", "b2 diagonal must be zero"),
        ("skew", "not skew-symmetrizable"),
        ("parity", "half-integral entry"),
    ])
    def test_fault_in_the_block_named_like_the_full_check(self, fault, message):
        base = build_triangle_seed(root_datum("a3"))
        k, p, q = self._neighbourhood(base)
        b2 = [list(r) for r in base.b2]
        if fault == "diagonal":
            b2[p][p] = 2
        elif fault == "skew":
            b2[p][q] += 2
        else:
            # an odd pair at k keeps skew-symmetry (equal multipliers) and
            # leaves every mutation increment integral
            step = 1 if b2[k][p] > 0 else -1
            b2[k][p] += step
            b2[p][k] -= step
        planted = plant(base, b2)
        want = _full_check_message(planted, base.names[k])
        assert want.startswith(message)
        with pytest.raises(ValueError) as err:
            mutate(planted, base.names[k])
        assert str(err.value) == want

    def test_caller_lists_cannot_change_a_seed(self):
        base = build_triangle_seed(root_datum("a3"))
        k, p, q = self._neighbourhood(base)
        # outer lists are copied into tuples
        fields = [list(base.names), list(base.frozen), list(base.mult), list(base.rows),
                  list(base.slot_weights), base.weight_shape, list(base.labels)]
        seed = Seed(*fields)
        fields[3][p] = fields[3][q]
        fields[4][p] = ()
        assert seed == base
        assert hash(seed) == hash(base)
        assert mutate(seed, base.names[k]) == mutate(base, base.names[k])
        # inner lists, which the seed would keep, are refused
        rows = [list(r) for r in base.rows]
        with pytest.raises(ValueError, match="tuples, not lists"):
            Seed(base.names, base.frozen, base.mult, rows, base.slot_weights,
                 base.weight_shape, base.labels)
        slot_weights = [list(ws) for ws in base.slot_weights]
        with pytest.raises(ValueError, match="tuples, not lists"):
            Seed(base.names, base.frozen, base.mult, base.rows, slot_weights,
                 base.weight_shape, base.labels)

    def test_mutation_writes_only_its_neighbourhood(self):
        # on the g2 128-gon (1,010 vertices), mutating at any unfrozen k
        # keeps every row but those of k and its neighbours as the parent's
        # own row object, and builds no dense view of the parent
        seed = build_conf_m_seed(root_datum("g2"), 128)
        n = seed.size
        for at in seed.unfrozen_names():
            k = seed.index(at)
            nxt = mutate(seed, at)
            written = set(itertools.compress(range(n), map(operator.is_not, nxt.rows, seed.rows)))
            assert k in written
            assert written <= {k, *(j for j, _ in seed.rows[k])}
        assert seed._b2 is None

    def test_walk_runs_no_full_check(self, monkeypatch):
        seen = _count_full_checks(monkeypatch)
        _random_walk(random.Random(14), POLYGONS[0], 20)
        assert seen == []

    def test_construction_and_load_check_once(self, monkeypatch, tmp_path):
        base = build_triangle_seed(root_datum("g2"))
        save_seed(base, tmp_path / "g2.json")
        seen = _count_full_checks(monkeypatch)
        Seed(base.names, base.frozen, base.mult, base.rows, base.slot_weights, base.weight_shape,
             base.labels)
        assert seen == [base.size]
        seen.clear()
        assert load_seed(tmp_path / "g2.json") == base
        assert seen == [base.size]
        seen.clear()
        glued = build_conf_m_seed(root_datum("g2"), 16)
        assert seen.count(glued.size) == 1


def _planted_b2(seed, *entries):
    """seed's dense b2 with (row name, column name, increment) added."""
    b2 = [list(r) for r in seed.b2]
    for a, b, step in entries:
        b2[seed.index(a)][seed.index(b)] += step
    return b2


def _planted_refusals():
    """(id, dense fields) for every check_seed refusal, one fault or two each."""
    a2, a3, g2 = ZOO[0], ZOO[1], ZOO[2]
    facing_zero = next(
        (i, j) for i in range(a2.size) for j in range(a2.size)
        if i != j and a2.b2[i][j] == 0
    )
    zero_facing = [list(r) for r in a2.b2]
    zero_facing[facing_zero[0]][facing_zero[1]] = 2
    return [
        ("duplicate-names", _dense_fields(a2, names=(a2.names[1],) + a2.names[1:])),
        ("missing-row", _dense_fields(a2, b2=a2.b2[:-1])),
        ("zero-multiplier", _dense_fields(a2, mult=(0,) + a2.mult[1:])),
        ("ragged-row", _dense_fields(a2, b2=(a2.b2[0] + (0,),) + a2.b2[1:])),
        ("short-row", _dense_fields(a2, b2=a2.b2[:2] + (a2.b2[2][:-1],) + a2.b2[3:])),
        ("diagonal", _dense_fields(a2, b2=_planted_b2(a2, ("x_10", "x_10", 2)))),
        ("oversized", _dense_fields(a2, b2=_oversized(a2.b2))),
        ("skew", _dense_fields(g2, b2=_planted_b2(g2, ("x_a1", "x_b1", 2)))),
        ("odd-unfrozen", _dense_fields(
            a2, b2=_planted_b2(a2, ("x_11", "x_10", 1), ("x_10", "x_11", -1)))),
        ("facing-zero", _dense_fields(a2, b2=zero_facing)),
        ("odd-frozen-row", _dense_fields(
            a2, b2=_planted_b2(a2, ("x_10", "x_11", 1), ("x_11", "x_10", -1)))),
        # two faults: the later row's skew fault and an earlier row's
        # parity fault; both checks must name the earlier row's pair
        ("first-of-two", _dense_fields(a3, b2=_planted_b2(
            a3, (a3.names[-1], a3.names[-2], 2),
            ("x_11", "x_12", 1), ("x_12", "x_11", -1)))),
        ("missing-weights", _dense_fields(a2, weights=A2_WEIGHTS[:-1])),
        ("extra-slot", _dense_fields(
            a2, weights=(A2_WEIGHTS[0] * 2,) + A2_WEIGHTS[1:])),
        ("missing-label", _dense_fields(a2, labels=a2.labels[:-1])),
    ]


PLANTED = _planted_refusals()


class TestDenseReferences:
    """The sparse kernels against the dense references of dense_reference."""

    @pytest.mark.parametrize("fields", [f for _, f in PLANTED], ids=[i for i, _ in PLANTED])
    def test_check_names_the_reference_fault(self, fields):
        with pytest.raises(ValueError) as want:
            reference_check_seed(**fields)
        with pytest.raises(ValueError) as got:
            dense_seed(**fields)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("seed", [POLYGONS[0], POLYGONS[1], build_triangle_seed(
        root_datum("d4"))], ids=["g2-16", "a3-6", "d4-3"])
    def test_walk_views_equal_the_references(self, seed):
        rng = random.Random(23)
        cur = seed
        for _ in range(15):
            at = rng.choice(cur.unfrozen_names())
            k = cur.index(at)
            weight = dense_exchange(cur, k)[2]
            want_b2 = dense_mutate_b2(cur.b2, k)
            weights = dense_weights(cur)
            want_weights = weights[:k] + (weight,) + weights[k + 1:]
            cur = mutate(cur, at)
            assert cur.b2 == want_b2
            assert dense_weights(cur) == want_weights
            reference_check_seed(**_dense_fields(cur))

    @pytest.mark.parametrize("seed, kind, m", [
        (ZOO[3], "a2", 4), (ZOO[4], "g2", 4), (POLYGONS[0], "g2", 16), (POLYGONS[1], "a3", 6),
    ], ids=["a2-4", "g2-4", "g2-16", "a3-6"])
    def test_glued_seeds_equal_the_reference_fold(self, seed, kind, m, monkeypatch):
        # the glued seeds of ZOO and POLYGONS, rebuilt by gluing their
        # pieces one at a time on dense matrices
        monkeypatch.setattr(surface_glue, "amalgamate", reference_fold)
        assert build_conf_m_seed(root_datum(kind), m) == seed


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

    @staticmethod
    def _x_reference(seed, avals):
        """X-values as a product of one Fraction power per factor."""
        out = {}
        for name in seed.unfrozen_names():
            x = Q(1)
            for j, e in p_exponents(seed, name).items():
                x *= Q(avals[j]) ** e
            out[name] = x
        return out

    def test_x_values_match_the_fraction_product(self):
        # signed rationals and ints, on seeds walked until their p-map rows
        # carry exponents of both signs
        rng = random.Random(23)
        for _ in range(40):
            seed = rng.choice(_seed_zoo())
            for _ in range(rng.randint(0, 6)):
                seed = mutate(seed, rng.choice(seed.unfrozen_names()))
            avals = {
                nm: rng.choice((
                    rng.randint(-9, 9) or 1,
                    Q(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                ))
                for nm in seed.names
            }
            got = x_from_a(seed, avals)
            assert got == self._x_reference(seed, avals)
            assert all(type(x) is Q for x in got.values())
            rows = [p_exponents(seed, nm).values() for nm in seed.unfrozen_names()]
            assert any(min(row) < 0 < max(row) for row in rows if row)

    def test_a_vanishing_value_raises_only_under_a_negative_exponent(self):
        seed = build_conf_m_seed(root_datum("a2"), 4)
        for name in seed.unfrozen_names():
            for j, e in p_exponents(seed, name).items():
                avals = {nm: Q(2, 3) for nm in seed.names}
                avals[j] = Q(0)
                if e < 0:
                    with pytest.raises(ZeroDivisionError):
                        x_from_a(seed, avals, [name])
                else:
                    assert x_from_a(seed, avals, [name]) == {name: 0}


# == 4. slot permutations and duality ========================================

class TestSymmetries:
    def test_permute_slots_composes(self):
        seed = build_triangle_seed(root_datum("g2"))
        assert permute_slots(permute_slots(seed, (1, 2, 0)), (1, 2, 0)) == \
            permute_slots(seed, (2, 0, 1))

    def test_permute_identity(self):
        seed = build_conf_m_seed(root_datum("a2"), 4)
        assert permute_slots(seed, (0, 1, 2, 3)) == seed

    def test_opposite_reverses_arrows_and_keeps_the_rest(self):
        walked = _random_walk(random.Random(7), ZOO[4], 6)[0]
        for seed in _seed_zoo() + (walked,):
            opp = opposite(seed)
            assert opp.b2 == tuple(tuple(-b for b in row) for row in seed.b2)
            for name in ("names", "frozen", "mult", "slot_weights", "weight_shape", "labels"):
                assert getattr(opp, name) is getattr(seed, name), name
            # negation keeps every invariant, so the unchecked result passes
            check_seed(opp)
            assert opposite(opp) == seed

    def test_dual_squares_to_identity(self):
        for kind, wmap in (("a2", None), ("a3", None), ("g2", g2_weight_dual)):
            seed = build_triangle_seed(root_datum(kind))
            bare = seed.replace(labels=None)
            dd = langlands_dual(langlands_dual(seed, weight_map=wmap),
                                weight_map=wmap)
            assert dd == bare

    def test_dual_of_simply_laced_reverses_arrows(self):
        seed = build_triangle_seed(root_datum("a3"))
        dual = langlands_dual(seed)
        for i in range(seed.size):
            for j in range(seed.size):
                assert dual.b2[i][j] == -seed.b2[i][j]

    def test_dual_matches_dense_rule(self):
        # the dual matrix is the transpose; the reference scales every entry
        rng = random.Random(12)
        triangles = tuple(build_triangle_seed(root_datum(k)) for k in ("a4", "d4"))
        for seed in _seed_zoo() + triangles + POLYGONS:
            wmap = g2_weight_dual if max(seed.mult) > 1 else None
            for cur in (seed, _random_walk(rng, seed, 8)[0]):
                dual = langlands_dual(cur, weight_map=wmap)
                assert dual.b2 == dense_dual_b2(cur)

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
        flipped = seed.replace(rows=tuple(tuple((j, -b) for j, b in r) for r in seed.rows))
        assert quiver_isomorphic(seed, flipped) is None
        iso = quiver_isomorphic(opposite(seed), flipped)
        assert iso == {nm: nm for nm in seed.names}

    def test_rejects_corrupted_arrow(self):
        seed = build_triangle_seed(root_datum("a3"))
        b2 = [list(r) for r in seed.b2]
        i, j = seed.index("x_11"), seed.index("x_21")
        b2[i][j], b2[j][i] = -b2[i][j], -b2[j][i]
        other = dense_seed(seed.names, seed.frozen, seed.mult, b2, dense_weights(seed))
        assert quiver_isomorphic(seed, other) is None

    def test_backtracks_past_a_wrong_candidate(self):
        # two arrows a -> b and c -> d with equal weights: every vertex
        # profile has two candidates, and in s2's vertex order the first
        # candidate for b is d, which only the arrow from a rules out
        def two_arrows(names):
            b2 = [[0] * 4 for _ in names]
            for src, dst in (("a", "b"), ("c", "d")):
                i, j = names.index(dst), names.index(src)
                b2[i][j], b2[j][i] = 2, -2
            return dense_seed(names, (False,) * 4, (1,) * 4, b2, (((0,),),) * 4)

        s1, s2 = two_arrows(("a", "c", "b", "d")), two_arrows(("a", "c", "d", "b"))
        iso = quiver_isomorphic(s1, s2)
        assert iso == {nm: nm for nm in s1.names}
        assert matches_under(s1, s2, iso)

    @staticmethod
    def _unit_quiver(arrow_list, n=6):
        """n unfrozen vertices v0, v1, ... of multiplier 1 and one weight."""
        b2 = [[0] * n for _ in range(n)]
        for src, dst in arrow_list:
            b2[dst][src], b2[src][dst] = 2, -2
        return dense_seed(tuple(f"v{i}" for i in range(n)), (False,) * n, (1,) * n, b2,
                          (((0,),),) * n)

    @staticmethod
    def _least_mapping(s1, s2):
        """Brute force: the least matching bijection, s2's vertex order."""
        for perm in itertools.permutations(s2.names):
            mapping = dict(zip(s1.names, perm))
            if matches_under(s1, s2, mapping):
                return mapping
        return None

    def test_backtracks_a_level_to_the_least_mapping(self):
        # every vertex has one weight and multiplier, so only the arrows
        # prune; the first full choice fails a level up and is taken back
        s1 = self._unit_quiver(((1, 0), (1, 5), (2, 5), (5, 4), (4, 3)))
        p = (5, 1, 4, 3, 2, 0)
        s2 = dense_seed(s1.names, s1.frozen, s1.mult, [
            [s1.b2[p[i]][p[j]] for j in range(6)] for i in range(6)
        ], dense_weights(s1))
        iso = quiver_isomorphic(s1, s2)
        assert iso is not None
        assert iso == self._least_mapping(s1, s2)

    def test_exhausted_search_returns_none(self):
        # an oriented 6-cycle against two oriented 3-cycles: every vertex
        # has the same key, so the search tries and drops every candidate
        # of the first vertex
        hexagon = self._unit_quiver([(i, (i + 1) % 6) for i in range(6)])
        triangles = self._unit_quiver(
            [(i, (i + 1) % 3) for i in range(3)]
            + [(3 + i, 3 + (i + 1) % 3) for i in range(3)]
        )
        assert self._least_mapping(hexagon, triangles) is None
        assert quiver_isomorphic(hexagon, triangles) is None

    def test_large_seed_needs_no_recursion(self):
        # the search goes one level deeper per vertex, and the g2 128-gon
        # has more vertices than Python's default recursion limit
        seed = build_conf_m_seed(root_datum("g2"), 128)
        assert seed.size == 1010 > sys.getrecursionlimit()
        assert quiver_isomorphic(seed, seed) == {nm: nm for nm in seed.names}

    def test_arrow_where_none_was_is_caught(self):
        # the sparse comparison must see an entry that is zero on one side
        # only, whichever seed holds the nonzero one
        seed = build_triangle_seed(root_datum("a3"))
        i, j = next(
            (i, j)
            for i in range(seed.size) for j in range(i + 1, seed.size)
            if seed.frozen[i] and seed.frozen[j] and not seed.b2[i][j]
        )
        assert seed.mult[i] == seed.mult[j] == 1
        b2 = [list(r) for r in seed.b2]
        b2[i][j], b2[j][i] = 1, -1
        other = dense_seed(seed.names, seed.frozen, seed.mult, b2, dense_weights(seed),
                           seed.labels)
        identity = {nm: nm for nm in seed.names}
        assert not matches_under(seed, other, identity)
        assert not matches_under(other, seed, identity)
        assert quiver_isomorphic(seed, other) is None
        assert quiver_isomorphic(other, seed) is None

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
    tables = list(dense_weights(seed))
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


# == 7. hash-consed labels ===================================================

# the SL4 4-gon's cyclic walk, whose label trees double about every step
CYCLE = ("x_01", "x_02", "x_11")


def _cyclic_walk(steps):
    """The SL4 4-gon and the seeds after 1..steps mutations along CYCLE."""
    seed = build_conf_m_seed(root_datum("a3"), 4)
    seeds = [seed]
    for d in range(steps):
        seed = mutate(seed, CYCLE[d % 3])
        seeds.append(seed)
    return seeds


class TestLabelInterning:
    def test_equal_minors_are_one_object(self):
        a = Minor(tuple(tuple([1, 0]) for _ in range(2)))
        b = Minor(((1, 0), (1, 0)))
        assert a is b
        assert Minor(((0, 1), (1, 0))) is not a

    def test_exchange_from_equal_parts_is_one_object(self):
        def build():
            x, y, z = (Minor(((i, 0),)) for i in range(3))
            return Exchange(tuple([(x, 1), (y, 2)]), tuple([(z, 1)]), Minor(((3, 0),)))

        assert build() is build()
        seed = ZOO[1]
        at = seed.unfrozen_names()[0]
        assert all(
            a is b for a, b in zip(mutate(seed, at).labels, mutate(seed, at).labels)
        )

    def test_labels_are_immutable(self):
        minor = Minor(((1, 0), (0, 1)))
        ex = Exchange(((minor, 1),), (), minor)
        for label, field in ((minor, "weights"), (ex, "over"), (ex, "plus"), (minor, "other")):
            with pytest.raises(AttributeError):
                setattr(label, field, ())
        with pytest.raises(AttributeError):
            del minor.weights
        assert minor.weights == ((1, 0), (0, 1))

    def test_round_trip_returns_the_saved_objects(self):
        deepest = _cyclic_walk(12)[-1]
        back = seed_from_json(seed_to_json(deepest))
        assert back == deepest
        assert all(a is b for a, b in zip(back.labels, deepest.labels))

    def test_label_table_grows_one_entry_per_step(self):
        seeds = _cyclic_walk(60)
        sizes = [len(seed_to_json(s)["labels"]) for s in seeds]
        assert sizes == [seeds[0].size + d for d in range(61)]
        assert sizes[12] == 33 and sizes[60] == 81
        # slot permutations and gluing map each distinct node once
        rotated = permute_slots(seeds[-1], (1, 2, 3, 0))
        assert len(seed_to_json(rotated)["labels"]) == 81
        assert permute_slots(rotated, (3, 0, 1, 2)).labels == seeds[-1].labels

    def test_map_weights_maps_each_distinct_node_once(self):
        seed = _cyclic_walk(60)[-1]
        seen = []

        def negate(w):
            seen.append(w)
            return tuple(-c for c in w)

        mapped = map_weights(seed, negate)
        assert dense_weights(mapped) == tuple(
            tuple(tuple(-c for c in w) for w in ws) for ws in dense_weights(seed))
        # the 81 distinct label nodes stay 81, and fn saw each nonzero
        # vertex weight and each slot of each minor once
        table = seed_to_json(mapped)["labels"]
        assert len(table) == len(seed_to_json(seed)["labels"]) == 81
        n_minors = sum(e["kind"] == "minor" for e in table)
        assert len(seen) == sum(map(len, seed.slot_weights)) + n_minors * seed.slots
        same = map_weights(seed, lambda w: w)
        assert same == seed
        assert all(a is b for a, b in zip(same.labels, seed.labels))

    def test_deep_labels_permute_without_recursion(self):
        # 1,200 cyclic steps nest labels deeper than the recursion limit
        start = build_conf_m_seed(root_datum("a3"), 4)
        rng = random.Random(1200)

        def walk():
            # the values are stepped by the exchange relation alone, with no
            # label evaluated; until_defined draws again if one vanishes
            flags = mo.random_flags(rng, 4, 4)
            values = {
                nm: mo.wedge_invariant(mo.degrees_of(start.weight(nm)), flags)
                for nm in start.names
            }
            seed = start
            for d in range(1200):
                at = CYCLE[d % 3]
                plus = minus = Q(1)
                for b, nm in zip(seed.b2[seed.index(at)], seed.names):
                    if b > 0:
                        plus *= values[nm] ** (b // 2)
                    elif b < 0:
                        minus *= values[nm] ** (-b // 2)
                values[at] = (plus + minus) / values[at]
                seed = mutate(seed, at)
            return seed, flags, values

        seed, flags, want = mo.until_defined("the stepped walk", walk)
        assert mo.seed_values(seed, flags) == want
        swap = (1, 0, 3, 2)
        assert permute_slots(permute_slots(seed, swap), swap) == seed
        assert len(repr(seed.labels[seed.index("x_01")])) < 1000
