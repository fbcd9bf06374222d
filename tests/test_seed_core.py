"""Tests for seeds, mutation, labels, and duality.

Claims covered:
    - check_seed enforces skew-symmetrizability and frozen-row parity, and
      refuses rows and slot weights not stored as strictly ascending
      nonzero pairs of the right length; replace takes only stored fields
    - check_seed refuses every value no seed file holds with the loader's
      message: names, flags, multipliers, b2 entries and weight coordinates
      of another type, multipliers below 1 and multipliers and coordinates
      over the cap, weights or labels on a seed with no vertices
    - labels check themselves where they are made: a minor its shape and
      its pairs as a vertex's, so a slot past the count, descending pairs, a
      float coordinate and a shape with no slots or coordinates are
      refused; an exchange its children, their shapes, its exponents and
      its two sides' weights, so a child that is not a label, a nested
      minor of another shape, an exponent of 0 and an inhomogeneous
      exchange are refused
    - the label rule: labels need weights, and each label is a Minor or an
      Exchange of the seed's weight shape with its vertex's weight, so
      swapped labels, an exchange over another vertex's label, a minor of
      another shape and a label that is neither are refused
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
      random walk, with and without a weight map; every such dual, built
      unchecked, passes check_seed and equals the checked Seed of its
      fields, and weight maps whose images no seed holds are refused with
      the full check's exact type and message; the seed with no vertices is
      its own dual
    - the dual's memo: along a walk each vertex seen before under a map gets
      the very tuple the memo stored, and every dual equals the dense rule;
      a refused call after memo hits keeps the checked Seed's message and
      stores nothing; a map that cannot be weakly referenced works; a walk
      past the memo's cap never holds more entries and gives a fresh map's
      duals; the memo goes with its map
    - quiver_isomorphic and matches_under find real isomorphisms and reject
      broken ones, an arrow added where none was included; the search finds
      the identity on the g2 128-gon (1,010 vertices) without recursion,
      backtracks to the brute-force least mapping, and returns None once the
      first vertex runs out of candidates
    - every weight coordinate is an int, through building, gluing,
      mutation, duality and a save/load round trip
    - labels are hash-consed: equal labels are one immutable object, a
      minor holds its nonzero (slot, weight) pairs ascending in slot and
      the seed's weight shape through building, gluing, slot moves, weight
      maps, walks and loading, a
      save/load round trip returns the saved objects, and along the SL4
      4-gon's cyclic walk the label table grows by one entry per step, and
      map_weights maps each distinct node once, keeping their number; once
      nothing refers to a label its table entry goes, and the next equal
      label is a new object;
      slot permutations, evaluation on fresh flags (against values stepped
      by the exchange relation) and repr take labels 1,200 steps deep
      without recursion
"""
from __future__ import annotations

import gc
import itertools
import json
import operator
import random
import sys
import weakref
from fractions import Fraction as Q

import pytest

from confseed import minor_oracle as mo
from confseed import seed_core, surface_glue
from confseed.cli import main
from confseed.root_data import MAX_ENTRY_BITS, dual_weight_map, g2_weight_dual, root_datum
from confseed.seed_core import (
    Exchange,
    Minor,
    Seed,
    arrows,
    check_seed,
    dense,
    exchange,
    langlands_dual,
    map_weights,
    matches_under,
    mutate,
    mutate_x,
    opposite,
    p_exponents,
    permute_slots,
    post_order,
    quiver_isomorphic,
    x_from_a,
)
from confseed.seed_builder import build_triangle_seed
from confseed.seed_io import load_seed, save_seed, seed_from_json, seed_to_json
from confseed.surface_glue import build_conf_m_seed

from dense_reference import (
    dense_dual_b2,
    dense_exchange,
    dense_minor,
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
_UNWEIGHTED = "a seed with labels must carry weights"
_SHAPELESS = "a minor has weight shape {}; " + _SHAPE


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
        (_at_x10("slot_weights", ((0, (0, 1)), (0, (0, 1)), (2, (1, 0)))),
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
        # a seed file cannot store a weight list with no slots or a weight
        # with no coordinates, so no seed holds either
        ({"weight_shape": (0, (0, 0)), "slot_weights": ((),) * ZOO[0].size}, _SHAPE),
        ({"weight_shape": (3, ()), "slot_weights": ((),) * ZOO[0].size}, _SHAPE),
    ], ids=["repeated-column", "descending-columns", "stored-zero-entry",
            "column-past-the-end-first", "descending-slots", "repeated-slot",
            "stored-zero-weight",
            "wrong-coordinate-count", "row-list", "row-pair-list", "slot-weights-list",
            "slot-pair-list", "weight-list", "shape-without-weights", "weights-without-shape",
            "nonzero-zero-weight", "negative-slot-count", "bool-slot-count",
            "zero-weight-list", "shape-too-short", "zero-slots", "zero-coordinates"])
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
    return seed.replace(slot_weights=None, weight_shape=None, labels=None)


def _two_vertex(weight_at_v):
    """Frozen u -> v with multipliers (1, 2), v's one weight given."""
    return Seed(("u", "v"), (True, True), (1, 2), (((1, 1),), ((0, -2),)),
                (((0, (2,)),), ((0, weight_at_v),)), (1, (0,)))


def _extra_slot(data):
    data["vertices"][0]["weights"].append(data["vertices"][0]["weights"][0])


def _oversized(b2):
    """b2 with the arrow between x_10 and x_20 grown one bit over the cap."""
    return _at_01(b2, -1 << MAX_ENTRY_BITS, 1 << MAX_ENTRY_BITS)


def _at_01(b2, b01, b10):
    """b2 with the entries between vertices 0 and 1 replaced."""
    rows = [list(r) for r in b2]
    rows[0][1], rows[1][0] = b01, b10
    return rows


def _at_0(values, value):
    """values with the one of vertex 0 replaced."""
    return _at(values, 0, value)


def _at(values, k, value):
    """values with the one of vertex k replaced."""
    return tuple(values[:k]) + (value,) + tuple(values[k + 1:])


def _first_weight(weights, weight):
    """The dense weights with vertex 0's first slot replaced."""
    return _at_0(weights, _at_0(weights[0], weight))


def _first_minor(labels, weights):
    """The labels with vertex 0's replaced by the minor of dense weights."""
    return _at_0(labels, dense_minor(weights))


def _file_at_0(key, value):
    """A seed-file fault: vertex 0's ``key`` set to value."""
    return lambda data: data["vertices"][0].update({key: value})


def _file_minor_0(change):
    """A seed-file fault: change applied to vertex 0's minor's weight list."""
    return lambda data: change(data["labels"][data["vertices"][0]["label"]]["weights"])


def _file_weightless_minor_0(change):
    """A seed-file fault: every vertex's weights left out, and change
    applied to vertex 0's minor's weight list."""
    def fault(data):
        for v in data["vertices"]:
            del v["weights"]
        _file_minor_0(change)(data)
    return fault


def _no_coordinates(data):
    """A seed-file fault: every vertex's weights left out, and every minor's
    weight vectors emptied."""
    for v in data["vertices"]:
        del v["weights"]
    for entry in data["labels"]:
        entry["weights"] = [[] for _ in entry["weights"]]


def _file_of(seed, change):
    """A seed-file fault: the file of seed in place of the a2 triangle's,
    with change applied to it."""
    def fault(data):
        data.clear()
        data.update(seed_to_json(seed))
        change(data)
    return fault


def _swap_01(values):
    """values with those of vertices 0 and 1 swapped."""
    return (values[1], values[0]) + tuple(values[2:])


def _swap_file_labels(data):
    first, second = data["vertices"][:2]
    first["label"], second["label"] = second["label"], first["label"]


def _drop_file_weights(data):
    for v in data["vertices"]:
        del v["weights"]


# the a2 triangle mutated at x_11, whose label is then an exchange over
# x_11's minor; its twin takes its over from x_10 instead
_A2_STEP = mutate(ZOO[0], "x_11")
_A2_K = _A2_STEP.index("x_11")
_A2_EX = _A2_STEP.labels[_A2_K]
_A2_WRONG_OVER = Exchange(_A2_EX.plus, _A2_EX.minus, _A2_STEP.labels[0])


def _over_x10(data):
    """A seed-file fault: the exchange entry's over set to x_10's label."""
    entry = data["labels"][data["vertices"][_A2_K]["label"]]
    entry["over"] = data["vertices"][0]["label"]


def _nested_short_minor(data):
    """A seed-file fault: vertex 0 labelled by an exchange whose plus side
    is a minor one slot short."""
    labels = data["labels"]
    short = dict(labels[data["vertices"][0]["label"]])
    short["weights"] = short["weights"][:2]
    labels.append(short)
    labels.append({"kind": "exchange", "plus": [[len(labels) - 1, 1]], "minus": [],
                   "over": data["vertices"][1]["label"]})
    data["vertices"][0]["label"] = len(labels) - 1


def _one_vertex_minor(pairs):
    """Frozen u, of weight (1, 0) at slot 0 of 3, labelled by the minor of
    the stored pairs given; no seed file holds such a minor."""
    shape = (3, (0, 0))
    return Seed(("u",), (True,), (1,), ((),), (((0, (1, 0)),),), shape, (Minor(pairs, shape),))


def _vertex_u(minor_weight):
    """Frozen u of weight (7, 3) at its one slot, labelled by the minor of
    minor_weight there."""
    shape = (1, (0, 0))
    return Seed(("u",), (True,), (1,), ((),), (((0, (7, 3)),),), shape,
                (Minor(((0, minor_weight),), shape),))


def _float_minor_file(data):
    """A seed-file fault: the file of ``_vertex_u((7, 3))`` with the minor's
    first coordinate 7.0.  The seed is built here, when the direct call has
    run: while an equal minor of int coordinates is alive, ``Minor`` returns
    that one for the float request, as 7.0 == 7."""
    _file_of(_vertex_u((7, 3)), lambda data: data["labels"][0].update(weights=[[7.0, 3]]))(data)


# the a3 triangle mutated at its first unfrozen vertex, whose label is then
# an exchange; its twin has one more plus factor, of exponent 0, which
# leaves both sides' weights as they were
_A3_STEP = mutate(ZOO[1], ZOO[1].unfrozen_names()[0])
_A3_K = _A3_STEP.index(ZOO[1].unfrozen_names()[0])


def _zero_exponent_labels():
    ex = _A3_STEP.labels[_A3_K]
    return _at(_A3_STEP.labels, _A3_K,
               Exchange(ex.plus + ((_A3_STEP.labels[0], 0),), ex.minus, ex.over))


def _zero_exponent_file(data):
    """A seed-file fault: the file of _A3_STEP whose exchange entry has one
    more plus factor, vertex 0's label to the power 0."""
    def add(data):
        entry = data["labels"][data["vertices"][_A3_K]["label"]]
        entry["plus"].append([data["vertices"][0]["label"], 0])
    _file_of(_A3_STEP, add)(data)


def _bool_exponent_file(data):
    """A seed-file fault: the file of _A2_STEP with its exchange entry's
    first plus exponent true, which equals 1."""
    def flip(data):
        entry = data["labels"][data["vertices"][_A2_K]["label"]]
        entry["plus"] = [[entry["plus"][0][0], True]] + entry["plus"][1:]
    _file_of(_A2_STEP, flip)(data)


def _drop_file_minus(data):
    """A seed-file fault: the file of _A2_STEP with its exchange entry's
    minus side emptied."""
    def drop(data):
        data["labels"][data["vertices"][_A2_K]["label"]]["minus"] = []
    _file_of(_A2_STEP, drop)(data)


# vertex 0's minor in the a2 triangle, dense
_A2_MINOR = dense(ZOO[0].labels[0].weights, *ZOO[0].weight_shape)


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
        (_a2_fields(mult=(0,) + ZOO[0].mult[1:]), "multiplier d 0 is not a positive integer",
         _file_at_0("d", 0)),
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
        (lambda: langlands_dual(_two_vertex((3,)), weight_map=lambda w: w),
         "dual weight not integral at v", None),
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
        (_a2_fields(names=_at_0(ZOO[0].names, 1)), "vertex tag 1 is not a string",
         _file_at_0("tag", 1)),
        # a tag no set can hold is refused for its type, not its hash
        (_a2_fields(names=_at_0(ZOO[0].names, [1])), "vertex tag [1] is not a string",
         _file_at_0("tag", [1])),
        (_a2_fields(frozen=_at_0(ZOO[0].frozen, 1)), "frozen flag 1 is not a boolean",
         _file_at_0("frozen", 1)),
        (_a2_fields(mult=_at_0(ZOO[0].mult, 1.0)), "multiplier d 1.0 is not a positive integer",
         _file_at_0("d", 1.0)),
        (_a2_fields(mult=_at_0(ZOO[0].mult, True)),
         "multiplier d True is not a positive integer", _file_at_0("d", True)),
        (lambda: Seed(("u", "v"), (True, True), (True, True), ((), ())),
         "multiplier d True is not a positive integer", None),
        (_a2_fields(mult=_at_0(ZOO[0].mult, 1 << MAX_ENTRY_BITS)),
         f"multiplier d over the cap of {MAX_ENTRY_BITS} bits",
         _file_at_0("d", 1 << MAX_ENTRY_BITS)),
        (_a2_fields(b2=_at_01(ZOO[0].b2, True, -2)), "b2 entry True is not an integer",
         lambda data: data.update(b2=_at_01(data["b2"], True, -2))),
        (_a2_fields(b2=_at_01(ZOO[0].b2, 2.0, -2)), "b2 entry 2.0 is not an integer",
         lambda data: data.update(b2=_at_01(data["b2"], 2.0, -2))),
        (_a2_fields(weights=_first_weight(A2_WEIGHTS, (1.5, 0))),
         "weight coordinate 1.5 is not an integer",
         lambda data: data["vertices"][0]["weights"][0].__setitem__(0, 1.5)),
        (_a2_fields(weights=_first_weight(A2_WEIGHTS, (1 << MAX_ENTRY_BITS, 0))),
         f"weight coordinate over the cap of {MAX_ENTRY_BITS} bits",
         lambda data: data["vertices"][0]["weights"][0].__setitem__(0, 1 << MAX_ENTRY_BITS)),
        (_a2_fields(labels=_first_minor(ZOO[0].labels, _A2_MINOR[:2])),
         "a minor in the label of x_10 has weight shape (2, (0, 0)), not (3, (0, 0))",
         _file_minor_0(list.pop)),
        # a label is refused where it is made, and the loader makes it
        (lambda: _first_minor(ZOO[0].labels, ()), _SHAPELESS.format((0, ())),
         _file_minor_0(list.clear)),
        (_a2_fields(labels=_first_minor(ZOO[0].labels, tuple(w + (0,) for w in _A2_MINOR))),
         "a minor in the label of x_10 has weight shape (3, (0, 0, 0)), not (3, (0, 0))",
         _file_minor_0(lambda ws: [w.append(0) for w in ws])),
        (_a2_fields(weights=None, labels=_first_minor(ZOO[0].labels, _A2_MINOR[:2])),
         _UNWEIGHTED, _file_weightless_minor_0(list.pop)),
        (lambda: _first_minor(ZOO[0].labels, ((),) * 3), _SHAPELESS.format((3, ())),
         _file_weightless_minor_0(lambda ws: [w.clear() for w in ws])),
        (lambda: dense_minor(((),) * 3), _SHAPELESS.format((3, ())), _no_coordinates),
        (lambda: _one_vertex_minor(((5, (1, 0)),)), "a minor stores slot 5 of 3", None),
        (lambda: _one_vertex_minor(((1, (1, 0)), (0, (0, 1)))),
         "index 0 out of order in the weights of a minor", None),
        (lambda: _vertex_u((7.0, 3)), "weight coordinate 7.0 is not an integer",
         _float_minor_file),
        (lambda: Seed((), (), (), (), (), (1, (0,))),
         "a seed with no vertices carries no weights or labels", None),
        (lambda: Seed((), (), (), (), labels=()),
         "a seed with no vertices carries no weights or labels", None),
        (_a2_fields(labels=_swap_01(ZOO[0].labels)),
         "the label of x_10 does not have its vertex's weight", _swap_file_labels),
        (_a2_fields(weights=None), _UNWEIGHTED, _drop_file_weights),
        (lambda: _A2_STEP.replace(labels=_at(_A2_STEP.labels, _A2_K, _A2_WRONG_OVER)),
         "the label of x_11 does not have its vertex's weight", _file_of(_A2_STEP, _over_x10)),
        (lambda: Exchange(((dense_minor(_A2_MINOR[:2]), 1),), (), ZOO[0].labels[1]),
         "an exchange joins labels of weight shapes (2, (0, 0)) and (3, (0, 0))",
         _nested_short_minor),
        (_a2_fields(labels=_at_0(ZOO[0].labels, 1)),
         "the label of x_10 holds an object of type int, not a Minor or an Exchange", None),
        (lambda: Exchange(((1, 1),), (), ZOO[0].labels[0]),
         "an exchange holds an object of type int, not a Minor or an Exchange", None),
        (lambda: _A3_STEP.replace(labels=_zero_exponent_labels()),
         "plus exponent 0 is not a positive integer", _zero_exponent_file),
        (lambda: Exchange(_A2_EX.plus, (), _A2_EX.over),
         "an exchange is not weight-homogeneous", _drop_file_minus),
        # _A2_EX, alive, has these fields with the int exponent 1
        (lambda: Exchange(((_A2_EX.plus[0][0], True),) + _A2_EX.plus[1:], _A2_EX.minus,
                          _A2_EX.over),
         "plus exponent True is not a positive integer", _bool_exponent_file),
        # a file's indices are list positions, so no file holds these
        (lambda: Seed(("u",), (True,), (1,), ((),), (((0.5, (1, 0)),),), (3, (0, 0))),
         "index 0.5 in the slot weights of u is not an integer", None),
        (lambda: Minor(((0.5, (1, 0)),), (3, (0, 0))),
         "index 0.5 in the weights of a minor is not an integer", None),
        (lambda: Seed(("u", "v"), (True, True), (1, 1), (((1.0, 2),), ((0, -2),))),
         "index 1.0 in the b2 row of u is not an integer", None),
        (lambda: Seed(("u", "v"), (True, True), (1, 1), (((True, 2),), ((0, -2),))),
         "index True in the b2 row of u is not an integer", None),
    ], ids=["duplicate-names", "missing-row", "zero-multiplier", "ragged-row",
            "missing-weights", "extra-slot", "missing-label", "odd-increment",
            "non-dividing-multipliers", "dual-without-weight-map",
            "non-integral-dual-weight", "non-integral-dual-weight-mult-2",
            "comparison-without-weights",
            "weight-map-without-weights", "short-slot-permutation",
            "repeated-slot", "slot-out-of-range", "mutate-frozen",
            "mutate-x-frozen", "exchange-frozen", "oversized-entry", "int-name", "list-name",
            "int-frozen", "float-multiplier", "bool-multiplier", "bool-multipliers",
            "oversized-multiplier",
            "bool-b2", "float-b2", "float-weight", "oversized-weight", "minor-fewer-slots",
            "minor-no-slots", "minor-more-coordinates", "weightless-minors-differ",
            "weightless-minor-coordinates-differ", "weightless-minors-no-coordinates",
            "minor-slot-past-end", "minor-descending-pairs", "float-minor", "empty-with-shape",
            "empty-with-labels", "swapped-labels", "labels-without-weights", "over-another-vertex",
            "nested-minor-fewer-slots", "int-label", "exchange-over-an-int",
            "zero-exponent", "inhomogeneous-exchange", "bool-exponent-of-a-live-label",
            "float-slot", "float-minor-slot", "float-column", "bool-column"])
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
                assert _dense_weight(cur, got)[:3] == want[:3]
                assert got[3] is want[3]
                nxt = mutate(cur, at)
                assert nxt.slot_weights[k] == got[2]
                assert nxt.labels[k] is got[3]
                back = exchange(nxt, at)
                assert back[3] is cur.labels[k]
                assert _dense_weight(nxt, back) == dense_exchange(nxt, k)
                cur = nxt

    def test_matrix_rule_on_a_known_pair(self):
        seed = build_triangle_seed(root_datum("a2"))
        at = "x_11"
        k = seed.index(at)
        nxt = mutate(seed, at)
        for j in range(seed.size):
            assert nxt.b2[k][j] == -seed.b2[k][j]
            assert nxt.b2[j][k] == -seed.b2[j][k]


def _dense_weight(seed, ex):
    """exchange's result ex on seed, its stored weight expanded as dense_exchange gives it."""
    return ex[:2] + (dense(ex[2], *seed.weight_shape),) + ex[3:]


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
    """(id, dense fields) for every check_seed refusal, one fault or two each.

    A label that no seed may hold is refused where it is made, before a
    seed holds it: TestRefusals has those rows.
    """
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
        ("int-name", _dense_fields(a2, names=_at_0(a2.names, 1))),
        ("list-name", _dense_fields(a2, names=_at_0(a2.names, [1]))),
        ("int-frozen", _dense_fields(a2, frozen=_at_0(a2.frozen, 1))),
        ("float-multiplier", _dense_fields(a2, mult=_at_0(a2.mult, 1.0))),
        ("oversized-multiplier", _dense_fields(a2, mult=_at_0(a2.mult, 1 << MAX_ENTRY_BITS))),
        ("bool-b2", _dense_fields(a2, b2=_at_01(a2.b2, True, -2))),
        ("float-weight", _dense_fields(a2, weights=_first_weight(A2_WEIGHTS, (1.5, 0)))),
        ("oversized-weight", _dense_fields(
            a2, weights=_first_weight(A2_WEIGHTS, (1 << MAX_ENTRY_BITS, 0)))),
        ("minor-fewer-slots", _dense_fields(a2, labels=_first_minor(a2.labels, _A2_MINOR[:2]))),
        ("minor-more-coordinates", _dense_fields(
            a2, labels=_first_minor(a2.labels, tuple(w + (0,) for w in _A2_MINOR)))),
        ("weightless-minors-differ", _dense_fields(
            a2, weights=None, labels=_first_minor(a2.labels, _A2_MINOR[:2]))),
        ("swapped-labels", _dense_fields(a2, labels=_swap_01(a2.labels))),
        ("labels-without-weights", _dense_fields(a2, weights=None)),
        ("over-another-vertex", _dense_fields(
            _A2_STEP, labels=_at(_A2_STEP.labels, _A2_K, _A2_WRONG_OVER))),
        ("int-label", _dense_fields(a2, labels=_at_0(a2.labels, 1))),
        ("empty-with-weights", dict(names=(), frozen=(), mult=(), b2=(), weights=())),
        ("empty-with-labels", dict(names=(), frozen=(), mult=(), b2=(), labels=())),
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

# weight maps for the dual, most of whose images no seed can hold
_FLOATS = lambda w: tuple(map(float, w))
_BOOLS = lambda w: tuple(map(bool, w))
_STRS = lambda w: tuple(map(str, w))
_SHORT = lambda w: w[:-1]
_LONG = lambda w: w + (1,)
_HUGE = lambda w: tuple(c << 5000 for c in w)
_NEGATED = lambda w: tuple(-c for c in w)


def _dense_dual_weights(seed, weight_map):
    """The dual's dense weights: weight_map(w) / d at every vertex and slot."""
    out = []
    for d, ws in zip(seed.mult, dense_weights(seed)):
        row = []
        for w in ws:
            img = weight_map(w)
            assert all(c % d == 0 for c in img)
            row.append(tuple(c // d for c in img))
        out.append(tuple(row))
    return tuple(out)


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

    def test_dual_divides_by_a_multiplier_of_two(self):
        # g2's multipliers are 1 and 3, so only this seed divides by 2
        dual = langlands_dual(_two_vertex((2,)), weight_map=lambda w: w)
        assert dual.mult == (2, 1)
        assert dual.weight("v") == ((1,),)
        assert dual.weight("u") == ((2,),)

    def test_dual_of_simply_laced_reverses_arrows(self):
        seed = build_triangle_seed(root_datum("a3"))
        dual = langlands_dual(seed)
        for i in range(seed.size):
            for j in range(seed.size):
                assert dual.b2[i][j] == -seed.b2[i][j]

    def test_dual_matches_dense_rule(self):
        # the dual matrix is the transpose; the reference scales every entry.
        # The dual is built unchecked, so the full check and the checked
        # constructor must take it as it is, with or without a weight map
        rng = random.Random(12)
        triangles = tuple(build_triangle_seed(root_datum(k)) for k in ("a4", "d4"))
        for seed in _seed_zoo() + triangles + POLYGONS:
            maps = (g2_weight_dual,) if max(seed.mult) > 1 else (None, _NEGATED)
            for cur in (seed, _random_walk(rng, seed, 8)[0]):
                for weight_map in maps:
                    dual = langlands_dual(cur, weight_map=weight_map)
                    assert dual.b2 == dense_dual_b2(cur)
                    check_seed(dual)
                    assert dual == Seed(*dual._key())

    @pytest.mark.parametrize("seed, weight_map, error, message", [
        (ZOO[0], _FLOATS, ValueError, "weight coordinate 0.0 is not an integer"),
        (ZOO[0], _BOOLS, ValueError, "weight coordinate False is not an integer"),
        (ZOO[0], _STRS, ValueError, "weight coordinate '0' is not an integer"),
        (ZOO[0], list, ValueError, _LISTS),
        (ZOO[0], _SHORT, ValueError, "a weight of x_10 does not have 2 coordinates"),
        (ZOO[0], _LONG, ValueError, "a weight of x_10 does not have 2 coordinates"),
        (ZOO[0], _HUGE, ValueError, f"weight coordinate over the cap of {MAX_ENTRY_BITS} bits"),
        (_two_vertex((1,)), _FLOATS, ValueError, "dual weight not integral at v"),
        (_two_vertex((1,)), _BOOLS, ValueError, "dual weight not integral at v"),
        (_two_vertex((1,)), _STRS, TypeError,
         "not all arguments converted during string formatting"),
        (_two_vertex((1,)), list, ValueError, "dual weight not integral at v"),
        (_two_vertex((1,)), _LONG, ValueError, "dual weight not integral at v"),
        (_two_vertex((1,)), _HUGE, ValueError,
         f"weight coordinate over the cap of {MAX_ENTRY_BITS} bits"),
    ], ids=["a2-float", "a2-bool", "a2-str", "a2-list", "a2-short", "a2-long", "a2-huge",
            "mult-2-float", "mult-2-bool", "mult-2-str", "mult-2-list", "mult-2-long",
            "mult-2-huge"])
    def test_dual_refuses_images_as_the_checked_seed_does(self, seed, weight_map, error,
                                                          message):
        # each refusal is check_seed's own, or the dual's integrality test,
        # which runs first; the a2 triangle's multipliers are 1, so its
        # images reach the coordinate tests
        with pytest.raises(Exception) as err:
            langlands_dual(seed, weight_map=weight_map)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_dual_drops_images_that_vanish(self):
        dual = langlands_dual(_two_vertex((1,)), weight_map=_SHORT)
        assert dual.slot_weights == ((), ())
        assert dual == Seed(*dual._key())

    def test_dual_commutes_with_mutation(self):
        rng = random.Random(41)
        seed = build_triangle_seed(root_datum("g2"))
        for _ in range(40):
            at = rng.choice(seed.unfrozen_names())
            left = langlands_dual(mutate(seed, at), weight_map=g2_weight_dual)
            right = mutate(langlands_dual(seed, weight_map=g2_weight_dual), at)
            assert left == right
            seed = mutate(seed, at)

    def test_dual_of_the_empty_seed_is_itself(self):
        empty = Seed((), (), (), ())
        check_seed(empty)
        assert opposite(empty) == empty
        for weight_map in (None, g2_weight_dual):
            assert langlands_dual(empty, weight_map=weight_map) == empty

    def test_dual_memo_returns_the_rows_it_stored(self):
        # a fresh map object starts with an empty memo; every vertex whose
        # (d, weights) pair an earlier dual saw under it gets that dual's tuple
        wmap = dual_weight_map(root_datum("g2"))
        rng = random.Random(23)
        seed, seen, hits = ZOO[4], {}, 0
        for step in range(21):
            if step:
                seed = mutate(seed, rng.choice(seed.unfrozen_names()))
            dual = langlands_dual(seed, weight_map=wmap)
            assert dual.b2 == dense_dual_b2(seed)
            assert dense_weights(dual) == _dense_dual_weights(seed, wmap)
            for key, row in zip(zip(seed.mult, seed.slot_weights), dual.slot_weights):
                if key in seen:
                    assert row is seen[key]
                    hits += 1
                else:
                    seen[key] = row
        # each step mutates one vertex, so every other one was seen
        assert hits >= 20 * (seed.size - 1)
        assert seed_core._DUAL_ROWS[wmap] == seen

    def test_dual_memo_stores_nothing_from_a_refused_call(self):
        # the a3 triangle's multipliers are 1, so images reach the weight
        # tests; the map refuses only the weight that mutation at x_11 makes
        seed = ZOO[1]
        known = {w for ws in seed.slot_weights for _, w in ws}

        def weight_map(w):
            return w if w in known else tuple(map(float, w))

        walked = mutate(seed, "x_11")
        k = walked.index("x_11")
        assert any(w not in known for _, w in walked.slot_weights[k])
        # the checked Seed of the expected fields gives the refusal
        images = tuple(tuple((s, weight_map(w)) for s, w in ws) for ws in walked.slot_weights)
        with pytest.raises(ValueError) as expected:
            Seed(walked.names, walked.frozen, walked.mult, opposite(walked).rows, images,
                 walked.weight_shape)
        assert str(expected.value).startswith("weight coordinate ")

        assert langlands_dual(seed, weight_map=weight_map) == langlands_dual(seed)
        memo = seed_core._DUAL_ROWS[weight_map]
        stored = dict(memo)
        keys = list(zip(walked.mult, walked.slot_weights))
        assert [key in memo for key in keys] == [v != k for v in range(walked.size)]
        for _ in range(2):
            with pytest.raises(Exception) as err:
                langlands_dual(walked, weight_map=weight_map)
            assert type(err.value) is ValueError
            assert str(err.value) == str(expected.value)
            assert memo == stored
        dual = langlands_dual(seed, weight_map=weight_map)
        assert dual == langlands_dual(seed)
        assert all(row is stored[key] for key, row in zip(zip(seed.mult, seed.slot_weights),
                                                          dual.slot_weights))

    def test_dual_takes_a_map_it_cannot_weakly_reference(self):
        swap = operator.itemgetter(1, 0)
        with pytest.raises(TypeError):
            weakref.ref(swap)
        seed = ZOO[0]
        for _ in range(2):
            assert langlands_dual(seed, weight_map=swap) == langlands_dual(
                seed, weight_map=lambda w: (w[1], w[0]))

    def test_dual_memo_stays_under_its_cap(self, monkeypatch):
        # a walk past the cap empties the memo rather than growing it, and
        # every dual equals the one a fresh map, with a memo of its own, gives
        monkeypatch.setattr(seed_core, "_DUAL_CAP", 24)
        wmap = dual_weight_map(root_datum("g2"))
        rng = random.Random(5)
        seed, emptied, size = ZOO[4], 0, 0
        for _ in range(40):
            seed = mutate(seed, rng.choice(seed.unfrozen_names()))
            dual = langlands_dual(seed, weight_map=wmap)
            memo = seed_core._DUAL_ROWS[wmap]
            assert len(memo) <= 24
            emptied += len(memo) < size
            size = len(memo)
            assert dual == langlands_dual(seed, weight_map=lambda w: wmap(w))
        assert emptied

    def test_dual_memo_goes_with_its_map(self):
        wmap = dual_weight_map(root_datum("g2"))
        langlands_dual(ZOO[2], weight_map=wmap)
        memo = seed_core._DUAL_ROWS[wmap]
        assert memo
        alive = weakref.ref(wmap)
        del wmap
        gc.collect()
        assert alive() is None
        assert all(rows is not memo for rows in seed_core._DUAL_ROWS.values())


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
            tables.append(dense(label.weights, *label.shape))
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
        a = Minor(tuple((s, tuple([1, 0])) for s in range(2)), (2, (0, 0)))
        b = Minor(((0, (1, 0)), (1, (1, 0))), (2, (0, 0)))
        assert a is b
        assert Minor(((0, (0, 1)), (1, (1, 0))), (2, (0, 0))) is not a
        assert Minor(b.weights, (3, (0, 0))) is not a

    def test_a_dead_label_leaves_the_table(self):
        # weights no other test uses, so only this test holds these labels
        pairs, shape = ((0, (7, -7, 7)),), (1, (0, 0, 0))
        minor = Minor(pairs, shape)
        ex = Exchange(((minor, 2),), ((minor, 2),), minor)
        assert Minor(tuple([(0, (7, -7, 7))]), shape) is minor
        assert Exchange(((minor, 2),), ((minor, 2),), minor) is ex
        keys = [(pairs, shape), (((minor, 2),), ((minor, 2),), minor)]
        assert all(seed_core._LABELS[k]() is label for k, label in zip(keys, (minor, ex)))
        gone = weakref.ref(minor)
        del minor, ex
        keys.pop()
        gc.collect()
        assert gone() is None
        assert keys[0] not in seed_core._LABELS
        again = Minor(pairs, shape)
        assert gone() is None and seed_core._LABELS[keys[0]]() is again
        # a stale reference's callback leaves the entry an equal label took
        seed_core._forget(weakref.KeyedRef(again, None, keys[0]))
        assert seed_core._LABELS[keys[0]]() is again

    def test_exchange_from_equal_parts_is_one_object(self):
        def build():
            x, y, z = (dense_minor(((i, 0),)) for i in range(3))
            return Exchange(tuple([(x, 1), (y, 2)]), tuple([(z, 1)]), dense_minor(((3, 0),)))

        assert build() is build()
        seed = ZOO[1]
        at = seed.unfrozen_names()[0]
        assert all(
            a is b for a, b in zip(mutate(seed, at).labels, mutate(seed, at).labels)
        )

    def test_labels_are_immutable(self):
        minor = dense_minor(((1, 0), (0, 1)))
        ex = Exchange(((minor, 1),), ((minor, 1),), minor)
        for label, field in ((minor, "weights"), (minor, "shape"), (ex, "over"), (ex, "plus"),
                             (ex, "weights"), (ex, "shape"), (minor, "other")):
            with pytest.raises(AttributeError):
                setattr(label, field, ())
        with pytest.raises(AttributeError):
            del minor.weights
        assert minor.weights == ((0, (1, 0)), (1, (0, 1)))
        assert minor.shape == (2, (0, 0))
        # 1 * w(minor) less w(minor) is the zero weight, stored as no pairs
        assert (ex.weights, ex.shape) == ((), (2, (0, 0)))

    def test_minors_hold_stored_weights(self):
        # every minor of the built seeds, of slot-moved and weight-mapped
        # ones and of a loaded walk: ascending slots in range, nonzero
        # weights of the shape's length, as a vertex stores them
        walked = _cyclic_walk(12)[-1]
        seeds = list(ZOO + POLYGONS) + [
            walked, permute_slots(walked, (1, 2, 3, 0)), seed_from_json(seed_to_json(walked)),
            map_weights(ZOO[2], lambda w: tuple(-c for c in w)),
        ]
        for seed in seeds:
            done = set()
            for label in seed.labels:
                for top in post_order(label, done):
                    done.add(top)
                    if isinstance(top, Minor):
                        slots = [s for s, _ in top.weights]
                        assert slots == sorted(set(slots)) and set(slots) <= set(range(seed.slots))
                        assert all(any(w) and len(w) == len(seed.weight_shape[1])
                                   for _, w in top.weights)
                        assert top.shape == seed.weight_shape

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
        # weight of each vertex and of each minor once
        table = seed_to_json(mapped)["labels"]
        assert len(table) == len(seed_to_json(seed)["labels"]) == 81
        minor_weights = sum(sum(map(any, e["weights"])) for e in table if e["kind"] == "minor")
        assert len(seen) == sum(map(len, seed.slot_weights)) + minor_weights
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
                nm: mo.wedge_invariant(mo.degrees_of(ws, start.slots), flags)
                for nm, ws in zip(start.names, start.slot_weights)
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
