"""Tests for the exact flag-tuple oracle.

Claims covered:
    - random flags are unimodular; wedge invariants are exact rationals
    - the random-flag retry loops, the oracle suite's and the shear law's
      included, give up with ValueError after a fixed number of draws
    - minor labels evaluate through the wedge; exchange labels through the
      stored two-term relation
    - the glued four-point seeds are exactly the seeds with minor-valued
      exchange partners, one per glued edge vertex
    - every unfrozen exchange relation has residual zero on random flags,
      read from the exchange step without building a mutated seed, and a
      corrupted seed never slips through
    - values scale by the stored weight character under the torus action;
      the character equals the product of powers of leading torus minors
    - the five-step walk on a unit pair swaps the pair on the nose
    - the twisted shift matches rotated minors up to the computed central
      sign, and the shear torus moves only the glued edge coordinates
    - the value table on the current flags computes each distinct minor
      once along a 60-step walk, and alternating flags give the tree
      evaluator's values; seed_values reads warm and fresh tables as
      evaluating label after label does, key order included, and raises
      from the label that vertex order meets first
    - det, wedge_invariant, evaluate_label, seed_values, check_exchange and
      x_from_a return Fractions on int, torus-scaled and sheared flags; a
      label over a vanishing value raises ZeroDivisionError; a seed without
      labels is refused with ValueError
    - the oracle suite's draws are pinned: the next draw after a pass at
      rng seeds 0, 7 and 11 is the recorded one
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q
from math import prod

import pytest

import confseed.minor_oracle as mo
from confseed.linalg import det
from confseed.root_data import root_datum
from confseed.seed_builder import build_triangle_seed
from confseed import seed_core
from confseed.seed_core import Exchange, Minor, Seed, exchange, mutate, x_from_a
from confseed.suites import suite_oracle
from confseed.surface_glue import build_conf_m_seed

TRI3 = build_triangle_seed(root_datum("a2"))
TRI4 = build_triangle_seed(root_datum("a3"))
QUAD3 = build_conf_m_seed(root_datum("a2"), 4)
QUAD4 = build_conf_m_seed(root_datum("a3"), 4)


def atomic_mutations(seed: Seed) -> tuple[str, ...]:
    """Unfrozen vertices whose exchange partner is again a stacked minor."""
    n = len(seed.weight_shape[1]) + 1
    out = []
    for nm in seed.unfrozen_names():
        if mo.evaluatable(exchange(seed, nm)[2], seed.slots, n):
            out.append(nm)
    return tuple(out)


def _tuples(rng, n, m, count):
    out = []
    while len(out) < count:
        out.append(mo.random_flags(rng, n, m))
    return out


# == 1. flags and wedges =====================================================

class TestWedges:
    def test_random_flags_are_unimodular(self):
        rng = random.Random(0)
        for n in (2, 3, 4):
            for _ in range(20):
                flag = mo.random_flag(rng, n)
                assert mo.wedge_invariant((n,), (flag,)) == 1

    def test_flag_retries_are_bounded(self):
        class Zeros(random.Random):
            def randint(self, a, b):
                return 0

        with pytest.raises(ValueError, match="random_flag"):
            mo.random_flag(Zeros(0), 3)

        # every unitriangular entry is 0, so corners 1 and 2 of the shear
        # configuration are the same flag and a minor always vanishes
        class Floor(random.Random):
            def randint(self, a, b):
                return max(a, 0)

        with pytest.raises(ValueError, match="check_shear_law"):
            mo.check_shear_law(QUAD3, Floor(0), 3)

    def test_oracle_suite_retries_are_bounded(self):
        # every 3x3 flag drawn is the identity, so some minor always vanishes
        class IdentityCycle(random.Random):
            def __init__(self):
                super().__init__(0)
                self.entries = itertools.cycle((1, 0, 0, 0, 1, 0, 0, 0, 1))
                self.calls = 0

            def randint(self, a, b):
                self.calls += 1
                return next(self.entries)

        rng = IdentityCycle()
        with pytest.raises(ValueError, match="exchange residuals"):
            suite_oracle(rng)
        # three flags of nine entries per draw
        assert rng.calls == mo.MAX_FLAG_DRAWS * 3 * 9

    def test_degree_sum_must_be_n(self):
        rng = random.Random(1)
        flags = mo.random_flags(rng, 3, 2)
        with pytest.raises(ValueError):
            mo.wedge_invariant((1, 1), flags)

    def test_degrees_of_reads_fundamental_weights(self):
        assert mo.degrees_of(((0, (1, 0, 0)), (1, (0, 0, 1))), 2) == (1, 3)
        assert mo.degrees_of(((1, (0, 1, 0)),), 2) == (0, 2)
        with pytest.raises(ValueError):
            mo.degrees_of(((0, (1, 1, 0)),), 1)

    def test_row_scaling_is_multilinear(self):
        rng = random.Random(2)
        flags = mo.random_flags(rng, 3, 2)
        base = mo.wedge_invariant((2, 1), flags)
        scaled = (mo.scale_flag((1, 5, 1), flags[0]), flags[1])
        # degree 2 uses the first two rows, so scaling row 2 by 5 scales
        # the invariant by 5
        assert mo.wedge_invariant((2, 1), scaled) == 5 * base

    def test_minor_label_matches_wedge(self):
        rng = random.Random(3)
        flags = mo.random_flags(rng, 3, 3)
        label = Minor(((0, (1, 0)), (1, (0, 1))), (3, (0, 0)))
        want = mo.wedge_invariant((1, 2, 0), flags)
        assert mo.evaluate_label(label, flags) == want


# == 2. atomic vertices ======================================================

class TestAtomicMutations:
    def test_triangles_have_none(self):
        assert atomic_mutations(TRI3) == ()
        assert atomic_mutations(TRI4) == ()

    def test_quads_expose_the_glued_edge(self):
        assert atomic_mutations(QUAD3) == ("x_01", "x_02")
        assert atomic_mutations(QUAD4) == ("x_01", "x_02", "x_03")


# == 3. exchange residuals ===================================================

class TestExchangeResiduals:
    def _run(self, seed, n, m, rng, count=25):
        done = 0
        while done < count:
            flags = mo.random_flags(rng, n, m)
            try:
                for at in seed.unfrozen_names():
                    assert mo.check_exchange(seed, at, flags) == 0, at
            except ZeroDivisionError:
                continue
            done += 1

    def test_sl3_triangle(self):
        self._run(TRI3, 3, 3, random.Random(10))

    def test_sl4_triangle(self):
        self._run(TRI4, 4, 3, random.Random(11))

    def test_sl3_quad(self):
        self._run(QUAD3, 3, 4, random.Random(12))

    def test_residual_zero_after_a_mutation(self):
        rng = random.Random(13)
        seed = mutate(QUAD3, "x_01")
        self._run(seed, 3, 4, rng, count=10)

    def test_no_mutated_seed_is_built(self, monkeypatch):
        # check_exchange reads the one exchange step; it builds no seed
        def refuse(*args, **kwargs):
            raise AssertionError("check_exchange called mutate")

        monkeypatch.setattr(seed_core, "mutate", refuse)
        monkeypatch.setattr(mo, "mutate", refuse)
        for i, (seed, n, m) in enumerate(
            ((TRI3, 3, 3), (TRI4, 4, 3), (QUAD3, 3, 4), (QUAD4, 4, 4))
        ):
            self._run(seed, n, m, random.Random(30 + i), count=3)

    def test_corrupted_seed_is_caught(self):
        from dense_reference import dense_seed, dense_weights
        rng = random.Random(14)
        i, j = QUAD3.index("x_01"), QUAD3.index("x_11")
        b2 = [list(row) for row in QUAD3.b2]
        b2[i][j], b2[j][i] = -b2[i][j], -b2[j][i]
        corrupt = dense_seed(QUAD3.names, QUAD3.frozen, QUAD3.mult, b2, dense_weights(QUAD3),
                             QUAD3.labels)
        caught = 0
        for _ in range(10):
            flags = mo.random_flags(rng, 3, 4)
            try:
                if mo.check_exchange(corrupt, "x_01", flags) != 0:
                    caught += 1
            except (ZeroDivisionError, ValueError):
                caught += 1
        assert caught == 10

    def test_a_seed_without_labels_is_refused(self):
        bare = mutate(QUAD3, "x_01", with_labels=False)
        flags = mo.random_flags(random.Random(15), 3, 4)
        with pytest.raises(ValueError, match="^seed carries no labels$"):
            mo.check_exchange(bare, "x_01", flags)
        with pytest.raises(ValueError, match="^seed carries no labels$"):
            mo.seed_values(bare, flags)

    def test_a_vanishing_value_raises_zero_division(self):
        # slots 1 and 2 hold the same flag, so every minor that stacks rows
        # from both vanishes; a label divided by one must raise, as
        # until_defined draws again on ZeroDivisionError alone
        rng = random.Random(16)
        same = mo.random_flag(rng, 3)
        flags = (same, same, mo.random_flag(rng, 3))
        values = mo.seed_values(TRI3, flags)
        vanishing = [at for at in TRI3.unfrozen_names() if values[at] == 0]
        assert vanishing
        for at in vanishing:
            label = mutate(TRI3, at).labels[TRI3.index(at)]
            assert label.over is TRI3.labels[TRI3.index(at)]
            with pytest.raises(ZeroDivisionError):
                mo.evaluate_label(label, flags)


# == 4. torus characters =====================================================

class TestTorusAction:
    def test_values_scale_by_weights(self):
        rng = random.Random(20)
        for seed, n, m in ((TRI3, 3, 3), (TRI4, 4, 3), (QUAD3, 3, 4)):
            for _ in range(5):
                flags = mo.random_flags(rng, n, m)
                toruses = tuple(mo.random_torus(rng, n) for _ in range(m))
                assert mo.torus_weight_check(seed, flags, toruses)

    def test_after_mutations_too(self):
        rng = random.Random(21)
        seed = mutate(mutate(QUAD3, "x_01"), "x_11")
        for _ in range(5):
            flags = mo.random_flags(rng, 3, 4)
            toruses = tuple(mo.random_torus(rng, 3) for _ in range(4))
            assert mo.torus_weight_check(seed, flags, toruses)

    def test_character_is_a_product_of_leading_minors(self):
        # the reference takes one Fraction power of h_1 ... h_i per
        # coordinate; weights of both signs, as mutation makes them
        rng = random.Random(22)
        for _ in range(200):
            n, m = rng.randint(2, 5), rng.randint(1, 4)
            weights = tuple(
                tuple(rng.randint(-3, 3) for _ in range(n - 1)) for _ in range(m)
            )
            toruses = tuple(mo.random_torus(rng, n) for _ in range(m))
            want = Q(1)
            for w, h in zip(weights, toruses):
                for i, c in enumerate(w):
                    want *= prod(h[:i + 1]) ** c
            got = mo.torus_scale(weights, toruses)
            assert type(got) is Q and got == want
        with pytest.raises(ValueError, match="integral weights"):
            mo.torus_scale(((Q(1, 2), 0),), ((Q(1), Q(2), Q(1, 2)),))

    def test_torus_has_unit_determinant(self):
        rng = random.Random(22)
        for n in (2, 3, 4):
            t = mo.random_torus(rng, n)
            prod = Q(1)
            for c in t:
                prod *= c
            assert prod == 1


# == 5. pentagon, shift, and shear ===========================================

class TestPentagon:
    def test_five_steps_swap_the_pair(self):
        rng = random.Random(30)
        assert abs(QUAD3.b("x_01", "x_11")) == 1
        done = 0
        while done < 5:
            flags = mo.random_flags(rng, 3, 4)
            try:
                assert mo.check_pentagon(QUAD3, "x_01", "x_11", flags)
            except ZeroDivisionError:
                continue
            done += 1


class TestCyclicShift:
    def test_central_sign(self):
        assert mo.w0_square_sign(2) == -1
        assert mo.w0_square_sign(3) == 1
        assert mo.w0_square_sign(4) == -1

    def test_lift_w0_is_a_signed_antidiagonal(self):
        for n in (2, 3, 4):
            w = mo.lift_w0(n)
            for i in range(n):
                for j in range(n):
                    want = 0 if i + j != n - 1 else (1, -1)
                    if want == 0:
                        assert w[i][j] == 0
                    else:
                        assert w[i][j] in want

    def test_triangles_close_under_rotation(self):
        rng = random.Random(31)
        for seed, n in ((TRI3, 3), (TRI4, 4)):
            for _ in range(5):
                flags = mo.random_flags(rng, n, 3)
                assert mo.check_cyclic_symmetry(seed, flags)

    def test_quads_shift_without_closure(self):
        rng = random.Random(32)
        for seed, n in ((QUAD3, 3), (QUAD4, 4)):
            for _ in range(3):
                flags = mo.random_flags(rng, n, 4)
                assert mo.check_cyclic_symmetry(seed, flags)


class TestShear:
    def test_simple_root_character(self):
        h = (Q(2), Q(3), Q(1, 6))
        assert mo.simple_root_character(1, h) == Q(2, 3)
        assert mo.simple_root_character(2, h) == 18

    def test_law_on_both_ranks(self):
        rng = random.Random(33)
        for n in (3, 4):
            quad = build_conf_m_seed(root_datum(f"a{n - 1}"), 4)
            for _ in range(10):
                assert mo.check_shear_law(quad, rng, n)

    def test_generic_torus_breaks_face_invariance(self):
        # scaling the last flag by a non-stabilizing torus must move some
        # face coordinate, so the gauge matters
        rng = random.Random(34)
        flags = mo.random_flags(rng, 3, 4)
        h = (Q(2), Q(1), Q(1, 2))
        ratios = mo.check_shear_action(QUAD3, flags, h)
        faces = [nm for nm in ratios if not nm.startswith("x_0")]
        assert any(ratios[nm] != 1 for nm in faces)


# == 6. the value table ======================================================

CYCLE = ("x_01", "x_02", "x_11")


def _tree_value(label, flags, cache):
    """Evaluation with a per-call dict cache and no memo: the reference."""
    if label not in cache:
        if isinstance(label, Minor):
            cache[label] = mo.wedge_invariant(mo.degrees_of(label.weights, label.shape[0]), flags)
        else:
            plus = minus = Q(1)
            for l, e in label.plus:
                plus *= _tree_value(l, flags, cache) ** e
            for l, e in label.minus:
                minus *= _tree_value(l, flags, cache) ** e
            cache[label] = (plus + minus) / _tree_value(label.over, flags, cache)
    return cache[label]


def _minors(labels):
    """The distinct Minor nodes reachable from the labels."""
    seen, stack = set(), list(labels)
    while stack:
        label = stack.pop()
        if label not in seen:
            seen.add(label)
            if isinstance(label, Exchange):
                stack.extend(l for l, _ in label.plus + label.minus)
                stack.append(label.over)
    return {l for l in seen if isinstance(l, Minor)}


class TestMemo:
    def test_each_minor_is_computed_once_along_a_walk(self, monkeypatch):
        seeds = [QUAD4]
        for d in range(60):
            seeds.append(mutate(seeds[-1], CYCLE[d % 3]))
        minors = _minors(l for seed in seeds[1:] for l in seed.labels)
        calls = []
        wedge = mo.wedge_invariant

        def counted(degrees, flags):
            calls.append(degrees)
            return wedge(degrees, flags)

        monkeypatch.setattr(mo, "wedge_invariant", counted)
        flags = mo.random_flags(random.Random(60), 4, 4)
        values = [mo.seed_values(seed, flags) for seed in seeds[1:]]
        assert 0 < len(calls) <= len(minors)
        monkeypatch.undo()
        for seed, got in zip(seeds[1:], values):
            assert got == {
                nm: _tree_value(l, flags, {}) for nm, l in zip(seed.names, seed.labels)
            }

    def test_alternating_flags_match_the_tree_evaluator(self):
        rng = random.Random(62)
        seed = QUAD4
        for d in range(12):
            seed = mutate(seed, CYCLE[d % 3])
        label = seed.labels[seed.index(CYCLE[11 % 3])]
        a, b = mo.random_flags(rng, 4, 4), mo.random_flags(rng, 4, 4)
        want = {id(f): _tree_value(label, f, {}) for f in (a, b)}
        assert want[id(a)] != want[id(b)]
        for flags in (a, b, a):
            assert mo.evaluate_label(label, flags) == want[id(flags)]


    def test_seed_values_reads_the_table_as_each_label_would(self):
        # along a seeded cyclic walk, warm and fresh tables alike, the values
        # and their key order are those of evaluating label after label
        flags = mo.random_flags(random.Random(63), 4, 4)
        seed, cache = QUAD4, {}
        for d in range(24):
            seed = mutate(seed, CYCLE[d % 3])
            want = [(nm, _tree_value(l, flags, cache)) for nm, l in zip(seed.names, seed.labels)]
            for on in (flags, flags, tuple(list(flags))):
                assert list(mo.seed_values(seed, on).items()) == want

    def test_seed_values_raises_from_the_first_vanishing_label(self, monkeypatch):
        # slots 3 and 4 hold one flag, so labels start to vanish at depth 5;
        # the raise comes from the label that evaluating in vertex order on a
        # fresh table meets first, also once later labels vanish too
        rng = random.Random(64)
        a, b, c = (mo.random_flag(rng, 4) for _ in range(3))
        flags = (a, b, c, c)
        evaluate = mo.evaluate_label
        seed, raised = QUAD4, []
        for d in range(12):
            seed = mutate(seed, CYCLE[d % 3])
            fresh, first = tuple(list(flags)), None
            for i, label in enumerate(seed.labels):
                try:
                    evaluate(label, fresh)
                except ZeroDivisionError:
                    first = i
                    break
            seen = []
            monkeypatch.setattr(mo, "evaluate_label",
                                lambda label, on: seen.append(label) or evaluate(label, on))
            if first is None:
                mo.seed_values(seed, flags)
            else:
                with pytest.raises(ZeroDivisionError):
                    mo.seed_values(seed, flags)
                assert seen[-1] is seed.labels[first]
                raised.append(first)
            monkeypatch.undo()
        assert len(raised) == 8 and set(raised) == {0, 1}


# == 7. integer arithmetic inside, Fractions outside =========================

def _flag_kinds(rng, n):
    """Four flags of each kind the oracle meets: all int entries (the shear
    configuration), torus-scaled random flags, and sheared flags."""
    ints = mo.shear_configuration(rng, n)
    scaled = tuple(
        mo.scale_flag(mo.random_torus(rng, n), f) for f in mo.random_flags(rng, n, 4)
    )
    sheared = ints[:-1] + (mo.group_scale_flag(ints[-1], mo.random_torus(rng, n)),)
    return {"int": ints, "torus-scaled": scaled, "sheared": sheared}


class TestFractionContract:
    """The oracle computes in ints but returns every value as a Fraction.

    ``tests/test_linalg.py`` pins the type of ``det``.  ``check_shear_action``
    divides X-values from ``x_from_a``, and the benchmark's walks workload
    (``perfbench/workloads.py``) divides ``seed_values`` results with ``/``
    and tests the quotients for vanishing; on an int either division would
    give a float, and those tests would become inexact.
    """

    @pytest.mark.parametrize("kind", ["int", "torus-scaled", "sheared"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_value_is_a_fraction(self, kind, n):
        rng = random.Random(70 + n)
        quad = build_conf_m_seed(root_datum(f"a{n - 1}"), 4)
        seeds = (quad, mutate(quad, "x_01"))
        entry_types = set()

        def trial():
            flags = _flag_kinds(rng, n)[kind]
            entry_types.update(type(x) for f in flags for row in f for x in row)
            for seed in seeds:
                for label in seed.labels:
                    assert type(mo.evaluate_label(label, flags)) is Q
                    if isinstance(label, Minor):
                        degrees = mo.degrees_of(label.weights, label.shape[0])
                        rows = [r for d, f in zip(degrees, flags) for r in f[:d]]
                        assert type(det(rows)) is Q
                        assert type(mo.wedge_invariant(degrees, flags)) is Q
                values = mo.seed_values(seed, flags)
                assert {type(v) for v in values.values()} == {Q}
                assert {type(x) for x in x_from_a(seed, values).values()} == {Q}
                for at in seed.unfrozen_names():
                    assert type(mo.check_exchange(seed, at, flags)) is Q

        for _ in range(5):
            mo.until_defined("fraction contract", trial)
        assert (entry_types == {int}) == (kind == "int")


@pytest.mark.parametrize("rng_seed, after", [
    (0, 0.8165570556508213), (7, 0.8128564014925879), (11, 0.6367837760630959),
])
def test_oracle_suite_draws_are_pinned(rng_seed, after):
    # verify prints no values, so the next draw after a suite pass is what
    # shows that its draws and retries stay as they were when every factor
    # of a value was its own Fraction
    rng = random.Random(rng_seed)
    suite_oracle(rng)
    assert rng.random() == after
