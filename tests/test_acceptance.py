"""Acceptance checks: every headline claim of the package, exact, in one run.

One test per criterion; each prints a single PASS/FAIL line (visible under
pytest -s or on failure) and asserts.  Criteria 1-8 run the same suite
functions as ``confseed verify`` and assert on their reports by name, plus
the counts the suites do not check.  Everything compares rational numbers
for equality; there are no tolerances anywhere.

    1.  the built word quivers equal the frozen adjacency tables
    2.  triangle completion matches the frozen seeds, each arrow read off
        from one equation
    3.  the three rank-three start-edge imbalances are exact
    4.  the four-mutation transpositions reproduce all stage tables
    5.  the 18-mutation flip reproduces all six stage tables
    6.  the twelve-step composite reaches the reversed-word seed
    7.  self-duality, duality/mutation commutation, and sequence pairings
    8.  exchange residuals, torus characters, and the twisted shift
    9.  the shear action scales glued edge coordinates by root characters
    10. structural invariants hold along random mutation walks
"""
from __future__ import annotations

import random
import re

import confseed.minor_oracle as mo
from confseed.root_data import root_datum
from confseed.seed_builder import build_triangle_seed
from confseed.seed_core import check_seed, mutate
from confseed.sequence_verifier import apply_sequence, builtin_sequences
from confseed.suites import (
    suite_builders,
    suite_g2_flip,
    suite_g2_s3,
    suite_langlands,
    suite_oracle,
)
from confseed.surface_glue import build_conf_m_seed

from seed_checks import assert_face_equations

G2 = root_datum("g2")
A3 = root_datum("a3")
G2_TRI = build_triangle_seed(G2)
G2_QUAD = build_conf_m_seed(G2, 4)


def _declare(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} - {text}")
    assert ok, f"criterion {number}: {text}"


def _by_name(reports) -> dict:
    return {r.name: r for r in reports}


def _passed(reports, *names) -> bool:
    """True when every named report is present and passed."""
    by_name = _by_name(reports)
    return all(nm in by_name and by_name[nm].passed for nm in names)


def _mutations(name: str) -> int:
    return sum(len(st) for st in builtin_sequences()[name].stages)


def test_criterion_01_word_quivers():
    reports = suite_builders()
    ok = _passed(reports, "a3 word quiver", "g2 word quiver", "d4 word quiver")
    for kind, size in (("a3", 9), ("g2", 8), ("d4", 16)):
        line = _by_name(reports)[f"{kind} word quiver"].lines[0]
        ok = ok and line.startswith(f"{size} vertices,")
    _declare(1, ok, "word quivers match the frozen adjacency tables")


def test_criterion_02_triangle_completion():
    ok = (
        _passed(suite_builders(), "a3 triangle completion",
                "g2 triangle completion", "g2 triangle rows and weights")
        and build_triangle_seed(A3).size == 12
        and G2_TRI.size == 10
    )
    _declare(2, ok, "triangle completions match, each arrow fixed by one equation")


def test_criterion_03_start_edge_sums():
    ok = _passed(suite_builders(), "sl4 boundary sums")
    _declare(3, ok, "start-edge imbalances equal the three stated vectors")


def test_criterion_04_transposition_sequences():
    ok = _passed(
        suite_g2_s3(),
        "g2_swap13 stage tables", "g2_swap23 stage tables",
        "s3:g2_swap13", "s3:g2_swap23",
    )
    _declare(4, ok, "both transpositions reproduce every stage table")


def test_criterion_05_flip_sequence():
    ok = (
        _passed(suite_g2_flip(), "g2_flip stage tables", "flip:g2_flip")
        and _mutations("g2_flip") == 18
        and len(builtin_sequences()["g2_flip"].stages) == 6
    )
    _declare(5, ok, "the flip reproduces all six stage tables and the target")


def test_criterion_06_composite_reaches_reversed_word():
    ok = (
        _passed(suite_g2_s3(), "s3:g2_swap12", "g2 swap12 vs reversed word")
        and _mutations("g2_swap12") == 12
    )
    _declare(6, ok, "twelve mutations land on the reversed-word seed")


def test_criterion_07_langlands():
    ok = _passed(
        suite_langlands(random.Random(2026)),
        "duality involution", "g2 triangle self-duality",
        "langlands:g2_swap13~g2_swap23", "langlands:g2_flip~g2_flip_dual_rev",
        "duality commutes with mutation",
    )
    _declare(7, ok, "self-duality, 100 dual walks, and both sequence pairings")


def test_criterion_08_oracle_identities():
    reports = suite_oracle(random.Random(8))
    ok = _passed(
        reports, "exchange residuals", "torus weight characters",
        "twisted cyclic shift",
    )
    line = _by_name(reports)["exchange residuals"].lines[0]
    tuples = re.search(r"over (\d+) flag tuples", line)
    ok = ok and tuples is not None and int(tuples.group(1)) >= 100
    _declare(8, ok, "exchange residuals, torus characters, twisted shift")


def test_criterion_09_shear_action():
    rng = random.Random(9)
    quad = build_conf_m_seed(root_datum("a2"), 4)
    ok = all(mo.check_shear_law(quad, rng, 3) for _ in range(20))
    _declare(9, ok, "glued edge coordinates scale by simple-root characters")


def test_criterion_10_property_suite():
    rng = random.Random(10)
    zoo = (G2_TRI, G2_QUAD, build_triangle_seed(A3),
           build_conf_m_seed(root_datum("a2"), 4))
    ok = True
    for seed in zoo:
        cur = seed
        for _ in range(15):
            at = rng.choice(cur.unfrozen_names())
            stepped = mutate(cur, at)
            ok = ok and mutate(stepped, at) == cur       # involution
            try:
                check_seed(stepped)                       # skew-symmetrizable,
                assert_face_equations(stepped)            # faces, parity
            except ValueError:
                ok = False
            ok = ok and stepped.frozen == seed.frozen
            for nm in seed.names:
                if seed.frozen[seed.index(nm)]:
                    ok = ok and stepped.weight(nm) == seed.weight(nm)
            cur = stepped
    # stage order-independence is enforced inside apply_sequence; a full run
    # over every named sequence exercises it
    for name, seq in builtin_sequences().items():
        base = G2_TRI if name.startswith("g2_swap") else (
            G2_QUAD if name == "g2_flip"
            else build_conf_m_seed(root_datum(name[:2]), 4)
        )
        apply_sequence(base, seq)
    _declare(10, ok, "involution, well-formedness, faces, frozen weights, stages")
