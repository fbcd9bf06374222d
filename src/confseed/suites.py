"""Named verification suites bundling the package's exact checks.

Each suite returns CheckReports; every comparison is exact rational
arithmetic against frozen tables or independently computed values.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

from . import golden
from . import minor_oracle as mo
from . import root_data as rd
from .seed_builder import (
    build_bruhat_seed,
    build_triangle_seed,
    complete_triangle_seed,
    four_point_name,
    reverse_word_seed,
    triangle_name,
    triangle_vertices,
)
from .seed_core import (
    Seed,
    arrows,
    langlands_dual,
    matches_under,
    mutate,
    opposite,
    permute_slots,
    quiver_isomorphic,
    weight_balance,
)
from .sequence_verifier import (
    CheckReport,
    apply_sequence,
    builtin_sequences,
    type_a_flip,
    verify_dynkin_automorphism_d4,
    verify_flip,
    verify_langlands_pairing,
    verify_s3,
)
from .surface_glue import build_conf_m_seed

TRIANGLE_DUALITY_PAIRING = {
    "x_a0": "x_b3", "x_a1": "x_b2", "x_a2": "x_b1", "x_a3": "x_b0",
    "x_b0": "x_a3", "x_b1": "x_a2", "x_b2": "x_a1", "x_b3": "x_a0",
    "x_a": "x_b", "x_b": "x_a",
}


def quad_duality_pairing(seed: Seed) -> dict[str, str]:
    """Send every vertex of the g2 four-point seed to the same vertex of the
    Langlands dual node, short and long exchanged."""
    datum = rd.root_datum("g2")
    dual = {node: datum.nodes[i] for node, i in zip(datum.nodes, datum.dual)}
    pairing = {
        four_point_name(datum, node, occ, second=second):
            four_point_name(datum, dual[node], occ, second=second)
        for second in (False, True)
        for node, occ in triangle_vertices(datum)
    }
    return {nm: pairing[nm] for nm in seed.names}


def _arrowset(seed: Seed) -> dict:
    return {(a, b): m for a, b, m in arrows(seed)}

def _golden_arrowset(table) -> dict:
    return {(a, b): Q(m) for a, b, m in table}


def _golden_row_problems(seed: Seed, rows: dict, what: str) -> list[str]:
    """One problem per entry of a frozen exchange row that b2 does not hold."""
    problems = []
    for name, row in rows.items():
        entries = dict(seed.rows[seed.index(name)])
        for j, other in enumerate(seed.names):
            if entries.get(j, 0) != 2 * row.get(other, 0):
                problems.append(f"{what} {name} differs at {other}")
    return problems


def _report(name: str, problems: list[str], ok_note: str) -> CheckReport:
    if problems:
        return CheckReport(name, False, tuple(problems))
    return CheckReport(name, True, (ok_note,))


# == 1. builders against the frozen figures ==

def suite_builders(rng=None) -> list[CheckReport]:
    reports = []
    word_tables = (
        ("a3", golden.ARROWS_A3_WORD),
        ("g2", golden.ARROWS_G2_WORD),
        ("d4", golden.ARROWS_D4_WORD),
    )
    words = {}
    for kind, table in word_tables:
        datum = rd.root_datum(kind)
        seed = words[kind] = build_bruhat_seed(datum, rd.standard_longest_word(datum))
        problems = []
        if _arrowset(seed) != _golden_arrowset(table):
            problems.append("arrow table differs from the frozen quiver")
        reports.append(_report(
            f"{kind} word quiver", problems,
            f"{seed.size} vertices, arrows match the frozen table",
        ))

    tri_tables = (("a3", golden.ARROWS_A3_TRIANGLE), ("g2", golden.ARROWS_G2_TRIANGLE))
    triangles = {}
    for kind, table in tri_tables:
        seed = triangles[kind] = complete_triangle_seed(rd.root_datum(kind), words[kind])
        problems = []
        if _arrowset(seed) != _golden_arrowset(table):
            problems.append("completed arrow table differs from the frozen quiver")
        reports.append(_report(
            f"{kind} triangle completion", problems,
            "arrows match and the completion is certified unique",
        ))

    seed = triangles["g2"]
    problems = _golden_row_problems(seed, golden.G2_TRIANGLE_ROWS, "row")
    if {n: seed.weight(n) for n in seed.names} != dict(golden.G2_TRIANGLE_WEIGHTS):
        problems.append("weight triples differ from the frozen table")
    reports.append(_report(
        "g2 triangle rows and weights", problems,
        "all exchange rows and weight triples match exactly",
    ))

    quad = build_conf_m_seed(rd.root_datum("g2"), 4)
    problems = []
    if _arrowset(quad) != _golden_arrowset(golden.ARROWS_G2_CONF4):
        problems.append("glued arrow table differs from the frozen quiver")
    if {n: quad.weight(n) for n in quad.names} != dict(golden.G2_CONF4_WEIGHTS):
        problems.append("glued weight tuples differ from the frozen table")
    problems += _golden_row_problems(quad, golden.G2_CONF4_ROWS, "glued row")
    reports.append(_report(
        "g2 four-point gluing", problems,
        f"{quad.size} vertices, rows and weights match exactly",
    ))

    tri4 = triangles["a3"]
    problems = []
    for name, want in golden.SL4_START_SUMS.items():
        doubled = tuple(tuple(2 * c for c in w) for w in want)
        if weight_balance(tri4, name) != doubled:
            problems.append(f"boundary sum at {name} differs")
    reports.append(_report(
        "sl4 boundary sums", problems,
        "row-start imbalances match the three stated vectors",
    ))
    return reports


# == 2. the transposition and flip sequences ==

def suite_g2_s3(rng=None) -> list[CheckReport]:
    datum = rd.root_datum("g2")
    tri = build_triangle_seed(datum)
    seqs = builtin_sequences()
    reports = []

    start = {n: tri.weight(n) for n in tri.names}
    for name in ("g2_swap13", "g2_swap23"):
        res = apply_sequence(tri, seqs[name])
        problems = []
        if res.stage_weights != golden.stage_tables(name, start):
            problems.append("stage weight tables differ from the frozen tables")
        reports.append(_report(
            f"{name} stage tables", problems, "all three stage tables match",
        ))

    reports.append(verify_s3(tri, seqs["g2_swap13"], (2, 1, 0)))
    reports.append(verify_s3(tri, seqs["g2_swap23"], (0, 2, 1)))
    reports.append(verify_s3(tri, seqs["g2_swap12"], (1, 0, 2)))

    final = apply_sequence(tri, seqs["g2_swap12"]).final
    problems = []
    if quiver_isomorphic(final, reverse_word_seed(datum)) is None:
        problems.append("composite swap does not reach the reversed-word seed")
    reports.append(_report(
        "g2 swap12 vs reversed word", problems,
        "twelve mutations land on the reversed-word triangle",
    ))
    return reports


def suite_g2_flip(rng=None) -> list[CheckReport]:
    datum = rd.root_datum("g2")
    quad = build_conf_m_seed(datum, 4)
    seq = builtin_sequences()["g2_flip"]
    reports = []

    res = apply_sequence(quad, seq)
    start = {n: quad.weight(n) for n in quad.names}
    problems = []
    if res.stage_weights != golden.stage_tables("g2_flip", start):
        problems.append("stage weight tables differ from the frozen tables")
    reports.append(_report(
        "g2_flip stage tables", problems, "all six stage tables match",
    ))
    reports.append(verify_flip(datum, quad, seq))
    return reports


def suite_typea_flip(rng=None) -> list[CheckReport]:
    datums = map(rd.root_datum, ("a2", "a3"))
    return [verify_flip(d, build_conf_m_seed(d, 4), type_a_flip(d)) for d in datums]


# == 3. dualities and diagram symmetries ==

def suite_langlands(rng=None) -> list[CheckReport]:
    rng = rng or random.Random(0)
    datum = rd.root_datum("g2")
    tri = build_triangle_seed(datum)
    quad = build_conf_m_seed(datum, 4)
    seqs = builtin_sequences()
    wmap = rd.dual_weight_map(datum)
    reports = []

    problems = []
    for seed in (tri, quad):
        bare = seed.replace(labels=None)
        if langlands_dual(langlands_dual(seed, weight_map=wmap), weight_map=wmap) != bare:
            problems.append("dualizing twice does not return the seed")
    a3 = build_triangle_seed(rd.root_datum("a3"))
    if langlands_dual(a3).rows != opposite(a3).rows:
        problems.append("dual of a multiplier-one seed is not the opposite quiver")
    reports.append(_report(
        "duality involution", problems,
        "dual squares to the identity; multiplier-one duals reverse arrows",
    ))

    problems = []
    if not matches_under(
        tri,
        permute_slots(langlands_dual(tri, weight_map=wmap), (1, 0, 2)),
        TRIANGLE_DUALITY_PAIRING,
    ):
        problems.append("triangle seed is not self-dual under the vertex pairing")
    reports.append(_report(
        "g2 triangle self-duality", problems,
        "seed matches its dual after the slot swap and vertex pairing",
    ))

    reports.append(verify_langlands_pairing(
        tri, seqs["g2_swap13"], seqs["g2_swap23"], TRIANGLE_DUALITY_PAIRING,
        slot_perm=(1, 0, 2),
    ))

    pairing = quad_duality_pairing(quad)
    dual_flip = seqs["g2_flip"].conjugated(pairing, name="g2_flip_dual").reversed()
    reports.append(verify_langlands_pairing(
        quad, seqs["g2_flip"], dual_flip, pairing, stage_reversal=True,
    ))

    problems = []
    starts = [(seed, langlands_dual(seed, weight_map=wmap)) for seed in (tri, quad)]
    for trial in range(100):
        seed, dual = starts[trial % 2]
        for _ in range(rng.randint(1, 10)):
            at = rng.choice(list(seed.unfrozen_names()))
            # the dual drops labels, so the walk builds none
            seed = mutate(seed, at, with_labels=False)
            left = langlands_dual(seed, weight_map=wmap)
            if left != mutate(dual, at):
                problems.append(f"dual of mutation at {at} differs")
                break
            dual = left
        if problems:
            break
    reports.append(_report(
        "duality commutes with mutation", problems,
        "100 random mutation walks dualize stepwise",
    ))
    return reports


def suite_triality(rng=None) -> list[CheckReport]:
    datum = rd.root_datum("d4")
    tri = build_triangle_seed(datum)
    outer = ("a1", "a2", "a3")
    reports = [
        verify_dynkin_automorphism_d4(tri, {**dict(zip(outer, perm)), "b": "b"})
        for perm in itertools.permutations(outer)
    ]

    problems = []
    folded = rd.fold_d4_word(rd.standard_longest_word(datum))
    if folded != rd.standard_longest_word(rd.root_datum("g2")):
        problems.append("folding the standard word misses the two-node word")
    reports.append(_report(
        "orbit folding of the standard word", problems,
        "triality orbits collapse to the two-node standard word",
    ))
    return reports


def suite_reversal(rng=None) -> list[CheckReport]:
    reports = []
    for kind in ("a3", "g2"):
        datum = rd.root_datum(kind)
        rev = reverse_word_seed(datum)
        std = build_triangle_seed(datum)
        iso = quiver_isomorphic(opposite(rev), permute_slots(std, (1, 0, 2)))
        problems = []
        if iso is None:
            problems.append("reversed-word triangle does not match the slot swap")
        else:
            word = rd.standard_longest_word(datum)
            reflected = {}
            for node, occ in triangle_vertices(datum):
                if occ is None:
                    image = triangle_name(datum, rd.w0_dual(datum, node))
                else:
                    image = triangle_name(datum, node, word.count(node) - occ)
                reflected[triangle_name(datum, node, occ)] = image
            for name, other in iso.items():
                want = reflected[name]
                if other != want:
                    problems.append(f"{name} pairs with {other}, not {want}")
        reports.append(_report(
            f"{kind} reversed word", problems,
            "occurrence reflection matches the slot swap with arrows reversed",
        ))
    return reports


# == 4. the numeric oracle ==

def suite_oracle(rng=None) -> list[CheckReport]:
    rng = rng or random.Random(0)
    reports = []
    # seeds are immutable, so every check shares one a2 and one a3 build
    tris = {n: build_triangle_seed(rd.root_datum(f"a{n - 1}")) for n in (3, 4)}
    quads = {n: build_conf_m_seed(rd.root_datum(f"a{n - 1}"), 4) for n in (3, 4)}

    problems = []
    checked = 0
    for n, shape in ((3, 3), (4, 3), (3, 4)):
        seed = tris[n] if shape == 3 else quads[n]

        def exchange_trial():
            flags = mo.random_flags(rng, n, shape)
            for at in seed.unfrozen_names():
                if mo.check_exchange(seed, at, flags) != 0:
                    problems.append(f"nonzero residual at {at} (n={n}, m={shape})")

        for _ in range(34):
            mo.until_defined("exchange residuals", exchange_trial)
            checked += 1
        if problems:
            break
    reports.append(_report(
        "exchange residuals", problems,
        f"all unfrozen exchanges vanish exactly over {checked} flag tuples",
    ))

    problems = []
    for n, shape in ((3, 3), (4, 3), (3, 4)):
        seed = tris[n] if shape == 3 else mutate(quads[n], "x_01")

        def torus_trial():
            flags = mo.random_flags(rng, n, shape)
            toruses = tuple(mo.random_torus(rng, n) for _ in range(shape))
            if not mo.torus_weight_check(seed, flags, toruses):
                problems.append(f"weight character fails (n={n}, m={shape})")

        for _ in range(5):
            mo.until_defined("torus weight characters", torus_trial)
    reports.append(_report(
        "torus weight characters", problems,
        "every vertex value scales by its stored weight character",
    ))

    problems = []
    for n in (3, 4):
        tri, quad = tris[n], quads[n]
        if mo.w0_square_sign(n) != (-1) ** (n - 1):
            problems.append(f"unexpected central sign for n={n}")
        for _ in range(5):
            if not mo.check_cyclic_symmetry(tri, mo.random_flags(rng, n, 3)):
                problems.append(f"triangle shift fails (n={n})")
            if not mo.check_cyclic_symmetry(quad, mo.random_flags(rng, n, 4)):
                problems.append(f"four-point shift fails (n={n})")
    reports.append(_report(
        "twisted cyclic shift", problems,
        "shifted values match rotated minors with the central sign",
    ))

    problems = []
    for n in (3, 4):
        for _ in range(20):
            if not mo.check_shear_law(quads[n], rng, n):
                problems.append(f"shear law fails (n={n})")
                break
    reports.append(_report(
        "shear action on glued coordinates", problems,
        "edge ratios are simple-root characters; face ratios are one",
    ))

    problems = []
    quad = quads[3]

    def pentagon_trial():
        if not mo.check_pentagon(quad, "x_01", "x_11", mo.random_flags(rng, 3, 4)):
            problems.append("pentagon walk does not swap the pair")

    for _ in range(5):
        mo.until_defined("pentagon periodicity", pentagon_trial)
    reports.append(_report(
        "pentagon periodicity", problems,
        "five alternating mutations swap the unit pair exactly",
    ))

    problems = []
    i, j = quad.index("x_01"), quad.index("x_11")
    flip = {(i, j), (j, i)}
    corrupt = quad.replace(rows=[tuple((c, -b if (p, c) in flip else b) for c, b in row)
                                 for p, row in enumerate(quad.rows)])
    caught = 0
    for _ in range(10):
        flags = mo.random_flags(rng, 3, 4)
        try:
            if mo.check_exchange(corrupt, "x_01", flags) != 0:
                caught += 1
        except (ZeroDivisionError, ValueError):
            caught += 1
    if caught != 10:
        problems.append("corrupted seed slipped through the exchange check")
    reports.append(_report(
        "negative control", problems,
        "a sign-flipped arrow is caught every time",
    ))
    return reports


SUITES = {
    "builders": suite_builders,
    "g2-s3": suite_g2_s3,
    "g2-flip": suite_g2_flip,
    "typea-flip": suite_typea_flip,
    "langlands": suite_langlands,
    "triality": suite_triality,
    "reversal": suite_reversal,
    "oracle": suite_oracle,
}


def run_suite(name: str, rng=None) -> list[CheckReport]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](rng))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](rng)
