"""Frozen reference data: hand-checked seeds, rows, and mutation traces.

Everything here is exact bookkeeping data used by the verification suites:
adjacency lists for the built seeds, the weight tables of the 2-parameter
triangle and four-point seeds, per-stage weight tables for the named mutation
sequences, and the boundary sums the completion must produce.
"""
from __future__ import annotations

from fractions import Fraction as Q


def _g2w(sym: str):
    if sym == "0":
        return (0, 0)
    mult = 1
    if sym[0].isdigit():
        mult, sym = int(sym[0]), sym[1:]
    if sym == "a":
        return (mult, 0)
    if sym == "b":
        return (0, mult)
    raise ValueError(sym)


def g2w(*syms):
    return tuple(_g2w(s) for s in syms)


H = Q(1, 2)

# == the G2 triangle: weights and exact rows ==

G2_TRIANGLE_WEIGHTS = {
    "x_a0": g2w("a", "0", "a"),
    "x_a1": g2w("b", "a", "a"),
    "x_a2": g2w("b", "2a", "a"),
    "x_a3": g2w("0", "a", "a"),
    "x_b0": g2w("b", "0", "b"),
    "x_b1": g2w("2b", "3a", "b"),
    "x_b2": g2w("b", "3a", "b"),
    "x_b3": g2w("0", "b", "b"),
    "x_a": g2w("a", "a", "0"),
    "x_b": g2w("b", "b", "0"),
}

G2_TRIANGLE_ROWS = {
    "x_a1": {"x_a0": -1, "x_a2": 1, "x_b0": 1, "x_b1": -1, "x_a": 1},
    "x_a2": {"x_a1": -1, "x_a3": 1, "x_b1": 1, "x_b2": -1},
    "x_b1": {"x_b0": -1, "x_b2": 1, "x_a1": 3, "x_a2": -3},
    "x_b2": {"x_b1": -1, "x_b3": 1, "x_a2": 3, "x_a3": -3, "x_b": -1},
    "x_a0": {"x_a1": 1, "x_b0": -H, "x_a": -1},
    "x_b0": {"x_b1": 1, "x_a0": Q(3, 2), "x_a1": -3},
    "x_a3": {"x_a2": -1, "x_b2": 1, "x_b3": -H},
    "x_b3": {"x_b2": -1, "x_a3": Q(3, 2), "x_b": 1},
    "x_a": {"x_a0": 1, "x_a1": -1, "x_b": H},
    "x_b": {"x_b2": 1, "x_b3": -1, "x_a": -Q(3, 2)},
}

# == adjacency of the built word quivers (multiplicity in unit arrows) ==

ARROWS_G2_WORD = frozenset(
    [
        ("x_a1", "x_a0", 1), ("x_a2", "x_a1", 1), ("x_a3", "x_a2", 1),
        ("x_b1", "x_b0", 1), ("x_b2", "x_b1", 1), ("x_b3", "x_b2", 1),
        ("x_b0", "x_a1", 1), ("x_b1", "x_a2", 1), ("x_b2", "x_a3", 1),
        ("x_a1", "x_b1", 1), ("x_a2", "x_b2", 1),
        ("x_a0", "x_b0", H), ("x_a3", "x_b3", H),
    ]
)

ARROWS_G2_TRIANGLE = ARROWS_G2_WORD | {
    ("x_a0", "x_a", 1), ("x_a", "x_a1", 1),
    ("x_b2", "x_b", 1), ("x_b", "x_b3", 1),
    ("x_b", "x_a", H),
}

ARROWS_A3_WORD = frozenset(
    [
        ("x_11", "x_10", 1), ("x_12", "x_11", 1), ("x_13", "x_12", 1),
        ("x_21", "x_20", 1), ("x_22", "x_21", 1),
        ("x_31", "x_30", 1),
        ("x_20", "x_11", 1), ("x_30", "x_21", 1),
        ("x_11", "x_21", 1), ("x_21", "x_12", 1),
        ("x_21", "x_31", 1), ("x_12", "x_22", 1),
        ("x_10", "x_20", H), ("x_20", "x_30", H),
        ("x_31", "x_22", H), ("x_22", "x_13", H),
    ]
)

ARROWS_A3_TRIANGLE = ARROWS_A3_WORD | {
    ("x_3", "x_2", H), ("x_2", "x_1", H),
    ("x_3", "x_13", 1), ("x_2", "x_12", 1), ("x_1", "x_11", 1),
    ("x_10", "x_1", 1), ("x_11", "x_2", 1), ("x_12", "x_3", 1),
}


def _d4_word_arrows():
    out = set()
    for ai in ("a1", "a2", "a3"):
        for occ in (1, 2, 3):
            out.add((f"x_{ai}{occ}", f"x_{ai}{occ - 1}", 1))
        out.add(("x_b0", f"x_{ai}1", 1))
        out.add(("x_b1", f"x_{ai}2", 1))
        out.add(("x_b2", f"x_{ai}3", 1))
        out.add((f"x_{ai}1", "x_b1", 1))
        out.add((f"x_{ai}2", "x_b2", 1))
        out.add((f"x_{ai}0", "x_b0", H))
        out.add((f"x_{ai}3", "x_b3", H))
    for occ in (1, 2, 3):
        out.add((f"x_b{occ}", f"x_b{occ - 1}", 1))
    return frozenset(out)


ARROWS_D4_WORD = _d4_word_arrows()

# == the G2 four-point seed ==

G2_CONF4_WEIGHTS = {
    "x_0a": g2w("a", "0", "a", "0"),
    "x_0b": g2w("b", "0", "b", "0"),
    "x_1a": g2w("b", "a", "a", "0"),
    "x_2a": g2w("b", "2a", "a", "0"),
    "x_3a": g2w("0", "a", "a", "0"),
    "x_1b": g2w("2b", "3a", "b", "0"),
    "x_2b": g2w("b", "3a", "b", "0"),
    "x_3b": g2w("0", "b", "b", "0"),
    "x_-1a": g2w("a", "0", "b", "a"),
    "x_-2a": g2w("a", "0", "b", "2a"),
    "x_-3a": g2w("a", "0", "0", "a"),
    "x_-1b": g2w("b", "0", "2b", "3a"),
    "x_-2b": g2w("b", "0", "b", "3a"),
    "x_-3b": g2w("b", "0", "0", "b"),
    "y_a": g2w("a", "a", "0", "0"),
    "y_b": g2w("b", "b", "0", "0"),
    "y_-a": g2w("0", "0", "a", "a"),
    "y_-b": g2w("0", "0", "b", "b"),
}

ARROWS_G2_CONF4 = frozenset(
    [
        ("x_1a", "x_0a", 1), ("x_2a", "x_1a", 1), ("x_3a", "x_2a", 1),
        ("x_1b", "x_0b", 1), ("x_2b", "x_1b", 1), ("x_3b", "x_2b", 1),
        ("x_0b", "x_1a", 1), ("x_1b", "x_2a", 1), ("x_2b", "x_3a", 1),
        ("x_1a", "x_1b", 1), ("x_2a", "x_2b", 1), ("x_3a", "x_3b", H),
        ("x_0a", "y_a", 1), ("y_a", "x_1a", 1),
        ("x_2b", "y_b", 1), ("y_b", "x_3b", 1),
        ("x_0a", "x_0b", 1),
        ("x_-1a", "x_0a", 1), ("x_-2a", "x_-1a", 1), ("x_-3a", "x_-2a", 1),
        ("x_-1b", "x_0b", 1), ("x_-2b", "x_-1b", 1), ("x_-3b", "x_-2b", 1),
        ("x_0b", "x_-1a", 1), ("x_-1b", "x_-2a", 1), ("x_-2b", "x_-3a", 1),
        ("x_-1a", "x_-1b", 1), ("x_-2a", "x_-2b", 1), ("x_-3a", "x_-3b", H),
        ("x_0a", "y_-a", 1), ("y_-a", "x_-1a", 1),
        ("x_-2b", "y_-b", 1), ("y_-b", "x_-3b", 1),
        ("y_b", "y_a", H), ("y_-b", "y_-a", H),
    ]
)

G2_CONF4_ROWS = {
    "x_0a": {"x_1a": 1, "x_-1a": 1, "y_a": -1, "y_-a": -1, "x_0b": -1},
    "x_0b": {"x_1b": 1, "x_-1b": 1, "x_0a": 3, "x_1a": -3, "x_-1a": -3},
    "x_1a": {"x_0a": -1, "x_2a": 1, "x_0b": 1, "x_1b": -1, "y_a": 1},
    "x_2a": {"x_1a": -1, "x_3a": 1, "x_1b": 1, "x_2b": -1},
    "x_1b": {"x_0b": -1, "x_2b": 1, "x_1a": 3, "x_2a": -3},
    "x_2b": {"x_1b": -1, "x_3b": 1, "x_2a": 3, "x_3a": -3, "y_b": -1},
    "x_-1a": {"x_0a": -1, "x_-2a": 1, "x_0b": 1, "x_-1b": -1, "y_-a": 1},
    "x_-2a": {"x_-1a": -1, "x_-3a": 1, "x_-1b": 1, "x_-2b": -1},
    "x_-1b": {"x_0b": -1, "x_-2b": 1, "x_-1a": 3, "x_-2a": -3},
    "x_-2b": {"x_-1b": -1, "x_-3b": 1, "x_-2a": 3, "x_-3a": -3, "y_-b": -1},
}

# == per-stage weight tables of the named mutation sequences ==
# Each entry is the tuple of per-stage deltas against the starting table.

STAGE_DELTAS = {
    "g2_swap13": (
        {"x_a2": g2w("b", "2a", "b")},
        {"x_a1": g2w("a", "a", "b"), "x_b1": g2w("b", "3a", "2b")},
        {"x_a2": g2w("a", "2a", "b")},
    ),
    "g2_swap23": (
        {"x_b1": g2w("2b", "3a", "3a")},
        {"x_b2": g2w("b", "b", "3a"), "x_a2": g2w("b", "a", "2a")},
        {"x_b1": g2w("2b", "b", "3a")},
    ),
    "g2_flip": (
        {"x_0a": g2w("b", "a", "b", "a")},
        {
            "x_1a": g2w("b", "2a", "b", "a"),
            "x_-1a": g2w("b", "a", "b", "2a"),
            "x_0b": g2w("2b", "3a", "2b", "3a"),
        },
        {
            "x_0a": g2w("b", "2a", "b", "2a"),
            "x_2a": g2w("0", "a", "b", "a"),
            "x_-2a": g2w("b", "a", "0", "a"),
            "x_1b": g2w("b", "3a", "2b", "3a"),
            "x_-1b": g2w("2b", "3a", "b", "3a"),
        },
        {
            "x_1a": g2w("0", "a", "b", "2a"),
            "x_-1a": g2w("b", "2a", "0", "a"),
            "x_0b": g2w("b", "3a", "b", "3a"),
            "x_2b": g2w("0", "b", "2b", "3a"),
            "x_-2b": g2w("2b", "3a", "0", "b"),
        },
        {
            "x_0a": g2w("0", "a", "0", "a"),
            "x_1b": g2w("0", "b", "b", "3a"),
            "x_-1b": g2w("b", "3a", "0", "b"),
        },
        {"x_0b": g2w("0", "b", "0", "b")},
    ),
}


def stage_tables(name: str, start: dict) -> tuple[dict, ...]:
    """Expand a delta chain into full per-stage weight tables."""
    out = []
    cur = dict(start)
    for delta in STAGE_DELTAS[name]:
        cur = {**cur, **delta}
        out.append(cur)
    return tuple(out)


# == boundary sums the completion must reproduce (SL4 start-edge rows) ==

SL4_START_SUMS = {
    "x_10": (
        (Q(0), H, Q(-1)),
        (Q(0), Q(0), Q(0)),
        (Q(1), -H, Q(0)),
    ),
    "x_20": (
        (H, Q(-1), H),
        (Q(0), Q(0), Q(0)),
        (-H, Q(1), -H),
    ),
    "x_30": (
        (Q(-1), H, Q(0)),
        (Q(0), Q(0), Q(0)),
        (Q(0), -H, Q(1)),
    ),
}
