"""Tests for the seed-file writer.

Claims covered:
    - write_seed writes the bytes of json.dumps(seed_to_json(seed), indent=1)
      and a newline: on the triangles a1 to a9, g2 and d4, on glued polygons
      up to the g2 32-gon, on a labelled mutation walk, on exchange labels
      with an empty side, and on random small seeds, with and without
      weights and labels, whose vertex names need escaping
    - save_seed writes the same text to a file, and load_seed reads it back;
      a save that fails mid-file leaves an earlier file byte for byte and no
      new file, and a saved file has the mode open(path, "w") gives and
      is written through a symbolic link
    - seed_to_json numbers labels children first (plus, then minus, then
      over) as a recursive numbering does, and without recursion
"""
from __future__ import annotations

import io
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confseed.root_data import root_datum
from confseed.seed_builder import build_triangle_seed
from confseed.seed_core import Exchange, Minor, Seed, mutate
from confseed.seed_io import load_seed, save_seed, seed_to_json, write_seed
from confseed.surface_glue import build_conf_m_seed

from dense_reference import dense_seed


def _written(seed: Seed) -> str:
    fh = io.StringIO()
    write_seed(seed, fh)
    return fh.getvalue()


def _reference(seed: Seed) -> str:
    return json.dumps(seed_to_json(seed), indent=1) + "\n"


# == 1. seeds the program builds =============================================

@pytest.mark.parametrize(
    "kind", [f"a{n}" for n in range(1, 10)] + ["g2", "d4"]
)
def test_triangles(kind):
    seed = build_triangle_seed(root_datum(kind))
    assert _written(seed) == _reference(seed)


@pytest.mark.parametrize(
    "kind,m", [("g2", 4), ("g2", 16), ("g2", 32), ("a3", 6), ("d4", 4)]
)
def test_polygons(kind, m):
    seed = build_conf_m_seed(root_datum(kind), m)
    assert _written(seed) == _reference(seed)


def test_labelled_walk():
    seed = build_conf_m_seed(root_datum("a3"), 4)
    cycle = ("x_01", "x_02", "x_11")
    for step in range(15):
        seed = mutate(seed, cycle[step % 3])
    kinds = {entry["kind"] for entry in seed_to_json(seed)["labels"]}
    assert kinds == {"minor", "exchange"}
    assert _written(seed) == _reference(seed)


def _recursive_table(seed: Seed) -> list[dict]:
    """The label table numbered by plain recursion, as a reference."""
    index: dict = {}
    table: list[dict] = []

    def number(label) -> int:
        if label not in index:
            if isinstance(label, Minor):
                entry = {"kind": "minor", "weights": label.weights}
            else:
                entry = {
                    "kind": "exchange",
                    "plus": [(number(l), e) for l, e in label.plus],
                    "minus": [(number(l), e) for l, e in label.minus],
                    "over": number(label.over),
                }
            index[label] = len(table)
            table.append(entry)
        return index[label]

    labels = [number(label) for label in seed.labels]
    assert [v["label"] for v in seed_to_json(seed)["vertices"]] == labels
    return table


def test_label_numbering_matches_the_recursive_one():
    # 300 cyclic steps nest labels about 300 deep, within reach of recursion
    seed = build_conf_m_seed(root_datum("a3"), 4)
    cycle = ("x_01", "x_02", "x_11")
    for step in range(300):
        seed = mutate(seed, cycle[step % 3])
    table = seed_to_json(seed)["labels"]
    assert len(table) > 300
    assert table == _recursive_table(seed)


def test_exchange_with_an_empty_side():
    # p has one neighbour and no frozen ones, so mutating there leaves
    # one side of its exchange label empty
    seed = Seed(
        ("p", "q"), (False, False), (1, 1), (((1, 2),), ((0, -2),)),
        labels=(Minor(((1, 0),)), Minor(((0, 1),))),
    )
    seed = mutate(seed, "p")
    label = seed.labels[0]
    assert isinstance(label, Exchange) and not (label.plus and label.minus)
    text = _written(seed)
    assert "[]" in text
    assert text == _reference(seed)


def test_save_and_load(tmp_path):
    seed = build_conf_m_seed(root_datum("g2"), 5)
    path = tmp_path / "seed.json"
    save_seed(seed, path)
    assert path.read_text(encoding="utf-8") == _reference(seed)
    assert load_seed(path) == seed


def test_failed_save_keeps_the_earlier_file(tmp_path):
    # vertex "a" renders, then str() refuses the 5,001-digit weight of "b"
    broken = Seed(("a", "b"), (True, True), (1, 1), ((), ()),
                  (((0, (1,)),), ((0, (10 ** 5000,)),)), (1, (0,)))
    path = tmp_path / "seed.json"
    save_seed(build_triangle_seed(root_datum("a2")), path)
    before = path.read_bytes()
    for target in (path, tmp_path / "new.json"):
        with pytest.raises(ValueError, match="integer string conversion"):
            save_seed(broken, target)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["seed.json"]


def test_save_gives_the_mode_open_gives(tmp_path):
    seed = build_triangle_seed(root_datum("a2"))
    (tmp_path / "plain").write_text("")
    save_seed(seed, tmp_path / "new.json")
    assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "plain").stat().st_mode
    old = tmp_path / "old.json"
    old.write_text("")
    old.chmod(0o640)
    save_seed(seed, old)
    assert oct(old.stat().st_mode & 0o777) == oct(0o640)
    assert load_seed(old) == seed
    # through a symbolic link to its target, which open(path, "w") writes
    link = tmp_path / "link.json"
    link.symlink_to(old)
    save_seed(build_triangle_seed(root_datum("a3")), link)
    assert link.is_symlink()
    assert load_seed(old) == build_triangle_seed(root_datum("a3"))


# == 2. random small seeds ===================================================

# vertex names with characters JSON must escape, and non-ASCII ones
NAMES = st.text(
    alphabet=st.sampled_from('x_0-1."\\\n\té€λ😀') | st.characters(),
    max_size=4,
)
COORD = st.integers(-3, 3) | st.integers(-10**20, 10**20)


def _weight_tuples(slots: int, rank: int):
    row = st.lists(COORD, min_size=rank, max_size=rank).map(tuple)
    return st.lists(row, min_size=slots, max_size=slots).map(tuple)


def _sides(labels):
    pair = st.tuples(labels, st.integers(1, 3))
    return st.lists(pair, max_size=2).map(tuple)


LABELS = st.recursive(
    st.integers(0, 2).flatmap(
        lambda slots: st.integers(0, 2).flatmap(
            lambda rank: _weight_tuples(slots, rank)
        )
    ).map(Minor),
    lambda labels: st.builds(Exchange, _sides(labels), _sides(labels), labels),
    max_leaves=6,
)


@st.composite
def small_seeds(draw) -> Seed:
    names = tuple(draw(st.lists(NAMES, max_size=5, unique=True)))
    n = len(names)
    frozen = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mult = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    b2 = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        # skew-symmetrizable, and even unless both ends are frozen
        c = draw(st.integers(-2, 2)) * (1 if frozen[i] and frozen[j] else 2)
        b2[i][j], b2[j][i] = c * mult[i], -c * mult[j]
    weights = None
    if n and draw(st.booleans()):
        slots, rank = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        each = _weight_tuples(slots, rank)
        weights = tuple(draw(each) for _ in range(n))
    labels = None
    if draw(st.booleans()):
        labels = tuple(draw(LABELS) for _ in range(n))
    return dense_seed(names, frozen, mult, b2, weights, labels)


@settings(max_examples=100, deadline=None)
@given(small_seeds())
def test_random_seeds(seed):
    assert _written(seed) == _reference(seed)
