"""Tests for the seed-file writer.

Claims covered:
    - write_seed writes the bytes of json.dumps(seed_to_json(seed), indent=1)
      and a newline: on the triangles a1 to a9, g2 and d4, on glued polygons
      up to the g2 32-gon, on a labelled mutation walk, on exchange labels
      with an empty side, and on random small seeds, with and without
      weights and labels, whose vertex names need escaping
    - save_seed writes the same text to a file, and load_seed reads it back,
      each own minor of a polygon file taking its vertex's stored weights;
      load_seed leaves the garbage collector enabled or disabled as it found
      it, whether the file loads or is refused;
      the loader names a vertex id that is not an integer and an exchange
      factor that is not an [index, exponent] pair;
      a save that fails mid-file leaves an earlier file byte for byte and no
      new file, and a saved file has the mode open(path, "w") gives and
      is written through a symbolic link
    - seed_to_json numbers labels children first (plus, then minus, then
      over) as a recursive numbering does, and without recursion
    - every checked seed survives save, load and save again: loading what
      write_seed writes gives the seed back, which writes the same bytes;
      on random small seeds, whose weights are their labels', and on built
      triangles, polygons, a labelled walk, a Langlands dual and a triangle
      without weights and labels or without labels
"""
from __future__ import annotations

import gc
import io
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confseed import seed_io
from confseed.root_data import g2_weight_dual, root_datum
from confseed.seed_builder import build_triangle_seed
from confseed.seed_core import Exchange, Minor, Seed, dense, langlands_dual, mutate
from confseed.seed_io import load_seed, save_seed, seed_from_json, seed_to_json, write_seed
from confseed.surface_glue import build_conf_m_seed

from dense_reference import dense_label_weight, dense_minor, dense_seed


def _written(seed: Seed) -> str:
    fh = io.StringIO()
    write_seed(seed, fh)
    return fh.getvalue()


def _reference(seed: Seed) -> str:
    return json.dumps(seed_to_json(seed), indent=1) + "\n"


def _assert_round_trip(seed: Seed) -> None:
    """Loading what write_seed writes gives the seed back, which writes the
    same bytes again."""
    text = _written(seed)
    back = seed_from_json(json.loads(text))
    assert back == seed
    assert _written(back) == text


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
                entry = {"kind": "minor", "weights": dense(label.weights, *label.shape)}
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
    # p has one neighbour, of zero weight, and no frozen ones, so mutating
    # there leaves one side of its exchange label empty
    seed = Seed(
        ("p", "q"), (False, False), (1, 1), (((1, 2),), ((0, -2),)),
        (((0, (1, 0)),), ()), (1, (0, 0)),
        labels=(dense_minor(((1, 0),)), dense_minor(((0, 0),))),
    )
    seed = mutate(seed, "p")
    label = seed.labels[0]
    assert isinstance(label, Exchange) and not (label.plus and label.minus)
    text = _written(seed)
    assert "[]" in text
    assert text == _reference(seed)


def test_save_and_load(tmp_path):
    path = tmp_path / "seed.json"
    for kind in ("g2", "a3"):
        save_seed(build_conf_m_seed(root_datum(kind), 5), path)
        # no minor of the built seed is alive, so each vertex's own minor is
        # made anew, from the vertex's stored weights
        back = load_seed(path)
        assert all(label.weights is ws for label, ws in zip(back.labels, back.slot_weights))
        seed = build_conf_m_seed(root_datum(kind), 5)
        assert path.read_text(encoding="utf-8") == _reference(seed)
        assert back == seed


@pytest.mark.parametrize("text, message", [
    (None, None),
    ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[" * 100000, "malformed seed data (nested too deeply)"),
    ('{"vertices": [{"id": 1}], "b2": [[0]]}', "no vertex has id 0; ids must be 0 to 0"),
], ids=["good", "malformed-json", "nested-too-deeply", "refused-seed"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_load_leaves_the_collector_as_found(text, message, enabled, tmp_path):
    path = tmp_path / "seed.json"
    if text is None:
        save_seed(build_triangle_seed(root_datum("a2")), path)
    else:
        path.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if message is None:
            assert load_seed(path) == build_triangle_seed(root_datum("a2"))
        else:
            with pytest.raises(ValueError) as err:
                load_seed(path)
            assert str(err.value) == message
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _fault(path, value):
    """A change to the JSON form of the a2 triangle mutated at x_11: the
    item at ``path`` set to ``value``, the path's "ex" the first exchange
    entry's index."""
    def change(data):
        ex = next(k for k, e in enumerate(data["labels"]) if e["kind"] == "exchange")
        node = data
        for key in path[:-1]:
            node = node[ex if key == "ex" else key]
        node[path[-1]] = value
    return change


@pytest.mark.parametrize("change, message", [
    (_fault(("vertices", 0, "id"), None), "vertex id None is not an integer"),
    (_fault(("vertices", 0, "id"), "1"), "vertex id '1' is not an integer"),
    (_fault(("labels", "ex", "plus"), [[0, 1, 2]]),
     "plus factor [0, 1, 2] is not an [index, exponent] pair"),
    (_fault(("labels", "ex", "plus"), [[]]), "plus factor [] is not an [index, exponent] pair"),
    (_fault(("labels", "ex", "minus"), "x"),
     "minus factor 'x' is not an [index, exponent] pair"),
], ids=["null-id", "string-id", "three-item-factor", "empty-factor", "string-side"])
def test_loader_names_the_malformed_field(change, message):
    # each once surfaced as a Python error: sorting by the ids compared
    # None or a str with an int, and unpacking a factor took any length
    data = seed_to_json(mutate(build_triangle_seed(root_datum("a2")), "x_11"))
    data = json.loads(json.dumps(data))
    change(data)
    with pytest.raises(ValueError) as err:
        seed_from_json(data)
    assert str(err.value) == message


class _FailsAfterFirstVertex:
    """A text file whose writes go through until the first vertex has been
    written, and then raise."""

    def __init__(self, fh):
        self.fh, self.done = fh, False

    def write(self, text):
        if self.done:
            raise ValueError("planted failure after the first vertex")
        self.fh.write(text)
        self.done = '"id": 0' in text


def test_failed_save_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "seed.json"
    save_seed(build_triangle_seed(root_datum("a2")), path)
    before = path.read_bytes()

    # the first vertex of the a3 triangle goes out, then the next write raises
    def write_seed_failing(seed, fh):
        write_seed(seed, _FailsAfterFirstVertex(fh))

    monkeypatch.setattr(seed_io, "write_seed", write_seed_failing)
    for target in (path, tmp_path / "new.json"):
        with pytest.raises(ValueError, match="planted failure after the first vertex"):
            save_seed(build_triangle_seed(root_datum("a3")), target)
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


def _exchange_over(shape):
    """Exchanges over drawn labels whose minus side is the one minor of the
    plus side's weight, so that their two sides have equal weights."""
    def build(plus, over):
        found = {}
        weights = [dense_label_weight(label, shape, found) for label, _ in plus]
        total = tuple(
            tuple(sum(e * w[s][r] for (_, e), w in zip(plus, weights)) for r in range(shape[1]))
            for s in range(shape[0]))
        return Exchange(plus, ((dense_minor(total), 1),) if plus else (), over)
    return build


# labels by the weight shape of their minors: (slots, rank) as a seed draws it
LABELS = {
    (slots, rank): st.recursive(
        _weight_tuples(slots, rank).map(dense_minor),
        lambda labels, shape=(slots, rank): st.builds(
            _exchange_over(shape), _sides(labels), labels),
        max_leaves=6,
    )
    for slots in (1, 2, 3) for rank in (1, 2)
}


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
    # a labelled seed's weights are its labels', whose minors have its
    # weight shape; a seed with no vertices has neither weights nor labels
    slots, rank = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    weights = labels = None
    if n and draw(st.booleans()):
        labels = tuple(draw(LABELS[slots, rank]) for _ in range(n))
        found = {}
        weights = tuple(dense_label_weight(label, (slots, rank), found) for label in labels)
    elif n and draw(st.booleans()):
        each = _weight_tuples(slots, rank)
        weights = tuple(draw(each) for _ in range(n))
    return dense_seed(names, frozen, mult, b2, weights, labels)


@settings(max_examples=100, deadline=None)
@given(small_seeds())
def test_random_seeds(seed):
    assert _written(seed) == _reference(seed)
    _assert_round_trip(seed)


# == 3. save, load and save again ============================================

# A seed whose fields no seed file holds (a float or bool number, a name
# that is no string, a coordinate over the cap, a minor of another shape, a
# label of another weight than its vertex's, labels without weights, weights
# or labels on a seed with no vertices) is refused when it is
# built, with the loader's message; test_seed_core's TestRefusals lists each.

def _built_zoo():
    """Seeds the program builds: triangles, polygons, a labelled walk, a
    Langlands dual, and the a2 triangle without weights and labels or
    without labels."""
    seeds = [build_triangle_seed(root_datum(kind)) for kind in ("a1", "a2", "a3", "g2", "d4")]
    seeds += [build_conf_m_seed(root_datum(kind), m)
              for kind, m in (("g2", 4), ("g2", 7), ("a3", 6), ("d4", 4))]
    walk = build_conf_m_seed(root_datum("a3"), 4)
    for step in range(15):
        walk = mutate(walk, ("x_01", "x_02", "x_11")[step % 3])
    a2 = seeds[1]
    return seeds + [walk, langlands_dual(seeds[3], weight_map=g2_weight_dual),
                    a2.replace(slot_weights=None, weight_shape=None, labels=None),
                    a2.replace(labels=None)]


@pytest.mark.parametrize("seed", _built_zoo())
def test_built_seeds_round_trip(seed):
    _assert_round_trip(seed)
