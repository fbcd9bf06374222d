"""One stored form for seeds, read straight from confseed's source.

A Seed stores its nonzero rows and slot weights and nothing else.  Its
cached dense ``b2`` view stays only for the benchmark's independent
exchange check, so no code in ``src/confseed`` outside the ``Seed.b2``
property reads an attribute named ``b2``, and ``Seed`` defines neither a
second constructor ``sparse`` nor a dense ``weights`` view.  A Minor stores
its weights as a vertex does, so the rules that relabel weights and read
degrees off them never call ``dense``.  Only the three constructions that
prove their result checked call ``_unchecked``, the one place that makes a
Seed without ``check_seed``; and only the two label constructors, which
check what they make, and the exchange step, which hands over the weight
it has proved, call ``_intern``, the one place that makes a label.  Only
``check_seed``, ``_minor_fields`` and the Langlands dual's row rule
``_dual_row`` call ``_check_pairs``, the one walk over stored weights, and
that row rule, under ``lru_cache(maxsize=_DUAL_CAP)``, is the dual's one
memo: no module names ``WeakKeyDictionary``.  Only
``seed_io.load_seed`` pauses the garbage collector: no other code imports
or calls ``gc``.  Each module is parsed with ``ast``, so these hold
without importing or running anything.  The weights that step hands over are then held to the dense
reference along seeded walks.
"""
from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from confseed.root_data import root_datum
from confseed.seed_core import Exchange, dense, mutate, post_order
from confseed.surface_glue import build_conf_m_seed

from dense_reference import dense_label_weight

SRC = Path(__file__).resolve().parents[1] / "src" / "confseed"


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _seed_classes(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and node.name == "Seed"]


def test_no_code_reads_b2_outside_the_view():
    found = []
    for name, tree in _trees():
        view = {
            id(node)
            for cls in _seed_classes(tree) for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "b2"
            for node in ast.walk(fn)
        }
        found += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "b2" and id(node) not in view
        ]
    assert found == []


def test_seed_defines_no_sparse_constructor_or_weights_view():
    defined = []
    for name, tree in _trees():
        for cls in _seed_classes(tree):
            for node in ast.walk(cls):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    defined.append(node.id)
    assert "__init__" in defined
    assert not {"sparse", "weights"} & set(defined)


# the functions that move, map or read stored weights, vertices' and minors' alike
_STORED_ONLY = {"moved_fields", "map_weights", "map_label_weights", "degrees_of", "type_a_flip"}


def _called(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_relabelling_and_degrees_call_no_dense():
    seen, found = set(), []
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in _STORED_ONLY:
                seen.add(fn.name)
                found += [
                    f"{name}:{node.lineno}" for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and _called(node) == "dense"
                ]
    assert seen == _STORED_ONLY
    assert found == []


def _enclosed(tree):
    """(name of the innermost function around it, or None, node) for every node."""
    out = []
    stack = [(tree, None)]
    while stack:
        node, fn = stack.pop()
        for child in ast.iter_child_nodes(node):
            out.append((fn, child))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            stack.append((child, child.name if is_def else fn))
    return out


# the constructions that prove their result passes check_seed: each writes
# only what keeps every invariant, or tests what it writes
_UNCHECKED_CALLERS = {"mutate", "opposite", "langlands_dual"}



def _callers(target: str) -> tuple[list, list]:
    """The functions in src/ that call target, and those that mention it."""
    callers, refs = [], []
    for _, tree in _trees():
        for fn, node in _enclosed(tree):
            if isinstance(node, ast.Call) and _called(node) == target:
                callers.append(fn)
            if ((isinstance(node, ast.Name) and node.id == target)
                    or (isinstance(node, ast.Attribute) and node.attr == target)):
                refs.append(fn)
    return callers, refs


def test_only_proven_constructions_skip_the_check():
    callers, refs = _callers("_unchecked")
    news = []
    for name, tree in _trees():
        for fn, node in _enclosed(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
                    and [ast.unparse(a) for a in node.args] == ["Seed"]):
                news.append(f"{name}:{fn}")
    assert set(callers) == _UNCHECKED_CALLERS
    # every mention of _unchecked is one of those calls: no alias escapes
    assert sorted(refs) == sorted(callers)
    assert news == ["seed_core.py:_unchecked"]


def test_only_the_exchange_step_hands_a_label_its_weight():
    # the intern table is filled only by Minor's and Exchange's constructors,
    # which check what they make, and by the one construction that proves a
    # new label's weight: the exchange step, whose children are a checked
    # seed's labels and whose sides it has balanced
    callers, refs = _callers("_intern")
    assert sorted(callers) == ["__new__", "__new__", "_exchange"]
    # every mention of _intern is one of those calls: no alias escapes
    assert sorted(refs) == sorted(callers)


def test_the_dual_row_is_the_one_cached_pair_check():
    # _check_pairs, the one walk over stored weights, runs for a seed, a
    # minor and one dual row, and that row rule is the dual's one memo: a
    # bounded lru_cache, with no weak per-map table beside it
    callers, refs = _callers("_check_pairs")
    assert sorted(callers) == ["_dual_row", "_minor_fields", "check_seed"]
    assert sorted(refs) == sorted(callers)
    named, decorators = [], []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_dual_row":
                decorators += [f"{name}:{ast.unparse(d)}" for d in node.decorator_list]
            if "WeakKeyDictionary" in (getattr(node, "id", None), getattr(node, "attr", None),
                                       getattr(node, "name", None)):
                named.append(f"{name}:{node.lineno}")
    assert decorators == ["seed_core.py:lru_cache(maxsize=_DUAL_CAP)"]
    assert named == []


def test_only_the_loader_pauses_the_collector():
    # seed_io imports gc, and only its load_seed names it
    imports, uses = set(), set()
    for name, tree in _trees():
        for fn, node in _enclosed(tree):
            if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "gc"):
                imports.add((name, fn))
            elif isinstance(node, ast.Name) and node.id == "gc":
                uses.add((name, fn))
    assert imports == {("seed_io.py", None)}
    assert uses == {("seed_io.py", "load_seed")}


@pytest.mark.parametrize("kind", ["g2", "a3"])
def test_each_exchange_holds_its_dense_weight(kind):
    # a seeded labelled walk on the 4-gon: every exchange node the walk
    # makes stores the weight that the dense reference sums for it
    seed = build_conf_m_seed(root_datum(kind), 4)
    shape = (seed.slots, len(seed.weight_shape[1]))
    rng = random.Random(18)
    done, found, exchanges = set(), {}, 0
    for _ in range(40):
        seed = mutate(seed, rng.choice(seed.unfrozen_names()))
        for label in seed.labels:
            for top in post_order(label, done):
                done.add(top)
                if isinstance(top, Exchange):
                    exchanges += 1
                    assert top.shape == seed.weight_shape
                    assert dense(top.weights, *top.shape) == dense_label_weight(top, shape, found)
    assert exchanges >= 20
