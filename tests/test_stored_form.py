"""One stored form for seeds, read straight from confseed's source.

A Seed stores its nonzero rows and slot weights and nothing else.  Its
cached dense ``b2`` view stays only for the benchmark's independent
exchange check, so no code in ``src/confseed`` outside the ``Seed.b2``
property reads an attribute named ``b2``, and ``Seed`` defines neither a
second constructor ``sparse`` nor a dense ``weights`` view.  A Minor stores
its weights as a vertex does, so the rules that relabel weights and read
degrees off them never call ``dense``.  Only the three constructions that
prove their result checked call ``_unchecked``, the one place that makes a
Seed without ``check_seed``.  Each module is parsed with ``ast``, so these
hold without importing or running anything.
"""
from __future__ import annotations

import ast
from pathlib import Path

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
_STORED_ONLY = {"move_slots", "map_weights", "map_label_weights", "degrees_of", "type_a_flip"}


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


def test_only_proven_constructions_skip_the_check():
    callers, refs, news = [], [], []
    for name, tree in _trees():
        for fn, node in _enclosed(tree):
            if isinstance(node, ast.Call) and _called(node) == "_unchecked":
                callers.append(fn)
            if ((isinstance(node, ast.Name) and node.id == "_unchecked")
                    or (isinstance(node, ast.Attribute) and node.attr == "_unchecked")):
                refs.append(fn)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
                    and [ast.unparse(a) for a in node.args] == ["Seed"]):
                news.append(f"{name}:{fn}")
    assert set(callers) == _UNCHECKED_CALLERS
    # every mention of _unchecked is one of those calls: no alias escapes
    assert sorted(refs) == sorted(callers)
    assert news == ["seed_core.py:_unchecked"]
