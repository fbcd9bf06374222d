"""One stored form for seeds, read straight from confseed's source.

A Seed stores its nonzero rows and slot weights and nothing else.  Its
cached dense ``b2`` view stays only for the benchmark's independent
exchange check, so no code in ``src/confseed`` outside the ``Seed.b2``
property reads an attribute named ``b2``, and ``Seed`` defines neither a
second constructor ``sparse`` nor a dense ``weights`` view.  Each module is
parsed with ``ast``, so these hold without importing or running anything.
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
