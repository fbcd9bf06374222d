"""The type rules read the root datum's fields, never the type's name.

Each Cartan type is one entry of ``root_data``'s table, and the rules for
the longest element and the Langlands weight map read that entry's
``iota``, ``word`` and ``dual``.  So none of them may read ``.kind``, or a
rule would branch on the type's name again.  The module is parsed with
``ast``, so this holds without importing or running anything.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT_DATA = Path(__file__).resolve().parents[1] / "src" / "confseed" / "root_data.py"

RULES = ("standard_longest_word", "is_longest_word", "w0_on_weight", "w0_dual",
         "dual_weight_map")


def test_type_rules_read_no_kind():
    tree = ast.parse(ROOT_DATA.read_text(encoding="utf-8"))
    rules = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in RULES}
    assert sorted(rules) == sorted(RULES)
    found = [
        f"{name}:{node.lineno}" for name, fn in rules.items() for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "kind"
    ]
    assert found == []
