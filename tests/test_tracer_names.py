"""The functions that the benchmark's traced run wraps all exist.

perfbench/tracer.py names them in its TRACED table and looks each one up
only when a traced run starts, so renaming or deleting one would otherwise
go unnoticed until ``perfbench/run.py --trace 1`` fails.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    table = _traced_table()
    assert table
    missing = [
        f"{mod}.{fn}"
        for mod, fns in table.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"confseed.{mod}"), fn, None))
    ]
    assert missing == []
