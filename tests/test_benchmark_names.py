"""The benchmark tracer (perfbench/spans.py) wraps minerf functions by name.

A function it lists that no longer exists would stop `perfbench/run.py
--trace 1` at install time, so every listed name must still resolve.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> dict:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"{mod}.{name}" for mod, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"minerf.{mod}"), name, None))]
    assert not missing, missing
