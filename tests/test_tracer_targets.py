"""Every function the benchmark's tracer wraps still exists in frozencol.

The traced benchmark run replaces each (module, attribute) in the tracer's
TARGETS list; a name deleted or renamed here would only surface there. The
list is read from the tracer's source, so the tracer is not imported.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[tuple[str, str, str | None]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


@pytest.mark.parametrize("module, attr, flag", _targets())
def test_tracer_target_resolves(module, attr, flag):
    mod = importlib.import_module(f"frozencol.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), mod))
