"""The benchmark's tracer names functions of this package by string.

``bench/spans.py`` lists (module, attribute) pairs in ``TARGETS`` and wraps
each one when a run is traced; a rename in ``src/`` would otherwise break
``bench/run.py --trace 1`` without any test noticing.  The list is read with
``ast`` so the benchmark itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no TARGETS list in {SPANS}")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def test_targets_are_listed():
    assert len(_targets()) >= 20


@pytest.mark.parametrize("module_name,path", _targets(), ids=lambda v: str(v))
def test_trace_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." not in path:
        assert callable(getattr(module, path))
        return
    cls_name, meth = path.split(".")
    cls = getattr(module, cls_name)
    # the tracer wraps a method on each class of the hierarchy that defines it
    assert any(meth in vars(c) for c in _subclasses(cls)), f"{path} is not defined in {module_name}"
