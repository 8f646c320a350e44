"""The benchmark tracer's targets still exist in the package.

``perfbench/spans.py`` wraps each ``(path, attr)`` of its ``TRACED`` list by
reading ``owner.__dict__[attr]``, so a renamed or removed function breaks a
traced benchmark run.  The file is loaded by path and left unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name, path, attr", [
    (name, path, attr) for name, targets in spans.TRACED for path, attr in targets])
def test_traced_target_resolves(name, path, attr):
    assert attr in spans._resolve(path).__dict__, f"{name}: {path}.{attr} is gone"
