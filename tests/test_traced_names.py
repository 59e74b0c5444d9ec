"""The functions the benchmark's tracer wraps still exist under their names.

perfbench/spans.py (standard library only) resolves each boundary of its
BOUNDARIES table to a plain function; a boundary that no longer resolves
reads as absent and its metrics as null, so a rename fails here instead.
"""

import importlib.util
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name, module, path, _annotator", spans.BOUNDARIES, ids=[b[0] for b in spans.BOUNDARIES])
def test_boundary_resolves_to_a_plain_function(name, module, path, _annotator):
    assert spans._resolve(module, path) is not None, f"{name}: {module}.{path} is gone or not a plain function"
