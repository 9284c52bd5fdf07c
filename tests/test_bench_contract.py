"""The attributes the benchmark's tracer wraps must exist on quidlab's modules.

perfbench/spans.py replaces module attributes (``quidlab.qnn.encode_batch``,
``quidlab.cli.split``, ...) with timing wrappers; a refactor that drops one
makes ``perfbench/run.py --trace 1`` fail with AttributeError.
"""

import importlib
import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _wrapped_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    listed = [(name, owners) for _layer, name, owners in spans.SPANS]
    listed += list(spans.INNER) + list(spans.COUNTED)
    return [(owner, name) for name, owners in listed for owner in owners]


@pytest.mark.parametrize("owner,name", _wrapped_attributes())
def test_wrapped_attribute_exists(owner, name):
    module = importlib.import_module(f"quidlab.{owner}")
    assert callable(getattr(module, name, None)), f"quidlab.{owner}.{name}"
