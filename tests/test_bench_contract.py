"""The attributes the benchmark's tracer wraps must exist on quidlab's modules.

perfbench/spans.py replaces module attributes (``quidlab.qnn.encode_batch``,
``quidlab.cli.split``, ...) with timing wrappers; a refactor that drops one
makes ``perfbench/run.py --trace 1`` fail with AttributeError.

The import contract stands in for a linter: every import in quidlab's modules
is used, and an import kept only for the tracer (marked ``# noqa: F401``) names
an attribute that spans.py wraps on that module. A deletion that leaves an
import dead fails here.

Each workload also runs once at its tiny size, untraced, and its output checks
must pass: a change that breaks what the workloads call fails here, not first
in a benchmark run.
"""

import ast
import importlib
import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PERFBENCH_DIR = os.path.join(ROOT, "perfbench")
SPANS_PATH = os.path.join(PERFBENCH_DIR, "spans.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]
SRC_DIR = os.path.join(ROOT, "src", "quidlab")
# __init__.py is left out: its imports are the package's exports
MODULES = sorted(f[:-3] for f in os.listdir(SRC_DIR) if f.endswith(".py") and f != "__init__.py")


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


def _imports(module):
    """([(bound name, marked noqa: F401)] for each import of the module, names it reads)."""
    with open(os.path.join(SRC_DIR, f"{module}.py")) as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            imported += [(alias.asname or alias.name.split(".")[0], noqa) for alias in node.names]
    return imported, {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    imported, used = _imports(module)
    unused = [name for name, noqa in imported if not noqa and name not in used]
    assert not unused, f"quidlab.{module} imports {unused} and never uses them"


@pytest.mark.parametrize("module", MODULES)
def test_tracer_only_imports_are_wrapped(module):
    wrapped = {name for owner, name in _wrapped_attributes() if owner == module}
    imported, _used = _imports(module)
    unwrapped = [name for name, noqa in imported if noqa and name not in wrapped]
    assert not unwrapped, f"quidlab.{module} keeps {unwrapped} for a wrapper spans.py lacks"


def _quidlab_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "quidlab" or name.startswith("quidlab.")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output_checks_pass(workload, monkeypatch, capsys):
    # every workload set-up imports quidlab afresh; the modules the other tests
    # imported are put back afterwards, so their classes stay the ones raised
    monkeypatch.syspath_prepend(PERFBENCH_DIR)
    run = importlib.import_module("run")
    saved = _quidlab_modules()
    try:
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]
        assert run.main(argv, size="tiny") == 0
    finally:
        for name in _quidlab_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, [line for line in lines if line.startswith("FAILED")]
