"""Functions of quidlab that no run reaches: a line tracer over the golden runs and the benchmark.

Traces every line of quidlab under SRC that runs in this process, on every
thread (sys.settrace and threading.settrace), while it runs

- the commands of tools/golden_cli.py, in process through quidlab.cli.main and
  with --workers 1 in place of 2, so that every experiment cell runs here;
- one command line that argparse refuses (REFUSED), which must exit 2;
- each perfbench workload once at its tiny size (perfbench/run.py's main with
  size="tiny", seed 1, no timed seconds, untraced).

Then it prints one line per function or method under SRC/quidlab none of
whose body lines ran, as `quidlab.<module>.<qualname>  <file>:<line>`, and
a line with their count. After them it prints, in the same form with the
statement's first source line appended, each statement in the body of a
function that did run that itself never ran (a compound statement counts
as run when its header line ran), and a last line with their count. `raise`
statements and `except` bodies are left out, as most guard inputs that no
run gives. Code that runs only in pool worker processes is
not seen: cli-sweep runs its experiment cells in two workers, but the golden
experiment runs the same kind of cells here. Stdlib only; run with

    python tools/traffic.py SRC

where SRC is a tree's `src` directory; the perfbench directory beside it is
the one that runs. Golden outputs go to a temporary directory. A golden command
that exits nonzero, REFUSED exiting with any code but 2, or a workload whose
output checks fail, makes the tool exit 1.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import linecache
import os
import sys
import tempfile
import threading
import warnings

import golden_cli

WORKLOAD_ARGS = ["--seed", "1", "--seconds", "0", "--trace", "0"]
REFUSED = ["train", "--no-such-flag"]


def functions(package: str) -> list[tuple[str, str, int, list]]:
    """(qualified name, file, def line, body statements) of every function in the package."""
    found = []

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if (len(body) > 1 and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)):
                    body = body[1:]  # a docstring runs no line
                found.append((f"{prefix}.{name}", path, child.lineno, body))
                visit(child, f"{prefix}.{name}", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{name}", path)

    for file in sorted(os.listdir(package)):
        if file.endswith(".py"):
            path = os.path.join(package, file)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            visit(tree, "quidlab" if file == "__init__.py" else f"quidlab.{file[:-3]}", path)
    return found


def statements(body: list):
    """The statements of a function body and of its nested blocks, but not a raise, an except
    body, or a nested def or class, whose body is a function of its own."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not isinstance(node, ast.Raise):
            yield node
        for block in ("body", "orelse", "finalbody"):
            yield from statements(getattr(node, block, []))


def head(node) -> range:
    """The lines of which one ran if node did: a compound statement's header, else all of it."""
    body = getattr(node, "body", None)
    return range(node.lineno, max(body[0].lineno, node.lineno + 1) if body else node.end_lineno + 1)


@contextlib.contextmanager
def traced(package: str):
    """Collect (file, line) of every line run under package, on every thread, within."""
    hits: set[tuple[str, int]] = set()
    prefix = package + os.sep

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        yield hits
    finally:
        sys.settrace(None)
        threading.settrace(None)


def golden_runs(out: str) -> None:
    from quidlab import cli

    for argv, _printed in golden_cli.commands(out):
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = "1"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"exit {code}: quidlab {' '.join(argv)}")


def refused_run() -> None:
    from quidlab import cli

    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(REFUSED)
    except SystemExit as exc:  # argparse exits through cli._Parser.error
        code = exc.code
    if code != 2:
        sys.exit(f"exit {code}, not 2: quidlab {' '.join(REFUSED)}")


def workload_runs(perfbench: str) -> None:
    sys.path.insert(0, perfbench)
    run = importlib.import_module("run")
    for name in sorted(run.WORKLOADS):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = run.main(["--workload", name, *WORKLOAD_ARGS], size="tiny")
        if code != 0 or not json.loads(printed.getvalue().splitlines()[-1])["correct"]:
            sys.exit(f"workload {name} failed:\n{printed.getvalue()}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    src = os.path.abspath(argv[0])
    package = os.path.join(src, "quidlab")
    sys.path.insert(0, src)
    with traced(package) as hits, tempfile.TemporaryDirectory() as out, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the runs' own warnings; a failure still exits 1
        golden_runs(out)
        refused_run()
        workload_runs(os.path.join(os.path.dirname(src), "perfbench"))
    unrun, missed = [], []  # functions none of whose lines ran; unrun statements of the rest
    for name, path, line, body in functions(package):
        if not any((path, n) in hits for n in range(body[0].lineno, body[-1].end_lineno + 1)):
            unrun.append((name, path, line))
        else:
            missed += [(name, path, node) for node in statements(body)
                       if not any((path, n) in hits for n in head(node))]
    for name, path, line in unrun:
        print(f"{name}  {os.path.relpath(path, src)}:{line}")
    print(f"{len(unrun)} functions ran no line")
    for name, path, node in missed:
        text = linecache.getline(path, node.lineno).strip()
        print(f"{name}  {os.path.relpath(path, src)}:{node.lineno}  {text}")
    print(f"{len(missed)} statements of functions that ran never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
