"""Golden outputs of the quidlab CLI: one `sha256  path` line per file written.

Runs a fixed set of subcommands against the quidlab source tree SRC, with
outputs under OUT, and prints one sorted line per output file. Two trees
that print the same lines wrote the same results, so a refactor that must
keep its outputs is checked with one `diff` of the two listings.

Hashes are over raw bytes, except for the fields that hold wall-clock time:
manifest.json is left out, report.csv is hashed without its time_s column
and summary.json without its wall_seconds keys. Stdlib only; run with

    python tools/golden_cli.py SRC OUT

where SRC is a tree's `src` directory and OUT an empty or new directory.
A command that exits nonzero makes the tool exit 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

TRAIN = ["--epochs", "2"]
# (output directory name, subcommand arguments); {data} and {out} are filled in
COMMANDS = [
    ("ess-validate", ["ess-validate", "--noise", "0.05"]),
    *[(f"poison-{mode}", ["poison", "--mode", mode, "--epsilon", "0.5"])
      for mode in ("quid", "random_flip", "bilevel_random")],
    ("train-pqc8", ["train", "--pqc", "pqc8", "--shots", "64", "--noise", "0.05", *TRAIN]),
    ("train-layers2", ["train", "--layers", "2", "--train-fraction", "0.6", *TRAIN]),
    ("evaluate", ["evaluate", "--model", "{out}/train-pqc8/model.json", "--shots", "32"]),
    ("experiment", ["experiment", "--pqc", "pqc6", "--modes",
                    "none,random_flip,quid,bilevel_random", "--epsilon", "0,0.3",
                    "--workers", "2", "--noise", "0.05", "--emit-plot-data", *TRAIN]),
    ("defend-k3-shots", ["defend", "--k", "3", "--shots", "16", *TRAIN]),
    ("defend-k1", ["defend", "--k", "1", "--epsilon", "0,0.2", *TRAIN]),
    ("encode-compare", ["encode-compare"]),
]


def run(env: dict, out: str, argv: list[str]) -> None:
    proc = subprocess.run([sys.executable, "-m", "quidlab.cli", *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"exit {proc.returncode}: quidlab {' '.join(argv)}\n{proc.stderr}")


def _drop_wall_seconds(value):
    if isinstance(value, dict):
        return {k: _drop_wall_seconds(v) for k, v in value.items() if k != "wall_seconds"}
    return value


def digest(path: str) -> str | None:
    """sha256 of the file's result content; None for a file that holds only run metadata."""
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if name == "manifest.json":
        return None
    if name == "report.csv":
        rows = [line.split(",") for line in blob.decode().splitlines()]
        col = rows[0].index("time_s")
        blob = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows).encode()
    elif name == "summary.json":
        blob = json.dumps(_drop_wall_seconds(json.loads(blob)), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out = (os.path.abspath(a) for a in argv)
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        sys.exit(f"{out} is not empty")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    data = os.path.join(out, "data.csv")
    run(env, out, ["gen-data", "--per-class", "20", "--out", data])
    for name, args in COMMANDS:
        args = [a.format(data=data, out=out) for a in args]
        run(env, out, [*args, "--data", data, "--out", os.path.join(out, name)])
    lines = []
    for root, _dirs, files in os.walk(out):
        for f in files:
            path = os.path.join(root, f)
            h = digest(path)
            if h is not None:
                lines.append(f"{h}  {os.path.relpath(path, out)}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
