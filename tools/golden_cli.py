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

    python tools/golden_cli.py --diff OUT_A OUT_B

compares two such OUT directories with the same exclusions. It prints one
line per file whose content differs, with the largest absolute change among
the numbers in it (or why the numbers cannot be paired), and exits 1 if any
file differs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys

TRAIN = ["--epochs", "2"]
# written to OUT/per-gate-noise.json: rz exempt, h on its own channels (one of zero
# strength), every other gate on the default
PER_GATE_NOISE = {
    "rz": [],
    "h": [["amplitude_damping", 0.2], ["depolarizing", 0.0], ["depolarizing", 0.07]],
    "default": [["depolarizing", 0.05], ["amplitude_damping", 0.03]],
}
# (output directory name, subcommand arguments); {data} and {out} are filled in, and
# --data {data} is added unless the arguments name their own --data
COMMANDS = [
    ("ess-validate", ["ess-validate", "--noise", "0.05"]),
    # 8 features on 3 qubits: 3 features per qubit, the last block partial
    ("ess-validate-q3-per-gate", ["ess-validate", "--qubits", "3", "--noise-model",
                                  "{out}/per-gate-noise.json"]),
    ("ess-validate-amplitude", ["ess-validate", "--encoder", "amplitude", "--metric", "trace",
                                "--noise", "0.05"]),
    *[(f"poison-{mode}", ["poison", "--mode", mode, "--epsilon", "0.5"])
      for mode in ("quid", "random_flip", "bilevel_random")],
    ("poison-quid-amplitude", ["poison", "--mode", "quid", "--encoder", "amplitude", "--metric",
                               "trace", "--epsilon", "0.5", "--noise", "0.05"]),
    ("train-pqc8", ["train", "--pqc", "pqc8", "--shots", "64", "--noise", "0.05", *TRAIN]),
    ("train-layers2", ["train", "--layers", "2", "--train-fraction", "0.6", *TRAIN]),
    # readout under per-gate noise: two-qubit noise maps, the exempt rz, a zero-strength entry
    ("train-pqc6-per-gate", ["train", "--pqc", "pqc6", "--qubits", "3", "--noise-model",
                             "{out}/per-gate-noise.json", *TRAIN]),
    ("train-pqc8-per-gate-shots", ["train", "--pqc", "pqc8", "--noise-model",
                                   "{out}/per-gate-noise.json", "--shots", "32", *TRAIN]),
    ("evaluate", ["evaluate", "--model", "{out}/train-pqc8/model.json", "--shots", "32"]),
    ("experiment", ["experiment", "--pqc", "pqc6", "--modes",
                    "none,random_flip,quid,bilevel_random", "--epsilon", "0,0.3",
                    "--workers", "2", "--noise", "0.05", "--emit-plot-data", *TRAIN]),
    ("defend-k3-shots", ["defend", "--k", "3", "--shots", "16", *TRAIN]),
    ("defend-k1", ["defend", "--k", "1", "--epsilon", "0,0.2", *TRAIN]),
    ("encode-compare", ["encode-compare"]),
    # OUT/label-gap.csv: the data without class 2, so its labels are 0, 1 and 3
    ("train-label-gap", ["train", "--data", "{out}/label-gap.csv", *TRAIN]),
    ("experiment-label-gap", ["experiment", "--data", "{out}/label-gap.csv", "--modes",
                              "none,random_flip,quid", "--epsilon", "0.3", *TRAIN]),
]


def commands(out: str):
    """Each run's quidlab arguments in order, gen-data first, with outputs under OUT.

    Writes the input files that later runs read (the noise model, then the
    label-gap copy of the generated data) before it yields the first run that
    reads them, so the caller must finish each run before it asks for the next.
    """
    data = os.path.join(out, "data.csv")
    with open(os.path.join(out, "per-gate-noise.json"), "w") as fh:
        json.dump(PER_GATE_NOISE, fh)
    yield ["gen-data", "--per-class", "20", "--out", data]
    with open(data) as rows, open(os.path.join(out, "label-gap.csv"), "w") as fh:
        fh.writelines(row for row in rows if row.rsplit(",", 1)[1].strip() != "2")
    for name, args in COMMANDS:
        args = [a.format(data=data, out=out) for a in args]
        if "--data" not in args:
            args += ["--data", data]
        yield [*args, "--out", os.path.join(out, name)]


def run(env: dict, out: str, argv: list[str]) -> None:
    proc = subprocess.run([sys.executable, "-m", "quidlab.cli", *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"exit {proc.returncode}: quidlab {' '.join(argv)}\n{proc.stderr}")


def _drop_wall_seconds(value):
    if isinstance(value, dict):
        return {k: _drop_wall_seconds(v) for k, v in value.items() if k != "wall_seconds"}
    return value


def content(path: str) -> bytes | None:
    """The file's result content; None for a file that holds only run metadata."""
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
    return blob


def results(out: str) -> dict[str, bytes]:
    """Relative path -> result content of every file under OUT that holds results."""
    found = {}
    for root, _dirs, files in os.walk(out):
        for f in files:
            path = os.path.join(root, f)
            blob = content(path)
            if blob is not None:
                found[os.path.relpath(path, out)] = blob
    return found


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)", re.IGNORECASE)


def largest_change(a: bytes, b: bytes) -> str:
    """The largest absolute change between the numbers of two texts that differ only in them."""
    ta, tb = a.decode(errors="replace"), b.decode(errors="replace")
    if NUMBER.sub("#", ta) != NUMBER.sub("#", tb):
        return "text differs"
    changes = [0.0 if x == y else abs(float(x) - float(y))
               for x, y in zip(NUMBER.findall(ta), NUMBER.findall(tb))]
    worst = max(changes, default=0.0)
    return "largest change nan" if math.isnan(worst) else f"largest change {worst:.2g}"


def diff(out_a: str, out_b: str) -> int:
    a, b = results(out_a), results(out_b)
    differ = False
    for rel in sorted(a.keys() | b.keys()):
        if rel not in b or rel not in a:
            print(f"{rel}: only in {out_a if rel in a else out_b}")
        elif a[rel] != b[rel]:
            print(f"{rel}: {largest_change(a[rel], b[rel])}")
        else:
            continue
        differ = True
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(argv[1], argv[2])
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out = (os.path.abspath(a) for a in argv)
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        sys.exit(f"{out} is not empty")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for argv in commands(out):
        run(env, out, argv)
    found = results(out)
    print("\n".join(f"{hashlib.sha256(found[rel]).hexdigest()}  {rel}" for rel in sorted(found)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
