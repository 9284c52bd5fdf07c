"""The benchmark's three workloads: set-up, one timed iteration, output checks.

Each workload splits its timed iteration into two phases, reported as the
end-to-end metrics ``phase1_s`` and ``phase2_s`` under a workload-specific name
(README.md has the tables). Every input is generated from the run's seed;
quidlab only ever sees the generated data.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
import os
import shutil
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from types import SimpleNamespace

import numpy as np

MODULES = ("simcore", "noise", "encode", "pqc", "qnn", "ess", "poison", "defense", "data", "cli")

# Sizes are chosen so that one iteration takes a few seconds on a 2-core
# machine and a run holds several iterations; "tiny" is for the smoke test.
SIZES = {
    "full": {
        "setup_reps": 5,
        "attack_per_class": 50,
        "attack_epochs": 6,
        "cli_per_class": 30,
        "cli_epochs": 2,
        "ess_per_class": 16,
    },
    "tiny": {
        "setup_reps": 1,
        "attack_per_class": 15,
        "attack_epochs": 2,
        "cli_per_class": 6,
        "cli_epochs": 1,
        "ess_per_class": 4,
    },
}

BATCH = 32
LEARNING_RATE = 0.05  # short runs need a larger step than the 0.01 default to separate classes
NOISE_P = 0.05
EPSILON = 0.5
# quid@0.5 must cost at least this much test accuracy against the baseline,
# averaged over the two noise levels as acceptance criterion 6 averages over seeds
QUID_MARGIN = 0.10
ORACLE_ROWS = 8


@dataclass
class Tally:
    """Operations attempted and failed; a failed output check counts as one failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def import_quidlab() -> dict:
    """Import quidlab afresh (its modules only; numpy and the stdlib stay loaded)."""
    for name in [m for m in sys.modules if m == "quidlab" or m.startswith("quidlab.")]:
        del sys.modules[name]
    importlib.import_module("quidlab")
    importlib.import_module("quidlab.cli")
    return {name: sys.modules[f"quidlab.{name}"] for name in MODULES}


def poison_count(n: int, epsilon: float) -> int:
    """round(epsilon * n), halves rounded up, as the attacks document."""
    return int(math.floor(epsilon * n + 0.5))


def _check_poison(tally, what, before, outcome, epsilon, features_change):
    """Exactly round(eps*n) rows poisoned; every other row bit-identical."""
    n = len(before)
    idx = outcome.poisoned_indices
    tally.op(idx.size == poison_count(n, epsilon), f"{what}: {idx.size} rows poisoned of {n}")
    clean = np.ones(n, dtype=bool)
    clean[idx] = False
    after = outcome.dataset
    same = (
        np.array_equal(after.labels[clean], before.labels[clean])
        and after.features[clean].tobytes() == before.features[clean].tobytes()
        and (features_change or after.features.tobytes() == before.features.tobytes())
    )
    tally.op(same, f"{what}: clean rows changed")


def _file_digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# attack-cell: the acceptance attack cell at p=0 and p=0.05

class AttackCell:
    name = "attack-cell"
    phases = ("cell_clean_s", "cell_noisy_s")
    ops_per_iteration = 10

    def setup(self, seed, size, workdir, tracer=None):
        q = import_quidlab()
        if tracer is not None:
            tracer.install(q)
        ds = q["data"].synth_clusters(4, 8, size["attack_per_class"], spread=0.25, seed=seed)
        ds = ds.replace(features=q["encode"].scale_features(ds.features))
        train_set, test_set = q["data"].split(ds, 0.7, stratified=True, seed=seed)
        return SimpleNamespace(
            q=q,
            seed=seed,
            epochs=size["attack_epochs"],
            train=train_set,
            test=test_set,
            encoder=q["encode"].EncoderConfig("angle", 4, 2),
            template=q["pqc"].build_template("pqc1", 4, 1),
            noises=(None, q["noise"].NoiseModel.from_error_rate(NOISE_P)),
        )

    def iteration(self, ctx):
        q = ctx.q
        qnn, poison = q["qnn"], q["poison"]
        times, cells = [], []
        for noise in ctx.noises:
            config = qnn.TrainConfig(
                epochs=ctx.epochs, learning_rate=LEARNING_RATE, batch_size=BATCH,
                seed=ctx.seed, noise=noise,
            )
            spec = poison.PoisonSpec(EPSILON, "quid", "frobenius", seed=ctx.seed, noise=noise)
            start = time.perf_counter()
            base = qnn.train(self._model(ctx), ctx.train, ctx.test, config)
            outcome = poison.quid_poison(ctx.train, spec, ctx.encoder)
            attacked = qnn.train(self._model(ctx), outcome.dataset, ctx.test, config)
            base_eval = qnn.evaluate(base.model, ctx.test, noise)
            quid_eval = qnn.evaluate(attacked.model, ctx.test, noise)
            times.append(time.perf_counter() - start)
            cells.append((noise, base, outcome, attacked, base_eval, quid_eval))
        return times, cells

    @staticmethod
    def _model(ctx):
        return ctx.q["qnn"].init_model(ctx.encoder, ctx.template, 4, seed=ctx.seed)

    def check(self, ctx, cells, tally, rng, memo):
        q = ctx.q
        drops = []
        for noise, base, outcome, attacked, base_eval, quid_eval in cells:
            tag = f"p={noise.default[0][1] if noise else 0.0}"
            rows = rng.choice(len(ctx.test), size=4, replace=False)
            states = q["encode"].encode_batch(ctx.test.features[rows], ctx.encoder, noise)
            outs = q["pqc"].apply_pqc_stack(states, ctx.template, attacked.model.theta, noise)
            for label, stack in (("encoder", states), ("pqc", outs)):
                try:
                    for rho in stack:
                        q["simcore"].DensityMatrix(4, rho).validate()
                    ok = True
                except ValueError:
                    ok = False
                tally.op(ok, f"{tag}: {label} output state invalid")
            _check_poison(tally, f"{tag} quid", ctx.train, outcome, EPSILON, False)
            losses = base.train_loss + base.test_loss + attacked.train_loss + attacked.test_loss
            losses += [base_eval[1], quid_eval[1]]
            tally.op(all(math.isfinite(v) for v in losses), f"{tag}: non-finite loss")
            drops.append(base_eval[0] - quid_eval[0])
        tally.op(
            float(np.mean(drops)) >= QUID_MARGIN,
            f"quid@{EPSILON} accuracy drops {drops} average below {QUID_MARGIN}",
        )


# ---------------------------------------------------------------------------
# cli-sweep: `quidlab experiment` then `quidlab defend`, in-process

class CliSweep:
    name = "cli-sweep"
    phases = ("experiment_s", "defend_s")
    ops_per_iteration = 0  # check counts both exit codes and every sweep cell
    cells = 8  # 2 epsilons x 4 modes

    def setup(self, seed, size, workdir, tracer=None):
        q = import_quidlab()
        if tracer is not None:
            tracer.install(q)
        ds = q["data"].synth_clusters(4, 8, size["cli_per_class"], spread=0.25, seed=seed)
        data = os.path.join(workdir, "data.csv")
        q["data"].save_csv(ds, data)
        common = ["--data", data, "--seed", str(seed), "--pqc", "pqc6",
                  "--noise", str(NOISE_P), "--epochs", str(size["cli_epochs"]),
                  "--lr", str(LEARNING_RATE), "--batch", str(BATCH)]
        exp_out = os.path.join(workdir, "experiment")
        def_out = os.path.join(workdir, "defend")
        return SimpleNamespace(
            q=q,
            exp_out=exp_out,
            def_out=def_out,
            experiment=["experiment", "--out", exp_out, "--epsilon", "0,0.5",
                        "--modes", "none,random_flip,quid,bilevel_random",
                        "--workers", "2", *common],
            defend=["defend", "--out", def_out, "--k", "3", *common],
        )

    def iteration(self, ctx):
        for out in (ctx.exp_out, ctx.def_out):
            shutil.rmtree(out, ignore_errors=True)
        main = ctx.q["cli"].main
        with redirect_stdout(StringIO()):
            start = time.perf_counter()
            rc_exp = main(ctx.experiment)
            mid = time.perf_counter()
            rc_def = main(ctx.defend)
            end = time.perf_counter()
        return [mid - start, end - mid], (rc_exp, rc_def)

    def check(self, ctx, codes, tally, rng, memo):
        rc_exp, rc_def = codes
        tally.op(rc_exp == 0, f"experiment exited {rc_exp}")
        tally.op(rc_def == 0, f"defend exited {rc_def}")
        results = os.path.join(ctx.exp_out, "results.csv")
        rows = []
        if os.path.exists(results):
            with open(results, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        for row in rows:
            tally.op(row["status"] == "ok", f"cell eps={row['epsilon']} mode={row['mode']} failed")
        tally.op(len(rows) == self.cells, f"results.csv holds {len(rows)} cells, not {self.cells}")
        manifest = os.path.join(ctx.exp_out, "manifest.json")
        errors = True
        if os.path.exists(manifest):
            with open(manifest, encoding="utf-8") as fh:
                errors = bool(json.load(fh).get("cell_errors"))
        tally.op(not errors, "experiment manifest lists cell_errors or is missing")
        defense = os.path.join(ctx.def_out, "defense.csv")
        defense_ok = False
        if os.path.exists(defense):
            with open(defense, newline="", encoding="utf-8") as fh:
                drows = list(csv.DictReader(fh))
            defense_ok = len(drows) == 1 and all(
                math.isfinite(float(v)) for r in drows for v in r.values()
            )
        tally.op(defense_ok, "defense.csv is missing, short or non-finite")
        digests = (_file_digest(results), _file_digest(defense))
        if "digests" not in memo:
            memo["digests"] = digests
        else:
            tally.op(digests == memo["digests"], "results.csv/defense.csv differ from the first iteration")


# ---------------------------------------------------------------------------
# ess-scan: 6-qubit attacks and ESS validation, no PQC

class EssScan:
    name = "ess-scan"
    phases = ("attack_s", "validate_s")  # scan_s is their sum
    ops_per_iteration = 4

    def setup(self, seed, size, workdir, tracer=None):
        q = import_quidlab()
        if tracer is not None:
            tracer.install(q)
        ds = q["data"].synth_clusters(4, 12, size["ess_per_class"], spread=0.25, seed=seed)
        ds = ds.replace(features=q["encode"].scale_features(ds.features))
        return SimpleNamespace(
            q=q,
            seed=seed,
            data=ds,
            angle=q["encode"].EncoderConfig("angle", 6, 2),
            amplitude=q["encode"].EncoderConfig("amplitude", 6),
            noise=q["noise"].NoiseModel.from_error_rate(NOISE_P),
        )

    def iteration(self, ctx):
        poison, ess = ctx.q["poison"], ctx.q["ess"]
        quid_spec = poison.PoisonSpec(EPSILON, "quid", "frobenius", seed=ctx.seed, noise=ctx.noise)
        bilevel_spec = poison.PoisonSpec(
            EPSILON, "bilevel_random", "hilbert_schmidt", seed=ctx.seed, noise=ctx.noise
        )
        start = time.perf_counter()
        quid = poison.quid_poison(ctx.data, quid_spec, ctx.angle)
        bilevel = poison.bilevel_random(ctx.data, bilevel_spec, ctx.angle)
        mid = time.perf_counter()
        fro = ess.validate_ess(ctx.data, ctx.angle, "frobenius", model=ctx.noise, seed=ctx.seed)
        tra = ess.validate_ess(ctx.data, ctx.amplitude, "trace", model=ctx.noise, seed=ctx.seed)
        end = time.perf_counter()
        return [mid - start, end - mid], (quid, bilevel, fro, tra)

    def check(self, ctx, results, tally, rng, memo):
        quid, bilevel, fro, tra = results
        q = ctx.q
        _check_poison(tally, "quid", ctx.data, quid, EPSILON, False)
        _check_poison(tally, "bilevel", ctx.data, bilevel, EPSILON, True)
        for report in (fro, tra):
            tally.op(
                0.0 <= report.accuracy <= 1.0,
                f"validate_ess {report.metric} accuracy {report.accuracy}",
            )
        # per-pair oracle: ess.distance on each (poisoned row, clean row) pair
        poisoned = quid.poisoned_indices
        clean = np.setdiff1d(np.arange(len(ctx.data)), poisoned)
        sample = rng.choice(poisoned.size, size=min(ORACLE_ROWS, poisoned.size), replace=False)
        encode, dm = q["encode"].encode_batch, q["simcore"].DensityMatrix
        clean_states = [dm(6, s) for s in encode(ctx.data.features[clean], ctx.angle, ctx.noise)]
        clean_labels = ctx.data.labels[clean]
        queries = encode(ctx.data.features[poisoned[sample]], ctx.angle, ctx.noise)
        for k, rho in zip(sample, queries):
            rho = dm(6, rho)
            best, best_mean = None, -1.0
            for c in np.unique(clean_labels):
                members = [s for s, label in zip(clean_states, clean_labels) if label == c]
                mean = sum(q["ess"].distance(rho, s, "frobenius") for s in members) / len(members)
                if mean > best_mean:  # strict: ties stay with the smaller class id
                    best, best_mean = int(c), mean
            row = int(poisoned[k])
            tally.op(
                best == int(quid.new_labels[k]),
                f"row {row}: quid label {int(quid.new_labels[k])} != distance oracle {best}",
            )


WORKLOADS = {w.name: w for w in (AttackCell(), CliSweep(), EssScan())}
