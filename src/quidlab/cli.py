"""Experiment harness: seeded, file-driven runs that emit tidy CSV tables.

Subcommands: gen-data, ess-validate, encode-compare, poison, train, evaluate,
experiment, defend. Flags override keys of the optional JSON config file.
Result CSVs are byte-stable across reruns and worker-pool sizes; wall-clock
and timestamps live only in the run manifest.

Exit codes: 0 success, 2 usage error, 3 data error, 4 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .data import DEFAULT_RANGE, LabeledDataset, load_csv, read_json, save_csv, split
from .data import synth_clusters
from .defense import DefenseConfig, evaluate_ensemble, train_ensemble
from .encode import EncoderConfig, scale_features
from .errors import CapacityError, DataFormatError, DegenerateInputError, QuidlabError
from .ess import canonical_metric, compare_encodings, validate_ess, METRICS
from .noise import NoiseModel, load_noise_model
from .pqc import PRESETS, build_template
from .poison import MODES, PoisonSpec, apply_poison, write_outcome_csv
from .qnn import QnnModel, TrainConfig, evaluate, init_model, load_model, save_model, train


class UsageError(QuidlabError):
    pass


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


def _to_number(name: str, kind: type, value):
    """int(value) or float(value); anything else, NaN and inf included, is a usage error."""
    try:
        if isinstance(value, bool):
            raise TypeError("boolean")
        out = kind(value)
        if kind is float and not math.isfinite(out):
            raise ValueError("not finite")
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError("not integral")
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{name}: expected a finite {kind.__name__}, got {value!r}") from None
    return out


# the flag that sets each config field whose range its class checks
_FIELD_FLAGS = {
    "n_qubits": "--qubits", "features_per_qubit": "--features-per-qubit", "layers": "--layers",
    "epochs": "--epochs", "learning_rate": "--lr", "batch_size": "--batch", "shots": "--shots",
    "k": "--k",
}


def _configured(make, *args, flag=None, **kwargs):
    """make(*args, **kwargs); a range error becomes a usage error naming the flag.

    The flag defaults to the one setting the field that the range message starts with.
    """
    try:
        return make(*args, **kwargs)
    except (ValueError, CapacityError) as exc:
        flag = flag or _FIELD_FLAGS.get(str(exc).split(" ", 1)[0])
        raise UsageError(f"{flag}: {exc}" if flag else str(exc)) from None


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# option plumbing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")


def _add_data_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default=None, help="dataset CSV (features...,label)")
    p.add_argument("--has-header", action="store_true", default=None)
    p.add_argument("--classes", type=int, default=None, help="synthetic: class count")
    p.add_argument("--dim", type=int, default=None, help="synthetic: feature dim")
    p.add_argument("--per-class", type=int, default=None, help="synthetic: per-class samples")
    p.add_argument("--spread", type=float, default=None, help="synthetic: cluster std-dev")


def _add_encoder(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("--encoder", choices=["angle", "amplitude"], default=None)
    p.add_argument("--features-per-qubit", type=int, default=None)


def _add_noise(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise", type=float, default=None, help="per-gate error rate p")
    p.add_argument("--noise-model", default=None, help="noise model JSON file")


def _add_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pqc", choices=list(PRESETS), default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--train-fraction", type=float, default=None)


class _Options:
    """Flag -> config-file -> default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file: dict = {}
        if getattr(args, "config", None):
            self.file = read_json(args.config)

    def get(self, name: str, default=None):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.file:
            return self.file[name]
        return default

    def number(self, name: str, kind: type, default=None):
        """get() converted to int or float; a value that does not convert is a usage error."""
        value = self.get(name, default)
        return None if value is None else _to_number(name, kind, value)

    def fraction(self, name: str, default: float) -> float:
        """number() as a float that must lie strictly between 0 and 1."""
        value = self.number(name, float, default)
        if not 0.0 < value < 1.0:
            raise UsageError(f"--{name.replace('_', '-')}: must be in (0, 1), got {value}")
        return value

    def floats(self, name: str, default: str) -> list[float]:
        """A JSON list or comma-separated string of floats."""
        raw = self.get(name, default)
        if not isinstance(raw, (list, tuple)):
            raw = [v for v in str(raw).split(",") if v != ""]
        return [_to_number(name, float, v) for v in raw]

    def seed(self) -> int:
        return self.number("seed", int, 0)

    def outdir(self, required: bool = True) -> str | None:
        out = self.get("out")
        if out is None:
            if required:
                raise UsageError("--out is required")
            return None
        os.makedirs(out, exist_ok=True)
        return out

    def epsilons(self, default="0") -> list[float]:
        values = self.floats("epsilon", default)
        if not values:
            raise UsageError("--epsilon needs at least one value")
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise UsageError(f"epsilon {v} out of [0, 1]")
        return values

    def noise_model(self) -> NoiseModel | None:
        p = self.number("noise", float)
        path = self.get("noise_model")
        if p is not None and path is not None:
            raise UsageError("--noise and --noise-model are mutually exclusive")
        if path is not None:
            return load_noise_model(path)
        if p is not None:
            return _configured(NoiseModel.from_error_rate, p, flag="--noise")
        return None

    def dataset(self) -> tuple[LabeledDataset, str]:
        path = self.get("data")
        if path is not None:
            ds = load_csv(path, has_header=bool(self.get("has_header", False)))
            return ds, os.path.basename(path)
        ds = self.synth()
        return ds, f"synth-c{ds.n_classes}-d{ds.dim}-s{self.seed()}"

    def synth(self) -> LabeledDataset:
        return synth_clusters(
            self.number("classes", int, 4),
            self.number("dim", int, 8),
            self.number("per_class", int, 250),
            self.number("spread", float, 0.25),
            seed=self.seed(),
        )

    def encoder_for(self, dim: int, kind: str | None = None) -> EncoderConfig:
        """The --encoder encoder (or the given kind); angle blocks cover dim features by default."""
        if kind is None:
            kind = "amplitude" if self.get("encoder", "angle") == "amplitude" else "angle"
        cfg = _configured(EncoderConfig, kind, self.number("qubits", int, 4))
        if kind == "amplitude":
            return cfg
        fpq = self.number("features_per_qubit", int)
        if fpq is None:
            fpq = max(1, math.ceil(dim / cfg.n_qubits))
        return _configured(replace, cfg, features_per_qubit=fpq)

    def scaled_dataset(self) -> tuple[LabeledDataset, LabeledDataset, EncoderConfig, str]:
        """(raw dataset, dataset scaled into the encoder range, encoder, dataset tag)."""
        raw, tag = self.dataset()
        cfg = self.encoder_for(raw.dim)
        return raw, _scaled(raw, cfg), cfg, tag

    def train_test(self, ds: LabeledDataset) -> tuple[LabeledDataset, LabeledDataset]:
        """The stratified --train-fraction split, seeded by --seed."""
        return split(
            ds, self.fraction("train_fraction", 0.7), stratified=True, seed=self.seed()
        )

    def train_config(self, seed: int, noise: NoiseModel | None) -> TrainConfig:
        return _configured(
            TrainConfig,
            epochs=self.number("epochs", int, 30),
            learning_rate=self.number("lr", float, 0.01),
            batch_size=self.number("batch", int, 32),
            seed=seed,
            noise=noise,
            shots=self.number("shots", int, 0),
        )

    def resolved(self) -> dict:
        merged = dict(self.file)
        for key, value in vars(self.args).items():
            if key in ("func", "config") or value is None:
                continue
            merged[key] = value
        return merged


def _manifest(out: str, options: _Options, started: float, extra: dict | None = None) -> None:
    resolved = options.resolved()
    blob = json.dumps(resolved, sort_keys=True, default=str).encode()
    payload = {
        "config": resolved,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": options.seed(),
        "versions": {
            "quidlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "started_unix": started,
        "wall_seconds": time.time() - started,
    }
    if extra:
        payload.update(extra)
    _write_json(os.path.join(out, "manifest.json"), payload)


def _scaled(ds: LabeledDataset, cfg: EncoderConfig) -> LabeledDataset:
    return ds.replace(features=scale_features(ds.features, cfg.scale_range))


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    options = _Options(args)
    out_path = options.get("out")
    if out_path is None:
        raise UsageError("--out is required (CSV file path)")
    ds = options.synth()
    save_csv(ds, out_path)
    _write_json(
        out_path + ".provenance.json",
        {
            "note": ds.note,
            "n_samples": len(ds),
            "dim": ds.dim,
            "n_classes": ds.n_classes,
            "seed": options.seed(),
            "value_range": list(DEFAULT_RANGE),
        },
    )
    print(f"wrote {len(ds)} samples to {out_path}")
    return 0


def cmd_ess_validate(args) -> int:
    options = _Options(args)
    out = options.outdir()
    started = time.time()
    _raw, ds, cfg, _tag = options.scaled_dataset()
    model = options.noise_model()
    metric_opt = options.get("metric")
    metrics = [_configured(canonical_metric, metric_opt)] if metric_opt else list(METRICS)
    holdout = options.fraction("holdout", 0.5)
    rows, class_rows, summary = [], [], {}
    for metric in metrics:
        report = validate_ess(
            ds, cfg, metric, model=model, holdout_fraction=holdout, seed=options.seed()
        )
        rows.append([metric, report.accuracy, report.wall_seconds])
        class_rows.extend(report.class_rows())
        summary[metric] = report.to_json()
        print(f"{metric}: accuracy={report.accuracy:.4f} time={report.wall_seconds:.3f}s")
    _write_csv(os.path.join(out, "report.csv"), ["metric", "accuracy", "time_s"],
               [[m, a, t] for m, a, t in rows])
    _write_csv(
        os.path.join(out, "class_stats.csv"),
        ["metric", "class", "intra_mean", "inter_mean"],
        [list(r) for r in class_rows],
    )
    _write_json(os.path.join(out, "summary.json"), summary)
    _manifest(out, options, started)
    return 0


def cmd_encode_compare(args) -> int:
    options = _Options(args)
    out = options.outdir()
    started = time.time()
    ds, _tag = options.dataset()
    cfgs = [options.encoder_for(ds.dim, "angle"), options.encoder_for(ds.dim, "amplitude")]
    ds = _scaled(ds, cfgs[0])
    metric = _configured(canonical_metric, options.get("metric", "frobenius"))
    levels = options.floats("noise_levels", "0,0.05,0.1")
    for p in levels:  # every level is checked before the first cell runs
        _configured(NoiseModel.from_error_rate, p, flag="--noise-levels")
    cells = compare_encodings(
        ds, cfgs, metric, levels, holdout_fraction=options.fraction("holdout", 0.5),
        seed=options.seed(),
    )
    _write_csv(
        os.path.join(out, "encoding_comparison.csv"),
        ["encoder", "noise_p", "accuracy"],
        [[c.encoder, c.noise_p, c.accuracy] for c in cells],
    )
    for c in cells:
        print(f"{c.encoder} p={c.noise_p}: accuracy={c.accuracy:.4f}")
    _manifest(out, options, started)
    return 0


def cmd_poison(args) -> int:
    options = _Options(args)
    out = options.outdir()
    started = time.time()
    eps = options.epsilons()
    if len(eps) != 1:
        raise UsageError("poison takes exactly one --epsilon value")
    mode = options.get("mode", "quid")
    if mode not in MODES:
        raise UsageError(f"--mode must be one of {MODES}")
    ds, scaled, cfg, _tag = options.scaled_dataset()
    spec = PoisonSpec(
        epsilon=eps[0],
        mode=mode,
        metric=_configured(canonical_metric, options.get("metric", "frobenius")),
        seed=options.seed(),
        noise=options.noise_model(),
    )
    outcome = apply_poison(scaled, spec, cfg)
    # labels (and, for bilevel, the drawn features) land on the raw dataset,
    # so an epsilon=0 run writes a byte-identical copy of the input
    written = ds.replace(labels=outcome.dataset.labels.copy())
    if mode == "bilevel_random" and outcome.poisoned_indices.size:
        written.features[outcome.poisoned_indices] = outcome.dataset.features[
            outcome.poisoned_indices
        ]
    save_csv(written, os.path.join(out, "poisoned.csv"))
    write_outcome_csv(outcome, os.path.join(out, "outcome.csv"))
    print(
        f"poisoned {outcome.poisoned_indices.size}/{len(ds)} samples "
        f"({outcome.flip_count()} labels changed)"
    )
    _manifest(out, options, started)
    return 0


def _build_model(options: _Options, cfg: EncoderConfig, n_classes: int, seed: int) -> QnnModel:
    template = _configured(
        build_template, options.get("pqc", "pqc1"), cfg.n_qubits, options.number("layers", int, 1)
    )
    return init_model(cfg, template, n_classes, seed=seed)


def cmd_train(args) -> int:
    options = _Options(args)
    out = options.outdir()
    started = time.time()
    ds, _tag = options.dataset()
    test_path = options.get("test")
    seed = options.seed()
    if test_path is not None:
        train_set = ds
        test_set = load_csv(test_path, has_header=bool(options.get("has_header", False)))
    else:
        train_set, test_set = options.train_test(ds)
    cfg = options.encoder_for(ds.dim)
    model = _build_model(options, cfg, ds.n_classes, seed)
    train_set = _scaled(train_set, cfg)
    test_set = _scaled(test_set, cfg)
    noise = options.noise_model()
    report = train(model, train_set, test_set, options.train_config(seed, noise))
    save_model(report.model, os.path.join(out, "model.json"), seed=seed)
    _write_csv(
        os.path.join(out, "curves.csv"),
        ["epoch", "train_loss", "test_loss", "test_accuracy"],
        [
            [i + 1, tl, vl, va]
            for i, (tl, vl, va) in enumerate(
                zip(report.train_loss, report.test_loss, report.test_accuracy)
            )
        ],
    )
    final_acc = report.test_accuracy[-1] if report.test_accuracy else float("nan")
    print(f"final test accuracy: {final_acc:.4f}")
    _manifest(out, options, started, {"wall_seconds_train": report.wall_seconds})
    return 0


def cmd_evaluate(args) -> int:
    options = _Options(args)
    model_path = options.get("model")
    if model_path is None:
        raise UsageError("--model is required")
    shots = options.number("shots", int, 0)
    if shots < 0:
        raise UsageError(f"--shots: shots must be >= 0, got {shots}")
    model = load_model(model_path)
    ds, _tag = options.dataset()
    ds = _scaled(ds, model.encoder)
    acc, loss = evaluate(model, ds, noise=options.noise_model(), shots=shots, seed=options.seed())
    print(f"accuracy={acc:.4f} loss={loss:.4f}")
    out = options.outdir(required=False)
    if out:
        _write_json(os.path.join(out, "eval.json"), {"accuracy": acc, "loss": loss})
    return 0


def _run_experiment_cell(payload: dict) -> dict:
    """One sweep cell: poison (unless spec is None) -> train -> evaluate. Pool-safe."""
    try:
        train_set: LabeledDataset = payload["train_set"]
        model: QnnModel = payload["model"]
        spec: PoisonSpec | None = payload["spec"]
        if spec is not None:
            train_set = apply_poison(train_set, spec, model.encoder).dataset
        report = train(model, train_set, payload["test_set"], payload["config"])
        return {
            "status": "ok",
            "accuracy": report.test_accuracy[-1] if report.test_accuracy else float("nan"),
            "loss": report.test_loss[-1] if report.test_loss else float("nan"),
            "curves": list(
                zip(report.train_loss, report.test_loss, report.test_accuracy)
            ),
        }
    except Exception as exc:  # cell failures are recorded, the run continues
        return {"status": "failed", "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()}


def cmd_experiment(args) -> int:
    options = _Options(args)
    out = options.outdir()
    started = time.time()
    _raw, ds, cfg, tag = options.scaled_dataset()
    seed = options.seed()
    train_set, test_set = options.train_test(ds)
    modes_raw = options.get("modes", "none,random_flip,quid")
    modes = modes_raw if isinstance(modes_raw, list) else str(modes_raw).split(",")
    for mode in modes:
        if mode != "none" and mode not in MODES:
            raise UsageError(f"unknown attack mode {mode!r}")
    eps_list = options.epsilons()
    pqc_name = options.get("pqc", "pqc1")
    metric = _configured(canonical_metric, options.get("metric", "frobenius"))
    noise = options.noise_model()

    keys = [(eps, mode) for eps in eps_list for mode in modes]
    payloads = []
    for eps, mode in keys:
        poison_seed = _derive_seed(seed, tag, pqc_name, eps, mode, "poison")
        train_seed = _derive_seed(seed, tag, pqc_name, eps, mode, "train")
        spec = None if mode == "none" else PoisonSpec(eps, mode, metric, poison_seed, noise)
        payloads.append(
            {
                "train_set": train_set,
                "test_set": test_set,
                "spec": spec,
                "model": _build_model(options, cfg, ds.n_classes, train_seed),
                "config": options.train_config(train_seed, noise),
            }
        )

    workers = options.number("workers", int, 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_experiment_cell, payloads))
    else:
        results = [_run_experiment_cell(p) for p in payloads]

    cells = sorted(zip(keys, results), key=lambda cell: cell[0])
    rows, errors, tracebacks = [], {}, {}
    for (eps, mode), r in cells:
        if r["status"] == "ok":
            rows.append([tag, pqc_name, eps, mode, r["accuracy"], r["loss"], "ok"])
            print(f"eps={eps} mode={mode}: accuracy={r['accuracy']:.4f}")
        else:
            rows.append([tag, pqc_name, eps, mode, "", "", "failed"])
            errors[f"{eps}:{mode}"] = r["error"]
            tracebacks[f"{eps}:{mode}"] = r["traceback"]
            print(f"eps={eps} mode={mode}: FAILED ({r['error']})", file=sys.stderr)
    _write_csv(
        os.path.join(out, "results.csv"),
        ["dataset", "pqc", "epsilon", "mode", "test_accuracy", "test_loss", "status"],
        rows,
    )
    if options.get("emit_plot_data"):
        for (eps, mode), r in cells:
            if r["status"] != "ok":
                continue
            _write_csv(
                os.path.join(out, f"curves_eps{eps}_{mode}.csv"),
                ["epoch", "train_loss", "test_loss", "test_accuracy"],
                [[i + 1, *vals] for i, vals in enumerate(r["curves"])],
            )
    extra = {"cell_errors": errors, "cell_tracebacks": tracebacks} if errors else None
    _manifest(out, options, started, extra)
    return 0


def cmd_defend(args) -> int:
    options = _Options(args)
    out = options.outdir()
    started = time.time()
    _raw, ds, cfg, tag = options.scaled_dataset()
    seed = options.seed()
    train_set, test_set = options.train_test(ds)
    metric = _configured(canonical_metric, options.get("metric", "frobenius"))
    noise = options.noise_model()
    defense = _configured(
        DefenseConfig, options.train_config(seed, noise), k=options.number("k", int, 3)
    )
    rows = []
    for eps in options.epsilons(default="0.3"):
        poison_seed = _derive_seed(seed, tag, eps, "poison")
        train_seed = _derive_seed(seed, tag, eps, "train")
        prototype = _build_model(options, cfg, ds.n_classes, train_seed)
        if eps > 0:
            spec = PoisonSpec(eps, "quid", metric, seed=poison_seed, noise=noise)
            poisoned = apply_poison(train_set, spec, cfg).dataset
        else:
            poisoned = train_set
        config = replace(defense.train, seed=train_seed)
        undefended = train(prototype.copy(), poisoned, test_set, config)
        no_def_acc = undefended.test_accuracy[-1] if undefended.test_accuracy else float("nan")
        ensemble, _reports = train_ensemble(
            poisoned, test_set, replace(defense, train=config, partition_seed=train_seed),
            prototype,
        )
        def_acc = evaluate_ensemble(ensemble, test_set, noise=noise)
        rows.append([eps, no_def_acc, def_acc])
        print(f"eps={eps}: no-defense={no_def_acc:.4f} defense(k={defense.k})={def_acc:.4f}")
    _write_csv(
        os.path.join(out, "defense.csv"),
        ["epsilon", "no_defense_accuracy", "defense_accuracy"],
        rows,
    )
    _manifest(out, options, started, {"k": defense.k})
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quidlab",
        description="Poisoning experiments on density-matrix quantum classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic cluster dataset CSV")
    _add_common(p)
    _add_data_source(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("ess-validate", help="min-distance labeling accuracy per metric")
    _add_common(p)
    _add_data_source(p)
    _add_encoder(p)
    _add_noise(p)
    p.add_argument("--metric", default=None, help="frobenius|trace|hs (default: all)")
    p.add_argument("--holdout", type=float, default=None)
    p.set_defaults(func=cmd_ess_validate)

    p = sub.add_parser("encode-compare", help="angle vs amplitude encoding under noise")
    _add_common(p)
    _add_data_source(p)
    _add_encoder(p)
    p.add_argument("--metric", default=None)
    p.add_argument("--noise-levels", default=None, help="comma list of error rates")
    p.add_argument("--holdout", type=float, default=None)
    p.set_defaults(func=cmd_encode_compare)

    p = sub.add_parser("poison", help="write a poisoned copy of a dataset")
    _add_common(p)
    _add_data_source(p)
    _add_encoder(p)
    _add_noise(p)
    p.add_argument("--mode", choices=list(MODES), default=None)
    p.add_argument("--metric", default=None)
    p.add_argument("--epsilon", default=None)
    p.set_defaults(func=cmd_poison)

    p = sub.add_parser("train", help="train one model, write checkpoint + curves")
    _add_common(p)
    _add_data_source(p)
    _add_encoder(p)
    _add_noise(p)
    _add_training(p)
    p.add_argument("--test", default=None, help="separate test CSV (else split --data)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="accuracy/loss of a checkpoint on a dataset")
    _add_common(p)
    _add_data_source(p)
    _add_noise(p)
    p.add_argument("--model", default=None, help="checkpoint JSON")
    p.add_argument("--shots", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="poison-ratio sweep: poison, train, evaluate")
    _add_common(p)
    _add_data_source(p)
    _add_encoder(p)
    _add_noise(p)
    _add_training(p)
    p.add_argument("--epsilon", default=None, help="comma list of poison ratios")
    p.add_argument("--modes", default=None, help="comma list from none,random_flip,quid,bilevel_random")
    p.add_argument("--metric", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--emit-plot-data", action="store_true", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("defend", help="undefended vs partition-vote ensemble")
    _add_common(p)
    _add_data_source(p)
    _add_encoder(p)
    _add_noise(p)
    _add_training(p)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--metric", default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_defend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, DegenerateInputError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (QuidlabError, ValueError, IndexError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
