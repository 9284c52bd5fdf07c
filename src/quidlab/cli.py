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
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .data import DEFAULT_RANGE, LabeledDataset, load_csv, read_json, save_csv, split
from .data import synth_clusters, write_json, write_table
from .defense import DefenseConfig, evaluate_ensemble, train_ensemble
from .encode import EncoderConfig, scale_features
from .errors import CapacityError, DataFormatError, DegenerateInputError, QuidlabError
from .ess import METRICS, _validate_metrics, canonical_metric, compare_encodings
from .noise import NoiseModel, load_noise_model
from .pqc import PRESETS, build_template
from .poison import MODES, PoisonSpec, apply_poison, write_outcome_csv
from .qnn import QnnModel, TrainConfig, evaluate, init_model, load_model, save_model, train
from .simcore import finite, whole

# Not called here; perfbench/spans.py installs its timing wrapper on this
# attribute of quidlab.cli, so it stays importable from this module.
from .ess import validate_ess  # noqa: F401


class UsageError(QuidlabError):
    pass


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


# ---------------------------------------------------------------------------
# the option table: every flag and config key, its converter, default and help

def _number(kind: type, low=None, high=None):
    """A flag's text through int() or float(), then every value through whole or finite,
    which also hold it to [low, high]."""
    check = whole if kind is int else finite
    return lambda value: check(kind(value) if isinstance(value, str) else value, "value",
                               low, high)


def _fraction(value) -> float:
    out = _FLOAT(value)
    if not 0.0 < out < 1.0:
        raise ValueError(f"value must be in (0, 1), got {out}")
    return out


def _instance(kind: type, what: str):
    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}, got {value!r}")
        return value
    return convert


def _one_of(choices: tuple[str, ...]):
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {'|'.join(choices)}, got {value!r}")
        return value
    return convert


def _items(convert):
    """A comma string or a JSON list (a lone JSON value is one item), converted item by item."""
    def convert_all(value):
        if isinstance(value, str):
            value = [v for v in value.split(",") if v != ""]
        elif not isinstance(value, list):
            value = [value]
        if not value:
            raise ValueError("needs at least one value")
        return [convert(v) for v in value]
    return convert_all


_INT, _FLOAT, _COUNT = _number(int), _number(float), _number(int, 0)
_TEXT, _BOOL = _instance(str, "a string"), _instance(bool, "true or false")
_ENCODERS = ("angle", "amplitude")
_CELL_MODES = ("none", *MODES)

# key -> (converter, default, help). The flag is --key with "_" written "-", and a
# --config file may set any key. Ranges that a config class checks stay in that class.
OPTIONS = {
    "seed": (_COUNT, 0, "seed of every random draw"),
    "out": (_TEXT, None, "output directory"),
    "data": (_TEXT, None, "dataset CSV (features...,label); synthetic clusters if absent"),
    "has_header": (_BOOL, False, "CSV files start with a header row"),
    "classes": (_INT, 4, "synthetic: class count"),
    "dim": (_INT, 8, "synthetic: feature dim"),
    "per_class": (_INT, 250, "synthetic: per-class samples"),
    "spread": (_FLOAT, 0.25, "synthetic: cluster std-dev"),
    "qubits": (_INT, 4, "register size"),
    "encoder": (_one_of(_ENCODERS), "angle", "|".join(_ENCODERS)),
    "features_per_qubit": (_INT, None, "angle: features per qubit (default: cover every feature)"),
    "noise": (_FLOAT, None, "per-gate error rate p"),
    "noise_model": (_TEXT, None, "noise model JSON file"),
    "pqc": (_one_of(PRESETS), "pqc1", "|".join(PRESETS)),
    "layers": (_INT, 1, "template layers"),
    "epochs": (_INT, 30, "training epochs"),
    "lr": (_FLOAT, 0.01, "learning rate"),
    "batch": (_INT, 32, "minibatch size"),
    "shots": (_COUNT, 0, "measurement shots (0: exact expectations)"),
    "train_fraction": (_FLOAT, 0.7, "training share of the stratified split"),
    "test": (_TEXT, None, "separate test CSV (else split --data)"),
    "model": (_TEXT, None, "checkpoint JSON"),
    "metric": (lambda v: canonical_metric(_TEXT(v)), "frobenius", "|".join(METRICS) + " (or hs)"),
    "holdout": (_fraction, 0.5, "held-out share"),
    "noise_levels": (_items(_FLOAT), (0.0, 0.05, 0.1), "comma list of error rates"),
    "mode": (_one_of(MODES), "quid", "|".join(MODES)),
    "epsilon": (_items(_number(float, 0, 1)), (0.0,), "comma list of poison ratios"),
    "modes": (_items(_one_of(_CELL_MODES)), ("none", "random_flip", "quid"),
              "comma list from " + ",".join(_CELL_MODES)),
    "workers": (_number(int, 1), 1, "worker processes"),
    "emit_plot_data": (_BOOL, False, "also write each cell's training curves"),
    "k": (_INT, 3, "ensemble members"),
}

# config-class fields named differently from the option that sets them
_FIELD_KEYS = {
    "n_qubits": "qubits", "learning_rate": "lr", "batch_size": "batch", "n_classes": "classes",
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _configured(make, *args, flag=None, **kwargs):
    """make(*args, **kwargs); a range error becomes a usage error naming the flag.

    The flag defaults to the one setting the field that the range message starts with.
    """
    try:
        return make(*args, **kwargs)
    except (ValueError, CapacityError) as exc:
        field = str(exc).split(" ", 1)[0]
        key = _FIELD_KEYS.get(field, field)
        flag = flag or (_flag(key) if key in OPTIONS else None)
        raise UsageError(f"{flag}: {exc}" if flag else str(exc)) from None


def _write_curves(path, curves) -> None:
    """One row per epoch of (train_loss, test_loss, test_accuracy) triples."""
    write_table(path, ["epoch", "train_loss", "test_loss", "test_accuracy"],
                ([i, *c] for i, c in enumerate(curves, start=1)))


# ---------------------------------------------------------------------------
# option plumbing

class _Options:
    """Flag -> config-file -> table-default resolution; flag and file values are converted."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.started = time.time()
        self.file: dict = {}
        if args.config:
            self.file = read_json(args.config)
        unknown = sorted(set(self.file) - set(OPTIONS))
        if unknown:
            raise UsageError(f"--config: unknown key {', '.join(map(repr, unknown))}")

    def get(self, name: str, *default):
        """The converted flag or config value, else default if given, else the table's."""
        convert, table_default, _help = OPTIONS[name]
        value = getattr(self.args, name, None)
        if value is None:
            value = self.file.get(name)
        if value is None:
            return default[0] if default else table_default
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{_flag(name)}: {exc}") from None

    def outdir(self, required: bool = True) -> str | None:
        out = self.get("out")
        if out is None:
            if required:
                raise UsageError("--out is required")
            return None
        os.makedirs(out, exist_ok=True)
        return out

    def noise_model(self) -> NoiseModel | None:
        p = self.get("noise")
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
            ds = load_csv(path, has_header=self.get("has_header"))
            return ds, os.path.basename(path)
        ds = self.synth()
        return ds, f"synth-c{ds.n_classes}-d{ds.dim}-s{self.get('seed')}"

    def synth(self) -> LabeledDataset:
        return _configured(
            synth_clusters,
            self.get("classes"),
            self.get("dim"),
            self.get("per_class"),
            self.get("spread"),
            seed=self.get("seed"),
        )

    def encoder_for(self, dim: int, kind: str | None = None) -> EncoderConfig:
        """The --encoder encoder (or the given kind); angle blocks cover dim features by default.

        An encoder too small for dim features is a usage error naming the flag that sized it.
        """
        kind = kind or self.get("encoder")
        cfg = _configured(EncoderConfig, kind, self.get("qubits"))
        if kind == "angle":
            fpq = self.get("features_per_qubit")
            if fpq is None:
                fpq = max(1, math.ceil(dim / cfg.n_qubits))
            cfg = _configured(replace, cfg, features_per_qubit=fpq)
        if dim > cfg.capacity():
            flag = "--features-per-qubit" if kind == "angle" else "--qubits"
            raise UsageError(f"{flag}: {dim} features exceed the {kind} encoder's "
                             f"capacity of {cfg.capacity()} at {cfg.n_qubits} qubits")
        return cfg

    def scaled_dataset(self) -> tuple[LabeledDataset, LabeledDataset, EncoderConfig, str]:
        """(raw dataset, dataset scaled into the encoder range, encoder, dataset tag)."""
        raw, tag = self.dataset()
        cfg = self.encoder_for(raw.dim)
        return raw, _scaled(raw, cfg), cfg, tag

    def train_test(self, ds: LabeledDataset) -> tuple[LabeledDataset, LabeledDataset]:
        """The stratified --train-fraction split, seeded by --seed; an empty side is a usage
        error naming the flag."""
        return _configured(split, ds, self.get("train_fraction"), stratified=True,
                           seed=self.get("seed"), flag="--train-fraction")

    def holdout(self, ds: LabeledDataset) -> float:
        """--holdout, checked to leave both sides of the ESS split it makes of ds non-empty."""
        fraction = self.get("holdout")
        _configured(split, ds, 1.0 - fraction, seed=self.get("seed"), flag="--holdout")
        return fraction

    def train_config(self, seed: int, noise: NoiseModel | None) -> TrainConfig:
        return _configured(
            TrainConfig,
            epochs=self.get("epochs"),
            learning_rate=self.get("lr"),
            batch_size=self.get("batch"),
            seed=seed,
            noise=noise,
            shots=self.get("shots"),
        )

    def resolved(self) -> dict:
        """The config file's keys with the given flags on top: itself a valid --config file."""
        merged = dict(self.file)
        merged.update((k, v) for k, v in vars(self.args).items() if k in OPTIONS and v is not None)
        return merged


def _manifest(out: str, options: _Options, extra: dict | None = None) -> None:
    resolved = options.resolved()
    blob = json.dumps(resolved, sort_keys=True, default=str).encode()
    payload = {
        "config": resolved,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "command": options.args.command,
        "seed": options.get("seed"),
        "versions": {
            "quidlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "started_unix": options.started,
        "wall_seconds": time.time() - options.started,
    }
    if extra:
        payload.update(extra)
    write_json(os.path.join(out, "manifest.json"), payload)


def _scaled(ds: LabeledDataset, cfg: EncoderConfig) -> LabeledDataset:
    return ds.replace(features=scale_features(ds.features, cfg.scale_range))


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(options: _Options) -> int:
    out_path = options.get("out")
    if out_path is None:
        raise UsageError("--out is required (CSV file path)")
    ds = options.synth()
    save_csv(ds, out_path)
    write_json(
        out_path + ".provenance.json",
        {
            "note": ds.note,
            "n_samples": len(ds),
            "dim": ds.dim,
            "n_classes": ds.n_classes,
            "seed": options.get("seed"),
            "value_range": list(DEFAULT_RANGE),
        },
    )
    print(f"wrote {len(ds)} samples to {out_path}")
    return 0


def cmd_ess_validate(options: _Options) -> int:
    out = options.outdir()
    _raw, ds, cfg, _tag = options.scaled_dataset()
    model = options.noise_model()
    metric = options.get("metric", None)
    metrics = [metric] if metric else list(METRICS)
    holdout = options.holdout(ds)
    rows, class_rows, summary = [], [], {}
    for metric, report in zip(metrics, _validate_metrics(
            ds, cfg, metrics, model, holdout, options.get("seed"))):
        rows.append([metric, report.accuracy, report.wall_seconds])
        class_rows.extend(report.class_rows())
        summary[metric] = report.to_json()
        print(f"{metric}: accuracy={report.accuracy:.4f} time={report.wall_seconds:.3f}s")
    write_table(os.path.join(out, "report.csv"), ["metric", "accuracy", "time_s"], rows)
    write_table(os.path.join(out, "class_stats.csv"),
                ["metric", "class", "intra_mean", "inter_mean"], class_rows)
    write_json(os.path.join(out, "summary.json"), summary)
    _manifest(out, options)
    return 0


def cmd_encode_compare(options: _Options) -> int:
    out = options.outdir()
    ds, _tag = options.dataset()
    cfgs = [options.encoder_for(ds.dim, "angle"), options.encoder_for(ds.dim, "amplitude")]
    ds = _scaled(ds, cfgs[0])
    metric = options.get("metric")
    levels = options.get("noise_levels")
    for p in levels:  # every level is checked before the first cell runs
        _configured(NoiseModel.from_error_rate, p, flag="--noise-levels")
    cells = compare_encodings(
        ds, cfgs, metric, levels, holdout_fraction=options.holdout(ds), seed=options.get("seed"),
    )
    write_table(
        os.path.join(out, "encoding_comparison.csv"),
        ["encoder", "noise_p", "accuracy"],
        [[c.encoder, c.noise_p, c.accuracy] for c in cells],
    )
    for c in cells:
        print(f"{c.encoder} p={c.noise_p}: accuracy={c.accuracy:.4f}")
    _manifest(out, options)
    return 0


def cmd_poison(options: _Options) -> int:
    out = options.outdir()
    eps = options.get("epsilon")
    if len(eps) != 1:
        raise UsageError("poison takes exactly one --epsilon value")
    mode = options.get("mode")
    ds, scaled, cfg, _tag = options.scaled_dataset()
    spec = PoisonSpec(
        epsilon=eps[0],
        mode=mode,
        metric=options.get("metric"),
        seed=options.get("seed"),
        noise=options.noise_model(),
    )
    outcome = apply_poison(scaled, spec, cfg)
    # labels (and, for bilevel, the drawn features) land on the raw dataset,
    # so an epsilon=0 run writes a byte-identical copy of the input
    written = ds.replace(labels=outcome.dataset.labels.copy())
    if mode == "bilevel_random":  # drawn in encoder units: invert scale_features' halved map
        idx, (lo, hi) = outcome.poisoned_indices, cfg.scale_range
        mins, maxs = ds.features.min(axis=0) / 2.0, ds.features.max(axis=0) / 2.0
        share = (outcome.dataset.features[idx] - lo) / (hi - lo)
        written.features[idx] = 2.0 * np.clip(mins + share * (maxs - mins), mins, maxs)
    save_csv(written, os.path.join(out, "poisoned.csv"))
    write_outcome_csv(outcome, os.path.join(out, "outcome.csv"))
    print(
        f"poisoned {outcome.poisoned_indices.size}/{len(ds)} samples "
        f"({outcome.flip_count()} labels changed)"
    )
    _manifest(out, options)
    return 0


def _build_model(options: _Options, cfg: EncoderConfig, ds: LabeledDataset, seed: int) -> QnnModel:
    template = _configured(build_template, options.get("pqc"), cfg.n_qubits, options.get("layers"))
    return init_model(cfg, template, ds.n_classes, seed=seed, n_features=ds.dim)


def cmd_train(options: _Options) -> int:
    out = options.outdir()
    _raw, ds, cfg, _tag = options.scaled_dataset()
    test_path = options.get("test")
    seed = options.get("seed")
    if test_path is not None:
        train_set = ds
        test_set = load_csv(test_path, has_header=options.get("has_header"))
        if test_set.dim != ds.dim or test_set.n_classes > ds.n_classes:
            raise DataFormatError(f"{test_path}: {test_set.dim} features and {test_set.n_classes} "
                                  f"classes do not fit --data's {ds.dim} and {ds.n_classes}")
        test_set = _scaled(test_set, cfg)
    else:
        train_set, test_set = options.train_test(ds)
    model = _build_model(options, cfg, ds, seed)
    noise = options.noise_model()
    report = train(model, train_set, test_set, options.train_config(seed, noise))
    save_model(report.model, os.path.join(out, "model.json"), seed=seed)
    _write_curves(os.path.join(out, "curves.csv"),
                  zip(report.train_loss, report.test_loss, report.test_accuracy))
    final_acc = report.test_accuracy[-1] if report.test_accuracy else float("nan")
    print(f"final test accuracy: {final_acc:.4f}")
    _manifest(out, options, {"wall_seconds_train": report.wall_seconds})
    return 0


def cmd_evaluate(options: _Options) -> int:
    model_path = options.get("model")
    if model_path is None:
        raise UsageError("--model is required")
    shots, seed = options.get("shots"), options.get("seed")
    out = options.outdir(required=False)
    model = load_model(model_path)
    ds, tag = options.dataset()
    if ds.n_classes > model.n_classes:
        raise DataFormatError(f"{options.get('data') or tag}: label {ds.n_classes - 1} is "
                              f"outside the checkpoint's {model.n_classes} classes")
    if ds.dim > model.encoder.capacity():
        raise DataFormatError(f"{options.get('data') or tag}: {ds.dim} features exceed the "
                              f"checkpoint encoder's capacity of {model.encoder.capacity()}")
    if model.n_features is not None and ds.dim != model.n_features:
        raise DataFormatError(f"{options.get('data') or tag}: {ds.dim} features, but "
                              f"{model_path} was trained on {model.n_features}")
    ds = _scaled(ds, model.encoder)
    acc, loss = evaluate(model, ds, noise=options.noise_model(), shots=shots, seed=seed)
    print(f"accuracy={acc:.4f} loss={loss:.4f}")
    if out:
        write_json(os.path.join(out, "eval.json"), {"accuracy": acc, "loss": loss})
        _manifest(out, options)
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


def cmd_experiment(options: _Options) -> int:
    out = options.outdir()
    workers, emit_plot_data = options.get("workers"), options.get("emit_plot_data")
    _raw, ds, cfg, tag = options.scaled_dataset()
    seed = options.get("seed")
    train_set, test_set = options.train_test(ds)
    modes = options.get("modes")
    eps_list = options.get("epsilon")
    pqc_name = options.get("pqc")
    metric = options.get("metric")
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
                "model": _build_model(options, cfg, ds, train_seed),
                "config": options.train_config(train_seed, noise),
            }
        )

    workers = min(workers, len(payloads))  # a pool starts all its workers up front
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
    write_table(
        os.path.join(out, "results.csv"),
        ["dataset", "pqc", "epsilon", "mode", "test_accuracy", "test_loss", "status"],
        rows,
    )
    if emit_plot_data:
        for (eps, mode), r in cells:
            if r["status"] != "ok":
                continue
            _write_curves(os.path.join(out, f"curves_eps{eps}_{mode}.csv"), r["curves"])
    extra = {"cell_errors": errors, "cell_tracebacks": tracebacks} if errors else None
    _manifest(out, options, extra)
    return 0


def cmd_defend(options: _Options) -> int:
    out = options.outdir()
    _raw, ds, cfg, tag = options.scaled_dataset()
    seed = options.get("seed")
    train_set, test_set = options.train_test(ds)
    metric = options.get("metric")
    noise = options.noise_model()
    defense = _configured(DefenseConfig, options.train_config(seed, noise), k=options.get("k"))
    if defense.k > len(train_set):  # checked before the first training starts
        raise UsageError(f"--k: k must be in [1, {len(train_set)}], got {defense.k}")
    rows = []
    for eps in options.get("epsilon", [0.3]):
        poison_seed = _derive_seed(seed, tag, eps, "poison")
        train_seed = _derive_seed(seed, tag, eps, "train")
        prototype = _build_model(options, cfg, ds, train_seed)
        spec = PoisonSpec(eps, "quid", metric, seed=poison_seed, noise=noise)
        poisoned = apply_poison(train_set, spec, cfg).dataset
        config = replace(defense.train, seed=train_seed)
        undefended = train(prototype.copy(), poisoned, test_set, config)
        no_def_acc = undefended.test_accuracy[-1] if undefended.test_accuracy else float("nan")
        ensemble, _reports = train_ensemble(
            poisoned, test_set, replace(defense, train=config, partition_seed=train_seed),
            prototype,
        )
        def_acc = evaluate_ensemble(ensemble, test_set, noise=noise, shots=config.shots,
                                    seed=_derive_seed(train_seed, "vote"))
        rows.append([eps, no_def_acc, def_acc])
        print(f"eps={eps}: no-defense={no_def_acc:.4f} defense(k={defense.k})={def_acc:.4f}")
    write_table(
        os.path.join(out, "defense.csv"),
        ["epsilon", "no_defense_accuracy", "defense_accuracy"],
        rows,
    )
    _manifest(out, options, {"k": defense.k})
    return 0


# ---------------------------------------------------------------------------

_SYNTH = ("seed", "out", "classes", "dim", "per_class", "spread")
_SOURCE = _SYNTH + ("data", "has_header")
_ENCODING = ("qubits", "encoder", "features_per_qubit")
_NOISE = ("noise", "noise_model")
_TRAINING = ("pqc", "layers", "epochs", "lr", "batch", "shots", "train_fraction")

# subcommand -> (handler, help, option keys)
COMMANDS = {
    "gen-data": (cmd_gen_data, "write a synthetic cluster dataset CSV", _SYNTH),
    "ess-validate": (cmd_ess_validate, "min-distance labeling accuracy per metric",
                     _SOURCE + _ENCODING + _NOISE + ("metric", "holdout")),
    "encode-compare": (cmd_encode_compare, "angle vs amplitude encoding under noise",
                       _SOURCE + ("qubits", "features_per_qubit", "metric", "noise_levels",
                                  "holdout")),
    "poison": (cmd_poison, "write a poisoned copy of a dataset",
               _SOURCE + _ENCODING + _NOISE + ("mode", "metric", "epsilon")),
    "train": (cmd_train, "train one model, write checkpoint + curves",
              _SOURCE + _ENCODING + _NOISE + _TRAINING + ("test",)),
    "evaluate": (cmd_evaluate, "accuracy/loss of a checkpoint on a dataset",
                 _SOURCE + _NOISE + ("model", "shots")),
    "experiment": (cmd_experiment, "poison-ratio sweep: poison, train, evaluate",
                   _SOURCE + _ENCODING + _NOISE + _TRAINING
                   + ("epsilon", "modes", "metric", "workers", "emit_plot_data")),
    "defend": (cmd_defend, "undefended vs partition-vote ensemble",
               _SOURCE + _ENCODING + _NOISE + _TRAINING + ("epsilon", "metric", "k")),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose errors are one stderr line, like every other usage error."""

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quidlab",
        description="Poisoning experiments on density-matrix quantum classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file setting any option key; flags win")
        for key in keys:
            convert, _default, help_text = OPTIONS[key]
            action = "store_true" if convert is _BOOL else "store"
            p.add_argument(_flag(key), action=action, default=None, help=help_text)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_Options(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, DegenerateInputError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (QuidlabError, ValueError, IndexError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 4
    except BrokenExecutor as exc:  # a pool worker died abruptly, as under the OOM killer
        print(f"error: a pool worker died: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
