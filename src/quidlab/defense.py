"""Partition-aggregation defense: k disjoint partitions, one model each,
majority-vote inference. Limits how many ensemble members one poisoned
sample can influence.

Partitioning orders sample indices by a seeded hash and deals them
round-robin, so partitions are balanced, deterministic, and independent of
labels. Member i trains with seed base+i; with k=1 the single member sees
the whole training set at the base seed and reproduces undefended training
bit-for-bit.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import LabeledDataset, read_json, write_json
from .errors import DataFormatError
from .noise import NoiseModel
from .qnn import QnnModel, TrainConfig, TrainReport, load_model, save_model
from .qnn import _encode_sets, _fit, _forward_from_states  # shared encode/train/forward paths
from .encode import encode_batch

# Not called here; perfbench/spans.py installs its timing wrapper on this
# attribute of quidlab.defense, so it stays importable from this module.
from .qnn import train  # noqa: F401


@dataclass(frozen=True)
class DefenseConfig:
    train: TrainConfig
    k: int = 3
    partition_seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class EnsembleModel:
    members: list[QnnModel]
    assignment: np.ndarray = field(repr=False)  # sample index -> partition id

    @property
    def k(self) -> int:
        return len(self.members)


def _index_hash(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def partition(dataset: LabeledDataset, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint covering index sets, balanced to within one sample."""
    n = len(dataset)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    order = sorted(range(n), key=lambda i: (_index_hash(seed, i), i))
    return [np.sort(np.array(order[j::k], dtype=np.int64)) for j in range(k)]


def assignment_from_parts(parts: list[np.ndarray], n: int) -> np.ndarray:
    assignment = np.full(n, -1, dtype=np.int64)
    for j, part in enumerate(parts):
        assignment[part] = j
    if (assignment < 0).any():
        raise ValueError("partition does not cover every index")
    return assignment


def train_ensemble(
    train_set: LabeledDataset,
    test_set: LabeledDataset,
    cfg: DefenseConfig,
    prototype: QnnModel,
) -> tuple[EnsembleModel, list[TrainReport]]:
    """One model per partition with distinct derived seeds; each set is encoded once."""
    parts = partition(train_set, cfg.k, cfg.partition_seed)
    train_states, test_states = _encode_sets(prototype, train_set, test_set, cfg.train.noise)
    members: list[QnnModel] = []
    reports: list[TrainReport] = []
    for j, part in enumerate(parts):
        labels = train_set.labels[part]
        missing = train_set.n_classes - np.unique(labels).size
        if missing:
            warnings.warn(
                f"partition {j} is missing {missing} class(es); its model trains on what exists"
            )
        member_cfg = replace(cfg.train, seed=cfg.train.seed + j)
        report = _fit(prototype.copy(), train_states[part], labels, test_states,
                      test_set.labels, member_cfg)
        members.append(report.model)
        reports.append(report)
    return EnsembleModel(members, assignment_from_parts(parts, len(train_set))), reports


def member_predictions(
    ensemble: EnsembleModel,
    features: np.ndarray,
    noise: NoiseModel | None = None,
    shots: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """(k, n_samples) argmax predictions of every member, from one encoding of the features."""
    if not ensemble.members:
        raise ValueError("empty ensemble")
    encoder = ensemble.members[0].encoder
    if any(member.encoder != encoder for member in ensemble.members):
        raise ValueError("ensemble members use different encoders")
    states = encode_batch(np.atleast_2d(np.asarray(features, dtype=float)), encoder, noise)
    preds = []
    for j, member in enumerate(ensemble.members):
        rng = np.random.Generator(np.random.PCG64(seed + j))
        probs, _ = _forward_from_states(member, states, member.theta, noise, shots, rng)
        preds.append(np.argmax(probs, axis=1))
    return np.stack(preds)


def vote(
    ensemble: EnsembleModel,
    x: np.ndarray,
    noise: NoiseModel | None = None,
    shots: int = 0,
    seed: int = 0,
) -> int:
    """Plurality over member predictions; ties go to the smallest class index."""
    preds = member_predictions(ensemble, np.asarray(x, dtype=float).reshape(1, -1),
                               noise, shots, seed)[:, 0]
    return int(np.argmax(np.bincount(preds)))


def evaluate_ensemble(
    ensemble: EnsembleModel,
    dataset: LabeledDataset,
    noise: NoiseModel | None = None,
    shots: int = 0,
    seed: int = 0,
) -> float:
    """Majority-vote accuracy over a dataset."""
    preds = member_predictions(ensemble, dataset.features, noise, shots, seed)
    n_classes = max(int(preds.max()) + 1, dataset.n_classes)
    votes = np.apply_along_axis(
        lambda col: np.argmax(np.bincount(col, minlength=n_classes)), 0, preds
    )
    return float(np.mean(votes == dataset.labels))


def save_ensemble(ensemble: EnsembleModel, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    for j, member in enumerate(ensemble.members):
        save_model(member, os.path.join(directory, f"member_{j}.json"))
    write_json(os.path.join(directory, "partition_map.json"),
               {"k": ensemble.k, "assignment": ensemble.assignment.tolist()})


def load_ensemble(directory) -> EnsembleModel:
    """Read an ensemble directory; any malformed content raises DataFormatError."""
    path = os.path.join(directory, "partition_map.json")
    meta = read_json(path)
    try:
        k = int(meta["k"])
        assignment = np.array(meta["assignment"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed partition map ({exc!r})") from exc
    members = [load_model(os.path.join(directory, f"member_{j}.json")) for j in range(k)]
    for j, member in enumerate(members):
        if member.encoder != members[0].encoder:
            raise DataFormatError(f"{directory}/member_{j}.json: encoder differs from member_0's")
    return EnsembleModel(members, assignment)
