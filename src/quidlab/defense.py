"""Partition-aggregation defense: k disjoint partitions, one model each,
majority-vote inference. Limits how many ensemble members one poisoned
sample can influence.

Partitioning orders sample indices by a seeded hash and deals them
round-robin, so partitions are balanced, deterministic, and independent of
labels; partition refuses a k outside [1, rows]. Member i of train_ensemble
trains with seed base+i; with k=1 the single member sees the whole training
set at the base seed and reproduces undefended training bit-for-bit. Every
member shares the prototype's encoder and template, so both sets and the
vote's features are each encoded once, through qnn._encode.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledDataset
from .encode import _rows
from .noise import NoiseModel
from .qnn import QnnModel, TrainConfig, TrainReport
from .qnn import _encode, _fit, _forward_from_states, _one_row  # shared paths
from .simcore import whole

# Not called here; perfbench/spans.py installs its timing wrappers on these
# attributes of quidlab.defense, so they stay importable from this module.
from .encode import encode_batch  # noqa: F401
from .qnn import train  # noqa: F401


@dataclass
class EnsembleModel:
    members: list[QnnModel]

    @property
    def k(self) -> int:
        return len(self.members)


def _index_hash(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def partition(dataset: LabeledDataset, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint covering index sets, balanced to within one sample."""
    n = len(dataset)
    k, seed = whole(k, "k", 1, n), whole(seed, "seed")
    order = sorted(range(n), key=lambda i: (_index_hash(seed, i), i))
    return [np.sort(np.array(order[j::k], dtype=np.int64)) for j in range(k)]


def train_ensemble(
    train_set: LabeledDataset,
    test_set: LabeledDataset,
    config: TrainConfig,
    prototype: QnnModel,
    k: int,
    partition_seed: int,
) -> tuple[EnsembleModel, list[TrainReport]]:
    """One model per partition(train_set, k, partition_seed), member j trained under config
    at seed config.seed + j; each set is encoded once."""
    parts = partition(train_set, k, partition_seed)
    noise = config.noise
    (train_states, train_labels), (test_states, test_labels) = _encode(
        prototype, noise, (train_set.features, train_set.labels),
        (test_set.features, test_set.labels))
    members: list[QnnModel] = []
    reports: list[TrainReport] = []
    for j, part in enumerate(parts):
        labels = train_labels[part]
        missing = train_set.n_classes - np.unique(labels).size
        if missing:
            warnings.warn(
                f"partition {j} is missing {missing} class(es); its model trains on what exists"
            )
        member_config = replace(config, seed=config.seed + j)
        report = _fit(prototype.copy(), _rows(train_states, part), labels, test_states,
                      test_labels, member_config)
        members.append(report.model)
        reports.append(report)
    return EnsembleModel(members), reports


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
    if len({(m.encoder, m.template, m.n_features) for m in ensemble.members}) > 1:
        raise ValueError("ensemble members use different encoders, templates or feature counts")
    [(states, _)] = _encode(ensemble.members[0], noise, (features, None))
    preds = []
    for j, member in enumerate(ensemble.members):
        rng = np.random.Generator(np.random.PCG64(seed + j))
        probs, _ = _forward_from_states(member, states, member.theta, noise, shots, rng)
        preds.append(np.argmax(probs, axis=1))
    return np.stack(preds)


def _plurality(preds: np.ndarray) -> np.ndarray:
    """Each column's most frequent class in (k, n) member predictions; ties go to the smallest."""
    return np.argmax((preds[:, :, None] == np.arange(preds.max() + 1)).sum(axis=0), axis=1)


def vote(
    ensemble: EnsembleModel,
    x: np.ndarray,
    noise: NoiseModel | None = None,
    shots: int = 0,
    seed: int = 0,
) -> int:
    """Plurality over member predictions (_plurality) for one feature vector."""
    preds = member_predictions(ensemble, _one_row(x), noise, shots, seed)
    return int(_plurality(preds)[0])


def evaluate_ensemble(
    ensemble: EnsembleModel,
    dataset: LabeledDataset,
    noise: NoiseModel | None = None,
    shots: int = 0,
    seed: int = 0,
) -> float:
    """Majority-vote accuracy over a dataset."""
    preds = member_predictions(ensemble, dataset.features, noise, shots, seed)
    return float(np.mean(_plurality(preds) == dataset.labels))
