"""Dataset handling: CSV ingestion, synthetic clusters, deterministic splits.

The on-disk format is a plain CSV with d feature columns followed by one
integer label column; an optional single header line is allowed. Features are
stored raw; scaling into the encoder range happens at encode time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError

DEFAULT_RANGE = (0.0, 2.0 * math.pi)


@dataclass
class LabeledDataset:
    features: np.ndarray = field(repr=False)  # (n_samples, d) float64
    labels: np.ndarray = field(repr=False)  # (n_samples,) int64 in [0, n_classes)
    n_classes: int
    note: str = ""

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if self.features.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError(f"labels outside [0, {self.n_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            self.features[idx].copy(), self.labels[idx].copy(), self.n_classes, self.note
        )

    def replace(self, features=None, labels=None, note=None) -> "LabeledDataset":
        return LabeledDataset(
            self.features.copy() if features is None else features,
            self.labels.copy() if labels is None else labels,
            self.n_classes,
            self.note if note is None else note,
        )


def load_csv(path, has_header: bool = False) -> LabeledDataset:
    """Parse d real columns + 1 integer label column; C = max label + 1."""
    rows: list[list[float]] = []
    labels: list[int] = []
    dim = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            if has_header and lineno == 1:
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise DataFormatError(f"{path}:{lineno}: need >= 1 feature and a label")
            if dim is None:
                dim = len(cells) - 1
            elif len(cells) - 1 != dim:
                raise DataFormatError(
                    f"{path}:{lineno}: ragged row has {len(cells) - 1} features, expected {dim}"
                )
            try:
                feats = [float(c) for c in cells[:-1]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric feature ({exc})") from exc
            if not all(math.isfinite(v) for v in feats):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
            try:
                label = int(cells[-1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer label ({exc})") from exc
            if label < 0:
                raise DataFormatError(f"{path}:{lineno}: negative label {label}")
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return LabeledDataset(
        np.array(rows, dtype=np.float64),
        np.array(labels, dtype=np.int64),
        n_classes=max(labels) + 1,
        note=f"loaded from {path}",
    )


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write features (full-precision reprs, bit-exact on reload) + label column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for feats, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in feats))
            fh.write(f",{int(label)}\n")


def synth_clusters(
    n_classes: int,
    dim: int,
    per_class: int,
    spread: float = 0.25,
    seed: int = 0,
    value_range: tuple[float, float] = DEFAULT_RANGE,
    max_retries: int = 1000,
) -> LabeledDataset:
    """Gaussian blobs around class means drawn uniformly in the value range.

    Means are redrawn until every pair is at least range_width/(2C) apart
    (Euclidean); samples are clipped back into the range.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1 or dim < 1:
        raise ValueError("per_class and dim must be positive")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    lo, hi = value_range
    min_sep = (hi - lo) / (2.0 * n_classes)
    rng = np.random.Generator(np.random.PCG64(seed))
    means = None
    for _ in range(max_retries):
        cand = rng.uniform(lo, hi, size=(n_classes, dim))
        dists = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
        dists[np.diag_indices(n_classes)] = np.inf
        if dists.min() >= min_sep:
            means = cand
            break
    if means is None:
        raise ValueError(
            f"could not draw {n_classes} means {min_sep:.3g} apart in {max_retries} tries"
        )
    features = np.empty((n_classes * per_class, dim))
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    for c in range(n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = means[c] + spread * rng.standard_normal((per_class, dim))
        labels[block] = c
    np.clip(features, lo, hi, out=features)
    note = (
        f"synthetic clusters C={n_classes} d={dim} per_class={per_class} "
        f"spread={spread} seed={seed}"
    )
    return LabeledDataset(features, labels, n_classes, note)


def split(
    dataset: LabeledDataset,
    train_fraction: float,
    stratified: bool = True,
    seed: int = 0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic train/test split, optionally stratified by class."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    rng = np.random.Generator(np.random.PCG64(seed))
    if stratified:
        train_idx: list[np.ndarray] = []
        test_idx: list[np.ndarray] = []
        for c in range(dataset.n_classes):
            members = np.flatnonzero(dataset.labels == c)
            perm = members[rng.permutation(members.size)]
            cut = int(round(train_fraction * members.size))
            train_idx.append(perm[:cut])
            test_idx.append(perm[cut:])
        tr = np.sort(np.concatenate(train_idx))
        te = np.sort(np.concatenate(test_idx))
    else:
        perm = rng.permutation(n)
        cut = int(round(train_fraction * n))
        tr = np.sort(perm[:cut])
        te = np.sort(perm[cut:])
    if tr.size == 0 or te.size == 0:
        raise ValueError(f"degenerate split: {tr.size} train / {te.size} test samples")
    return dataset.subset(tr), dataset.subset(te)
