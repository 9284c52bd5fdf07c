"""Dataset handling: CSV ingestion, synthetic clusters, deterministic splits.

The on-disk format is a plain CSV with d feature columns followed by one
integer label column; an optional single header line is allowed. Features are
stored raw; callers scale them into the encoder range (encode.scale_features)
before encoding. read_json is the one reader of the JSON inputs (config file,
noise model, checkpoint); write_table and write_json are the one writers of
result tables and JSON files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError
from .simcore import finite, whole

# synthetic feature range and default encoder scale range: one angle period
DEFAULT_RANGE = (0.0, 2.0 * math.pi)
SYNTH_RETRIES = 1000  # draws of the class means before synth_clusters gives up


def class_ids(labels, rows: int, n_classes: int | None = None,
              whose: str = "the dataset's") -> np.ndarray:
    """labels as int64 class ids, one per row of rows; ValueError for any other shape, a
    fractional or non-finite value, or (n_classes given) an id outside [0, n_classes)."""
    values = np.asarray(labels)
    if values.shape != (rows,):
        raise ValueError(f"{values.size} labels for {rows} rows (labels of shape {values.shape})")
    if values.dtype.kind not in "biu":
        values = values.astype(float)
        integral = np.isfinite(values) & (np.round(values) == values)
        if not integral.all():
            raise ValueError(f"labels must be whole numbers, got {values[~integral][0]}")
    if n_classes is not None and values.size and (values.min() < 0 or values.max() >= n_classes):
        raise ValueError(f"labels outside {whose} {n_classes} classes")
    return values.astype(np.int64)


@dataclass
class LabeledDataset:
    features: np.ndarray = field(repr=False)  # (n_samples, d) float64
    labels: np.ndarray = field(repr=False)  # (n_samples,) int64 in [0, n_classes)
    n_classes: int
    note: str = ""

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        if self.features.ndim > 2:
            raise ValueError(f"features must be a 2-D matrix, got shape {self.features.shape}")
        self.n_classes = whole(self.n_classes, "n_classes", 1)
        self.labels = class_ids(self.labels, self.features.shape[0], self.n_classes)
        whole(self.features.shape[1], "dim", 1)

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


def read_json(path) -> dict:
    """The top-level object of a JSON file; bad JSON or another top level is a DataFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: top level must be a JSON object")
    return raw


def write_table(path, header: list[str], rows) -> None:
    """A header line, then one line per row; floats as repr(float(v)), bit-exact on reload."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def write_json(path, payload) -> None:
    """payload as JSON with two-space indent, sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
) -> LabeledDataset:
    """Gaussian blobs around class means drawn uniformly in DEFAULT_RANGE.

    Means are redrawn, up to SYNTH_RETRIES times, until every pair is at least
    range_width/(2C) apart (Euclidean); samples are clipped back into the range.
    """
    n_classes, dim = whole(n_classes, "n_classes", 2), whole(dim, "dim", 1)
    per_class, seed = whole(per_class, "per_class", 1), whole(seed, "seed", 0)
    spread = finite(spread, "spread", 0)
    lo, hi = DEFAULT_RANGE
    min_sep = (hi - lo) / (2.0 * n_classes)
    rng = np.random.Generator(np.random.PCG64(seed))
    means = None
    for _ in range(SYNTH_RETRIES):
        cand = rng.uniform(lo, hi, size=(n_classes, dim))
        dists = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
        dists[np.diag_indices(n_classes)] = np.inf
        if dists.min() >= min_sep:
            means = cand
            break
    if means is None:
        raise ValueError(
            f"could not draw {n_classes} means {min_sep:.3g} apart in {SYNTH_RETRIES} tries"
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
    train_fraction, seed = finite(train_fraction, "train_fraction"), whole(seed, "seed", 0)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    rng = np.random.Generator(np.random.PCG64(seed))
    if stratified:
        train_idx: list[np.ndarray] = []
        test_idx: list[np.ndarray] = []
        for c in np.unique(dataset.labels):  # an absent class draws nothing
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
