"""Encoder state similarity: density-matrix distances and min-distance labeling.

Supported metrics: frobenius (matrix 2-norm of the difference), trace
(half the sum of singular values of the difference; when both stacks have
an all-zero imaginary part, as amplitude states of real features do, it is
computed in real arithmetic) and hilbert_schmidt
(1 - |Tr(sigma^dag rho)| / dim; note this does NOT vanish at sigma = rho,
only relative comparisons matter downstream). Labeling assigns the class
whose reference states have the smallest mean distance to the query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, split
from .encode import EncoderConfig, encode_batch
from .errors import ShapeError
from .noise import NoiseModel
from .simcore import DensityMatrix

METRICS = ("frobenius", "trace", "hilbert_schmidt")
_ALIASES = {"hs": "hilbert_schmidt", "fro": "frobenius"}

_EIG_CHUNK = 4096  # trace distance: difference matrices diagonalised per call

# Frobenius entries with |a-b|^2 below this share of |a|^2+|b|^2 skip the Gram
# expansion; above it the expansion has erred by at most 3e-14 (measured, 1-6 qubits)
_GRAM_NEAR = 1e-4


def canonical_metric(name: str) -> str:
    name = name.lower()
    name = _ALIASES.get(name, name)
    if name not in METRICS:
        raise ValueError(f"unknown metric {name!r}; expected one of {METRICS} or 'hs'")
    return name


def distance(sigma: DensityMatrix, rho: DensityMatrix, metric: str) -> float:
    """Distance between two equal-dimension density matrices."""
    if sigma.data.shape != rho.data.shape:
        raise ShapeError(
            f"dimension mismatch: {sigma.data.shape} vs {rho.data.shape}"
        )
    metric = canonical_metric(metric)
    diff = sigma.data - rho.data
    if metric == "frobenius":
        return float(np.linalg.norm(diff))
    if metric == "trace":
        return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
    overlap = np.vdot(sigma.data, rho.data)  # Tr(sigma^dag rho)
    return float(1.0 - abs(overlap) / sigma.data.shape[0])


def pairwise_distances(A: np.ndarray, B: np.ndarray, metric: str) -> np.ndarray:
    """(m, k) distances between two stacks of density matrices."""
    metric = canonical_metric(metric)
    if A.shape[1:] != B.shape[1:]:
        raise ShapeError(f"dimension mismatch: {A.shape[1:]} vs {B.shape[1:]}")
    m, dim = A.shape[0], A.shape[1]
    k = B.shape[0]
    a_flat = A.reshape(m, dim * dim)
    b_flat = B.reshape(k, dim * dim)
    if metric == "trace":
        if not (A.imag.any() or B.imag.any()):  # real symmetric differences diagonalise faster
            A, B = A.real, B.real
        # eigvalsh solves each matrix on its own, so the chunking never moves a bit
        out = np.empty(m * k)
        rows = max(1, _EIG_CHUNK // max(k, 1))
        for lo in range(0, m, rows):
            d = (A[lo : lo + rows, None] - B[None]).reshape(-1, dim, dim)
            d = 0.5 * (d + np.swapaxes(d, -1, -2).conj())
            out[lo * k : lo * k + len(d)] = 0.5 * np.abs(np.linalg.eigvalsh(d)).sum(axis=-1)
        return out.reshape(m, k)
    gram = a_flat.conj() @ b_flat.T  # Tr(a^dag b)
    if metric == "hilbert_schmidt":
        return 1.0 - np.abs(gram) / dim
    sq_a = np.sum(np.abs(a_flat) ** 2, axis=1)
    sq_b = np.sum(np.abs(b_flat) ** 2, axis=1)
    scale = sq_a[:, None] + sq_b[None, :]
    sq = scale - 2.0 * gram.real
    # The expansion cancels for near-equal states (2e-8 for a state against
    # itself); recompute those entries from the difference, row by row.
    near = sq < _GRAM_NEAR * scale
    for i in np.flatnonzero(near.any(axis=1)):
        cols = np.flatnonzero(near[i])
        sq[i, cols] = np.sum(np.abs(a_flat[i] - b_flat[cols]) ** 2, axis=1)
    return np.sqrt(np.maximum(sq, 0.0))


def class_mean_distances(
    queries: np.ndarray, reference: np.ndarray, ref_labels: np.ndarray, metric: str
) -> tuple[np.ndarray, np.ndarray]:
    """Mean distance from each query to each class present in the reference.

    Returns (means of shape (n_queries, n_present), ascending class ids).
    """
    ref_labels = np.asarray(ref_labels)
    if ref_labels.size == 0:
        raise ValueError("empty reference")
    return _class_means(pairwise_distances(queries, reference, metric), ref_labels)


def _class_means(dists: np.ndarray, ref_labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means of dists over each reference class's columns, and the ascending class ids."""
    classes = np.unique(ref_labels)
    means = np.column_stack([dists[:, ref_labels == c].mean(axis=1) for c in classes])
    return means, classes


def nearest_class_label(
    rho: DensityMatrix, reference: list[tuple[DensityMatrix, int]], metric: str
) -> int:
    """Class with the smallest mean distance to rho; ties go to the lowest id."""
    if not reference:
        raise ValueError("empty reference")
    stack = np.stack([r.data for r, _ in reference])
    labels = np.array([c for _, c in reference])
    means, classes = class_mean_distances(rho.data[None], stack, labels, metric)
    return int(classes[np.argmin(means[0])])


@dataclass
class EssReport:
    metric: str
    accuracy: float
    wall_seconds: float
    intra_mean: dict[int, float] = field(default_factory=dict)
    inter_mean: dict[int, float] = field(default_factory=dict)
    n_reference: int = 0
    n_holdout: int = 0

    def class_rows(self) -> list[tuple[str, int, float, float]]:
        return [
            (self.metric, c, self.intra_mean[c], self.inter_mean[c])
            for c in sorted(self.intra_mean)
        ]

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "accuracy": self.accuracy,
            "wall_seconds": self.wall_seconds,
            "n_reference": self.n_reference,
            "n_holdout": self.n_holdout,
            "intra_mean": {str(c): v for c, v in sorted(self.intra_mean.items())},
            "inter_mean": {str(c): v for c, v in sorted(self.inter_mean.items())},
        }


def validate_ess(
    dataset: LabeledDataset,
    cfg: EncoderConfig,
    metric: str,
    model: NoiseModel | None = None,
    holdout_fraction: float = 0.5,
    seed: int = 0,
) -> EssReport:
    """Label a holdout split by nearest class mean distance; report accuracy.

    The wall clock covers the metric-dependent phase (distances + labeling),
    not the shared encoding step.
    """
    metric = canonical_metric(metric)
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    reference, holdout = split(dataset, train_fraction=1.0 - holdout_fraction, seed=seed)
    if dataset.n_classes < 2 or np.unique(reference.labels).size < 2:
        raise ValueError("need at least 2 classes for labeling validation")
    ref_states = encode_batch(reference.features, cfg, model)
    query_states = encode_batch(holdout.features, cfg, model)

    start = time.perf_counter()
    dists = pairwise_distances(query_states, ref_states, metric)
    means, classes = _class_means(dists, reference.labels)
    predicted = classes[np.argmin(means, axis=1)]
    elapsed = time.perf_counter() - start

    accuracy = float(np.mean(predicted == holdout.labels))
    intra: dict[int, float] = {}
    inter: dict[int, float] = {}
    for c in classes:
        rows = holdout.labels == c
        same_cols = reference.labels == c
        if rows.any():
            intra[int(c)] = float(dists[rows][:, same_cols].mean())
            inter[int(c)] = float(dists[rows][:, ~same_cols].mean())
    return EssReport(
        metric=metric,
        accuracy=accuracy,
        wall_seconds=elapsed,
        intra_mean=intra,
        inter_mean=inter,
        n_reference=len(reference),
        n_holdout=len(holdout),
    )


@dataclass(frozen=True)
class EncodingCell:
    encoder: str
    noise_p: float
    accuracy: float
    wall_seconds: float


def encoder_label(cfg: EncoderConfig) -> str:
    if cfg.kind == "angle":
        return f"angle-{cfg.n_qubits}q-{cfg.features_per_qubit}f"
    return f"amplitude-{cfg.n_qubits}q"


def compare_encodings(
    dataset: LabeledDataset,
    cfgs: list[EncoderConfig],
    metric: str,
    noise_levels: list[float],
    holdout_fraction: float = 0.5,
    seed: int = 0,
) -> list[EncodingCell]:
    """validate_ess per (encoder, noise level), with the split shared across cells."""
    if not cfgs:
        raise ValueError("need at least one encoder config")
    cells = []
    for cfg in cfgs:
        for p in noise_levels:
            report = validate_ess(
                dataset, cfg, metric, model=NoiseModel.from_error_rate(p),
                holdout_fraction=holdout_fraction, seed=seed,
            )
            cells.append(
                EncodingCell(encoder_label(cfg), float(p), report.accuracy, report.wall_seconds)
            )
    return cells
