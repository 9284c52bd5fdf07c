"""Encoder state similarity: density-matrix distances and min-distance labeling.

Supported metrics: frobenius (the Frobenius, or entrywise 2-, norm of the
difference; not its spectral norm), trace (half the sum of singular values of
the difference) and hilbert_schmidt (1 - |Tr(sigma^dag rho)| / dim; note this
does NOT vanish at sigma = rho, only relative comparisons matter downstream).
The trace distance takes each stack's Hermitian part once, runs in real
arithmetic when both stacks have an all-zero imaginary part (as amplitude
states of real features do), and diagonalises blocks of differences on threads
that live only for the call, one per usable CPU, with the same bits for any
thread count. Labeling assigns the class whose reference states have the
smallest mean distance to the query.

pairwise_distances is the one kernel. It reads a dense stack as one complex density
factor, and takes encode's factored stacks: complex density factors or the angle
encoder's real Pauli forms; class_mean_distances labels through it. As Tr(rho sigma) =
prod_f Tr(rho_f sigma_f), Frobenius and Hilbert-Schmidt multiply per-factor Gram
matrices, s.t / 2^m of Pauli forms (Wood, Biamonte & Cory, arXiv:1111.6950); the
trace distance expands density matrices. As ||tau ⊗ X|| = ||tau|| ||X|| in the
trace and Frobenius norms, a factor both stacks share and hold equal (amplitude
padding) is never expanded into a difference.
"""

from __future__ import annotations

import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .data import LabeledDataset, class_ids, split
from .encode import EncoderConfig, _encode_factors, _expand, _rows
from .errors import ShapeError
from .noise import NoiseModel
from .simcore import DensityMatrix, finite

# Not called here; perfbench/spans.py installs its timing wrapper on this
# attribute of quidlab.ess, so it stays importable from this module.
from .encode import encode_batch  # noqa: F401

METRICS = ("frobenius", "trace", "hilbert_schmidt")
_ALIASES = {"hs": "hilbert_schmidt", "fro": "frobenius"}

# trace distance: bytes of the difference stacks in flight at once, split evenly over
# the threads; ess-scan's 1,024 real 16x16 data-factor differences per call are 2 MiB
_EIG_BYTES = 64 << 20

# Frobenius entries with |a-b|^2 below this share of |a|^2+|b|^2 skip the Gram
# expansion; above it the expansion has erred by at most 6e-14 (measured: angle states
# at 1-6 qubits 2.4e-14 from Pauli factors, 3.4e-14 dense; amplitude at 1-7 qubits 5.9e-14)
_GRAM_NEAR = 1e-4


def canonical_metric(name: str) -> str:
    key = name.lower() if isinstance(name, str) else None
    key = _ALIASES.get(key, key)
    if key not in METRICS:
        raise ValueError(f"unknown metric {name!r}; expected one of {METRICS} or 'hs'")
    return key


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


def pairwise_distances(A: np.ndarray | tuple, B: np.ndarray | tuple, metric: str) -> np.ndarray:
    """(m, k) distances of two stacks, each a dense (m, d, d) array (density matrices, any
    dtype) or a factored stack (a tuple, as encode._encode_factors returns it); ShapeError
    unless both hold square factors alike in count, widths and forms (Pauli or density)."""
    metric = canonical_metric(metric)
    A, B = (S if isinstance(S, tuple) else (np.asarray(S, dtype=complex),) for S in (A, B))
    layout_a, layout_b = ([(f.shape[1:], "density" if np.iscomplexobj(f) else "Pauli")
                           for f in S] for S in (A, B))
    if layout_a != layout_b or any(len(w) != 2 or w[0] != w[1] for w, _ in layout_a):
        raise ShapeError(f"need stacks of square factors alike in count, widths and forms, "
                         f"got {layout_a} vs {layout_b}")
    # A factor both stacks share and hold equal multiplies the trace and Frobenius norms of
    # every difference by its own (a Kronecker product's singular values are the products
    # of its factors'); it is a state, so its trace norm is its trace. The last one stays.
    same = [len(a) == len(b) == 1 and np.array_equal(a, b) for a, b in zip(A[:-1], B[:-1])]
    same.append(False)
    common = [_expand((a,))[0] for a, s in zip(A, same) if s]  # as density matrices
    rest_a, rest_b = (tuple(f for f, s in zip(F, same) if not s) for F in (A, B))
    if metric == "trace":
        norm = math.prod(np.trace(c).real for c in common)
        return _trace_distances(_expand(rest_a), _expand(rest_b)) * norm
    w = math.prod(1.0 / f.shape[1] for f in A if not np.iscomplexobj(f))  # Pauli: s.t / 2^m
    a_flat = [f.reshape(len(f), f.shape[1] ** 2) for f in A]
    b_flat = [f.reshape(len(f), f.shape[1] ** 2) for f in B]
    gram = w * reduce(operator.mul, (a.conj() @ b.T for a, b in zip(a_flat, b_flat)))  # Tr(a^dag b)
    if metric == "hilbert_schmidt":
        return 1.0 - np.abs(gram) / math.prod(f.shape[1] for f in A)
    sq_a = w * reduce(operator.mul, (np.sum(np.abs(a) ** 2, axis=1) for a in a_flat))
    sq_b = w * reduce(operator.mul, (np.sum(np.abs(b) ** 2, axis=1) for b in b_flat))
    scale = sq_a[:, None] + sq_b[None, :]
    sq = scale - 2.0 * gram.real
    # The expansion cancels for near-equal states (2e-8 for a state against
    # itself); recompute those entries from the difference, row by row.
    near = sq < _GRAM_NEAR * scale
    sq_common = math.prod(np.vdot(c, c).real for c in common)
    for i in np.flatnonzero(near.any(axis=1)):
        cols = np.flatnonzero(near[i])
        a, b = (_expand(_rows(F, idx)) for F, idx in ((rest_a, [i]), (rest_b, cols)))
        diff = np.sum(np.abs(a.reshape(1, -1) - b.reshape(len(b), -1)) ** 2, axis=1)
        sq[i, cols] = sq_common * diff
    return np.sqrt(np.maximum(sq, 0.0))


def _trace_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(m, k) trace distances: eigvalsh of each difference of the stacks' Hermitian parts.

    The table is cut into blocks of whole rows, or part of one row, whose difference
    stacks hold at most _EIG_BYTES / threads bytes each; there are at least `threads`
    blocks whenever there are that many pairs. More than one block runs on threads that
    live only in this call (eigvalsh releases the GIL). eigvalsh solves each matrix on
    its own, so neither the thread count nor the split moves a bit.
    """
    if not (A.imag.any() or B.imag.any()):  # real symmetric differences diagonalise faster
        A, B = A.real, B.real
    # every difference of Hermitian parts is exactly Hermitian; of exactly Hermitian
    # stacks (amplitude states) the Hermitian part is the stack itself, bit for bit
    A, B = (0.5 * (S + np.swapaxes(S, -1, -2).conj()) for S in (A, B))
    m, k, dim = A.shape[0], B.shape[0], A.shape[1]
    affinity = getattr(os, "sched_getaffinity", None)
    threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    budget = _EIG_BYTES // (threads * dim * dim * A.itemsize)
    pairs = max(1, min(budget, m * k // threads))  # per block
    rows, cols = max(1, pairs // max(k, 1)), max(1, min(k, pairs))  # whole rows, or part of one
    blocks = [(slice(lo, lo + rows), slice(left, left + cols))
              for lo in range(0, m, rows) for left in range(0, k, cols)]
    out = np.empty((m, k))

    def solve(block: tuple[slice, slice]) -> None:
        r, c = block
        out[r, c] = 0.5 * np.abs(np.linalg.eigvalsh(A[r, None] - B[None, c])).sum(axis=-1)

    if len(blocks) > 1:
        with ThreadPoolExecutor(min(threads, len(blocks))) as pool:
            list(pool.map(solve, blocks))
    elif blocks:
        solve(blocks[0])
    return out


def class_mean_distances(
    queries: np.ndarray | tuple, reference: np.ndarray | tuple, ref_labels, metric: str
) -> tuple[np.ndarray, np.ndarray]:
    """Mean distance from each query to each class present in the reference.

    Stacks as pairwise_distances takes them; one class id per reference row (data.class_ids).
    Returns (means of shape (n_queries, n_present), ascending class ids).
    """
    rows = max(map(len, reference)) if isinstance(reference, tuple) else len(reference)
    ref_labels = class_ids(ref_labels, rows)
    if ref_labels.size == 0:
        raise ValueError("empty reference")
    return _class_means(pairwise_distances(queries, reference, metric), ref_labels)


def _class_means(dists: np.ndarray, ref_labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means of dists over each reference class's columns, and the ascending class ids."""
    classes = np.unique(ref_labels)
    means = np.column_stack([dists[:, ref_labels == c].mean(axis=1) for c in classes])
    return means, classes


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
    return _validate_metrics(dataset, cfg, [metric], model, holdout_fraction, seed)[0]


def _validate_metrics(
    dataset: LabeledDataset,
    cfg: EncoderConfig,
    metrics: list[str],
    model: NoiseModel | None,
    holdout_fraction: float,
    seed: int,
) -> list[EssReport]:
    """validate_ess for each metric, encoding the reference and holdout rows once."""
    metrics = [canonical_metric(metric) for metric in metrics]
    holdout_fraction = finite(holdout_fraction, "holdout_fraction")
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    reference, holdout = split(dataset, train_fraction=1.0 - holdout_fraction, seed=seed)
    if np.unique(reference.labels).size < 2:
        raise ValueError("need at least 2 classes for labeling validation")
    ref_states = _encode_factors(reference.features, cfg, model)
    query_states = _encode_factors(holdout.features, cfg, model)
    reports = []
    for metric in metrics:
        start = time.perf_counter()
        dists = pairwise_distances(query_states, ref_states, metric)
        means, classes = _class_means(dists, reference.labels)
        predicted = classes[np.argmin(means, axis=1)]
        elapsed = time.perf_counter() - start

        intra: dict[int, float] = {}
        inter: dict[int, float] = {}
        for c in classes:
            rows = holdout.labels == c
            same_cols = reference.labels == c
            if rows.any():
                intra[int(c)] = float(dists[rows][:, same_cols].mean())
                inter[int(c)] = float(dists[rows][:, ~same_cols].mean())
        reports.append(EssReport(
            metric=metric,
            accuracy=float(np.mean(predicted == holdout.labels)),
            wall_seconds=elapsed,
            intra_mean=intra,
            inter_mean=inter,
            n_reference=len(reference),
            n_holdout=len(holdout),
        ))
    return reports
