"""Classical-to-quantum feature maps.

Angle encoding: a Hadamard on every qubit, then each qubit's contiguous
feature block applied as alternating RZ/RX rotations (RZ first). Every
encoding gate and every after-gate noise channel acts on one qubit, so the
encoded state is exactly the product rho_0 ⊗ rho_1 ⊗ ... ⊗ rho_{n-1}: the
encoder evolves each qubit's 2x2 state through its own gates and channels,
then Kronecker-expands the factors once, qubit 0 most significant.
Amplitude encoding: zero-pad, L2-normalise, form the pure-state projector.
With a noise model, every encoding gate routes through the after-gate
channels; amplitude preparation counts as one opaque StatePrep touching
every qubit. Features must be finite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import DEFAULT_RANGE
from .errors import CapacityError, DegenerateInputError, ShapeError
from .noise import NoiseModel
from .simcore import (
    MAX_QUBITS,
    DensityMatrix,
    GateOp,
    apply_channel_stack,
    apply_operator_stack,
    apply_rotations_batch,
    gate_matrix,
)


@dataclass(frozen=True)
class EncoderConfig:
    kind: str  # "angle" | "amplitude"
    n_qubits: int
    features_per_qubit: int = 1
    scale_range: tuple[float, float] = DEFAULT_RANGE

    def __post_init__(self):
        if self.kind not in ("angle", "amplitude"):
            raise ValueError(f"encoder kind must be angle|amplitude, got {self.kind!r}")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise CapacityError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        if self.kind == "angle" and self.features_per_qubit < 1:
            raise ValueError("features_per_qubit must be positive")
        lo, hi = self.scale_range
        if not lo < hi:
            raise ValueError(f"scale_range must be increasing, got {self.scale_range}")

    def capacity(self) -> int:
        """Largest feature dimension this encoder accepts."""
        if self.kind == "angle":
            return self.n_qubits * self.features_per_qubit
        return 1 << self.n_qubits


def _check_dim(dim: int, cfg: EncoderConfig) -> None:
    if dim > cfg.capacity():
        raise ShapeError(
            f"{dim} features exceed {cfg.kind} encoder capacity {cfg.capacity()} "
            f"({cfg.n_qubits} qubits)"
        )


def _angle_batch(x: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None) -> np.ndarray:
    b, dim = x.shape
    factors = np.zeros((cfg.n_qubits, b, 2, 2), dtype=complex)  # rho_q for every qubit q
    factors[:, :, 0, 0] = 1.0
    columns = iter(x.T)  # absent trailing features have no rotation: rotation k takes column k
    for gate in encoding_gates(dim, cfg):
        q = gate.targets[0]
        if gate.name == "H":
            rho = apply_operator_stack(factors[q], gate_matrix("H"), (0,), 1)
        else:
            rho = apply_rotations_batch(factors[q], gate.name, 0, next(columns), 1)
        if model is not None:
            for ch in model.channels_for(gate.name):
                rho = apply_channel_stack(rho, ch, (0,), 1)
        factors[q] = rho
    return _kron_factors(factors)


def _kron_factors(factors: np.ndarray) -> np.ndarray:
    """(k, B, 2, 2) one-qubit states -> (B, 2^k, 2^k) products, factor 0 most significant.

    Halves are expanded first, so the one register-sized product is written once.
    """
    if len(factors) == 1:
        return factors[0]
    half = len(factors) // 2
    left, right = _kron_factors(factors[:half]), _kron_factors(factors[half:])
    b, d = left.shape[0], left.shape[1] * right.shape[1]
    return (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(b, d, d)


def _amplitude_batch(x: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None) -> np.ndarray:
    b, dim = x.shape
    n = cfg.n_qubits
    size = 1 << n
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateInputError(
            f"amplitude encoding of the all-zero vector (sample {bad}) is undefined"
        )
    psi = np.zeros((b, size), dtype=complex)
    psi[:, :dim] = x / norms[:, None]
    stack = np.einsum("bi,bj->bij", psi, psi.conj())
    if model is not None:
        channels = model.channels_for("StatePrep")
        for q in range(n):
            for ch in channels:
                stack = apply_channel_stack(stack, ch, (q,), n)
    return stack


def encode_batch(
    X: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None = None
) -> np.ndarray:
    """Encode a (samples, features) matrix into a (samples, 2^n, 2^n) stack."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("cannot encode an empty batch")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise DegenerateInputError(f"sample {bad} has a non-finite feature (NaN or infinity)")
    _check_dim(X.shape[1], cfg)
    need = X.shape[0] * 16 * 4**cfg.n_qubits  # bytes of the complex128 stack
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise CapacityError(f"{X.shape[0]} rows at {cfg.n_qubits} qubits need {need / 2**30:.1f} "
                            "GiB of density matrices, more than this machine's memory")
    if cfg.kind == "angle":
        return _angle_batch(X, cfg, model)
    return _amplitude_batch(X, cfg, model)


def encode(
    x: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None = None
) -> DensityMatrix:
    """Encode one feature vector into its density matrix."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return DensityMatrix(cfg.n_qubits, encode_batch(x, cfg, model)[0])


def encoding_gates(dim: int, cfg: EncoderConfig) -> list[GateOp]:
    """The angle-encoding gate list for a given feature dimension (slots unbound)."""
    if cfg.kind != "angle":
        raise ValueError("only the angle encoder has an explicit gate list")
    _check_dim(dim, cfg)
    gates = [GateOp("H", (q,)) for q in range(cfg.n_qubits)]
    f = cfg.features_per_qubit
    for q in range(cfg.n_qubits):
        for j in range(f):
            if q * f + j >= dim:
                break
            gates.append(GateOp("RZ" if j % 2 == 0 else "RX", (q,), 0.0))
    return gates


def scale_features(X: np.ndarray, scale_range: tuple[float, float] = DEFAULT_RANGE) -> np.ndarray:
    """Per-feature min-max map onto scale_range; constant columns go to the midpoint."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        raise ValueError("cannot scale an empty feature matrix")
    lo, hi = scale_range
    # halving is exact and leaves every ratio as it was, but keeps the span of a
    # column holding both -1e308 and 1e308 finite
    half = X / 2.0
    mins = half.min(axis=0)
    span = half.max(axis=0) - mins
    constant = span == 0.0
    safe_span = np.where(constant, 1.0, span)
    out = lo + (half - mins) / safe_span * (hi - lo)
    out[:, constant] = (lo + hi) / 2.0
    return out
