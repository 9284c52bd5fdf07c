"""Classical-to-quantum feature maps.

Angle encoding: a Hadamard on every qubit, then each qubit's contiguous block of
f features as alternating RZ/RX rotations (RZ first). Every gate and after-gate
channel acts on one qubit, so the state is the product rho_0 ⊗ ... ⊗ rho_{n-1}.
Each qubit starts at the same noisy H|0><0|H; feature j of every block (columns
j, j + f, ...) then maps the 2x2 states of the qubits that have one to
N(u rho u^dag), one step per feature index for all qubits and rows at once.
Amplitude encoding: zero-pad, L2-normalise (after dividing each row by its
largest |x|, so the norm neither over- nor underflows), form the projector.
With a noise model, every encoding gate routes through the after-gate channels;
amplitude preparation counts as one opaque StatePrep touching every qubit. Noise
reaches each qubit as one fused forward 4x4 Liouville map (Wood, Biamonte &
Cory, arXiv:1111.6950). Both channel kinds map real matrices to real ones, so
amplitude states are evolved in float64 and returned complex with a zero
imaginary part. Features must be finite.

Both encoders build a factored stack: a tuple of (B_f, d_f, d_f) arrays, B_f
the row count or 1 (shared by every row); row r is the Kronecker product of the
factors' rows, factor 0 most significant. Angle states have one 2x2 factor per
qubit. d amplitude features fill the last m = max(1, ceil(log2 d)) qubits, and
the j = n - m padding qubits stay |0><0| under per-qubit StatePrep noise, so the
state is tau^{⊗j} ⊗ rho_data: j shared (1, 2, 2) factors tau, then the
(B, 2^m, 2^m) data factor. encode_batch expands the factors.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass

import numpy as np

from .data import DEFAULT_RANGE
from .errors import CapacityError, DegenerateInputError, ShapeError
from .noise import NoiseModel, adjoint_noise_superop
from .simcore import MAX_QUBITS, DensityMatrix, apply_rotations_batch, apply_superop_stack
from .simcore import finite, gate_matrix, whole

# Not called here; perfbench/spans.py installs its timing wrappers on these
# attributes of quidlab.encode, so they stay importable from this module.
from .simcore import apply_channel_stack, apply_operator_stack  # noqa: F401


@dataclass(frozen=True)
class EncoderConfig:
    kind: str  # "angle" | "amplitude"
    n_qubits: int
    features_per_qubit: int = 1
    scale_range: tuple[float, float] = DEFAULT_RANGE

    def __post_init__(self):
        if self.kind not in ("angle", "amplitude"):
            raise ValueError(f"encoder kind must be angle|amplitude, got {self.kind!r}")
        for name, low in (("n_qubits", None), ("features_per_qubit", 1)):
            object.__setattr__(self, name, whole(getattr(self, name), name, low))
        lo, hi = (finite(v, "scale_range") for v in self.scale_range)
        object.__setattr__(self, "scale_range", (lo, hi))
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise CapacityError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        if not lo < hi:
            raise ValueError(f"scale_range must be increasing, got {self.scale_range}")

    def capacity(self) -> int:
        """Largest feature dimension this encoder accepts."""
        if self.kind == "angle":
            return self.n_qubits * self.features_per_qubit
        return 1 << self.n_qubits


# Peak memory of either encoder as a multiple of the stack it returns; tracemalloc
# measured 1.03x for angle, and for amplitude 1.51x without padding (the float64 data
# factor, then its complex copy) and at most 1.32x with it (7 qubits, 84 rows, every width)
_PEAK_FACTOR = 1.6
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


def _memory_limit() -> int:
    """Bytes of physical memory, or the cgroup v2 or address-space limit when lower."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    try:
        with open(_CGROUP_MEMORY_MAX) as fh:
            cgroup = fh.read().strip()
    except OSError:
        return limit
    return min(limit, int(cgroup)) if cgroup.isdigit() else limit  # "max": no limit


def _check_memory(need: float, what: str) -> None:
    """Refuse work whose arrays need more bytes than the memory limit; what names the work."""
    limit = _memory_limit()
    if need > limit:
        raise CapacityError(f"{what} needs {need / 2**30:.1f} GiB, more than the "
                            f"{limit / 2**30:.1f} GiB memory limit")


def _check_dim(dim: int, cfg: EncoderConfig) -> None:
    if dim > cfg.capacity():
        raise ShapeError(
            f"{dim} features exceed {cfg.kind} encoder capacity {cfg.capacity()} "
            f"({cfg.n_qubits} qubits)"
        )


def _angle_factors(x: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None) -> tuple:
    b, dim = x.shape
    f = cfg.features_per_qubit
    h = gate_matrix("H")
    factors = np.empty((cfg.n_qubits, b, 2, 2), dtype=complex)  # rho_q for every qubit q
    factors[:] = _noisy(np.outer(h[:, 0], h[:, 0].conj())[None], model, "H")  # N(H|0><0|H)
    for j in range(min(f, dim)):  # feature j of each qubit's block: columns j, j + f, ...
        name = "RZ" if j % 2 == 0 else "RX"  # RZ first, then alternating with RX
        angles = x[:, j::f].T  # (qubits with a feature j, B)
        rho = factors[:len(angles)]
        rho[:] = _noisy(apply_rotations_batch(rho, name, 0, angles, 1), model, name)
    return tuple(factors)


def _noisy(stack: np.ndarray, model: NoiseModel | None, gate_name: str) -> np.ndarray:
    """A stack of one-qubit states after the gate's after-gate noise (unchanged without any)."""
    noise = _forward_noise(model, gate_name)
    return stack if noise is None else apply_superop_stack(stack, noise, (0,), 1)


def _forward_noise(model: NoiseModel | None, gate_name: str) -> np.ndarray | None:
    """One qubit's after-gate noise as a forward 4x4 Liouville map; None when none applies.

    It is the conjugate transpose of the cached adjoint map, taken real when it has no
    imaginary part (as for both channel kinds), so real states stay real.
    """
    sop = None if model is None else adjoint_noise_superop(model.entries_for(gate_name), 1)
    if sop is None:
        return None
    sop = sop.conj().T
    return sop if sop.imag.any() else sop.real


def _kron_factors(factors) -> np.ndarray:
    """Factored stack -> the (..., B, D, D) stack of its rows' Kronecker products.

    Leading axes broadcast, so a factor with leading size 1 is shared by every row.
    Halves are expanded first, so the one register-sized product is written once.
    """
    if len(factors) == 1:
        return factors[0]
    half = len(factors) // 2
    left, right = _kron_factors(factors[:half]), _kron_factors(factors[half:])
    product = left[..., :, None, :, None] * right[..., None, :, None, :]
    d = left.shape[-1] * right.shape[-1]
    return product.reshape(product.shape[:-4] + (d, d))


def _rows(factors: tuple, idx) -> tuple:
    """The factored stack of rows idx; shared factors stay shared."""
    return tuple(f[idx] if len(f) > 1 else f for f in factors)


def _check_capacity(rows: int, n_qubits: int) -> None:
    """Refuse a (rows, 2^n, 2^n) complex stack whose build would exceed the memory limit."""
    _check_memory(_PEAK_FACTOR * rows * 16 * 4**n_qubits,  # complex128 stack and temporaries
                  f"encoding {rows} rows at {n_qubits} qubits")


def _expand(factors) -> np.ndarray:
    """The dense stack of a factored stack; a product of factors is capacity-checked first."""
    if len(factors) > 1:
        _check_capacity(max(map(len, factors)),
                        sum(f.shape[1].bit_length() - 1 for f in factors))
    return _kron_factors(factors)


def _amplitude_factors(x: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None) -> tuple:
    b, dim = x.shape
    m = max(1, (dim - 1).bit_length())  # data qubits: ceil(log2 dim), at least one
    _check_capacity(b, m)
    peaks = np.max(np.abs(x), axis=1)
    if np.any(peaks == 0.0):
        bad = int(np.flatnonzero(peaks == 0.0)[0])
        raise DegenerateInputError(
            f"amplitude encoding of the all-zero vector (sample {bad}) is undefined"
        )
    x = x / peaks[:, None]  # largest |entry| 1, so the norm neither over- nor underflows
    psi = np.zeros((b, 1 << m))
    psi[:, :dim] = x / np.linalg.norm(x, axis=1)[:, None]
    data = psi[:, :, None] * psi[:, None, :]
    tau = np.diag([1.0, 0.0])[None]  # a padding qubit's |0><0|
    noise = _forward_noise(model, "StatePrep")
    if noise is not None:
        tau = apply_superop_stack(tau, noise, (0,), 1)
        for q in range(m):  # rebinding data frees each input stack before the next map
            data = apply_superop_stack(data, noise, (q,), m)
    return (tau.astype(complex),) * (cfg.n_qubits - m) + (data.astype(complex),)


def _encode_factors(X: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None) -> tuple:
    """Encode a (samples, features) matrix into a factored stack (module docstring)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("cannot encode an empty batch")
    usable = np.isfinite(X).all(axis=1)
    if not usable.all():
        bad = int(np.flatnonzero(~usable)[0])
        raise DegenerateInputError(f"sample {bad} has a non-finite feature (NaN or infinity)")
    _check_dim(X.shape[1], cfg)
    if cfg.kind == "angle":
        return _angle_factors(X, cfg, model)
    return _amplitude_factors(X, cfg, model)


def encode_batch(
    X: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None = None
) -> np.ndarray:
    """Encode a (samples, features) matrix into a (samples, 2^n, 2^n) stack."""
    return _expand(_encode_factors(X, cfg, model))


def encode(
    x: np.ndarray, cfg: EncoderConfig, model: NoiseModel | None = None
) -> DensityMatrix:
    """Encode one feature vector into its density matrix."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return DensityMatrix(cfg.n_qubits, encode_batch(x, cfg, model)[0])


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
