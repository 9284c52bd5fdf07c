"""Dense density-matrix simulation.

States are 2^n x 2^n complex matrices. Qubit 0 is the most significant bit
of the basis index; gates and channels are lifted onto the full register by
tensor contraction on the touched axes, so no full-register operator is ever
materialised. All stack-level helpers accept arrays of shape (batch, d, d)
and broadcast over the batch axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ShapeError

MAX_QUBITS = 12

# gate name -> number of target qubits (None: any register-sized target list)
GATE_ARITY = {
    "H": 1,
    "RX": 1,
    "RZ": 1,
    "CRX": 2,
    "CRZ": 2,
    "CNOT": 2,
    "StatePrep": None,
}
PARAMETRIC_GATES = frozenset({"RX", "RZ", "CRX", "CRZ"})

_CANONICAL_NAME = {name.lower(): name for name in GATE_ARITY}


def canonical_gate_name(name: str) -> str:
    try:
        return _CANONICAL_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None


@dataclass(frozen=True)
class GateOp:
    """A single circuit operation: gate name, target qubits, optional angle."""

    name: str
    targets: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "name", canonical_gate_name(self.name))
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.targets}")
        if any(q < 0 for q in self.targets):
            raise ValueError(f"negative qubit index in {self.targets}")
        arity = GATE_ARITY[self.name]
        if arity is not None and len(self.targets) != arity:
            raise ValueError(
                f"{self.name} takes {arity} target(s), got {len(self.targets)}"
            )
        if (self.param is not None) != (self.name in PARAMETRIC_GATES):
            raise ValueError(
                f"{self.name}: param must be present iff the gate is parameterized"
            )


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by its Kraus operators (all 2x2 or all 4x4), held read-only."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex) for k in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if dim not in (2, 4) or any(k.shape != (dim, dim) for k in ops):
            raise ShapeError("Kraus operators must all be 2x2 or all 4x4")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise ValueError("Kraus completeness violated: sum K^dag K != I")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def n_qubits(self) -> int:
        return 1 if self.operators[0].shape[0] == 2 else 2


@dataclass
class DensityMatrix:
    """A (possibly mixed) n-qubit state as a unit-trace Hermitian PSD matrix."""

    n_qubits: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        dim = 1 << self.n_qubits
        if self.data.shape != (dim, dim):
            raise ShapeError(
                f"expected {dim}x{dim} matrix for {self.n_qubits} qubits, "
                f"got {self.data.shape}"
            )

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.data.copy())

    def purity(self) -> float:
        # Tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
        return float(np.sum(np.abs(self.data) ** 2))

    def validate(self, trace_atol=1e-9, herm_atol=1e-10, psd_atol=1e-9) -> None:
        """Raise ValueError if trace-1 / Hermiticity / PSD invariants fail."""
        tr = np.trace(self.data)
        if abs(tr - 1.0) > trace_atol:
            raise ValueError(f"trace {tr} deviates from 1 beyond {trace_atol}")
        herm = np.max(np.abs(self.data - self.data.conj().T))
        if herm > herm_atol:
            raise ValueError(f"Hermiticity defect {herm} beyond {herm_atol}")
        sym = 0.5 * (self.data + self.data.conj().T)
        lo = float(np.linalg.eigvalsh(sym)[0])
        if lo < -psd_atol:
            raise ValueError(f"negative eigenvalue {lo} beyond -{psd_atol}")


def ground_state(n_qubits: int) -> DensityMatrix:
    """|0...0><0...0| on n_qubits qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    dim = 1 << n_qubits
    data = np.zeros((dim, dim), dtype=complex)
    data[0, 0] = 1.0
    return DensityMatrix(n_qubits, data)


def basis_state(n_qubits: int, index: int) -> DensityMatrix:
    """|index><index| in the computational basis."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    data = np.zeros((dim, dim), dtype=complex)
    data[index, index] = 1.0
    return DensityMatrix(n_qubits, data)


def gate_matrix(name: str, param: float | None = None) -> np.ndarray:
    """The 2x2 or 4x4 unitary for a gate. Control is the first target qubit."""
    name = canonical_gate_name(name)
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if name == "RX":
        c, s = math.cos(param / 2), math.sin(param / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "RZ":
        return np.array(
            [[np.exp(-0.5j * param), 0], [0, np.exp(0.5j * param)]], dtype=complex
        )
    if name == "CNOT":
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = np.array([[0, 1], [1, 0]])
        return m
    if name in ("CRX", "CRZ"):
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = gate_matrix(name[1:], param)
        return m
    raise ValueError(f"{name} has no fixed unitary")


# ---------------------------------------------------------------------------
# stack-level primitives (shape (batch, 2^n, 2^n))

def _contract(op_tensor: np.ndarray, tensor: np.ndarray, axes: list[int]) -> np.ndarray:
    k = len(axes)
    moved = np.tensordot(op_tensor, tensor, axes=(tuple(range(k, 2 * k)), tuple(axes)))
    return np.moveaxis(moved, tuple(range(k)), tuple(axes))

def apply_operator_stack(
    stack: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    """K rho K^dag for every state in the stack, K lifted onto `targets`."""
    k = len(targets)
    op = np.asarray(mat, dtype=complex).reshape((2,) * (2 * k))
    t = stack.reshape((stack.shape[0],) + (2,) * (2 * n_qubits))
    t = _contract(op, t, [1 + q for q in targets])
    t = _contract(op.conj(), t, [1 + n_qubits + q for q in targets])
    return t.reshape(stack.shape)


def adjoint_superop(operators) -> np.ndarray:
    """Liouville matrix of O -> sum_k K_k^dag O K_k on the operators' qubits.

    With O flattened row-major, entry ((r, c), (r', c')) is sum_k conj(K_k[r', r]) K_k[c', c],
    so the matrix is sum_k kron(K_k^dag, K_k^T) (Wood, Biamonte & Cory, arXiv:1111.6950).
    Maps compose by matrix product: A applied first, then B, is B @ A.
    """
    ks = np.asarray(operators, dtype=complex)
    d = ks.shape[-1]
    return np.einsum("kpr,kqc->rcpq", ks.conj(), ks).reshape(d * d, d * d)


@functools.lru_cache(maxsize=256)
def _superop_axes(
    targets: tuple[int, ...], n_qubits: int, n_lead: int, n_points: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order putting the point axes, then the target row and column axes first; its inverse.

    The axes are those of a stack with n_lead leading axes viewed as 2 x ... x 2.
    """
    rows = [n_lead + q for q in targets]
    front = list(range(n_points)) + rows + [q + n_qubits for q in rows]
    perm = front + [a for a in range(n_lead + 2 * n_qubits) if a not in front]
    return tuple(perm), tuple(int(a) for a in np.argsort(perm))


def contract_superop(t: np.ndarray, sop: np.ndarray, perm: tuple, k: int) -> np.ndarray:
    """A local 4^k x 4^k Liouville matrix applied to the tensor t with its axes put in order perm.

    In that order t's first axes match sop's leading ones (or those have size 1), then come
    the k target row and k target column axes. The result keeps the order, so a caller can
    carry it from map to map and restore it once.
    """
    t = t.transpose(perm)
    shape = t.shape
    lead = sop.ndim - 2
    return (sop @ t.reshape(shape[:lead] + (4**k, math.prod(shape[lead + 2 * k:])))).reshape(shape)


def apply_superop_stack(
    stack: np.ndarray, sop: np.ndarray, targets: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    """A local 4^k x 4^k Liouville matrix applied on `targets` to every operator in the stack.

    stack is (..., 2^n, 2^n). sop is one (4^k, 4^k) matrix for every operator, or a
    (P, 4^k, 4^k) stack of them whose p-th acts on stack[p]; its leading axes match
    the stack's first ones or have size 1.
    """
    lead = stack.shape[:-2]
    perm, inverse = _superop_axes(tuple(targets), n_qubits, len(lead), sop.ndim - 2)
    t = contract_superop(stack.reshape(lead + (2,) * (2 * n_qubits)), sop, perm, len(targets))
    return t.transpose(inverse).reshape(stack.shape)


def apply_gate_stack(stack: np.ndarray, gate: GateOp, n_qubits: int) -> np.ndarray:
    if gate.name == "StatePrep":
        raise ValueError(
            "StatePrep has no unitary; prepared states are built by the encoder"
        )
    if any(q >= n_qubits for q in gate.targets):
        raise IndexError(f"gate targets {gate.targets} exceed register of {n_qubits}")
    return apply_operator_stack(stack, gate_matrix(gate.name, gate.param), gate.targets, n_qubits)


def apply_channel_stack(
    stack: np.ndarray, ch: KrausChannel, targets: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    if len(targets) != ch.n_qubits:
        raise ShapeError(
            f"channel acts on {ch.n_qubits} qubit(s), got {len(targets)} target(s)"
        )
    if any(q >= n_qubits for q in targets):
        raise IndexError(f"channel targets {targets} exceed register of {n_qubits}")
    out = np.zeros_like(stack)
    for k in ch.operators:
        out += apply_operator_stack(stack, k, tuple(targets), n_qubits)
    return out


def rotation_matrices(half_angles, is_z) -> np.ndarray:
    """(..., 2, 2) RZ unitaries where is_z holds, RX elsewhere, at the given half angles.

    is_z broadcasts against half_angles. The one RX/RZ builder besides gate_matrix.
    """
    c, s = np.cos(half_angles), np.sin(half_angles)
    u = np.zeros(np.broadcast(c, is_z).shape + (2, 2), dtype=complex)
    u[..., 0, 0] = np.where(is_z, c - 1j * s, c)
    u[..., 1, 1] = np.where(is_z, c + 1j * s, c)
    u[..., 0, 1] = u[..., 1, 0] = np.where(is_z, 0.0, -1j * s)
    return u


def apply_rotations_batch(
    stack: np.ndarray, name: str, qubit: int, angles: np.ndarray, n_qubits: int
) -> np.ndarray:
    """Apply RZ/RX on one qubit with a different angle per stacked state (one 4x4 map each)."""
    name = canonical_gate_name(name)
    if name not in ("RX", "RZ"):
        raise ValueError(f"per-sample angles only supported for RX/RZ, got {name}")
    u = rotation_matrices(np.asarray(angles, dtype=float) / 2.0, name == "RZ")
    sop = np.einsum("bij,bkl->bikjl", u, u.conj()).reshape(-1, 4, 4)  # rho -> u rho u^dag
    return apply_superop_stack(stack, sop, (qubit,), n_qubits)


def expect_z_stack(stack: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {n_qubits} qubits")
    diag = np.einsum("bii->bi", stack).real
    bits = (np.arange(1 << n_qubits) >> (n_qubits - 1 - qubit)) & 1
    return diag @ (1.0 - 2.0 * bits)


# ---------------------------------------------------------------------------
# single-state API

def apply_gate(rho: DensityMatrix, gate: GateOp) -> DensityMatrix:
    """rho -> U rho U^dag with U lifted onto the full register."""
    out = apply_gate_stack(rho.data[None], gate, rho.n_qubits)
    return DensityMatrix(rho.n_qubits, out[0])


def apply_channel(
    rho: DensityMatrix, ch: KrausChannel, targets: tuple[int, ...]
) -> DensityMatrix:
    """rho -> sum_k K_k rho K_k^dag on the listed target qubits."""
    out = apply_channel_stack(rho.data[None], ch, tuple(targets), rho.n_qubits)
    return DensityMatrix(rho.n_qubits, out[0])


def expect_z(rho: DensityMatrix, qubit: int) -> float:
    """Tr(rho Z_qubit); the imaginary residue of the diagonal is discarded."""
    return float(expect_z_stack(rho.data[None], qubit, rho.n_qubits)[0])


def sample_expect_z(rho: DensityMatrix, qubit: int, shots: int, seed: int) -> float:
    """Empirical <Z> from `shots` Bernoulli draws with P(+1) = (1 + <Z>)/2."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p_plus = min(1.0, max(0.0, (1.0 + expect_z(rho, qubit)) / 2.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    ups = int(rng.binomial(shots, p_plus))
    return 2.0 * ups / shots - 1.0
