"""Dense density-matrix simulation.

States are 2^n x 2^n complex matrices. Qubit 0 is the most significant bit
of the basis index. Every gate, channel and per-row rotation reaches a stack as
a local Liouville matrix, contracted on the touched axes by apply_superop_stack,
so no full-register operator is ever materialised. All stack-level helpers
accept arrays of shape (batch, d, d) and broadcast over the batch axis.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ShapeError

MAX_QUBITS = 12
_FLOAT_MAX = np.finfo(float).max

# gate name -> number of target qubits (StatePrep, a noise-model key only: the whole register)
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


def _within(value, what: str, low, high):
    """value; ValueError naming what if it lies outside the closed range [low, high], a
    bound of None leaving that side open."""
    if (low is not None and value < low) or (high is not None and value > high):
        rule = (f"<= {high}" if low is None else f">= {low}" if high is None
                else f"in [{low}, {high}]")
        raise ValueError(f"{what} must be {rule}, got {value}")
    return value


def whole(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """value as an int; ValueError naming what unless it is an integer, not a boolean, in
    [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return _within(int(value), what, low, high)


def finite(value, what: str, low: float | None = None, high: float | None = None) -> float:
    """value as a float; ValueError naming what unless it is a finite real, not a boolean, in
    [low, high]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= _FLOAT_MAX):  # NaN, the infinities and too large an int fail
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return _within(float(value), what, low, high)


def _qubits(targets, n_qubits: int | None = None) -> tuple[int, ...]:
    """targets as a tuple of distinct, non-negative int qubit indices; ValueError otherwise,
    and IndexError for an index outside a register of n_qubits, when given."""
    qubits = tuple(whole(q, "qubit index", 0) for q in targets)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate targets in {qubits}")
    if n_qubits is not None and any(q >= n_qubits for q in qubits):
        raise IndexError(f"targets {qubits} exceed register of {n_qubits}")
    return qubits


def canonical_gate_name(name: str) -> str:
    try:
        return _CANONICAL_NAME[name.lower()]
    except (AttributeError, KeyError):
        raise ValueError(f"unknown gate name {name!r}") from None


@dataclass(frozen=True)
class GateOp:
    """A single circuit operation: canonical gate name, int target qubits, float angle or None."""

    name: str
    targets: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        name = canonical_gate_name(self.name)
        if name == "StatePrep":
            raise ValueError("StatePrep is not a circuit gate; the encoder prepares states")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "targets", _qubits(self.targets))
        if len(self.targets) != GATE_ARITY[name]:
            raise ValueError(
                f"{name} takes {GATE_ARITY[name]} target(s), got {len(self.targets)}"
            )
        if (self.param is not None) != (name in PARAMETRIC_GATES):
            raise ValueError(
                f"{name}: param must be present iff the gate is parameterized"
            )
        if self.param is not None:
            object.__setattr__(self, "param", finite(self.param, f"{name} angle"))


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
        if not all(np.isfinite(k).all() for k in ops):  # before the sum, which warns on them
            raise ValueError("Kraus operators must be finite")
        total = sum(k.conj().T @ k for k in ops)
        if not np.max(np.abs(total - np.eye(dim))) <= 1e-10:
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
        self.n_qubits = whole(self.n_qubits, "n_qubits", 1)
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
        """Raise ValueError if trace-1 / Hermiticity / PSD invariants fail; NaN fails each."""
        tr = np.trace(self.data)
        if not abs(tr - 1.0) <= trace_atol:
            raise ValueError(f"trace {tr} deviates from 1 beyond {trace_atol}")
        herm = np.max(np.abs(self.data - self.data.conj().T))
        if not herm <= herm_atol:
            raise ValueError(f"Hermiticity defect {herm} beyond {herm_atol}")
        sym = 0.5 * (self.data + self.data.conj().T)
        lo = float(np.linalg.eigvalsh(sym)[0])
        if not lo >= -psd_atol:
            raise ValueError(f"negative eigenvalue {lo} beyond -{psd_atol}")


def ground_state(n_qubits: int) -> DensityMatrix:
    """|0...0><0...0| on n_qubits qubits."""
    return basis_state(n_qubits, 0)


def basis_state(n_qubits: int, index: int) -> DensityMatrix:
    """|index><index| in the computational basis."""
    n_qubits, index = whole(n_qubits, "n_qubits"), whole(index, "basis index")
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
    if name in ("RX", "RZ"):
        return rotation_matrices(param / 2, name == "RZ")
    if name == "CNOT":
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = np.array([[0, 1], [1, 0]])
        return m
    if name in ("CRX", "CRZ"):
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = rotation_matrices(param / 2, name == "CRZ")
        return m
    raise ValueError(f"{name} has no fixed unitary")


# ---------------------------------------------------------------------------
# stack-level primitives (shape (batch, 2^n, 2^n))

def _forward_superop(operators) -> np.ndarray:
    """Liouville matrix sum_k kron(K_k, conj(K_k)) of rho -> sum_k K_k rho K_k^dag, rho flattened
    row-major (Wood, Biamonte & Cory, arXiv:1111.6950); A then B is B @ A, and the conjugate
    transpose is the adjoint O -> sum_k K_k^dag O K_k. The K_k lie on the third-last axis;
    axes before it are kept, one map per entry."""
    ks = np.asarray(operators, dtype=complex)
    d = ks.shape[-1]
    return np.einsum("...kij,...klm->...iljm", ks, ks.conj()).reshape(ks.shape[:-3] + (d * d,) * 2)


# _PAULI[a, 2r + c] = sigma_a[c, r] for sigma = (I, X, Y, Z), so _PAULI @ vec(rho) = Tr(sigma_a rho)
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


def pauli_form(stack: np.ndarray) -> np.ndarray:
    """The real (..., 2^n, 2^n) Pauli vectors s_a = Tr(sigma_a rho) of a stack of Hermitian rho,
    qubit q's Pauli index a_q = 2 h_q + l_q in its row bit h_q and column bit l_q: a Kronecker
    product of operators has the Kronecker product of their forms."""
    n = stack.shape[-1].bit_length() - 1
    for q in range(n):
        stack = apply_superop_stack(stack, _PAULI, (q,), n)
    return np.ascontiguousarray(stack.real)


def pauli_pullback(sops: np.ndarray) -> np.ndarray:
    """R^T, real, of Liouville matrices M (..., 4^k, 4^k): R = W M W^dag / 2^k, W vec(rho) =
    pauli_form(rho), is M's Pauli transfer matrix (Greenbaum, arXiv:1509.02921), and R^T pulls
    an observable's Pauli vector back through M."""
    d = math.isqrt(sops.shape[-1])
    e = np.eye(d * d).reshape(d * d, d, d)  # entry r * d + c: the basis matrix E_rc
    # row r * d + c of W^T is W vec(E_rc); pauli_form keeps its real part, and of -i E_rc
    # its imaginary part
    w = (pauli_form(e) + 1j * pauli_form(-1j * e)).reshape(d * d, -1)
    return (w.T.conj() @ np.swapaxes(sops, -1, -2) @ w).real / d


def apply_operator_stack(
    stack: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    """K rho K^dag for every state in the stack, K lifted onto `targets`."""
    return apply_superop_stack(stack, _forward_superop([mat]), targets, n_qubits)


@functools.lru_cache(maxsize=256)
def _layouts(blocks: tuple, n_qubits: int, n_lead: int) -> tuple:
    """contract_superop's axis order per (targets, leading axes of its map) block, each taken
    from the previous block's, on a stack with n_lead leading axes of n_qubits-qubit operators
    viewed as 2 x ... x 2; and the order back to the stack's. Axes a block leaves behind keep
    their order. Cached."""
    layout = list(range(n_lead + 2 * n_qubits))
    perms = []
    for targets, lead in blocks:
        front = list(range(lead)) + [n_lead + q for q in targets]
        front += [n_lead + n_qubits + q for q in targets]
        order = front + [a for a in layout if a not in front]
        perms.append(tuple(layout.index(a) for a in order))
        layout = order
    return tuple(perms), tuple(layout.index(a) for a in range(len(layout)))


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
    targets = _qubits(targets, n_qubits)
    (perm,), inverse = _layouts(((targets, sop.ndim - 2),), n_qubits, len(lead))
    t = contract_superop(stack.reshape(lead + (2,) * (2 * n_qubits)), sop, perm, len(targets))
    return t.transpose(inverse).reshape(stack.shape)


def apply_gate_stack(stack: np.ndarray, gate: GateOp, n_qubits: int) -> np.ndarray:
    return apply_operator_stack(stack, gate_matrix(gate.name, gate.param), gate.targets, n_qubits)


def apply_channel_stack(
    stack: np.ndarray, ch: KrausChannel, targets: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    if len(targets) != ch.n_qubits:
        raise ShapeError(f"channel acts on {ch.n_qubits} qubit(s), got {len(targets)} target(s)")
    return apply_superop_stack(stack, _forward_superop(ch.operators), targets, n_qubits)


def rotation_matrices(half_angles, is_z: bool) -> np.ndarray:
    """(..., 2, 2) RZ unitaries if is_z, else RX, at the given half angles; the one RX/RZ
    formula, which gate_matrix uses too."""
    c, s = np.cos(half_angles), np.sin(half_angles)
    u = np.zeros(np.shape(c) + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 1, 1] = (c - 1j * s, c + 1j * s) if is_z else (c, c)
    u[..., 0, 1] = u[..., 1, 0] = 0.0 if is_z else -1j * s
    return u


def apply_rotations_batch(
    stack: np.ndarray, name: str, qubit: int, angles: np.ndarray, n_qubits: int
) -> np.ndarray:
    """Apply RZ/RX on one qubit with a different angle per stacked state (one 4x4 map each);
    angles has the stack's leading shape."""
    name = canonical_gate_name(name)
    if name not in ("RX", "RZ"):
        raise ValueError(f"per-sample angles only supported for RX/RZ, got {name}")
    u = rotation_matrices(np.asarray(angles, dtype=float) / 2.0, name == "RZ")
    return apply_superop_stack(stack, _forward_superop(u[..., None, :, :]), (qubit,), n_qubits)


def expect_z_stack(stack: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    qubit = whole(qubit, "qubit")
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
    out = apply_channel_stack(rho.data[None], ch, targets, rho.n_qubits)
    return DensityMatrix(rho.n_qubits, out[0])


def expect_z(rho: DensityMatrix, qubit: int) -> float:
    """Tr(rho Z_qubit); the imaginary residue of the diagonal is discarded."""
    return float(expect_z_stack(rho.data[None], qubit, rho.n_qubits)[0])


def sample_shots(z: np.ndarray, shots: int, rng: np.random.Generator | None) -> np.ndarray:
    """Empirical <Z> from `shots` Bernoulli draws per entry of z, with P(+1) = (1 + z)/2
    (z itself when shots is 0)."""
    if not shots:
        return z
    if rng is None:
        raise ValueError("shot sampling needs a generator")
    p_plus = np.clip((1.0 + z) / 2.0, 0.0, 1.0)
    return 2.0 * rng.binomial(shots, p_plus) / shots - 1.0


def sample_expect_z(rho: DensityMatrix, qubit: int, shots: int, seed: int) -> float:
    """Empirical <Z> of one qubit from `shots` draws of sample_shots."""
    shots, seed = whole(shots, "shots", 1), whole(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return float(sample_shots(expect_z(rho, qubit), shots, rng))
