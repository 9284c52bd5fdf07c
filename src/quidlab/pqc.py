"""Declarative parameterized-circuit templates.

Templates are plain data: an ordered gate list whose entries either bind a
trainable slot or carry a fixed angle. The shipped presets are the
non-entangling rotation circuit (pqc1), the all-to-all controlled-rotation
circuit (pqc6) and the block controlled-rotation circuit (pqc8); layer
repetition duplicates the gate list with fresh slots.

Transcription conventions for the entangling presets: pqc6 iterates controls
from the last qubit down to the first, each control hitting all other qubits
in descending order; pqc8 entangles neighbouring pairs (even-start pairs,
then odd-start pairs after the second rotation block) with the control on the
higher-indexed qubit.

apply_pqc_stack pushes states forward through every gate and Kraus operator
and is the test oracle. z_observables pulls the Z observables back through
fused local adjoint superoperators instead. What does not depend on theta is
decided once per (template, noise entries of each gate) and cached as a
readout plan: the contraction blocks, the slot of every gate, the noise
halves, and the whole maps of gates without a slot. A call takes one point or
a stack of points, builds the U(theta) halves of every slot-bound gate at
every point in one vectorised step, and makes one contraction per block for
all points at once.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import read_json, write_json
from .errors import DataFormatError
from .noise import NoiseModel, adjoint_noise_superop, noisy_apply_stack
from .simcore import DensityMatrix, GateOp, apply_gate_stack, gate_matrix
from .simcore import adjoint_superop, apply_superop_stack

PRESETS = ("pqc1", "pqc6", "pqc8")


@dataclass(frozen=True)
class TemplateGate:
    gate: str
    targets: tuple[int, ...]
    slot: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.slot is not None and self.angle is not None:
            raise ValueError("a template gate binds a slot or a fixed angle, not both")
        if self.slot is not None and (
            isinstance(self.slot, bool) or not isinstance(self.slot, numbers.Integral)
        ):
            raise ValueError(f"slot {self.slot!r} is not an integer")
        if self.angle is not None and (
            isinstance(self.angle, bool) or not isinstance(self.angle, numbers.Real)
            or not math.isfinite(self.angle)
        ):
            raise ValueError(f"fixed angle {self.angle!r} is not a finite number")


@dataclass(frozen=True)
class PqcTemplate:
    name: str
    n_qubits: int
    layers: int
    gates: tuple[TemplateGate, ...]
    param_count: int

    def __post_init__(self):
        slots = sorted(g.slot for g in self.gates if g.slot is not None)
        if slots != list(range(self.param_count)):
            raise ValueError(
                f"template {self.name}: slots {slots} are not 0..{self.param_count - 1} "
                "each used exactly once"
            )
        for g in self.gates:
            if any(q >= self.n_qubits for q in g.targets):
                raise ValueError(f"template {self.name}: targets {g.targets} out of range")

    def to_json(self) -> dict:
        entries = []
        for g in self.gates:
            e: dict = {"gate": g.gate, "targets": list(g.targets)}
            if g.slot is not None:
                e["slot"] = g.slot
            if g.angle is not None:
                e["angle"] = g.angle
            entries.append(e)
        return {
            "name": self.name,
            "n_qubits": self.n_qubits,
            "layers": self.layers,
            "param_count": self.param_count,
            "gates": entries,
        }

    @classmethod
    def from_json(cls, raw: dict) -> "PqcTemplate":
        try:
            gates = tuple(
                TemplateGate(
                    gate=e["gate"],
                    targets=tuple(e["targets"]),
                    slot=e.get("slot"),
                    angle=e.get("angle"),
                )
                for e in raw["gates"]
            )
            tpl = cls(
                name=raw["name"],
                n_qubits=int(raw["n_qubits"]),
                layers=int(raw["layers"]),
                gates=gates,
                param_count=int(raw["param_count"]),
            )
            bound_gates(tpl, np.zeros(tpl.param_count))  # unknown gate names, bad arities
            return tpl
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed template registry entry: {exc}") from exc


def save_template(tpl: PqcTemplate, path) -> None:
    write_json(path, tpl.to_json())


def load_template(path) -> PqcTemplate:
    return PqcTemplate.from_json(read_json(path))


def _rotation_columns(n: int, start: int) -> tuple[list[TemplateGate], int]:
    gates = [TemplateGate("RX", (q,), slot=start + q) for q in range(n)]
    gates += [TemplateGate("RZ", (q,), slot=start + n + q) for q in range(n)]
    return gates, start + 2 * n


def _layer_pqc1(n: int, start: int) -> tuple[list[TemplateGate], int]:
    return _rotation_columns(n, start)


def _layer_pqc6(n: int, start: int) -> tuple[list[TemplateGate], int]:
    gates, slot = _rotation_columns(n, start)
    for control in range(n - 1, -1, -1):
        for target in range(n - 1, -1, -1):
            if target == control:
                continue
            gates.append(TemplateGate("CRX", (control, target), slot=slot))
            slot += 1
    more, slot = _rotation_columns(n, slot)
    return gates + more, slot


def _layer_pqc8(n: int, start: int) -> tuple[list[TemplateGate], int]:
    gates, slot = _rotation_columns(n, start)
    for q in range(0, n - 1, 2):
        gates.append(TemplateGate("CRX", (q + 1, q), slot=slot))
        slot += 1
    more, slot = _rotation_columns(n, slot)
    gates += more
    for q in range(1, n - 1, 2):
        gates.append(TemplateGate("CRX", (q + 1, q), slot=slot))
        slot += 1
    return gates, slot


_LAYER_BUILDERS = {"pqc1": _layer_pqc1, "pqc6": _layer_pqc6, "pqc8": _layer_pqc8}


def build_template(name: str, n_qubits: int, layers: int = 1) -> PqcTemplate:
    """Instantiate a preset for a register size, repeating layers with fresh slots."""
    if name not in PRESETS:
        raise ValueError(f"unknown template {name!r}; presets are {PRESETS}")
    if layers < 1:
        raise ValueError("layers must be positive")
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    if name in ("pqc6", "pqc8") and n_qubits < 2:
        raise ValueError(f"{name} entangles qubit pairs; needs n_qubits >= 2")
    gates: list[TemplateGate] = []
    slot = 0
    for _ in range(layers):
        layer_gates, slot = _LAYER_BUILDERS[name](n_qubits, slot)
        gates += layer_gates
    return PqcTemplate(name, n_qubits, layers, tuple(gates), slot)


def bound_gates(tpl: PqcTemplate, theta: np.ndarray) -> list[GateOp]:
    """The template's gate list with slots bound to concrete angles."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (tpl.param_count,):
        raise ValueError(
            f"template {tpl.name} expects {tpl.param_count} parameters, got {theta.shape}"
        )
    ops = []
    for g in tpl.gates:
        if g.slot is not None:
            ops.append(GateOp(g.gate, g.targets, float(theta[g.slot])))
        elif g.angle is not None:
            ops.append(GateOp(g.gate, g.targets, g.angle))
        else:
            ops.append(GateOp(g.gate, g.targets))
    return ops


def apply_pqc_stack(
    stack: np.ndarray,
    tpl: PqcTemplate,
    theta: np.ndarray,
    model: NoiseModel | None = None,
) -> np.ndarray:
    n = tpl.n_qubits
    for op in bound_gates(tpl, theta):
        if model is None:
            stack = apply_gate_stack(stack, op, n)
        else:
            stack = noisy_apply_stack(stack, op, model, n)
    return stack


def _rotation_halves(half_angles, arity, slots, is_z, noise) -> np.ndarray:
    """(P, G, 4^k, 4^k) adjoint Liouville maps, U-half then noise half, at every point.

    The G gates are one arity's slot-bound rotations (1: RX/RZ, 2: CRX/CRZ): slots[g]
    is the slot gate g reads, is_z[g] whether it is RZ/CRZ, and noise the stack of
    their adjoint noise halves (identity for none), or None when no gate has noise.
    """
    angle = half_angles[:, slots]
    c, s = np.cos(angle), np.sin(angle)
    u = np.zeros(angle.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = np.where(is_z, c - 1j * s, c)
    u[..., 1, 1] = np.where(is_z, c + 1j * s, c)
    u[..., 0, 1] = u[..., 1, 0] = np.where(is_z, 0.0, -1j * s)
    if arity == 2:  # controlled: the rotation acts on the control's |1> block
        controlled = np.zeros(angle.shape + (4, 4), dtype=complex)
        controlled[..., 0, 0] = controlled[..., 1, 1] = 1.0
        controlled[..., 2:, 2:] = u
        u = controlled
    d = u.shape[-1]
    sop = np.einsum("...pr,...qc->...rcpq", u.conj(), u).reshape(angle.shape + (d * d, d * d))
    return sop if noise is None else sop @ noise


@functools.lru_cache(maxsize=None)
def _z_signs(n: int) -> np.ndarray:
    """(n, 2^n) read-only diagonals of Z_0..Z_{n-1}; small, so cached per register size."""
    dim = 1 << n
    signs = 1.0 - 2.0 * ((np.arange(dim) >> (n - 1 - np.arange(n))[:, None]) & 1)
    signs.setflags(write=False)
    return signs


@functools.lru_cache(maxsize=64)
def _readout_plan(tpl: PqcTemplate, entries: tuple) -> tuple:
    """The pull-back of tpl with entries[i] the noise entries after gate i; cached.

    Walking the gates from last to first, consecutive single-qubit gates on a qubit
    join one block; a qubit's open block closes just before a two-qubit gate
    touches that qubit, and the rest close at the end. Gates without a slot do not
    depend on theta, so their maps are built here. Returns (rotations, blocks): the
    (arity, slots, is_z, noise) arguments of _rotation_halves for each arity that
    has slot-bound gates, and (targets, factors) per contraction in pull-back
    order, where a factor is a fixed read-only map or (arity, index) into that
    arity's per-call halves. The dense Z_q stack is built per call from _z_signs.
    """
    ops = bound_gates(tpl, np.zeros(tpl.param_count))  # validates names and arities
    groups: dict[int, list] = {1: [], 2: []}  # arity -> (slot, is_z, noise half) per slot gate
    blocks = []
    pending: dict[int, list] = {}  # qubit -> its open single-qubit block
    for gate, op, gate_entries in reversed(list(zip(tpl.gates, ops, entries))):
        k = len(op.targets)
        noise = adjoint_noise_superop(gate_entries, k)
        if gate.slot is None:
            factor = adjoint_superop((gate_matrix(op.name, op.param),))
            factor = factor if noise is None else factor @ noise
            factor.setflags(write=False)
        else:
            factor = (k, len(groups[k]))
            groups[k].append((gate.slot, op.name.endswith("Z"), noise))
        if k == 1:
            pending.setdefault(op.targets[0], []).append(factor)
            continue
        blocks += [((q,), tuple(pending.pop(q))) for q in op.targets if q in pending]
        blocks.append((op.targets, (factor,)))
    blocks += [((q,), tuple(block)) for q, block in pending.items()]
    rotations = []
    for k, group in groups.items():
        if group:
            slots, is_z, noises = zip(*group)
            eye = np.eye(4**k, dtype=complex)
            noise = None if all(x is None for x in noises) else np.stack(
                [eye if x is None else x for x in noises])
            rotations.append((k, np.array(slots, dtype=np.intp), np.array(is_z), noise))
    return tuple(rotations), tuple(blocks)


def z_observables(
    tpl: PqcTemplate, theta: np.ndarray, model: NoiseModel | None = None
) -> np.ndarray:
    """The (..., n, 2^n, 2^n) Z_q observables pulled back through the template.

    theta is one point (param_count,) or a stack (..., param_count) of them.
    Heisenberg picture (Nielsen & Chuang, section 8.2): walking the gates from
    last to first, each observable O passes through the adjoint of the gate's
    after-gate noise and then through U^dag O U. Tr(rho O_q) is then <Z_q> of
    the template's output for any input state rho.

    Each gate's adjoint is one local Liouville matrix, 4x4 or 16x16. The cached
    plan (_readout_plan) fixes the blocks, each one contraction; per call, the
    U(theta) halves of every slot-bound gate at every point are built in one
    vectorised step and multiplied within their blocks. pqc1 at n qubits makes n
    contractions, each for all points at once.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 0 or theta.shape[-1] != tpl.param_count:
        raise ValueError(
            f"template {tpl.name} expects {tpl.param_count} parameters, got {theta.shape}"
        )
    points = theta.reshape((math.prod(theta.shape[:-1]), tpl.param_count))
    entries = tuple(() if model is None else model.entries_for(g.gate) for g in tpl.gates)
    rotations, blocks = _readout_plan(tpl, entries)
    halves = {rot[0]: _rotation_halves(0.5 * points, *rot) for rot in rotations}
    n = tpl.n_qubits
    dim = 1 << n
    observables = np.zeros((n, dim, dim), dtype=complex)
    observables.reshape(n, -1)[:, :: dim + 1] = _z_signs(n)  # the diagonals
    obs = np.broadcast_to(observables, (len(points),) + observables.shape)
    for targets, factors in blocks:
        sop = None
        for f in factors:
            f = halves[f[0]][:, f[1]] if isinstance(f, tuple) else f
            sop = f if sop is None else f @ sop
        obs = apply_superop_stack(obs, sop, targets, n)
    if not blocks:
        obs = obs.copy()
    return obs.reshape(theta.shape[:-1] + obs.shape[1:])


def apply_pqc(
    rho: DensityMatrix,
    tpl: PqcTemplate,
    theta: np.ndarray,
    model: NoiseModel | None = None,
) -> DensityMatrix:
    """Run the template's gates in order with slot i bound to theta[i]."""
    if rho.n_qubits != tpl.n_qubits:
        raise ValueError(
            f"state has {rho.n_qubits} qubits but template wants {tpl.n_qubits}"
        )
    out = apply_pqc_stack(rho.data[None], tpl, theta, model)
    return DensityMatrix(rho.n_qubits, out[0])
