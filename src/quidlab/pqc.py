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
fused local adjoint superoperators instead; their noise half is cached per
noise-entry tuple in noise.py, so a pull-back builds only the U(theta) half.
"""

from __future__ import annotations

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


def z_observables(
    tpl: PqcTemplate, theta: np.ndarray, model: NoiseModel | None = None
) -> np.ndarray:
    """The (n, 2^n, 2^n) stack of Z_q observables pulled back through the template.

    Heisenberg picture (Nielsen & Chuang, section 8.2): walking the gates from
    last to first, each observable O passes through the adjoint of the gate's
    after-gate noise and then through U^dag O U. Tr(rho O_q) is then <Z_q> of
    the template's output for any input state rho.

    Each gate's adjoint is one local Liouville matrix, 4x4 or 16x16: the U(theta)
    half is built per call and the noise half comes from a cache keyed by the
    gate's noise entries. Consecutive single-qubit maps on a qubit are multiplied
    into one; a qubit's pending map is applied just before a two-qubit gate
    touches that qubit, and the rest at the end. pqc1 at n qubits thus makes n
    contractions.
    """
    n = tpl.n_qubits
    dim = 1 << n
    bits = (np.arange(dim) >> (n - 1 - np.arange(n))[:, None]) & 1
    obs = np.zeros((n, dim, dim), dtype=complex)
    obs[:, np.arange(dim), np.arange(dim)] = 1.0 - 2.0 * bits
    pending: dict[int, np.ndarray] = {}  # qubit -> fused single-qubit map not yet applied
    for op in reversed(bound_gates(tpl, theta)):
        sop = adjoint_superop((gate_matrix(op.name, op.param),))
        if model is not None:
            noise = adjoint_noise_superop(model.entries_for(op.name), len(op.targets))
            if noise is not None:
                sop = sop @ noise
        if len(op.targets) == 1:
            (q,) = op.targets
            pending[q] = sop @ pending[q] if q in pending else sop
            continue
        for q in op.targets:
            if q in pending:
                obs = apply_superop_stack(obs, pending.pop(q), (q,), n)
        obs = apply_superop_stack(obs, sop, op.targets, n)
    for q, sop in pending.items():
        obs = apply_superop_stack(obs, sop, (q,), n)
    return obs


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
