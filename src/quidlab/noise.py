"""Noise channels and per-gate noise models.

A NoiseModel maps lowercase gate names to a tuple of (channel kind, parameter)
entries; gates without an entry fall back to the model default. The model is
the one check of its entries: keys are lowercase simcore gate names, kinds
come from CHANNEL_KINDS and parameters are real numbers in [0, 1], not
booleans. load_noise_model checks only the file's JSON shape, then builds one.
noisy_apply_stack runs the gate on a stack and then feeds every touched qubit
through the listed channels in order, which mirrors a simulator that injects
noise after each gate. Two-qubit gates get independent single-qubit noise on
each touched qubit. Channels and their composed map (noise_superop) are built
once per entry tuple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import read_json
from .errors import DataFormatError
from .simcore import GATE_ARITY, GateOp, KrausChannel, finite
from .simcore import _forward_superop, apply_channel_stack, apply_gate_stack

CHANNEL_KINDS = ("amplitude_damping", "depolarizing")


def amplitude_damping(gamma: float) -> KrausChannel:
    """Decay channel: K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma)|0><1|."""
    gamma = finite(gamma, "gamma", 0, 1)
    k0 = [[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]
    k1 = [[0.0, math.sqrt(gamma)], [0.0, 0.0]]
    return KrausChannel([k0, k1])


def depolarizing(p: float) -> KrausChannel:
    """rho -> (1-p) rho + p I/2 via the Kraus set {I, X, Y, Z} weighted by p."""
    p = finite(p, "p", 0, 1)
    wi, wp = math.sqrt(1.0 - 3.0 * p / 4.0), math.sqrt(p / 4.0)
    ki = [[wi, 0.0], [0.0, wi]]
    kx = [[0.0, wp], [wp, 0.0]]
    ky = [[0.0, -1j * wp], [1j * wp, 0.0]]
    kz = [[wp, 0.0], [0.0, -wp]]
    return KrausChannel([ki, kx, ky, kz])


def build_channel(kind: str, param: float) -> KrausChannel:
    if kind == "amplitude_damping":
        return amplitude_damping(param)
    if kind == "depolarizing":
        return depolarizing(param)
    raise ValueError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")


@functools.lru_cache(maxsize=64)
def channels_for_entries(entries: tuple[tuple[str, float], ...]) -> tuple[KrausChannel, ...]:
    """Built channels for an entry tuple, skipping zero-strength entries; cached per tuple."""
    return tuple(build_channel(kind, param) for kind, param in entries if param > 0.0)


@functools.lru_cache(maxsize=64)
def noise_superop(entries: tuple[tuple[str, float], ...], arity: int) -> np.ndarray | None:
    """Read-only Liouville matrix of a gate's after-gate noise; cached.

    The gate touches `arity` qubits and each gets the entries' channels in order, as in
    noisy_apply_stack; the matrix is 4^arity square, real when it has no imaginary part
    (as for both channel kinds). None when no channel applies.
    """
    channels = channels_for_entries(entries)
    if not channels:
        return None
    sop = np.eye(4**arity, dtype=complex)
    for slot in range(arity):
        left, right = np.eye(1 << slot), np.eye(1 << (arity - 1 - slot))
        for ch in channels:
            lifted = [np.kron(np.kron(left, k), right) for k in ch.operators]
            sop = _forward_superop(lifted) @ sop
    sop = sop if sop.imag.any() else sop.real
    sop.setflags(write=False)
    return sop


def _checked_entries(key, entries) -> tuple[tuple[str, float], ...]:
    """entries as (kind, float parameter) pairs; ValueError naming key for a bad kind or value."""
    checked = []
    for kind, param in entries:
        if kind not in CHANNEL_KINDS:
            raise ValueError(f"entry {key!r} names unknown channel {kind!r}")
        checked.append((kind, finite(param, f"entry {key!r} parameter", 0, 1)))
    return tuple(checked)


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate noise: lowercase gate name -> ((kind, parameter), ...)."""

    per_gate: dict[str, tuple[tuple[str, float], ...]] = field(default_factory=dict)
    default: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        gates = {name.lower() for name in GATE_ARITY}
        for name in self.per_gate:
            if name not in gates:
                raise ValueError(f"unknown gate key {name!r}; expected one of {sorted(gates)}")
        # entry tuples key the channel caches, so lists given by a caller become tuples
        object.__setattr__(self, "per_gate", {
            name: _checked_entries(name, entries) for name, entries in self.per_gate.items()
        })
        object.__setattr__(self, "default", _checked_entries("default", self.default))

    @classmethod
    def from_error_rate(cls, p: float) -> "NoiseModel":
        """Amplitude damping then depolarizing after every gate, both at p."""
        return cls(default=(("amplitude_damping", p), ("depolarizing", p)))

    def entries_for(self, gate_name: str) -> tuple[tuple[str, float], ...]:
        return self.per_gate.get(gate_name.lower(), self.default)

    def channels_for(self, gate_name: str) -> tuple[KrausChannel, ...]:
        """Built channels for a gate, skipping zero-strength entries."""
        return channels_for_entries(self.entries_for(gate_name))


def noisy_apply_stack(stack, gate: GateOp, model: NoiseModel, n_qubits: int):
    out = apply_gate_stack(stack, gate, n_qubits)
    channels = model.channels_for(gate.name)
    for qubit in gate.targets:
        for ch in channels:
            out = apply_channel_stack(out, ch, (qubit,), n_qubits)
    return out


def load_noise_model(path) -> NoiseModel:
    """Read the JSON noise-model file format (see README); NoiseModel checks the entries."""
    raw = read_json(path)
    for key, value in raw.items():
        if not (isinstance(value, list)
                and all(isinstance(item, list) and len(item) == 2 for item in value)):
            raise DataFormatError(f"{path}: entry {key!r} must be an array of "
                                  "[channel, parameter] pairs")
    try:
        return NoiseModel(per_gate={k: v for k, v in raw.items() if k != "default"},
                          default=raw.get("default", ()))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
