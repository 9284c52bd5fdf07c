"""Declarative parameterized-circuit templates.

Templates are plain data: an ordered gate list whose entries either bind a
trainable slot or carry a fixed angle. Each TemplateGate builds its
simcore.GateOp when built and keeps that gate's normal form (canonical name,
int targets, float angle), so a template that constructs also reads out, saves
and loads; from_json only parses. The shipped presets are the
non-entangling rotation circuit (pqc1), the all-to-all controlled-rotation
circuit (pqc6) and the block controlled-rotation circuit (pqc8); layer
repetition duplicates the gate list with fresh slots.

Transcription conventions for the entangling presets: pqc6 iterates controls
from the last qubit down to the first, each control hitting all other qubits
in descending order; pqc8 entangles neighbouring pairs (even-start pairs,
then odd-start pairs after the second rotation block) with the control on the
higher-indexed qubit.

apply_pqc_stack pushes states forward through every gate and Kraus operator
and is the test oracle. z_expectations reads <Z_q> in the Heisenberg picture
instead, in the Pauli basis and real arithmetic: each Z_q's Pauli vector is
pulled back over its light cone only, through fused local Pauli transfer
matrices, and contracted with the Pauli forms of the encoded states that the
cone touches. All that does not depend on theta is cached per (template, noise
entries of each gate name, factor widths) as a readout plan: the fusion blocks,
each slot-bound gate name's map as coefficients in its half angle, and each
block's axis order. A call, on one point or a stack of points, is array work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import read_json, write_json
from .encode import _check_memory, _kron_factors
from .errors import DataFormatError
from .noise import NoiseModel, noise_superop, noisy_apply_stack
from .simcore import DensityMatrix, GateOp, apply_gate_stack, gate_matrix, whole
from .simcore import _forward_superop, _layouts, contract_superop, pauli_form, pauli_pullback

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
        slot = None if self.slot is None else whole(self.slot, "slot")
        op = GateOp(self.gate, self.targets, self.angle if slot is None else 0.0)
        object.__setattr__(self, "gate", op.name)
        object.__setattr__(self, "targets", op.targets)
        object.__setattr__(self, "slot", slot)
        object.__setattr__(self, "angle", op.param if slot is None else None)


@dataclass(frozen=True)
class PqcTemplate:
    name: str
    n_qubits: int
    layers: int
    gates: tuple[TemplateGate, ...]
    param_count: int

    def __post_init__(self):
        for name, low in (("n_qubits", 1), ("layers", 1), ("param_count", 0)):
            object.__setattr__(self, name, whole(getattr(self, name), name, low))
        slots = sorted(g.slot for g in self.gates if g.slot is not None)
        if slots != list(range(self.param_count)):
            raise ValueError(
                f"template {self.name}: slots {slots} are not 0..{self.param_count - 1} "
                "each used exactly once"
            )
        for g in self.gates:
            if any(q >= self.n_qubits for q in g.targets):
                raise ValueError(f"template {self.name}: targets {g.targets} out of range")
        # the readout's cache keys compare and hash these plain tuples, built once
        key = (self.name, self.n_qubits, self.layers, self.param_count,
               tuple((g.gate, g.targets, g.slot, g.angle) for g in self.gates))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_names", tuple(dict.fromkeys(g.gate for g in self.gates)))

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, PqcTemplate) else NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt through __init__, so a pool worker hashes it afresh
        return PqcTemplate, (self.name, self.n_qubits, self.layers, self.gates, self.param_count)

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
                    targets=e["targets"],
                    slot=e.get("slot"),
                    angle=e.get("angle"),
                )
                for e in raw["gates"]
            )
            return cls(
                name=raw["name"],
                n_qubits=raw["n_qubits"],
                layers=raw["layers"],
                gates=gates,
                param_count=raw["param_count"],
            )
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


_LAYER_BUILDERS = {"pqc1": _rotation_columns, "pqc6": _layer_pqc6, "pqc8": _layer_pqc8}


def build_template(name: str, n_qubits: int, layers: int = 1) -> PqcTemplate:
    """Instantiate a preset for a register size, repeating layers with fresh slots."""
    if name not in PRESETS:
        raise ValueError(f"unknown template {name!r}; presets are {PRESETS}")
    # checked before any gate is built; pqc6 and pqc8 layers entangle qubit pairs
    n_qubits = whole(n_qubits, "n_qubits", 2 if name in ("pqc6", "pqc8") else 1)
    layers = whole(layers, "layers", 1)
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
    return [GateOp(g.gate, g.targets, g.angle if g.slot is None else theta[g.slot])
            for g in tpl.gates]


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


# the half angles a at which _trig_coefficients samples a gate's map, and the DFT that takes
# five samples to the coefficients of 1, cos a, sin a, cos 2a, sin 2a
_SAMPLES = 2 * np.pi * np.arange(5) / 5
_DFT = np.vstack([np.full(5, 0.2)]
                 + [0.4 * f(j * _SAMPLES) for j in (1, 2) for f in (np.cos, np.sin)])


def _trig_coefficients(name: str, noise) -> np.ndarray:
    """(5, 16^k) C, pauli_pullback(noise @ _forward_superop([U(theta)])) = sum_j C[j] f_j(theta/2).

    f is (1, cos, sin, cos 2., sin 2.): U's entries are 1 or linear in cos a and sin a of
    the half angle a, so each entry of the map is a trigonometric polynomial of degree 2
    in a (the structure of Mitarai et al., arXiv:1803.00745, and Rotosolve, Ostaszewski
    et al., arXiv:1905.09692), which five equispaced samples fix exactly.
    """
    samples = _forward_superop([[gate_matrix(name, 2.0 * a)] for a in _SAMPLES])
    if noise is not None:
        samples = noise @ samples
    return np.tensordot(_DFT, pauli_pullback(samples), axes=1).reshape(5, -1)


def _rotation_maps(points: np.ndarray, rotations: tuple) -> dict:
    """name -> (P, G, 4^k, 4^k) pull-back maps of its G gates at (P, param_count) points, from
    the plan's (name, slots, _trig_coefficients); one cos, one sin, one matmul per name."""
    angles = points[..., None] * (0.5, 1.0)  # a and 2a
    basis = np.ones(points.shape + (5,))
    basis[..., 1::2] = np.cos(angles)
    basis[..., 2::2] = np.sin(angles)
    return {name: (basis[:, slots] @ coeffs).reshape(
        (len(points), len(slots)) + (math.isqrt(coeffs.shape[-1]),) * 2)
        for name, slots, coeffs in rotations}


# Peak memory of a readout group as a multiple of its real observable and state stacks;
# tracemalloc measured at most 3.16x for dense pqc6 and pqc8 (6-7 qubits, P = 1, 2, one row),
# where the observables are live three times over in a contraction and the maps add the rest
_READOUT_PEAK = 3.2
_CHECK_FLOOR = 1 << 26  # bytes below which a readout skips the memory-limit lookup


@functools.lru_cache(maxsize=64)
def _light_cones(tpl: PqcTemplate, widths: tuple) -> tuple:
    """(span, qubits, gates) per register of the Z_q light cones on widths-qubit factors.

    Walking the gates from last to first, a gate that touches Z_q's cone joins it with
    all its targets; any other gate drops out, as every pulled-back map fixes the
    identity (Farhi, Goldstone & Gutmann, arXiv:1411.4028). A register is the factors
    (span) a cone touches; gates are those in any of its cones, last first. Cached.
    """
    owner = np.repeat(np.arange(len(widths)), widths)  # qubit -> its factor
    spans: dict[tuple, tuple] = {}
    for q in range(tpl.n_qubits):
        cone, chosen = {q}, set()
        for i in reversed(range(len(tpl.gates))):
            if cone.intersection(tpl.gates[i].targets):
                cone.update(tpl.gates[i].targets)
                chosen.add(i)
        qubits, union = spans.setdefault(tuple(sorted({int(owner[w]) for w in cone})), ([], set()))
        qubits.append(q)
        union |= chosen
    return tuple((span, tuple(qubits), sorted(union, reverse=True))
                 for span, (qubits, union) in spans.items())


def _fuse(gates) -> list:
    """(targets, factors) blocks of (targets, factor) gates given in pull-back order:
    consecutive single-qubit gates on a qubit join one block, which closes just before a
    two-qubit gate touches the qubit or at the end."""
    blocks, pending = [], {}  # pending: qubit -> its open single-qubit block
    for targets, factor in gates:
        if len(targets) == 1:
            pending.setdefault(targets[0], []).append(factor)
            continue
        blocks += [((q,), tuple(pending.pop(q))) for q in targets if q in pending]
        blocks.append((targets, (factor,)))
    return blocks + [((q,), tuple(block)) for q, block in pending.items()]


def _noise_entries(tpl: PqcTemplate, model: NoiseModel | None) -> tuple:
    """The readout plan's noise key: the model's entries for each distinct gate name of tpl."""
    return () if model is None else tuple(model.entries_for(name) for name in tpl._names)


@functools.lru_cache(maxsize=64)
def _readout_plan(tpl: PqcTemplate, entries: tuple, widths: tuple) -> tuple:
    """The pull-back of tpl under the noise entries of _noise_entries; cached.

    Each register of _light_cones pulls its Z_q back through its gates, fused into
    blocks. Registers of equal factor widths and block shapes form a group, pulled
    back as one stack. Returns _rotation_maps' (name, slots, coefficients) per gate name,
    and per group (qubits, the diagonals of their Z_q's Pauli vectors, the factor indices
    of their registers (one row if all equal), blocks, the final order of simcore._layouts
    on the (P, G, 2, ..., 2) observables). A block is (its contract_superop order, arity,
    factors); a factor is a fixed pull-back map, or (name, index into the per-call rotation
    maps); if the group's registers differ, with a group axis.
    """
    noise_of = dict(zip(tpl._names, entries))
    slot_gates: dict[str, tuple] = {}  # gate name -> (its noise, the slots of its gates)
    maps = []
    for gate in tpl.gates:
        noise = noise_superop(noise_of.get(gate.gate, ()), len(gate.targets))
        if gate.slot is None:
            sop = _forward_superop([gate_matrix(gate.gate, gate.angle)])
            sop = pauli_pullback(sop if noise is None else noise @ sop)
            sop.setflags(write=False)
            maps.append(sop)
        else:
            slots = slot_gates.setdefault(gate.gate, (noise, []))[1]
            maps.append((gate.gate, len(slots)))
            slots.append(gate.slot)
    first = np.cumsum((0,) + widths)
    registers: dict[tuple, list] = {}
    for span, qubits, chosen in _light_cones(tpl, widths):
        local = {w: i for i, w in enumerate(w for f in span for w in range(first[f], first[f + 1]))}
        blocks = _fuse([(tuple(local[w] for w in tpl.gates[i].targets), maps[i]) for i in chosen])
        shape = tuple((t, tuple(isinstance(f, tuple) for f in fs)) for t, fs in blocks)
        m = len(local)  # Z_w's Pauli vector: one-hot on the diagonal, at w's bit
        ones = np.eye(1 << m)[1 << (m - 1 - np.arange(m))]
        registers.setdefault((tuple(widths[f] for f in span), shape), []).extend(
            (q, ones[local[q]], span, blocks) for q in qubits)
    groups = []
    for members in registers.values():
        qubits, diags, spans, member_blocks = zip(*sorted(members))  # qubits ascending
        blocks = member_blocks[0]
        differ = any(mb is not blocks for mb in member_blocks)
        if differ:  # (P or 1, G, d, d) maps
            blocks = tuple((t, tuple(
                (f[0], np.array([mb[b][1][i][1] for mb in member_blocks])) if isinstance(f, tuple)
                else np.stack([mb[b][1][i] for mb in member_blocks])[None]
                for i, f in enumerate(fs))) for b, (t, fs) in enumerate(blocks))
        leads = tuple((t, 2 if differ else int(any(isinstance(f, tuple) for f in fs)))
                      for t, fs in blocks)
        perms, final = _layouts(leads, len(diags[0]).bit_length() - 1, 2)
        blocks = tuple((perm, len(t), fs) for perm, (t, fs) in zip(perms, blocks))
        span = np.array(spans[:1] if len(set(spans)) == 1 else spans)
        groups.append((np.array(qubits), np.array(diags), span, blocks, final))
    rotations = tuple((name, np.array(slots, dtype=np.intp), _trig_coefficients(name, noise))
                      for name, (noise, slots) in slot_gates.items())
    return rotations, tuple(groups)


def _check_readout(n_points: int, n_obs: int, n_wires: int, rows: int) -> None:
    """Refuse a readout whose real (P, G, D, D) observables and (rows, D, D) states cannot fit."""
    need = _READOUT_PEAK * 8 * 4**n_wires * (n_points * n_obs + rows)
    if need > _CHECK_FLOOR:
        _check_memory(need, f"reading out {n_obs} observables on {n_wires} qubits")


def _widths(factors: tuple) -> tuple:
    return tuple(f.shape[-1].bit_length() - 1 for f in factors)


def _readout_factors(factors: tuple, tpl: PqcTemplate) -> tuple:
    """A factored stack as tpl's readout (_pull_back) takes it: each factor's Pauli form,
    expanded once into one dense factor when some light cone spans every factor (pqc6)."""
    factors = tuple(map(pauli_form, factors))
    if len(factors) > 1 and any(
            len(span) == len(factors) for span, _, _ in _light_cones(tpl, _widths(factors))):
        _check_readout(1, tpl.n_qubits, tpl.n_qubits, max(map(len, factors)))
        return (_kron_factors(factors),)
    return factors


def _stack_rows(arrays: list) -> np.ndarray:
    """The (G, B, d, d) stack of (B or 1, d, d) arrays; one-row arrays broadcast."""
    out = np.empty((len(arrays), max(map(len, arrays))) + arrays[0].shape[1:])
    for g, a in enumerate(arrays):
        out[g] = a
    return out


def z_expectations(
    factors: tuple, tpl: PqcTemplate, theta: np.ndarray, model: NoiseModel | None = None
) -> np.ndarray:
    """(..., B, n) <Z_q> of the template's output for every row of a factored stack
    (quidlab.encode), at theta (param_count,) or a stack (..., param_count) of points; the
    classifier converts once per encode (_readout_factors) and calls _pull_back itself."""
    return _pull_back(tuple(map(pauli_form, factors)), tpl, theta, model)


def _pull_back(factors: tuple, tpl: PqcTemplate, theta, model: NoiseModel | None) -> np.ndarray:
    """z_expectations on factors in Pauli form (simcore.pauli_form), in real arithmetic.

    Heisenberg picture (Nielsen & Chuang, section 8.2): walking the gates from last to
    first, Z_q's Pauli vector passes through R^T, R the real 4x4 or 16x16 Pauli transfer
    matrix of a gate and its after-gate noise (simcore.pauli_pullback), to o_q; each plan
    block is one contraction for all points (simcore.contract_superop). Then z_q = <o_q, s>,
    s = ⊗_{f in span} s_f: pqc1 reads 2x2 forms against one-qubit angle factors.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 0 or theta.shape[-1] != tpl.param_count:
        raise ValueError(
            f"template {tpl.name} expects {tpl.param_count} parameters, got {theta.shape}"
        )
    widths = _widths(factors)
    if sum(widths) != tpl.n_qubits:
        raise ValueError(f"states have {sum(widths)} qubits but template wants {tpl.n_qubits}")
    points = theta.reshape((math.prod(theta.shape[:-1]), tpl.param_count))
    rotations, groups = _readout_plan(tpl, _noise_entries(tpl, model), widths)
    rotation = _rotation_maps(points, rotations)
    rows = max(map(len, factors))
    z = np.empty((len(points), rows, tpl.n_qubits))
    for qubits, diag, span, blocks, final in groups:
        n_obs, dim = diag.shape
        m = dim.bit_length() - 1
        _check_readout(len(points), n_obs, m, rows * len(span))
        obs = np.zeros((len(points), n_obs, dim * dim))
        obs[:, :, :: dim + 1] = diag
        obs = obs.reshape((len(points), n_obs) + (2,) * (2 * m))
        for perm, k, maps in blocks:
            sop = None
            for f in maps:
                f = rotation[f[0]][:, f[1]] if isinstance(f, tuple) else f
                sop = f if sop is None else f @ sop
            obs = contract_superop(obs, sop, perm, k)
        flat = obs.transpose(final).reshape(len(points), n_obs, dim * dim)
        if len(span) == 1:  # every register of the group is the same factors
            states = _kron_factors([factors[f] for f in span[0]])
            z_group = states.reshape(len(states), -1) @ flat.swapaxes(1, 2)  # a product per point
        else:
            states = _kron_factors([_stack_rows([factors[f] for f in col]) for col in span.T])
            z_group = (states.reshape(states.shape[:2] + (-1,)) @ flat[..., None])[..., 0]
            z_group = z_group.swapaxes(1, 2)
        if len(groups) == 1:  # its qubits are 0..n-1 in order
            return z_group.reshape(theta.shape[:-1] + z.shape[1:])
        z[:, :, qubits] = z_group
    return z.reshape(theta.shape[:-1] + z.shape[1:])


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
