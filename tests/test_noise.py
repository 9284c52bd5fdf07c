import json

import numpy as np
import pytest

from conftest import basis_stack, random_density_matrix
from quidlab.errors import DataFormatError
from quidlab.noise import (
    NoiseModel,
    amplitude_damping,
    build_channel,
    depolarizing,
    load_noise_model,
    noise_superop,
    noisy_apply_stack,
)
from quidlab.simcore import GateOp, apply_channel_stack, apply_gate_stack, expect_z_stack


def test_amplitude_damping_limits(rng):
    rho = random_density_matrix(rng, 1)[None]
    assert np.allclose(apply_channel_stack(rho, amplitude_damping(0.0), (0,), 1), rho, atol=1e-15)
    out = apply_channel_stack(basis_stack(1, 1), amplitude_damping(1.0), (0,), 1)
    assert np.allclose(out[0], np.diag([1.0, 0.0]), atol=1e-12)
    out = apply_channel_stack(basis_stack(1, 1), amplitude_damping(0.05), (0,), 1)
    assert expect_z_stack(out, 0, 1)[0] == pytest.approx(2 * 0.05 - 1, abs=1e-12)


def test_depolarizing_limits(rng):
    rho = random_density_matrix(rng, 1)[None]
    assert np.allclose(apply_channel_stack(rho, depolarizing(0.0), (0,), 1), rho, atol=1e-15)
    out = apply_channel_stack(rho, depolarizing(1.0), (0,), 1)
    assert np.allclose(out[0], np.eye(2) / 2, atol=1e-12)
    out = apply_channel_stack(basis_stack(1, 0), depolarizing(0.05), (0,), 1)
    assert np.allclose(np.diag(out[0]).real, [0.975, 0.025], atol=1e-12)


def test_depolarizing_matches_convex_form(rng):
    # Kraus set realizes (1-p) rho + p I/2 exactly
    for p in (0.1, 0.37, 0.9):
        rho = random_density_matrix(rng, 1)
        out = apply_channel_stack(rho[None], depolarizing(p), (0,), 1)
        assert np.allclose(out[0], (1 - p) * rho + p * np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("kind", ["amplitude_damping", "depolarizing"])
def test_kraus_completeness_over_parameter_grid(kind):
    for p in np.linspace(0.0, 1.0, 21):
        ch = build_channel(kind, float(p))
        total = sum(k.conj().T @ k for k in ch.operators)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-10


def test_parameter_range_errors():
    with pytest.raises(ValueError):
        amplitude_damping(-0.1)
    with pytest.raises(ValueError):
        depolarizing(1.5)
    # a library model checks its entries as a noise-model file's are checked
    for per_gate, match in (({"frobnicate": ()}, "'frobnicate'"), ({"RX": ()}, "'RX'"),
                            ({"rx": (("depolarizing", True),)},
                             "'rx' parameter must be a finite number, got True"),
                            ({"rx": (("depolarizing", float("nan")),)},
                             "'rx' parameter must be a finite number, got nan"),
                            ({"rz": (("phase_flip", 0.1),)}, "'rz' names unknown channel")):
        with pytest.raises(ValueError, match=match):
            NoiseModel(per_gate=per_gate)
    with pytest.raises(ValueError, match=r"'default' parameter must be in \[0, 1\], got 1.5"):
        NoiseModel.from_error_rate(1.5)
    [(_, param)] = NoiseModel(per_gate={"h": [["depolarizing", np.int64(1)]]}).per_gate["h"]
    assert type(param) is float and param == 1.0


def test_noisy_apply_zero_model_is_plain_apply(rng):
    model = NoiseModel.from_error_rate(0.0)
    rho = random_density_matrix(rng, 2)[None]
    gate = GateOp("CRZ", (0, 1), 0.8)
    noisy = noisy_apply_stack(rho, gate, model, 2)
    plain = apply_gate_stack(rho, gate, 2)
    assert np.array_equal(noisy, plain)  # bit-for-bit


def test_noisy_apply_flip_then_depolarize():
    model = NoiseModel(per_gate={"rx": (("depolarizing", 0.05),)})
    out = noisy_apply_stack(basis_stack(1, 0), GateOp("RX", (0,), np.pi), model, 1)
    assert np.allclose(np.diag(out[0]).real, [0.025, 0.975], atol=1e-9)


def test_two_qubit_gate_noise_hits_both_targets(rng):
    # oracle: full-register Kraus algebra with explicit kron lifts
    p = 0.05
    model = NoiseModel.from_error_rate(p)
    rho = random_density_matrix(rng, 2)
    gate = GateOp("CRX", (0, 1), 0.9)
    [out] = noisy_apply_stack(rho[None], gate, model, 2)

    from quidlab.simcore import gate_matrix

    expected = gate_matrix("CRX", 0.9) @ rho @ gate_matrix("CRX", 0.9).conj().T
    for q in (0, 1):
        for ch in (amplitude_damping(p), depolarizing(p)):
            acc = np.zeros_like(expected)
            for k in ch.operators:
                lifted = np.kron(k, np.eye(2)) if q == 0 else np.kron(np.eye(2), k)
                acc += lifted @ expected @ lifted.conj().T
            expected = acc
    assert np.allclose(out, expected, atol=1e-12)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)


def test_channels_are_built_once_per_entry_tuple_and_read_only():
    import dataclasses

    entries = (("amplitude_damping", 0.07), ("depolarizing", 0.07))
    built = NoiseModel(default=entries).channels_for("rx")
    # entries given as lists key the same cache slot
    assert NoiseModel(per_gate={"crx": [list(e) for e in entries]}).channels_for("CRX") is built
    assert isinstance(built, tuple) and isinstance(built[0].operators, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        built[0].operators = ()
    with pytest.raises(ValueError):
        built[0].operators[0][0, 0] = 0.0


@pytest.mark.parametrize("entries", [
    NoiseModel.from_error_rate(0.05).default,
    (("depolarizing", 0.07), ("amplitude_damping", 0.0), ("amplitude_damping", 0.2)),
    (("depolarizing", 0.05),),
], ids=["p0.05", "with-zero-strength", "depolarizing"])
def test_forward_noise_map_is_the_conjugate_transpose_of_the_adjoint(entries):
    # the encoders apply sum_k kron(K, K*), composed in channel order, as one 4x4 map; its
    # conjugate transpose is sum_k kron(K^dag, K^T), composed in reverse channel order
    forward, adjoint = np.eye(4, dtype=complex), np.eye(4, dtype=complex)
    for kind, param in entries:
        ks = build_channel(kind, param).operators
        forward = sum(np.kron(k, k.conj()) for k in ks) @ forward
        adjoint = adjoint @ sum(np.kron(k.conj().T, k.T) for k in ks)
    sop = noise_superop(entries, 1)
    assert np.max(np.abs(sop - forward)) <= 1e-15
    assert np.max(np.abs(sop.conj().T - adjoint)) <= 1e-15
    assert not forward.imag.any()  # both channel kinds map real matrices to real ones
    assert sop.dtype == float and not sop.flags.writeable
    assert noise_superop(entries, 1) is sop  # cached


def test_monotone_signal_loss_under_repeated_noisy_identity():
    model = NoiseModel.from_error_rate(0.05)
    rho = basis_stack(1, 0)
    values = [expect_z_stack(rho, 0, 1)[0]]
    for _ in range(20):
        rho = noisy_apply_stack(rho, GateOp("RZ", (0,), 0.0), model, 1)
        values.append(expect_z_stack(rho, 0, 1)[0])
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    # depolarizing alone decays exactly geometrically
    model = NoiseModel(default=(("depolarizing", 0.05),))
    rho = basis_stack(1, 0)
    for k in range(1, 21):
        rho = noisy_apply_stack(rho, GateOp("RZ", (0,), 0.0), model, 1)
        assert expect_z_stack(rho, 0, 1)[0] == pytest.approx((1 - 0.05) ** k, abs=1e-12)


def test_load_noise_model_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"default": [["depolarizing", 0.05]], "rz": []}))
    model = load_noise_model(path)
    assert model.default == (("depolarizing", 0.05),)
    assert model.entries_for("RZ") == ()  # override: RZ noise-free
    assert model.entries_for("h") == (("depolarizing", 0.05),)


def test_load_noise_model_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rx": [["depolarizing", 1.5]]}))
    with pytest.raises(DataFormatError, match="rx"):
        load_noise_model(path)
    path.write_text(json.dumps({"frobnicate": []}))
    with pytest.raises(DataFormatError, match="frobnicate"):
        load_noise_model(path)
    path.write_text(json.dumps({"rx": [["phase_flip", 0.1]]}))
    with pytest.raises(DataFormatError, match="phase_flip"):
        load_noise_model(path)
    path.write_text(json.dumps({"default": [["depolarizing", True]]}))
    with pytest.raises(DataFormatError, match="True"):
        load_noise_model(path)
    path.write_text("not json")
    with pytest.raises(DataFormatError):
        load_noise_model(path)


def test_channel_order_damping_before_depolarizing():
    # the two orders disagree on |1><1|, so the pinned order must hold
    model = NoiseModel.from_error_rate(0.2)
    [out] = noisy_apply_stack(basis_stack(1, 0), GateOp("RX", (0,), np.pi), model, 1)
    [rho] = basis_stack(1, 1)
    for ch in (amplitude_damping(0.2), depolarizing(0.2)):
        rho = sum(k @ rho @ k.conj().T for k in ch.operators)
    assert np.allclose(out, rho, atol=1e-10)
