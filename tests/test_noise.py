import json

import numpy as np
import pytest

from conftest import random_density_matrix
from quidlab.errors import DataFormatError
from quidlab.noise import (
    NoiseModel,
    adjoint_noise_superop,
    amplitude_damping,
    build_channel,
    depolarizing,
    load_noise_model,
    noisy_apply,
    save_noise_model,
)
from quidlab.simcore import (
    DensityMatrix,
    GateOp,
    apply_channel,
    apply_gate,
    basis_state,
    expect_z,
    ground_state,
)


def test_amplitude_damping_limits(rng):
    rho = DensityMatrix(1, random_density_matrix(rng, 1))
    assert np.allclose(apply_channel(rho, amplitude_damping(0.0), (0,)).data, rho.data, atol=1e-15)
    out = apply_channel(basis_state(1, 1), amplitude_damping(1.0), (0,))
    assert np.allclose(out.data, np.diag([1.0, 0.0]), atol=1e-12)
    out = apply_channel(basis_state(1, 1), amplitude_damping(0.05), (0,))
    assert expect_z(out, 0) == pytest.approx(2 * 0.05 - 1, abs=1e-12)


def test_depolarizing_limits(rng):
    rho = DensityMatrix(1, random_density_matrix(rng, 1))
    assert np.allclose(apply_channel(rho, depolarizing(0.0), (0,)).data, rho.data, atol=1e-15)
    out = apply_channel(rho, depolarizing(1.0), (0,))
    assert np.allclose(out.data, np.eye(2) / 2, atol=1e-12)
    out = apply_channel(ground_state(1), depolarizing(0.05), (0,))
    assert np.allclose(np.diag(out.data).real, [0.975, 0.025], atol=1e-12)


def test_depolarizing_matches_convex_form(rng):
    # Kraus set realizes (1-p) rho + p I/2 exactly
    for p in (0.1, 0.37, 0.9):
        rho = random_density_matrix(rng, 1)
        out = apply_channel(DensityMatrix(1, rho), depolarizing(p), (0,))
        assert np.allclose(out.data, (1 - p) * rho + p * np.eye(2) / 2, atol=1e-12)


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


def test_noisy_apply_zero_model_is_plain_apply(rng):
    model = NoiseModel.from_error_rate(0.0)
    rho = DensityMatrix(2, random_density_matrix(rng, 2))
    gate = GateOp("CRZ", (0, 1), 0.8)
    noisy = noisy_apply(rho, gate, model)
    plain = apply_gate(rho, gate)
    assert np.array_equal(noisy.data, plain.data)  # bit-for-bit


def test_noisy_apply_flip_then_depolarize():
    model = NoiseModel(per_gate={"rx": (("depolarizing", 0.05),)})
    out = noisy_apply(ground_state(1), GateOp("RX", (0,), np.pi), model)
    assert np.allclose(np.diag(out.data).real, [0.025, 0.975], atol=1e-9)


def test_two_qubit_gate_noise_hits_both_targets(rng):
    # oracle: full-register Kraus algebra with explicit kron lifts
    p = 0.05
    model = NoiseModel.from_error_rate(p)
    rho = random_density_matrix(rng, 2)
    gate = GateOp("CRX", (0, 1), 0.9)
    out = noisy_apply(DensityMatrix(2, rho), gate, model)

    from quidlab.simcore import gate_matrix

    expected = gate_matrix("CRX", 0.9) @ rho @ gate_matrix("CRX", 0.9).conj().T
    for q in (0, 1):
        for ch in (amplitude_damping(p), depolarizing(p)):
            acc = np.zeros_like(expected)
            for k in ch.operators:
                lifted = np.kron(k, np.eye(2)) if q == 0 else np.kron(np.eye(2), k)
                acc += lifted @ expected @ lifted.conj().T
            expected = acc
    assert np.allclose(out.data, expected, atol=1e-12)
    assert np.trace(out.data).real == pytest.approx(1.0, abs=1e-9)


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
    # the encoders apply sum_k kron(K, K*), composed in channel order, as one 4x4 map
    forward = np.eye(4, dtype=complex)
    for kind, param in entries:
        ks = build_channel(kind, param).operators
        forward = sum(np.kron(k, k.conj()) for k in ks) @ forward
    assert np.max(np.abs(adjoint_noise_superop(entries, 1).conj().T - forward)) <= 1e-15
    assert not forward.imag.any()  # both channel kinds map real matrices to real ones


def test_monotone_signal_loss_under_repeated_noisy_identity():
    model = NoiseModel.from_error_rate(0.05)
    rho = ground_state(1)
    values = [expect_z(rho, 0)]
    for _ in range(20):
        rho = noisy_apply(rho, GateOp("RZ", (0,), 0.0), model)
        values.append(expect_z(rho, 0))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    # depolarizing alone decays exactly geometrically
    model = NoiseModel(default=(("depolarizing", 0.05),))
    rho = ground_state(1)
    for k in range(1, 21):
        rho = noisy_apply(rho, GateOp("RZ", (0,), 0.0), model)
        assert expect_z(rho, 0) == pytest.approx((1 - 0.05) ** k, abs=1e-12)


def test_load_noise_model_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"default": [["depolarizing", 0.05]], "rz": []}))
    model = load_noise_model(path)
    assert model.default == (("depolarizing", 0.05),)
    assert model.entries_for("RZ") == ()  # override: RZ noise-free
    assert model.entries_for("h") == (("depolarizing", 0.05),)
    out = tmp_path / "copy.json"
    save_noise_model(model, out)
    assert load_noise_model(out) == model


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
    out = noisy_apply(basis_state(1, 0), GateOp("RX", (0,), np.pi), model)
    rho = basis_state(1, 1).data
    for ch in (amplitude_damping(0.2), depolarizing(0.2)):
        rho = sum(k @ rho @ k.conj().T for k in ch.operators)
    assert np.allclose(out.data, rho, atol=1e-10)
