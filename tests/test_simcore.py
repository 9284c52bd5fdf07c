import numpy as np
import pytest

from conftest import random_density_matrix
from quidlab.errors import CapacityError, ShapeError
from quidlab.noise import amplitude_damping, depolarizing
from quidlab.simcore import (
    DensityMatrix,
    GateOp,
    KrausChannel,
    apply_channel,
    apply_gate,
    apply_rotations_batch,
    basis_state,
    expect_z,
    gate_matrix,
    ground_state,
    rotation_matrices,
    sample_expect_z,
)


def test_ground_state_single_qubit():
    rho = ground_state(1)
    assert np.array_equal(rho.data, np.diag([1.0 + 0j, 0.0]))


def test_ground_state_two_qubits():
    rho = ground_state(2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho.data, expected)


@pytest.mark.parametrize("n", [0, 13, -1])
def test_ground_state_capacity(n):
    with pytest.raises(CapacityError):
        ground_state(n)


def test_hadamard_on_zero():
    rho = apply_gate(ground_state(1), GateOp("H", (0,)))
    assert np.allclose(rho.data, 0.5 * np.ones((2, 2)), atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi, 5.0])
def test_rz_fixes_zero_state(theta):
    rho = apply_gate(ground_state(1), GateOp("RZ", (0,), theta))
    assert np.allclose(rho.data, np.diag([1.0, 0.0]), atol=1e-12)


def test_rz_on_plus_state_hand_multiplied():
    plus = apply_gate(ground_state(1), GateOp("H", (0,)))
    out = apply_gate(plus, GateOp("RZ", (0,), np.pi / 2))
    # oracle: explicit 2x2 products
    u = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    expected = u @ plus.data @ u.conj().T
    assert np.allclose(out.data, expected, atol=1e-12)
    assert np.allclose(out.data, 0.5 * np.array([[1, -1j], [1j, 1]]), atol=1e-12)


def test_gate_target_out_of_range():
    with pytest.raises(IndexError):
        apply_gate(ground_state(2), GateOp("H", (2,)))


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("CNOT", (1, 1))
    with pytest.raises(ValueError):
        GateOp("RX", (0,))  # missing angle
    with pytest.raises(ValueError):
        GateOp("H", (0,), 0.5)  # spurious angle
    with pytest.raises(ValueError):
        GateOp("XX", (0,))


def test_cnot_and_controlled_rotations_on_full_register():
    # |10> --CNOT--> |11>
    rho = basis_state(2, 0b10)
    out = apply_gate(rho, GateOp("CNOT", (0, 1)))
    assert np.allclose(out.data, basis_state(2, 0b11).data, atol=1e-12)
    # control in |0>: CRX is the identity
    rho = basis_state(2, 0b01)
    out = apply_gate(rho, GateOp("CRX", (0, 1), 1.1))
    assert np.allclose(out.data, rho.data, atol=1e-12)
    # control on qubit 1, target qubit 0, non-adjacent order
    rho = basis_state(2, 0b01)
    out = apply_gate(rho, GateOp("CRX", (1, 0), np.pi))
    assert np.allclose(out.data, basis_state(2, 0b11).data, atol=1e-10)


def test_apply_channel_examples():
    out = apply_channel(ground_state(1), depolarizing(0.05), (0,))
    assert np.allclose(np.diag(out.data).real, [0.975, 0.025], atol=1e-12)
    out = apply_channel(basis_state(1, 1), amplitude_damping(0.05), (0,))
    assert np.allclose(np.diag(out.data).real, [0.05, 0.95], atol=1e-12)


def test_depolarizing_fixes_maximally_mixed():
    for n in (1, 2):
        mixed = DensityMatrix(n, np.eye(1 << n, dtype=complex) / (1 << n))
        for q in range(n):
            out = apply_channel(mixed, depolarizing(0.3), (q,))
            assert np.allclose(out.data, mixed.data, atol=1e-12)


def test_channel_arity_mismatch():
    with pytest.raises(ShapeError):
        apply_channel(ground_state(2), depolarizing(0.1), (0, 1))


def test_expect_z_examples():
    assert expect_z(ground_state(1), 0) == pytest.approx(1.0, abs=1e-12)
    plus = apply_gate(ground_state(1), GateOp("H", (0,)))
    assert expect_z(plus, 0) == pytest.approx(0.0, abs=1e-12)
    for p in (0.01, 0.05, 0.1):
        rho = apply_channel(ground_state(1), depolarizing(p), (0,))
        assert expect_z(rho, 0) == pytest.approx(1.0 - p, abs=1e-12)
    with pytest.raises(IndexError):
        expect_z(ground_state(1), 1)


def test_expect_z_per_qubit_on_product_state():
    rho = apply_gate(ground_state(3), GateOp("RX", (1,), np.pi))
    assert expect_z(rho, 0) == pytest.approx(1.0, abs=1e-12)
    assert expect_z(rho, 1) == pytest.approx(-1.0, abs=1e-12)
    assert expect_z(rho, 2) == pytest.approx(1.0, abs=1e-12)


def test_sample_expect_z_deterministic_and_exact():
    rho = ground_state(1)
    assert sample_expect_z(rho, 0, 1000, seed=7) == 1.0
    plus = apply_gate(rho, GateOp("H", (0,)))
    a = sample_expect_z(plus, 0, 1000, seed=42)
    b = sample_expect_z(plus, 0, 1000, seed=42)
    assert a == b
    assert -1.0 <= a <= 1.0
    with pytest.raises(ValueError):
        sample_expect_z(rho, 0, 0, seed=1)


def test_sample_expect_z_concentration_monte_carlo():
    # binomial concentration at 1000 shots: |mean| <= 0.1 for >= 99% of seeds
    plus = apply_gate(ground_state(1), GateOp("H", (0,)))
    hits = sum(
        abs(sample_expect_z(plus, 0, 1000, seed=s)) <= 0.1 for s in range(10_000)
    )
    assert hits >= 9_900


def _random_circuit(rng, n_qubits, n_gates):
    names = ["H", "RX", "RZ"]
    if n_qubits >= 2:
        names += ["CRX", "CRZ", "CNOT"]
    gates = []
    for _ in range(n_gates):
        name = rng.choice(names)
        if name in ("H", "RX", "RZ"):
            targets = (int(rng.integers(n_qubits)),)
        else:
            q = rng.choice(n_qubits, size=2, replace=False)
            targets = (int(q[0]), int(q[1]))
        param = float(rng.uniform(-np.pi, np.pi)) if name in ("RX", "RZ", "CRX", "CRZ") else None
        gates.append(GateOp(name, targets, param))
    return gates


def test_invariants_along_random_circuits(rng):
    for _ in range(60):
        n = int(rng.integers(1, 5))
        rho = ground_state(n)
        for gate in _random_circuit(rng, n, 100):
            before = rho.purity()
            rho = apply_gate(rho, gate)
            assert abs(rho.purity() - before) <= 1e-9  # unitary: purity preserved
        rho.validate()


def test_depolarizing_contracts_purity(rng):
    from conftest import random_pure_state

    for p in (0.01, 0.05, 0.1):
        for _ in range(10):
            rho = DensityMatrix(1, random_pure_state(rng, 1))
            before = rho.purity()
            after = apply_channel(rho, depolarizing(p), (0,)).purity()
            assert after < before


def test_kraus_completeness_rejects_bad_channel():
    with pytest.raises(ValueError):
        KrausChannel([np.eye(2) * 0.5])
    with pytest.raises(ShapeError):
        KrausChannel([np.eye(3)])


def test_density_matrix_validate_catches_bad_states():
    bad = DensityMatrix(1, np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        bad.validate()
    skew = DensityMatrix(1, np.array([[0.5, 0.5], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        skew.validate()


def test_stateprep_has_no_unitary():
    with pytest.raises(ValueError):
        apply_gate(ground_state(2), GateOp("StatePrep", (0, 1)))


def test_gate_matrix_conventions():
    assert np.allclose(gate_matrix("RZ", 0.7), np.diag([np.exp(-0.35j), np.exp(0.35j)]))
    rx = gate_matrix("RX", 0.7)
    x = np.array([[0, 1], [1, 0]])
    assert np.allclose(rx, np.cos(0.35) * np.eye(2) - 1j * np.sin(0.35) * x)


@pytest.mark.parametrize("name", ["RX", "RZ"])
def test_rotation_builder_and_per_row_rotations_match_the_gate_oracle(rng, name):
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=5)
    mats = rotation_matrices(angles / 2.0, name == "RZ")
    for angle, mat in zip(angles, mats):
        assert np.max(np.abs(mat - gate_matrix(name, angle))) <= 1e-15
    stack = np.stack([random_density_matrix(rng, 3) for _ in angles])
    for q in range(3):
        out = apply_rotations_batch(stack, name, q, angles, 3)
        for rho, angle, got in zip(stack, angles, out):
            want = apply_gate(DensityMatrix(3, rho), GateOp(name, (q,), float(angle))).data
            assert np.max(np.abs(got - want)) <= 1e-12
