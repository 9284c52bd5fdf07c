import numpy as np
import pytest

from conftest import random_density_matrix
from quidlab.errors import CapacityError, ShapeError
from quidlab.noise import amplitude_damping, depolarizing
from quidlab.simcore import (
    PARAMETRIC_GATES,
    DensityMatrix,
    GateOp,
    KrausChannel,
    _forward_superop,
    apply_channel,
    apply_channel_stack,
    apply_gate,
    apply_gate_stack,
    apply_rotations_batch,
    apply_superop_stack,
    basis_state,
    expect_z,
    gate_matrix,
    ground_state,
    rotation_matrices,
    sample_expect_z,
    sample_shots,
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
    # targets are distinct non-negative integers and angles finite reals, not booleans
    for name, targets, param in (("RX", (0,), float("nan")), ("RX", (0,), True),
                                 ("RZ", (0,), float("inf")), ("RX", (0.7,), 1.0),
                                 ("H", (True,), None), ("CNOT", (0, -1), None),
                                 ("StatePrep", (0,), None)):
        with pytest.raises(ValueError):
            GateOp(name, targets, param)
    op = GateOp("crz", (np.int64(1), 0), np.float32(0.5))
    assert (op.name, op.targets, op.param) == ("CRZ", (1, 0), 0.5)
    assert type(op.targets[0]) is int and type(op.param) is float


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
    # a target that is not a non-negative integer is refused, never read as another axis
    stack = np.stack([ground_state(1).data, basis_state(1, 1).data])
    for targets in ((-1,), (0.5,), (True,)):
        with pytest.raises(ValueError):
            apply_channel_stack(stack, depolarizing(0.4), targets, 1)


def test_superop_stack_refuses_targets_outside_the_register():
    # -1 would land on the batch axis, and 2 names no axis of a 2-qubit state
    stack = np.stack([basis_state(2, 0).data, basis_state(2, 3).data])
    flip = _forward_superop([gate_matrix("RX", np.pi)])
    for targets, error in (((-1,), ValueError), ((2,), IndexError), ((0.5,), ValueError)):
        with pytest.raises(error):
            apply_superop_stack(stack, flip, targets, 2)
    assert np.allclose(np.trace(apply_superop_stack(stack, flip, (1,), 2), axis1=1, axis2=2), 1)


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
    for shots in (0, 2.5, True):  # 2.5 would draw 2 shots and divide by 2.5
        with pytest.raises(ValueError, match="shots"):
            sample_expect_z(rho, 0, shots, seed=1)
    # one binomial draw of the seeded generator, as the classifier's batches draw it
    for angle in (0.3, 2.0, np.pi):
        state = apply_gate(rho, GateOp("RX", (0,), angle))
        z = expect_z(state, 0)
        p_plus = min(1.0, max(0.0, (1.0 + z) / 2.0))
        ups = np.random.Generator(np.random.PCG64(7)).binomial(1000, p_plus)
        got = sample_expect_z(state, 0, 1000, seed=7)
        assert got == 2.0 * ups / 1000 - 1.0
        assert sample_shots(np.array([z]), 1000, np.random.Generator(np.random.PCG64(7)))[0] == got


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


@pytest.mark.filterwarnings("error")
def test_kraus_completeness_rejects_bad_channel():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel([np.eye(2) * 0.5])
    with pytest.raises(ShapeError):
        KrausChannel([np.eye(3)])
    # a non-finite entry is refused before the K^dag K sum, so numpy warns of nothing
    for bad in (np.nan, np.inf, -np.inf):
        for ops in ([[[bad, 0.0], [0.0, 1.0]]], [np.eye(4), np.full((4, 4), bad)]):
            with pytest.raises(ValueError, match="finite"):
                KrausChannel(ops)


def test_density_matrix_validate_catches_bad_states():
    bad = DensityMatrix(1, np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        bad.validate()
    skew = DensityMatrix(1, np.array([[0.5, 0.5], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        skew.validate()
    # NaN anywhere, or everywhere, fails one of the checks; so does an infinity
    for bad in (np.nan, np.inf):
        for entry in ((0, 0), (0, 1), (1, 1), ...):
            data = np.diag([0.5, 0.5]).astype(complex)
            data[entry] = bad
            with pytest.raises(ValueError):
                DensityMatrix(1, data).validate()


def test_stateprep_has_no_unitary():
    with pytest.raises(ValueError):
        apply_gate(ground_state(2), GateOp("StatePrep", (0, 1)))


_X = np.array([[0, 1], [1, 0]])
# the edges of the half-angle period and a large angle, then a grid
ANGLES = np.concatenate([[0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e3, -1e3],
                         np.linspace(-20, 20, 81)])


def _closed_form(name, angle=None):
    """A gate's unitary written out from its definition, independent of simcore: RX is
    cos(t/2) I - i sin(t/2) X, RZ is diag(e^{-it/2}, e^{it/2}), and a controlled gate
    acts with its target block when the first qubit is 1."""
    if name == "H":
        return np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    if name == "RX":
        return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * _X
    if name == "RZ":
        return np.diag(np.exp([-0.5j * angle, 0.5j * angle]))
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = _X if name == "CNOT" else _closed_form(name[1:], angle)
    return m


def test_gate_matrix_conventions():
    for name in ("H", "CNOT"):
        assert np.max(np.abs(gate_matrix(name) - _closed_form(name))) <= 1e-15
    for name in ("RX", "RZ", "CRX", "CRZ"):
        for angle in ANGLES:
            assert np.max(np.abs(gate_matrix(name, angle) - _closed_form(name, angle))) <= 1e-15


@pytest.mark.parametrize("name", ["RX", "RZ"])
def test_rotation_builder_and_per_row_rotations_match_the_gate_oracle(rng, name):
    mats = rotation_matrices(ANGLES / 2.0, name == "RZ")
    for angle, mat in zip(ANGLES, mats):
        assert np.max(np.abs(mat - _closed_form(name, angle))) <= 1e-15
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=5)
    stack = np.stack([random_density_matrix(rng, 3) for _ in angles])
    for q in range(3):
        out = apply_rotations_batch(stack, name, q, angles, 3)
        for rho, angle, got in zip(stack, angles, out):
            want = apply_gate(DensityMatrix(3, rho), GateOp(name, (q,), float(angle))).data
            assert np.max(np.abs(got - want)) <= 1e-12


def _lift(op, targets, n):
    """op on `targets` as a full-register matrix: kron with the identity on the other qubits,
    then the qubits permuted back into register order."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    back = [int(a) for a in np.argsort(order)]
    full = np.kron(op, np.eye(1 << (n - len(targets)))).reshape((2,) * (2 * n))
    return full.transpose(back + [n + a for a in back]).reshape(1 << n, 1 << n)


def _random_channel(rng, k, rank=3):
    """A CPTP map on k qubits from a random isometry cut into `rank` Kraus operators."""
    d = 1 << k
    a = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
    return KrausChannel(tuple(np.linalg.qr(a)[0].reshape(rank, d, d)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_map_engine_matches_explicit_full_register_kraus_sums(rng, n):
    # every gate, channel and per-row rotation goes through apply_superop_stack; the oracle
    # lifts each operator to the full register and sums K rho K^dag over the Kraus set.
    # The conjugate transpose of the builder's matrix must be the adjoint map
    # O -> sum K^dag O K on any operator, as the readout's pull-back relies on
    stack = np.stack([random_density_matrix(rng, n) for _ in range(3)])
    dim = 1 << n
    observables = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))

    def check(got, ops_per_state, targets):
        for rho, ops, out in zip(stack, ops_per_state, got):
            lifted = [_lift(k, targets, n) for k in ops]
            want = sum(m @ rho @ m.conj().T for m in lifted)
            assert np.max(np.abs(out - want)) <= 1e-12

    def check_adjoint(ops, targets):
        lifted = [_lift(k, targets, n) for k in ops]
        got = apply_superop_stack(observables, _forward_superop(ops).conj().T, targets, n)
        for obs, out in zip(observables, got):
            assert np.max(np.abs(out - sum(m.conj().T @ obs @ m for m in lifted))) <= 1e-12

    angle = float(rng.uniform(-np.pi, np.pi))
    targets_of = [(q,) for q in range(n)]
    targets_of += [(a, b) for a in range(n) for b in range(n) if a != b]
    for targets in targets_of:
        names = ("H", "RX", "RZ") if len(targets) == 1 else ("CNOT", "CRX", "CRZ")
        for name in names:
            gate = GateOp(name, targets, angle if name in PARAMETRIC_GATES else None)
            mat = _closed_form(name, gate.param)
            check(apply_gate_stack(stack, gate, n), [[mat]] * len(stack), targets)
            check_adjoint([mat], targets)
        for ch in (_random_channel(rng, len(targets)), depolarizing(0.3)):
            if ch.n_qubits == len(targets):
                got = apply_channel_stack(stack, ch, targets, n)
                check(got, [ch.operators] * len(stack), targets)
                check_adjoint(ch.operators, targets)
    for q in range(n):
        for name in ("RX", "RZ"):
            angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=len(stack))
            got = apply_rotations_batch(stack, name, q, angles, n)
            check(got, [[_closed_form(name, a)] for a in angles], (q,))
