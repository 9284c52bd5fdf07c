import os
import re

import numpy as np
import pytest

from conftest import basis_stack, pauli_strings
from quidlab import encode as encode_module
from quidlab.encode import EncoderConfig, _encode_factors, _kron_factors, encode_batch
from quidlab.encode import scale_features
from quidlab.errors import CapacityError, DegenerateInputError, ShapeError
from quidlab.noise import NoiseModel, noisy_apply_stack
from quidlab.simcore import DensityMatrix, GateOp, apply_channel_stack, apply_gate_stack


def encoding_gates(dim, cfg):
    """The angle-encoding circuit, slots unbound: H on every qubit, then each qubit's
    block of features as alternating RZ/RX gates; the oracle tests walk it gate by gate."""
    gates = [GateOp("H", (q,)) for q in range(cfg.n_qubits)]
    f = cfg.features_per_qubit
    for q in range(cfg.n_qubits):
        for j in range(min(f, dim - q * f)):
            gates.append(GateOp("RZ" if j % 2 == 0 else "RX", (q,), 0.0))
    return gates


def equatorial(angle):
    # H then RZ(angle) on |0>: 0.5 [[1, e^{-ia}], [e^{ia}, 1]]
    return 0.5 * np.array([[1.0, np.exp(-1j * angle)], [np.exp(1j * angle), 1.0]])


def test_angle_single_qubit_zero_is_plus_state():
    cfg = EncoderConfig("angle", 1, 1)
    [rho] = encode_batch([[0.0]], cfg)
    assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-12)


@pytest.mark.parametrize("angle", [0.4, np.pi / 2, np.pi, 5.1])
def test_angle_single_qubit_matches_closed_form(angle):
    cfg = EncoderConfig("angle", 1, 1)
    [rho] = encode_batch([[angle]], cfg)
    assert np.allclose(rho, equatorial(angle), atol=1e-12)


def test_equatorial_frobenius_distance_law():
    # d = sqrt(1 - cos(delta)) for two equatorial single-qubit states
    cfg = EncoderConfig("angle", 1, 1)
    for a, b in [(0.0, np.pi), (0.3, 1.2), (2.0, 5.5)]:
        ra, rb = encode_batch([[a], [b]], cfg)
        d = np.linalg.norm(ra - rb)
        assert d == pytest.approx(np.sqrt(1 - np.cos(a - b)), abs=1e-12)
    minus, plus = encode_batch([[np.pi], [0.0]], cfg)
    assert np.linalg.norm(minus - plus) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_angle_matches_explicit_gate_sequence(rng):
    # the batch encoder agrees with gate-by-gate simulation of one state,
    # including a partial final block (d=3 on 2 qubits x 2 features)
    cfg = EncoderConfig("angle", 2, 2)
    x = rng.uniform(0, 2 * np.pi, size=(1, 3))
    rho = basis_stack(2, 0)
    seq = [
        GateOp("H", (0,)),
        GateOp("H", (1,)),
        GateOp("RZ", (0,), x[0, 0]),
        GateOp("RX", (0,), x[0, 1]),
        GateOp("RZ", (1,), x[0, 2]),
    ]
    for gate in seq:
        rho = apply_gate_stack(rho, gate, 2)
    assert np.allclose(encode_batch(x, cfg), rho, atol=1e-12)
    names = [(g.name, g.targets) for g in encoding_gates(3, cfg)]
    assert names == [(g.name, g.targets) for g in seq]


ORACLE_MODELS = {
    "noiseless": None,
    "p0.05": NoiseModel.from_error_rate(0.05),
    # rz is exempt, h has its own channels (one of zero strength), rx falls back to the default
    "per-gate": NoiseModel(
        per_gate={"rz": (), "h": (("amplitude_damping", 0.2), ("depolarizing", 0.0),
                                  ("depolarizing", 0.07))},
        default=(("depolarizing", 0.05), ("amplitude_damping", 0.03)),
    ),
}
# (qubits, features per qubit, feature dimension): every block full, then the last one partial
ORACLE_SIZES = [
    (n, f, dim)
    for n in range(1, 6)
    for f in range(1, 4)
    for dim in (n * f, n * f - 1)
    if dim >= 1
]


@pytest.mark.parametrize("model_name", list(ORACLE_MODELS))
@pytest.mark.parametrize(
    "n,f,dim", ORACLE_SIZES,
    ids=[f"n{n}-f{f}-{'full' if dim == n * f else 'partial'}" for n, f, dim in ORACLE_SIZES],
)
def test_noisy_angle_matches_noisy_gate_oracle(rng, n, f, dim, model_name):
    # the product-form encoder against gate-by-gate dense simulation of the full register
    model = ORACLE_MODELS[model_name]
    cfg = EncoderConfig("angle", n, f)
    x = rng.uniform(0, 2 * np.pi, size=(3, dim))
    stack = encode_batch(x, cfg, model)
    for row, state in zip(x, stack):
        rho = basis_stack(n, 0)
        angles = iter(row)
        for gate in encoding_gates(dim, cfg):
            if gate.param is not None:
                gate = GateOp(gate.name, gate.targets, float(next(angles)))
            rho = (apply_gate_stack(rho, gate, n) if model is None
                   else noisy_apply_stack(rho, gate, model, n))
        assert np.max(np.abs(state - rho[0])) <= 1e-12


# (qubits, features per qubit, feature dimension); the last leaves qubit 2 without a feature
PAULI_SIZES = [(3, 1, 3), (2, 2, 4), (2, 3, 5), (3, 2, 3)]


@pytest.mark.parametrize("model_name", list(ORACLE_MODELS))
@pytest.mark.parametrize("n,f,dim", PAULI_SIZES, ids=[f"n{n}-f{f}-d{d}" for n, f, d in PAULI_SIZES])
def test_angle_pauli_vectors_match_pauli_strings_of_the_gate_oracle(rng, n, f, dim, model_name):
    # the encoder's per-qubit Pauli vectors s_a = Tr(sigma_a rho_q), their Kronecker product
    # laid out as pauli_strings, against Tr(S rho) of the gate-by-gate noisy register state
    model = ORACLE_MODELS[model_name]
    cfg = EncoderConfig("angle", n, f)
    x = rng.uniform(0, 2 * np.pi, size=(3, dim))
    factors = _encode_factors(x, cfg, model)
    assert [(fa.dtype, fa.shape) for fa in factors] == [(np.dtype(float), (3, 2, 2))] * n
    strings = pauli_strings(n)
    for row, got in zip(x, _kron_factors(factors)):
        rho = basis_stack(n, 0)
        angles = iter(row)
        for gate in encoding_gates(dim, cfg):
            if gate.param is not None:
                gate = GateOp(gate.name, gate.targets, float(next(angles)))
            rho = (apply_gate_stack(rho, gate, n) if model is None
                   else noisy_apply_stack(rho, gate, model, n))
        want = np.einsum("hlij,ji->hl", strings, rho[0])
        assert np.max(np.abs(want.imag)) <= 1e-12
        assert np.max(np.abs(got - want.real)) <= 1e-12


@pytest.mark.parametrize("cfg", [EncoderConfig("angle", 2, 1), EncoderConfig("amplitude", 1)],
                         ids=["angle", "amplitude"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_refused_naming_the_sample(cfg, bad):
    x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, bad], [bad, 0.6]])
    with pytest.raises(DegenerateInputError, match="sample 2 "):
        encode_batch(x, cfg)


def test_non_finite_features_are_refused_before_the_capacity_check():
    # 10,000 rows at 12 qubits would need 2.7 TB; the bad row is named first
    x = np.zeros((10_000, 12))
    x[7, 3] = np.nan
    with pytest.raises(DegenerateInputError, match="sample 7 "):
        encode_batch(x, EncoderConfig("angle", 12, 1))


def test_noisy_angle_encoding_peaks_near_the_stack_it_returns(rng):
    import tracemalloc

    x = rng.uniform(0, 2 * np.pi, size=(84, 7))
    cfg, model = EncoderConfig("angle", 7, 1), NoiseModel.from_error_rate(0.05)
    tracemalloc.start()
    try:
        stack = encode_batch(x, cfg, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (84, 128, 128)
    assert peak <= 1.5 * stack.nbytes, (peak, stack.nbytes)


def test_noisy_amplitude_encoding_peaks_near_the_stack_it_returns(rng):
    import tracemalloc

    x = rng.uniform(-1.0, 1.0, size=(84, 128))
    cfg, model = EncoderConfig("amplitude", 7), NoiseModel.from_error_rate(0.05)
    tracemalloc.start()
    try:
        stack = encode_batch(x, cfg, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (84, 128, 128)
    # measured 1.50x: the float64 stack is live while its complex copy is written
    assert peak <= 1.6 * stack.nbytes, (peak, stack.nbytes)


@pytest.mark.parametrize("limit", ["max\n", None], ids=["unlimited", "no-cgroup-file"])
def test_capacity_bound_is_physical_memory_without_a_cgroup_limit(monkeypatch, tmp_path, limit):
    path = tmp_path / "memory.max"
    if limit is not None:
        path.write_text(limit)
    monkeypatch.setattr(encode_module, "_CGROUP_MEMORY_MAX", str(path))
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert encode_module._memory_limit() == physical
    assert encode_batch(np.ones((3, 4)), EncoderConfig("amplitude", 2)).shape == (3, 4, 4)


def test_capacity_bound_is_an_address_space_limit_below_physical_memory(monkeypatch, tmp_path):
    import resource

    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    monkeypatch.setattr(encode_module, "_CGROUP_MEMORY_MAX", str(tmp_path / "none"))
    monkeypatch.setattr(resource, "getrlimit", lambda kind: (physical // 4, resource.RLIM_INFINITY))
    assert encode_module._memory_limit() == physical // 4
    monkeypatch.setattr(resource, "getrlimit", lambda kind: (2 * physical, 2 * physical))
    assert encode_module._memory_limit() == physical


@pytest.mark.parametrize("cfg", [EncoderConfig("angle", 7, 1), EncoderConfig("amplitude", 7)],
                         ids=["angle", "amplitude"])
def test_a_cgroup_limit_below_the_stack_is_refused_before_allocating(monkeypatch, tmp_path, cfg):
    import tracemalloc

    x = np.ones((20, 7))
    stack_bytes = 20 * 16 * 4**7  # 5 MiB
    path = tmp_path / "memory.max"
    path.write_text(f"{stack_bytes}\n")  # the stack alone fits, its temporaries do not
    monkeypatch.setattr(encode_module, "_CGROUP_MEMORY_MAX", str(path))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="20 rows at 7 qubits"):
            encode_batch(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes // 10
    path.write_text(f"{2 * stack_bytes}\n")
    assert encode_batch(x, cfg).nbytes == stack_bytes


AMPLITUDE_MODELS = {
    "noiseless": None,
    "p0.05": NoiseModel.from_error_rate(0.05),
    "per-gate": NoiseModel(
        per_gate={"stateprep": (("depolarizing", 0.07), ("amplitude_damping", 0.0),
                                ("amplitude_damping", 0.2))},
        default=(("depolarizing", 0.05),),
    ),
}


@pytest.mark.parametrize("model_name", list(AMPLITUDE_MODELS))
@pytest.mark.parametrize("n", range(1, 8))
def test_noisy_amplitude_matches_the_kraus_loop(rng, n, model_name):
    # one fused 4x4 map per data qubit and one padding factor against every Kraus operator
    # of every channel on the whole register; the widths 2^k - 1, 2^k and 2^k + 1 reach
    # every padding count from n - 1 (one feature) to 0 (2^n features)
    model = AMPLITUDE_MODELS[model_name]
    widths = sorted({w for k in range(n + 1) for w in ((1 << k) - 1, 1 << k, (1 << k) + 1)
                     if 1 <= w <= 1 << n})
    xs = [rng.uniform(-1.0, 1.0, size=(2, d)) for d in widths]
    psi = np.zeros((2 * len(widths), 1 << n))
    for i, x in enumerate(xs):
        psi[2 * i:2 * i + 2, :x.shape[1]] = x / np.linalg.norm(x, axis=1, keepdims=True)
    want = np.einsum("bi,bj->bij", psi, psi).astype(complex)
    if model is not None:
        for q in range(n):
            for ch in model.channels_for("StatePrep"):
                want = apply_channel_stack(want, ch, (q,), n)
    for i, x in enumerate(xs):
        stack = encode_batch(x, EncoderConfig("amplitude", n), model)
        assert stack.dtype == complex
        assert np.max(np.abs(stack - want[2 * i:2 * i + 2])) <= 1e-12, x.shape[1]


def test_amplitude_basis_vector_gives_ground_state():
    cfg = EncoderConfig("amplitude", 2)
    [rho] = encode_batch([[1.0, 0.0, 0.0, 0.0]], cfg)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-15)


def test_amplitude_pads_and_normalises():
    cfg = EncoderConfig("amplitude", 2)
    [rho] = encode_batch([[3.0, 4.0]], cfg)
    psi = np.array([0.6, 0.8, 0.0, 0.0])
    assert np.allclose(rho, np.outer(psi, psi), atol=1e-12)


@pytest.mark.parametrize("row,rescaled", [
    ([1e200, 1e200], [1.0, 1.0]),  # the norm overflows
    ([1e-200, 1e-200], [1.0, 1.0]),  # the norm underflows to 0
    ([3e-170, 4e-170], [3.0, 4.0]),
])
def test_amplitude_normalisation_neither_overflows_nor_underflows(row, rescaled):
    cfg = EncoderConfig("amplitude", 1)
    [rho] = encode_batch([row], cfg)
    DensityMatrix(1, rho).validate()
    assert np.max(np.abs(rho - encode_batch([rescaled], cfg)[0])) <= 1e-15


def test_amplitude_zero_vector_is_degenerate():
    cfg = EncoderConfig("amplitude", 2)
    with pytest.raises(DegenerateInputError):
        encode_batch(np.zeros((1, 4)), cfg)


@pytest.mark.parametrize("n", [0, 13, -1])
def test_encoder_qubit_capacity(n):
    for kind in ("angle", "amplitude"):
        with pytest.raises(CapacityError, match=r"n_qubits must be in \[1, 12\]"):
            EncoderConfig(kind, n)


def test_dimension_overflow():
    with pytest.raises(ShapeError):
        encode_batch(np.ones((1, 3)), EncoderConfig("angle", 1, 2))
    with pytest.raises(ShapeError):
        encode_batch(np.ones((1, 5)), EncoderConfig("amplitude", 2))
    # an empty array or one of more than two axes is no feature matrix
    for shape in ((0,), (2, 2, 4)):
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(shape))}"):
            encode_batch(np.zeros(shape), EncoderConfig("angle", 4, 2))


def test_encodings_are_pure_and_valid(rng):
    for cfg in (EncoderConfig("angle", 3, 2), EncoderConfig("amplitude", 3)):
        x = rng.uniform(0, 2 * np.pi, size=(5, 6))
        stack = encode_batch(x, cfg)
        for state in stack:
            dm = DensityMatrix(3, state)
            dm.validate()
            assert dm.purity() == pytest.approx(1.0, abs=1e-9)


def test_noisy_encoding_keeps_invariants(rng):
    model = NoiseModel.from_error_rate(0.05)
    for cfg in (EncoderConfig("angle", 2, 2), EncoderConfig("amplitude", 2)):
        x = rng.uniform(0, 2 * np.pi, size=(4, 4))
        stack = encode_batch(x, cfg, model)
        for state in stack:
            DensityMatrix(2, state).validate()


def test_angle_periodicity(rng):
    cfg = EncoderConfig("angle", 2, 2)
    x = rng.uniform(0, 2 * np.pi, size=4)
    for i in range(4):
        shifted = x.copy()
        shifted[i] += 2 * np.pi
        a, b = encode_batch([x, shifted], cfg)
        assert np.max(np.abs(a - b)) <= 1e-10


def test_encode_deterministic(rng):
    cfg = EncoderConfig("angle", 2, 2)
    x = rng.uniform(0, 2 * np.pi, size=(3, 4))
    assert np.array_equal(encode_batch(x, cfg), encode_batch(x, cfg))


def test_noise_only_touches_noisy_path(rng):
    cfg = EncoderConfig("angle", 2, 2)
    x = rng.uniform(0, 2 * np.pi, size=(3, 4))
    zero = NoiseModel.from_error_rate(0.0)
    assert np.array_equal(encode_batch(x, cfg), encode_batch(x, cfg, zero))


def test_scale_features_examples():
    out = scale_features(np.array([[0.0], [1.0], [2.0]]), (0.0, 2 * np.pi))
    assert np.allclose(out.ravel(), [0.0, np.pi, 2 * np.pi])
    out = scale_features(np.array([[5.0], [5.0], [5.0]]), (0.0, 2 * np.pi))
    assert np.allclose(out.ravel(), [np.pi, np.pi, np.pi])
    out = scale_features(np.array([[-1.0], [1.0]]), (-np.pi, np.pi))
    assert np.allclose(out.ravel(), [-np.pi, np.pi])
    with pytest.raises(ValueError):
        scale_features(np.empty((0, 2)))
    with pytest.raises(ValueError, match=r"got shape \(2, 2, 4\)"):
        scale_features(np.zeros((2, 2, 4)))


def test_scale_features_keeps_a_full_range_column_finite():
    X = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 2.0]])
    with np.errstate(all="raise"):
        out = scale_features(X, (0.0, 2.0))
    assert np.allclose(out, [[0.0, 0.0], [2.0, 1.0], [1.0, 2.0]])


def test_scale_features_is_per_column():
    X = np.array([[0.0, 10.0], [1.0, 30.0]])
    out = scale_features(X, (0.0, 1.0))
    assert np.allclose(out, [[0.0, 0.0], [1.0, 1.0]])
