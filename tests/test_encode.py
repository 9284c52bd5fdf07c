import numpy as np
import pytest

from quidlab.encode import EncoderConfig, encode, encode_batch, encoding_gates, scale_features
from quidlab.errors import DegenerateInputError, ShapeError
from quidlab.noise import NoiseModel, noisy_apply
from quidlab.simcore import GateOp, apply_gate, ground_state


def equatorial(angle):
    # H then RZ(angle) on |0>: 0.5 [[1, e^{-ia}], [e^{ia}, 1]]
    return 0.5 * np.array([[1.0, np.exp(-1j * angle)], [np.exp(1j * angle), 1.0]])


def test_angle_single_qubit_zero_is_plus_state():
    cfg = EncoderConfig("angle", 1, 1)
    rho = encode(np.array([0.0]), cfg)
    assert np.allclose(rho.data, 0.5 * np.ones((2, 2)), atol=1e-12)


@pytest.mark.parametrize("angle", [0.4, np.pi / 2, np.pi, 5.1])
def test_angle_single_qubit_matches_closed_form(angle):
    cfg = EncoderConfig("angle", 1, 1)
    rho = encode(np.array([angle]), cfg)
    assert np.allclose(rho.data, equatorial(angle), atol=1e-12)


def test_equatorial_frobenius_distance_law():
    # d = sqrt(1 - cos(delta)) for two equatorial single-qubit states
    cfg = EncoderConfig("angle", 1, 1)
    for a, b in [(0.0, np.pi), (0.3, 1.2), (2.0, 5.5)]:
        ra, rb = encode(np.array([a]), cfg), encode(np.array([b]), cfg)
        d = np.linalg.norm(ra.data - rb.data)
        assert d == pytest.approx(np.sqrt(1 - np.cos(a - b)), abs=1e-12)
    d = np.linalg.norm(
        encode(np.array([np.pi]), cfg).data - encode(np.array([0.0]), cfg).data
    )
    assert d == pytest.approx(np.sqrt(2), abs=1e-12)


def test_angle_matches_explicit_gate_sequence(rng):
    # the batch encoder agrees with gate-by-gate single-state simulation,
    # including a partial final block (d=3 on 2 qubits x 2 features)
    cfg = EncoderConfig("angle", 2, 2)
    x = rng.uniform(0, 2 * np.pi, size=3)
    rho = ground_state(2)
    seq = [
        GateOp("H", (0,)),
        GateOp("H", (1,)),
        GateOp("RZ", (0,), x[0]),
        GateOp("RX", (0,), x[1]),
        GateOp("RZ", (1,), x[2]),
    ]
    for gate in seq:
        rho = apply_gate(rho, gate)
    assert np.allclose(encode(x, cfg).data, rho.data, atol=1e-12)
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
        rho = ground_state(n)
        angles = iter(row)
        for gate in encoding_gates(dim, cfg):
            if gate.param is not None:
                gate = GateOp(gate.name, gate.targets, float(next(angles)))
            rho = apply_gate(rho, gate) if model is None else noisy_apply(rho, gate, model)
        assert np.max(np.abs(state - rho.data)) <= 1e-12


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


def test_amplitude_basis_vector_gives_ground_state():
    cfg = EncoderConfig("amplitude", 2)
    rho = encode(np.array([1.0, 0.0, 0.0, 0.0]), cfg)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(rho.data, expected, atol=1e-15)


def test_amplitude_pads_and_normalises():
    cfg = EncoderConfig("amplitude", 2)
    rho = encode(np.array([3.0, 4.0]), cfg)
    psi = np.array([0.6, 0.8, 0.0, 0.0])
    assert np.allclose(rho.data, np.outer(psi, psi), atol=1e-12)


def test_amplitude_zero_vector_is_degenerate():
    cfg = EncoderConfig("amplitude", 2)
    with pytest.raises(DegenerateInputError):
        encode(np.zeros(4), cfg)


def test_dimension_overflow():
    with pytest.raises(ShapeError):
        encode(np.ones(3), EncoderConfig("angle", 1, 2))
    with pytest.raises(ShapeError):
        encode(np.ones(5), EncoderConfig("amplitude", 2))


def test_encodings_are_pure_and_valid(rng):
    for cfg in (EncoderConfig("angle", 3, 2), EncoderConfig("amplitude", 3)):
        x = rng.uniform(0, 2 * np.pi, size=(5, 6))
        stack = encode_batch(x, cfg)
        for state in stack:
            from quidlab.simcore import DensityMatrix

            dm = DensityMatrix(3, state)
            dm.validate()
            assert dm.purity() == pytest.approx(1.0, abs=1e-9)


def test_noisy_encoding_keeps_invariants(rng):
    model = NoiseModel.from_error_rate(0.05)
    for cfg in (EncoderConfig("angle", 2, 2), EncoderConfig("amplitude", 2)):
        x = rng.uniform(0, 2 * np.pi, size=(4, 4))
        stack = encode_batch(x, cfg, model)
        from quidlab.simcore import DensityMatrix

        for state in stack:
            DensityMatrix(2, state).validate()


def test_angle_periodicity(rng):
    cfg = EncoderConfig("angle", 2, 2)
    x = rng.uniform(0, 2 * np.pi, size=4)
    for i in range(4):
        shifted = x.copy()
        shifted[i] += 2 * np.pi
        a, b = encode(x, cfg), encode(shifted, cfg)
        assert np.max(np.abs(a.data - b.data)) <= 1e-10


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


def test_scale_features_keeps_a_full_range_column_finite():
    X = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 2.0]])
    with np.errstate(all="raise"):
        out = scale_features(X, (0.0, 2.0))
    assert np.allclose(out, [[0.0, 0.0], [2.0, 1.0], [1.0, 2.0]])


def test_scale_features_is_per_column():
    X = np.array([[0.0, 10.0], [1.0, 30.0]])
    out = scale_features(X, (0.0, 1.0))
    assert np.allclose(out, [[0.0, 0.0], [1.0, 1.0]])
