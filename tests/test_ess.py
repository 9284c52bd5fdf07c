import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_stack,
    density_factors,
    density_from_pauli,
    random_density_matrix,
    random_pure_state,
)
from quidlab import ess
from quidlab.data import LabeledDataset, synth_clusters
from quidlab.encode import (
    EncoderConfig,
    _encode_factors,
    _expand,
    _kron_factors,
    encode_batch,
    scale_features,
)
from quidlab.errors import ShapeError
from quidlab.ess import (
    METRICS,
    canonical_metric,
    class_mean_distances,
    distance,
    pairwise_distances,
    validate_ess,
)
from quidlab.noise import NoiseModel
from quidlab.pqc import build_template, z_expectations
from quidlab.simcore import DensityMatrix


def test_metric_names():
    assert canonical_metric("hs") == "hilbert_schmidt"
    assert canonical_metric("Frobenius") == "frobenius"
    with pytest.raises(ValueError):
        canonical_metric("hellinger")


def test_distance_examples():
    zero, one = (DensityMatrix(1, s) for s in basis_stack(1, 0, 1))
    assert distance(zero, one, "frobenius") == pytest.approx(np.sqrt(2), abs=1e-12)
    assert distance(zero, one, "trace") == pytest.approx(1.0, abs=1e-12)
    plus = DensityMatrix(1, encode_batch([[0.0]], EncoderConfig("angle", 1, 1))[0])
    assert distance(plus, plus, "hs") == pytest.approx(0.5, abs=1e-12)  # 1 - 1/dim


def test_distance_dimension_mismatch():
    with pytest.raises(ShapeError):
        distance(DensityMatrix(1, np.eye(2) / 2), DensityMatrix(2, np.eye(4) / 4), "frobenius")


@pytest.mark.parametrize("metric", ["frobenius", "trace"])
def test_metric_axioms_on_random_triples(metric, rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        a, b, c = (DensityMatrix(n, random_density_matrix(rng, n)) for _ in range(3))
        dab = distance(a, b, metric)
        dba = distance(b, a, metric)
        assert abs(dab - dba) <= 1e-12
        assert distance(a, a, metric) <= 1e-12
        assert dab <= distance(a, c, metric) + distance(c, b, metric) + 1e-9


def test_hilbert_schmidt_range_and_symmetry(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a = DensityMatrix(n, random_density_matrix(rng, n))
        b = DensityMatrix(n, random_density_matrix(rng, n))
        d = distance(a, b, "hilbert_schmidt")
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(distance(b, a, "hilbert_schmidt"), abs=1e-12)
    pure = DensityMatrix(2, random_pure_state(rng, 2))
    assert distance(pure, pure, "hs") == pytest.approx(1 - 1 / 4, abs=1e-12)


def test_pairwise_matches_scalar_distance(rng):
    stacks = np.stack([random_density_matrix(rng, 2) for _ in range(4)])
    others = np.stack([random_density_matrix(rng, 2) for _ in range(3)])
    for metric in ("frobenius", "trace", "hilbert_schmidt"):
        table = pairwise_distances(stacks, others, metric)
        for i in range(4):
            for j in range(3):
                expected = distance(
                    DensityMatrix(2, stacks[i]), DensityMatrix(2, others[j]), metric
                )
                assert table[i, j] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("chunk", [1, 2, 8])
def test_trace_distance_chunks_are_bitwise_equal(monkeypatch, rng, chunk):
    # 7 x 3 pairs: one chunk by default; a budget of 8 differences runs 2 rows
    # (6 pairs) per call and 3 does not divide it, budgets of 1 and 2 split each row
    A = np.stack([random_density_matrix(rng, 2) for _ in range(7)])
    B = np.stack([random_density_matrix(rng, 2) for _ in range(3)])
    whole = pairwise_distances(A, B, "trace")
    monkeypatch.setattr(ess, "_EIG_BYTES", chunk * A[0].nbytes)
    assert pairwise_distances(A, B, "trace").tobytes() == whole.tobytes()
    for i, j in np.ndindex(whole.shape):
        want = distance(DensityMatrix(2, A[i]), DensityMatrix(2, B[j]), "trace")
        assert abs(whole[i, j] - want) <= 1e-12


@pytest.mark.parametrize("metric", METRICS)
def test_pairwise_distances_against_an_empty_stack(metric, rng):
    A = np.stack([random_density_matrix(rng, 2) for _ in range(3)])
    empty = A[:0]
    assert pairwise_distances(A, empty, metric).shape == (3, 0)
    assert pairwise_distances(empty, A, metric).shape == (0, 3)


def test_trace_distance_temporaries_stay_within_the_byte_budget(rng):
    import tracemalloc

    # 1,024 real 128x128 differences are 128 MiB: twice the budget of one chunk
    states = encode_batch(rng.uniform(0.1, 1.0, (32, 128)), EncoderConfig("amplitude", 7))
    tracemalloc.start()
    try:
        pairwise_distances(states, states, "trace")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ess._EIG_BYTES


def _cpus(monkeypatch, n):
    monkeypatch.setattr(ess.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("route", ["complex", "real"])
def test_trace_distance_is_bitwise_equal_across_thread_counts_and_budgets(monkeypatch, rng, route):
    if route == "complex":
        A = np.stack([random_density_matrix(rng, 2) for _ in range(7)])
        B = np.stack([random_density_matrix(rng, 2) for _ in range(5)])
    else:
        states = encode_batch(rng.uniform(0.1, 1.0, (12, 4)), EncoderConfig("amplitude", 2))
        A, B = states[:7], states[7:]
    _cpus(monkeypatch, 1)
    whole = pairwise_distances(A, B, "trace")
    itemsize = 16 if route == "complex" else 8
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        # budgets of a whole table, 6, 2 and 1 differences per thread
        for pairs in (1 << 20, 6, 2, 1):
            monkeypatch.setattr(ess, "_EIG_BYTES", cpus * pairs * 16 * itemsize)
            table = pairwise_distances(A, B, "trace")
            assert table.tobytes() == whole.tobytes(), (cpus, pairs)


def test_trace_distance_leaves_no_thread_behind(monkeypatch, rng):
    import threading

    A = np.stack([random_density_matrix(rng, 2) for _ in range(6)])
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(ess, "_EIG_BYTES", 2 * A[0].nbytes)  # one pair per block: 36 blocks
    solvers = set()
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solvers.add(threading.get_ident())
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    before = threading.active_count()
    pairwise_distances(A, A, "trace")
    assert threading.active_count() == before
    assert threading.get_ident() not in solvers  # the blocks ran on the call's own threads


@pytest.mark.parametrize("route", ["complex", "real"])
def test_trace_distance_of_nearly_hermitian_stacks_matches_the_scalar_distance(rng, route):
    if route == "complex":
        A = np.stack([random_density_matrix(rng, 2) for _ in range(4)])
        K = rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)
    else:
        A = encode_batch(rng.uniform(0.1, 1.0, (4, 4)), EncoderConfig("amplitude", 2))
        K = rng.standard_normal(A.shape).astype(complex)
    A = A + 1e-9 * (K - np.swapaxes(K, -1, -2).conj())  # anti-Hermitian perturbation
    assert bool(A.imag.any()) == (route == "complex")
    B = A[::-1].copy()
    table = pairwise_distances(A, B, "trace")
    for i, j in np.ndindex(table.shape):
        want = distance(DensityMatrix(2, A[i]), DensityMatrix(2, B[j]), "trace")
        assert abs(table[i, j] - want) <= 1e-12, (i, j)


def test_trace_metric_experiment_is_the_same_for_any_worker_count(tmp_path):
    from quidlab.cli import main

    data = tmp_path / "d.csv"
    assert main(["gen-data", "--classes", "2", "--dim", "4", "--per-class", "8",
                 "--seed", "5", "--out", str(data)]) == 0
    results = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["experiment", "--data", str(data), "--qubits", "2", "--epochs", "1",
                     "--metric", "trace", "--epsilon", "0.5", "--modes", "quid,bilevel_random",
                     "--workers", workers, "--seed", "3", "--out", str(out)]) == 0
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]
    assert b"failed" not in results[0]


def _eigvalsh_dtypes(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


@pytest.mark.parametrize("model", [None, NoiseModel.from_error_rate(0.05)], ids=["clean", "p0.05"])
def test_trace_distance_of_amplitude_states_runs_in_real_arithmetic(monkeypatch, rng, model):
    x = rng.uniform(-1.0, 1.0, size=(4, 8))
    # B repeats A's rows, then moves them slightly, then adds fresh rows
    y = np.vstack([x, x + 1e-9 * rng.standard_normal(x.shape), rng.uniform(-1.0, 1.0, (2, 8))])
    cfg = EncoderConfig("amplitude", 3)
    A, B = encode_batch(x, cfg, model), encode_batch(y, cfg, model)
    assert A.dtype == complex and not (A.imag.any() or B.imag.any())
    seen = _eigvalsh_dtypes(monkeypatch)
    table = pairwise_distances(A, B, "trace")
    assert seen and all(dtype == np.float64 for dtype in seen)
    for i, j in np.ndindex(table.shape):
        want = distance(DensityMatrix(3, A[i]), DensityMatrix(3, B[j]), "trace")
        assert abs(table[i, j] - want) <= 1e-12, (i, j)
    self_distances = np.diag(table[:, :4])
    assert np.all(self_distances >= 0.0) and np.all(self_distances < 1e-12)


def test_trace_distance_of_angle_states_stays_complex(monkeypatch, rng):
    A = encode_batch(rng.uniform(0, 2 * np.pi, size=(3, 4)), EncoderConfig("angle", 2, 2))
    assert A.imag.any()
    seen = _eigvalsh_dtypes(monkeypatch)
    table = pairwise_distances(A, A, "trace")
    assert seen and all(dtype == complex for dtype in seen)
    assert np.all(np.diag(table) >= 0.0) and np.all(np.diag(table) < 1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairwise_distances_property(data):
    n = data.draw(st.integers(1, 3))
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1))))
    make = random_pure_state if data.draw(st.booleans()) else random_density_matrix
    A = np.stack([make(rng, n) for _ in range(data.draw(st.integers(1, 4)))])
    # each row of B is a row of A moved a fraction w toward a fresh state; w=0 repeats it
    w_near = st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    weights = data.draw(st.lists(w_near | st.floats(0.0, 1.0), min_size=1, max_size=4))
    B = np.stack([
        (1.0 - w) * A[j % len(A)] + w * random_density_matrix(rng, n)
        for j, w in enumerate(weights)
    ])
    for metric in METRICS:
        table = pairwise_distances(A, B, metric)
        for i, j in np.ndindex(table.shape):
            want = distance(DensityMatrix(n, A[i]), DensityMatrix(n, B[j]), metric)
            assert abs(table[i, j] - want) <= 1e-12, (metric, i, j)


FACTOR_MODELS = {
    "noiseless": None,
    "p0.05": NoiseModel.from_error_rate(0.05),
    "per-gate": NoiseModel(
        per_gate={"stateprep": (("depolarizing", 0.07), ("amplitude_damping", 0.2))},
        default=(("depolarizing", 0.05),),
    ),
}


def _with_near_rows(x, rng):
    # fresh rows, then x's rows repeated and moved by 1e-12 and 1e-9
    moved = [x + w * rng.standard_normal(x.shape) for w in (1e-12, 1e-9)]
    return np.vstack([rng.permutation(x), x, *moved])


def _assert_factored_matches_dense(x, cfg, model, rng):
    y = _with_near_rows(x, rng)
    A, B = _encode_factors(x, cfg, model), _encode_factors(y, cfg, model)
    dense_a, dense_b = _expand(A), _expand(B)
    for metric in METRICS:
        table = pairwise_distances(A, B, metric)
        want = pairwise_distances(dense_a, dense_b, metric)
        assert table.shape == want.shape
        assert np.max(np.abs(table - want)) <= 1e-12, metric


@pytest.mark.parametrize("model_name", list(FACTOR_MODELS))
@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 7))
def test_factored_distances_of_angle_states_match_the_dense_ones(rng, n, f, model_name):
    x = rng.uniform(0.0, 2 * np.pi, size=(3, n * f))
    cfg = EncoderConfig("angle", n, f)
    assert len(_encode_factors(x, cfg, None)) == n
    _assert_factored_matches_dense(x, cfg, FACTOR_MODELS[model_name], rng)


@pytest.mark.parametrize("model_name", list(FACTOR_MODELS))
@pytest.mark.parametrize("n", range(1, 8))
def test_factored_distances_of_amplitude_states_match_the_dense_ones(rng, n, model_name):
    cfg = EncoderConfig("amplitude", n)
    for pad in range(n):
        data_qubits = n - pad
        dim = (1 << (data_qubits - 1)) + 1 if data_qubits > 1 else 2
        x = rng.uniform(-1.0, 1.0, size=(3, dim))
        factors = _encode_factors(x, cfg, FACTOR_MODELS[model_name])
        assert [f.shape for f in factors] == [(1, 2, 2)] * pad + [
            (3, 1 << data_qubits, 1 << data_qubits)]
        _assert_factored_matches_dense(x, cfg, FACTOR_MODELS[model_name], rng)


@pytest.mark.parametrize("metric", METRICS)
def test_dense_pairwise_distances_are_the_one_factor_kernel(rng, metric):
    A = np.stack([random_density_matrix(rng, 2) for _ in range(5)])
    B = np.vstack([A[:2], np.stack([random_density_matrix(rng, 2) for _ in range(3)])])
    table = pairwise_distances(A, B, metric)
    assert table.tobytes() == pairwise_distances((A,), (B,), metric).tobytes()


def test_pairwise_distances_refuse_stacks_of_another_factor_layout(rng):
    def encoded(kind, n, rows, dim):
        x = rng.uniform(0.1, 1.0, size=(rows, dim))
        return _encode_factors(x, EncoderConfig(kind, n), None)

    angle, one_qubit = encoded("angle", 2, 3, 2), encoded("angle", 1, 2, 1)
    amplitude, wide = encoded("amplitude", 2, 3, 2), encoded("amplitude", 2, 3, 4)
    assert [f.shape[1:] for f in amplitude] == [(2, 2), (2, 2)] and len(wide) == 1
    dense = _expand(angle)
    mismatches = [
        (angle, one_qubit),  # factor count
        (amplitude[1:], wide),  # width: one 2x2 against one 4x4 density factor
        (angle, density_factors(angle)),  # Pauli forms against density factors
        (angle, dense),  # a tuple of two factors against a dense (one-factor) array
        (dense, np.stack([random_density_matrix(rng, 1)])),  # dense 4x4 against 2x2
        (dense[0], dense[1]),  # one matrix each, not stacks
        (dense[:, :2], dense[:, :2]),  # stacks of 2x4 matrices
    ]
    for A, B in mismatches:
        for metric in METRICS:
            with pytest.raises(ShapeError):
                pairwise_distances(A, B, metric)
            with pytest.raises(ShapeError):
                pairwise_distances(B, A, metric)
    # a one-factor complex tuple is a dense stack
    assert pairwise_distances(wide, _expand(wide), "trace").shape == (3, 3)


def test_canonical_metric_refuses_a_non_string_with_value_error():
    ds = _separated_dataset()
    for call in (lambda: canonical_metric(None), lambda: canonical_metric(3),
                 lambda: canonical_metric(["frobenius"]),
                 lambda: validate_ess(ds, EncoderConfig("angle", 4, 2), None)):
        with pytest.raises(ValueError, match="unknown metric"):
            call()
    with pytest.raises(ValueError, match="None"):
        canonical_metric(None)


def test_class_mean_distances_refuse_labels_not_one_whole_id_per_reference_row(rng):
    reference = np.stack([random_density_matrix(rng, 1) for _ in range(4)])
    x = rng.uniform(0, 2 * np.pi, size=(4, 2))
    factored = _encode_factors(x, EncoderConfig("angle", 2), None)
    for stack in (reference, factored):
        for labels, match in (([0, 1, 0], "3 labels for 4 rows"),
                              ([0, 1, 0, 1, 1], "5 labels for 4 rows"),
                              ([[0, 1], [0, 1]], r"shape \(2, 2\)"),
                              ([[0], [1], [0], [1]], r"shape \(4, 1\)"),
                              ([0.5, 1, 0, 1], "whole numbers"),
                              ([0, 1, np.nan, 1], "whole numbers")):
            with pytest.raises(ValueError, match=match):
                class_mean_distances(stack, stack, labels, "frobenius")
        means, classes = class_mean_distances(stack, stack, [1.0, 0.0, 1.0, 3.0], "frobenius")
        assert means.shape == (4, 3) and classes.tolist() == [0, 1, 3]


def test_attacks_and_validation_reach_the_public_distance_entry_points(monkeypatch):
    # the names perfbench/spans.py wraps: a refactor that routes around them blinds the tracer
    from quidlab import poison
    from quidlab.poison import PoisonSpec, bilevel_random, quid_poison

    tables, means = [], []

    def counting(module, name, seen, table):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.append(table(result).shape)
            return result

        monkeypatch.setattr(module, name, wrapper)

    counting(ess, "pairwise_distances", tables, lambda result: result)
    counting(poison, "class_mean_distances", means, lambda result: result[0])
    ds = _separated_dataset()  # 4 classes of 60 rows
    cfg = EncoderConfig("angle", 4, 2)
    for attack, mode in ((quid_poison, "quid"), (bilevel_random, "bilevel_random")):
        tables.clear(), means.clear()
        outcome = attack(ds, PoisonSpec(0.1, mode, metric="trace", seed=3), cfg)
        m = outcome.poisoned_indices.size
        assert m == 24
        assert tables == [(m, len(ds) - m)] and means == [(m, 4)], attack.__name__
    tables.clear(), means.clear()
    report = validate_ess(ds, cfg, "hs", holdout_fraction=0.25, seed=5)
    assert tables == [(report.n_holdout, report.n_reference)] and means == []
    assert report.n_holdout + report.n_reference == len(ds)


def test_trace_distance_of_angle_factors_is_the_dense_route_bit_for_bit(rng):
    cfg, model = EncoderConfig("angle", 3, 2), NoiseModel.from_error_rate(0.05)
    x, y = rng.uniform(0, 2 * np.pi, size=(4, 6)), rng.uniform(0, 2 * np.pi, size=(5, 6))
    A, B = _encode_factors(x, cfg, model), _encode_factors(y, cfg, model)
    table = pairwise_distances(A, B, "trace")
    want = ess._trace_distances(encode_batch(x, cfg, model), encode_batch(y, cfg, model))
    assert table.tobytes() == want.tobytes()


def test_trace_distance_of_padded_amplitude_states_diagonalises_the_data_factor(monkeypatch, rng):
    cfg, model = EncoderConfig("amplitude", 6), NoiseModel.from_error_rate(0.05)
    A = _encode_factors(rng.uniform(-1.0, 1.0, size=(3, 12)), cfg, model)
    B = _encode_factors(rng.uniform(-1.0, 1.0, size=(4, 12)), cfg, model)
    assert [f.shape[1] for f in A] == [2, 2, 16]
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        seen.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    pairwise_distances(A, B, "trace")
    assert seen and all(shape[-2:] == (16, 16) for shape in seen)  # never the 4x4 padding


def test_padded_amplitude_states_at_twelve_qubits_keep_every_padding_factor_two_by_two(rng):
    # 2 features on 12 qubits: eleven 2x2 padding factors and a 2x2 data factor, where a
    # dense state is 256 MiB. The same rows at 8 qubits are checked against ess.distance on
    # dense states; adding k padding qubits keeps the trace distance (Tr tau = 1), scales the
    # Frobenius distance by ||tau||^k and |Tr(sigma^dag rho)| by ||tau||^(2k) (Frobenius norms).
    import tracemalloc

    model = FACTOR_MODELS["p0.05"]
    x, y = rng.uniform(-1.0, 1.0, size=(3, 2)), rng.uniform(-1.0, 1.0, size=(4, 2))
    y[1] = x[0]  # one equal pair
    A, B = (_encode_factors(z, EncoderConfig("amplitude", 12), model) for z in (x, y))
    assert [f.shape for f in A] == [(1, 2, 2)] * 11 + [(3, 2, 2)]
    tracemalloc.start()
    try:
        tables = {metric: pairwise_distances(A, B, metric) for metric in METRICS}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    small_a, small_b = (_encode_factors(z, EncoderConfig("amplitude", 8), model) for z in (x, y))
    dense_a, dense_b = _expand(small_a), _expand(small_b)
    want = {metric: np.array([[distance(DensityMatrix(8, a), DensityMatrix(8, b), metric)
                               for b in dense_b] for a in dense_a]) for metric in METRICS}
    tau = np.linalg.norm(A[0][0])
    assert np.max(np.abs(tables["trace"] - want["trace"])) <= 1e-12
    assert np.max(np.abs(tables["frobenius"] - want["frobenius"] * tau**4)) <= 1e-12
    overlap = (1.0 - want["hilbert_schmidt"]) * 2**8 * tau**8
    assert np.max(np.abs(tables["hilbert_schmidt"] - (1.0 - overlap / 2**12))) <= 1e-12


COMMON_MODELS = {
    "noiseless": None,
    "p0.05": NoiseModel.from_error_rate(0.05),
    "per-gate": NoiseModel(per_gate={"h": (("amplitude_damping", 0.2), ("depolarizing", 0.07))},
                           default=(("depolarizing", 0.05),)),
}


@pytest.mark.parametrize("model_name", list(COMMON_MODELS))
@pytest.mark.parametrize("gap", [1e-9, 0.7])
def test_one_row_angle_stacks_with_equal_factors_match_the_dense_distances(rng, gap, model_name):
    # one row each: the factors both hold equal (qubit 0, equal features; qubit 2, no feature)
    # are the common ones, in Pauli form; qubit 1 differs by gap (1e-9: a near Frobenius entry)
    model = COMMON_MODELS[model_name]
    cfg = EncoderConfig("angle", 3, 2)
    x = rng.uniform(0, 2 * np.pi, size=(1, 4))
    y = x.copy()
    y[0, 2:] += gap
    A, B = _encode_factors(x, cfg, model), _encode_factors(y, cfg, model)
    assert np.array_equal(A[0], B[0]) and np.array_equal(A[2], B[2])
    assert not np.array_equal(A[1], B[1])
    dense_a, dense_b = (DensityMatrix(3, _expand(F)[0]) for F in (A, B))
    for metric in METRICS:
        got = pairwise_distances(A, B, metric)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - distance(dense_a, dense_b, metric)) <= 1e-12, metric


def test_public_entry_points_read_real_density_matrices_as_density(rng):
    # amplitude states of real features are real: as float64 arrays they are still density
    # matrices, never read as the Pauli forms the angle encoder's real factors hold
    model = NoiseModel.from_error_rate(0.05)
    dense = encode_batch(rng.uniform(-1.0, 1.0, size=(5, 4)), EncoderConfig("amplitude", 2), model)
    assert dense.dtype == complex and not dense.imag.any()
    real = dense.real
    for name in ("pqc1", "pqc6"):
        tpl = build_template(name, 2)
        theta = rng.uniform(-np.pi, np.pi, tpl.param_count)
        want = z_expectations((dense,), tpl, theta, model)
        assert np.max(np.abs(z_expectations((real,), tpl, theta, model) - want)) <= 1e-12
    for metric in METRICS:
        want = pairwise_distances(dense[:2], dense[2:], metric)
        assert np.max(np.abs(pairwise_distances(real[:2], real[2:], metric) - want)) <= 1e-12
        pair = [distance(DensityMatrix(2, S[0]), DensityMatrix(2, S[1]), metric)
                for S in (real, dense)]
        assert abs(pair[0] - pair[1]) <= 1e-12
    # encode_batch expands the angle encoder's Pauli forms into density matrices
    x = rng.uniform(0, 2 * np.pi, size=(3, 2))
    cfg = EncoderConfig("angle", 2)
    stack = encode_batch(x, cfg, model)
    assert stack.dtype == complex
    want = density_from_pauli(_kron_factors(_encode_factors(x, cfg, model)))
    assert np.max(np.abs(stack - want)) <= 1e-12
    for state in stack:
        DensityMatrix(2, state).validate()


def _product_stack(rng, dims, rows, shared):
    """A factored stack of random states: factor f is shared when shared[f]."""
    def state(d):
        return random_density_matrix(rng, d.bit_length() - 1)
    return tuple(np.stack([state(d) for _ in range(1 if s else rows)])
                 for d, s in zip(dims, shared))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_factored_distances_property(data):
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1))))
    dims = data.draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))
    shared = data.draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    m, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    A = _product_stack(rng, dims, m, shared)
    # B shares A's shared factors; each per-row factor of B's row j is a row of A moved
    # a fraction w toward a fresh state, so w = 0 repeats that row of A
    w_near = st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    weights = data.draw(st.lists(w_near | st.floats(0.0, 1.0), min_size=k, max_size=k))
    fresh = _product_stack(rng, dims, k, shared)
    B = tuple(a if s else np.stack([(1.0 - w) * a[j % m] + w * g[j] for j, w in enumerate(weights)])
              for a, g, s in zip(A, fresh, shared))
    dense_a, dense_b = _expand(A), _expand(B)
    n = sum(d.bit_length() - 1 for d in dims)
    for metric in METRICS:
        table = pairwise_distances(A, B, metric)
        assert table.shape == (len(dense_a), len(dense_b))
        for i, j in np.ndindex(table.shape):
            want = distance(DensityMatrix(n, dense_a[i]), DensityMatrix(n, dense_b[j]), metric)
            assert abs(table[i, j] - want) <= 1e-12, (metric, i, j)


def _equatorial(angles):
    """The (len(angles), 2, 2) stack of the angles' one-qubit angle encodings."""
    return encode_batch(np.c_[angles], EncoderConfig("angle", 1, 1))


def _nearest(query, reference, labels, metric):
    """The class validate_ess labels the query with: argmin of the class-mean distances."""
    means, classes = class_mean_distances(query[None], reference, labels, metric)
    return int(classes[np.argmin(means[0])])


def test_nearest_class_antipodal_ordering():
    # two classes of equatorial states around angles 0 and pi
    states = _equatorial([0.0, 0.15, -0.12, np.pi, np.pi + 0.1, np.pi - 0.2, 0.05, np.pi - 0.05])
    reference, labels = states[:6], [0, 0, 0, 1, 1, 1]
    query, far = states[6:]
    assert _nearest(query, reference, labels, "frobenius") == 0
    assert _nearest(far, reference, labels, "frobenius") == 1


def test_nearest_class_single_class_and_ties():
    rho, other, query = _equatorial([1.0, 2.0, 0.3])
    assert _nearest(rho, other[None], [3], "trace") == 3
    # identical reference states under two labels: exact tie, smallest id wins
    assert _nearest(query, np.stack([rho, rho]), [1, 0], "frobenius") == 0
    with pytest.raises(ValueError):
        _nearest(rho, np.empty((0, 2, 2)), [], "frobenius")


def test_nearest_class_reference_order_invariance(rng):
    cfg = EncoderConfig("angle", 2, 2)
    reference = encode_batch(rng.uniform(0, 2 * np.pi, size=(6, 4)), cfg)
    labels = np.array([0, 0, 1, 1, 2, 2])
    query = encode_batch(rng.uniform(0, 2 * np.pi, size=(1, 4)), cfg)[0]
    want = _nearest(query, reference, labels, "frobenius")
    for _ in range(5):
        perm = rng.permutation(len(reference))
        assert _nearest(query, reference[perm], labels[perm], "frobenius") == want


def test_argmin_invariant_under_positive_scaling(rng):
    queries = np.stack([random_density_matrix(rng, 2) for _ in range(5)])
    reference = np.stack([random_density_matrix(rng, 2) for _ in range(8)])
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    means, classes = class_mean_distances(queries, reference, labels, "frobenius")
    assert np.array_equal(np.argmin(means, axis=1), np.argmin(7.3 * means, axis=1))
    assert np.array_equal(np.argmax(means, axis=1), np.argmax(7.3 * means, axis=1))


def _separated_dataset(seed=5):
    ds = synth_clusters(4, 8, 60, spread=0.25, seed=seed)
    return ds.replace(features=scale_features(ds.features))


def test_validate_ess_separated_clusters():
    ds = _separated_dataset()
    report = validate_ess(ds, EncoderConfig("angle", 4, 2), "frobenius", seed=5)
    assert report.accuracy >= 0.95
    assert report.n_reference + report.n_holdout == len(ds)
    for c in report.intra_mean:
        assert report.intra_mean[c] < report.inter_mean[c]


def test_validate_ess_shuffled_labels_hit_chance():
    ds = _separated_dataset()
    rng = np.random.Generator(np.random.PCG64(99))
    shuffled = ds.replace(labels=rng.permutation(ds.labels))
    report = validate_ess(shuffled, EncoderConfig("angle", 4, 2), "frobenius", seed=5)
    sigma = np.sqrt(0.25 * 0.75 / report.n_holdout)
    assert abs(report.accuracy - 0.25) <= 3 * sigma


def test_validate_ess_rejects_degenerate_inputs():
    ds = _separated_dataset()
    with pytest.raises(ValueError):
        validate_ess(ds, EncoderConfig("angle", 4, 2), "frobenius", holdout_fraction=1.0)
    single = ds.replace(labels=np.zeros(len(ds), dtype=np.int64))
    with pytest.raises(ValueError):
        validate_ess(single, EncoderConfig("angle", 4, 2), "frobenius")


def test_validate_ess_rejects_a_single_class_reference_split():
    # the stratified split puts the lone class-1 row into the holdout
    ds = LabeledDataset(np.array([[0.1, 0.2], [0.2, 0.1], [0.3, 0.3], [0.9, 0.8]]),
                        np.array([0, 0, 0, 1]), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least 2 classes"):
            validate_ess(ds, EncoderConfig("angle", 2), "frobenius")


def test_ess_validate_encodes_each_split_once_for_all_metrics(monkeypatch, tmp_path):
    from quidlab.cli import main

    data = tmp_path / "d.csv"
    assert main(["gen-data", "--classes", "2", "--dim", "4", "--per-class", "3",
                 "--seed", "5", "--out", str(data)]) == 0
    rows = []
    real = ess._encode_factors

    def counting(X, cfg, model):
        rows.append(len(X))
        return real(X, cfg, model)

    monkeypatch.setattr(ess, "_encode_factors", counting)
    assert main(["ess-validate", "--data", str(data), "--qubits", "2", "--noise", "0.05",
                 "--seed", "3", "--out", str(tmp_path / "o")]) == 0
    assert len(rows) == 2 and sum(rows) == 6
    assert (tmp_path / "o" / "report.csv").read_text().count("\n") == 1 + len(METRICS)


def depth_skewed_dataset(seed=5, n_classes=4, per_class=40, dim=16):
    """Class signal in each qubit's first rotation (most noise-exposed),
    intra-class spread in the last rotation (least exposed), so labeling
    accuracy degrades as the per-gate error rate grows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    first = np.arange(0, dim, 4)
    last = np.arange(3, dim, 4)
    means = np.full((n_classes, dim), np.pi / 2)
    means[:, first] = rng.uniform(0, 2 * np.pi, size=(n_classes, first.size))
    x = np.repeat(means, per_class, axis=0)
    x[:, last] += 0.9 * rng.standard_normal((n_classes * per_class, last.size))
    x[:, first] += 0.25 * rng.standard_normal((n_classes * per_class, first.size))
    labels = np.repeat(np.arange(n_classes), per_class)
    return LabeledDataset(np.clip(x, 0, 2 * np.pi), labels, n_classes)


def test_angle_accuracy_degrades_with_noise():
    ds = depth_skewed_dataset()
    cfg = EncoderConfig("angle", 4, 4)
    accs = []
    for p in (0.0, 0.05, 0.1):
        model = NoiseModel.from_error_rate(p) if p else None
        accs.append(validate_ess(ds, cfg, "frobenius", model=model, seed=0).accuracy)
    assert accs[0] > accs[1] > accs[2]
