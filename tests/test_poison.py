import numpy as np
import pytest

from quidlab.data import LabeledDataset
from quidlab.encode import EncoderConfig
from quidlab.errors import AttackInfeasibleError
from quidlab.poison import (
    PoisonSpec,
    apply_poison,
    bilevel_random,
    quid_poison,
    random_flip,
    split_poison_set,
)

# ---------------------------------------------------------------------------
# brute-force oracle: explicit small matrices, python loops, no simulator code

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _rz(a):
    return np.array([[np.exp(-0.5j * a), 0.0], [0.0, np.exp(0.5j * a)]])


def _rx(a):
    c, s = np.cos(a / 2), np.sin(a / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _lift(u, qubit, n_qubits):
    full = np.array([[1.0]], dtype=complex)
    for q in range(n_qubits):
        full = np.kron(full, u if q == qubit else np.eye(2))
    return full


def oracle_encode(x, n_qubits, features_per_qubit):
    """Angle encoding via explicit full-register matrix products."""
    dim = 2**n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    for q in range(n_qubits):
        psi = _lift(_H, q, n_qubits) @ psi
    for q in range(n_qubits):
        for j in range(features_per_qubit):
            col = q * features_per_qubit + j
            if col >= len(x):
                break
            gate = _rz(x[col]) if j % 2 == 0 else _rx(x[col])
            psi = _lift(gate, q, n_qubits) @ psi
    return np.outer(psi, psi.conj())


def oracle_distance(a, b, metric):
    if metric == "frobenius":
        return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))
    if metric == "trace":
        return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))
    return float(1.0 - abs(np.trace(a.conj().T @ b)) / a.shape[0])


def oracle_quid_labels(dataset, clean_idx, poison_idx, n_qubits, fpq, metric):
    """First-principles max-distance labels for the poison set."""
    clean_states = {int(i): oracle_encode(dataset.features[i], n_qubits, fpq) for i in clean_idx}
    classes = sorted({int(dataset.labels[i]) for i in clean_idx})
    labels = []
    for i in poison_idx:
        rho = oracle_encode(dataset.features[i], n_qubits, fpq)
        best_class, best_dist = None, -1.0
        for c in classes:
            members = [j for j in clean_idx if dataset.labels[j] == c]
            total = 0.0
            for j in members:
                total += oracle_distance(rho, clean_states[int(j)], metric)
            mean = total / len(members)
            if mean > best_dist:  # strict: ties stay with the smaller class id
                best_class, best_dist = c, mean
        labels.append(best_class)
    return np.array(labels, dtype=np.int64)


def random_instance(rng):
    n_samples = int(rng.integers(4, 9))
    n_qubits = int(rng.integers(1, 3))
    n_classes = int(rng.integers(2, 4))
    dim = int(rng.integers(1, 3))
    fpq = max(1, int(np.ceil(dim / n_qubits)))
    features = rng.uniform(0, 2 * np.pi, size=(n_samples, dim))
    # keep at least one sample of two classes so the clean side stays usable
    labels = np.concatenate([[0, 1], rng.integers(0, n_classes, size=n_samples - 2)])
    ds = LabeledDataset(features, labels.astype(np.int64), n_classes)
    return ds, EncoderConfig("angle", n_qubits, fpq)


def run_oracle_comparison(rng, n_instances, metrics=("frobenius", "trace", "hilbert_schmidt")):
    mismatches = 0
    checked = 0
    for k in range(n_instances):
        ds, cfg = random_instance(rng)
        metric = metrics[k % len(metrics)]
        spec = PoisonSpec(epsilon=0.4, mode="quid", metric=metric, seed=int(rng.integers(1 << 30)))
        clean_idx, poison_idx = split_poison_set(ds, spec.epsilon, spec.seed)
        if poison_idx.size == 0 or np.unique(ds.labels[clean_idx]).size < 2:
            continue
        outcome = quid_poison(ds, spec, cfg)
        expected = oracle_quid_labels(
            ds, clean_idx, poison_idx, cfg.n_qubits, cfg.features_per_qubit, metric
        )
        checked += 1
        if not np.array_equal(outcome.dataset.labels[poison_idx], expected):
            mismatches += 1
    return checked, mismatches


# ---------------------------------------------------------------------------

def two_cluster_dataset():
    # 1 qubit, 2 classes: class 0 near angle 0, class 1 near pi
    features = np.array([[0.0], [0.2], [6.2], [np.pi], [np.pi - 0.2], [np.pi + 0.15]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    return LabeledDataset(features, labels, 2), EncoderConfig("angle", 1, 1)


def test_poison_spec_refuses_a_metric_that_is_not_a_name():
    for metric in (None, 1, ("frobenius",)):
        with pytest.raises(ValueError, match="unknown metric"):
            PoisonSpec(0.1, metric=metric)


def test_split_poison_set_limits():
    ds, _ = two_cluster_dataset()
    clean, poison = split_poison_set(ds, 0.0, seed=1)
    assert poison.size == 0 and clean.size == len(ds)
    clean, poison = split_poison_set(ds, 1.0, seed=1)
    assert clean.size == 0 and poison.size == len(ds)
    for epsilon, seed in ((1.5, 1), (True, 1), (0.5, True), (0.5, 2.5)):
        with pytest.raises(ValueError):
            split_poison_set(ds, epsilon, seed)


def test_split_poison_set_deterministic_half():
    rng = np.random.Generator(np.random.PCG64(0))
    ds = LabeledDataset(rng.uniform(size=(10, 2)), rng.integers(0, 2, 10), 2)
    a = split_poison_set(ds, 0.5, seed=3)
    b = split_poison_set(ds, 0.5, seed=3)
    assert a[1].size == 5 and a[0].size == 5
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.intersect1d(a[0], a[1]).size == 0
    assert np.union1d(a[0], a[1]).size == 10


def test_round_half_up():
    ds, _ = two_cluster_dataset()  # 6 samples
    _, poison = split_poison_set(ds, 0.25, seed=1)  # 1.5 -> 2
    assert poison.size == 2


def test_quid_epsilon_zero_identity():
    ds, cfg = two_cluster_dataset()
    outcome = quid_poison(ds, PoisonSpec(0.0, "quid", seed=4), cfg)
    assert np.array_equal(outcome.dataset.features, ds.features)
    assert np.array_equal(outcome.dataset.labels, ds.labels)
    assert outcome.poisoned_indices.size == 0


def test_quid_flips_to_antipodal_class():
    ds, cfg = two_cluster_dataset()
    # poison everything: reference empty would break, so poison half
    for seed in range(5):
        spec = PoisonSpec(0.5, "quid", "frobenius", seed=seed)
        clean_idx, poison_idx = split_poison_set(ds, 0.5, seed)
        if np.unique(ds.labels[clean_idx]).size < 2:
            continue
        outcome = quid_poison(ds, spec, cfg)
        for i, new in zip(outcome.poisoned_indices, outcome.new_labels):
            assert new == 1 - ds.labels[i]  # farthest class is the other cluster


def test_quid_matches_oracle_on_three_class_instance():
    features = np.array(
        [[0.1], [0.3], [2.0], [2.2], [4.2], [4.4], [1.0], [5.0]]
    )
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 2])
    ds = LabeledDataset(features, labels, 3)
    cfg = EncoderConfig("angle", 1, 1)
    for metric in ("frobenius", "trace", "hilbert_schmidt"):
        spec = PoisonSpec(0.25, "quid", metric, seed=9)
        clean_idx, poison_idx = split_poison_set(ds, 0.25, 9)
        outcome = quid_poison(ds, spec, cfg)
        expected = oracle_quid_labels(ds, clean_idx, poison_idx, 1, 1, metric)
        assert np.array_equal(outcome.dataset.labels[poison_idx], expected)


def test_quid_random_sweep_against_oracle(rng):
    checked, mismatches = run_oracle_comparison(rng, 60)
    assert checked >= 40
    assert mismatches == 0


def test_quid_requires_two_clean_classes():
    features = np.array([[0.0], [0.1], [0.2], [3.0]])
    ds = LabeledDataset(features, np.array([0, 0, 0, 1]), 2)
    cfg = EncoderConfig("angle", 1, 1)
    # force a split whose clean side is single-class
    for seed in range(200):
        clean_idx, poison_idx = split_poison_set(ds, 0.25, seed)
        if poison_idx.size and np.unique(ds.labels[clean_idx]).size < 2:
            with pytest.raises(AttackInfeasibleError):
                quid_poison(ds, PoisonSpec(0.25, "quid", seed=seed), cfg)
            return
    pytest.skip("no single-class split found")


def test_quid_preserves_clean_samples_bitwise():
    ds, cfg = two_cluster_dataset()
    spec = PoisonSpec(0.5, "quid", seed=2)
    outcome = quid_poison(ds, spec, cfg)
    assert len(outcome.dataset) == len(ds)
    assert np.array_equal(outcome.dataset.features, ds.features)  # features untouched
    clean_mask = np.ones(len(ds), dtype=bool)
    clean_mask[outcome.poisoned_indices] = False
    assert np.array_equal(outcome.dataset.labels[clean_mask], ds.labels[clean_mask])


def test_quid_deterministic():
    ds, cfg = two_cluster_dataset()
    spec = PoisonSpec(0.5, "quid", "trace", seed=8)
    a = quid_poison(ds, spec, cfg)
    b = quid_poison(ds, spec, cfg)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    assert np.array_equal(a.poisoned_indices, b.poisoned_indices)


def test_quid_tie_breaks_to_smallest_class():
    # both classes hold the identical feature vector: exact distance tie
    features = np.array([[1.0], [1.0], [4.0]])
    ds = LabeledDataset(features, np.array([1, 0, 0]), 2)
    cfg = EncoderConfig("angle", 1, 1)
    for seed in range(100):
        clean_idx, poison_idx = split_poison_set(ds, 1 / 3, seed)
        if 2 in poison_idx:
            outcome = quid_poison(ds, PoisonSpec(1 / 3, "quid", seed=seed), cfg)
            pos = list(outcome.poisoned_indices).index(2)
            assert outcome.new_labels[pos] == 0
            return
    pytest.skip("sample 2 never landed in the poison set")


def test_random_flip_contracts():
    ds, _ = two_cluster_dataset()
    out = random_flip(ds, PoisonSpec(0.0, "random_flip", seed=1))
    assert np.array_equal(out.dataset.labels, ds.labels)
    out = random_flip(ds, PoisonSpec(1.0, "random_flip", seed=1))
    # two classes: flipping is the deterministic complement
    assert np.array_equal(out.dataset.labels, 1 - ds.labels)
    rng = np.random.Generator(np.random.PCG64(0))
    big = LabeledDataset(rng.uniform(size=(60, 2)), rng.integers(0, 4, 60), 4)
    out = random_flip(big, PoisonSpec(0.5, "random_flip", seed=5))
    for i, old, new in zip(out.poisoned_indices, out.old_labels, out.new_labels):
        assert new != old
        assert 0 <= new < 4


def test_random_flip_single_class_infeasible():
    ds = LabeledDataset(np.zeros((4, 1)), np.zeros(4, dtype=np.int64), 1)
    with pytest.raises(AttackInfeasibleError):
        random_flip(ds, PoisonSpec(0.5, "random_flip", seed=1))


def test_bilevel_epsilon_zero_identity():
    ds, cfg = two_cluster_dataset()
    out = bilevel_random(ds, PoisonSpec(0.0, "bilevel_random", seed=3), cfg)
    assert np.array_equal(out.dataset.features, ds.features)
    assert np.array_equal(out.dataset.labels, ds.labels)


def test_bilevel_features_in_range_and_labels_match_quid():
    ds, cfg = two_cluster_dataset()
    spec = PoisonSpec(0.5, "bilevel_random", "frobenius", seed=6)
    out = bilevel_random(ds, spec, cfg)
    lo, hi = cfg.scale_range
    poisoned_feats = out.dataset.features[out.poisoned_indices]
    assert np.all(poisoned_feats >= lo) and np.all(poisoned_feats <= hi)
    # rerunning quid on the already-randomized dataset reproduces the labels
    quid_spec = PoisonSpec(0.5, "quid", "frobenius", seed=6)
    again = quid_poison(out.dataset.replace(labels=ds.labels.copy()), quid_spec, cfg)
    assert np.array_equal(
        again.dataset.labels[out.poisoned_indices],
        out.dataset.labels[out.poisoned_indices],
    )
    # clean features untouched
    clean_mask = np.ones(len(ds), dtype=bool)
    clean_mask[out.poisoned_indices] = False
    assert np.array_equal(out.dataset.features[clean_mask], ds.features[clean_mask])


@pytest.mark.parametrize("epsilon,seed", [(0.1, 0), (0.25, 3), (0.5, 11), (0.75, 42), (1 / 3, 7)])
def test_every_attack_poisons_the_split_poison_set(epsilon, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    ds = LabeledDataset(rng.uniform(0, 2 * np.pi, (24, 2)), np.arange(24) % 3, 3)
    cfg = EncoderConfig("angle", 1, 2)
    clean, want = split_poison_set(ds, epsilon, seed)
    for mode in ("quid", "random_flip", "bilevel_random"):
        outcome = apply_poison(ds, PoisonSpec(epsilon, mode, seed=seed), cfg)
        assert np.array_equal(outcome.poisoned_indices, want), mode
        assert np.array_equal(outcome.dataset.labels[clean], ds.labels[clean]), mode
        assert np.array_equal(outcome.dataset.features[clean], ds.features[clean]), mode


def test_quid_invariant_to_clean_ordering(rng):
    from quidlab.poison import _max_distance_labels

    clean_x = rng.uniform(0, 2 * np.pi, size=(12, 2))
    clean_y = rng.integers(0, 3, size=12)
    clean_y[:3] = [0, 1, 2]
    queries = rng.uniform(0, 2 * np.pi, size=(4, 2))
    cfg = EncoderConfig("angle", 1, 2)
    base = _max_distance_labels(clean_x, clean_y, queries, cfg, "frobenius", None)
    perm = rng.permutation(12)
    shuffled = _max_distance_labels(clean_x[perm], clean_y[perm], queries, cfg, "frobenius", None)
    assert np.array_equal(base, shuffled)


def test_poison_spec_validation():
    with pytest.raises(ValueError):
        PoisonSpec(1.5, "quid")
    with pytest.raises(ValueError):
        PoisonSpec(0.5, "gradient_cancel")
    with pytest.raises(ValueError):
        PoisonSpec(0.5, "quid", metric="hellinger")
    # a boolean ratio or seed, a fractional seed and a negative one are refused, not cast
    for kwargs in ({"epsilon": True}, {"epsilon": 0.5, "seed": True},
                   {"epsilon": 0.5, "seed": 2.5}, {"epsilon": 0.5, "seed": -1}):
        with pytest.raises(ValueError):
            PoisonSpec(**kwargs)
