import json
import re

import numpy as np
import pytest

from conftest import density_from_pauli
from quidlab import qnn
from quidlab.data import LabeledDataset, split, synth_clusters
from quidlab.encode import EncoderConfig, _kron_factors, _rows, encode_batch, scale_features
from quidlab.errors import DataFormatError
from quidlab.noise import NoiseModel
from quidlab.pqc import apply_pqc_stack, build_template
from quidlab.simcore import expect_z_stack, pauli_form
from quidlab.qnn import (
    QnnModel,
    TrainConfig,
    _Adam,
    _batch_ce,
    _forward_from_states,
    evaluate,
    forward,
    init_model,
    load_model,
    save_model,
    spsa_estimate,
    softmax,
    train,
)


def small_model(seed=3, n_qubits=2, n_classes=2):
    enc = EncoderConfig("angle", n_qubits, 2)
    tpl = build_template("pqc1", n_qubits, 1)
    return init_model(enc, tpl, n_classes, seed=seed)


def separable_dataset(seed=2, per_class=16):
    ds = synth_clusters(4, 8, per_class, spread=0.3, seed=seed)
    return ds.replace(features=scale_features(ds.features))


def step_gradient(model, X, y, config=TrainConfig()):
    """qnn._step_gradient on one encoded batch, with a fresh generator at config.seed:
    its gradient split into (theta, head weights, head bias)."""
    [(states, labels)] = qnn._encode(model, config.noise, (X, y))
    rng = np.random.Generator(np.random.PCG64(config.seed))
    _, grad = qnn._step_gradient(model, states, labels, config, rng)
    theta_end = model.theta.size
    weights_end = theta_end + model.head_weights.size
    return (grad[:theta_end], grad[theta_end:weights_end].reshape(model.head_weights.shape),
            grad[weights_end:])


def test_forward_uniform_with_zero_head(rng):
    model = small_model(n_classes=4)
    x = rng.uniform(0, 2 * np.pi, size=4)
    probs = forward(model, x)
    assert np.allclose(probs, 0.25, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_probabilities_sum_to_one_under_noise(rng):
    model = small_model(n_classes=3)
    model.head_weights = rng.standard_normal(model.head_weights.shape)
    x = rng.uniform(0, 2 * np.pi, size=4)
    for p in (0.0, 0.05, 0.2):
        noise = NoiseModel.from_error_rate(p) if p else None
        probs = forward(model, x, noise=noise)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs >= 0).all()


def test_forward_and_vote_take_exactly_one_row(rng):
    # without n_features, a reshape to one row would read a (2, 4) matrix as 8 features
    from quidlab.defense import EnsembleModel, vote

    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 3, seed=2)
    model.head_weights = rng.standard_normal(model.head_weights.shape)
    ensemble = EnsembleModel([model, model.copy()])
    x = rng.uniform(0, 2 * np.pi, size=4)
    assert np.array_equal(forward(model, x[None]), forward(model, x))
    assert vote(ensemble, x[None]) == vote(ensemble, x)
    for bad in (np.stack([x, x]), x.reshape(1, 1, 4), np.float64(0.5)):
        for call in (forward, lambda m, b: vote(ensemble, b)):
            with pytest.raises(ValueError, match=f"got shape {re.escape(str(bad.shape))}"):
                call(model, bad)


def test_forward_shots_deterministic(rng):
    model = small_model(n_classes=2)
    model.head_weights = rng.standard_normal(model.head_weights.shape)
    x = rng.uniform(0, 2 * np.pi, size=4)
    a = forward(model, x, shots=1000, seed=5)
    b = forward(model, x, shots=1000, seed=5)
    assert np.array_equal(a, b)


def test_cross_entropy_examples():
    assert _batch_ce(np.array([[0.25] * 4]), np.array([1])) == pytest.approx(np.log(4),
                                                                          abs=1e-12)
    assert _batch_ce(np.array([[0.0, 1.0]]), np.array([1])) == pytest.approx(0.0, abs=1e-12)
    clamped = _batch_ce(np.array([[1e-15, 1 - 1e-15]]), np.array([0]))  # at PROB_FLOOR
    assert clamped == pytest.approx(-np.log(1e-12), abs=1e-9)


def test_batch_ce_rounds_as_np_mean(rng):
    probs = softmax(rng.standard_normal((4, 37, 3)))
    labels = rng.integers(0, 3, size=37)
    for p in probs:
        want = float(-np.log(np.maximum(p[np.arange(37), labels], qnn.PROB_FLOOR)).mean())
        assert _batch_ce(p, labels) == want


def test_spsa_zero_on_constant_loss(rng):
    model = small_model(n_classes=4)  # zero head: loss independent of theta
    X = rng.uniform(0, 2 * np.pi, size=(6, 4))
    y = rng.integers(0, 4, size=6)
    grad_theta, _, _ = step_gradient(model, X, y, TrainConfig(seed=1))
    assert np.array_equal(grad_theta, np.zeros_like(model.theta))


def test_spsa_estimates_quadratic_gradient():
    theta = np.array([1.0, -2.0])
    rng = np.random.Generator(np.random.PCG64(1))
    pair = lambda ts: [0.5 * float(t @ t) for t in ts]  # noqa: E731
    grad = sum(spsa_estimate(pair, theta, 0.01, rng) for _ in range(2000)) / 2000
    assert np.linalg.norm(grad - theta) / np.linalg.norm(theta) <= 0.05


def test_spsa_deterministic_given_seed(rng):
    model = small_model(n_classes=2)
    model.head_weights = rng.standard_normal(model.head_weights.shape)
    X = rng.uniform(0, 2 * np.pi, size=(5, 4))
    y = rng.integers(0, 2, size=5)
    cfg = TrainConfig(seed=11)
    assert np.array_equal(step_gradient(model, X, y, cfg)[0], step_gradient(model, X, y, cfg)[0])


def test_head_gradient_zero_at_perfect_prediction():
    # logits saturated toward the true class: probs ~ onehot, grads ~ 0
    model = small_model(n_classes=2)
    model.theta = np.zeros_like(model.theta)  # identity circuit
    model.head_weights = np.array([[500.0, 0.0], [-500.0, 0.0]])
    X = np.array([[np.pi / 2, np.pi / 2, np.pi / 2, np.pi / 2]])
    y = np.array([0])
    _, grad_w, grad_b = step_gradient(model, X, y)
    assert np.max(np.abs(grad_w)) < 1e-8
    assert np.max(np.abs(grad_b)) < 1e-8


def test_head_gradient_uniform_single_sample():
    model = small_model(n_classes=4)  # zero head -> uniform probs
    X = np.array([[0.3, 1.0, 2.0, 0.7]])
    _, grad_w, grad_b = step_gradient(model, X, np.array([0]))
    assert np.allclose(grad_b, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_head_gradient_matches_finite_differences(rng):
    model = small_model(n_classes=3)
    model.head_weights = 0.5 * rng.standard_normal(model.head_weights.shape)
    model.head_bias = 0.1 * rng.standard_normal(3)
    X = rng.uniform(0, 2 * np.pi, size=(4, 4))
    y = rng.integers(0, 3, size=4)
    states = (pauli_form(encode_batch(X, model.encoder)),)  # one dense factor, as _encode has it
    _, grad_w, grad_b = step_gradient(model, X, y)

    def loss_at(w, b):
        probe = model.copy()
        probe.head_weights, probe.head_bias = w, b
        probs, _ = _forward_from_states(probe, states, probe.theta, None, 0, None)
        return _batch_ce(probs, y)

    h = 1e-6
    for idx in np.ndindex(*model.head_weights.shape):
        wp, wm = model.head_weights.copy(), model.head_weights.copy()
        wp[idx] += h
        wm[idx] -= h
        fd = (loss_at(wp, model.head_bias) - loss_at(wm, model.head_bias)) / (2 * h)
        assert grad_w[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)
    for i in range(3):
        bp, bm = model.head_bias.copy(), model.head_bias.copy()
        bp[i] += h
        bm[i] -= h
        fd = (loss_at(model.head_weights, bp) - loss_at(model.head_weights, bm)) / (2 * h)
        assert grad_b[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def schrodinger_forward(model, states, theta, noise, shots, rng):
    """Forward pass that pushes every state through the PQC: the readout oracle.

    states is a factored stack in Pauli form, as qnn._encode gives it, expanded and taken
    back to density matrices here; theta is one point or a stack of points, each pushed
    forward on its own.
    """
    n = model.encoder.n_qubits
    states = density_from_pauli(_kron_factors(states))
    points = np.reshape(theta, (-1, model.template.param_count))
    outs = [apply_pqc_stack(states, model.template, t, noise) for t in points]
    z = np.stack([np.column_stack([expect_z_stack(out, q, n) for q in range(n)]) for out in outs])
    z = z.reshape(np.shape(theta)[:-1] + z.shape[1:])
    if shots:
        z = 2.0 * rng.binomial(shots, np.clip((1.0 + z) / 2.0, 0.0, 1.0)) / shots - 1.0
    return softmax(z @ model.head_weights.T + model.head_bias), z


@pytest.mark.parametrize("shots", [0, 64])
def test_train_matches_schrodinger_forward(monkeypatch, shots):
    # with shots, any extra or missing draw shifts every later SPSA direction
    ds = separable_dataset(per_class=6)
    tr, te = split(ds, 0.75, stratified=True, seed=2)
    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc8", 4, 1), 4, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=5, shots=shots,
                      noise=NoiseModel.from_error_rate(0.05))
    got = train(model, tr, te, cfg)
    monkeypatch.setattr(qnn, "_forward_from_states", schrodinger_forward)
    want = train(model, tr, te, cfg)
    assert np.allclose(got.model.theta, want.model.theta, rtol=0, atol=1e-12)
    assert np.allclose(got.model.head_weights, want.model.head_weights, rtol=0, atol=1e-12)
    assert np.allclose(got.train_loss, want.train_loss, rtol=0, atol=1e-12)
    assert got.test_accuracy == want.test_accuracy


@pytest.mark.parametrize("shots", [0, 64])
def test_training_step_pulls_back_once(monkeypatch, shots):
    # theta, theta + c*delta and theta - c*delta as one three-point stack per batch
    ds = separable_dataset(per_class=6)
    tr, te = split(ds, 0.75, stratified=True, seed=2)
    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4, seed=2)
    points = []
    pull_back = qnn._pull_back
    monkeypatch.setattr(qnn, "_pull_back",
                        lambda states, tpl, theta, noise: points.append(np.shape(theta)) or
                        pull_back(states, tpl, theta, noise))
    train(model, tr, te, TrainConfig(epochs=2, batch_size=8, seed=5, shots=shots))
    batches = -(-len(tr) // 8)
    epoch = [(3, model.template.param_count)] * batches + [(model.template.param_count,)]
    assert points == epoch * 2  # each epoch ends with one test-set readout


def old_spsa_pair(model, states, labels, config, rng):
    """The old two-point readout: spsa_estimate of the batch's mean cross-entropy, with
    theta + c*delta and theta - c*delta pulled back as one two-point stack."""

    def pair_loss(thetas):
        probs, _ = _forward_from_states(model, states, thetas, config.noise, config.shots, rng)
        return _batch_ce(probs[0], labels), _batch_ce(probs[1], labels)

    return spsa_estimate(pair_loss, model.theta, qnn.SPSA_C, rng)


def old_fit(model, train_states, train_labels, test_states, test_labels, config):
    """The training loop as it was with a P = 1 readout at theta, the two-point
    old_spsa_pair readout and one _Adam per parameter group: the bit-for-bit reference."""
    model = model.copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    adams = [_Adam(a.shape, config.learning_rate)
             for a in (model.theta, model.head_weights, model.head_bias)]
    train_loss, test_loss, test_accuracy = [], [], []
    n = len(train_labels)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            states, labels = _rows(train_states, idx), train_labels[idx]
            probs, z = _forward_from_states(model, states, model.theta, config.noise,
                                            config.shots, rng)
            batch_losses.append(_batch_ce(probs, labels))
            grad_w, grad_b = qnn._head_grads_from(probs, z, labels)
            grad_theta = old_spsa_pair(model, states, labels, config, rng)
            model.theta = adams[0].step(model.theta, grad_theta)
            model.head_weights = adams[1].step(model.head_weights, grad_w)
            model.head_bias = adams[2].step(model.head_bias, grad_b)
        train_loss.append(float(np.mean(batch_losses)))
        acc, loss = qnn._evaluate_states(model, test_states, test_labels, config.noise,
                                         config.shots, rng)
        test_loss.append(loss)
        test_accuracy.append(acc)
    return qnn.TrainReport(train_loss, test_loss, test_accuracy, model, 0.0)


def assert_same_training(got, want):
    for name in ("theta", "head_weights", "head_bias"):
        assert np.array_equal(getattr(got.model, name), getattr(want.model, name)), name
    for name in ("train_loss", "test_loss", "test_accuracy"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("p", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["pqc1", "pqc6", "pqc8"])
def test_train_matches_the_old_step_bit_for_bit(monkeypatch, kind, p):
    # one Adam over the concatenated parameters is elementwise, so nothing moves at shots 0
    ds = separable_dataset(per_class=6)
    tr, te = split(ds, 0.75, stratified=True, seed=2)
    model = init_model(EncoderConfig("angle", 4, 2), build_template(kind, 4, 1), 4, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=5,
                      noise=NoiseModel.from_error_rate(p) if p else None)
    got = train(model, tr, te, cfg)
    monkeypatch.setattr(qnn, "_fit", old_fit)
    assert_same_training(got, train(model, tr, te, cfg))


def test_ensemble_member_matches_the_old_step_bit_for_bit(monkeypatch):
    from quidlab import defense

    ds = separable_dataset(per_class=6)
    tr, te = split(ds, 0.75, stratified=True, seed=2)
    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5, noise=NoiseModel.from_error_rate(0.05))
    _, got = defense.train_ensemble(tr, te, cfg, model, 2, 0)
    monkeypatch.setattr(defense, "_fit", old_fit)
    _, want = defense.train_ensemble(tr, te, cfg, model, 2, 0)
    assert_same_training(got[1], want[1])


def test_training_step_draws_delta_then_the_base_plus_and_minus_shots():
    model = small_model(n_classes=3)
    model.head_weights = np.random.default_rng(1).standard_normal(model.head_weights.shape)
    X = np.random.default_rng(2).uniform(0, 2 * np.pi, size=(5, 4))
    y = np.array([0, 1, 2, 1, 0])
    cfg = TrainConfig(seed=7, shots=32, noise=NoiseModel.from_error_rate(0.05))
    [(states, labels)] = qnn._encode(model, cfg.noise, (X, y))
    rngs = [np.random.Generator(np.random.PCG64(cfg.seed)) for _ in range(2)]
    base = []

    def step_loss(pair):  # one point at a time, on the generator spsa_estimate drew delta from
        base.append(_forward_from_states(model, states, model.theta, cfg.noise, cfg.shots,
                                         rngs[0]))
        return tuple(_batch_ce(_forward_from_states(model, states, t, cfg.noise, cfg.shots,
                                                    rngs[0])[0], labels) for t in pair)

    want_theta = spsa_estimate(step_loss, model.theta, qnn.SPSA_C, rngs[0])
    [(probs, z)] = base
    grad_w, grad_b = qnn._head_grads_from(probs, z, labels)
    want = np.concatenate([want_theta, grad_w.ravel(), grad_b])
    loss, got = qnn._step_gradient(model, states, labels, cfg, rngs[1])
    assert np.any(want_theta) and got.tobytes() == want.tobytes()
    assert loss == _batch_ce(probs, labels)
    assert rngs[0].integers(2**62) == rngs[1].integers(2**62)  # and nothing more drawn


def test_training_step_estimates_through_spsa_estimate(monkeypatch):
    ds = separable_dataset(per_class=6)
    tr, te = split(ds, 0.75, stratified=True, seed=2)
    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4, seed=2)
    calls = []
    estimate = qnn.spsa_estimate
    monkeypatch.setattr(qnn, "spsa_estimate",
                        lambda *args, **kwargs: calls.append((len(args), kwargs))
                        or estimate(*args, **kwargs))
    train(model, tr, te, TrainConfig(epochs=1, batch_size=8, seed=5))
    assert calls == [(4, {})] * -(-len(tr) // 8)  # four positional arguments, no keyword


def test_adam_zero_gradient_is_identity():
    adam = _Adam((3,), lr=0.01)
    param = np.array([1.0, -2.0, 0.5])
    out = adam.step(param, np.zeros(3))
    assert np.array_equal(out, param)


def test_train_zero_epochs_is_identity():
    ds = separable_dataset()
    tr, te = split(ds, 0.75, stratified=True, seed=2)
    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4, seed=2)
    report = train(model, tr, te, TrainConfig(epochs=0, seed=2))
    assert report.train_loss == [] and report.test_accuracy == []
    assert np.array_equal(report.model.theta, model.theta)
    assert np.array_equal(report.model.head_weights, model.head_weights)


def test_train_is_deterministic():
    ds = separable_dataset(per_class=10)
    tr, te = split(ds, 0.75, stratified=True, seed=2)
    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4, seed=2)
    cfg = TrainConfig(epochs=3, seed=7)
    a = train(model, tr, te, cfg)
    b = train(model, tr, te, cfg)
    assert a.train_loss == b.train_loss
    assert a.test_loss == b.test_loss
    assert a.test_accuracy == b.test_accuracy
    assert np.array_equal(a.model.theta, b.model.theta)
    assert np.array_equal(a.model.head_weights, b.model.head_weights)


def test_train_reaches_high_accuracy_on_separable_clusters():
    ds = synth_clusters(4, 8, 250, spread=0.25, seed=1)
    ds = ds.replace(features=scale_features(ds.features))
    tr, te = split(ds, 0.7, stratified=True, seed=1)
    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4, seed=1)
    report = train(model, tr, te, TrainConfig(seed=1))
    assert len(report.train_loss) == 30
    assert report.test_accuracy[-1] >= 0.90
    assert all(0.0 <= a <= 1.0 for a in report.test_accuracy)
    assert all(l >= 0.0 for l in report.train_loss + report.test_loss)


def test_evaluate_tie_break_and_counts():
    model = small_model(n_classes=4)  # uniform probs -> argmax 0
    ds = LabeledDataset(np.full((5, 4), np.pi), np.zeros(5, dtype=np.int64), 4)
    acc, loss = evaluate(model, ds)
    assert acc == 1.0
    assert loss == pytest.approx(np.log(4), abs=1e-9)
    ds2 = LabeledDataset(np.full((2, 4), np.pi), np.array([0, 1]), 4)
    acc, _ = evaluate(model, ds2)
    assert acc == 0.5
    with pytest.raises(ValueError):
        evaluate(model, LabeledDataset(np.empty((0, 4)), np.empty(0, dtype=int), 4))


def test_evaluate_perfect_classifier_loss_near_zero():
    model = small_model(n_classes=2)
    model.theta = np.zeros_like(model.theta)  # identity circuit
    # features place <Z> of qubit 0 at +1 / -1 for the two classes
    model.head_weights = np.array([[50.0, 0.0], [-50.0, 0.0]])
    X = np.array(
        [[np.pi / 2, np.pi / 2, 0.0, 0.0], [np.pi / 2, 3 * np.pi / 2, 0.0, 0.0]]
    )
    ds = LabeledDataset(X, np.array([0, 1]), 2)
    acc, loss = evaluate(model, ds)
    assert acc == 1.0
    assert loss < 1e-6


def test_checkpoint_roundtrip(tmp_path, rng):
    model = small_model(n_classes=3)
    model.head_weights = rng.standard_normal(model.head_weights.shape)
    model.head_bias = rng.standard_normal(3)
    path = tmp_path / "model.json"
    save_model(model, path, seed=42)
    back = load_model(path)
    assert back.encoder == model.encoder
    assert back.template == model.template
    assert np.array_equal(back.theta, model.theta)
    assert np.array_equal(back.head_weights, model.head_weights)
    assert np.array_equal(back.head_bias, model.head_bias)
    assert back.n_classes == model.n_classes


def test_checkpoint_keeps_its_feature_count_and_version_1_still_loads(tmp_path):
    model = init_model(EncoderConfig("angle", 2, 2), build_template("pqc1", 2, 1), 2,
                       n_features=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    raw = json.loads(path.read_text())
    assert raw["format_version"] == 2 and raw["n_features"] == 3
    assert load_model(path).n_features == 3
    assert load_model(path).copy().n_features == 3
    del raw["n_features"]
    path.write_text(json.dumps(dict(raw, format_version=1)))
    assert load_model(path).n_features is None
    path.write_text(json.dumps(dict(raw, format_version=2)))  # version 2 needs the key
    with pytest.raises(DataFormatError, match="malformed"):
        load_model(path)
    path.write_text(json.dumps(dict(raw, format_version=2, n_features=5)))  # capacity is 4
    with pytest.raises(DataFormatError, match="capacity"):
        load_model(path)


def test_library_paths_refuse_a_dataset_of_another_width():
    # every public path that encodes features for a model; those that take labels also
    # refuse labels outside the model's head
    from quidlab.defense import (EnsembleModel, evaluate_ensemble, member_predictions,
                                 train_ensemble, vote)

    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4,
                       n_features=8)
    wide = separable_dataset(per_class=4)
    narrow = wide.replace(features=wide.features[:, :7])
    ensemble = EnsembleModel([model, model.copy()])
    config = TrainConfig(epochs=1)
    entry_points = [
        lambda ds: evaluate(model, ds),
        lambda ds: train(model, wide, ds, config),
        lambda ds: train_ensemble(ds, wide, config, model, 2, 0),
        lambda ds: forward(model, ds.features[0]),
        lambda ds: member_predictions(ensemble, ds.features),
        lambda ds: vote(ensemble, ds.features[0]),
        lambda ds: evaluate_ensemble(ensemble, ds),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="8 features.* 7"):
            call(narrow)
    # labels outside the 4-class head: 4 in a 5-class dataset, and a raw -1 reassigned
    # after construction, which LabeledDataset does not see again
    outside = LabeledDataset(wide.features, np.where(wide.labels == 3, 4, wide.labels), 5)
    minus_one = wide.replace()
    minus_one.labels = np.where(wide.labels == 3, -1, wide.labels)
    label_entry_points = [
        lambda: evaluate(model, outside),
        lambda: train(model, wide, outside, config),
        lambda: train_ensemble(outside, wide, config, model, 2, 0),
        lambda: train(model, minus_one, wide, config),
    ]
    for call in label_entry_points:
        with pytest.raises(ValueError, match="labels outside the model's 4 classes"):
            call()
    short = wide.replace()
    short.labels = wide.labels[:-1]
    with pytest.raises(ValueError, match="15 labels for 16 rows"):
        train(model, short, wide, config)
    # fractional labels inside the head's range are refused, not truncated
    halves = wide.labels * 0.5
    fractional = wide.replace()
    fractional.labels = halves
    for call in (lambda: LabeledDataset(wide.features, halves, 4),
                 lambda: train(model, fractional, wide, config),
                 lambda: train(model, wide, fractional, config)):
        with pytest.raises(ValueError, match="labels must be whole numbers"):
            call()
    assert 0.0 <= evaluate(model, wide)[0] <= 1.0
    assert 0.0 <= evaluate_ensemble(ensemble, wide) <= 1.0
    assert forward(model, wide.features[0]).shape == (4,)


def test_training_checks_both_sets_before_encoding_either(monkeypatch):
    # a bad test set is refused before the training set, which comes first, is encoded
    from quidlab.defense import train_ensemble

    encoded = []
    real = qnn._encode_factors
    monkeypatch.setattr(qnn, "_encode_factors", lambda *a: encoded.append(a) or real(*a))
    model = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4,
                       n_features=8)
    good = separable_dataset(per_class=50)
    outside = LabeledDataset(good.features, np.where(good.labels == 3, 4, good.labels), 5)
    narrow = good.replace(features=good.features[:, :7])
    config = TrainConfig(epochs=1)
    for bad, match in ((outside, "labels outside the model's 4 classes"), (narrow, "8 features")):
        for call in (lambda: train(model, good, bad, config),
                     lambda: train_ensemble(good, bad, config, model, 2, 0)):
            with pytest.raises(ValueError, match=match):
                call()
            assert encoded == []
    train(model, good, good, TrainConfig(epochs=0))
    assert len(encoded) == 2


def test_model_shape_validation():
    enc = EncoderConfig("angle", 2, 2)
    tpl = build_template("pqc1", 2, 1)
    with pytest.raises(ValueError):
        QnnModel(enc, tpl, np.zeros(tpl.param_count + 1), np.zeros((2, 2)), np.zeros(2), 2)
    with pytest.raises(ValueError):
        QnnModel(enc, tpl, np.zeros(tpl.param_count), np.zeros((2, 3)), np.zeros(2), 2)
    for lr in (0.0, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    # counts are integers and parameters finite, checked where each is built
    from quidlab.defense import partition, train_ensemble

    ds = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
    for make, field in ((lambda: TrainConfig(shots=2.5), "shots"),
                        (lambda: TrainConfig(epochs=True), "epochs"),
                        (lambda: TrainConfig(batch_size=np.float64(32)), "batch_size"),
                        (lambda: TrainConfig(seed=2.5), "seed"),
                        (lambda: partition(ds, 2.5, 0), "k"),
                        (lambda: partition(ds, 2, True), "seed"),
                        (lambda: train_ensemble(ds, ds, TrainConfig(), None, 2.5, 0), "k"),
                        (lambda: train_ensemble(ds, ds, TrainConfig(), None, 2, True), "seed"),
                        (lambda: EncoderConfig("angle", True), "n_qubits"),
                        (lambda: EncoderConfig("angle", 2, 1.5), "features_per_qubit"),
                        (lambda: EncoderConfig("angle", 2, 1, (0.0, np.inf)), "scale_range"),
                        (lambda: QnnModel(enc, tpl, np.zeros(tpl.param_count), np.zeros((2, 2)),
                                          np.zeros(2), 2.0), "n_classes"),
                        (lambda: QnnModel(enc, tpl, np.zeros(tpl.param_count), np.zeros((2, 2)),
                                          np.zeros(2), 2, 2.0), "n_features"),
                        (lambda: QnnModel(enc, tpl, np.full(tpl.param_count, np.nan),
                                          np.zeros((2, 2)), np.zeros(2), 2), "theta"),
                        (lambda: QnnModel(enc, tpl, np.zeros(tpl.param_count),
                                          np.full((2, 2), np.inf), np.zeros(2), 2), "head")):
        with pytest.raises(ValueError, match=field):
            make()
    config = TrainConfig(epochs=np.int64(2), learning_rate=np.float32(0.5))
    assert type(config.epochs) is int and type(config.learning_rate) is float
