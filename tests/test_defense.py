from dataclasses import replace

import numpy as np
import pytest

import quidlab.qnn

from quidlab.data import LabeledDataset, split, synth_clusters
from quidlab.defense import (
    DefenseConfig,
    EnsembleModel,
    _plurality,
    evaluate_ensemble,
    member_predictions,
    partition,
    train_ensemble,
    vote,
)
from quidlab.encode import EncoderConfig, scale_features
from quidlab.noise import NoiseModel
from quidlab.pqc import build_template
from quidlab.qnn import TrainConfig, init_model, train


def tiny_dataset(seed=4, per_class=10):
    ds = synth_clusters(4, 8, per_class, spread=0.25, seed=seed)
    return ds.replace(features=scale_features(ds.features))


def prototype(seed=4):
    return init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 4, seed=seed)


def constant_model(c, n_classes=4):
    """Zero-weight model whose bias forces every prediction to class c."""
    model = prototype()
    model.theta = np.zeros_like(model.theta)
    bias = np.zeros(n_classes)
    bias[c] = 10.0
    model.head_bias = bias
    return model


def test_partition_edges():
    ds = tiny_dataset()
    parts = partition(ds, 1, seed=0)
    assert len(parts) == 1 and parts[0].size == len(ds)
    parts = partition(ds, len(ds), seed=0)
    assert all(p.size == 1 for p in parts)  # singletons
    with pytest.raises(ValueError):
        partition(ds, len(ds) + 1, seed=0)
    with pytest.raises(ValueError):
        partition(ds, 0, seed=0)
    # True is neither one partition nor the seed "True"
    for k, seed in ((True, 0), (2, True), (2.0, 0), (2, 0.5)):
        with pytest.raises(ValueError):
            partition(ds, k, seed)


def test_partition_deterministic_disjoint_covering():
    ds = tiny_dataset()
    a = partition(ds, 3, seed=7)
    b = partition(ds, 3, seed=7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)
    combined = np.concatenate(a)
    assert np.array_equal(np.sort(combined), np.arange(len(ds)))
    sizes = [p.size for p in a]
    assert max(sizes) - min(sizes) <= 1  # balanced


def test_partition_independent_of_labels():
    ds = tiny_dataset()
    relabeled = ds.replace(labels=(ds.labels + 1) % 4)
    a = partition(ds, 3, seed=7)
    b = partition(relabeled, 3, seed=7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_vote_counting():
    x = np.full(8, np.pi)
    agree = EnsembleModel([constant_model(2)] * 3)
    assert vote(agree, x) == 2
    mixed = EnsembleModel([constant_model(0), constant_model(1), constant_model(1)])
    assert vote(mixed, x) == 1
    tie = EnsembleModel([constant_model(0), constant_model(1)])
    assert vote(tie, x) == 0  # tie goes to the smallest class index
    with pytest.raises(ValueError):
        vote(EnsembleModel([]), x)


def test_plurality_matches_a_per_row_count_with_ties_to_the_smallest_class(rng):
    # the one plurality rule behind vote and evaluate_ensemble, against one bincount per row
    for k, n, classes in ((1, 5, 3), (2, 40, 2), (4, 40, 4), (5, 60, 7)):
        preds = rng.integers(0, classes, size=(k, n))
        want = [np.argmax(np.bincount(col)) for col in preds.T]
        assert np.array_equal(_plurality(preds), want)
    assert list(_plurality(np.array([[3, 1, 2], [1, 3, 2]]))) == [1, 1, 2]


def test_vote_matches_members_when_unanimous():
    ds = tiny_dataset()
    ens = EnsembleModel([constant_model(3)] * 5)
    preds = member_predictions(ens, ds.features)
    assert np.all(preds == 3)
    for x in ds.features[:3]:
        assert vote(ens, x) == 3


def test_k1_reproduces_undefended_training_bit_for_bit():
    ds = tiny_dataset()
    tr, te = split(ds, 0.75, stratified=True, seed=4)
    proto = prototype()
    cfg = TrainConfig(epochs=4, seed=11)
    undefended = train(proto.copy(), tr, te, cfg)
    ensemble, reports = train_ensemble(
        tr, te, DefenseConfig(train=cfg, k=1, partition_seed=11), proto
    )
    assert len(reports) == 1
    assert np.array_equal(ensemble.members[0].theta, undefended.model.theta)
    assert np.array_equal(ensemble.members[0].head_weights, undefended.model.head_weights)
    assert np.array_equal(ensemble.members[0].head_bias, undefended.model.head_bias)
    assert reports[0].test_accuracy == undefended.test_accuracy
    acc_vote = evaluate_ensemble(ensemble, te)
    from quidlab.qnn import evaluate

    acc_plain, _ = evaluate(undefended.model, te)
    assert acc_vote == acc_plain


def test_k3_members_match_training_on_their_partition_alone():
    ds = tiny_dataset()
    tr, te = split(ds, 0.75, stratified=True, seed=4)
    proto = prototype()
    cfg = TrainConfig(epochs=3, seed=5, noise=NoiseModel.from_error_rate(0.05), shots=16)
    ensemble, reports = train_ensemble(
        tr, te, DefenseConfig(train=cfg, k=3, partition_seed=5), proto
    )
    for j, part in enumerate(partition(tr, 3, seed=5)):
        alone = train(proto.copy(), tr.subset(part), te, replace(cfg, seed=cfg.seed + j))
        member = ensemble.members[j]
        assert np.array_equal(member.theta, alone.model.theta)
        assert np.array_equal(member.head_weights, alone.model.head_weights)
        assert np.array_equal(member.head_bias, alone.model.head_bias)
        assert reports[j].train_loss == alone.train_loss
        assert reports[j].test_accuracy == alone.test_accuracy


def test_ensemble_training_and_vote_encode_each_row_once(monkeypatch):
    ds = tiny_dataset()
    tr, te = split(ds, 0.75, stratified=True, seed=4)
    encoded_rows = []

    def counting(X, cfg, model=None, real=quidlab.qnn._encode_factors):
        encoded_rows.append(len(X))
        return real(X, cfg, model)

    monkeypatch.setattr(quidlab.qnn, "_encode_factors", counting)
    cfg = DefenseConfig(train=TrainConfig(epochs=2, seed=3), k=3, partition_seed=3)
    ensemble, _ = train_ensemble(tr, te, cfg, prototype())
    assert sorted(encoded_rows) == sorted([len(tr), len(te)])
    encoded_rows.clear()
    evaluate_ensemble(ensemble, te)
    assert encoded_rows == [len(te)]


def test_members_with_different_encoders_are_refused():
    # members must share one encoder, one template and one feature count
    angle = EncoderConfig("angle", 4, 2)
    others = [
        init_model(EncoderConfig("angle", 4, 3), build_template("pqc1", 4, 1), 4, seed=1),
        init_model(angle, build_template("pqc6", 4, 1), 4, seed=1),
        init_model(angle, build_template("pqc1", 4, 1), 4, seed=1, n_features=8),
    ]
    for other in others:
        mixed = EnsembleModel([prototype(), other])
        with pytest.raises(ValueError, match="different encoders, templates or feature counts"):
            member_predictions(mixed, tiny_dataset().features)


def test_ensemble_accuracy_on_clean_separable_data():
    ds = synth_clusters(4, 8, 60, spread=0.25, seed=4)
    ds = ds.replace(features=scale_features(ds.features))
    tr, te = split(ds, 0.75, stratified=True, seed=4)
    cfg = DefenseConfig(train=TrainConfig(epochs=20, seed=4), k=3, partition_seed=4)
    ensemble, reports = train_ensemble(tr, te, cfg, prototype())
    assert len(reports) == 3
    assert evaluate_ensemble(ensemble, te) >= 0.85


def test_missing_class_warning():
    features = np.vstack([np.full((6, 8), 0.5), np.full((2, 8), 4.0)])
    labels = np.array([0, 0, 0, 0, 0, 0, 1, 1])
    ds = LabeledDataset(features, labels, 2)
    proto = init_model(EncoderConfig("angle", 4, 2), build_template("pqc1", 4, 1), 2, seed=1)
    cfg = DefenseConfig(train=TrainConfig(epochs=1, seed=1), k=4, partition_seed=1)
    with pytest.warns(UserWarning, match="missing"):
        train_ensemble(ds, ds, cfg, proto)


def test_vote_stability_under_bounded_partition_corruption():
    # margin gap between top and runner-up limits how many corrupted
    # members can flip the vote: fewer than ceil(gap/2) cannot
    x = np.full(8, np.pi)
    base = [constant_model(0) for _ in range(5)]
    ensemble = EnsembleModel(list(base))
    preds = member_predictions(ensemble, x.reshape(1, -1))[:, 0]
    counts = np.bincount(preds, minlength=4)
    top = int(np.argmax(counts))
    gap = counts[top] - int(np.sort(counts)[-2])  # 5 - 0 = 5
    assert top == 0 and gap == 5
    allowed = int(np.ceil(gap / 2)) - 1  # corrupting up to 2 members is safe
    for m in range(allowed + 1):
        corrupted = list(base)
        for j in range(m):
            corrupted[j] = constant_model(1)  # worst case: all push the runner-up
        assert vote(EnsembleModel(corrupted), x) == top
    # corrupting ceil(gap/2) members CAN flip a 5-0 vote to 3-2? no: 3 of 5
    flipped = [constant_model(1)] * 3 + list(base[:2])
    assert vote(EnsembleModel(flipped), x) == 1
