"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The attack-effectiveness
criteria train 21 models (12 noiseless, 9 at p = 0.05); the whole module runs
in 6-8 s on 2 vCPUs.
"""

import time

import numpy as np
import pytest

import quidlab as q
from conftest import basis_stack, random_density_matrix, random_pure_state
from quidlab.cli import main as cli_main
from quidlab.defense import evaluate_ensemble, member_predictions, train_ensemble
from quidlab.encode import EncoderConfig, encode_batch, scale_features
from quidlab.ess import distance, validate_ess
from quidlab.noise import NoiseModel, amplitude_damping, build_channel, depolarizing
from quidlab.qnn import TrainConfig, _batch_ce, _forward_from_states, init_model, spsa_estimate
from quidlab.simcore import (DensityMatrix, apply_channel_stack, apply_gate_stack, expect_z_stack,
                             pauli_form)
from test_poison import run_oracle_comparison
from test_simcore import _random_circuit


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared attack-effectiveness runs (criteria 6 and 7)

ATTACK_SEEDS = (1, 2, 3)


def _attack_run(seed, noise):
    ds = q.synth_clusters(4, 8, 250, spread=0.25, seed=seed)
    ds = ds.replace(features=scale_features(ds.features))
    train_set, test_set = q.split(ds, 0.7, stratified=True, seed=seed)
    enc = EncoderConfig("angle", 4, 2)
    tpl = q.build_template("pqc1", 4, 1)

    def train_on(dataset):
        model = init_model(enc, tpl, 4, seed=seed)
        rep = q.train(model, dataset, test_set, TrainConfig(seed=seed, noise=noise))
        return rep.test_accuracy[-1]

    out = {"baseline": train_on(train_set)}
    quid5 = q.quid_poison(
        train_set, q.PoisonSpec(0.5, "quid", "frobenius", seed=seed, noise=noise), enc
    ).dataset
    out["quid05"] = train_on(quid5)
    rand5 = q.random_flip(train_set, q.PoisonSpec(0.5, "random_flip", seed=seed)).dataset
    out["rand05"] = train_on(rand5)
    if noise is None:
        quid7 = q.quid_poison(
            train_set, q.PoisonSpec(0.7, "quid", "frobenius", seed=seed), enc
        ).dataset
        out["quid07"] = train_on(quid7)
    return out


@pytest.fixture(scope="module")
def noiseless_attack():
    started = time.perf_counter()
    runs = [_attack_run(seed, noise=None) for seed in ATTACK_SEEDS]
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def noisy_attack():
    started = time.perf_counter()
    model = NoiseModel.from_error_rate(0.05)
    runs = [_attack_run(seed, noise=model) for seed in ATTACK_SEEDS]
    return runs, time.perf_counter() - started


# ---------------------------------------------------------------------------

def test_criterion_1_simulator_invariants():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(1))
    worst_trace = worst_purity = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        rho = DensityMatrix(n, basis_stack(n, 0)[0])
        for gate in _random_circuit(rng, n, int(rng.integers(1, 51))):
            before = rho.purity()
            rho = DensityMatrix(n, apply_gate_stack(rho.data[None], gate, n)[0])
            worst_purity = max(worst_purity, abs(rho.purity() - before))
        worst_trace = max(worst_trace, abs(np.trace(rho.data).real - 1.0))
        rho.validate(trace_atol=1e-9, herm_atol=1e-10, psd_atol=1e-9)
    for p in np.linspace(0, 1, 11):
        for kind in ("amplitude_damping", "depolarizing"):
            ch = build_channel(kind, float(p))
            total = sum(k.conj().T @ k for k in ch.operators)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-10
    elapsed = time.perf_counter() - started
    ok = worst_trace <= 1e-9 and worst_purity <= 1e-9 and elapsed < 60
    report(
        1,
        ok,
        f"1000 circuits: trace dev {worst_trace:.1e}, purity dev {worst_purity:.1e}, "
        f"Kraus complete, {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_noise():
    worst = 0.0
    zero, one = basis_stack(1, 0), basis_stack(1, 1)
    for p in (0.0, 0.01, 0.05, 0.1, 1.0):
        z = expect_z_stack(apply_channel_stack(zero, depolarizing(p), (0,), 1), 0, 1)[0]
        worst = max(worst, abs(z - (1.0 - p)))
        z = expect_z_stack(apply_channel_stack(one, amplitude_damping(p), (0,), 1), 0, 1)[0]
        worst = max(worst, abs(z - (2.0 * p - 1.0)))
    report(2, worst <= 1e-12, f"max closed-form deviation {worst:.1e}")


def test_criterion_3_metric_axioms():
    rng = np.random.Generator(np.random.PCG64(3))
    worst_sym = worst_id = worst_tri = 0.0
    hs_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        a, b, c = (DensityMatrix(n, random_density_matrix(rng, n)) for _ in range(3))
        for metric in ("frobenius", "trace"):
            dab, dba = distance(a, b, metric), distance(b, a, metric)
            worst_sym = max(worst_sym, abs(dab - dba))
            worst_id = max(worst_id, distance(a, a, metric))
            slack = dab - distance(a, c, metric) - distance(c, b, metric)
            worst_tri = max(worst_tri, slack)
        dhs = distance(a, b, "hilbert_schmidt")
        hs_ok = hs_ok and 0.0 <= dhs <= 1.0
    pure = DensityMatrix(2, random_pure_state(rng, 2))
    hs_self = distance(pure, pure, "hilbert_schmidt")
    hs_ok = hs_ok and abs(hs_self - (1 - 1 / 4)) <= 1e-12
    ok = worst_sym <= 1e-12 and worst_id <= 1e-12 and worst_tri <= 1e-9 and hs_ok
    report(
        3,
        ok,
        f"sym {worst_sym:.1e}, identity {worst_id:.1e}, triangle slack {worst_tri:.1e}, "
        f"D_HS in [0,1] and 1-1/dim at self",
    )


def test_criterion_4_attack_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(4))
    checked = mismatches = 0
    while checked < 200:
        batch_checked, batch_bad = run_oracle_comparison(rng, 40)
        checked += batch_checked
        mismatches += batch_bad
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 120
    report(4, ok, f"{checked} tiny instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_5_spsa_sanity():
    theta = np.array([1.0, -2.0])
    rng = np.random.Generator(np.random.PCG64(5))
    pair = lambda ts: [0.5 * float(t @ t) for t in ts]  # noqa: E731
    grad = sum(spsa_estimate(pair, theta, 0.01, rng) for _ in range(2000)) / 2000
    quad_err = np.linalg.norm(grad - theta) / np.linalg.norm(theta)

    enc = EncoderConfig("angle", 1, 1)
    model = init_model(enc, q.build_template("pqc1", 1, 1), 2, seed=5)
    model.head_weights = np.array([[1.3], [-0.7]])
    model.head_bias = np.array([0.1, -0.2])
    X = np.array([[0.5], [2.0], [4.0]])
    y = np.array([0, 1, 0])
    states = (pauli_form(encode_batch(X, enc)),)  # one dense factor, as qnn._encode has it

    def loss(t):
        probs, _ = _forward_from_states(model, states, t, None, 0, None)
        return _batch_ce(probs, y)

    h = 1e-6
    fd = np.array(
        [(loss(model.theta + h * e) - loss(model.theta - h * e)) / (2 * h) for e in np.eye(2)]
    )
    rng = np.random.Generator(np.random.PCG64(55))
    pair = lambda ts: [loss(t) for t in ts]  # noqa: E731
    grad = sum(spsa_estimate(pair, model.theta, 0.01, rng) for _ in range(2000)) / 2000
    circ_err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
    ok = quad_err <= 0.05 and circ_err <= 0.10
    report(5, ok, f"quadratic rel err {quad_err:.3f} (<=5%), circuit rel err {circ_err:.3f} (<=10%)")


def test_criterion_6_attack_effectiveness(noiseless_attack):
    runs, elapsed = noiseless_attack
    base = float(np.mean([r["baseline"] for r in runs]))
    quid5 = float(np.mean([r["quid05"] for r in runs]))
    rand5 = float(np.mean([r["rand05"] for r in runs]))
    quid7 = float(np.mean([r["quid07"] for r in runs]))
    ok = base >= 0.90 and quid5 <= rand5 - 0.20 and quid7 <= 0.30 and elapsed < 900
    report(
        6,
        ok,
        f"baseline {base:.3f} (>=0.90), quid@0.5 {quid5:.3f} <= random@0.5 {rand5:.3f} - 0.20, "
        f"quid@0.7 {quid7:.3f} (<=0.30), {elapsed:.0f}s",
    )


def test_criterion_7_noise_amplification(noiseless_attack, noisy_attack):
    clean_runs, _ = noiseless_attack
    noisy_runs, elapsed = noisy_attack
    clean_deg = float(
        np.mean([r["baseline"] - r["quid05"] for r in clean_runs])
    )
    noisy_deg = float(
        np.mean([r["baseline"] - r["quid05"] for r in noisy_runs])
    )
    ok = noisy_deg >= clean_deg - 0.05 and elapsed < 900
    report(
        7,
        ok,
        f"degradation noisy {noisy_deg:.3f} >= noiseless {clean_deg:.3f} - 0.05, {elapsed:.0f}s",
    )


def test_criterion_8_ess_floor_ceiling_and_timing():
    ds = q.synth_clusters(4, 8, 100, spread=0.25, seed=8)
    ds = ds.replace(features=scale_features(ds.features))
    cfg = EncoderConfig("angle", 4, 2)
    fro = validate_ess(ds, cfg, "frobenius", seed=8)
    tra = validate_ess(ds, cfg, "trace", seed=8)
    rng = np.random.Generator(np.random.PCG64(88))
    shuffled = ds.replace(labels=rng.permutation(ds.labels))
    chance = validate_ess(shuffled, cfg, "frobenius", seed=8)
    sigma = np.sqrt(0.25 * 0.75 / chance.n_holdout)
    ok = (
        fro.accuracy >= 0.95
        and abs(chance.accuracy - 0.25) <= 3 * sigma
        and fro.wall_seconds <= tra.wall_seconds
    )
    report(
        8,
        ok,
        f"frobenius acc {fro.accuracy:.3f} (>=0.95), shuffled {chance.accuracy:.3f} "
        f"(0.25 +/- {3 * sigma:.3f}), time fro {fro.wall_seconds:.3f}s <= trace "
        f"{tra.wall_seconds:.3f}s",
    )


def test_criterion_9_defense_harness(tmp_path):
    # k=1 reproduces the undefended model bit-for-bit
    ds = q.synth_clusters(4, 8, 30, spread=0.25, seed=9)
    ds = ds.replace(features=scale_features(ds.features))
    train_set, test_set = q.split(ds, 0.7, stratified=True, seed=9)
    enc = EncoderConfig("angle", 4, 2)
    proto = init_model(enc, q.build_template("pqc1", 4, 1), 4, seed=9)
    cfg = TrainConfig(epochs=5, seed=9)
    undefended = q.train(proto.copy(), train_set, test_set, cfg)
    ens1, _ = train_ensemble(train_set, test_set, cfg, proto, k=1, partition_seed=9)
    bitwise = (
        np.array_equal(ens1.members[0].theta, undefended.model.theta)
        and np.array_equal(ens1.members[0].head_weights, undefended.model.head_weights)
        and np.array_equal(ens1.members[0].head_bias, undefended.model.head_bias)
    )

    # k=3 on poisoned data: vote equals plurality of member predictions
    poisoned = q.quid_poison(
        train_set, q.PoisonSpec(0.3, "quid", "frobenius", seed=9), enc
    ).dataset
    ens3, reports = train_ensemble(poisoned, test_set, cfg, proto, k=3, partition_seed=9)
    preds = member_predictions(ens3, test_set.features)
    plurality = np.array(
        [np.argmax(np.bincount(preds[:, i], minlength=4)) for i in range(preds.shape[1])]
    )
    vote_acc = evaluate_ensemble(ens3, test_set)
    vote_consistent = vote_acc == float(np.mean(plurality == test_set.labels))

    # CLI comparison table has one row per epsilon with both columns
    data_path = tmp_path / "d.csv"
    q.save_csv(ds, data_path)
    out = tmp_path / "defend"
    code = cli_main(
        [
            "defend", "--data", str(data_path), "--qubits", "4", "--epochs", "2",
            "--seed", "9", "--epsilon", "0.3,0.5", "--k", "3", "--out", str(out),
        ]
    )
    lines = (out / "defense.csv").read_text().strip().splitlines()
    table_ok = (
        code == 0
        and lines[0] == "epsilon,no_defense_accuracy,defense_accuracy"
        and len(lines) == 3
    )
    ok = bitwise and vote_consistent and len(reports) == 3 and table_ok
    report(
        9,
        ok,
        f"k=1 bitwise={bitwise}, k=3 vote consistent={vote_consistent}, "
        f"table rows={len(lines) - 1}",
    )


def test_criterion_10_experiment_determinism(tmp_path):
    data_path = tmp_path / "d.csv"
    assert (
        cli_main(
            [
                "gen-data", "--classes", "4", "--dim", "8", "--per-class", "12",
                "--seed", "10", "--out", str(data_path),
            ]
        )
        == 0
    )

    def run(out, workers):
        code = cli_main(
            [
                "experiment", "--data", str(data_path), "--qubits", "4", "--pqc", "pqc1",
                "--epochs", "2", "--seed", "10", "--epsilon", "0,0.5",
                "--modes", "none,random_flip,quid", "--workers", workers,
                "--out", str(out),
            ]
        )
        assert code == 0
        return (out / "results.csv").read_bytes()

    first = run(tmp_path / "r1", "1")
    second = run(tmp_path / "r2", "1")
    pooled = run(tmp_path / "r4", "4")
    ok = first == second == pooled
    report(10, ok, f"results.csv byte-identical across reruns and pool sizes ({len(first)} bytes)")
