import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from quidlab.cli import main
from quidlab.data import load_csv
from quidlab.encode import EncoderConfig, scale_features
from quidlab.ess import validate_ess


def run(*argv):
    return main(list(argv))


def gen(tmp_path, name="d.csv", per_class="30", seed="7", classes="4", dim="8"):
    path = tmp_path / name
    code = run(
        "gen-data", "--classes", classes, "--dim", dim, "--per-class", per_class,
        "--seed", seed, "--out", str(path),
    )
    assert code == 0
    return path


def test_gen_data_writes_csv_and_sidecar(tmp_path):
    path = gen(tmp_path)
    ds = load_csv(path)
    assert len(ds) == 120 and ds.dim == 8 and ds.n_classes == 4
    sidecar = json.loads((tmp_path / "d.csv.provenance.json").read_text())
    assert sidecar["n_samples"] == 120 and sidecar["seed"] == 7


def test_gen_data_reproducible_bytes(tmp_path):
    a = gen(tmp_path, "a.csv")
    b = gen(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_refuses_data_source_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run("gen-data", "--data", "x.csv", "--out", str(tmp_path / "y.csv"))
    assert info.value.code == 2
    assert "--data" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()
    with pytest.raises(SystemExit):
        run("gen-data", "--help")
    help_text = capsys.readouterr().out
    assert "--data" not in help_text and "--has-header" not in help_text


def test_gen_data_requires_out(tmp_path):
    assert run("gen-data", "--classes", "4") == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        run("frobnicate")
    assert info.value.code == 2


def test_missing_data_file_exits_3(tmp_path):
    code = run(
        "ess-validate", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")
    )
    assert code == 3


def test_ess_validate_all_metrics(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "ess"
    assert run("ess-validate", "--data", str(data), "--qubits", "4", "--seed", "3",
               "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,accuracy,time_s"
    assert len(lines) == 4  # three metrics
    assert {l.split(",")[0] for l in lines[1:]} == {"frobenius", "trace", "hilbert_schmidt"}
    assert (out / "class_stats.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()


def test_ess_validate_single_metric_and_bad_metric(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "one"
    assert run("ess-validate", "--data", str(data), "--metric", "hs", "--seed", "3",
               "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("hilbert_schmidt,")
    assert run("ess-validate", "--data", str(data), "--metric", "bogus",
               "--out", str(tmp_path / "bad")) == 2


def test_ess_validate_noise_changes_result(tmp_path):
    data = gen(tmp_path)
    out0, out5 = tmp_path / "p0", tmp_path / "p5"
    run("ess-validate", "--data", str(data), "--metric", "frobenius", "--seed", "3",
        "--out", str(out0))
    run("ess-validate", "--data", str(data), "--metric", "frobenius", "--seed", "3",
        "--noise", "0.05", "--out", str(out5))
    r0 = json.loads((out0 / "summary.json").read_text())["frobenius"]
    r5 = json.loads((out5 / "summary.json").read_text())["frobenius"]
    assert r0["intra_mean"] != r5["intra_mean"]  # noise moved the geometry


def test_encode_compare_table_shape(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "cmp"
    assert run("encode-compare", "--data", str(data), "--qubits", "4",
               "--noise-levels", "0,0.05", "--seed", "3", "--out", str(out)) == 0
    lines = (out / "encoding_comparison.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2  # two encoders x two levels


def test_encode_compare_p0_rows_match_noiseless_validate_ess(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "cmp"
    assert run("encode-compare", "--data", str(data), "--qubits", "4",
               "--noise-levels", "0,0.05", "--seed", "5", "--out", str(out)) == 0
    rows = [line.split(",") for line in
            (out / "encoding_comparison.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[1]) for row in rows] == [
        ("angle-4q-2f", "0.0"), ("angle-4q-2f", "0.05"),
        ("amplitude-4q", "0.0"), ("amplitude-4q", "0.05"),
    ]
    ds = load_csv(data)
    ds = ds.replace(features=scale_features(ds.features))
    for row, cfg in zip(rows[::2], (EncoderConfig("angle", 4, 2), EncoderConfig("amplitude", 4))):
        # the p = 0 cell's error-rate model and no model at all label alike
        assert float(row[2]) == validate_ess(ds, cfg, "frobenius", seed=5).accuracy


def test_poison_quid_flips_half(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "poison"
    assert run("poison", "--data", str(data), "--mode", "quid", "--epsilon", "0.5",
               "--metric", "frobenius", "--qubits", "4", "--seed", "5",
               "--out", str(out)) == 0
    rows = (out / "outcome.csv").read_text().strip().splitlines()[1:]
    flagged = [r for r in rows if r.endswith(",1")]
    assert len(rows) == 120 and len(flagged) == 60
    poisoned = load_csv(out / "poisoned.csv")
    original = load_csv(data)
    assert np.array_equal(poisoned.features, original.features)


def test_poison_epsilon_zero_is_byte_identical_copy(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "p0"
    assert run("poison", "--data", str(data), "--mode", "quid", "--epsilon", "0",
               "--qubits", "4", "--seed", "5", "--out", str(out)) == 0
    assert (out / "poisoned.csv").read_bytes() == data.read_bytes()


def test_poison_modes_share_poison_set_but_not_labels(tmp_path):
    data = gen(tmp_path)
    out_q, out_r = tmp_path / "q", tmp_path / "r"
    run("poison", "--data", str(data), "--mode", "quid", "--epsilon", "0.4",
        "--qubits", "4", "--seed", "5", "--out", str(out_q))
    run("poison", "--data", str(data), "--mode", "random_flip", "--epsilon", "0.4",
        "--qubits", "4", "--seed", "5", "--out", str(out_r))

    def parse(p):
        rows = (p / "outcome.csv").read_text().strip().splitlines()[1:]
        flagged = {int(r.split(",")[0]) for r in rows if r.endswith(",1")}
        labels = [int(r.split(",")[2]) for r in rows]
        return flagged, labels

    fq, lq = parse(out_q)
    fr, lr = parse(out_r)
    assert fq == fr  # same seeded split
    assert lq != lr  # different relabeling rules


def test_poison_requires_single_epsilon(tmp_path):
    data = gen(tmp_path)
    assert run("poison", "--data", str(data), "--epsilon", "0.1,0.5",
               "--out", str(tmp_path / "x")) == 2


def test_bilevel_poison_randomizes_features(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "bi"
    assert run("poison", "--data", str(data), "--mode", "bilevel_random",
               "--epsilon", "0.5", "--qubits", "4", "--seed", "5",
               "--out", str(out)) == 0
    poisoned = load_csv(out / "poisoned.csv")
    original = load_csv(data)
    rows = (out / "outcome.csv").read_text().strip().splitlines()[1:]
    flagged = [int(r.split(",")[0]) for r in rows if r.endswith(",1")]
    changed = np.any(poisoned.features[flagged] != original.features[flagged], axis=1)
    assert changed.all()


def test_bilevel_poison_writes_drawn_rows_in_the_data_units(tmp_path):
    # features in [0, 100], one column constant: drawn rows map back through the scaling
    rng = np.random.Generator(np.random.PCG64(2))
    raw = np.column_stack([rng.uniform(0, 100, size=(40, 2)), np.full(40, 7.25)])
    data = tmp_path / "wide.csv"
    data.write_text("".join(f"{','.join(map(repr, row.tolist()))},{i % 2}\n"
                            for i, row in enumerate(raw)))
    out = tmp_path / "bi"
    assert run("poison", "--data", str(data), "--mode", "bilevel_random", "--epsilon", "0.5",
               "--qubits", "2", "--seed", "5", "--out", str(out)) == 0
    poisoned = load_csv(out / "poisoned.csv").features
    rows = (out / "outcome.csv").read_text().strip().splitlines()[1:]
    flagged = [int(r.split(",")[0]) for r in rows if r.endswith(",1")]
    assert len(flagged) == 20
    drawn = poisoned[flagged]
    assert np.all(drawn >= raw.min(axis=0)) and np.all(drawn <= raw.max(axis=0))
    assert np.all(drawn[:, 2] == 7.25) and np.ptp(drawn[:, 0]) > 10.0


def test_train_scales_the_dataset_once_then_splits_like_the_sweeps(tmp_path):
    from quidlab.data import split
    from quidlab.encode import EncoderConfig, scale_features
    from quidlab.pqc import build_template
    from quidlab.qnn import TrainConfig, init_model, save_model, train

    data = gen(tmp_path, per_class="12")
    out = tmp_path / "run"
    assert run("train", "--data", str(data), "--qubits", "4", "--epochs", "2", "--seed", "9",
               "--train-fraction", "0.6", "--out", str(out)) == 0
    ds = load_csv(data)
    cfg = EncoderConfig("angle", 4, 2)
    scaled = ds.replace(features=scale_features(ds.features, cfg.scale_range))
    train_set, test_set = split(scaled, 0.6, stratified=True, seed=9)
    model = init_model(cfg, build_template("pqc1", 4, 1), ds.n_classes, seed=9, n_features=ds.dim)
    report = train(model, train_set, test_set, TrainConfig(epochs=2, seed=9))
    save_model(report.model, tmp_path / "want.json", seed=9)
    assert (out / "model.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_train_and_evaluate_roundtrip(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--data", str(data), "--qubits", "4", "--pqc", "pqc1",
               "--epochs", "3", "--seed", "9", "--out", str(out)) == 0
    curves = (out / "curves.csv").read_text().strip().splitlines()
    assert len(curves) == 4  # header + 3 epochs
    assert run("evaluate", "--model", str(out / "model.json"), "--data", str(data),
               "--out", str(tmp_path / "eval")) == 0
    payload = json.loads((tmp_path / "eval" / "eval.json").read_text())
    assert 0.0 <= payload["accuracy"] <= 1.0
    manifest = json.loads((tmp_path / "eval" / "manifest.json").read_text())
    assert manifest["command"] == "evaluate" and manifest["wall_seconds"] >= 0.0


@pytest.mark.parametrize(
    "case", ["test classes", "test features", "checkpoint classes", "checkpoint features",
             "checkpoint narrower features"]
)
def test_mismatched_datasets_exit_3_naming_the_file(tmp_path, capsys, case):
    data = gen(tmp_path, "two.csv", classes="2")
    if case == "test features":
        other = gen(tmp_path, "other.csv", classes="2", dim="7")
    elif case == "checkpoint features":  # wider than the checkpoint encoder's 8 features
        other = gen(tmp_path, "other.csv", classes="2", dim="9")
    elif case == "checkpoint narrower features":  # fits the encoder, not the trained width
        other = gen(tmp_path, "other.csv", classes="2", dim="7")
    else:
        other = gen(tmp_path, "other.csv")  # 4 classes
    if case.startswith("checkpoint"):
        assert run("train", "--data", str(data), "--epochs", "0",
                   "--out", str(tmp_path / "m")) == 0
        argv = ["evaluate", "--model", str(tmp_path / "m" / "model.json"), "--data", str(other)]
    else:
        argv = ["train", "--data", str(data), "--test", str(other), "--epochs", "1"]
    capsys.readouterr()
    assert run(*argv, "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(other) in err[0]


def run_capped(*argv, cap=3 << 30):
    """`python -m quidlab.cli argv` with its address space capped at cap bytes."""
    import resource

    def cap_address_space():  # an attempted allocation then fails fast instead of paging
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-m", "quidlab.cli", *argv], capture_output=True,
                          text=True, preexec_fn=cap_address_space, timeout=300)


def test_register_that_cannot_fit_in_memory_is_refused_before_allocating(tmp_path):
    import os

    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    stack_row = 16 * 4**12  # bytes of one 12-qubit density matrix
    per_class = max(60, memory // stack_row + 2)  # the reference half alone cannot fit
    proc = run_capped("ess-validate", "--qubits", "12", "--classes", "2", "--per-class",
                      str(per_class), "--dim", "8", "--out", str(tmp_path / "out"), cap=2 << 30)
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert " rows at 12 qubits" in proc.stderr


def test_allocation_that_fails_is_a_runtime_error_without_traceback(tmp_path):
    # 4 classes x 1e8 rows x 8 features is 23.8 GiB: numpy's allocation fails under the cap
    proc = run_capped("gen-data", "--out", str(tmp_path / "x.csv"), "--per-class",
                      "100000000", "--dim", "8", cap=3_000_000 << 10)
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory")


TWELVE_QUBITS = ["--qubits", "12", "--classes", "2", "--per-class", "3", "--dim", "8"]


def test_full_cone_readout_that_cannot_fit_in_memory_is_refused(tmp_path):
    # pqc6's light cones span the register: its (12, 4096, 4096) observable stack is 3 GiB
    proc = run_capped("train", *TWELVE_QUBITS, "--pqc", "pqc6", "--epochs", "1",
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "observables on 12 qubits" in proc.stderr


@pytest.mark.parametrize("pqc", ["pqc1", "pqc8"])
def test_narrow_cone_templates_train_and_evaluate_at_twelve_qubits(tmp_path, pqc):
    # cones of one qubit (pqc1) and at most four (pqc8, one layer) never expand the register
    out = tmp_path / "out"
    proc = run_capped("train", *TWELVE_QUBITS, "--pqc", pqc, "--epochs", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    proc = run_capped("evaluate", "--model", str(out / "model.json"), *TWELVE_QUBITS[2:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("accuracy=")


def experiment_args(data, out, workers="1"):
    return [
        "experiment", "--data", str(data), "--qubits", "4", "--pqc", "pqc1",
        "--epochs", "2", "--seed", "13", "--epsilon", "0,0.5",
        "--modes", "none,random_flip,quid", "--workers", workers,
        "--emit-plot-data", "--out", str(out),
    ]


def test_experiment_table_and_determinism(tmp_path):
    data = gen(tmp_path, per_class="12")
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert run(*experiment_args(data, out1)) == 0
    assert run(*experiment_args(data, out2)) == 0
    body1 = (out1 / "results.csv").read_bytes()
    assert body1 == (out2 / "results.csv").read_bytes()
    lines = body1.decode().strip().splitlines()
    assert len(lines) == 1 + 2 * 3  # eps x modes
    assert (out1 / "curves_eps0.5_quid.csv").exists()


def test_experiment_worker_pool_does_not_change_results(tmp_path):
    data = gen(tmp_path, per_class="12")
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert run(*experiment_args(data, out1, workers="1")) == 0
    assert run(*experiment_args(data, out4, workers="4")) == 0
    assert (out1 / "results.csv").read_bytes() == (out4 / "results.csv").read_bytes()


def test_experiment_pool_never_outnumbers_cells(tmp_path, monkeypatch):
    import quidlab.cli as cli

    sizes = []

    class SerialPool:  # records the pool size, runs the cells in-process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    data = gen(tmp_path, per_class="12")
    assert run(*experiment_args(data, tmp_path / "e", workers="5000")) == 0
    assert sizes == [6]  # 2 epsilons x 3 modes


def test_experiment_dead_pool_worker_exits_4_with_one_line(tmp_path):
    # a worker that dies abruptly, as under the OOM killer, breaks the pool
    script = tmp_path / "dying_cells.py"
    script.write_text(
        "import os, sys\n"
        "from quidlab import cli\n\n"
        "def _run_experiment_cell(payload):\n"
        "    os._exit(9)\n\n"
        "if __name__ == '__main__':\n"
        "    cli._run_experiment_cell = _run_experiment_cell\n"
        "    sys.exit(cli.main(sys.argv[1:]))\n"
    )
    data = gen(tmp_path, per_class="12")
    proc = subprocess.run([sys.executable, str(script),
                           *experiment_args(data, tmp_path / "e", workers="2")],
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "pool worker" in proc.stderr


def test_experiment_unknown_mode_exits_2(tmp_path):
    data = gen(tmp_path, per_class="12")
    assert run("experiment", "--data", str(data), "--modes", "none,gradient",
               "--out", str(tmp_path / "x")) == 2


def test_defend_k1_matches_undefended(tmp_path):
    data = gen(tmp_path, per_class="12")
    out = tmp_path / "def1"
    assert run("defend", "--data", str(data), "--qubits", "4", "--epochs", "2",
               "--seed", "3", "--epsilon", "0.3", "--k", "1", "--out", str(out)) == 0
    rows = (out / "defense.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 1
    _eps, no_def, k_def = rows[0].split(",")
    assert no_def == k_def


def test_defend_scores_the_ensemble_with_the_given_shots(tmp_path, monkeypatch):
    import quidlab.cli as cli

    shots = []

    def recording(*args, **kwargs):
        shots.append(kwargs.get("shots", 0))
        return evaluate_ensemble(*args, **kwargs)

    evaluate_ensemble = cli.evaluate_ensemble
    monkeypatch.setattr(cli, "evaluate_ensemble", recording)
    data = gen(tmp_path, per_class="15")
    assert run("defend", "--data", str(data), "--shots", "16", "--k", "2", "--epochs", "1",
               "--out", str(tmp_path / "d")) == 0
    assert shots == [16]


def test_defend_emits_row_per_epsilon(tmp_path):
    data = gen(tmp_path, per_class="12")
    out = tmp_path / "def3"
    assert run("defend", "--data", str(data), "--qubits", "4", "--epochs", "2",
               "--seed", "3", "--epsilon", "0,0.3", "--k", "3", "--out", str(out)) == 0
    rows = (out / "defense.csv").read_text().strip().splitlines()
    assert rows[0] == "epsilon,no_defense_accuracy,defense_accuracy"
    assert len(rows) == 3


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    data = gen(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    # ess-validate reads none of epsilon, modes, emit_plot_data, epochs and k, and
    # experiment does not read k: keys of other subcommands are accepted
    cfg_path.write_text(json.dumps({
        "qubits": 4, "metric": "trace", "seed": 3, "epsilon": [0, 0.5],
        "modes": ["none", "quid"], "emit_plot_data": True, "epochs": 1, "k": 2,
    }))
    out = tmp_path / "cfgrun"
    assert run("ess-validate", "--data", str(data), "--config", str(cfg_path),
               "--metric", "frobenius", "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("frobenius,")  # flag beat file
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3  # file supplied the seed
    sweep = tmp_path / "cfgsweep"
    assert run("experiment", "--data", str(data), "--config", str(cfg_path),
               "--out", str(sweep)) == 0
    rows = (sweep / "results.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[2:4] for r in rows] == [
        ["0.0", "none"], ["0.0", "quid"], ["0.5", "none"], ["0.5", "quid"]
    ]
    assert (sweep / "curves_eps0.5_quid.csv").exists()
    # the manifest's config block is itself a config file for the same run
    rerun_cfg = tmp_path / "rerun.json"
    rerun_cfg.write_text(json.dumps(json.loads((sweep / "manifest.json").read_text())["config"]))
    rerun = tmp_path / "rerun"
    assert run("experiment", "--config", str(rerun_cfg), "--out", str(rerun)) == 0
    assert (rerun / "results.csv").read_bytes() == (sweep / "results.csv").read_bytes()


def test_synth_fallback_when_no_data(tmp_path):
    out = tmp_path / "synth"
    assert run("ess-validate", "--classes", "4", "--dim", "8", "--per-class", "20",
               "--qubits", "4", "--seed", "2", "--metric", "frobenius",
               "--out", str(out)) == 0
    assert (out / "report.csv").exists()


def test_noise_model_file_flag(tmp_path):
    data = gen(tmp_path)
    model_path = tmp_path / "noise.json"
    model_path.write_text(json.dumps({"default": [["depolarizing", 0.05]], "rz": []}))
    out = tmp_path / "nm"
    assert run("ess-validate", "--data", str(data), "--metric", "frobenius",
               "--seed", "3", "--noise-model", str(model_path), "--out", str(out)) == 0
    # conflicting noise flags are a usage error
    assert run("ess-validate", "--data", str(data), "--noise", "0.05",
               "--noise-model", str(model_path), "--out", str(tmp_path / "x")) == 2
    # malformed model file is a data error
    model_path.write_text(json.dumps({"rx": [["depolarizing", 2.0]]}))
    assert run("ess-validate", "--data", str(data), "--noise-model", str(model_path),
               "--out", str(tmp_path / "y")) == 3


def test_ess_validate_noise_zero_matches_noiseless_run(tmp_path):
    data = gen(tmp_path)
    out0, out_none = tmp_path / "p0", tmp_path / "none"
    for out, extra in ((out0, ["--noise", "0"]), (out_none, [])):
        assert run("ess-validate", "--data", str(data), "--seed", "3", *extra,
                   "--out", str(out)) == 0
    assert (out0 / "class_stats.csv").read_bytes() == (out_none / "class_stats.csv").read_bytes()

    def timeless(out):  # wall-clock columns aside
        summary = json.loads((out / "summary.json").read_text())
        for report in summary.values():
            del report["wall_seconds"]
        rows = (out / "report.csv").read_text().splitlines()
        return summary, [row.rsplit(",", 1)[0] for row in rows]

    assert timeless(out0) == timeless(out_none)


def test_experiment_records_failed_cells_and_continues(tmp_path):
    # single-class data: flipping attacks are infeasible, baseline still runs
    path = tmp_path / "single.csv"
    path.write_text("".join(f"0.{i},1.{i},0\n" for i in range(8)))
    out = tmp_path / "exp"
    assert run("experiment", "--data", str(path), "--qubits", "2", "--epochs", "1",
               "--seed", "1", "--epsilon", "0.5", "--modes", "none,random_flip",
               "--out", str(out)) == 0
    rows = (out / "results.csv").read_text().strip().splitlines()[1:]
    by_mode = {r.split(",")[3]: r.split(",")[6] for r in rows}
    assert by_mode["none"] == "ok"
    assert by_mode["random_flip"] == "failed"
    manifest = json.loads((out / "manifest.json").read_text())
    key = next(key for key in manifest["cell_errors"] if "random_flip" in key)
    assert manifest["cell_errors"][key].startswith("AttackInfeasibleError: ")
    assert manifest["cell_tracebacks"][key].startswith("Traceback (most recent call last)")
    assert "AttackInfeasibleError" in manifest["cell_tracebacks"][key]


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "quidlab.cli", "gen-data", "--classes", "2",
         "--dim", "2", "--per-class", "5", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def _checkpoint(gate=None, encoder=(), template=(), **fields) -> str:
    """A version-1 checkpoint of a two-qubit angle model on the pqc1 preset, with its first
    gate entry, and encoder, template and top-level fields, replaced."""
    gates = [{"gate": g, "targets": [q], "slot": 2 * i + q}
             for i, g in enumerate(("RX", "RZ")) for q in (0, 1)]
    return json.dumps({
        "format_version": 1, "theta": [0.3, 0.0, 0.0, 0.0], "head_weights": [[1, 0], [0, 1]],
        "head_bias": [0, 0], "n_classes": 2,
        "encoder": {"kind": "angle", "n_qubits": 2, "features_per_qubit": 1,
                    "scale_range": [0, 1], **dict(encoder)},
        "template": {"name": "pqc1", "n_qubits": 2, "layers": 1, "param_count": 4,
                     "gates": [gate or gates[0]] + gates[1:], **dict(template)},
        **fields})


PQC1_GATES = json.loads(_checkpoint())["template"]["gates"]

BAD_INPUTS = [
    # (name, subcommand args, file to write under tmp_path, its content, exit code);
    # content None makes the file a directory, bytes are written raw
    ("checkpoint missing keys", ["evaluate", "--model", "{f}", "--data", "{data}"],
     "model.json", '{"format_version": 1}', 3),
    ("checkpoint not an object", ["evaluate", "--model", "{f}", "--data", "{data}"],
     "model.json", "[1, 2]", 3),
    ("checkpoint bad shapes", ["evaluate", "--model", "{f}", "--data", "{data}"],
     "model.json", _checkpoint(head_weights=[1], head_bias=[0]), 3),
    # a template block is exactly its preset's, gate list included
    *[(f"checkpoint {what}", ["evaluate", "--model", "{f}", "--data", "{data}"],
       "model.json", content, 3)
      for what, content in [
          ("unknown gate", _checkpoint({"gate": "FOO", "targets": [0], "slot": 0})),
          ("gate not a string", _checkpoint({"gate": 5, "targets": [0], "slot": 0})),
          ("template angle string", _checkpoint({"gate": "RX", "targets": [0], "angle": "1.0"})),
          ("template angle list", _checkpoint({"gate": "RX", "targets": [0], "angle": [1.0]})),
          ("template angle NaN", _checkpoint({"gate": "RX", "targets": [0], "angle": math.nan})),
          ("template angle true", _checkpoint({"gate": "RX", "targets": [0], "angle": True})),
          ("template fixed angle", _checkpoint({"gate": "RX", "targets": [0], "slot": 0,
                                                "angle": 0.5})),
          ("template slot 0.0", _checkpoint({"gate": "RX", "targets": [0], "slot": 0.0})),
          ("template slot true", _checkpoint({"gate": "RX", "targets": [0], "slot": True})),
          ("template gate rx", _checkpoint({"gate": "rx", "targets": [0], "slot": 0})),
          ("template name pqc9", _checkpoint(template={"name": "pqc9"})),
          ("template name t", _checkpoint(template={"name": "t"})),
          ("template extra gate", _checkpoint(template={"gates": PQC1_GATES + [
              {"gate": "RX", "targets": [0], "slot": 4}]})),
          ("template missing gate", _checkpoint(template={"gates": PQC1_GATES[:-1]})),
          ("template reordered gates", _checkpoint(template={"gates": PQC1_GATES[::-1]})),
          ("template param_count 5", _checkpoint(template={"param_count": 5})),
          ("template layers 1000000000", _checkpoint(template={"layers": 10**9})),
      ]],
    # each number is checked where the loaded object is built, never truncated with int()
    *[(f"checkpoint {what}", ["evaluate", "--model", "{f}", "--data", "{data}"],
       "model.json", content, 3)
      for what, content in [
          ("template targets [0.7]", _checkpoint({"gate": "RX", "targets": [0.7], "slot": 0})),
          ("template targets [true]", _checkpoint({"gate": "RX", "targets": [True], "slot": 0})),
          ("template gate StatePrep", _checkpoint({"gate": "StatePrep", "targets": [0, 1]})),
          ("template n_qubits 2.5", _checkpoint(template={"n_qubits": 2.5})),
          ("template n_qubits 1000000000", _checkpoint(template={"n_qubits": 10**9})),
          ("n_classes 2.9", _checkpoint(n_classes=2.9)),
          ("features_per_qubit 2.5", _checkpoint(encoder={"features_per_qubit": 2.5})),
          ("theta NaN", _checkpoint(theta=[math.nan, 0.0, 0.0, 0.0])),
          # version and parameter numbers as strict as the template block
          ("format_version true", _checkpoint(format_version=True)),
          ("format_version 1.0", _checkpoint(format_version=1.0)),
          ("format_version 2.0", _checkpoint(format_version=2.0, n_features=2)),
          ("theta string", _checkpoint(theta=["0.3", 0.0, 0.0, 0.0])),
          ("theta true", _checkpoint(theta=[True, 0.0, 0.0, 0.0])),
          ("theta integer 10**400", _checkpoint(theta=[10**400, 0, 0, 0])),
          ("head_weights string", _checkpoint(head_weights=[["1", 0], [0, 1]])),
          ("head_weights true", _checkpoint(head_weights=[[True, 0], [0, 1]])),
          ("head_bias string", _checkpoint(head_bias=["0", 0])),
          ("head_bias true", _checkpoint(head_bias=[True, 0])),
          ("encoder n_qubits 13", _checkpoint(encoder={"n_qubits": 13})),
      ]],
    ("config qubits not a number", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"qubits": "four"}', 2),
    ("config lr not finite", ["train", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"lr": "nan"}', 2),
    ("config epsilon list item", ["poison", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"epsilon": "0.x"}', 2),
    ("config fractional seed", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"seed": 1.5}', 2),
    # an integer option needs a JSON integer, as its flag needs an integer's text
    ("--qubits config 4.0", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"qubits": 4.0}', 2),
    ("--seed config 1e3", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"seed": 1e3}', 2),
    ("--qubits 4.0", ["ess-validate", "--data", "{data}", "--qubits", "4.0"], "unused", "", 2),
    ("--epsilon config true", ["poison", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"epsilon": true}', 2),
    ("--k config true", ["defend", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"k": true}', 2),
    ("csv nan feature", ["train", "--data", "{f}", "--epochs", "1"],
     "nan.csv", "0.1,0.2,0\n0.3,nan,1\n0.5,0.6,0\n0.7,0.8,1\n", 3),
    ("csv inf feature", ["train", "--data", "{f}", "--epochs", "1"],
     "inf.csv", "0.1,0.2,0\n0.3,0.4,1\n0.5,inf,0\n0.7,0.8,1\n", 3),
    # out-of-range flags: rows named after the flag, which the message must name
    ("--qubits 0", ["train", "--data", "{data}", "--qubits", "0"], "unused", "", 2),
    ("--layers 0", ["train", "--data", "{data}", "--layers", "0"], "unused", "", 2),
    ("--batch 0", ["train", "--data", "{data}", "--batch", "0"], "unused", "", 2),
    ("--epochs -1", ["train", "--data", "{data}", "--epochs", "-1"], "unused", "", 2),
    ("--lr 0", ["train", "--data", "{data}", "--lr", "0"], "unused", "", 2),
    ("--k 0", ["defend", "--data", "{data}", "--k", "0"], "unused", "", 2),
    ("--layers 0 (experiment)", ["experiment", "--data", "{data}", "--layers", "0"],
     "unused", "", 2),
    ("--noise -0.5", ["ess-validate", "--data", "{data}", "--noise", "-0.5"], "unused", "", 2),
    ("--noise 2", ["ess-validate", "--data", "{data}", "--noise", "2"], "unused", "", 2),
    ("--noise-levels -1", ["encode-compare", "--data", "{data}", "--noise-levels", "-1"],
     "unused", "", 2),
    ("--noise-levels 0,3", ["encode-compare", "--data", "{data}", "--noise-levels", "0,3"],
     "unused", "", 2),
    ("--epsilon 0,1.5", ["poison", "--data", "{data}", "--epsilon", "0,1.5"], "unused", "", 2),
    ("--shots -1 (evaluate)", ["evaluate", "--model", "{f}", "--data", "{data}", "--shots", "-1"],
     "model.json", "{}", 2),
    ("--train-fraction 1.5", ["train", "--data", "{data}", "--train-fraction", "1.5"],
     "unused", "", 2),
    ("--holdout 1.5", ["ess-validate", "--data", "{data}", "--holdout", "1.5"], "unused", "", 2),
    ("--holdout 0", ["encode-compare", "--data", "{data}", "--holdout", "0"], "unused", "", 2),
    # a fraction inside (0, 1) that leaves one side of the 4-per-class split empty
    ("--train-fraction 0.05 (train)", ["train", "--data", "{data}", "--train-fraction", "0.05"],
     "unused", "", 2),
    ("--train-fraction 0.05 (experiment)", ["experiment", "--data", "{data}",
     "--train-fraction", "0.05"], "unused", "", 2),
    ("--train-fraction 0.95 (defend)", ["defend", "--data", "{data}", "--train-fraction", "0.95"],
     "unused", "", 2),
    ("--holdout 0.95 (ess-validate)", ["ess-validate", "--data", "{data}", "--holdout", "0.95"],
     "unused", "", 2),
    ("--holdout 0.05 (encode-compare)", ["encode-compare", "--data", "{data}",
     "--holdout", "0.05"], "unused", "", 2),
    # unreadable paths are data errors
    ("directory as data", ["train", "--data", "{f}"], "dir", None, 3),
    ("directory as test set", ["train", "--data", "{data}", "--test", "{f}"], "dir", None, 3),
    ("directory as config", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "dir", None, 3),
    ("directory as noise model", ["ess-validate", "--data", "{data}", "--noise-model", "{f}"],
     "dir", None, 3),
    ("directory as checkpoint", ["evaluate", "--model", "{f}", "--data", "{data}"],
     "dir", None, 3),
    ("csv not utf-8", ["train", "--data", "{f}"], "bad.csv", b"0.1,0.2,0\n0.3,\xff,1\n", 3),
    ("config not utf-8", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", b'{"seed": "\xff"}', 3),
    ("output directory is a file", ["ess-validate", "--data", "{data}"], "out", "x", 3),
    ("config not an object", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", "[1, 2]", 3),
    # config values are typed and checked like flags, and name the flag
    ("--has-header config 'no'", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"has_header": "no"}', 2),
    ("--metric config 5", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"metric": 5}', 2),
    ("--encoder config 'amplitud'", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"encoder": "amplitud"}', 2),
    ("--data config 5", ["ess-validate", "--config", "{f}"], "cfg.json", '{"data": 5}', 2),
    ("--noise-model config [1]", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"noise_model": [1]}', 2),
    ("--emit-plot-data config 'no'", ["experiment", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"emit_plot_data": "no"}', 2),
    ("--config unknown key", ["ess-validate", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"epochz": 3}', 2),
    ("--workers 0", ["experiment", "--data", "{data}", "--workers", "0"], "unused", "", 2),
    ("--classes 1", ["gen-data", "--classes", "1"], "unused", "", 2),
    ("--per-class 0", ["gen-data", "--per-class", "0"], "unused", "", 2),
    ("--dim 0", ["gen-data", "--dim", "0"], "unused", "", 2),
    ("--spread -1", ["gen-data", "--spread", "-1"], "unused", "", 2),
    ("--seed -1", ["gen-data", "--seed", "-1"], "unused", "", 2),
    ("--k 50 (defend)", ["defend", "--data", "{data}", "--k", "50"], "unused", "", 2),
    # a sweep value that repeats after conversion would run the same cell twice
    ("--epsilon 0.3,0.30 (experiment)", ["experiment", "--data", "{data}", "--epsilon",
     "0.3,0.30"], "unused", "", 2),
    ("--modes quid,quid", ["experiment", "--data", "{data}", "--modes", "quid,quid"],
     "unused", "", 2),
    ("--noise-levels 0,0.0", ["encode-compare", "--data", "{data}", "--noise-levels", "0,0.0"],
     "unused", "", 2),
    ("--epsilon config [0.5, 0.5] (defend)", ["defend", "--data", "{data}", "--config", "{f}"],
     "cfg.json", '{"epsilon": [0.5, 0.5]}', 2),
    ("noise model not an object", ["ess-validate", "--data", "{data}", "--noise-model", "{f}"],
     "noise.json", '[["depolarizing", 0.1]]', 3),
    # an encoder too small for the data names the flag that sized it
    ("--features-per-qubit 1 (experiment)", ["experiment", "--data", "{data}", "--qubits", "1",
     "--features-per-qubit", "1"], "unused", "", 2),
    ("--features-per-qubit 1 (train)", ["train", "--data", "{data}", "--qubits", "1",
     "--features-per-qubit", "1"], "unused", "", 2),
    ("--qubits 2 (amplitude, 8 features)", ["encode-compare", "--data", "{f}", "--qubits", "2"],
     "wide.csv", "".join(f"{'0.5,' * 8}{i % 2}\n" for i in range(8)), 2),
    # the amplitude encoder has no features per qubit: the flag would do nothing
    ("--features-per-qubit 5 (amplitude)", ["train", "--data", "{f}", "--encoder", "amplitude",
     "--qubits", "3", "--features-per-qubit", "5", "--epochs", "1"],
     "apart.csv", "".join(f"{i},{7 - i},{i % 2}\n" for i in range(8)), 2),
    # encode-compare always encodes both kinds, so it has no --encoder flag
    ("encode-compare --encoder", ["encode-compare", "--data", "{data}", "--encoder",
     "amplitude"], "unused", "", 2),
    # the stratified holdout takes the lone class-1 row: one class left to label against
    ("single-class reference split", ["ess-validate", "--data", "{f}", "--qubits", "2"],
     "one.csv", "0.1,0.2,0\n0.2,0.1,0\n0.3,0.3,0\n0.9,0.8,1\n", 4),
]


def _bad_input_argv(tmp_path, case) -> list[str]:
    """Writes a BAD_INPUTS case's file and an 8-row dataset under tmp_path; the case's argv."""
    _name, argv, fname, content, _code = case
    data = tmp_path / "d.csv"
    data.write_text("".join(f"0.{i},1.{i},{i % 2}\n" for i in range(8)))
    target = tmp_path / fname
    if content is None:
        target.mkdir()
    elif isinstance(content, bytes):
        target.write_bytes(content)
    else:
        target.write_text(content)
    return [a.format(f=target, data=data) for a in argv] + ["--out", str(tmp_path / "out")]


def _check_refusal(tmp_path, case, code, stderr) -> None:
    name, _argv, fname, _content, expected = case
    assert code == expected, stderr
    assert len(stderr.strip().splitlines()) == 1, stderr
    assert "Traceback" not in stderr
    if name.startswith("--"):
        assert name.split()[0] in stderr
    if name == "--config unknown key":
        assert "epochz" in stderr
    if name.startswith("checkpoint"):  # every malformed checkpoint names its file
        assert str(tmp_path / fname) in stderr


@pytest.mark.parametrize("case", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_exit_code_and_one_line_message(tmp_path, case):
    # in this process: argparse refuses through SystemExit, a warning would have been a
    # second stderr line, and an exception that escapes main fails the row
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(_bad_input_argv(tmp_path, case))
        except SystemExit as exc:
            code = exc.code
    assert not caught, [str(w.message) for w in caught]
    _check_refusal(tmp_path, case, code, stderr.getvalue())


# one row per exit code also runs as its own `python -m quidlab.cli` process
ENTRY_POINT_ROWS = [c for c in BAD_INPUTS
                    if c[0] in ("--qubits 0", "csv nan feature", "single-class reference split")]


@pytest.mark.parametrize("case", ENTRY_POINT_ROWS, ids=[c[0] for c in ENTRY_POINT_ROWS])
def test_bad_input_through_the_module_entry_point(tmp_path, case):
    proc = subprocess.run([sys.executable, "-m", "quidlab.cli", *_bad_input_argv(tmp_path, case)],
                          capture_output=True, text=True)
    _check_refusal(tmp_path, case, proc.returncode, proc.stderr)


def test_version_1_checkpoint_refuses_data_wider_than_its_encoder(tmp_path, capsys):
    # a version-1 checkpoint has no n_features: its encoder's capacity of 8 bounds the width
    model = tmp_path / "v1.json"
    model.write_text(_checkpoint(encoder={"features_per_qubit": 4}))
    data = tmp_path / "nine.csv"
    data.write_text("".join(",".join(str(i + j) for j in range(9)) + f",{i % 2}\n"
                            for i in range(6)))
    assert run("evaluate", "--model", str(model), "--data", str(data)) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {data}: 9 features exceed"), err


def test_each_command_builds_its_template_once(tmp_path, monkeypatch):
    import quidlab.cli as cli

    built = []
    real = cli.build_template
    monkeypatch.setattr(cli, "build_template", lambda *args: built.append(args) or real(*args))
    data = gen(tmp_path, per_class="12")
    common = ["--data", str(data), "--qubits", "4", "--epochs", "1"]
    for argv in (["train", *common],
                 ["experiment", *common, "--epsilon", "0,0.3", "--modes",
                  "none,random_flip,quid"],
                 ["defend", *common, "--epsilon", "0.2,0.4", "--k", "2"]):
        built.clear()
        assert run(*argv, "--out", str(tmp_path / argv[0])) == 0
        assert built == [("pqc1", 4, 1)], argv[0]


def _range_rules():
    """(row id, call, field its range message starts with): one row per checked field."""
    from quidlab.data import LabeledDataset, split, synth_clusters
    from quidlab.defense import partition, train_ensemble
    from quidlab.encode import EncoderConfig
    from quidlab.ess import validate_ess
    from quidlab.noise import NoiseModel, amplitude_damping, depolarizing
    from quidlab.poison import PoisonSpec
    from quidlab.pqc import PqcTemplate, build_template
    from quidlab.qnn import QnnModel, TrainConfig, init_model
    from quidlab.simcore import DensityMatrix, _qubits, expect_z_stack

    ds = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2)
    enc, tpl = EncoderConfig("angle", 2, 1), build_template("pqc1", 2)

    def model(**fields):
        return QnnModel(**{"encoder": enc, "template": tpl, "theta": np.zeros(tpl.param_count),
                           "head_weights": np.zeros((2, 2)), "head_bias": np.zeros(2),
                           "n_classes": 2, **fields})

    def template(**fields):
        return PqcTemplate(**{"name": "pqc1", "n_qubits": 1, "layers": 1, **fields})

    return [
        ("qubit index -1", lambda: _qubits((-1,)), "qubit index"),
        ("template n_qubits 0", lambda: template(n_qubits=0), "n_qubits"),
        ("template layers 0", lambda: template(layers=0), "layers"),
        ("pqc6 on 1 qubit", lambda: build_template("pqc6", 1), "n_qubits"),
        ("features_per_qubit 0", lambda: EncoderConfig("angle", 2, 0), "features_per_qubit"),
        ("model n_features 0", lambda: model(n_features=0), "n_features"),
        ("epochs -1", lambda: TrainConfig(epochs=-1), "epochs"),
        ("batch_size 0", lambda: TrainConfig(batch_size=0), "batch_size"),
        ("train shots -1", lambda: TrainConfig(shots=-1), "shots"),
        ("train seed -1", lambda: TrainConfig(seed=-1), "seed"),
        ("train_ensemble k 0", lambda: train_ensemble(ds, ds, TrainConfig(), model(), 0, 0),
         "k"),
        ("partition k 0", lambda: partition(ds, 0, 0), "k"),
        ("partition k 5 of 4 rows", lambda: partition(ds, 5, 0), "k"),
        ("epsilon 1.5", lambda: PoisonSpec(1.5), "epsilon"),
        ("poison seed -1", lambda: PoisonSpec(0.5, seed=-1), "seed"),
        ("dataset dim 0", lambda: LabeledDataset(np.zeros((2, 0)), np.array([0, 0]), 1), "dim"),
        ("synth n_classes 1", lambda: synth_clusters(1, 2, 5), "n_classes"),
        ("synth per_class 0", lambda: synth_clusters(2, 2, 0), "per_class"),
        ("synth dim 0", lambda: synth_clusters(2, 0, 5), "dim"),
        ("synth spread -1", lambda: synth_clusters(2, 2, 5, spread=-1.0), "spread"),
        ("synth seed -1", lambda: synth_clusters(2, 2, 5, seed=-1), "seed"),
        ("split seed -1", lambda: split(ds, 0.5, seed=-1), "seed"),
        ("noise entry 1.5", lambda: NoiseModel.from_error_rate(1.5), "entry 'default' parameter"),
        # refused here, accepted or a TypeError before the range rule took bounds
        ("depolarizing True", lambda: depolarizing(True), "p"),
        ("amplitude_damping True", lambda: amplitude_damping(True), "gamma"),
        ("model n_classes 0", lambda: init_model(enc, tpl, 0), "n_classes"),
        ("dataset n_classes 2.5", lambda: LabeledDataset(ds.features, ds.labels, 2.5),
         "n_classes"),
        ("holdout_fraction '0.5'", lambda: validate_ess(ds, enc, "frobenius",
                                                         holdout_fraction="0.5"),
         "holdout_fraction"),
        # checked before any gate or head is built, where range() or np.zeros would fail first
        ("pqc1 n_qubits 2.5", lambda: build_template("pqc1", 2.5, 1), "n_qubits"),
        ("pqc1 layers 2.5", lambda: build_template("pqc1", 2, 2.5), "layers"),
        ("pqc1 layers '2'", lambda: build_template("pqc1", 2, "2"), "layers"),
        ("model n_classes -1", lambda: init_model(enc, tpl, -1), "n_classes"),
        # a boolean read as 0/1 or a float index, refused before the range
        ("DensityMatrix n_qubits True",
         lambda: DensityMatrix(True, np.diag([1.0, 0.0])), "n_qubits"),
        ("expect_z qubit True", lambda: expect_z_stack(np.eye(4)[None], True, 2), "qubit"),
        ("expect_z qubit 0.5", lambda: expect_z_stack(np.eye(4)[None], 0.5, 2), "qubit"),
    ]


RANGE_RULES = _range_rules()


@pytest.mark.parametrize("make, field", [r[1:] for r in RANGE_RULES],
                         ids=[r[0] for r in RANGE_RULES])
def test_every_range_message_starts_with_its_field(make, field):
    # cli._configured names the flag from a message's first word, so each names its field
    from quidlab import cli

    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value).startswith(f"{field} must be "), info.value
    key = cli._FIELD_KEYS.get(field, field)
    if key in cli.OPTIONS:
        with pytest.raises(cli.UsageError, match=f"^{cli._flag(key)}: {field} must be "):
            cli._configured(make)


def test_main_calls_in_one_process_match_separate_runs(tmp_path):
    # the parser is built once per process, so a flag of one call must not reach the next
    from quidlab.cli import build_parser

    def argv(out, *flags):
        return ["gen-data", "--classes", "2", "--dim", "3", "--per-class", "4",
                *flags, "--out", str(out)]

    calls = [("a.csv", "--seed", "3", "--spread", "0.9"), ("b.csv", "--seed", "4")]
    (tmp_path / "in").mkdir()
    (tmp_path / "apart").mkdir()
    for name, *flags in calls:
        assert main(argv(tmp_path / "in" / name, *flags)) == 0
        proc = subprocess.run([sys.executable, "-m", "quidlab.cli",
                               *argv(tmp_path / "apart" / name, *flags)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert build_parser() is build_parser()
    for name, *_flags in calls:
        for suffix in ("", ".provenance.json"):
            together = (tmp_path / "in" / (name + suffix)).read_bytes()
            assert together == (tmp_path / "apart" / (name + suffix)).read_bytes(), name
    assert (tmp_path / "in" / "a.csv").read_bytes() != (tmp_path / "in" / "b.csv").read_bytes()
