import json

import numpy as np
import pytest

from quidlab.data import LabeledDataset, load_csv, read_json, save_csv, split, synth_clusters
from quidlab.data import write_json, write_table
from quidlab.errors import DataFormatError


def test_load_two_row_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0.1,0.2,0\n0.3,0.4,1\n")
    ds = load_csv(path)
    assert len(ds) == 2 and ds.dim == 2 and ds.n_classes == 2
    assert np.allclose(ds.features, [[0.1, 0.2], [0.3, 0.4]])
    assert ds.labels.tolist() == [0, 1]


def test_load_with_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,f1,label\n0.1,0.2,0\n")
    ds = load_csv(path, has_header=True)
    assert len(ds) == 1


def test_load_rejects_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0.1,0.2,0\n0.3,1\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_csv(path)


def test_load_rejects_bad_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0.1,abc,0\n")
    with pytest.raises(DataFormatError, match=":1"):
        load_csv(path)
    path.write_text("0.1,0.2,-2\n")
    with pytest.raises(DataFormatError, match="negative label"):
        load_csv(path)
    path.write_text("")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"0.1,0.2,0\n0.3,{bad},1\n")
        with pytest.raises(DataFormatError, match=":2: non-finite"):
            load_csv(path)


def test_save_load_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(5))
    ds = LabeledDataset(rng.standard_normal((20, 3)) * 1e3, rng.integers(0, 4, 20), 4)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(ds.features, back.features)
    assert np.array_equal(ds.labels, back.labels)
    save_csv(back, tmp_path / "d2.csv")
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()


def test_synth_clusters_shape_and_determinism():
    ds = synth_clusters(4, 8, 250, seed=7)
    assert len(ds) == 1000 and ds.dim == 8 and ds.n_classes == 4
    assert np.bincount(ds.labels).tolist() == [250] * 4
    again = synth_clusters(4, 8, 250, seed=7)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.labels, again.labels)


def test_synth_zero_spread_collapses_to_means():
    ds = synth_clusters(3, 2, 10, spread=0.0, seed=1)
    for c in range(3):
        block = ds.features[ds.labels == c]
        assert np.allclose(block, block[0])


def test_synth_mean_separation_floor():
    lo, hi = 0.0, 2 * np.pi
    for seed in range(5):
        ds = synth_clusters(4, 3, 5, spread=0.0, seed=seed)
        means = np.stack([ds.features[ds.labels == c][0] for c in range(4)])
        d = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        d[np.diag_indices(4)] = np.inf
        assert d.min() >= (hi - lo) / 8.0


def test_synth_infeasible_separation_errors():
    # 64 means on a line, each pair >= width/128 apart, fail every one of the retries
    with pytest.raises(ValueError, match="could not draw 64 means"):
        synth_clusters(64, 1, 1, seed=0)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_clusters(1, 2, 5)
    with pytest.raises(ValueError):
        synth_clusters(2, 0, 5)
    for spread in (-1.0, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="spread"):
            synth_clusters(2, 2, 5, spread=spread)
    # counts and the seed are integers, never a boolean or a float cast to one
    for args, kwargs in (((2.0, 2, 5), {}), ((2, True, 5), {}), ((2, 2, 5.5), {}),
                         ((2, 2, 5), {"seed": True}), ((2, 2, 5), {"seed": 1.0})):
        with pytest.raises(ValueError):
            synth_clusters(*args, **kwargs)


def test_split_sizes_and_determinism():
    ds = synth_clusters(4, 8, 250, seed=3)
    tr, te = split(ds, 0.7, stratified=False, seed=9)
    assert len(tr) == 700 and len(te) == 300
    tr2, te2 = split(ds, 0.7, stratified=False, seed=9)
    assert np.array_equal(tr.features, tr2.features)
    assert np.array_equal(te.labels, te2.labels)


def test_split_stratified_balances_classes():
    ds = synth_clusters(4, 2, 100, seed=3)
    tr, te = split(ds, 0.7, stratified=True, seed=9)
    for c in range(4):
        assert abs(int(np.sum(tr.labels == c)) - 70) <= 1
        assert abs(int(np.sum(te.labels == c)) - 30) <= 1


def test_split_disjoint_covering():
    ds = synth_clusters(2, 2, 20, seed=3)
    tr, te = split(ds, 0.5, stratified=True, seed=1)
    combined = np.vstack([tr.features, te.features])
    assert combined.shape[0] == len(ds)
    # every original row appears exactly once
    original = {tuple(row) for row in ds.features}
    recombined = {tuple(row) for row in combined}
    assert original == recombined


def test_split_degenerate_fraction():
    ds = synth_clusters(2, 2, 2, seed=3)
    with pytest.raises(ValueError):
        split(ds, 0.999999, stratified=False, seed=1)
    with pytest.raises(ValueError):
        split(ds, 1.5, stratified=False, seed=1)
    for fraction, seed in ((True, 1), (0.5, True), (0.5, 1.0)):
        with pytest.raises(ValueError):
            split(ds, fraction, seed=seed)


def test_split_loops_over_the_classes_present():
    # a declared class count of 1e9 on 20 rows: the split never walks the absent ids
    import time

    rows = synth_clusters(2, 2, 10, seed=3)
    labels = np.where(rows.labels == 1, 10**9 - 1, 0)
    wide = LabeledDataset(rows.features, labels, 10**9)
    start = time.perf_counter()
    tr, te = split(wide, 0.5, seed=1)
    assert time.perf_counter() - start < 0.5
    # the same rows as the split of the same labels declared compactly
    compact_tr, compact_te = split(rows, 0.5, seed=1)
    assert np.array_equal(tr.features, compact_tr.features)
    assert np.array_equal(te.features, compact_te.features)


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError, match="outside the dataset's 2 classes"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    for labels in ([0.0, 1.5], [0.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="whole numbers"):
            LabeledDataset(np.zeros((2, 2)), np.array(labels), 2)
    whole = LabeledDataset(np.zeros((2, 2)), np.array([1.0, 0.0]), 2).labels
    assert whole.dtype == np.int64 and whole.tolist() == [1, 0]
    with pytest.raises(ValueError, match=r"got shape \(2, 3, 4\)"):
        LabeledDataset(np.zeros((2, 3, 4)), np.array([0, 1]), 2)
    empty = LabeledDataset(np.zeros((0, 3)), np.array([], dtype=int), 2)
    assert (len(empty), empty.dim) == (0, 3)


def test_read_json_returns_the_top_level_object(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"k": [1, 2]}')
    assert read_json(path) == {"k": [1, 2]}
    for bad in ("{", "[1, 2]", "3", "null"):
        path.write_text(bad)
        with pytest.raises(DataFormatError):
            read_json(path)


def test_write_table_floats_are_bit_exact_and_numpy_scalars_plain(tmp_path):
    values = [0.1, 1 / 3, 2.0**-1074, -1e300, float(np.nextafter(1.0, 2.0))]
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c"], [[v, np.float64(v), np.int64(7)] for v in values])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    for v, line in zip(values, lines[1:]):
        a, b, c = line.split(",")
        assert float(a) == v and a == b == repr(v) and c == "7"


def test_write_json_layout(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": [1, 2], "a": {"d": 1, "c": 0.5}})
    text = path.read_text()
    assert text == json.dumps({"a": {"c": 0.5, "d": 1}, "b": [1, 2]}, indent=2) + "\n"


def test_checkpoint_in_the_earlier_compact_layout_still_loads(tmp_path):
    from quidlab.encode import EncoderConfig
    from quidlab.pqc import build_template
    from quidlab.qnn import init_model, load_model, save_model

    model = init_model(EncoderConfig("angle", 2, 2), build_template("pqc8", 2, 1), 3, seed=4)
    path = tmp_path / "model.json"
    save_model(model, path, seed=4)
    path.write_text(json.dumps(json.loads(path.read_text())) + "\n")  # one line, as before
    back = load_model(path)
    assert back.template == model.template and np.array_equal(back.theta, model.theta)
    assert np.array_equal(back.head_weights, model.head_weights)
