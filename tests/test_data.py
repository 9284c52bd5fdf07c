import numpy as np
import pytest

from quidlab.data import LabeledDataset, load_csv, save_csv, split, synth_clusters
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
    # 16 means on a line, each pair >= width/32 apart, is unlikely in one draw
    failed = False
    for seed in range(50):
        try:
            synth_clusters(16, 1, 1, seed=seed, max_retries=1)
        except ValueError:
            failed = True
            break
    assert failed


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_clusters(1, 2, 5)
    with pytest.raises(ValueError):
        synth_clusters(2, 0, 5)


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


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), 2)
