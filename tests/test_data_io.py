import struct
import time

import numpy as np
import pytest

from sphloss.data import (
    Dataset,
    IdxParseError,
    SplitSpec,
    concat,
    load_mnist,
    random_split,
    synthetic_categorical,
    zipf_frequencies,
)


def write_idx_pair(tmp_path, pixels, labels, *, image_magic=0x803, label_magic=0x801,
                   truncate_images=0, label_count=None):
    """Write a small IDX image/label pair; knobs inject specific corruptions."""
    n, rows, cols = pixels.shape
    ibuf = struct.pack(">IIII", image_magic, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    if truncate_images:
        ibuf = ibuf[:-truncate_images]
    lbuf = struct.pack(">II", label_magic, label_count if label_count is not None else len(labels))
    lbuf += np.asarray(labels, dtype=np.uint8).tobytes()
    ipath = tmp_path / "images.idx"
    lpath = tmp_path / "labels.idx"
    ipath.write_bytes(ibuf)
    lpath.write_bytes(lbuf)
    return str(ipath), str(lpath)


@pytest.fixture
def tiny_idx(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(12, 4, 4), dtype=np.uint8)
    pixels[0, 0, 0] = 0
    pixels[0, 0, 1] = 255
    labels = rng.integers(0, 10, size=12)
    return write_idx_pair(tmp_path, pixels, labels), pixels, labels


class TestLoadMnist:
    def test_roundtrip(self, tiny_idx):
        (ipath, lpath), pixels, labels = tiny_idx
        ds = load_mnist(ipath, lpath)
        assert ds.features.shape == (12, 16)
        assert np.array_equal(ds.labels, labels)
        np.testing.assert_allclose(ds.features, pixels.reshape(12, 16) / 255.0)
        ds2 = load_mnist(ipath, lpath)
        assert np.array_equal(ds.features, ds2.features)
        assert np.array_equal(ds.labels, ds2.labels)

    def test_scaling_endpoints(self, tiny_idx):
        (ipath, lpath), _, _ = tiny_idx
        ds = load_mnist(ipath, lpath)
        assert ds.features[0, 0] == 0.0
        assert ds.features[0, 1] == 1.0

    def test_bad_image_magic_names_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        ipath, lpath = write_idx_pair(
            tmp_path, rng.integers(0, 256, (3, 2, 2), dtype=np.uint8),
            [0, 1, 2], image_magic=0xdead,
        )
        with pytest.raises(IdxParseError, match="offset 0"):
            load_mnist(ipath, lpath)

    def test_bad_label_magic(self, tmp_path):
        rng = np.random.default_rng(2)
        ipath, lpath = write_idx_pair(
            tmp_path, rng.integers(0, 256, (3, 2, 2), dtype=np.uint8),
            [0, 1, 2], label_magic=0x805,
        )
        with pytest.raises(IdxParseError, match="magic"):
            load_mnist(ipath, lpath)

    def test_truncated_images(self, tmp_path):
        rng = np.random.default_rng(3)
        ipath, lpath = write_idx_pair(
            tmp_path, rng.integers(0, 256, (3, 2, 2), dtype=np.uint8),
            [0, 1, 2], truncate_images=5,
        )
        with pytest.raises(IdxParseError, match="expected"):
            load_mnist(ipath, lpath)

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, (4, 2, 2), dtype=np.uint8)
        n, rows, cols = pixels.shape
        ibuf = struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes()
        lbuf = struct.pack(">II", 0x801, 3) + bytes([0, 1, 2])
        ipath = tmp_path / "i.idx"
        lpath = tmp_path / "l.idx"
        ipath.write_bytes(ibuf)
        lpath.write_bytes(lbuf)
        with pytest.raises(IdxParseError, match="mismatch"):
            load_mnist(str(ipath), str(lpath))

    def test_concat(self, tiny_idx):
        (ipath, lpath), _, _ = tiny_idx
        ds = load_mnist(ipath, lpath)
        both = concat(ds, ds)
        assert len(both) == 24
        assert np.array_equal(both.labels[:12], both.labels[12:])

    @pytest.mark.parametrize("other", [
        Dataset(features=np.zeros((2, 16)), labels=np.array([0, 1]), D=11),  # classes
        Dataset(features=np.zeros((2, 3)), labels=np.array([0, 1]), D=10),  # input dim
    ], ids=["D", "input_dim"])
    def test_concat_rejects_incompatible(self, tiny_idx, other):
        (ipath, lpath), _, _ = tiny_idx
        ds = load_mnist(ipath, lpath)
        assert (ds.D, ds.features.shape[1]) == (10, 16)
        with pytest.raises(ValueError, match="not compatible"):
            concat(ds, other)


class TestDatasetInvariants:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1, 5]), D=3)

    @pytest.mark.parametrize("features,labels", [
        (np.zeros(3), np.array([0, 1, 0])),  # 1-D features
        (np.zeros((3, 2)), np.zeros((3, 1), dtype=np.int64)),  # 2-D labels
    ], ids=["features-1-D", "labels-2-D"])
    def test_rejects_wrong_rank(self, features, labels):
        with pytest.raises(ValueError, match=r"features must be \(N, input_dim\)"):
            Dataset(features=features, labels=labels, D=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64), D=2)

    def test_rejects_nonfinite_features(self):
        X = np.zeros((2, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError):
            Dataset(features=X, labels=np.array([0, 1]), D=2)


@pytest.fixture(scope="module")
def ds():
    return synthetic_categorical(D=5, input_dim=3, N=2000, seed=0)


class TestRandomSplit:

    def test_deterministic(self, ds):
        spec = SplitSpec(1000, 500, 500, seed=3)
        a = random_split(ds, spec)
        b = random_split(ds, spec)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.features, pb.features)
            assert np.array_equal(pa.labels, pb.labels)

    def test_exhaustive_partition_is_disjoint_cover(self, ds):
        tr, va, te = random_split(ds, SplitSpec(1200, 400, 400, seed=1))
        stacked = np.concatenate([tr.features, va.features, te.features])
        # every original row appears exactly once across the three splits
        orig = ds.features[np.lexsort(ds.features.T)]
        got = stacked[np.lexsort(stacked.T)]
        assert np.array_equal(orig, got)

    def test_seeds_differ(self, ds):
        firsts = {
            tuple(random_split(ds, SplitSpec(100, 50, 50, seed=s))[0].features[0])
            for s in range(10)
        }
        assert len(firsts) > 1

    def test_split_label_distribution_sane(self, ds):
        p = np.bincount(ds.labels, minlength=5) / len(ds)
        tr, _, _ = random_split(ds, SplitSpec(1000, 500, 500, seed=2))
        counts = np.bincount(tr.labels, minlength=5)
        expected = 1000 * p
        sigma = np.sqrt(1000 * p * (1 - p))
        assert np.all(np.abs(counts - expected) <= 3 * sigma + 1)

    def test_oversized_split_rejected(self, ds):
        with pytest.raises(ValueError):
            random_split(ds, SplitSpec(1500, 400, 400, seed=0))
        with pytest.raises(ValueError, match=">= 0"):
            random_split(ds, SplitSpec(-10, 20, 0, seed=0))  # total fits, train_n < 0


class TestSynthetic:
    def test_zipf_frequencies(self):
        p = zipf_frequencies(4, 1.0)
        w = np.array([1, 1 / 2, 1 / 3, 1 / 4])
        np.testing.assert_allclose(p, w / w.sum())
        np.testing.assert_allclose(zipf_frequencies(7, 0.0), 1 / 7)

    @pytest.mark.parametrize("D, seed", [(5, 0), (2000, 3), (20_000, 11)])
    def test_matches_normalizing_every_mean(self, D, seed):
        # the reference normalizes all D means and then reads the drawn ones
        input_dim, N, sep = 16, 700, 2.0
        rng = np.random.default_rng(seed)
        labels = rng.choice(D, size=N, p=zipf_frequencies(D, 1.0)).astype(np.int64)
        means = rng.normal(size=(D, input_dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        features = sep * means[labels] + rng.normal(size=(N, input_dim))
        ds = synthetic_categorical(D, input_dim, N, zipf_exponent=1.0, seed=seed,
                                   separation=sep)
        assert ds.features.tobytes() == features.tobytes()
        assert np.array_equal(ds.labels, labels)

    def test_frequency_law_3sigma(self):
        N, D = 100_000, 50
        ds = synthetic_categorical(D=D, input_dim=4, N=N, zipf_exponent=1.0, seed=5)
        p = zipf_frequencies(D, 1.0)
        counts = np.bincount(ds.labels, minlength=D)
        sigma = np.sqrt(N * p * (1 - p))
        assert np.all(np.abs(counts - N * p) <= 3 * sigma + 1)

    def test_uniform_when_exponent_zero(self):
        N, D = 100_000, 10
        ds = synthetic_categorical(D=D, input_dim=2, N=N, zipf_exponent=0.0, seed=6)
        counts = np.bincount(ds.labels, minlength=D)
        sigma = np.sqrt(N * 0.1 * 0.9)
        assert np.all(np.abs(counts - N / D) <= 3 * sigma)

    def test_separation_zero_accuracy_bound(self):
        # with no signal the best classifier predicts the modal class
        from sphloss.trainer import MLPSpec, TrainConfig, evaluate, train

        ds = synthetic_categorical(D=5, input_dim=4, N=4000, zipf_exponent=1.0,
                                   seed=7, separation=0.0)
        tr, va, te = random_split(ds, SplitSpec(2800, 600, 600, seed=0))
        cfg = TrainConfig(loss_kind="log_softmax", initial_lr=0.05, max_epochs=10,
                          seed=0, prior_bias_init=True)
        metrics = train(MLPSpec(4, (8,), 5), cfg,
                        ((tr.features, tr.labels), (va.features, va.labels),
                         (te.features, te.labels)))
        p_max = zipf_frequencies(5, 1.0).max()
        n_te = 600
        sigma = np.sqrt(p_max * (1 - p_max) / n_te)
        assert 1.0 - metrics.test_error <= p_max + 3 * sigma

    def test_accuracy_improves_with_separation(self):
        p_max = zipf_frequencies(10, 1.0).max()
        ds = synthetic_categorical(D=10, input_dim=8, N=5000, zipf_exponent=1.0,
                                   seed=8, separation=4.0)
        # a nearest-mean rule on the true means must beat the prior baseline
        rng = np.random.default_rng(8)
        rng.choice(10, size=5000, p=zipf_frequencies(10, 1.0))
        means = rng.normal(size=(10, 8))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        pred = np.argmax(ds.features @ (4.0 * means.T), axis=1)
        acc = (pred == ds.labels).mean()
        assert acc > p_max + 0.1

    def test_generation_budget(self):
        t0 = time.perf_counter()
        ds = synthetic_categorical(D=10_000, input_dim=32, N=100_000, seed=9)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        assert ds.features.nbytes < 1_000_000_000

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            synthetic_categorical(D=1, input_dim=2, N=10)
        with pytest.raises(ValueError):
            synthetic_categorical(D=3, input_dim=2, N=10, zipf_exponent=-0.5)
