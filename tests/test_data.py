"""Dataset ingestion: IDX round trips, subsetting, synthesis, batching."""
import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atent.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Dataset,
    IdxFormatError,
    batch_iter,
    load_mnist_idx,
    split_train_val,
    subset_binary,
    synth_digits,
    synth_two_gaussians,
)
from atent.models import Batch, accuracy, build_mlp
from atent.seeding import derive_rng
from atent.tensor import Tensor
from file_helpers import write_idx


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 4, 3), dtype=np.uint8)
    labels = np.array([5, 8], dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    write_idx(images, labels, ip, lp)
    return images, labels, ip, lp


class TestIdx:
    def test_fixture_round_trips_pixels_exactly(self, idx_pair):
        images, labels, ip, lp = idx_pair
        ds = load_mnist_idx(ip, lp)
        assert ds.inputs.shape == (2, 1, 4, 3)
        back = np.rint(ds.inputs.data * 255).astype(np.uint8)
        assert np.array_equal(back.reshape(2, 4, 3), images)
        assert ds.labels.data.argmax(axis=1).tolist() == [5, 8]

    def test_gzip_round_trip(self, idx_pair, tmp_path):
        images, labels, _, _ = idx_pair
        ip, lp = tmp_path / "i.gz", tmp_path / "l.gz"
        write_idx(images, labels, ip, lp, compress=True)
        with open(ip, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"
        ds = load_mnist_idx(ip, lp)
        assert np.array_equal(
            np.rint(ds.inputs.data * 255).astype(np.uint8).reshape(2, 4, 3), images
        )

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">iiii", 0xDEAD, 1, 2, 2) + bytes(4))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">ii", LABEL_MAGIC, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist_idx(p, lp)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "trunc.idx"
        p.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, 2, 2, 2) + bytes(3))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">ii", LABEL_MAGIC, 2) + bytes(2))
        with pytest.raises(IdxFormatError, match="bytes"):
            load_mnist_idx(p, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, 2, 2, 2) + bytes(8))
        lp.write_bytes(struct.pack(">ii", LABEL_MAGIC, 3) + bytes(3))
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_mnist_idx(ip, lp)


class TestSubsetBinary:
    def _ten_class(self, n=60):
        rng = np.random.default_rng(1)
        labels = np.zeros((n, 10))
        labels[np.arange(n), np.arange(n) % 10] = 1.0
        return Dataset(Tensor(rng.random((n, 1, 4, 4))), Tensor(labels))

    def test_two_class_labels(self):
        sub = subset_binary(self._ten_class(), 5, 8, cap_per_class=100)
        assert sub.labels.shape[1] == 2
        assert set(sub.labels.data.argmax(axis=1).tolist()) == {0, 1}

    def test_cap_limits_size_and_balance(self):
        sub = subset_binary(self._ten_class(60), 5, 8, cap_per_class=10)
        assert sub.n <= 20
        counts = np.bincount(sub.labels.data.argmax(axis=1), minlength=2)
        assert counts[0] == counts[1]

    def test_missing_class_rejected(self):
        ds = self._ten_class(5)  # only classes 0..4 present
        with pytest.raises(ValueError):
            subset_binary(ds, 5, 8, cap_per_class=10)


class TestSynthTwoGaussians:
    def test_deterministic(self):
        a = synth_two_gaussians(100, 4.0, seed=3)
        b = synth_two_gaussians(100, 4.0, seed=3)
        assert np.array_equal(a.inputs.data, b.inputs.data)
        assert np.array_equal(a.labels.data, b.labels.data)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            synth_two_gaussians(101, 4.0, seed=0)

    def test_values_in_unit_square(self):
        ds = synth_two_gaussians(200, 6.0, seed=1)
        assert ds.inputs.data.min() >= 0.0 and ds.inputs.data.max() <= 1.0

    def test_zero_separation_near_chance(self):
        ds = synth_two_gaussians(2000, 0.0, seed=2)
        model = build_mlp([2, 8, 2], seed=0)
        acc = accuracy(model, ds.inputs, ds.labels)
        assert abs(acc - 0.5) <= 0.1  # indistinguishable classes

    def test_wide_separation_linearly_solvable(self):
        from atent.models import forward_logits

        ds = synth_two_gaussians(1000, 6.0, seed=4)
        x, y = ds.inputs.data, ds.labels.data.argmax(axis=1)
        # least-squares linear fit is enough at separation 6
        A = np.hstack([x, np.ones((x.shape[0], 1))])
        coef, *_ = np.linalg.lstsq(A, 2.0 * y - 1.0, rcond=None)
        acc = float(np.mean((A @ coef > 0).astype(int) == y))
        assert acc >= 0.99


class TestBatchIter:
    def _ds(self, n=10):
        rng = np.random.default_rng(5)
        labels = np.eye(2)[rng.integers(0, 2, n)]
        return Dataset(Tensor(rng.random((n, 3))), Tensor(labels))

    def test_sizes_with_short_tail(self):
        sizes = [b.n for b in batch_iter(self._ds(10), 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_partition_covers_dataset(self):
        ds = self._ds(17)
        seen = np.concatenate(
            [b.inputs.data for b in batch_iter(ds, 5, seed=1, epoch=2)]
        )
        assert seen.shape[0] == 17
        assert np.array_equal(
            np.sort(seen, axis=0), np.sort(ds.inputs.data, axis=0)
        )

    def test_same_seed_epoch_same_order(self):
        ds = self._ds(12)
        a = [b.inputs.data for b in batch_iter(ds, 5, seed=3, epoch=1)]
        b = [b.inputs.data for b in batch_iter(ds, 5, seed=3, epoch=1)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_different_epoch_reshuffles(self):
        ds = self._ds(32)
        a = next(iter(batch_iter(ds, 32, seed=3, epoch=0))).inputs.data
        b = next(iter(batch_iter(ds, 32, seed=3, epoch=1))).inputs.data
        assert not np.array_equal(a, b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 1000), st.integers(0, 50))
    def test_every_index_exactly_once(self, batch_size, seed, epoch):
        ds = self._ds(23)
        rows = np.concatenate(
            [b.inputs.data for b in batch_iter(ds, batch_size, seed=seed, epoch=epoch)]
        )
        # multiset equality via lexicographic sort
        assert np.array_equal(
            rows[np.lexsort(rows.T)], ds.inputs.data[np.lexsort(ds.inputs.data.T)]
        )


class TestDatasetChecks:
    @pytest.mark.parametrize("bad_row", [[1.0, 1.0], [0.5, 0.5]], ids=["two-hot", "half"])
    def test_rejects_labels_that_are_not_one_hot(self, bad_row):
        labels = np.eye(2)[[0, 1, 0]]
        labels[1] = bad_row
        with pytest.raises(ValueError, match="one-hot"):
            Dataset(Tensor(np.zeros((3, 2))), Tensor(labels))

    def test_batches_equal_checked_batches_bytewise(self):
        # 23 rows in batches of 5: four full batches and a short one of 3
        rng = np.random.default_rng(9)
        ds = Dataset(Tensor(rng.random((23, 1, 2, 3))), Tensor(np.eye(3)[rng.integers(0, 3, 23)]),
                     (0.0, 1.0))
        order = derive_rng(4, "shuffle", 6).permutation(ds.n)
        batches = list(batch_iter(ds, 5, seed=4, epoch=6))
        assert [b.n for b in batches] == [5, 5, 5, 5, 3]
        for start, got in zip(range(0, ds.n, 5), batches):
            idx = order[start:start + 5]
            ref = Batch(Tensor(ds.inputs.data[idx]), Tensor(ds.labels.data[idx]), ds.value_range)
            assert type(got) is Batch and got.value_range == ref.value_range
            for a, b in ((got.inputs, ref.inputs), (got.labels, ref.labels)):
                assert type(a) is Tensor and a.data.flags.c_contiguous
                assert a.data.dtype == b.data.dtype and a.shape == b.shape
                assert a.data.tobytes() == b.data.tobytes()


class TestSplitTrainVal:
    def test_ninety_ten_and_disjoint(self):
        ds = synth_two_gaussians(200, 4.0, seed=7)
        train, val = split_train_val(ds)
        assert (train.n, val.n) == (180, 20)
        both = np.vstack([train.inputs.data, val.inputs.data])
        assert np.array_equal(
            both[np.lexsort(both.T)], ds.inputs.data[np.lexsort(ds.inputs.data.T)]
        )


class TestSynthDigits:
    def test_deterministic_and_shaped(self):
        a = synth_digits(20, classes=(5, 8), seed=0)
        b = synth_digits(20, classes=(5, 8), seed=0)
        assert a.inputs.shape == (40, 1, 28, 28)
        assert np.array_equal(a.inputs.data, b.inputs.data)

    def test_pixel_range(self):
        ds = synth_digits(10, classes=(5, 8), seed=1)
        assert ds.inputs.data.min() >= 0.0 and ds.inputs.data.max() <= 1.0

    def test_classes_are_distinguishable(self):
        # digits 5 and 8 differ in two strokes; nearest-centroid should
        # already separate most of the corpus
        ds = synth_digits(100, classes=(5, 8), seed=2)
        x = ds.inputs.data.reshape(ds.n, -1)
        y = ds.labels.data.argmax(axis=1)
        mu0, mu1 = x[y == 0].mean(axis=0), x[y == 1].mean(axis=0)
        pred = (np.linalg.norm(x - mu1, axis=1) < np.linalg.norm(x - mu0, axis=1)).astype(int)
        assert float(np.mean(pred == y)) >= 0.9

    def test_idx_round_trip_through_pipeline(self, tmp_path):
        ds = synth_digits(5, classes=(5, 8), seed=3)
        imgs = np.rint(ds.inputs.data.reshape(-1, 28, 28) * 255).astype(np.uint8)
        # write with true digit labels, reload, subset back down
        labels = np.array([5, 8], dtype=np.uint8)[ds.labels.data.argmax(axis=1)]
        write_idx(imgs, labels, tmp_path / "i.idx", tmp_path / "l.idx")
        loaded = load_mnist_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        back = np.rint(loaded.inputs.data * 255).astype(np.uint8)
        assert np.array_equal(back.reshape(-1, 28, 28), imgs)
        sub = subset_binary(loaded, 5, 8, cap_per_class=5)
        assert sub.n == 10
