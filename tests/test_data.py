"""Dataset ingestion: IDX round trips, subsetting, synthesis, batching,
and the splits ``build_datasets`` makes."""
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atent.data import (
    _RENDER_BLOCK,
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Dataset,
    IdxFormatError,
    batch_iter,
    permute_rows,
    read_idx_pair,
    subset_binary,
    synth_digits,
    synth_two_gaussians,
)
from atent.config import DataSpec
from atent.experiment import build_datasets, build_eval_dataset
from atent.models import accuracy, build_mlp
from atent.seeding import derive_rng
from atent.tensor import Tensor, TensorError
import data_oracles as oracle
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
        got_images, got_labels = read_idx_pair(ip, lp)
        assert got_images.dtype == np.uint8 and np.array_equal(got_images, images)
        assert got_labels.tolist() == [5, 8]

    def test_gzip_round_trip(self, idx_pair, tmp_path):
        images, labels, _, _ = idx_pair
        ip, lp = tmp_path / "i.gz", tmp_path / "l.gz"
        write_idx(images, labels, ip, lp, compress=True)
        with open(ip, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"
        got_images, got_labels = read_idx_pair(ip, lp)
        assert np.array_equal(got_images, images) and np.array_equal(got_labels, labels)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">iiii", 0xDEAD, 1, 2, 2) + bytes(4))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">ii", LABEL_MAGIC, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx_pair(p, lp)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "trunc.idx"
        p.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, 2, 2, 2) + bytes(3))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">ii", LABEL_MAGIC, 2) + bytes(2))
        with pytest.raises(IdxFormatError, match="bytes"):
            read_idx_pair(p, lp)

    def test_empty_file_rejected(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(b"")
        lp.write_bytes(struct.pack(">ii", LABEL_MAGIC, 0))
        with pytest.raises(IdxFormatError, match="truncated header"):
            read_idx_pair(ip, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, 2, 2, 2) + bytes(8))
        lp.write_bytes(struct.pack(">ii", LABEL_MAGIC, 3) + bytes(3))
        with pytest.raises(IdxFormatError, match="mismatch"):
            read_idx_pair(ip, lp)


def _assert_same_dataset(got: Dataset, want: Dataset) -> None:
    for a, b in ((got.inputs.data, want.inputs.data), (got.labels.data, want.labels.data)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got.value_range == want.value_range


def _write_mnist_pair(root, prefix, n, seed, classes=range(10)):
    """A synthetic IDX pair of ``n`` random 28x28 images under ``root``,
    with labels drawn from ``classes``."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    labels = rng.choice(np.asarray(list(classes), dtype=np.uint8), size=n)
    write_idx(images, labels, root / f"{prefix}-images-idx3-ubyte",
              root / f"{prefix}-labels-idx1-ubyte")
    return root / f"{prefix}-images-idx3-ubyte", root / f"{prefix}-labels-idx1-ubyte"


class TestSubsetBinary:
    def _ten_class(self, n=60):
        rng = np.random.default_rng(1)
        return rng.integers(0, 256, size=(n, 4, 4), dtype=np.uint8), np.arange(n) % 10

    def test_two_class_labels(self):
        sub = subset_binary(*self._ten_class(), 5, 8, cap_per_class=100)
        assert sub.labels.shape[1] == 2
        assert set(sub.labels.data.argmax(axis=1).tolist()) == {0, 1}

    def test_cap_limits_size_and_balance(self):
        sub = subset_binary(*self._ten_class(60), 5, 8, cap_per_class=10)
        assert sub.n <= 20
        counts = np.bincount(sub.labels.data.argmax(axis=1), minlength=2)
        assert counts[0] == counts[1]

    def test_missing_class_rejected(self):
        images, digits = self._ten_class(5)  # only classes 0..4 present
        with pytest.raises(ValueError):
            subset_binary(images, digits, 5, 8, cap_per_class=10)

    @pytest.mark.parametrize("cap", [1, 4, 1000], ids=["cap1", "cap4", "cap-above-count"])
    def test_equals_convert_everything_then_subset(self, tmp_path, cap):
        # 80 images over ten classes: fewer than 1000 of each, more than 4 of 3 and 7
        ip, lp = _write_mnist_pair(tmp_path, "train", 80, seed=2)
        got = subset_binary(*read_idx_pair(ip, lp), 3, 7, cap_per_class=cap, seed=6)
        want = oracle.subset_binary(oracle.load_mnist_idx(ip, lp), 3, 7, cap, seed=6)
        assert got.n == 2 * min(cap, *np.bincount(read_idx_pair(ip, lp)[1])[[3, 7]])
        _assert_same_dataset(got, want)

    def test_missing_class_raises_like_convert_everything(self, tmp_path):
        ip, lp = _write_mnist_pair(tmp_path, "train", 40, seed=3, classes=(0, 1, 2, 3))
        with pytest.raises(ValueError, match="not both present"):
            oracle.subset_binary(oracle.load_mnist_idx(ip, lp), 3, 7, 10)
        with pytest.raises(ValueError, match="not both present"):
            subset_binary(*read_idx_pair(ip, lp), 3, 7, cap_per_class=10)


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
        with pytest.raises(TensorError, match="one-hot"):
            Dataset(Tensor(np.zeros((3, 2))), Tensor(labels))

    def test_with_inputs_keeps_labels_and_range(self):
        batch = Dataset(np.ones((2, 3)), np.eye(2), (0.0, 1.0))
        moved = batch.with_inputs(np.zeros((2, 3)))
        assert moved.labels is batch.labels and moved.value_range == (0.0, 1.0)
        assert np.array_equal(moved.inputs.data, np.zeros((2, 3)))
        assert np.array_equal(batch.inputs.data, np.ones((2, 3)))

    def test_with_inputs_rejects_row_count_mismatch(self):
        batch = Dataset(np.ones((2, 3)), np.eye(2))
        with pytest.raises(TensorError, match="batch size mismatch"):
            batch.with_inputs(np.ones((3, 3)))

    def test_checks_the_value_range_only_when_one_is_declared(self):
        x, y = np.array([[-0.5, 0.25], [0.5, 1.5]]), np.eye(2)
        assert Dataset(x, y).value_range is None
        with pytest.raises(ValueError, match=r"leave the declared range \[0.0, 1.0\]"):
            Dataset(x, y, (0.0, 1.0))
        assert Dataset(x, y, (-1.0, 2.0)).n == 2

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
            ref = Dataset(Tensor(ds.inputs.data[idx]), Tensor(ds.labels.data[idx]), ds.value_range)
            assert type(got) is Dataset and got.value_range == ref.value_range
            for a, b in ((got.inputs, ref.inputs), (got.labels, ref.labels)):
                assert type(a) is Tensor and a.data.flags.c_contiguous
                assert a.data.dtype == b.data.dtype and a.shape == b.shape
                assert a.data.tobytes() == b.data.tobytes()


class TestPermuteRows:
    """``permute_rows`` leaves each array equal to ``array[order]`` byte for
    byte, in the buffer it was given."""

    @pytest.mark.parametrize("order", [
        [],
        [0],
        list(range(7)),
        list(range(1, 9)) + [0],
        [1, 0, 3, 2, 5, 6, 4, 7, 9, 8],
        derive_rng(0, "permute-test").permutation(53).tolist(),
    ], ids=["n0", "n1", "identity", "one-long-cycle", "many-short-cycles", "random"])
    def test_equals_gather(self, order):
        n = len(order)
        rng = np.random.default_rng(n)
        inputs = rng.random((n, 1, 3, 2))
        labels = np.eye(2)[rng.integers(0, 2, n)]
        want = [inputs[order], labels[order]]
        where = [inputs.ctypes.data, labels.ctypes.data]
        permute_rows(np.asarray(order, dtype=np.int64), inputs, labels)
        for got, ref in zip((inputs, labels), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert [inputs.ctypes.data, labels.ctypes.data] == where


def _digits_spec(val_fraction, n_per_class=30):
    return DataSpec(kind="digits_binary", n_per_class=n_per_class, class_a=3, class_b=7,
                    val_fraction=val_fraction)


class TestSplitTrainVal:
    def test_ninety_ten_and_disjoint(self):
        spec = DataSpec(kind="two_gaussians", n=200, separation=4.0)
        train, val, _ = build_datasets(spec, 7)
        assert (train.n, val.n) == (180, 20)
        pool = synth_two_gaussians(200, 4.0, seed=7)
        both = np.vstack([train.inputs.data, val.inputs.data])
        assert np.array_equal(
            both[np.lexsort(both.T)], pool.inputs.data[np.lexsort(pool.inputs.data.T)]
        )

    @pytest.mark.parametrize("val_fraction", [0.1, 0.2, 0.001, 0.0])
    def test_digit_splits_equal_the_take_split(self, val_fraction):
        spec = _digits_spec(val_fraction)
        pool = oracle.synth_digits(30, (3, 7), seed=4)
        if val_fraction > 0:
            want = oracle.split_train_val(pool, val_fraction)
        else:
            want = pool, pool.take(np.arange(0))
        want += (oracle.synth_digits(50, (3, 7), seed=4 + 90_001),)
        got = build_datasets(spec, 4)
        for g, w in zip(got, want):
            _assert_same_dataset(g, w)

    def test_train_and_val_are_slices_of_one_buffer(self):
        train, val, eval_ds = build_datasets(_digits_spec(0.2), 5)
        for t, v in ((train.inputs.data, val.inputs.data),
                     (train.labels.data, val.labels.data)):
            assert t.base is not None and t.base is v.base
            assert t.flags.c_contiguous and v.flags.c_contiguous
            assert not np.shares_memory(t, v)
        assert not np.shares_memory(train.inputs.data.base, eval_ds.inputs.data)

    def test_mnist_splits_equal_convert_everything(self, tmp_path):
        train_pair = _write_mnist_pair(tmp_path, "train", 120, seed=8)
        test_pair = _write_mnist_pair(tmp_path, "t10k", 60, seed=9)
        spec = DataSpec(kind="mnist_binary", class_a=2, class_b=6, cap_per_class=9,
                        data_dir=str(tmp_path), val_fraction=0.25)
        got = build_datasets(spec, 11)
        pool = oracle.subset_binary(oracle.load_mnist_idx(*train_pair), 2, 6, 9, seed=11)
        want = oracle.split_train_val(pool, 0.25) + (
            oracle.subset_binary(oracle.load_mnist_idx(*test_pair), 2, 6, 9, seed=11),)
        for g, w in zip(got, want):
            _assert_same_dataset(g, w)

    def test_eval_split_alone_reads_no_training_file(self, tmp_path):
        _write_mnist_pair(tmp_path, "t10k", 60, seed=9)
        spec = DataSpec(kind="mnist_binary", class_a=2, class_b=6, cap_per_class=9,
                        data_dir=str(tmp_path))
        alone = build_eval_dataset(spec, 11)
        _write_mnist_pair(tmp_path, "train", 120, seed=8)
        _assert_same_dataset(alone, build_datasets(spec, 11)[2])

    def test_mnist_holds_only_the_selected_rows_in_float64(self, tmp_path):
        # the whole 10,000-image file in float64 is 62.7 MB; its raw bytes
        # are 7.8 MB, and the IDX files are memory-mapped, so none of those
        # bytes but the kept rows' is copied; this build peaks at 2.7 MB
        for prefix in ("train", "t10k"):
            _write_mnist_pair(tmp_path, prefix, 10_000, seed=1)
        spec = DataSpec(kind="mnist_binary", cap_per_class=100, data_dir=str(tmp_path))
        tracemalloc.start()
        try:
            splits = build_datasets(spec, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [ds.n for ds in splits] == [180, 20, 200]
        assert peak < 4e6, f"build_datasets peaked at {peak / 1e6:.1f} MB"


class TestSynthDigits:
    @pytest.mark.parametrize("seed", [0, 6, 41])
    @pytest.mark.parametrize("classes", [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    def test_equals_the_per_digit_renderer(self, classes, seed):
        # per-class counts of one digit, and on both sides of one and two
        # whole blocks
        b = _RENDER_BLOCK
        for n in (1, b - 1, b, b + 1, 2 * b + 1):
            _assert_same_dataset(synth_digits(n, classes, seed),
                                 oracle.synth_digits(n, classes, seed))

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
        images, digits = read_idx_pair(tmp_path / "i.idx", tmp_path / "l.idx")
        assert np.array_equal(images, imgs)
        sub = subset_binary(images, digits, 5, 8, cap_per_class=5)
        assert sub.n == 10
        back = np.rint(sub.inputs.data * 255).astype(np.uint8)
        assert sorted(map(bytes, back.reshape(10, -1))) == sorted(map(bytes, imgs.reshape(10, -1)))
