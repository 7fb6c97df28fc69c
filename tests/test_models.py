"""Model construction, forward passes, loss/gradient plumbing."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atent import models
from atent import tensor as tc
from atent.models import (
    Batch,
    accuracy,
    batch_loss,
    build_mlp,
    build_small_cnn,
    forward_logits,
    loss_and_grads,
    per_sample_losses,
    predict,
)
from atent.oracle import finite_difference_grad, relative_error
from atent.tensor import NonFiniteError, Tape, Tensor, TensorError


def _fd_weight_check(params, batch, names, tol=1e-4):
    _, wg, _ = loss_and_grads(params, batch, wrt="weights")
    for name in names:
        t = params.weights[name]

        def f(arr, t=t):
            old = t.data
            t.data = arr
            try:
                return batch_loss(params, batch)
            finally:
                t.data = old

        fd = finite_difference_grad(f, t.data.copy())
        assert relative_error(wg[name], fd) <= tol, name


class TestBatch:
    def test_rejects_labels_that_are_not_one_hot(self):
        with pytest.raises(TensorError):
            Batch(np.ones((2, 3)), np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_with_inputs_keeps_labels_and_range(self):
        batch = Batch(np.ones((2, 3)), np.eye(2), (0.0, 1.0))
        moved = batch.with_inputs(np.zeros((2, 3)))
        assert moved.labels is batch.labels and moved.value_range == (0.0, 1.0)
        assert np.array_equal(moved.inputs.data, np.zeros((2, 3)))
        assert np.array_equal(batch.inputs.data, np.ones((2, 3)))

    def test_with_inputs_rejects_row_count_mismatch(self):
        batch = Batch(np.ones((2, 3)), np.eye(2))
        with pytest.raises(TensorError):
            batch.with_inputs(np.ones((3, 3)))


class TestBuildMlp:
    def test_seed_reproducibility(self):
        a = build_mlp([2, 16, 16, 2], seed=5)
        b = build_mlp([2, 16, 16, 2], seed=5)
        for name in a.names:
            assert np.array_equal(a.weights[name].data, b.weights[name].data)

    def test_param_count(self):
        # 784*64+64 + 64*64+64 + 64*2+2
        assert build_mlp([784, 64, 64, 2], seed=0).n_params == 54530

    def test_rejects_degenerate_widths(self):
        with pytest.raises(TensorError):
            build_mlp([4], seed=0)
        with pytest.raises(TensorError):
            build_mlp([4, 0, 2], seed=0)

    def test_initial_loss_near_log2_on_balanced_data(self):
        # Monte Carlo over 20 seeds on balanced 2-class data
        rng = np.random.default_rng(0)
        x = rng.random((64, 6))
        y = np.eye(2)[np.arange(64) % 2]
        batch = Batch(x, y)
        losses = [batch_loss(build_mlp([6, 16, 2], seed=s), batch) for s in range(20)]
        assert abs(float(np.mean(losses)) - math.log(2)) <= 0.2


class TestBuildSmallCnn:
    def test_seed_reproducibility(self):
        a = build_small_cnn([4, 8], [32, 10], seed=3)
        b = build_small_cnn([4, 8], [32, 10], seed=3)
        for name in a.names:
            assert np.array_equal(a.weights[name].data, b.weights[name].data)

    def test_zero_image_takes_bias_path(self):
        p = build_small_cnn([4, 8], [32, 10], seed=3)
        x = np.zeros((2, 1, 28, 28))
        logits = forward_logits(p, Tensor(x)).data
        # conv biases are zero-initialized, so the bias path is the final fc bias
        assert np.allclose(logits, p.weights["fb1"].data)
        assert np.array_equal(logits[0], logits[1])

    def test_output_shape_on_mnist_sized_input(self):
        p = build_small_cnn([4, 8], [32, 10], seed=1)
        x = np.random.default_rng(0).random((5, 1, 28, 28))
        assert forward_logits(p, Tensor(x)).shape == (5, 10)


class TestForwardLogits:
    def test_shape_check(self):
        p = build_mlp([3, 4, 2], seed=0)
        with pytest.raises(TensorError):
            forward_logits(p, Tensor(np.ones((2, 5))))

    def test_zero_weight_model_constant_logits(self):
        p = build_mlp([3, 4, 2], seed=0)
        for t in p.weights.values():
            t.data = np.zeros_like(t.data)
        out = forward_logits(p, Tensor(np.random.default_rng(1).random((6, 3)))).data
        assert np.all(out == 0.0)

    def test_agrees_with_straight_line_reimplementation(self):
        p = build_mlp([2, 2, 2], seed=7)
        x = np.random.default_rng(2).random((5, 2))
        ours = forward_logits(p, Tensor(x)).data
        w0, b0 = p.weights["w0"].data, p.weights["b0"].data
        w1, b1 = p.weights["w1"].data, p.weights["b1"].data
        theirs = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
        assert np.max(np.abs(ours - theirs)) <= 1e-12

    def test_mlp_flattens_image_batches(self):
        p = build_mlp([784, 8, 2], seed=0)
        x = np.random.default_rng(3).random((3, 1, 28, 28))
        assert forward_logits(p, Tensor(x)).shape == (3, 2)


S = models._FORWARD_SPAN

# (in_shape, channels, fc_widths): MNIST-sized, an odd shape whose pool
# windows crop a row and a column, and three conv blocks
_STREAMED_CNNS = {
    "mnist": ((1, 28, 28), [4, 6], [8, 2]),
    "odd": ((2, 15, 13), [3], [5, 2]),
    "three_blocks": ((1, 20, 20), [3, 4, 5], [6, 3]),
}


def _streamed_case(name: str, n: int):
    in_shape, channels, fc_widths = _STREAMED_CNNS[name]
    p = build_small_cnn(channels, fc_widths, seed=11, in_shape=in_shape)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, *in_shape))
    y = np.eye(fc_widths[-1])[rng.integers(0, fc_widths[-1], n)]
    return p, x, y


def _taped(fn, p, *args):
    """``fn`` under a tape that tracks the weights: the whole-batch path."""
    with Tape(list(p.weights.values())):
        return fn(p, *args)


class TestStreamedForward:
    """An untaped CNN forward of more than S samples streams the conv stack
    in spans of S; its results equal the whole-batch path's bit for bit."""

    @pytest.mark.parametrize("n", [1, S - 1, S, S + 1, 2 * S + 3, 501])
    @pytest.mark.parametrize("name", list(_STREAMED_CNNS))
    def test_equals_the_whole_batch_path_bitwise(self, name, n):
        p, x, y = _streamed_case(name, n)
        batch = Batch(x, y)
        logits = forward_logits(p, Tensor(x)).data
        assert logits.tobytes() == _taped(forward_logits, p, Tensor(x)).data.tobytes()
        assert np.array_equal(predict(p, x), _taped(predict, p, x))
        assert accuracy(p, x, y) == _taped(accuracy, p, x, y)
        assert per_sample_losses(p, batch).tobytes() == \
            _taped(per_sample_losses, p, batch).tobytes()
        assert batch_loss(p, batch) == _taped(batch_loss, p, batch)

    @pytest.mark.parametrize("taped", [None, "weights", "inputs"])
    @pytest.mark.parametrize("n", [1, S - 1, S, S + 1, 2 * S + 3, 501])
    def test_conv_block_calls_per_block(self, monkeypatch, n, taped):
        p, x, _ = _streamed_case("three_blocks", n)
        x = Tensor(x)
        sizes = {f"conv{i}": [] for i in range(3)}
        name_of = {id(p.weights[k]): k for k in sizes}
        real = tc.conv_block

        def counted(h, kernels, bias, pool):
            sizes[name_of[id(kernels)]].append(h.shape[0])
            return real(h, kernels, bias, pool)

        monkeypatch.setattr(tc, "conv_block", counted)
        if taped is None:
            forward_logits(p, x)
        else:
            with Tape(list(p.weights.values()) if taped == "weights" else [x]):
                forward_logits(p, x)
        if taped is None and n > S:
            spans = [S] * (n // S) + ([n % S] if n % S else [])
            assert len(spans) == math.ceil(n / S)
        else:
            spans = [n]
        assert sizes == {k: spans for k in sizes}

    # One input channel, 0.0 but for -1.0 and 0.5 in the first two cells of
    # a row; a kernel whose centre tap alone is 1.7e308, and a bias of
    # -1.7e308. The -1.0 cell's pre-activation overflows to -inf, while the
    # 0.5 cell's is finite and wins their pool window, so only a check
    # before the pool sees the overflow.
    @staticmethod
    def _overflow_case(bad: int, first: float):
        p = build_small_cnn([1], [2], seed=0, in_shape=(1, 6, 6))
        p.weights["conv0"].data[...] = 0.0
        p.weights["conv0"].data[0, 0, 1, 1] = 1.7e308
        p.weights["cb0"].data[...] = -1.7e308
        x = np.zeros((2 * S + 3, 1, 6, 6))
        x[bad, 0, 2, :2] = [first, 0.5]
        return p, x

    @pytest.mark.parametrize("bad", [S, 2 * S + 2], ids=["second_span", "ragged_last_span"])
    @pytest.mark.parametrize("taped", [False, True])
    def test_overflow_in_a_later_span_names_conv_block(self, bad, taped):
        p, x = self._overflow_case(bad, -1.0)
        with pytest.raises(NonFiniteError, match="^conv_block produced non-finite values$"), \
                np.errstate(over="ignore", invalid="ignore"):
            if taped:
                _taped(predict, p, x)
            else:
                predict(p, x)

    def test_overflow_control_stays_finite(self):
        p, x = self._overflow_case(S, 0.0)  # no cell overflows
        assert predict(p, x).shape == (2 * S + 3,)


class TestLossAndGrads:
    def test_huge_margin_gives_zero_loss_and_grads(self):
        p = build_mlp([2, 2], seed=0)
        p.weights["w0"].data = np.array([[1e4, -1e4], [0.0, 0.0]])
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, wg, xg = loss_and_grads(p, Batch(x, y), wrt="both")
        assert loss <= 1e-12
        assert all(np.max(np.abs(g)) <= 1e-12 for g in wg.values())
        assert np.max(np.abs(xg)) <= 1e-12

    def test_weight_grads_match_finite_differences(self):
        rng = np.random.default_rng(4)
        p = build_mlp([3, 8, 4, 2], seed=1)
        batch = Batch(rng.random((6, 3)), np.eye(2)[rng.integers(0, 2, 6)])
        _fd_weight_check(p, batch, p.names)

    def test_cnn_weight_grads_match_finite_differences(self):
        rng = np.random.default_rng(5)
        p = build_small_cnn([2], [8, 3], seed=1, in_shape=(1, 8, 8))
        batch = Batch(rng.random((3, 1, 8, 8)), np.eye(3)[rng.integers(0, 3, 3)])
        _fd_weight_check(p, batch, ["conv0", "cb0", "fc0", "fb1"])

    def test_input_grads_are_per_sample_own_loss(self):
        rng = np.random.default_rng(6)
        p = build_mlp([3, 8, 2], seed=2)
        x = rng.random((4, 3))
        y = np.eye(2)[rng.integers(0, 2, 4)]
        _, _, xg = loss_and_grads(p, Batch(x, y), wrt="inputs")
        # row i == gradient of sample i's own loss
        for i in range(4):
            row = Batch(x[i:i + 1], y[i:i + 1])

            def f(arr, row=row):
                return batch_loss(p, Batch(arr, row.labels))

            fd = finite_difference_grad(f, x[i:i + 1].copy())
            assert relative_error(xg[i:i + 1], fd) <= 1e-4

    def test_both_returns_same_loss_as_weights(self):
        rng = np.random.default_rng(7)
        p = build_mlp([3, 5, 2], seed=3)
        batch = Batch(rng.random((5, 3)), np.eye(2)[rng.integers(0, 2, 5)])
        loss_w, _, _ = loss_and_grads(p, batch, wrt="weights")
        loss_b, _, _ = loss_and_grads(p, batch, wrt="both")
        assert loss_w == loss_b

    def test_taped_cnn_pass_peak_memory(self):
        # the benchmark's ATENT CNN at batch 32: conv_block takes each
        # direction's scratch from one arena, the pull's spans half the
        # forward's, and keeps its pool winners in uint8, so a wrt="both"
        # pass peaks at 5.5 MB traced; with the pull's spans as long as the
        # forward's it peaks at 6.6 MB, and with np.intp winners at 7.5 MB
        rng = np.random.default_rng(8)
        p = build_small_cnn([8, 16], [32, 2], seed=0)
        batch = Batch(rng.random((32, 1, 28, 28)), np.eye(2)[rng.integers(0, 2, 32)])
        loss_and_grads(p, batch, wrt="both")
        tracemalloc.start()
        try:
            loss_and_grads(p, batch, wrt="both")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0e6, f"loss_and_grads peaked at {peak / 1e6:.2f} MB"


class TestPredictAccuracy:
    def _perfect_setup(self):
        p = build_mlp([2, 2], seed=0)
        p.weights["w0"].data = np.array([[10.0, -10.0], [-10.0, 10.0]])
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.eye(2)[[0, 1, 0]]
        return p, x, y

    def test_all_correct_and_all_wrong(self):
        p, x, y = self._perfect_setup()
        assert accuracy(p, x, y) == 1.0
        assert accuracy(p, x, 1.0 - y) == 0.0

    def test_tie_breaks_to_lowest_class(self):
        p = build_mlp([2, 2], seed=0)
        for t in p.weights.values():
            t.data = np.zeros_like(t.data)
        assert predict(p, np.ones((3, 2))).tolist() == [0, 0, 0]

    def test_matches_hand_count(self):
        rng = np.random.default_rng(8)
        p = build_mlp([2, 6, 2], seed=4)
        x = rng.random((10, 2))
        y = np.eye(2)[rng.integers(0, 2, 10)]
        logits = forward_logits(p, Tensor(x)).data
        hand = sum(int(np.argmax(logits[i]) == np.argmax(y[i])) for i in range(10)) / 10
        assert accuracy(p, x, y) == hand

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_accuracy_complement_property(self, seed):
        rng = np.random.default_rng(seed)
        p = build_mlp([3, 5, 2], seed=seed % 1000)
        x = rng.random((8, 3))
        logits = forward_logits(p, Tensor(x)).data
        if np.any(logits[:, 0] == logits[:, 1]):
            return  # ties excluded by the property
        y = np.eye(2)[rng.integers(0, 2, 8)]
        assert accuracy(p, x, y) + accuracy(p, x, 1.0 - y) == 1.0


class TestPerSampleLosses:
    def test_mean_matches_batch_loss(self):
        rng = np.random.default_rng(9)
        p = build_mlp([3, 4, 2], seed=5)
        batch = Batch(rng.random((7, 3)), np.eye(2)[rng.integers(0, 2, 7)])
        ps = per_sample_losses(p, batch)
        assert ps.shape == (7,)
        assert abs(ps.mean() - batch_loss(p, batch)) <= 1e-12
