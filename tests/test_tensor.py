"""Tensor core: primitive ops, tape semantics, gradient correctness."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atent import tensor as tc
from atent.models import Batch, batch_loss, build_small_cnn, loss_and_grads
from atent.oracle import conv_block_forward, finite_difference_grad, relative_error
from atent.tensor import NonFiniteError, Tape, TapeError, Tensor, TensorError


def grad_of(build, leaves):
    """Run build() under a tape, backward from its scalar output, and
    return the gradient arrays for the given leaf tensors."""
    with Tape(leaves) as tape:
        out = build()
    grads = tc.backward(tape, out)
    return [grads[t].data if t in grads else np.zeros(t.shape) for t in leaves]


class TestTensorBasics:
    def test_shape_and_flat_length_agree(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6

    def test_non_finite_construction_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.random((7, 5)))
        b = Tensor(rng.random((5, 4)))
        first = tc.matmul(a, b).data
        second = tc.matmul(a, b).data
        assert np.array_equal(first, second)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(tc.matmul(eye, a).data, a.data)

    def test_hand_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert np.array_equal(tc.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(TensorError):
            tc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_is_column_sums_of_b(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.random((3, 4)))
        b = Tensor(rng.random((4, 5)))
        (ga,) = grad_of(lambda: tc.sum_all(tc.matmul(a, b)), [a])
        expected = np.tile(b.data.sum(axis=1), (3, 1))
        assert relative_error(ga, expected) <= 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a0 = rng.random((3, 4))
        b = Tensor(rng.random((4, 5)))
        a = Tensor(a0)
        (ga,) = grad_of(lambda: tc.sum_all(tc.matmul(a, b)), [a])

        def f(arr):
            return float((arr @ b.data).sum())

        fd = finite_difference_grad(f, a0.copy())
        assert relative_error(ga, fd) <= 1e-6  # affine: central diff is exact-ish

    def test_pull_skips_untracked_operand(self):
        rng = np.random.default_rng(2)
        a0, b0 = rng.random((3, 4)), rng.random((4, 5))
        g = np.ones((3, 5))
        b = Tensor(b0)
        with Tape([b]) as tape:
            tc.matmul(Tensor(a0), b)
        da, db = tape.records[-1].pull(g)
        assert da is None and np.array_equal(db, a0.T @ g)
        a = Tensor(a0)
        with Tape([a]) as tape:
            tc.matmul(a, Tensor(b0))
        da, db = tape.records[-1].pull(g)
        assert np.array_equal(da, g @ b0.T) and db is None


class TestConv2d:
    def test_one_by_one_unit_kernel_is_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.random((1, 4, 4)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(tc.conv2d(x, k).data, x.data)

    def test_zero_kernel_gives_zero(self):
        x = Tensor(np.random.default_rng(3).random((2, 3, 5, 5)))
        k = Tensor(np.zeros((4, 3, 2, 2)))
        assert np.all(tc.conv2d(x, k).data == 0.0)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.random((1, 4, 4))
        k = rng.random((1, 1, 2, 2))
        out = tc.conv2d(Tensor(x), Tensor(k), stride=1, padding=0).data

        brute = np.zeros((1, 3, 3))
        for oy in range(3):
            for ox in range(3):
                brute[0, oy, ox] = (x[0, oy:oy + 2, ox:ox + 2] * k[0, 0]).sum()
        assert relative_error(out, brute) <= 1e-12

    def test_stride_and_padding_against_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.random((2, 2, 5, 5))
        k = rng.random((3, 2, 3, 3))
        out = tc.conv2d(Tensor(x), Tensor(k), stride=2, padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        brute = np.zeros((2, 3, 3, 3))
        for n in range(2):
            for co in range(3):
                for oy in range(3):
                    for ox in range(3):
                        patch = xp[n, :, 2 * oy:2 * oy + 3, 2 * ox:2 * ox + 3]
                        brute[n, co, oy, ox] = (patch * k[co]).sum()
        assert relative_error(out, brute) <= 1e-12

    def test_degenerate_output_rejected(self):
        with pytest.raises(TensorError):
            tc.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))

    def test_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        x0 = rng.random((1, 2, 4, 4))
        k0 = rng.random((2, 2, 2, 2))
        x = Tensor(x0)
        k = Tensor(k0)
        gx, gk = grad_of(lambda: tc.sum_all(tc.conv2d(x, k, stride=1, padding=1)), [x, k])

        def fx(arr):
            return float(tc.conv2d(Tensor(arr), Tensor(k0), 1, 1).data.sum())

        def fk(arr):
            return float(tc.conv2d(Tensor(x0), Tensor(arr), 1, 1).data.sum())

        assert relative_error(gx, finite_difference_grad(fx, x0.copy())) <= 1e-6
        assert relative_error(gk, finite_difference_grad(fk, k0.copy())) <= 1e-6

    def test_strided_padded_batched_grads_match_finite_differences(self):
        # cross-entropy over the flattened output makes the pulled gradient
        # differ at every output position, so a misplaced tap shows
        rng = np.random.default_rng(7)
        x0 = rng.random((3, 2, 5, 5))
        k0 = rng.random((4, 2, 3, 3)) - 0.5
        y = Tensor(np.eye(36)[rng.integers(0, 36, 3)])

        def loss(x, k):
            return tc.softmax_cross_entropy(tc.reshape(tc.conv2d(x, k, 2, 1), (3, 36)), y)

        x = Tensor(x0)
        k = Tensor(k0)
        gx, gk = grad_of(lambda: loss(x, k), [x, k])
        fd_x = finite_difference_grad(lambda arr: loss(Tensor(arr), Tensor(k0)).item(), x0.copy())
        fd_k = finite_difference_grad(lambda arr: loss(Tensor(x0), Tensor(arr)).item(), k0.copy())
        assert relative_error(gx, fd_x) <= 1e-6
        assert relative_error(gk, fd_k) <= 1e-6

    def test_taped_forward_equals_untaped_bitwise(self):
        # a tape that tracks the kernels keeps the columns for dk; the
        # forward values must not depend on it
        rng = np.random.default_rng(8)
        x = Tensor(rng.random((64, 3, 6, 6)))
        k = Tensor(rng.random((2, 3, 3, 3)))
        plain = tc.conv2d(x, k, 2, 1).data
        with Tape([k]):
            taped = tc.conv2d(x, k, 2, 1).data
        assert np.array_equal(plain, taped)

    def test_pull_skips_untracked_operand(self):
        rng = np.random.default_rng(9)
        x0 = rng.random((2, 2, 4, 4))
        k0 = rng.random((3, 2, 3, 3))
        g = np.ones((2, 3, 4, 4))
        k = Tensor(k0)
        with Tape([k]) as tape:
            tc.conv2d(Tensor(x0), k, 1, 1)
        dx, dk = tape.records[-1].pull(g)
        assert dx is None and dk.shape == k0.shape
        x = Tensor(x0)
        with Tape([x]) as tape:
            tc.conv2d(x, Tensor(k0), 1, 1)
        dx, dk = tape.records[-1].pull(g)
        assert dx.shape == x0.shape and dk is None

    def test_weight_grads_with_untracked_first_input_match_fd(self):
        # wrt="weights": the first conv's input is untracked, the second's is
        rng = np.random.default_rng(10)
        p = build_small_cnn([2, 3], [4, 2], seed=4, in_shape=(1, 8, 8))
        batch = Batch(rng.random((3, 1, 8, 8)), np.eye(2)[rng.integers(0, 2, 3)])
        _, wg, _ = loss_and_grads(p, batch, wrt="weights")
        for name in ("conv0", "conv1"):
            t = p.weights[name]

            def f(arr, t=t):
                old = t.data
                t.data = arr
                try:
                    return batch_loss(p, batch)
                finally:
                    t.data = old

            assert relative_error(wg[name], finite_difference_grad(f, t.data.copy())) <= 1e-4


_SAME_PLANES = [(28, 28), (14, 14), (7, 9), (11, 6), (2, 2)]


class TestSameUnfoldFold:
    """conv_block's shifted-run unfold and fold against conv2d's padded
    helpers, byte for byte; 2x2 planes are smaller than a 5x5 kernel's reach.
    The buffers they write into start as NaN, so every element must be
    written."""

    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("h,w", _SAME_PLANES)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_unfold_equals_padded_im2col(self, k, h, w, cin):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(2, cin, h, w))
        x[rng.random(x.shape) < 0.2] = -0.0
        got = np.full((2, cin * k * k, h * w), np.nan)
        tc._unfold_same(x, k, k, got)
        ref = tc._im2col(tc._pad(x, k // 2), k, k, 1, h, w)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("h,w", _SAME_PLANES)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_fold_equals_col2im(self, k, h, w, cin):
        # half the column gradients are small integers, so some sums cancel
        # to exactly 0; about half of the zeros are -0.0
        rng = np.random.default_rng(41)
        shape = (2, cin * k * k, h * w)
        dcols = np.where(rng.random(shape) < 0.5, rng.integers(-2, 3, size=shape),
                         rng.normal(size=shape))
        dcols[(dcols == 0.0) & (rng.random(shape) < 0.5)] = -0.0
        dcols[:, 0, 0] = -0.0
        p = k // 2
        ref = tc._col2im(dcols.copy(), (2, cin, h + 2 * p, w + 2 * p), k, k, 1, p, h, w)
        got = np.full((2, cin, h, w), np.nan)
        tc._fold_same(dcols.copy(), k, k, got)
        assert got.shape == ref.shape
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def _unfused_block(x, k, b, pool=2):
    """The reference composition conv_block replaces."""
    return tc.relu(tc.max_pool2d(tc.add(tc.conv2d(x, k, 1, k.shape[2] // 2), b), pool))


def _block_values_and_grads(block, x0, k0, b0, labels, wrt):
    """Output and pulled gradients of ``block`` under a cross-entropy head,
    with the input and/or the kernels and bias tracked."""
    x, k, b = Tensor(x0), Tensor(k0), Tensor(b0)
    leaves = {"inputs": [x], "weights": [k, b], "both": [x, k, b]}[wrt]
    with Tape(leaves) as tape:
        out = block(x, k, b)
        loss = tc.softmax_cross_entropy(tc.reshape(out, (out.shape[0], out.size // out.shape[0])),
                                        labels)
    grads = tc.backward(tape, loss)
    return out.data, [grads[t].data if t in grads else None for t in (x, k, b)]


class TestConvBlock:
    @pytest.mark.parametrize("wrt", ["inputs", "weights", "both"])
    @pytest.mark.parametrize("shape,seed", [((3, 2, 7, 7), 20), ((4, 3, 8, 8), 21)])
    def test_matches_unfused_ops_bitwise(self, shape, seed, wrt):
        # small integers give tied window maxima and pre-activations of
        # exactly 0; a 7x7 input drops the last row and column at the pool
        rng = np.random.default_rng(seed)
        n, cin, h, w = shape
        x0 = rng.integers(-2, 3, size=shape).astype(float)
        k0 = rng.integers(-1, 2, size=(4, cin, 3, 3)).astype(float)
        b0 = rng.integers(-1, 2, size=4).astype(float)
        labels = Tensor(np.eye(4 * (h // 2) * (w // 2))[rng.integers(0, 4, n)])
        out, (dx, dk, db) = _block_values_and_grads(
            lambda x, k, b: tc.conv_block(x, k, b, 2), x0, k0, b0, labels, wrt)
        ref_out, (rdx, rdk, rdb) = _block_values_and_grads(_unfused_block, x0, k0, b0, labels, wrt)
        assert np.array_equal(out, ref_out)
        assert np.sum(out == 0.0) > 0 and np.sum(out > 0.0) > 0
        if wrt == "weights":
            assert dx is None and rdx is None
        else:
            assert np.array_equal(dx, rdx)
        if wrt == "inputs":
            assert dk is None and db is None
        else:
            assert np.array_equal(dk, rdk)
            assert np.max(np.abs(db - rdb)) <= 1e-15

    def test_five_by_five_kernel_matches_unfused_ops_bitwise(self):
        # a 9x7 plane: the kernel reaches two columns past either edge
        rng = np.random.default_rng(24)
        x0 = rng.integers(-2, 3, size=(3, 2, 9, 7)).astype(float)
        k0 = rng.integers(-1, 2, size=(4, 2, 5, 5)).astype(float)
        b0 = rng.integers(-1, 2, size=4).astype(float)
        labels = Tensor(np.eye(4 * 4 * 3)[rng.integers(0, 48, 3)])
        out, (dx, dk, _) = _block_values_and_grads(
            lambda x, k, b: tc.conv_block(x, k, b, 2), x0, k0, b0, labels, "both")
        ref_out, (rdx, rdk, _) = _block_values_and_grads(
            _unfused_block, x0, k0, b0, labels, "both")
        assert np.array_equal(out, ref_out) and np.array_equal(dx, rdx)
        assert np.array_equal(dk, rdk)

    # (n, cin, h, w), kernel size, pool; None takes three sample blocks and a
    # part of a fourth
    @pytest.mark.parametrize("shape,k,pool", [
        ((3, 2, 9, 7), 5, 2),
        ((2, 3, 11, 5), 3, 3),
        ((4, 1, 7, 9), 5, 3),
        ((None, 2, 9, 7), 5, 2),
    ], ids=["9x7-k5-pool2", "11x5-k3-pool3", "7x9-k5-pool3", "9x7-k5-pool2-blocks"])
    def test_values_match_direct_loop_oracle(self, shape, k, pool):
        # small-integer kernels, and a first sample of small integers, which
        # gives tied window maxima at kernel 5. The other samples are normal
        # draws, whose sums the two compute in different orders, so values
        # agree to 1e-12 of max(|value|, 1)
        n, cin, h, w = shape
        if n is None:
            n = 3 * (tc._BLOCK_COLS // (cin * k * k * h * w)) + 5
        rng = np.random.default_rng(25)
        x0 = rng.normal(size=(n, cin, h, w))
        x0[0] = rng.integers(-2, 3, size=(cin, h, w))
        k0 = rng.integers(-1, 2, size=(4, cin, k, k)).astype(float)
        b0 = rng.normal(size=4)
        got = tc.conv_block(Tensor(x0), Tensor(k0), Tensor(b0), pool).data
        ref = conv_block_forward(x0, k0, b0, pool)
        assert got.shape == ref.shape == (n, 4, h // pool, w // pool)
        assert relative_error(got, ref, floor=1.0) <= 1e-12
        assert np.sum(ref == 0.0) > 0 and np.sum(ref > 0.0) > 0

    def test_pull_returns_none_for_untracked_operands(self):
        rng = np.random.default_rng(22)
        x0, k0, b0 = rng.random((2, 1, 4, 4)), rng.random((2, 1, 3, 3)), rng.random(2)
        g = np.ones((2, 2, 2, 2))
        b = Tensor(b0)
        with Tape([b]) as tape:
            tc.conv_block(Tensor(x0), Tensor(k0), b)
        dx, dk, db = tape.records[-1].pull(g)
        assert dx is None and dk is None and db.shape == (2,)
        x = Tensor(x0)
        with Tape([x]) as tape:
            tc.conv_block(x, Tensor(k0), Tensor(b0))
        dx, dk, db = tape.records[-1].pull(g)
        assert dx.shape == x0.shape and dk is None and db is None

    # at 11x11 and pool 3 every block has cells outside every window, whose
    # gradient must stay 0 while the block buffer is reused
    @pytest.mark.parametrize("size,pool", [(10, 2), (11, 3)])
    def test_batch_over_three_blocks_taped_equals_untaped_and_unfused(self, size, pool):
        cin, h, w = 2, size, size
        block = tc._BLOCK_COLS // (cin * 9 * h * w)
        # three whole blocks and a partial one; the pull's spans are half
        # as long, so it works through six and a partial one
        n = 3 * block + 5
        rng = np.random.default_rng(23)
        x0 = rng.random((n, cin, h, w))
        k0 = rng.normal(size=(3, cin, 3, 3))
        b0 = rng.normal(size=3)
        plain = tc.conv_block(Tensor(x0), Tensor(k0), Tensor(b0), pool).data
        classes = 3 * (h // pool) * (w // pool)
        labels = Tensor(np.eye(classes)[rng.integers(0, classes, n)])
        taped, grads = _block_values_and_grads(
            lambda x, k, b: tc.conv_block(x, k, b, pool), x0, k0, b0, labels, "both")
        ref, ref_grads = _block_values_and_grads(
            lambda x, k, b: _unfused_block(x, k, b, pool), x0, k0, b0, labels, "both")
        assert np.array_equal(plain, taped) and np.array_equal(taped, ref)
        assert np.array_equal(grads[0], ref_grads[0]) and np.array_equal(grads[1], ref_grads[1])
        assert np.max(np.abs(grads[2] - ref_grads[2])) <= 1e-15

    # with a 1x1 identity kernel, zero bias and positive inputs the block is
    # its max pool, and its pull routes the pooled gradient to each window's
    # first maximum; the bitwise tests above cannot see the winner, because
    # the unfused ops share conv_block's pooling loop
    @staticmethod
    def _pool_pull(x0, pool, g):
        c = x0.shape[1]
        x = Tensor(x0)
        with Tape([x]) as tape:
            out = tc.conv_block(x, Tensor(np.eye(c).reshape(c, c, 1, 1)), Tensor(np.zeros(c)),
                                pool)
        dx, _, _ = tape.records[-1].pull(g)
        return out.data, dx

    def test_tie_routes_to_first(self):
        out, dx = self._pool_pull(np.ones((1, 1, 2, 2)), 2, np.ones((1, 1, 1, 1)))
        assert np.array_equal(out, np.ones((1, 1, 1, 1)))
        assert np.array_equal(dx, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_cropped_windows_with_ties_match_reshape_argmax_oracle(self):
        rng = np.random.default_rng(11)
        x0 = rng.integers(1, 4, size=(2, 3, 7, 7)).astype(float)  # many ties
        g = rng.normal(size=(2, 3, 2, 2))
        out, dx = self._pool_pull(x0, 3, g)
        want_out, want_dx = _max_pool_oracle(x0, 3, g)
        assert np.array_equal(out, want_out)
        assert np.array_equal(dx, want_dx)
        assert np.all(dx[:, :, 6, :] == 0.0) and np.all(dx[:, :, :, 6] == 0.0)

    # windows of 144 and 256 cells: the winner's uint8 index runs past 127,
    # and many windows' first maximum lies there
    @pytest.mark.parametrize("pool", [12, 16])
    def test_large_pool_routes_to_first_maximum(self, pool):
        rng = np.random.default_rng(pool)
        x0 = rng.integers(1, 200, size=(2, 2, 2 * pool + 1, 2 * pool + 1)).astype(float)
        g = rng.normal(size=(2, 2, 2, 2))
        out, dx = self._pool_pull(x0, pool, g)
        want_out, want_dx = _max_pool_oracle(x0, pool, g)
        assert np.array_equal(out, want_out) and np.array_equal(dx, want_dx)
        windows = x0[:, :, :2 * pool, :2 * pool].reshape(2, 2, 2, pool, 2, pool)
        first = windows.transpose(0, 1, 2, 4, 3, 5).reshape(2, 2, 2, 2, -1).argmax(axis=-1)
        assert (first > 127).sum() >= 2

    def test_non_finite_pre_activation_raises(self):
        # the pre-activation is -inf everywhere; pooling and ReLU alone
        # would turn it into finite zeros
        x = Tensor(np.ones((1, 1, 4, 4)))
        k = Tensor(np.full((1, 1, 3, 3), -1e308))
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            tc.conv_block(x, k, Tensor(np.zeros(1)))

    def test_mismatched_operands_rejected(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        with pytest.raises(TensorError):
            tc.conv_block(x, Tensor(np.ones((3, 1, 3, 3))), Tensor(np.zeros(3)))
        with pytest.raises(TensorError):
            tc.conv_block(x, Tensor(np.ones((3, 2, 3, 3))), Tensor(np.zeros(2)))
        for kh, kw in ((4, 4), (2, 2), (3, 5), (5, 3)):
            with pytest.raises(TensorError, match="odd square kernel"):
                tc.conv_block(x, Tensor(np.ones((3, 2, kh, kw))), Tensor(np.zeros(3)))


def _unfused_dense(x, w, b, relu):
    """The reference composition dense replaces."""
    z = tc.add(tc.matmul(x, w), b)
    return tc.relu(z) if relu else z


# (n, k, m): the MLP's hidden layer (784-64-2 at batch 32), then the CNN
# head's two layers (16 channels of 7x7 into 32, then 2)
_DENSE_SHAPES = [(32, 784, 64), (32, 784, 32), (32, 32, 2)]
_SUBSETS = [s for r in (1, 2, 3) for s in itertools.combinations(range(3), r)]


class TestDense:
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("n,k,m", _DENSE_SHAPES)
    def test_equals_unfused_ops_bytewise(self, n, k, m, relu):
        # a zero row and two zero biases give pre-activations of exactly 0
        rng = np.random.default_rng(k + m)
        x0 = rng.normal(size=(n, k))
        x0[0] = 0.0
        w0 = rng.normal(size=(k, m)) / np.sqrt(k)
        b0 = rng.normal(size=m)
        b0[:2] = 0.0
        labels = Tensor(np.eye(m)[rng.integers(0, m, n)])
        for subset in _SUBSETS:
            outs, grads = [], []
            for layer in (tc.dense, _unfused_dense):
                ops = [Tensor(x0), Tensor(w0), Tensor(b0)]
                leaves = [ops[i] for i in subset]
                with Tape(leaves) as tape:
                    out = layer(*ops, relu)
                    loss = tc.softmax_cross_entropy(out, labels)
                if layer is tc.dense:
                    pulled = tape.records[0].pull(np.ones((n, m)))
                    assert [i for i, g in enumerate(pulled) if g is not None] == list(subset)
                got = tc.backward(tape, loss)
                outs.append(out.data.tobytes())
                grads.append([got[t].data.tobytes() for t in leaves])
            assert outs[0] == outs[1]
            assert grads[0] == grads[1]

    @pytest.mark.parametrize("x0,w0,b0,relu", [
        ([[1e200]], [[1e200]], [0.0], False),   # +inf product
        ([[1e200]], [[-1e200]], [0.0], True),   # -inf, which ReLU would zero
        ([[np.nan]], [[1.0]], [0.0], True),     # NaN, which ReLU would zero
        ([[1.0]], [[1e308]], [1e308], True),    # the bias add overflows
    ], ids=["inf", "minus-inf-under-relu", "nan-under-relu", "bias-add"])
    def test_non_finite_pre_activation_names_dense(self, x0, w0, b0, relu):
        # whether a product of finite values sums inf and -inf to NaN depends
        # on how BLAS fuses its multiply-adds, so the NaN is planted in the
        # input's data, past the Tensor constructor's check
        x = Tensor(np.zeros((1, len(x0[0]))))
        x.data = np.array(x0)
        with pytest.raises(NonFiniteError, match="^dense "), \
                np.errstate(over="ignore", invalid="ignore"):
            tc.dense(x, Tensor(w0), Tensor(b0), relu)

    def test_mismatched_operands_rejected(self):
        x = Tensor(np.ones((2, 3)))
        for w, b in (((4, 5), (5,)), ((3, 5), (4,)), ((3, 5), (1, 5))):
            with pytest.raises(TensorError, match="dense operands disagree"):
                tc.dense(x, Tensor(np.ones(w)), Tensor(np.ones(b)))


# one overflow per op that checks its output; each op's message names it
_OVERFLOWS = {
    "matmul": lambda: tc.matmul(Tensor([[1e200]]), Tensor([[1e200]])),
    "add": lambda: tc.add(Tensor([1e308]), Tensor([1e308])),
    "sum_all": lambda: tc.sum_all(Tensor([1e308, 1e308])),
    "conv2d": lambda: tc.conv2d(Tensor(np.full((1, 1, 2, 2), 1e200)),
                                Tensor(np.full((1, 1, 1, 1), 1e200))),
    "dense": lambda: tc.dense(Tensor([[1e200]]), Tensor([[-1e200]]), Tensor([0.0]), True),
    # -inf before the pool and ReLU, which would turn it into finite zeros
    "conv_block": lambda: tc.conv_block(Tensor(np.ones((1, 1, 4, 4))),
                                        Tensor(np.full((1, 1, 3, 3), -1e308)),
                                        Tensor(np.zeros(1))),
    "softmax_cross_entropy": lambda: tc.softmax_cross_entropy(
        Tensor([[1e308, -1e308]]), Tensor([[0.0, 1.0]])),
}


@pytest.mark.parametrize("op", list(_OVERFLOWS))
def test_overflow_raises_naming_the_op(op):
    with pytest.raises(NonFiniteError, match=f"^{op} produced non-finite values$"), \
            np.errstate(over="ignore", invalid="ignore"):
        _OVERFLOWS[op]()


class TestRelu:
    def test_values(self):
        out = tc.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_grad_mask_and_zero_convention(self):
        x = Tensor([-1.0, 0.0, 2.0])
        (gx,) = grad_of(lambda: tc.sum_all(tc.relu(x)), [x])
        assert np.array_equal(gx, [0.0, 0.0, 1.0])

    def test_grad_matches_fd_away_from_zero(self):
        rng = np.random.default_rng(7)
        x0 = rng.random(20) + 1e-2  # keep |x| > 1e-2
        x0 *= rng.choice([-1.0, 1.0], size=20)
        x = Tensor(x0)
        (gx,) = grad_of(lambda: tc.sum_all(tc.relu(x)), [x])
        fd = finite_difference_grad(lambda a: float(np.maximum(a, 0).sum()), x0.copy())
        assert np.max(np.abs(gx - fd)) <= 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_m(self):
        logits = Tensor(np.zeros((5, 10)))
        labels = Tensor(np.eye(10)[np.arange(5)])
        loss = tc.softmax_cross_entropy(logits, labels)
        assert abs(loss.item() - math.log(10)) <= 1e-12

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.zeros((3, 4))
        logits[:, 1] = 1e4
        labels = np.zeros((3, 4))
        labels[:, 1] = 1.0
        loss = tc.softmax_cross_entropy(Tensor(logits), Tensor(labels))
        assert loss.item() <= 1e-12

    def test_matches_straight_line_formula(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(3, 4)) * 3
        y = np.eye(4)[rng.integers(0, 4, 3)]
        loss = tc.softmax_cross_entropy(Tensor(z), Tensor(y)).item()
        # independent direct evaluation
        direct = 0.0
        for i in range(3):
            p = np.exp(z[i]) / np.exp(z[i]).sum()
            direct += -float(np.log(p[y[i].argmax()]))
        direct /= 3
        assert abs(loss - direct) <= 1e-10

    def test_rejects_labels_of_another_shape(self):
        # one-hot values are checked where a Batch or Dataset is built
        z = Tensor(np.zeros((2, 3)))
        with pytest.raises(TensorError, match="do not match"):
            tc.softmax_cross_entropy(z, Tensor(np.eye(3)[[0, 1, 2]]))
        with pytest.raises(TensorError, match="do not match"):
            tc.softmax_cross_entropy(z, Tensor(np.eye(2)))

    def test_gradient_is_softmax_minus_labels_over_n(self):
        rng = np.random.default_rng(9)
        z0 = rng.normal(size=(4, 3))
        y = np.eye(3)[rng.integers(0, 3, 4)]
        z = Tensor(z0)
        (gz,) = grad_of(lambda: tc.softmax_cross_entropy(z, Tensor(y)), [z])
        p = np.exp(z0 - z0.max(1, keepdims=True))
        p /= p.sum(1, keepdims=True)
        assert relative_error(gz, (p - y) / 4) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-50, 50))
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(3, 5)) * 5
        y = np.eye(5)[rng.integers(0, 5, 3)]
        base = tc.softmax_cross_entropy(Tensor(z), Tensor(y)).item()
        shifted = tc.softmax_cross_entropy(Tensor(z + shift), Tensor(y)).item()
        assert abs(base - shifted) <= 1e-12


class TestMaxPool:
    def test_values_and_grad_routing(self):
        x0 = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        x = Tensor(x0)
        with Tape([x]) as tape:
            out = tc.max_pool2d(x, 2)
            s = tc.sum_all(out)
        assert out.data.reshape(()) == 4.0
        g = tc.backward(tape, s)[x].data
        assert np.array_equal(g, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_tie_routes_to_first(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        (gx,) = grad_of(lambda: tc.sum_all(tc.max_pool2d(x, 2)), [x])
        assert np.array_equal(gx, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_cropped_windows_with_ties_match_reshape_argmax_oracle(self):
        rng = np.random.default_rng(11)
        x0 = rng.integers(0, 3, size=(2, 3, 7, 7)).astype(float)  # many ties
        g = rng.normal(size=(2, 3, 2, 2))
        x = Tensor(x0)
        with Tape([x]) as tape:
            out = tc.max_pool2d(x, 3)
        (dx,) = tape.records[-1].pull(g)
        want_out, want_dx = _max_pool_oracle(x0, 3, g)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(dx, want_dx)
        assert np.all(dx[:, :, 6, :] == 0.0) and np.all(dx[:, :, :, 6] == 0.0)


def _max_pool_oracle(x, size, g):
    """Windows regrouped by reshape, first maximum by argmax: the values
    and the input gradient for output gradient ``g``."""
    n, c, h, w = x.shape
    oh, ow = h // size, w // size
    crop = x[:, :, :oh * size, :ow * size]
    flat = crop.reshape(n, c, oh, size, ow, size).transpose(0, 1, 2, 4, 3, 5)
    flat = flat.reshape(n, c, oh, ow, size * size)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    dflat = np.zeros_like(flat)
    np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
    dwin = dflat.reshape(n, c, oh, ow, size, size).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros_like(x)
    dx[:, :, :oh * size, :ow * size] = dwin.reshape(n, c, oh * size, ow * size)
    return out, dx


class TestBackwardSemantics:
    def test_sum_gradient_all_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        (gx,) = grad_of(lambda: tc.sum_all(x), [x])
        assert np.array_equal(gx, np.ones((2, 3)))

    def test_double_backward_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape([x]) as tape:
            s = tc.sum_all(x)
        tc.backward(tape, s)
        with pytest.raises(TapeError):
            tc.backward(tape, s)

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones((2, 2)))
        with Tape([x]) as tape:
            y = tc.relu(x)
        with pytest.raises(TapeError):
            tc.backward(tape, y)

    def test_root_not_on_tape_rejected(self):
        x = Tensor([1.0])
        with Tape([x]) as tape:
            tc.sum_all(x)
        stray = tc.sum_all(Tensor([1.0]))
        with pytest.raises(TapeError):
            tc.backward(tape, stray)

    def test_non_finite_leaf_gradient_names_backward(self):
        x = Tensor([1.0, 2.0])
        with Tape([x]) as tape:
            s = tc.sum_all(x)
        tape.records[-1].pull = lambda g: (np.array([np.nan, 1.0]),)
        with pytest.raises(NonFiniteError, match="^backward produced non-finite values$"):
            tc.backward(tape, s)

    def test_reused_operand_accumulates(self):
        x = Tensor([3.0])
        with Tape([x]) as tape:
            s = tc.sum_all(tc.add(x, x))
        g = tc.backward(tape, s)[x].data
        assert np.array_equal(g, [2.0])

    def test_only_the_tapes_leaves_get_gradients(self):
        # w is an operand but not a leaf, y a leaf the root does not use, and
        # an op on untracked tensors only is not recorded
        x, w, y = Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]), Tensor([5.0])
        with Tape([x, y]) as tape:
            tc.sum_all(w)
            s = tc.sum_all(tc.matmul(x, w))
        assert len(tape.records) == 2
        grads = tc.backward(tape, s)
        assert list(grads) == [x]
        assert np.array_equal(grads[x].data, [[3.0, 4.0]])

    def test_bias_add_grad_sums_rows(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.random((5, 3)))
        b = Tensor(rng.random(3))
        (gb,) = grad_of(lambda: tc.sum_all(tc.add(a, b)), [b])
        assert np.array_equal(gb, np.full(3, 5.0))

    def test_channel_bias_add_grad(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.random((2, 3, 4, 4)))
        b = Tensor(rng.random(3))
        (gb,) = grad_of(lambda: tc.sum_all(tc.add(a, b)), [b])
        assert np.array_equal(gb, np.full(3, 2 * 16.0))
