"""Dense float64 tensors with tape-based reverse-mode differentiation.

Design constraints: 64-bit floats everywhere, a deliberately small op set
(no broadcasting beyond bias-add), gradients available with respect to both
weights and inputs, and a finiteness check wherever a value can first turn
non-finite, so numerical blowups surface at their source instead of three
modules later.

Ops: ``dense``, one affine layer with an optional ReLU in one tape record,
which the models use for every dense layer; ``matmul``, ``add`` and ``relu``,
whose composition it replaces and which stay as its reference; ``sum_all``,
``reshape``, ``conv2d``, ``max_pool2d``, ``softmax_cross_entropy``; and
``conv_block``, a whole CNN block (convolution plus bias, max-pool, ReLU) in
one cache-blocked pass that computes the same values as those ops composed.
``conv2d`` unfolds a zero-padded copy of its input (:func:`_im2col`,
:func:`_col2im`); ``conv_block``, always stride 1 with "same" padding,
unfolds each flattened input plane as shifted runs (:func:`_unfold_same`)
and folds each tap back as one shifted run over the whole flattened
gradient (:func:`_fold_same`), with the same values bit for bit, so
``conv2d`` is an independent reference for it.

Finiteness: a ``Tensor`` checks the values it is built from, so every op's
inputs are finite. ``matmul``, ``add``, ``sum_all``, ``conv2d`` and
``softmax_cross_entropy`` can overflow on finite inputs and check their
outputs. ``dense`` and ``conv_block`` check their pre-activation, after the
bias add and before a ReLU or a max-pool could zero or drop a NaN or -inf.
The other outputs are finite by construction and not checked again: a
``reshape`` is a view of a checked tensor, and a ReLU or a window max of
finite values is finite (``relu``, ``max_pool2d``, the pooled output of
``conv_block``, the ReLU of ``dense``). Pulls are not checked; ``backward``
checks each leaf gradient it returns.

Typical use::

    with Tape([w, b]) as tape:
        loss = softmax_cross_entropy(dense(x, w, b), y)
    grads = backward(tape, loss)   # {w: Tensor, b: Tensor}
"""
from __future__ import annotations

import functools
import math

import numpy as np


class TensorError(ValueError):
    """Shape or domain violation in a tensor operation."""


class NonFiniteError(TensorError):
    """An operation produced NaN or Inf."""


class TapeError(RuntimeError):
    """Tape misuse: double backward, missing root, non-scalar root."""


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return arr


class Tensor:
    """Dense n-dimensional array of float64, row-major."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        _check_finite(arr, "Tensor")
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(-1)[0])

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# Tape


class _Record:
    __slots__ = ("inputs", "output", "pull")

    def __init__(self, inputs, output, pull):
        self.inputs = inputs      # tuple[Tensor]
        self.output = output      # Tensor
        self.pull = pull          # grad_out -> tuple of grads aligned with inputs (None allowed)


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Execution-ordered record of the primitive ops that depend on ``leaves``,
    the tensors that :func:`backward` differentiates with respect to.

    Records are appended in forward order, which makes the list a valid
    topological order for the reverse sweep. One backward pass per tape;
    a second raises :class:`TapeError`.
    """

    def __init__(self, leaves):
        self.leaves: tuple[Tensor, ...] = tuple(leaves)
        self.records: list[_Record] = []
        self.consumed = False
        self._tracked: set[int] = {id(t) for t in self.leaves}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def _tracks(self, t: Tensor) -> bool:
        return id(t) in self._tracked

    def _record(self, inputs, output, pull):
        self.records.append(_Record(tuple(inputs), output, pull))
        self._tracked.add(id(output))


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _unchecked(arr: np.ndarray) -> Tensor:
    """C-contiguous float64 ``arr`` as a Tensor without the constructor's
    check, for values that are finite by construction."""
    out = Tensor.__new__(Tensor)
    out.data = arr
    return out


def _emit(inputs, out_data: np.ndarray, pull, op: str, checked: bool = False) -> Tensor:
    """The output of ``op``, recorded on the active tape when the tape tracks
    any of ``inputs``. ``out_data`` is checked for finiteness unless
    ``checked`` says that it is finite by construction: a view of a checked
    tensor, or values the op checked before a step that could hide a blowup."""
    if not checked:
        _check_finite(out_data, op)
    out = _unchecked(out_data)
    tape = _active_tape()
    if tape is not None and any(tape._tracks(t) for t in inputs):
        tape._record(inputs, out, pull)
    return out


def backward(tape: Tape, root: Tensor) -> dict[Tensor, Tensor]:
    """Reverse sweep from scalar ``root``; returns leaf gradient map.

    The map holds one entry per distinct leaf of ``tape`` that the root
    actually depends on. Each leaf gradient is checked for finiteness once,
    here, and a failure names ``backward``. Each record is popped off the
    tape before its pull, and its incoming gradient leaves the map as the
    pull takes it, so both are freed once the pull is done with them; the
    tape ends empty. Every pull returns C-contiguous gradients, so the leaf
    gradients are wrapped as they are, with no copy.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if root.size != 1:
        raise TapeError(f"backward root must be scalar, got shape {root.shape}")
    produced = any(rec.output is root for rec in tape.records)
    if not produced:
        raise TapeError("backward root was not produced on this tape")
    tape.consumed = True

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    records = tape.records
    while records:
        rec = records.pop()
        if id(rec.output) not in grads:
            continue
        pulled = rec.pull(grads.pop(id(rec.output)))
        for t, gt in zip(rec.inputs, pulled):
            if gt is None or not tape._tracks(t):
                continue
            prev = grads.get(id(t))
            grads[id(t)] = gt if prev is None else prev + gt
        pulled = gt = None
    return {t: _unchecked(_check_finite(grads[id(t)], "backward"))
            for t in tape.leaves if id(t) in grads}


# ---------------------------------------------------------------------------
# Primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise TensorError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data
    tape = _active_tape()
    want_da, want_db = (tape is not None and tape._tracks(t) for t in (a, b))

    def pull(g):
        return (g @ b.data.T if want_da else None), (a.data.T @ g if want_db else None)

    return _emit((a, b), out, pull, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; the only broadcast allowed is a bias vector.

    Supported: identical shapes; (n, m) + (m,) row bias; (n, c, h, w) + (c,)
    per-channel bias.
    """
    if a.shape == b.shape:
        def pull(g):
            return g, g
    elif a.data.ndim == 2 and b.shape == (a.shape[1],):
        def pull(g):
            return g, g.sum(axis=0)
    elif a.data.ndim == 4 and b.shape == (a.shape[1],):
        def pull(g):
            return g, g.sum(axis=(0, 2, 3))

        return _emit((a, b), a.data + b.data.reshape(1, -1, 1, 1), pull, "add")
    else:
        raise TensorError(f"add shapes incompatible: {a.shape} + {b.shape}")
    return _emit((a, b), a.data + b.data, pull, "add")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient at exactly 0 is 0

    def pull(g):
        return (g * mask,)

    return _emit((x,), np.where(mask, x.data, 0.0), pull, "relu", checked=True)


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One dense layer, ``x @ w + b`` followed by a ReLU when ``relu`` is set,
    as one tape record: values and gradients equal those of
    ``relu(add(matmul(x, w), b))`` (or ``add(matmul(x, w), b)``) bit for bit.

    ``x`` is (n, k), ``w`` (k, m) and ``b`` (m,). Finiteness is checked once,
    after the bias add: a finite bias leaves a non-finite product non-finite,
    and the check comes before the ReLU could zero a NaN or a -inf. The pull
    computes ``dx``, ``dw`` and ``db`` only for tracked operands (``None`` for
    the others).
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise TensorError(f"dense operands disagree: {x.shape} x {w.shape} + {b.shape}")
    z = x.data @ w.data
    z += b.data
    _check_finite(z, "dense")
    mask = z > 0 if relu else None  # subgradient at exactly 0 is 0, as in relu
    tape = _active_tape()
    want_dx, want_dw, want_db = (tape is not None and tape._tracks(t) for t in (x, w, b))

    def pull(g):
        if relu:
            g = g * mask
        return ((g @ w.data.T if want_dx else None), (x.data.T @ g if want_dw else None),
                (g.sum(axis=0) if want_db else None))

    out = np.where(mask, z, 0.0) if relu else z
    return _emit((x, w, b), out, pull, "dense", checked=True)


def sum_all(x: Tensor) -> Tensor:
    def pull(g):
        return (np.full_like(x.data, g.reshape(-1)[0]),)

    return _emit((x,), np.asarray(x.data.sum()), pull, "sum_all")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise TensorError(f"reshape {x.shape} -> {shape} changes element count")

    def pull(g):
        return (g.reshape(x.shape),)

    return _emit((x,), x.data.reshape(shape), pull, "reshape", checked=True)


@functools.cache
def _taps(kh: int, kw: int, stride: int, oh: int, ow: int):
    """(ky, kx, rows, cols) per kernel tap: the strided slices of a padded
    input that the tap meets at each of the oh x ow output positions."""
    return tuple((ky, kx, slice(ky, ky + stride * oh, stride), slice(kx, kx + stride * ow, stride))
                 for ky in range(kh) for kx in range(kw))


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Column buffer (n, cin*kh*kw, oh*ow) of padded input ``xp``; its rows
    follow the (cin, kh, kw) order of a flattened kernel."""
    n, cin = xp.shape[:2]
    cols = np.empty((n, cin, kh, kw, oh, ow))
    for ky, kx, rows, cs in _taps(kh, kw, stride, oh, ow):
        cols[:, :, ky, kx] = xp[:, :, rows, cs]
    return cols.reshape(n, cin * kh * kw, oh * ow)


def _col2im(dcols: np.ndarray, xp_shape, kh: int, kw: int, stride: int, padding: int,
            oh: int, ow: int) -> np.ndarray:
    """Gradient of the unpadded input from column gradients (n, cin*kh*kw,
    oh*ow): each tap's columns are added back onto the padded input
    ``xp_shape`` where :func:`_im2col` read them, then the padding is cut,
    into a C-contiguous copy like every other pull's gradient."""
    n, cin, hp, wp = xp_shape
    dcols = dcols.reshape(n, cin, kh, kw, oh, ow)
    dxp = np.zeros(xp_shape)
    for ky, kx, rows, cs in _taps(kh, kw, stride, oh, ow):
        dxp[:, :, rows, cs] += dcols[:, :, ky, kx]
    return np.ascontiguousarray(dxp[:, :, padding:hp - padding, padding:wp - padding])


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """(n, c, h, w) zero-padded by ``padding`` on both spatial sides."""
    if not padding:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    return xp


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with zero padding, as an im2col GEMM.

    ``x`` is (n, c_in, h, w) or unbatched (c_in, h, w); ``kernels`` is
    (c_out, c_in, kh, kw). The input is unfolded into columns
    (n, c_in*kh*kw, oh*ow) so that the flattened kernels times the columns
    lands in (n, c_out, oh*ow); the pull reuses the columns for ``dk``.
    ``dx`` (the transposed GEMM folded back over the kh*kw taps) is computed
    only when the tape tracks the input; for an untracked input the pull
    returns ``None`` in its place.
    """
    squeeze = x.data.ndim == 3
    xr = reshape(x, (1, *x.shape)) if squeeze else x
    if xr.data.ndim != 4 or kernels.data.ndim != 4:
        raise TensorError(f"conv2d expects 4-D input/kernels, got {x.shape}, {kernels.shape}")
    n, cin, h, w = xr.shape
    cout, kcin, kh, kw = kernels.shape
    if kcin != cin:
        raise TensorError(f"conv2d channel mismatch: input {cin}, kernels {kcin}")
    stride = int(stride)
    padding = int(padding)
    if stride < 1 or padding < 0:
        raise TensorError("conv2d needs stride >= 1 and padding >= 0")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if h + 2 * padding < kh or w + 2 * padding < kw or oh < 1 or ow < 1:
        raise TensorError(f"conv2d degenerate output shape for input {x.shape}")

    tape = _active_tape()
    want_dk = tape is not None and tape._tracks(kernels)
    want_dx = tape is not None and tape._tracks(xr)
    xp = _pad(xr.data, padding)
    km = kernels.data.reshape(cout, cin * kh * kw)
    cols = _im2col(xp, kh, kw, stride, oh, ow)
    out = km @ cols

    def pull(g):
        g = g.reshape(n, cout, oh * ow)
        dk = (g @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernels.shape) if want_dk else None
        if not want_dx:
            return None, dk
        return _col2im(km.T @ g, xp.shape, kh, kw, stride, padding, oh, ow), dk

    res = _emit((xr, kernels), out.reshape(n, cout, oh, ow), pull, "conv2d")
    return reshape(res, res.shape[1:]) if squeeze else res


def max_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols that do not fill a
    window are dropped.

    The max is taken over the size*size strided views of the input, one per
    window position. Under a tape that tracks ``x`` the winning view is
    recorded (:func:`_pool_max`), so the gradient routes to the first maximum
    in each window (row-major order).
    """
    if x.data.ndim != 4:
        raise TensorError(f"max_pool2d expects (n, c, h, w), got {x.shape}")
    size = int(size)
    n, c, h, w = x.shape
    oh, ow = h // size, w // size
    if oh < 1 or ow < 1:
        raise TensorError(f"max_pool2d window {size} too large for input {x.shape}")
    tape = _active_tape()
    out = np.empty((n, c, oh, ow))
    winner = (np.empty(out.shape, dtype=np.min_scalar_type(size * size - 1))
              if tape is not None and tape._tracks(x) else None)
    _pool_max(x.data, size, out, winner)

    def pull(g):
        dx = np.zeros_like(x.data)
        _pool_scatter(g, size, winner, dx)
        return (dx,)

    return _emit((x,), out, pull, "max_pool2d", checked=True)


def _pool_max(x: np.ndarray, size: int, out: np.ndarray, winner: np.ndarray | None,
              stage: np.ndarray | None = None) -> None:
    """Max of ``x`` over non-overlapping size*size windows into ``out``.

    When ``winner`` is given, the index t of each window's first maximum
    (row-major view order) is written there, overwriting whatever it held;
    any integer dtype that holds size*size - 1 will do. It is kept as a
    running max of t * (view t > max so far), which is exact: a later view
    wins only when strictly greater, and its index then exceeds every
    earlier one. Each later view is then first copied into ``stage``, a
    C-contiguous float64 buffer of ``out``'s shape (allocated here when not
    given), so that both comparisons read contiguous memory; without
    ``winner`` the views are read in place and ``stage`` is not used."""
    taps = _taps(size, size, size, *out.shape[2:])
    _, _, rows, cs = taps[0]
    np.copyto(out, x[:, :, rows, cs])
    if winner is not None:
        winner.fill(0)
        won = np.empty(out.shape, dtype=bool)
        if stage is None:
            stage = np.empty(out.shape)
    for t, (_, _, rows, cs) in enumerate(taps[1:], start=1):
        v = x[:, :, rows, cs]
        if winner is not None:
            np.copyto(stage, v)
            v = stage
            np.greater(v, out, out=won)
            np.maximum(winner, won * winner.dtype.type(t), out=winner)
        np.maximum(out, v, out=out)


def _pool_scatter(g: np.ndarray, size: int, winner: np.ndarray, dx: np.ndarray) -> None:
    """Pooled gradient ``g`` routed into ``dx`` at each window's recorded
    winner: every view t receives g * (winner == t), so every cell inside a
    window is written (0 where it did not win). Cells outside every window
    (trailing rows/cols) are not touched and must already hold 0."""
    won = np.empty(g.shape, dtype=bool)
    for t, (_, _, rows, cs) in enumerate(_taps(size, size, size, *g.shape[2:])):
        np.equal(winner, t, out=won)
        np.multiply(g, won, out=dx[:, :, rows, cs])


@functools.cache
def _same_taps(h: int, w: int, kh: int, kw: int):
    """(t, d, lo, hi) per tap t = ky*kw + kx of a stride-1 kernel padded by
    kh//2 and kw//2, whose output keeps the h x w input size: in a flattened
    plane the tap meets input q + d at output q, with d = (ky - kh//2)*w +
    (kx - kw//2), and the run lo <= q < hi keeps q + d inside the plane
    (empty when the tap reaches past it)."""
    hw, taps = h * w, []
    for ky in range(kh):
        for kx in range(kw):
            d = (ky - kh // 2) * w + kx - kw // 2
            taps.append((ky * kw + kx, d, min(hw, max(0, -d)), max(0, min(hw, hw - d))))
    return tuple(taps)


@functools.cache
def _pads(h: int, w: int, kh: int, kw: int):
    """Index expressions on an (n, cin, kh*kw, h, w) column view that
    together select every cell whose tap (:func:`_same_taps`) reads the
    padding: per off-centre kernel row, that row's taps at the plane rows
    it shifts off the plane; per off-centre kernel column, that column's
    taps at the plane columns it shifts off, which wrap in a flattened
    plane."""
    def off(shift, size):
        return slice(max(0, size - shift), size) if shift > 0 else slice(0, min(size, -shift))
    rows = tuple((..., slice(ky * kw, (ky + 1) * kw), off(ky - kh // 2, h), slice(None))
                 for ky in range(kh) if ky != kh // 2)
    return rows + tuple((..., slice(kx, None, kw), slice(None), off(kx - kw // 2, w))
                        for kx in range(kw) if kx != kw // 2)


def _unfold_same(x: np.ndarray, kh: int, kw: int, cols: np.ndarray) -> None:
    """The columns :func:`_im2col` takes of the zero-padded ``x`` (n, cin, h,
    w) at stride 1 and padding kh//2, kw//2, written into the C-contiguous
    ``cols`` (n, cin*kh*kw, h*w), with no padded copy: each tap is one
    shifted run of every flattened plane, and then 0.0 is written where a
    tap reads the padding (:func:`_pads`)."""
    n, cin, h, w = x.shape
    xf = x.reshape(n, cin, h * w)
    cols = cols.reshape(n, cin, kh * kw, h * w)
    for t, d, lo, hi in _same_taps(h, w, kh, kw):
        cols[:, :, t, lo:hi] = xf[:, :, lo + d:hi + d]
    grid = cols.reshape(n, cin, kh * kw, h, w)
    for cells in _pads(h, w, kh, kw):
        grid[cells] = 0.0


def _fold_same(dcols: np.ndarray, kh: int, kw: int, dx: np.ndarray, run: np.ndarray) -> None:
    """Input gradient from the column gradients ``dcols`` (n, cin*kh*kw, h*w)
    of :func:`_unfold_same`, written into the C-contiguous ``dx`` (n, cin, h,
    w) and bitwise equal to :func:`_col2im`: the taps are added onto zeros in
    the same order. The cells of ``dcols`` where a tap reads the padding
    (:func:`_pads`) are first set to +0.0, so ``dcols`` is scratch. Each
    tap's column gradients are then copied into ``run``, a C-contiguous
    float64 buffer of n*cin*h*w elements, and added onto the flattened
    ``dx`` at the tap's offset as one 1-D run. A tap that reaches past a
    plane so adds +0.0 to the next plane, which leaves every sum unchanged
    (a sum that starts from +0.0 is never -0.0)."""
    n, cin, h, w = dx.shape
    grid = dcols.reshape(n, cin, kh * kw, h, w)
    for cells in _pads(h, w, kh, kw):
        grid[cells] = 0.0
    dc = grid.reshape(n, cin, kh * kw, h * w)
    planes = run.reshape(n, cin, h * w)
    flat, dx = run.reshape(-1), dx.reshape(-1)
    dx.fill(0.0)
    for t, d, _, _ in _same_taps(h, w, kh, kw):
        planes[...] = dc[:, :, t]
        a, b = max(0, d), max(0, -d)
        if a + b < dx.size:
            dx[a:dx.size - b] += flat[b:dx.size - a]


def _cut(region: np.ndarray, m: int, *shape: int) -> np.ndarray:
    """The first ``m`` samples of a flat arena region of :func:`conv_block`,
    as an (m, *shape) view. It lives at module level because the taped pull
    would capture a nested helper, one more object per call held until
    backward: that raised cnn_attack_eval's minor faults per unit from 0-1
    to 6-8 (getrusage, seeds 1 and 2)."""
    return region[:m * math.prod(shape)].reshape(m, *shape)


# Column-buffer elements conv_block's forward unfolds at a time (4 MiB of
# float64); its pull uses half of it. The GEMMs run once per sample at any
# span, so the span trades the number of passes over the spans against the
# size of the arenas. Median minor faults per unit, read with getrusage
# around each unit of 12 s benchmark runs at seeds 2, 7 and 11: at 1 << 19,
# 0 on cnn_atent_train and 0 on cnn_attack_eval; at 1 << 17, 901 and
# 3.7k-5.4k, though cnn_atent_train's peak RSS fell from 47.2-47.3 to 44.9
# MB. An untaped forward of many samples reaches conv_block in spans of
# models._FORWARD_SPAN samples, fewer than this budget takes at either block
# of the benchmark CNN (74 and 37).
_BLOCK_COLS = 1 << 19


def conv_block(x: Tensor, kernels: Tensor, bias: Tensor, pool: int = 2) -> Tensor:
    """One CNN block, relu(max_pool2d(conv2d(x, kernels, 1, kh // 2) + bias, pool)).

    ``x`` is (n, c_in, h, w), ``kernels`` (c_out, c_in, kh, kh) with kh odd,
    ``bias`` (c_out,); the convolution keeps the h x w size. The batch is
    worked through a span of samples at a time, as many as fit
    :data:`_BLOCK_COLS` column elements: each span is unfolded
    (:func:`_unfold_same`), multiplied into a pre-activation buffer, given
    its bias and checked for finiteness (pooling and ReLU could hide a
    blowup), then max-pooled into the output through strided views. ReLU
    comes after the pool, on a quarter of the data; that is exact because
    ReLU is monotone, so it commutes with the max. Under a tape that tracks
    any operand the first maximum of each window is recorded, as in
    :func:`max_pool2d`, in the smallest integer dtype that holds pool*pool -
    1 (uint8 up to pool 16). The pull makes a like pass over spans of half
    as many column elements: it scatters the pooled gradient to the winners,
    unfolds each span again for ``dk`` rather than keeping the columns on
    the tape, folds the column gradients straight into ``dx``
    (:func:`_fold_same`), and computes ``dx``, ``dk`` and ``db`` only for
    tracked operands (``None`` for the others). ``db`` is summed from the
    pooled gradient, so it can differ from the unfused ops' in the last
    bits.

    All of a call's scratch comes from one float64 arena per direction,
    reused by every span: the forward's holds the pre-activation and the
    columns, whose region, once the GEMM has read it, stages the pool's
    views (:func:`_pool_max`). The pull's holds a first region of
    max(c_out, c_in)*h*w elements per sample and one column buffer. The
    first region holds the scattered pooled gradient and then the fold's
    runs (:func:`_fold_same`), so its cells outside every pool window are
    zeroed in each span; the column buffer holds ``dk``'s columns and then
    ``dx``'s column gradients. With its half spans the pull's arena is at
    most half the forward's largest while c_in <= c_out: it is live while
    backprop holds the most, and the bits are those of any span. The
    forward's arena is the largest block a call frees, so glibc's dynamic
    mmap and trim thresholds adapt to it and the next call reuses its pages
    instead of refaulting them (see :data:`_BLOCK_COLS`).
    """
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise TensorError(f"conv_block expects 4-D input/kernels, got {x.shape}, {kernels.shape}")
    n, cin, h, w = x.shape
    cout, kcin, kh, kw = kernels.shape
    if kcin != cin or bias.shape != (cout,):
        raise TensorError(f"conv_block operands disagree: input {x.shape}, "
                          f"kernels {kernels.shape}, bias {bias.shape}")
    if kh != kw or kh % 2 == 0:
        raise TensorError(f"conv_block needs an odd square kernel, got {kh}x{kw}")
    pool = int(pool)
    if pool < 1 or h < pool or w < pool:
        raise TensorError(f"conv_block pool {pool} too large for input {x.shape}")
    ph, pw = h // pool, w // pool

    tape = _active_tape()
    want_dx, want_dk, want_db = (tape is not None and tape._tracks(t) for t in (x, kernels, bias))
    track = want_dx or want_dk or want_db
    km = kernels.data.reshape(cout, cin * kh * kw)

    def arena(budget, first, second):
        """The spans of as many samples as fit ``budget`` column elements,
        and two flat regions of ``first`` and ``second`` elements per sample
        of a span, cut from one allocation."""
        m = min(max(1, budget // (cin * kh * kw * h * w)), n)
        buf = np.empty(m * (first + second))
        return [(i, min(i + m, n)) for i in range(0, n, m)], buf[:m * first], buf[m * first:]

    out = np.empty((n, cout, ph, pw))
    winner = np.empty(out.shape, dtype=np.min_scalar_type(pool * pool - 1)) if track else None
    spans, pre, cols = arena(_BLOCK_COLS, cout * h * w, max(cin * kh * kw * h * w, cout * ph * pw))
    for i, j in spans:
        a, c = _cut(pre, j - i, cout, h * w), _cut(cols, j - i, cin * kh * kw, h * w)
        _unfold_same(x.data[i:j], kh, kw, c)
        np.matmul(km, c, out=a)
        a += bias.data.reshape(1, cout, 1)
        _check_finite(a, "conv_block")
        # the columns are spent, so their region stages the pool's views
        _pool_max(a.reshape(j - i, cout, h, w), pool, out[i:j], winner[i:j] if track else None,
                  _cut(cols, j - i, cout, ph, pw))
        np.maximum(out[i:j], 0.0, out=out[i:j])

    def pull(g):
        g = g * (out > 0)  # ReLU mask: the output is positive where the window max was
        db = g.sum(axis=(0, 2, 3)) if want_db else None
        if not (want_dx or want_dk):
            return None, None, db
        dk = np.empty((n, cout, cin * kh * kw)) if want_dk else None
        dx = np.empty(x.shape) if want_dx else None
        spans, ga, dcols = arena(_BLOCK_COLS // 2, max(cout, cin) * h * w, cin * kh * kw * h * w)
        for i, j in spans:
            gb, c = _cut(ga, j - i, cout, h, w), _cut(dcols, j - i, cin * kh * kw, h * w)
            gb[:, :, ph * pool:] = 0.0  # cells outside every window
            gb[:, :, :, pw * pool:] = 0.0
            _pool_scatter(g[i:j], pool, winner[i:j], gb)
            gb = gb.reshape(j - i, cout, h * w)
            if want_dk:
                _unfold_same(x.data[i:j], kh, kw, c)
                np.matmul(gb, c.transpose(0, 2, 1), out=dk[i:j])
            if want_dx:
                np.matmul(km.T, gb, out=c)
                _fold_same(c, kh, kw, dx[i:j], _cut(ga, j - i, cin * h * w))
        if want_dk:
            dk = dk.sum(axis=0).reshape(kernels.shape)
        return dx, dk, db

    return _emit((x, kernels, bias), out, pull, "conv_block", checked=True)


def softmax_cross_entropy(logits: Tensor, labels: Tensor) -> Tensor:
    """Mean cross-entropy with max-shift stabilization; gradient (p - y)/n."""
    if logits.data.ndim != 2:
        raise TensorError(f"logits must be (n, m), got {logits.shape}")
    if labels.shape != logits.shape:
        raise TensorError(f"labels {labels.shape} do not match logits {logits.shape}")
    y = labels.data
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    denom = exps.sum(axis=1, keepdims=True)
    log_softmax = shifted - np.log(denom)
    loss = -(y * log_softmax).sum() / n
    probs = exps / denom

    def pull(g):
        scalar = g.reshape(-1)[0]
        return scalar * (probs - y) / n, None

    return _emit((logits, labels), np.asarray(loss), pull, "softmax_cross_entropy")
