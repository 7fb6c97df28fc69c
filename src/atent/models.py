"""Desk-scale classifiers f(w; x) and their loss/prediction plumbing.

Two architectures: an MLP (the 2-D / flattened-image workhorse) and a small
CNN (conv blocks, then a dense head). Every MLP layer and every layer of the
CNN head is one :func:`tensor.dense` (affine map, then ReLU on all but the
last layer). A conv block is a 3x3 convolution
(stride 1, padding 1) plus a per-channel bias, a 2x2 max-pool, then ReLU,
computed by the one op :func:`tensor.conv_block`. Pooling before the ReLU
gives exactly the values and gradients of ReLU before pooling, because ReLU
is monotone and so commutes with the max, and it leaves the ReLU a quarter
of the data. Weights are He-initialized normals, biases zero, everything
reproducible from (descriptor, seed). The losses read their rows from a
:class:`data.Dataset`, the one row class.
"""
from __future__ import annotations

import math

import numpy as np

from . import tensor as tc
from .data import Dataset
from .seeding import derive_rng
from .tensor import Tensor, TensorError

CNN_KERNEL = 3
CNN_POOL = 2
# Samples an untaped CNN forward sends through the conv stack at a time
# (forward_logits), chosen by median minor faults per cnn_attack_eval unit,
# read with getrusage around each unit of 12 s benchmark runs at seeds 2, 7
# and 11: spans of 16, 32 and 74 (block 0's _BLOCK_COLS span) took 0 at
# every seed, at a peak RSS of 43.0, 45.6-45.7 and 49.5-49.6 MB; spans of 8
# took 3.0k-4.4k.
_FORWARD_SPAN = 16


class ModelParams:
    """Ordered named weight tensors plus the architecture descriptor.

    Training mutates a private ``clone()``; evaluation treats an instance
    as read-only.
    """

    def __init__(self, descriptor: dict, weights: list[tuple[str, Tensor]]):
        self.descriptor = descriptor
        self.weights: dict[str, Tensor] = dict(weights)
        expected = expected_shapes(descriptor)
        got = {name: t.shape for name, t in self.weights.items()}
        if got != expected:
            raise TensorError(f"weight shapes {got} inconsistent with descriptor {expected}")

    @property
    def names(self) -> list[str]:
        return list(self.weights)

    @property
    def n_params(self) -> int:
        return sum(t.size for t in self.weights.values())

    def clone(self) -> "ModelParams":
        return ModelParams(self.descriptor, [(n, t.copy()) for n, t in self.weights.items()])

    def __repr__(self) -> str:
        return f"ModelParams({self.descriptor}, n_params={self.n_params})"


def _cnn_dims(descriptor: dict) -> tuple[list[int], int]:
    """Per-block channel list and flattened feature size of the conv stack."""
    c, h, w = descriptor["in_shape"]
    channels = list(descriptor["channels"])
    for _ in channels:
        h, w = h // CNN_POOL, w // CNN_POOL
        if h < 1 or w < 1:
            raise TensorError(f"input {descriptor['in_shape']} too small for {len(channels)} pool stages")
    return channels, channels[-1] * h * w


def expected_shapes(descriptor: dict) -> dict[str, tuple[int, ...]]:
    """The weight shapes of ``descriptor``; a :class:`TensorError` names the
    first rule of its kind that it breaks."""
    kind = descriptor["kind"]
    shapes: dict[str, tuple[int, ...]] = {}
    if kind == "mlp":
        widths = descriptor["widths"]
        if len(widths) < 2:
            raise TensorError("an MLP needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise TensorError("layer widths must be positive")
        for i in range(len(widths) - 1):
            shapes[f"w{i}"] = (widths[i], widths[i + 1])
            shapes[f"b{i}"] = (widths[i + 1],)
    elif kind == "cnn":
        if not descriptor["channels"] or not descriptor["fc_widths"]:
            raise TensorError("need at least one conv block and one dense layer")
        if any(n < 1 for key in ("in_shape", "channels", "fc_widths") for n in descriptor[key]):
            raise TensorError("in_shape, channel counts and widths must be positive")
        channels, flat = _cnn_dims(descriptor)
        prev = descriptor["in_shape"][0]
        for i, ch in enumerate(channels):
            shapes[f"conv{i}"] = (ch, prev, CNN_KERNEL, CNN_KERNEL)
            shapes[f"cb{i}"] = (ch,)
            prev = ch
        widths = [flat] + list(descriptor["fc_widths"])
        for i in range(len(widths) - 1):
            shapes[f"fc{i}"] = (widths[i], widths[i + 1])
            shapes[f"fb{i}"] = (widths[i + 1],)
    else:
        raise TensorError(f"unknown model kind {kind!r}")
    return shapes


def _he_init(descriptor: dict, seed: int) -> list[tuple[str, Tensor]]:
    rng = derive_rng(seed, "model-init")
    out = []
    for name, shape in expected_shapes(descriptor).items():
        if name.startswith(("b", "cb", "fb")):
            out.append((name, Tensor(np.zeros(shape))))
        else:
            fan_in = int(np.prod(shape[:-1])) if len(shape) == 2 else int(np.prod(shape[1:]))
            std = math.sqrt(2.0 / fan_in)
            out.append((name, Tensor(std * rng.standard_normal(shape))))
    return out


def build_mlp(layer_widths, seed: int) -> ModelParams:
    descriptor = {"kind": "mlp", "widths": [int(w) for w in layer_widths]}
    return ModelParams(descriptor, _he_init(descriptor, seed))


def build_small_cnn(channels, fc_widths, seed: int, in_shape=(1, 28, 28)) -> ModelParams:
    descriptor = {
        "kind": "cnn",
        "in_shape": tuple(int(s) for s in in_shape),
        "channels": [int(c) for c in channels],
        "fc_widths": [int(w) for w in fc_widths],
    }
    return ModelParams(descriptor, _he_init(descriptor, seed))


def build_model(descriptor: dict, seed: int) -> ModelParams:
    if descriptor["kind"] == "mlp":
        return build_mlp(descriptor["widths"], seed)
    return build_small_cnn(
        descriptor["channels"],
        descriptor["fc_widths"],
        seed,
        in_shape=descriptor["in_shape"],
    )


def _conv_stack(params: ModelParams, x: Tensor) -> Tensor:
    """The CNN's conv blocks applied to ``x`` in turn."""
    w = params.weights
    for i in range(len(params.descriptor["channels"])):
        x = tc.conv_block(x, w[f"conv{i}"], w[f"cb{i}"], CNN_POOL)
    return x


def forward_logits(params: ModelParams, inputs: Tensor) -> Tensor:
    """Logits for a batch; flattens image batches automatically for MLPs.

    With no tape active, a CNN batch of more than :data:`_FORWARD_SPAN`
    samples is streamed: each span of samples goes through every conv block
    in turn, and its features are written into one (n, flat) matrix, so no
    block's output for the whole batch is ever held. The dense head then
    runs once on that matrix. The bits are those of the whole-batch pass:
    the conv GEMMs run one sample at a time at any batch size, while the
    head's GEMMs are not split, because BLAS picks its kernel by row count
    and a head run in chunks of 16 or 32 rows changed the logits' last
    bits. A taped pass, and a batch no larger than the span, takes the
    whole batch through each block.
    """
    if not isinstance(inputs, Tensor):
        inputs = Tensor(inputs)
    d = params.descriptor
    w = params.weights
    if d["kind"] == "mlp":
        widths = d["widths"]
        n = inputs.shape[0]
        if inputs.data.ndim != 2:
            if int(np.prod(inputs.shape[1:])) != widths[0]:
                raise TensorError(f"input shape {inputs.shape} does not flatten to {widths[0]}")
            inputs = tc.reshape(inputs, (n, widths[0]))
        elif inputs.shape[1] != widths[0]:
            raise TensorError(f"input width {inputs.shape[1]} != model width {widths[0]}")
        h = inputs
        last = len(widths) - 2
        for i in range(last + 1):
            h = tc.dense(h, w[f"w{i}"], w[f"b{i}"], relu=i < last)
        return h

    if inputs.data.ndim != 4 or inputs.shape[1:] != d["in_shape"]:
        raise TensorError(f"input shape {inputs.shape} does not match {d['in_shape']}")
    n = inputs.shape[0]
    _, flat = _cnn_dims(d)
    if n <= _FORWARD_SPAN or tc._active_tape() is not None:
        h = tc.reshape(_conv_stack(params, inputs), (n, flat))
    else:
        # the features live only in h, so rebinding h in the head frees them
        h = tc._unchecked(np.empty((n, flat)))
        for s in range(0, n, _FORWARD_SPAN):
            span = _conv_stack(params, tc._unchecked(inputs.data[s:s + _FORWARD_SPAN]))
            h.data[s:s + _FORWARD_SPAN] = span.data.reshape(-1, flat)
    last = len(d["fc_widths"]) - 1
    for i in range(last + 1):
        h = tc.dense(h, w[f"fc{i}"], w[f"fb{i}"], relu=i < last)
    return h


def loss_and_grads(
    params: ModelParams,
    batch: Dataset,
    wrt: str = "weights",
) -> tuple[float, dict[str, np.ndarray] | None, np.ndarray | None]:
    """Mean cross-entropy plus requested gradients.

    Weight gradients are of the mean loss. Input gradients are per sample:
    row i is the gradient of sample i's own (unaveraged) loss, i.e. n times
    the mean-loss gradient, since losses do not couple across rows.
    """
    if wrt not in ("weights", "inputs", "both"):
        raise ValueError(f"wrt must be 'weights', 'inputs' or 'both', not {wrt!r}")
    want_w = wrt in ("weights", "both")
    want_x = wrt in ("inputs", "both")
    x = batch.inputs
    leaves = (list(params.weights.values()) if want_w else []) + ([x] if want_x else [])
    with tc.Tape(leaves) as tape:
        logits = forward_logits(params, x)
        loss = tc.softmax_cross_entropy(logits, batch.labels)
    grads = tc.backward(tape, loss)
    weight_grads = None
    if want_w:
        weight_grads = {
            name: grads[t].data if t in grads else np.zeros(t.shape)
            for name, t in params.weights.items()
        }
    input_grads = None
    if want_x:
        input_grads = batch.n * grads[x].data if x in grads else np.zeros(x.shape)
    return loss.item(), weight_grads, input_grads


def batch_loss(params: ModelParams, batch: Dataset) -> float:
    """Mean cross-entropy, no gradients, no tape."""
    logits = forward_logits(params, batch.inputs)
    return tc.softmax_cross_entropy(logits, batch.labels).item()


def per_sample_losses(params: ModelParams, batch: Dataset) -> np.ndarray:
    """Each sample's own cross-entropy, shape (n,)."""
    logits = forward_logits(params, batch.inputs).data
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_softmax = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -(batch.labels.data * log_softmax).sum(axis=1)


def predict(params: ModelParams, inputs) -> np.ndarray:
    """Argmax class indices; ties break to the lowest class index."""
    if not isinstance(inputs, Tensor):
        inputs = Tensor(inputs)
    return forward_logits(params, inputs).data.argmax(axis=1)


def accuracy(params: ModelParams, inputs, labels) -> float:
    """Fraction of argmax predictions matching one-hot ``labels``."""
    labels = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
    pred = predict(params, inputs)
    return float(np.mean(pred == labels.argmax(axis=1)))
