"""Langevin sampling of high-loss neighborhoods of training inputs.

The chain targets the measure exp(L(x') - gamma/2 * dist(x', x)) around the
clean anchor x: squared-l2 distance for the isotropic chain, an l-inf
penalty for the sup-norm chain, realized by the P_gamma clamp of its last
increment to [-1/gamma, 1/gamma]. Partition functions are never computed;
the Langevin drift of log-density cancels them.

``run_chain`` is the input chain of ATENT. In training mode it returns the
loss EMA and the outer gradient and keeps no iterate; in sampling mode, the
ATENT attack's, it returns the iterates and no loss. ``l2_chain`` is the
one loop of l2 steps on a caller's gradient: Entropy-SGD's weight chain
runs it on the negated loss gradient, and ``verify`` runs scalar chains on
it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import ModelParams, loss_and_grads
from .tensor import _check_finite

L2 = "l2"
LINF = "linf"


@dataclass
class GibbsSamplerConfig:
    """Inner-loop knobs of the neighborhood sampler.

    gamma: distance penalty; large gamma pins samples to the clean input.
    step: Langevin step size (eta').
    steps: chain length K.
    noise_scale: additive-noise factor (eps); 0 gives deterministic ascent.
    ema: loss moving-average factor (alpha) in (0, 1].
    norm: "l2" for the squared-l2 penalty, "linf" for the sup-norm one,
        whose chain clamps its last increment to [-1/gamma, 1/gamma].
    init_radius: std of the normal init perturbation; defaults to 1/gamma.
    The inverse temperature is fixed at 1; noise_scale is the only knob.
    """

    gamma: float
    step: float
    steps: int
    noise_scale: float = 0.0
    ema: float = 1.0
    norm: str = L2
    init_radius: float | None = None

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if not (self.step > 0):
            raise ValueError("step must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        if not 0.0 < self.ema <= 1.0:
            raise ValueError("ema must lie in (0, 1]")
        if self.norm not in (L2, LINF):
            raise ValueError(f"norm must be '{L2}' or '{LINF}'")
        if self.init_radius is not None and self.init_radius < 0:
            raise ValueError("init_radius must be nonnegative")

    @property
    def effective_init_radius(self) -> float:
        return 1.0 / self.gamma if self.init_radius is None else self.init_radius


@dataclass
class ChainRun:
    """What ``run_chain`` returns: in sampling mode the iterates x'^1..x'^K
    and no loss or gradient; in training mode no iterate (``samples`` is
    empty), the loss EMA and the outer gradient."""

    samples: list[np.ndarray]
    ema_loss: float | None
    weight_grads: dict[str, np.ndarray] | None = None


def _clip_range(x: np.ndarray, batch: Dataset) -> np.ndarray:
    """``x`` clipped into ``batch.value_range``; ``x`` itself, with no copy
    made, when there is no range or it is already inside."""
    if batch.value_range is None:
        return x
    lo, hi = batch.value_range
    if x.min() >= lo and x.max() <= hi:
        return x
    return np.clip(x, lo, hi)


def init_perturbation(x: np.ndarray, cfg: GibbsSamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """x plus i.i.d. normal noise with std = init_radius (expected
    per-coordinate magnitude init_radius * sqrt(2/pi))."""
    r = cfg.effective_init_radius
    x = np.asarray(x, dtype=np.float64)
    if r == 0.0:
        return x.copy()
    return x + r * rng.standard_normal(x.shape)


def _plus_noise(v: np.ndarray, cfg: GibbsSamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """v + sqrt(2 eta') * eps * N(0, I); ``v`` itself, drawing nothing, when eps = 0."""
    if cfg.noise_scale == 0.0:
        return v
    return v + math.sqrt(2.0 * cfg.step) * cfg.noise_scale * rng.standard_normal(v.shape)


def langevin_step_l2(x_prime: np.ndarray, anchor: np.ndarray, grad: np.ndarray,
                     cfg: GibbsSamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """x' <- x' + eta' * (grad + gamma * (x - x')) + sqrt(2 eta') * eps * N(0, I).
    ``cfg.norm`` is not read."""
    drift = grad + cfg.gamma * (anchor - x_prime)
    return _check_finite(_plus_noise(x_prime + cfg.step * drift, cfg, rng), "Langevin step")


def l2_chain(grad_fn, anchor: dict[str, np.ndarray], cfg: GibbsSamplerConfig,
             rng: np.random.Generator):
    """Yield x'_1..x'_K of the chain from x'_0 = ``anchor``, a dict of
    arrays: x'_k is ``langevin_step_l2`` from x'_(k-1) along the dict
    ``grad_fn(x'_(k-1))``, one array after another in key order. Nothing
    is written in place."""
    x_prime = anchor
    for _ in range(cfg.steps):
        grad = grad_fn(x_prime)
        x_prime = {k: langevin_step_l2(x_prime[k], anchor[k], grad[k], cfg, rng) for k in anchor}
        yield x_prime


def weight_langevin_chain(grad_fn, anchor: dict[str, np.ndarray],
                          cfg: GibbsSamplerConfig, rng) -> dict[str, np.ndarray]:
    """Weight-space Langevin chain of the local-entropy objective:
    ``l2_chain`` on the negated loss gradient ``grad_fn(w) -> dict``, so it
    drifts along -grad + gamma (anchor - w'). Returns the weight EMA
    mu <- (1-alpha) mu + alpha w', which starts at the anchor."""
    mu = dict(anchor)
    chain = l2_chain(lambda w: {k: -g for k, g in grad_fn(w).items()}, anchor, cfg, rng)
    for w_prime in chain:
        mu = {k: (1.0 - cfg.ema) * mu[k] + cfg.ema * w_prime[k] for k in mu}
    return mu


def project_linf_increment(z: np.ndarray, gamma: float) -> np.ndarray:
    """Sign-preserving elementwise clamp of an update increment to
    [-1/gamma, +1/gamma]."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    bound = 1.0 / gamma
    return np.clip(z, -bound, bound)


def langevin_step(x_prime: np.ndarray, anchor: np.ndarray, grad: np.ndarray,
                  cfg: GibbsSamplerConfig, rng: np.random.Generator, k: int) -> np.ndarray:
    """Step ``k`` (1-based) of the input chain: ``langevin_step_l2`` for the
    l2 norm, else the sup-norm step x' + P(eta' * grad + sqrt(2 eta') * eps *
    N(0, I)), where P is the identity before the K-th step and
    ``project_linf_increment`` on it."""
    if cfg.norm == L2:
        return langevin_step_l2(x_prime, anchor, grad, cfg, rng)
    inc = _plus_noise(cfg.step * grad, cfg, rng)
    if k == cfg.steps:
        inc = project_linf_increment(inc, cfg.gamma)
    return _check_finite(x_prime + inc, "Langevin step")


def run_chain(
    params: ModelParams,
    batch: Dataset,
    cfg: GibbsSamplerConfig,
    rng: np.random.Generator,
    weight_grads: bool = False,
) -> ChainRun:
    """Initialize with a normal perturbation and run K Langevin steps with
    per-sample own-loss input gradients.

    In sampling mode (``weight_grads`` off) the chain makes K input-gradient
    passes, at x'^0..x'^(K-1), and returns the iterates x'^1..x'^K in
    ``ChainRun.samples``, with ``ema_loss`` and ``weight_grads`` None.

    In training mode it keeps no iterate (``samples`` is empty). It
    accumulates the loss EMA mu <- (1-alpha) mu + alpha * L(w; x'^k),
    mu^0 = 0, and the same recurrence over the weight gradients of the mean
    loss at x'^1..x'^K (zero start), ATENT's outer gradient, in
    ``ChainRun.weight_grads``. Each sample takes one pass: x'^0 for input
    gradients, x'^1..x'^(K-1) for both, x'^K for weight gradients only.
    Both modes draw the same numbers and visit the same iterates, and
    neither holds an input gradient past the step that uses it, nor a pass's
    weight gradients past the accumulator's update.

    Iterate clipping follows ``batch.value_range``. When the batch declares
    a range, the initial point and every iterate are clipped back into it:
    the training chain relies on this, because the adversarial-input
    distribution has bounded support, and off-range samples would train
    against perturbations the evaluation attacks can never realize. A batch
    with no range runs the chain unclipped; the ATENT attack passes one and
    clips only its final, projected point.
    """
    anchor = batch.inputs.data
    x_prime = _clip_range(init_perturbation(anchor, cfg, rng), batch)
    _, _, grad_x = loss_and_grads(params, batch.with_inputs(x_prime), wrt="inputs")
    if not weight_grads:
        samples = []
        for k in range(1, cfg.steps + 1):
            x_prime = _clip_range(langevin_step(x_prime, anchor, grad_x, cfg, rng, k), batch)
            del grad_x
            samples.append(x_prime)
            if k < cfg.steps:
                _, _, grad_x = loss_and_grads(params, batch.with_inputs(x_prime), wrt="inputs")
        return ChainRun(samples=samples, ema_loss=None)
    alpha, ema_loss = cfg.ema, 0.0
    acc = {name: np.zeros(t.shape) for name, t in params.weights.items()}
    for k in range(1, cfg.steps + 1):
        x_prime = _clip_range(langevin_step(x_prime, anchor, grad_x, cfg, rng, k), batch)
        del grad_x
        loss, wg, grad_x = loss_and_grads(params, batch.with_inputs(x_prime),
                                          wrt="both" if k < cfg.steps else "weights")
        ema_loss = (1.0 - alpha) * ema_loss + alpha * loss
        acc = {name: (1.0 - alpha) * acc[name] + alpha * wg[name] for name in acc}
        del wg
    return ChainRun(samples=[], ema_loss=ema_loss, weight_grads=acc)
