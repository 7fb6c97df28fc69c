"""Independent numerical verification machinery.

Gradients are central finite differences, independent of the tape autodiff.
Gibbs moments come from explicit grid integration, independent of the
chain; ``chain_moment_check`` referees the samples of the production
``sampler.l2_chain`` against them. ``atent_outer_gradient`` takes separate
weight passes over frozen samples, independent of the chain's fused
accumulation. The smoothness/dissipativity inequalities are evaluated
pointwise from their definitions. ``conv_block_forward`` computes the CNN
block by direct loops, independent of the tape's unfold, GEMM and pooling
helpers. The density and inequality oracles are restricted to 1-D/2-D
domains where exact densities are tractable; the claims they check are
dimension-generic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .models import ModelParams, loss_and_grads


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``x``, coordinate by
    coordinate. Exact (up to rounding) on affine functions."""
    if h <= 0:
        raise ValueError("finite difference step h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = float(f(x))
        xf[i] = orig - h
        fm = float(f(x))
        xf[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise |approx - exact| / max(|exact|, floor)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.abs(exact), floor)
    return float(np.max(np.abs(approx - exact) / denom)) if approx.size else 0.0


def conv_block_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                       pool: int = 2) -> np.ndarray:
    """relu(max_pool(conv(x, kernels) + bias)) by direct loops, the value
    reference for ``tensor.conv_block``.

    The convolution is a stride-1 cross-correlation with kh//2, kw//2 zero
    padding: each output position (i, j) sums the in-plane part of its
    window against the kernel taps that meet it, for the whole batch at
    once. The pool visits each non-overlapping pool x pool window in
    row-major order and takes a cell only when it is strictly greater than
    the max so far, so the first maximum wins; rows and columns that fill
    no window are dropped. ReLU comes last."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernels.shape
    ry, rx = kh // 2, kw // 2
    pre = np.empty((n, cout, h, w))
    for i in range(h):
        for j in range(w):
            y0, y1 = max(0, i - ry), min(h, i + ry + 1)
            x0, x1 = max(0, j - rx), min(w, j + rx + 1)
            taps = kernels[:, :, y0 - i + ry:y1 - i + ry, x0 - j + rx:x1 - j + rx]
            pre[:, :, i, j] = np.tensordot(x[:, :, y0:y1, x0:x1], taps,
                                           axes=([1, 2, 3], [1, 2, 3])) + bias
    out = np.empty((n, cout, h // pool, w // pool))
    for i in range(h // pool):
        for j in range(w // pool):
            best = pre[:, :, i * pool, j * pool]
            for dy in range(pool):
                for dx in range(pool):
                    cell = pre[:, :, i * pool + dy, j * pool + dx]
                    best = np.where(cell > best, cell, best)
            out[:, :, i, j] = best
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# Grid Gibbs density


@dataclass
class GridDensity:
    """Discretized density exp(L(x') - gamma/2 ||x' - anchor||^2) on a grid.

    ``probs`` are point masses at cell centers normalized to sum to 1.
    """

    bounds: list[tuple[float, float]]
    resolution: int
    axes: list[np.ndarray]
    log_density: np.ndarray
    probs: np.ndarray

    def mean(self) -> np.ndarray:
        dims = len(self.axes)
        out = np.zeros(dims)
        for d, ax in enumerate(self.axes):
            marg = self._marginal(d)
            out[d] = float((ax * marg).sum())
        return out

    def variance(self) -> np.ndarray:
        dims = len(self.axes)
        mu = self.mean()
        out = np.zeros(dims)
        for d, ax in enumerate(self.axes):
            marg = self._marginal(d)
            out[d] = float((((ax - mu[d]) ** 2) * marg).sum())
        return out

    def _marginal(self, dim: int) -> np.ndarray:
        if self.probs.ndim == 1:
            return self.probs
        other = tuple(i for i in range(self.probs.ndim) if i != dim)
        return self.probs.sum(axis=other)


def grid_gibbs_density(loss_fn, anchor, gamma: float, bounds, resolution: int) -> GridDensity:
    """Normalized grid probabilities for the high-loss neighborhood measure.

    ``loss_fn`` maps an (N, d) array of points to (N,) losses. Only d in
    {1, 2} is supported. Overflow is guarded by a max-shift of the
    log-density before exponentiation.
    """
    anchor = np.atleast_1d(np.asarray(anchor, dtype=np.float64))
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    d = len(bounds)
    if d not in (1, 2) or anchor.shape != (d,):
        raise ValueError("grid_gibbs_density supports 1-D or 2-D domains with matching anchor")
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError("every bound must satisfy lo < hi")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")

    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    if d == 1:
        points = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.stack([g0.reshape(-1), g1.reshape(-1)], axis=1)
    losses = np.asarray(loss_fn(points), dtype=np.float64).reshape(points.shape[0])
    if not np.all(np.isfinite(losses)):
        raise ValueError("loss_fn produced non-finite values on the grid")
    sq = ((points - anchor[None, :]) ** 2).sum(axis=1)
    log_density = losses - 0.5 * gamma * sq
    shifted = log_density - log_density.max()
    weights = np.exp(shifted)
    probs = weights / weights.sum()
    shape = (resolution,) if d == 1 else (resolution, resolution)
    return GridDensity(
        bounds=bounds,
        resolution=resolution,
        axes=axes,
        log_density=log_density.reshape(shape),
        probs=probs.reshape(shape),
    )


def atent_outer_gradient(params: ModelParams, batch: Dataset, samples,
                         alpha: float) -> dict[str, np.ndarray]:
    """EMA-weighted weight gradient over frozen chain samples: the reference
    the chain's fused ``weight_grads`` is checked against, and itself
    checked against finite differences."""
    acc = {name: np.zeros(t.shape) for name, t in params.weights.items()}
    for x_k in samples:
        _, wg, _ = loss_and_grads(params, batch.with_inputs(x_k), wrt="weights")
        for name in acc:
            acc[name] = (1.0 - alpha) * acc[name] + alpha * wg[name]
    return acc


@dataclass
class MomentCheckReport:
    kept_samples: int
    empirical_mean: np.ndarray
    empirical_variance: np.ndarray
    grid_mean: np.ndarray
    grid_variance: np.ndarray
    mean_rel_err: float
    variance_rel_err: float
    rel_tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(
            self.mean_rel_err <= self.rel_tol and self.variance_rel_err <= self.rel_tol
        )


def chain_moment_check(
    samples: np.ndarray,
    grid: GridDensity,
    rel_tol: float = 0.10,
    burn_in: float = 0.20,
) -> MomentCheckReport:
    """Compare post-burn-in chain moments against grid-integrated moments.

    ``samples`` is the full chain (n_steps, d); the first ``burn_in``
    fraction is discarded. Mean errors are measured relative to the grid
    standard deviation so an anchor at 0 does not blow up the ratio.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if not np.all(np.isfinite(samples)):
        raise ValueError("chain diverged: non-finite samples")
    n = samples.shape[0]
    kept = samples[int(round(burn_in * n)):]
    emp_mean = kept.mean(axis=0)
    emp_var = kept.var(axis=0)
    g_mean = grid.mean()
    g_var = grid.variance()
    g_std = np.sqrt(g_var)
    mean_err = float(np.max(np.abs(emp_mean - g_mean) / np.maximum(np.abs(g_mean), g_std)))
    var_err = float(np.max(np.abs(emp_var - g_var) / g_var))
    return MomentCheckReport(
        kept_samples=kept.shape[0],
        empirical_mean=emp_mean,
        empirical_variance=emp_var,
        grid_mean=g_mean,
        grid_variance=g_var,
        mean_rel_err=mean_err,
        variance_rel_err=var_err,
        rel_tol=rel_tol,
    )


# ---------------------------------------------------------------------------
# Smoothness / dissipativity of the effective chain objective


@dataclass
class LemmaCheckReport:
    """Sampled verification that F(x') = gamma/2 ||x'-anchor||^2 - L(x') is
    (beta+gamma)-smooth and (gamma/4, L^2/gamma + gamma/2 ||anchor||^2)
    dissipative, given certified beta and Lipschitz constants for L."""

    n_points: int
    beta: float
    lipschitz: float
    gamma: float
    smoothness_bound: float      # beta + gamma
    smoothness_ratio: float      # max observed gradient-difference ratio
    m: float                     # gamma / 4
    b: float                     # L^2/gamma + gamma/2 ||anchor||^2
    dissipativity_margin: float  # min over points of <grad F, x'> - (m||x'||^2 - b)
    smooth_ok: bool = field(init=False)
    dissipative_ok: bool = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.smooth_ok = bool(self.smoothness_ratio <= self.smoothness_bound + 1e-8)
        self.dissipative_ok = bool(self.dissipativity_margin >= 0.0)
        self.passed = self.smooth_ok and self.dissipative_ok


def lemma1_check(
    grad_fn,
    beta: float,
    lipschitz: float,
    gamma: float,
    anchor,
    bounds,
    n_points: int = 10_000,
    seed: int = 0,
) -> LemmaCheckReport:
    """Probe the effective-loss inequalities at random points in ``bounds``.

    ``grad_fn`` is the analytic gradient of the raw loss L; ``beta`` and
    ``lipschitz`` are its certified smoothness/Lipschitz constants on the
    (bounded) domain. The reported constants are computed from the inputs.
    """
    anchor = np.atleast_1d(np.asarray(anchor, dtype=np.float64))
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    if anchor.shape != lo.shape:
        raise ValueError("anchor dimension must match bounds")
    rng = np.random.default_rng(seed)
    d = anchor.size

    def grad_F(pts: np.ndarray) -> np.ndarray:
        raw = np.stack([np.asarray(grad_fn(p), dtype=np.float64) for p in pts])
        return gamma * (pts - anchor[None, :]) - raw

    p1 = lo + (hi - lo) * rng.random((n_points, d))
    p2 = lo + (hi - lo) * rng.random((n_points, d))
    close = np.linalg.norm(p2 - p1, axis=1) < 1e-9
    p2[close] += 1e-6  # avoid 0/0 on coincident pairs
    g1 = grad_F(p1)
    g2 = grad_F(p2)
    ratios = np.linalg.norm(g2 - g1, axis=1) / np.linalg.norm(p2 - p1, axis=1)

    m = gamma / 4.0
    b = lipschitz**2 / gamma + 0.5 * gamma * float(anchor @ anchor)
    inner = (g1 * p1).sum(axis=1)
    margins = inner - (m * (p1 * p1).sum(axis=1) - b)

    return LemmaCheckReport(
        n_points=int(n_points),
        beta=float(beta),
        lipschitz=float(lipschitz),
        gamma=float(gamma),
        smoothness_bound=float(beta + gamma),
        smoothness_ratio=float(ratios.max()),
        m=m,
        b=b,
        dissipativity_margin=float(margins.min()),
    )
