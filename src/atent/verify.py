"""Structured verification suites behind the CLI ``verify`` subcommand.

Each check compares an implementation path against an independent oracle
(finite differences, grid integration, analytic stationary laws) and
reports pass/fail with a measured detail. Negative controls assert that a
deliberately wrong input FAILS its check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .models import Batch, batch_loss, build_mlp, build_small_cnn, loss_and_grads
from .oracle import (
    atent_outer_gradient,
    chain_moment_check,
    conv_block_forward,
    finite_difference_grad,
    grid_gibbs_density,
    lemma1_check,
    relative_error,
)
from .sampler import GibbsSamplerConfig, l2_chain, run_chain, weight_langevin_chain
from .seeding import derive_rng
from .tensor import Tensor

GRAD_TOL = 1e-4
AFFINE_TOL = 1e-6
# conv_block against the direct-loop oracle: the sums run in another order,
# so values agree to rounding, not bitwise (error over max(|value|, 1))
CONV_VALUE_TOL = 1e-12
MOMENT_TOL = 0.10
KEPT_SAMPLES = 50_000
CHAIN_STEPS = math.ceil(KEPT_SAMPLES / 0.8)  # the first 20% is burn-in


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.suite}] {self.name}: {status} ({self.detail})"


def _fd_vs_autodiff(name, build_scalar, leaves, tol) -> CheckResult:
    """build_scalar() evaluates the scalar; the gradient wrt each of the
    ``leaves`` vs central FD, reporting the worst relative error."""
    with tc.Tape(leaves) as tape:
        out = build_scalar()
    grads = tc.backward(tape, out)

    err = 0.0
    for leaf in leaves:
        def f(arr, leaf=leaf):
            old = leaf.data
            leaf.data = arr
            try:
                return build_scalar().item()
            finally:
                leaf.data = old

        err = max(err, relative_error(grads[leaf].data,
                                      finite_difference_grad(f, leaf.data.copy())))
    return CheckResult("gradients", name, err <= tol, f"rel err {err:.3e} <= {tol:g}")


def gradient_suite() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(0)

    a = Tensor(rng.random((3, 4)))
    b = Tensor(rng.random((4, 5)))
    results.append(_fd_vs_autodiff(
        "matmul (affine)", lambda: tc.sum_all(tc.matmul(a, b)), (a,), AFFINE_TOL))

    bias = Tensor(rng.random(5))
    results.append(_fd_vs_autodiff(
        "bias add (affine)", lambda: tc.sum_all(tc.add(tc.matmul(a, b), bias)),
        (bias,), AFFINE_TOL))

    # a cross-entropy head pulls a different gradient into every output; the
    # separate generator leaves the data of the checks below unchanged
    lrng = np.random.default_rng(8)
    lx, lw, lb = (Tensor(lrng.normal(size=s)) for s in ((4, 5), (5, 3), (3,)))
    y3 = Tensor(np.eye(3)[[0, 2, 1, 2]])
    for relu in (False, True):
        results.append(_fd_vs_autodiff(
            f"dense{', ReLU' if relu else ''} (input, weights, bias)",
            lambda relu=relu: tc.softmax_cross_entropy(tc.dense(lx, lw, lb, relu), y3),
            (lx, lw, lb), GRAD_TOL))

    x = Tensor(rng.random((2, 2, 6, 6)))
    k = Tensor(rng.random((3, 2, 3, 3)))
    results.append(_fd_vs_autodiff(
        "conv2d (affine)", lambda: tc.sum_all(tc.conv2d(x, k, 1, 1)), (k,), AFFINE_TOL))

    # cross-entropy over the output makes the pulled gradient differ at
    # every position, so the col2im fold of each tap is checked
    y27 = Tensor(np.eye(27)[[4, 19]])
    results.append(_fd_vs_autodiff(
        "conv2d input, stride 2, padding 1",
        lambda: tc.softmax_cross_entropy(tc.reshape(tc.conv2d(x, k, 2, 1), (2, 27)), y27),
        (x,), GRAD_TOL))

    # a 7x7 input drops the last row and column at the pool; the separate
    # generator leaves the data of the checks below unchanged
    crng = np.random.default_rng(5)
    cx = Tensor(crng.random((2, 2, 7, 7)))
    ck = Tensor(crng.normal(size=(3, 2, 3, 3)))
    cb = Tensor(0.1 * crng.normal(size=3))
    results.append(_fd_vs_autodiff(
        "conv block (input, kernels, bias)",
        lambda: tc.softmax_cross_entropy(tc.reshape(tc.conv_block(cx, ck, cb, 2), (2, 27)), y27),
        (cx, ck, cb), GRAD_TOL))

    # a 5x5 kernel reaches two columns past either edge of the 9x7 plane,
    # a wrap of the shifted-run unfold and fold that 3x3 kernels never make
    frng = np.random.default_rng(6)
    fx = Tensor(frng.random((2, 2, 9, 7)))
    fk = Tensor(frng.normal(size=(3, 2, 5, 5)))
    fb = Tensor(0.1 * frng.normal(size=3))
    y36 = Tensor(np.eye(36)[[7, 30]])
    results.append(_fd_vs_autodiff(
        "conv block, 5x5 kernel, 9x7 plane (input, kernels, bias)",
        lambda: tc.softmax_cross_entropy(tc.reshape(tc.conv_block(fx, fk, fb, 2), (2, 36)), y36),
        (fx, fk, fb), GRAD_TOL))

    # finite differences cannot tell a convolution that reads the wrong
    # pixels from a right one; the oracle can. The first sample holds small
    # integers (tied window maxima on the 11x5 plane), the second normal
    # draws; 9x7 at pool 2 and 11x5 at pool 3 leave cells outside every window
    vrng = np.random.default_rng(7)
    err = 0.0
    for shape, kh, pool in (((2, 2, 9, 7), 5, 2), ((2, 3, 11, 5), 3, 3)):
        vx = vrng.integers(-2, 3, size=shape).astype(float)
        vx[1] = vrng.normal(size=shape[1:])
        vk = vrng.integers(-1, 2, size=(3, shape[1], kh, kh)).astype(float)
        vb = vrng.normal(size=3)
        got = tc.conv_block(Tensor(vx), Tensor(vk), Tensor(vb), pool).data
        err = max(err, relative_error(got, conv_block_forward(vx, vk, vb, pool), floor=1.0))
    results.append(CheckResult(
        "gradients", "conv block values vs direct-loop oracle (5x5 and 3x3 kernels)",
        err <= CONV_VALUE_TOL, f"rel err {err:.3e} <= {CONV_VALUE_TOL:g}"))

    r = Tensor(rng.random(30) * 2 - 1.0)
    results.append(_fd_vs_autodiff(
        "relu", lambda: tc.sum_all(tc.relu(r)), (r,), GRAD_TOL))

    z = Tensor(rng.normal(size=(4, 6)))
    y = Tensor(np.eye(6)[rng.integers(0, 6, 4)])
    results.append(_fd_vs_autodiff(
        "softmax cross-entropy", lambda: tc.softmax_cross_entropy(z, y), (z,), GRAD_TOL))

    mp = Tensor(rng.random((1, 2, 6, 6)))
    results.append(_fd_vs_autodiff(
        "max pool", lambda: tc.sum_all(tc.max_pool2d(mp, 2)), (mp,), GRAD_TOL))

    cases = _end_to_end_cases(rng)
    for name, params, batch in cases:
        _, wg, xg = loss_and_grads(params, batch, wrt="both")
        worst = _worst_weight_error(params, lambda: batch_loss(params, batch), wg)

        def fx(arr):
            return batch.n * batch_loss(params, batch.with_inputs(arr))

        fd_x = finite_difference_grad(fx, batch.inputs.data.copy())
        worst = max(worst, relative_error(xg, fd_x))
        results.append(CheckResult(
            "gradients", f"end-to-end {name}", worst <= GRAD_TOL,
            f"worst rel err {worst:.3e} <= {GRAD_TOL:g}"))

    # the chain's fused outer gradient is sum_k c_k grad_w L(w; x'_k) with
    # the samples frozen, and equals the separate-pass reference bitwise; a
    # training run keeps no iterate, so a sampling run on its stream gives them
    scfg = GibbsSamplerConfig(gamma=1.5, step=0.1, steps=3, noise_scale=0.2, ema=0.6)
    for name, params, batch in (cases[0], cases[2]):
        run = run_chain(params, batch, scfg, derive_rng(4), weight_grads=True)
        samples = run_chain(params, batch, scfg, derive_rng(4)).samples
        coeff = [scfg.ema * (1.0 - scfg.ema) ** (scfg.steps - k) for k in range(1, scfg.steps + 1)]
        worst = _worst_weight_error(
            params, lambda: sum(c * batch_loss(params, batch.with_inputs(x))
                                for c, x in zip(coeff, samples)),
            run.weight_grads)
        ref = atent_outer_gradient(params, batch, samples, scfg.ema)
        same = all(np.array_equal(run.weight_grads[n], ref[n]) for n in ref)
        results.append(CheckResult(
            "gradients", f"ATENT outer gradient {name}", worst <= GRAD_TOL and same,
            f"worst rel err {worst:.3e} <= {GRAD_TOL:g}; "
            f"{'equals' if same else 'differs from'} the frozen-sample reference bitwise"))

    return results


def _worst_weight_error(params, loss, wg) -> float:
    """Worst relative error of the weight gradients ``wg`` against central
    differences of ``loss()`` in each weight tensor."""
    def loss_at(t, arr):
        old, t.data = t.data, arr
        try:
            return loss()
        finally:
            t.data = old

    return max(relative_error(wg[name], finite_difference_grad(
        lambda arr, t=t: loss_at(t, arr), t.data.copy())) for name, t in params.weights.items())


def _end_to_end_cases(rng):
    p1 = build_mlp([2, 16, 2], seed=1)
    b1 = Batch(rng.random((6, 2)), np.eye(2)[rng.integers(0, 2, 6)])
    p2 = build_mlp([6, 16, 12, 3], seed=2)
    b2 = Batch(rng.random((5, 6)), np.eye(3)[rng.integers(0, 3, 5)])
    p3 = build_small_cnn([2], [8, 3], seed=3, in_shape=(1, 8, 8))
    b3 = Batch(rng.random((3, 1, 8, 8)), np.eye(3)[rng.integers(0, 3, 3)])
    return [("mlp", p1, b1), ("deep mlp", p2, b2), ("small cnn", p3, b3)]


# ---------------------------------------------------------------------------


def scalar_chain(gamma, grad_fn, seed, anchor=0.3, steps=CHAIN_STEPS):
    """The points x'_1..x'_steps of the noisy l2 chain at step 0.01 on a
    one-dimensional loss gradient ``grad_fn``, as a (steps, 1) array."""
    cfg = GibbsSamplerConfig(gamma=gamma, step=0.01, steps=steps, noise_scale=1.0)
    chain = l2_chain(lambda p: {"x": grad_fn(p["x"])}, {"x": np.array([anchor])}, cfg,
                     derive_rng(seed))
    return np.array([p["x"] for p in chain])


def _weight_chain(gamma, a, seed, anchor=0.3, step=0.01):
    """Points Entropy-SGD's weight chain visits on L(w) = a w^2, as its
    gradient callback sees them."""
    visited = []

    def grad_fn(w):
        visited.append(w["w"][0])
        return {"w": 2 * a * w["w"]}

    cfg = GibbsSamplerConfig(gamma=gamma, step=step, steps=CHAIN_STEPS, noise_scale=1.0)
    weight_langevin_chain(grad_fn, {"w": np.array([anchor])}, cfg, derive_rng(seed))
    return np.array(visited)


def _control_detail(rep) -> str:
    """Both moment errors of a negative control, which passes when either misses."""
    return (f"rel errs mean {rep.mean_rel_err:.3f} var {rep.variance_rel_err:.3f} "
            f"(one must exceed {MOMENT_TOL})")


def sampler_suite() -> list[CheckResult]:
    results = []
    gamma, anchor = 4.0, 0.3

    const_grid = grid_gibbs_density(lambda pts: np.zeros(pts.shape[0]), anchor,
                                    gamma, [(anchor - 4.0, anchor + 4.0)], 2001)
    const_chain = scalar_chain(gamma, lambda v: np.zeros_like(v), seed=10)
    rep = chain_moment_check(const_chain, const_grid, rel_tol=MOMENT_TOL)
    var = rep.empirical_variance[0]
    results.append(CheckResult(
        "sampler", "constant loss variance 1/gamma", rep.passed,
        f"var {var:.4f} vs {1 / gamma:.4f}, rel errs mean {rep.mean_rel_err:.3f} "
        f"var {rep.variance_rel_err:.3f} <= {MOMENT_TOL}"))

    a = 1.0
    mean_t = gamma * anchor / (gamma - 2 * a)
    quad_grid = grid_gibbs_density(lambda pts: a * pts[:, 0] ** 2, anchor, gamma,
                                   [(mean_t - 6.0, mean_t + 6.0)], 2001)
    quad_chain = scalar_chain(gamma, lambda v: 2 * a * v, seed=11)
    rep = chain_moment_check(quad_chain, quad_grid, rel_tol=MOMENT_TOL)
    results.append(CheckResult(
        "sampler", "quadratic loss mean/variance vs grid", rep.passed,
        f"mean {rep.empirical_mean[0]:.4f} vs {rep.grid_mean[0]:.4f}, "
        f"var {rep.empirical_variance[0]:.4f} vs {rep.grid_variance[0]:.4f}"))

    wrong_chain = scalar_chain(2 * gamma, lambda v: np.zeros_like(v), seed=12)
    rep = chain_moment_check(wrong_chain, const_grid, rel_tol=MOMENT_TOL)
    results.append(CheckResult(
        "sampler", "negative control: mismatched gamma fails", not rep.passed,
        _control_detail(rep)))

    # the weight chain descends: its target exp(-a w^2 - gamma/2 (w - w0)^2)
    # has mean gamma w0 / (gamma + 2a) = 0.2 and variance 1 / (gamma + 2a)
    weight_grid = grid_gibbs_density(lambda pts: -a * pts[:, 0] ** 2, anchor, gamma,
                                     [(anchor - 4.0, anchor + 4.0)], 2001)
    rep = chain_moment_check(_weight_chain(gamma, a, seed=13), weight_grid, rel_tol=MOMENT_TOL)
    results.append(CheckResult(
        "sampler", "weight chain (Entropy-SGD) mean/variance vs grid", rep.passed,
        f"mean {rep.empirical_mean[0]:.4f} vs {rep.grid_mean[0]:.4f}, "
        f"var {rep.empirical_variance[0]:.4f} vs {rep.grid_variance[0]:.4f}"))
    rep = chain_moment_check(_weight_chain(2 * gamma, a, seed=14), weight_grid,
                             rel_tol=MOMENT_TOL)
    results.append(CheckResult(
        "sampler", "negative control: weight chain at 2 gamma fails", not rep.passed,
        _control_detail(rep)))

    return results


def lemma1_suite() -> list[CheckResult]:
    results = []
    gamma = 3.0
    lip = 2.0 * math.sqrt(50.0)
    report = lemma1_check(lambda v: 2.0 * np.asarray(v), beta=2.0, lipschitz=lip,
                          gamma=gamma, anchor=[0.5, 0.5], bounds=[(-5, 5), (-5, 5)],
                          n_points=10_000, seed=0)
    results.append(CheckResult(
        "lemma1", "quadratic smoothness ratio <= beta+gamma", report.smooth_ok,
        f"ratio {report.smoothness_ratio:.4f} <= {report.smoothness_bound:.4f}"))
    results.append(CheckResult(
        "lemma1", "quadratic dissipativity margin >= 0", report.dissipative_ok,
        f"margin {report.dissipativity_margin:.4f} with m={report.m}, b={report.b:.3f}"))

    r2 = lemma1_check(lambda v: 2.0 * np.asarray(v), beta=2.0, lipschitz=lip,
                      gamma=2 * gamma, anchor=[0.5, 0.5], bounds=[(-5, 5), (-5, 5)],
                      n_points=100, seed=0)
    results.append(CheckResult(
        "lemma1", "gamma doubling doubles m", r2.m == 2 * report.m,
        f"m {report.m} -> {r2.m}"))

    neg = lemma1_check(lambda v: -2.0 * np.asarray(v), beta=0.5, lipschitz=lip,
                       gamma=gamma, anchor=[0.0, 0.0], bounds=[(-5, 5), (-5, 5)],
                       n_points=2000, seed=1)
    results.append(CheckResult(
        "lemma1", "negative control: understated beta fails", not neg.smooth_ok,
        f"ratio {neg.smoothness_ratio:.4f} vs bound {neg.smoothness_bound:.4f}"))

    neg2 = lemma1_check(lambda v: 2.0 * np.asarray(v), beta=2.0, lipschitz=1.0,
                        gamma=gamma, anchor=[3.0, 0.0], bounds=[(-5, 5), (-5, 5)],
                        n_points=5000, seed=2)
    results.append(CheckResult(
        "lemma1", "negative control: understated Lipschitz fails",
        not neg2.dissipative_ok, f"margin {neg2.dissipativity_margin:.4f}"))

    return results


SUITES = {
    "gradients": gradient_suite,
    "sampler": sampler_suite,
    "lemma1": lemma1_suite,
}


def run_suites(which: str = "all") -> list[CheckResult]:
    names = list(SUITES) if which == "all" else [which]
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {list(SUITES)} or 'all'")
        results.extend(SUITES[name]())
    return results
