"""Langevin neighborhood sampler: step arithmetic, projections, chains."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atent.models
import atent.sampler
from atent.attacks import AttackConfig, run_attack
from atent.data import Dataset
from atent.models import build_mlp, build_small_cnn, loss_and_grads
from atent.oracle import atent_outer_gradient
from atent.sampler import (
    GibbsSamplerConfig,
    init_perturbation,
    langevin_step,
    langevin_step_l2,
    project_linf_increment,
    run_chain,
)
from atent.seeding import derive_rng


def _cfg(**kw):
    base = dict(gamma=1.0, step=0.1, steps=1)
    base.update(kw)
    return GibbsSamplerConfig(**base)


def _a(values):
    return np.asarray(values, dtype=float)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(gamma=0.0),
            dict(step=-1.0),
            dict(steps=0),
            dict(noise_scale=-0.1),
            dict(ema=0.0),
            dict(ema=1.5),
            dict(norm="l1"),
            dict(init_radius=-1.0),
            dict(gamma=math.nan),
            dict(step=math.nan),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            _cfg(**kw)

    def test_beta_keyword_is_refused(self):
        # the inverse temperature is fixed at 1 and is not a field
        with pytest.raises(TypeError):
            _cfg(beta=2.0)

    def test_init_radius_defaults_to_inverse_gamma(self):
        assert _cfg(gamma=4.0).effective_init_radius == 0.25
        assert _cfg(gamma=4.0, init_radius=0.5).effective_init_radius == 0.5


class TestInitPerturbation:
    def test_zero_radius_returns_input_exactly(self):
        x = np.array([0.2, -0.4])
        out = init_perturbation(x, _cfg(init_radius=0.0), derive_rng(0))
        assert np.array_equal(out, x)
        assert out is not x

    def test_same_seed_same_delta(self):
        x = np.zeros(10)
        cfg = _cfg(init_radius=0.3)
        a = init_perturbation(x, cfg, derive_rng(7))
        b = init_perturbation(x, cfg, derive_rng(7))
        assert np.array_equal(a, b)

    def test_half_normal_magnitude_target(self):
        r = 0.25
        draws = init_perturbation(np.zeros(100_000), _cfg(init_radius=r), derive_rng(1))
        target = r * math.sqrt(2.0 / math.pi)
        assert abs(np.abs(draws).mean() - target) <= 0.05 * target


class TestLangevinStepL2:
    def test_scalar_arithmetic_case_one(self):
        # x=0, x'=0, grad=2, gamma=1, step=0.1, no noise -> 0.2
        out = langevin_step_l2(_a([0.0]), _a([0.0]), np.array([2.0]), _cfg(gamma=1.0, step=0.1),
                               derive_rng(0))
        assert out[0] == pytest.approx(0.2, abs=0)

    def test_scalar_arithmetic_case_two(self):
        # x=1, x'=1.5, grad=0, gamma=2, step=0.25 -> 1.25
        out = langevin_step_l2(_a([1.5]), _a([1.0]), np.array([0.0]), _cfg(gamma=2.0, step=0.25),
                               derive_rng(0))
        assert out[0] == pytest.approx(1.25, abs=0)

    def test_noise_free_step_equals_regularized_ascent_bitwise(self):
        # gradient-ascent step on L(x') - gamma/2 ||x' - x||^2, written the other way
        rng = np.random.default_rng(5)
        x = rng.random(6)
        xp = rng.random(6)
        g = rng.normal(size=6)
        gamma, eta = 3.7, 0.05
        out = langevin_step_l2(xp, x, g, _cfg(gamma=gamma, step=eta), derive_rng(0))
        reference = xp + eta * (g - gamma * (xp - x))
        assert np.array_equal(out, reference)

    def test_nonfinite_update_rejected(self):
        from atent.tensor import NonFiniteError

        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            langevin_step_l2(_a([1.0]), _a([0.0]), np.array([1e308]), _cfg(step=1e308),
                             derive_rng(0))

    def test_constant_loss_stationary_variance(self):
        # zero gradient, noise 1: stationary law N(x, I/gamma); gamma=4
        gamma, eta = 4.0, 0.01
        cfg = _cfg(gamma=gamma, step=eta, noise_scale=1.0)
        rng = derive_rng(42)
        x_prime, anchor = _a([0.5]), _a([0.5])
        n = 30_000
        samples = np.empty(n)
        for i in range(n):
            x_prime = langevin_step_l2(x_prime, anchor, np.zeros(1), cfg, rng)
            samples[i] = x_prime[0]
        kept = samples[n // 5:]
        assert abs(kept.var() - 1.0 / gamma) <= 0.10 / gamma

    def test_tempering_variance_scales_with_noise_squared(self):
        gamma, eta = 4.0, 0.01
        rng = derive_rng(9)

        def spread(noise):
            cfg = _cfg(gamma=gamma, step=eta, noise_scale=noise)
            x_prime, anchor = _a([0.0]), _a([0.0])
            vals = np.empty(20_000)
            for i in range(vals.size):
                x_prime = langevin_step_l2(x_prime, anchor, np.zeros(1), cfg, rng)
                vals[i] = x_prime[0]
            return vals[4_000:].var()

        big = spread(1.0)
        small = spread(0.001)
        assert abs(big - 1.0 / gamma) <= 0.10 / gamma
        # near-deterministic regime: variance collapses by the noise ratio squared
        assert small <= 1e-4 * big


class TestProjectLinfIncrement:
    def test_identity_branch(self):
        assert project_linf_increment(np.array([0.05]), 10.0)[0] == 0.05

    def test_clamp_positive_and_negative(self):
        out = project_linf_increment(np.array([0.5, -0.5]), 10.0)
        assert np.array_equal(out, [0.1, -0.1])

    def test_matches_exact_ball_projection(self):
        # nearest point of the l-inf ball of radius 1/gamma, coordinatewise
        rng = np.random.default_rng(3)
        z = rng.normal(size=50) * 0.4
        gamma = 8.0
        ours = project_linf_increment(z, gamma)
        exact = np.array([min(max(v, -1 / gamma), 1 / gamma) for v in z])
        assert np.array_equal(ours, exact)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.1, 100.0))
    def test_containment_and_identity_properties(self, seed, gamma):
        z = np.random.default_rng(seed).normal(size=20) * 2.0
        out = project_linf_increment(z, gamma)
        assert np.max(np.abs(out)) <= 1.0 / gamma + 1e-12
        if np.max(np.abs(z)) <= 1.0 / gamma:
            assert np.array_equal(out, z)


class TestLangevinStepLinf:
    # langevin_step(x_prime, anchor, grad, cfg, rng, k) with k the 1-based step

    def test_final_projection_single_step_clamps(self):
        cfg = _cfg(gamma=10.0, step=1.0, steps=1, norm="linf")
        out = langevin_step(np.zeros(2), np.zeros(2), np.array([0.05, -0.5]), cfg,
                            derive_rng(0), 1)
        assert np.array_equal(out, [0.05, -0.1])

    def test_final_projection_inactive_before_last_step(self):
        cfg = _cfg(gamma=10.0, step=1.0, steps=2, norm="linf")
        g = np.array([0.05, -0.5])
        first = langevin_step(np.zeros(2), np.zeros(2), g, cfg, derive_rng(0), 1)
        assert np.array_equal(first, [0.05, -0.5])  # raw increment
        second = langevin_step(first, np.zeros(2), g, cfg, derive_rng(0), 2)
        assert np.array_equal(second, [0.1, -0.6])  # clamped increment


class TestRunChain:
    def _constant_loss_setup(self):
        # zero weights -> constant logits -> loss log(2), zero input grads
        p = build_mlp([2, 2], seed=0)
        for t in p.weights.values():
            t.data = np.zeros_like(t.data)
        x = np.array([[0.4, 0.6], [0.1, 0.9]])
        y = np.eye(2)[[0, 1]]
        return p, Dataset(x, y)

    def test_alpha_one_gives_final_sample_loss(self):
        p, batch = self._constant_loss_setup()
        cfg = _cfg(gamma=2.0, step=0.05, steps=4, ema=1.0, init_radius=0.1)
        run = run_chain(p, batch, cfg, derive_rng(0), weight_grads=True)
        assert run.ema_loss == pytest.approx(math.log(2), abs=1e-12)

    def test_constant_loss_geometric_series(self):
        p, batch = self._constant_loss_setup()
        alpha, k = 0.3, 7
        cfg = _cfg(gamma=2.0, step=0.05, steps=k, ema=alpha, init_radius=0.1)
        run = run_chain(p, batch, cfg, derive_rng(1), weight_grads=True)
        expected = math.log(2) * (1.0 - (1.0 - alpha) ** k)
        assert run.ema_loss == pytest.approx(expected, abs=1e-12)

    def test_single_step_hand_computed(self):
        # MLP [1,2], w = [[1, -1]], b = 0; logits (x, -x); true class 0
        p = build_mlp([1, 2], seed=0)
        p.weights["w0"].data = np.array([[1.0, -1.0]])
        x0 = 0.3
        batch = Dataset(np.array([[x0]]), np.array([[1.0, 0.0]]))
        eta, gamma = 0.2, 1.5
        cfg = _cfg(gamma=gamma, step=eta, steps=1, ema=1.0, init_radius=0.0)
        run = run_chain(p, batch, cfg, derive_rng(0))
        trained = run_chain(p, batch, cfg, derive_rng(0), weight_grads=True)
        # own-loss gradient at x0: -2 * (1 - sigmoid(2 x0))
        p0 = 1.0 / (1.0 + math.exp(-2 * x0))
        g = -2.0 * (1.0 - p0)
        x1 = x0 + eta * (g + gamma * (x0 - x0))
        assert run.samples[-1][0, 0] == pytest.approx(x1, abs=1e-15)
        expected_loss = math.log(1.0 + math.exp(-2 * x1))
        assert trained.ema_loss == pytest.approx(expected_loss, abs=1e-12)
        assert len(run.samples) == 1

    def test_seeded_determinism(self):
        rng = np.random.default_rng(11)
        p = build_mlp([3, 8, 2], seed=2)
        batch = Dataset(rng.random((4, 3)), np.eye(2)[rng.integers(0, 2, 4)])
        cfg = _cfg(gamma=1.0, step=0.1, steps=5, noise_scale=0.5, ema=0.9)
        a = run_chain(p, batch, cfg, derive_rng(123))
        b = run_chain(p, batch, cfg, derive_rng(123))
        assert len(a.samples) == len(b.samples) == 5
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa, sb)
        a = run_chain(p, batch, cfg, derive_rng(123), weight_grads=True)
        b = run_chain(p, batch, cfg, derive_rng(123), weight_grads=True)
        assert a.ema_loss == b.ema_loss
        assert all(np.array_equal(a.weight_grads[n], b.weight_grads[n]) for n in a.weight_grads)

    def _range_leaving_chain(self, value_range):
        # MLP [1,2], w = [[1, -1]]; true class 0, so ascent drives x down,
        # past 0 within the first step from x0 = 0.05
        p = build_mlp([1, 2], seed=0)
        p.weights["w0"].data = np.array([[1.0, -1.0]])
        batch = Dataset(np.array([[0.05], [0.9]]), np.eye(2)[[0, 0]], value_range)
        cfg = _cfg(gamma=0.1, step=0.5, steps=3, ema=1.0, init_radius=0.0)
        return run_chain(p, batch, cfg, derive_rng(0))

    def test_value_range_clips_every_iterate(self):
        run = self._range_leaving_chain((0.0, 1.0))
        assert len(run.samples) == 3
        for s in run.samples:
            assert s.min() >= 0.0 and s.max() <= 1.0

    def test_no_value_range_leaves_chain_unclipped(self):
        run = self._range_leaving_chain(None)
        assert min(s.min() for s in run.samples) < 0.0

    def test_training_chain_peak_memory(self):
        # the benchmark's ATENT CNN at batch 32, K 5, l-inf: the training
        # chain keeps no iterate and no spent gradient, conv_block's pull
        # works in half spans and backward frees each record once it is
        # pulled, so the chain peaks at 5.6 MB traced. Holding spent
        # gradients and records it peaked at 6.4 MB; also keeping the
        # iterates and sizing the pull's arena like the forward's, at 8.2 MB
        rng = np.random.default_rng(8)
        p = build_small_cnn([8, 16], [32, 2], seed=0)
        batch = Dataset(rng.random((32, 1, 28, 28)), np.eye(2)[rng.integers(0, 2, 32)], (0.0, 1.0))
        cfg = _cfg(gamma=5.0, step=0.01, steps=5, noise_scale=0.01, ema=0.5, norm="linf")
        run_chain(p, batch, cfg, derive_rng(1), weight_grads=True)
        tracemalloc.start()
        try:
            run_chain(p, batch, cfg, derive_rng(1), weight_grads=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0e6, f"run_chain peaked at {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("weight_grads", [True, False], ids=["training", "sampling"])
    def test_chain_holds_no_spent_gradient_between_passes(self, monkeypatch, weight_grads):
        # traced memory at the entry of each pass, on the benchmark's ATENT
        # CNN at batch 32, K 5, l-inf. From the second pass on, training
        # mode holds the iterate and the accumulator, 0.42 MB; a spent input
        # gradient or a pass's weight gradients held into the next pass
        # read 0.62-0.63 MB. Sampling mode holds the k - 1 iterates before
        # pass k; a spent input gradient adds one more iterate's bytes
        rng = np.random.default_rng(8)
        p = build_small_cnn([8, 16], [32, 2], seed=0)
        batch = Dataset(rng.random((32, 1, 28, 28)), np.eye(2)[rng.integers(0, 2, 32)],
                        (0.0, 1.0))
        cfg = _cfg(gamma=5.0, step=0.01, steps=5, noise_scale=0.01, ema=0.5, norm="linf")
        traced, entries = atent.sampler.loss_and_grads, []

        def recording(*args, **kwargs):
            entries.append(tracemalloc.get_traced_memory()[0])
            return traced(*args, **kwargs)

        run_chain(p, batch, cfg, derive_rng(1), weight_grads=weight_grads)
        monkeypatch.setattr(atent.sampler, "loss_and_grads", recording)
        tracemalloc.start()
        try:
            run_chain(p, batch, cfg, derive_rng(1), weight_grads=weight_grads)
        finally:
            tracemalloc.stop()
        assert len(entries) == cfg.steps + weight_grads
        for k, held in enumerate(entries[1:], start=2):
            bound = 0.5e6 if weight_grads else (k - 1) * batch.inputs.data.nbytes + 0.1e6
            assert held < bound, f"pass {k} began holding {held / 1e6:.3f} MB"


def _all_inputs_chain(params, batch, cfg, rng):
    """Oracle: the chain with every iterate, x'_K included, evaluated by its
    own input-gradient pass and nothing else; returns (samples, ema_loss)."""
    def clip(x):
        return x if batch.value_range is None else np.clip(x, *batch.value_range)

    anchor = batch.inputs.data
    x_prime = clip(init_perturbation(anchor, cfg, rng))
    _, _, g = loss_and_grads(params, batch.with_inputs(x_prime), wrt="inputs")
    samples, ema = [], 0.0
    for k in range(1, cfg.steps + 1):
        x_prime = clip(langevin_step(x_prime, anchor, g, cfg, rng, k))
        loss, _, g = loss_and_grads(params, batch.with_inputs(x_prime), wrt="inputs")
        ema = (1.0 - cfg.ema) * ema + cfg.ema * loss
        samples.append(x_prime)
    return samples, ema


def _model_and_batch(kind, value_range):
    rng = np.random.default_rng(5)
    if kind == "mlp":
        p = build_mlp([4, 8, 2], seed=5)
        x = rng.random((5, 4))
    else:
        p = build_small_cnn([2, 3], [5, 2], seed=5, in_shape=(1, 8, 8))
        x = rng.random((3, 1, 8, 8))
    return p, Dataset(x, np.eye(2)[rng.integers(0, 2, x.shape[0])], value_range)


_NORMS = ["l2", "linf"]


class TestFusedChain:
    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("norm", _NORMS)
    @pytest.mark.parametrize("value_range", [None, (0.0, 1.0)], ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("steps", [1, 4])
    def test_fused_chain_equals_separate_passes_bitwise(self, kind, norm, value_range, steps):
        p, batch = _model_and_batch(kind, value_range)
        cfg = _cfg(gamma=2.0, step=0.1, steps=steps, noise_scale=0.05, ema=0.7,
                   init_radius=0.2, norm=norm)
        samples, ema = _all_inputs_chain(p, batch, cfg, derive_rng(9))
        run = run_chain(p, batch, cfg, derive_rng(9))
        assert run.ema_loss is None and run.weight_grads is None
        assert len(run.samples) == steps
        assert all(np.array_equal(a, b) for a, b in zip(run.samples, samples))
        assert value_range is None or all(s.min() >= 0.0 and s.max() <= 1.0 for s in samples)
        run = run_chain(p, batch, cfg, derive_rng(9), weight_grads=True)
        assert run.samples == [] and run.ema_loss == ema
        ref = atent_outer_gradient(p, batch, samples, cfg.ema)
        assert run.weight_grads.keys() == ref.keys()
        for name in ref:
            assert np.array_equal(run.weight_grads[name], ref[name]), name


def _count_passes(monkeypatch):
    """Counts the chain's loss_and_grads calls by ``wrt``, and as "forward"
    the model forwards made outside them."""
    counts = {"inputs": 0, "both": 0, "weights": 0, "forward": 0}
    real_lg, real_fwd = atent.sampler.loss_and_grads, atent.models.forward_logits

    def lg(params, batch, wrt="weights"):
        counts[wrt] += 1
        counts["forward"] -= 1
        return real_lg(params, batch, wrt=wrt)

    def fwd(params, inputs):
        counts["forward"] += 1
        return real_fwd(params, inputs)

    monkeypatch.setattr(atent.sampler, "loss_and_grads", lg)
    monkeypatch.setattr(atent.models, "forward_logits", fwd)
    return counts


class TestChainPasses:
    @pytest.mark.parametrize("steps", [1, 5])
    def test_weight_grad_chain_makes_k_plus_one_passes(self, monkeypatch, steps):
        counts = _count_passes(monkeypatch)
        p, batch = _model_and_batch("cnn", (0.0, 1.0))
        run_chain(p, batch, _cfg(steps=steps, noise_scale=0.1), derive_rng(0), weight_grads=True)
        assert counts == {"inputs": 1, "both": steps - 1, "weights": 1, "forward": 0}

    @pytest.mark.parametrize("steps", [1, 5])
    def test_attack_chain_makes_k_input_passes_and_no_forward(self, monkeypatch, steps):
        counts = _count_passes(monkeypatch)
        p, batch = _model_and_batch("cnn", (0.0, 1.0))
        cfg = _cfg(gamma=5.0, step=0.5, steps=steps, noise_scale=0.01, norm="linf")
        run_attack(p, batch, AttackConfig(kind="atent", norm="linf", radius=0.1, seed=2,
                                          sampler=cfg))
        assert counts == {"inputs": steps, "both": 0, "weights": 0, "forward": 0}

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_attack_equals_all_inputs_chain_bitwise(self, kind):
        p, batch = _model_and_batch(kind, (0.0, 1.0))
        cfg = _cfg(gamma=5.0, step=0.5, steps=4, noise_scale=0.05, norm="linf",
                   init_radius=0.3)
        radius = 0.15
        out = run_attack(p, batch, AttackConfig(kind="atent", norm="linf", radius=radius,
                                                seed=4, sampler=cfg), stream=2)
        x = batch.inputs.data
        samples, _ = _all_inputs_chain(p, Dataset(x, batch.labels, None), cfg,
                                       derive_rng(4, "atent-attack", 2))
        assert samples[-1].min() < 0.0 or samples[-1].max() > 1.0  # chain ran unclipped
        ref = np.clip(x + np.clip(samples[-1] - x, -radius, radius), 0.0, 1.0)
        assert np.array_equal(out, ref)
