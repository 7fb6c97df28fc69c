"""Trainers: equivalences, fixed points, robustness gaps, early stopping."""
import math

import numpy as np
import pytest

from atent import defenses
from atent.attacks import AttackConfig, robust_accuracy, run_attack
from atent.data import batch_iter, synth_two_gaussians
from atent.defenses import (
    ATENT_L2,
    ATENT_LINF,
    DivergenceError,
    EarlyStopConfig,
    EpochRecord,
    TrainerConfig,
    TrainerState,
    early_stop_update,
    train,
)
from atent.models import Batch, ModelParams, accuracy, build_mlp, loss_and_grads
from atent.oracle import atent_outer_gradient, finite_difference_grad, relative_error
from atent.sampler import GibbsSamplerConfig, init_perturbation, run_chain, weight_langevin_chain
from atent.seeding import derive_rng
from atent.tensor import NonFiniteError
from data_oracles import split_train_val


def _blobs(seed=0, n=200, sep=5.0):
    ds = synth_two_gaussians(n, sep, seed=seed)
    return ds, ds.take(np.arange(0))


def _params_equal(a: ModelParams, b: ModelParams) -> bool:
    return all(np.array_equal(a.weights[n].data, b.weights[n].data) for n in a.names)


class TestConfigValidation:
    def test_sampler_presence_rules(self):
        with pytest.raises(ValueError):
            TrainerConfig(defense="atent_l2", lr=0.1, epochs=1, batch_size=8)
        with pytest.raises(ValueError):
            TrainerConfig(defense="sgd", lr=0.1, epochs=1, batch_size=8,
                          sampler=GibbsSamplerConfig(gamma=1, step=0.1, steps=1))
        with pytest.raises(ValueError):
            TrainerConfig(defense="pgd_at", lr=0.1, epochs=1, batch_size=8)

    def test_norm_must_match_defense(self):
        with pytest.raises(ValueError):
            TrainerConfig(defense="atent_linf", lr=0.1, epochs=1, batch_size=8,
                          sampler=GibbsSamplerConfig(gamma=1, step=0.1, steps=1, norm="l2"))

    def test_default_schedule_decays_at_three_quarters(self):
        cfg = TrainerConfig(defense="sgd", lr=0.1, epochs=40, batch_size=8)
        assert cfg.schedule() == [(30, 0.1)]
        cfg = TrainerConfig(defense="sgd", lr=0.1, epochs=40, batch_size=8, lr_schedule=[])
        assert cfg.schedule() == []

    def test_robust_early_stop_derives_training_radius(self):
        cfg = TrainerConfig(
            defense="pgd_at", lr=0.1, epochs=1, batch_size=8,
            pgd=AttackConfig(kind="pgd", norm="linf", radius=0.2, steps=3, step_size=0.1),
            early_stop=EarlyStopConfig(metric="robust"),
        )
        assert cfg.early_stop.eval_attack.radius == 0.2
        with pytest.raises(ValueError):
            TrainerConfig(defense="sgd", lr=0.1, epochs=1, batch_size=8,
                          early_stop=EarlyStopConfig(metric="robust"))


class TestTrainSgd:
    def test_zero_lr_leaves_params_unchanged(self):
        ds, val = _blobs()
        p0 = build_mlp([2, 8, 2], seed=0)
        state = train(p0, TrainerConfig(defense="sgd", lr=0.0, epochs=3,
                                        batch_size=32, seed=0), ds, val)
        assert _params_equal(state.params, p0)

    def test_same_seed_identical_params(self):
        ds, val = _blobs(seed=1)
        p0 = build_mlp([2, 8, 2], seed=1)
        cfg = TrainerConfig(defense="sgd", lr=0.3, epochs=5, batch_size=32, seed=4)
        a = train(p0, cfg, ds, val)
        b = train(p0, cfg, ds, val)
        assert _params_equal(a.params, b.params)

    def test_separable_blobs_reach_high_accuracy(self):
        # Monte Carlo over 5 seeds, <= 50 epochs
        for seed in range(5):
            ds, val = _blobs(seed=seed, n=200, sep=6.0)
            p0 = build_mlp([2, 16, 2], seed=seed)
            cfg = TrainerConfig(defense="sgd", lr=0.5, epochs=40, batch_size=32,
                                seed=seed, lr_schedule=[])
            state = train(p0, cfg, ds, val)
            assert accuracy(state.params, ds.inputs, ds.labels) >= 0.99

    def test_divergence_aborts(self):
        ds, val = _blobs()
        p0 = build_mlp([2, 8, 2], seed=0)
        for t in p0.weights.values():
            t.data = np.full_like(t.data, 1e200)  # forward pass overflows
        cfg = TrainerConfig(defense="sgd", lr=0.1, epochs=2, batch_size=32, seed=0,
                            lr_schedule=[])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            train(p0, cfg, ds, val)


class TestInPlaceUpdates:
    """train updates weights in place, but never in an array a caller holds."""

    def _setup(self):
        train_ds, val_ds = split_train_val(synth_two_gaussians(120, 3.0, seed=2))
        cfg = TrainerConfig(defense="sgd", lr=0.3, epochs=4, batch_size=16, seed=3,
                            weight_decay=0.01)
        return build_mlp([2, 8, 2], seed=2), cfg, train_ds, val_ds

    @staticmethod
    def _arrays(params):
        return [t.data for t in params.weights.values()]

    def test_params_passed_in_keep_their_bytes(self):
        params, cfg, train_ds, val_ds = self._setup()
        held = self._arrays(params)
        before = [a.tobytes() for a in held]
        state = train(params, cfg, train_ds, val_ds)
        assert not _params_equal(state.params, params)
        assert self._arrays(params) == held  # the same array objects ...
        assert [a.tobytes() for a in held] == before  # ... with the same bytes

    def test_resume_keeps_the_first_calls_arrays(self):
        params, cfg, train_ds, val_ds = self._setup()
        first = train(params, cfg, train_ds, val_ds, stop_after_epoch=2)
        assert first.epoch == 2 and first.best_params is not None
        kept = self._arrays(first.params) + self._arrays(first.best_params)
        at_epoch_2 = [a.tobytes() for a in kept]
        resumed = train(params, cfg, train_ds, val_ds, resume_state=first)
        assert resumed.epoch == 4
        assert [a.tobytes() for a in kept] == at_epoch_2
        # and the resumed run still retraces the uninterrupted one
        assert _params_equal(resumed.params, train(params, cfg, train_ds, val_ds).params)


class TestTrainPgdAt:
    def test_zero_radius_bitwise_equals_sgd(self):
        ds, val = _blobs(seed=2)
        p0 = build_mlp([2, 8, 2], seed=2)
        sgd = train(p0, TrainerConfig(defense="sgd", lr=0.3, epochs=4,
                                      batch_size=32, seed=7), ds, val)
        pgd = train(p0, TrainerConfig(
            defense="pgd_at", lr=0.3, epochs=4, batch_size=32, seed=7,
            pgd=AttackConfig(kind="pgd", norm="linf", radius=0.0, steps=3,
                             step_size=0.1, random_start=True, seed=7),
        ), ds, val)
        assert _params_equal(sgd.params, pgd.params)

    def test_fgsm_inner_attack_steps_on_run_attack_points(self):
        # the inner attack is run_attack's, whatever its kind: FGSM reads
        # none of the PGD knobs, so it steps by the whole radius
        ds, val = _blobs(seed=4)
        p0 = build_mlp([2, 8, 2], seed=4)
        fgsm = AttackConfig(kind="fgsm", norm="linf", radius=0.2)
        base = dict(lr=0.3, epochs=3, batch_size=32, seed=5, lr_schedule=[])
        got = train(p0, TrainerConfig(defense="pgd_at", pgd=fgsm, **base), ds, val)
        sgd = train(p0, TrainerConfig(defense="sgd", **base), ds, val)
        assert not _params_equal(got.params, sgd.params)

        params = p0.clone()
        for epoch in range(1, 4):
            for bidx, batch in enumerate(batch_iter(ds, 32, 5, epoch)):
                x_adv = run_attack(params, batch, fgsm, stream=epoch * 1_000_003 + bidx)
                _, wg, _ = loss_and_grads(params, batch.with_inputs(x_adv), wrt="weights")
                for name, t in params.weights.items():
                    t.data = t.data - 0.3 * wg[name]
        assert _params_equal(got.params, params)

    def test_robust_gap_over_sgd(self):
        # Monte Carlo over 5 seeds. In 2-D the >=20 point gap appears once the
        # attack radius exceeds the achievable-margin regime (the robust
        # boundary then trades natural accuracy, which this check ignores).
        eps = 0.3
        atk = AttackConfig(kind="pgd", norm="linf", radius=eps, steps=10,
                           step_size=2.5 * eps / 10, random_start=True, seed=99)
        for seed in range(5):
            ds = synth_two_gaussians(400, 4.0, seed=seed)
            train_ds, val_ds = split_train_val(ds)
            p0 = build_mlp([2, 16, 2], seed=seed)
            sgd = train(p0, TrainerConfig(defense="sgd", lr=0.5, epochs=30,
                                          batch_size=32, seed=seed,
                                          lr_schedule=[]), train_ds, val_ds)
            pgd = train(p0, TrainerConfig(
                defense="pgd_at", lr=0.5, epochs=30, batch_size=32, seed=seed,
                lr_schedule=[],
                pgd=AttackConfig(kind="pgd", norm="linf", radius=eps, steps=7,
                                 step_size=2.5 * eps / 7, random_start=True,
                                 seed=seed),
            ), train_ds, val_ds)
            gap = robust_accuracy(pgd.params, ds, atk) - robust_accuracy(sgd.params, ds, atk)
            assert gap >= 0.20, f"seed {seed}: gap {gap:.3f}"


class TestTrainEntropySgd:
    def _cfg(self, **kw):
        base = dict(defense="entropy_sgd", lr=0.2, epochs=2, batch_size=32, seed=0,
                    sampler=GibbsSamplerConfig(gamma=1.0, step=0.1, steps=4,
                                               noise_scale=0.0, ema=0.75))
        base.update(kw)
        return TrainerConfig(**base)

    def test_zero_gradient_fixed_point(self):
        # zero weights + balanced labels: grad at w is 0, so with no noise the
        # weight chain never leaves w and the update vanishes
        x = np.random.default_rng(0).random((32, 2))
        y = np.eye(2)[np.arange(32) % 2]
        from atent.data import Dataset
        from atent.tensor import Tensor

        ds = Dataset(Tensor(x), Tensor(y))
        p0 = build_mlp([2, 4, 2], seed=0)
        for t in p0.weights.values():
            t.data = np.zeros_like(t.data)
        state = train(p0, self._cfg(epochs=1), ds, ds.take(np.arange(0)))
        delta = max(np.max(np.abs(state.params.weights[n].data - p0.weights[n].data))
                    for n in p0.names)
        assert delta <= 1e-8

    def test_reports_the_loss_of_the_chains_first_pass(self, monkeypatch):
        # the weight chain's first pass is at the weights, so its loss is the
        # batch loss: a step makes K passes and no other forward
        from atent import models
        from atent.tensor import Tensor

        rng = np.random.default_rng(3)
        batch = Batch(Tensor(rng.random((16, 2))), Tensor(np.eye(2)[np.arange(16) % 2]))
        params = build_mlp([2, 4, 2], seed=2)
        forward, passes = models.forward_logits, []

        def counting(*args):
            passes.append(1)
            return forward(*args)

        monkeypatch.setattr(models, "forward_logits", counting)
        cfg = self._cfg()
        loss, _ = defenses._direction_entropy_sgd(params, batch, cfg, 1, 0)
        assert len(passes) == cfg.sampler.steps
        assert loss == models.batch_loss(params, batch)

    def test_quadratic_weight_chain_matches_gaussian_convolution_oracle(self):
        # one-parameter loss a*w^2: the smoothed objective is a Gaussian
        # convolution with closed-form regularized minimizer gamma*w/(gamma+2a)
        a, gamma, w0 = 1.0, 3.0, 2.0
        cfg = GibbsSamplerConfig(gamma=gamma, step=0.05, steps=400,
                                 noise_scale=0.0, ema=0.05)
        anchor = {"w": np.array([w0])}
        mu = weight_langevin_chain(
            lambda w: {"w": 2 * a * w["w"]}, anchor, cfg, derive_rng(0)
        )
        target = gamma * w0 / (gamma + 2 * a)
        assert abs(mu["w"][0] - target) <= 5e-2
        # outer update direction gamma*(w - mu) matches the analytic gradient
        # of the smoothed objective in sign and approximate value
        analytic = gamma * w0 * (2 * a) / (2 * a + gamma)
        assert math.copysign(1, gamma * (w0 - mu["w"][0])) == math.copysign(1, analytic)
        assert abs(gamma * (w0 - mu["w"][0]) - analytic) <= 0.15

    def test_weight_chain_equals_reference_loop_bitwise(self):
        # the per-tensor loop the chain ran before it called the sampler's l2
        # step, started at the anchor; two shapes and noise on, so a change in
        # the arithmetic or in the order of the noise draws fails
        rng = np.random.default_rng(21)
        anchor = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        kept = {k: v.copy() for k, v in anchor.items()}
        cfg = GibbsSamplerConfig(gamma=3.0, step=0.05, steps=20, noise_scale=0.3, ema=0.2)

        def grad_fn(w):
            return {k: 1.7 * np.tanh(v) for k, v in w.items()}

        w_prime = {k: v.copy() for k, v in anchor.items()}
        mu = {k: v.copy() for k, v in anchor.items()}
        root = math.sqrt(2.0 * cfg.step) * cfg.noise_scale
        ref_rng = derive_rng(8)
        for _ in range(cfg.steps):
            grads = grad_fn(w_prime)
            for k in w_prime:
                drift = -grads[k] + cfg.gamma * (anchor[k] - w_prime[k])
                w_prime[k] = w_prime[k] + cfg.step * drift
                w_prime[k] = w_prime[k] + root * ref_rng.standard_normal(w_prime[k].shape)
                mu[k] = (1.0 - cfg.ema) * mu[k] + cfg.ema * w_prime[k]
        got = weight_langevin_chain(grad_fn, anchor, cfg, derive_rng(8))
        assert got.keys() == mu.keys()
        assert all(np.array_equal(got[k], mu[k]) for k in mu)
        assert all(np.array_equal(anchor[k], kept[k]) for k in kept)

    def test_same_seed_identical(self):
        ds, val = _blobs(seed=3)
        p0 = build_mlp([2, 8, 2], seed=3)
        cfg = self._cfg(sampler=GibbsSamplerConfig(gamma=1.0, step=0.1, steps=3,
                                                   noise_scale=1e-3, ema=0.75))
        a = train(p0, cfg, ds, val)
        b = train(p0, cfg, ds, val)
        assert _params_equal(a.params, b.params)


class TestTrainAtent:
    def test_noise_free_single_step_equals_regularized_ascent_at(self):
        # K=1, alpha=1, eps=0: bitwise match against a hand-built adversarial
        # trainer whose inner step is one regularized-ascent move
        ds, val = _blobs(seed=4, n=128)
        p0 = build_mlp([2, 8, 2], seed=4)
        gamma, eta_inner, lr, epochs, bs, seed = 2.0, 0.25, 0.3, 3, 32, 11
        scfg = GibbsSamplerConfig(gamma=gamma, step=eta_inner, steps=1,
                                  noise_scale=0.0, ema=1.0, init_radius=0.05)
        cfg = TrainerConfig(defense="atent_l2", lr=lr, epochs=epochs, batch_size=bs,
                            seed=seed, lr_schedule=[], sampler=scfg)
        ours = train(p0, cfg, ds, val)

        from atent.data import batch_iter

        hand = p0.clone()
        for epoch in range(1, epochs + 1):
            for bidx, batch in enumerate(batch_iter(ds, bs, seed, epoch)):
                rng = derive_rng(seed, "chain", epoch, bidx)
                x = batch.inputs.data
                x0 = np.clip(init_perturbation(x, scfg, rng), 0.0, 1.0)
                _, _, g = loss_and_grads(hand, batch.with_inputs(x0), wrt="inputs")
                x1 = x0 + eta_inner * (g - gamma * (x0 - x))  # ascent on L - g/2 d^2
                x1 = np.clip(x1, 0.0, 1.0)  # pixel-range projection, as in PGD-AT
                _, wg, _ = loss_and_grads(hand, batch.with_inputs(x1), wrt="weights")
                for name, t in hand.weights.items():
                    t.data = t.data - lr * wg[name]
        assert _params_equal(ours.params, hand)

    def test_huge_gamma_tracks_sgd(self):
        ds, val = _blobs(seed=5, n=128)
        p0 = build_mlp([2, 8, 2], seed=5)
        lr, bs, seed = 0.3, 32, 13
        sgd = train(p0, TrainerConfig(defense="sgd", lr=lr, epochs=1,
                                      batch_size=bs, seed=seed,
                                      lr_schedule=[]), ds, val)
        gamma = 1e6
        scfg = GibbsSamplerConfig(gamma=gamma, step=0.1 / gamma, steps=3,
                                  noise_scale=0.0, ema=1.0)  # init_radius 1/gamma
        atent = train(p0, TrainerConfig(defense="atent_l2", lr=lr, epochs=1,
                                        batch_size=bs, seed=seed,
                                        lr_schedule=[], sampler=scfg), ds, val)
        drift = math.sqrt(sum(
            float(np.sum((atent.params.weights[n].data - sgd.params.weights[n].data) ** 2))
            for n in p0.names
        ))
        assert drift <= 1e-3

    def test_same_seed_identical_metrics_stream(self):
        ds, val = _blobs(seed=6, n=128)
        p0 = build_mlp([2, 8, 2], seed=6)
        scfg = GibbsSamplerConfig(gamma=2.0, step=0.1, steps=3, noise_scale=0.01,
                                  ema=0.9, norm="linf")
        cfg = TrainerConfig(defense="atent_linf", lr=0.3, epochs=3, batch_size=32,
                            seed=17, sampler=scfg)
        a = train(p0, cfg, ds, val)
        b = train(p0, cfg, ds, val)
        assert a.history == b.history
        assert _params_equal(a.params, b.params)

    def test_step_makes_k_plus_one_passes(self, monkeypatch):
        # the outer gradient comes from the chain's own passes: one input
        # pass at x'_0, K-1 passes for both gradients, one weight pass at x'_K
        import atent.defenses
        import atent.sampler

        calls = []
        real = atent.sampler.loss_and_grads

        def counting(params, batch, wrt="weights"):
            calls.append(wrt)
            return real(params, batch, wrt=wrt)

        monkeypatch.setattr(atent.sampler, "loss_and_grads", counting)
        monkeypatch.setattr(atent.defenses, "loss_and_grads", counting)
        ds, val = _blobs(seed=12, n=64)
        k, bs = 5, 16
        scfg = GibbsSamplerConfig(gamma=2.0, step=0.1, steps=k, noise_scale=0.01,
                                  ema=0.9, norm="linf")
        train(build_mlp([2, 4, 2], seed=12), TrainerConfig(
            defense="atent_linf", lr=0.1, epochs=1, batch_size=bs, seed=3,
            sampler=scfg), ds, val)
        assert calls == (["inputs"] + ["both"] * (k - 1) + ["weights"]) * (ds.n // bs)

    def test_outer_gradient_matches_finite_differences(self):
        # sum_k c_k grad_w L(w; X'_k) vs finite differences of
        # sum_k c_k L(w; X'_k) with the samples frozen
        rng = np.random.default_rng(7)
        p = build_mlp([2, 3, 2], seed=7)
        batch = Batch(rng.random((5, 2)), np.eye(2)[rng.integers(0, 2, 5)])
        scfg = GibbsSamplerConfig(gamma=1.5, step=0.1, steps=4, noise_scale=0.2,
                                  ema=0.6)
        run = run_chain(p, batch, scfg, derive_rng(3))
        grads = atent_outer_gradient(p, batch, run.samples, scfg.ema)
        k = len(run.samples)
        coeff = [scfg.ema * (1 - scfg.ema) ** (k - i - 1) for i in range(k)]

        from atent.models import batch_loss

        for name in p.names:
            t = p.weights[name]

            def f(arr, t=t):
                old = t.data
                t.data = arr
                try:
                    return sum(c * batch_loss(p, batch.with_inputs(x))
                               for c, x in zip(coeff, run.samples))
                finally:
                    t.data = old

            fd = finite_difference_grad(f, t.data.copy())
            assert relative_error(grads[name], fd) <= 1e-4, name

    def test_regularized_objective_monotone_along_noise_free_chain(self):
        # eps=0 chains are gradient ascent on L - gamma/2 ||. - x||^2: the
        # objective must not decrease for small steps (100 random batches)
        from atent.models import batch_loss

        gamma, eta = 2.0, 0.005
        scfg = GibbsSamplerConfig(gamma=gamma, step=eta, steps=6, noise_scale=0.0,
                                  ema=1.0, init_radius=0.05)
        rng = np.random.default_rng(8)
        p = build_mlp([2, 8, 2], seed=8)
        for trial in range(100):
            x = rng.random((4, 2))
            y = np.eye(2)[rng.integers(0, 2, 4)]
            batch = Batch(x, y)
            run = run_chain(p, batch, scfg, derive_rng(trial))

            def objective(xp):
                per_sample = 4 * batch_loss(p, batch.with_inputs(xp))
                return per_sample - 0.5 * gamma * float(np.sum((xp - x) ** 2))

            values = [objective(s) for s in run.samples]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestEarlyStopping:
    def _record(self, epoch, nat, rob=None):
        return EpochRecord(epoch=epoch, train_loss=0.1, nat_acc=nat, rob_acc=rob,
                           lr=0.1, wall_ms=0)

    def test_monotone_stream_snapshots_last(self):
        p = build_mlp([2, 2], seed=0)
        state = TrainerState(params=p)
        es = EarlyStopConfig(metric="natural")
        for e, v in enumerate([0.2, 0.5, 0.9], start=1):
            early_stop_update(state, self._record(e, v), es)
        assert state.best_epoch == 3 and state.best_metric == 0.9

    def test_peak_then_decay_keeps_peak(self):
        p = build_mlp([2, 2], seed=0)
        state = TrainerState(params=p)
        es = EarlyStopConfig(metric="natural")
        for e, v in enumerate([0.2, 0.8, 0.5], start=1):
            early_stop_update(state, self._record(e, v), es)
        assert state.best_epoch == 2 and state.best_metric == 0.8

    def test_metric_stream_50_80_60(self):
        p = build_mlp([2, 2], seed=0)
        state = TrainerState(params=p)
        es = EarlyStopConfig(metric="robust",
                             eval_attack=AttackConfig(kind="fgsm", radius=0.1))
        for e, v in enumerate([0.50, 0.80, 0.60], start=1):
            early_stop_update(state, self._record(e, nat=1.0, rob=v), es)
        assert state.best_metric == 0.80 and state.best_epoch == 2

    def test_robust_metric_without_validation_rows_raises_before_epoch_one(self):
        # a split whose validation share rounds to zero rows: nothing trains
        ds = synth_two_gaussians(120, 5.0, seed=9)
        train_ds, val_ds = split_train_val(ds, 0.001)
        assert val_ds.n == 0
        cfg = TrainerConfig(defense="pgd_at", lr=0.3, epochs=2, batch_size=32, seed=9,
                            pgd=AttackConfig(radius=0.1, steps=1, step_size=0.1),
                            early_stop=EarlyStopConfig(metric="robust"))
        epochs = []
        with pytest.raises(ValueError, match="non-empty validation set"):
            train(build_mlp([2, 8, 2], seed=9), cfg, train_ds, val_ds,
                  on_epoch=lambda state: epochs.append(state.epoch))
        assert epochs == []

    def test_snapshot_used_and_patience_stops(self):
        ds, _ = _blobs(seed=9, n=128)
        val = synth_two_gaussians(64, 5.0, seed=100)
        p0 = build_mlp([2, 8, 2], seed=9)
        cfg = TrainerConfig(defense="sgd", lr=0.4, epochs=30, batch_size=32, seed=9,
                            lr_schedule=[],
                            early_stop=EarlyStopConfig(metric="natural", patience=3))
        state = train(p0, cfg, ds, val)
        assert state.best_params is not None
        assert state.best_epoch <= state.epoch
        best_nat = max(r.nat_acc for r in state.history)
        assert state.best_metric == best_nat
        assert accuracy(state.snapshot_params(), val.inputs, val.labels) == best_nat


class TestValidationForward:
    """Each epoch with validation rows scores them once, through ``accuracy``;
    divergence is caught at the op and at the weight update."""

    def _count(self, monkeypatch):
        calls = {"accuracy": 0}
        accuracy_fn = defenses.accuracy

        def counting_accuracy(params, inputs, labels):
            calls["accuracy"] += 1
            return accuracy_fn(params, inputs, labels)

        monkeypatch.setattr(defenses, "accuracy", counting_accuracy)
        return calls

    def _cfg(self, **overrides):
        return TrainerConfig(**{"defense": "sgd", "lr": 0.3, "epochs": 3, "batch_size": 32,
                                "seed": 9, "lr_schedule": [], **overrides})

    def test_one_forward_per_epoch(self, monkeypatch):
        ds, _ = _blobs(seed=9, n=128)
        val = synth_two_gaussians(80, 5.0, seed=100)
        calls = self._count(monkeypatch)
        state = train(build_mlp([2, 8, 2], seed=9), self._cfg(), ds, val)
        assert calls == {"accuracy": 3}
        assert state.history[-1].nat_acc == accuracy(state.params, val.inputs, val.labels)

    def test_no_validation_forward_without_validation_set(self, monkeypatch):
        ds, val = _blobs(seed=9, n=128)
        calls = self._count(monkeypatch)
        state = train(build_mlp([2, 8, 2], seed=9), self._cfg(), ds, val)
        assert calls == {"accuracy": 0}
        assert [r.nat_acc for r in state.history] == [None, None, None]

    def test_non_finite_validation_forward_is_divergence(self, monkeypatch):
        ds, _ = _blobs(seed=9, n=128)
        val = synth_two_gaussians(80, 5.0, seed=100)

        def overflowing(params, inputs, labels):
            raise NonFiniteError("dense produced non-finite values")

        monkeypatch.setattr(defenses, "accuracy", overflowing)
        with pytest.raises(DivergenceError, match="diverged at epoch 1"):
            train(build_mlp([2, 8, 2], seed=9), self._cfg(), ds, val)

    def test_non_finite_last_update_is_divergence_without_validation_set(self):
        # one batch per epoch, so no forward follows the update that overflows
        ds, val = _blobs(seed=9, n=32)
        epochs = []
        cfg = self._cfg(lr=1e300, weight_decay=1e300)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="diverged at epoch 1: weight update"):
            train(build_mlp([2, 8, 2], seed=9), cfg, ds, val, on_epoch=epochs.append)
        assert epochs == []

    def test_empty_training_set_is_refused(self):
        ds, _ = _blobs(seed=9, n=32)
        with pytest.raises(ValueError, match="non-empty training set"):
            train(build_mlp([2, 8, 2], seed=9), self._cfg(), ds.take(np.arange(0)), ds)


class TestInterchangeability:
    def test_all_defenses_share_surfaces_and_schema(self):
        ds, _ = _blobs(seed=10, n=64)
        val = synth_two_gaussians(32, 5.0, seed=101)
        p0 = build_mlp([2, 4, 2], seed=10)
        configs = [
            TrainerConfig(defense="sgd", lr=0.2, epochs=2, batch_size=16, seed=1),
            TrainerConfig(defense="entropy_sgd", lr=0.2, epochs=2, batch_size=16, seed=1,
                          sampler=GibbsSamplerConfig(gamma=1.0, step=0.05, steps=2,
                                                     noise_scale=1e-3, ema=0.9)),
            TrainerConfig(defense="pgd_at", lr=0.2, epochs=2, batch_size=16, seed=1,
                          pgd=AttackConfig(kind="pgd", norm="linf", radius=0.1,
                                           steps=2, step_size=0.06)),
            TrainerConfig(defense="atent_l2", lr=0.2, epochs=2, batch_size=16, seed=1,
                          sampler=GibbsSamplerConfig(gamma=2.0, step=0.05, steps=2,
                                                     noise_scale=1e-3, ema=0.9)),
            TrainerConfig(defense="atent_linf", lr=0.2, epochs=2, batch_size=16, seed=1,
                          sampler=GibbsSamplerConfig(gamma=2.0, step=0.05, steps=2,
                                                     noise_scale=1e-3, ema=0.9,
                                                     norm="linf")),
        ]
        fields = None
        for cfg in configs:
            state = train(p0, cfg, ds, val)
            assert len(state.history) == 2
            rec_fields = list(vars(state.history[0]))
            if fields is None:
                fields = rec_fields
            assert rec_fields == fields
            assert all(math.isfinite(r.train_loss) for r in state.history)
