"""Attack suite: FGSM, PGD, ATENT-as-attack, robust accuracy."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atent.attacks import AttackConfig, robust_accuracy, run_attack
from atent.data import Dataset, synth_two_gaussians
from atent.models import accuracy, build_mlp, loss_and_grads, per_sample_losses
from atent.sampler import GibbsSamplerConfig
from atent.seeding import derive_rng
from atent.tensor import Tensor


def _model_and_batch(seed=0, n=8, d=3, with_range=True):
    rng = np.random.default_rng(seed)
    p = build_mlp([d, 8, 2], seed=seed)
    x = rng.random((n, d))
    y = np.eye(2)[rng.integers(0, 2, n)]
    return p, Dataset(x, y, (0.0, 1.0) if with_range else None)


def _linf_dist(a, b):
    return float(np.max(np.abs(a - b)))


def _l2_rows(a, b):
    d = (a - b).reshape(a.shape[0], -1)
    return np.linalg.norm(d, axis=1)


class TestAttackConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(kind="bim"),
            dict(norm="l1"),
            dict(radius=-0.1),
            dict(restarts=0),
            dict(kind="fgsm", norm="l2"),
            dict(kind="pgd", steps=0, step_size=0.1),
            dict(kind="pgd", steps=5, step_size=0.0),
            dict(kind="atent"),
            dict(step_size=math.nan),
            dict(kind="fgsm", radius=math.nan),
        ],
    )
    def test_rejects_bad_configs(self, kw):
        base = dict(kind="pgd", norm="linf", radius=0.1, steps=2, step_size=0.05)
        base.update(kw)
        with pytest.raises(ValueError):
            AttackConfig(**base)


class TestFgsm:
    def test_zero_radius_is_identity(self):
        p, batch = _model_and_batch()
        cfg = AttackConfig(kind="fgsm", radius=0.0)
        assert np.array_equal(run_attack(p, batch, cfg), batch.inputs.data)

    def test_zero_gradient_is_identity(self):
        p, batch = _model_and_batch()
        for t in p.weights.values():
            t.data = np.zeros_like(t.data)
        cfg = AttackConfig(kind="fgsm", radius=0.1)
        out = run_attack(p, batch, cfg)
        assert np.array_equal(out, batch.inputs.data)  # sign(0) = 0

    def test_logistic_case_moves_against_true_class(self):
        # logit for class 1 is x itself; true label class 1 -> loss gradient
        # in x is negative, so the attack moves x by -radius
        p = build_mlp([1, 2], seed=0)
        p.weights["w0"].data = np.array([[0.0, 1.0]])
        p.weights["b0"].data = np.zeros(2)
        batch = Dataset(np.array([[0.2]]), np.array([[0.0, 1.0]]))
        cfg = AttackConfig(kind="fgsm", radius=0.05)
        out = run_attack(p, batch, cfg)
        assert out[0, 0] == pytest.approx(0.15, abs=1e-12)

    def test_exact_ball_membership(self):
        p, batch = _model_and_batch(with_range=False)
        cfg = AttackConfig(kind="fgsm", radius=0.3)
        out = run_attack(p, batch, cfg)
        assert _linf_dist(out, batch.inputs.data) <= 0.3 + 1e-9


class TestPgd:
    def test_ball_containment_linf_and_range(self):
        p, batch = _model_and_batch()
        cfg = AttackConfig(kind="pgd", norm="linf", radius=0.2, steps=10,
                           step_size=0.05, random_start=True, seed=3)
        out = run_attack(p, batch, cfg)
        assert _linf_dist(out, batch.inputs.data) <= 0.2 + 1e-9
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_ball_containment_l2(self):
        p, batch = _model_and_batch(with_range=False)
        cfg = AttackConfig(kind="pgd", norm="l2", radius=0.5, steps=10,
                           step_size=0.2, random_start=True, seed=4)
        out = run_attack(p, batch, cfg)
        assert np.max(_l2_rows(out, batch.inputs.data)) <= 0.5 + 1e-9

    def test_single_step_equals_fgsm(self):
        # FGSM is one signed-gradient step of the whole radius from the clean
        # point, clipped into the range; its PGD-only knobs are not read
        p, batch = _model_and_batch(seed=2)
        eps = 0.08
        x = batch.inputs.data
        _, _, grad = loss_and_grads(p, batch, wrt="inputs")
        want = np.clip(x + eps * np.sign(grad), 0.0, 1.0)
        f = run_attack(p, batch, AttackConfig(kind="fgsm", radius=eps))
        knobs = run_attack(p, batch, AttackConfig(kind="fgsm", radius=eps, steps=5,
                                                  step_size=0.01, restarts=3,
                                                  random_start=True))
        g = run_attack(p, batch, AttackConfig(
            kind="pgd", norm="linf", radius=eps, steps=1, step_size=eps,
            random_start=False))
        assert np.array_equal(f, want)
        assert np.array_equal(knobs, want)
        assert np.array_equal(g, want)

    def test_worst_restart_dominates_each_restart(self):
        p, batch = _model_and_batch(seed=5)
        cfg = AttackConfig(kind="pgd", norm="linf", radius=0.2, steps=5,
                           step_size=0.06, restarts=4, random_start=True, seed=6)
        best = run_attack(p, batch, cfg, stream=0)
        best_losses = per_sample_losses(p, batch.with_inputs(best))
        from atent.attacks import _pgd_single

        for r in range(4):
            single = _pgd_single(p, batch, cfg, derive_rng(cfg.seed, "pgd", 0, r))
            losses = per_sample_losses(p, batch.with_inputs(single))
            assert np.all(best_losses >= losses - 1e-12)

    def test_deterministic_under_seed(self):
        p, batch = _model_and_batch(seed=7)
        cfg = AttackConfig(kind="pgd", norm="l2", radius=0.4, steps=6,
                           step_size=0.15, restarts=3, random_start=True, seed=11)
        a = run_attack(p, batch, cfg, stream=2)
        b = run_attack(p, batch, cfg, stream=2)
        assert np.array_equal(a, b)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["l2", "linf"]),
           st.floats(0.01, 0.5))
    def test_containment_property(self, seed, norm, radius):
        p, batch = _model_and_batch(seed=seed % 100)
        cfg = AttackConfig(kind="pgd", norm=norm, radius=radius, steps=4,
                           step_size=radius / 2, random_start=True, seed=seed)
        out = run_attack(p, batch, cfg)
        if norm == "linf":
            assert _linf_dist(out, batch.inputs.data) <= radius + 1e-9
        else:
            assert np.max(_l2_rows(out, batch.inputs.data)) <= radius + 1e-9
        assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12


class TestAtentAttack:
    def _sampler(self, **kw):
        base = dict(gamma=5.0, step=0.5, steps=4, noise_scale=0.0, ema=1.0,
                    norm="linf", init_radius=0.0)
        base.update(kw)
        return GibbsSamplerConfig(**base)

    def _attack(self, p, batch, sampler, radius, seed=0):
        cfg = AttackConfig(kind="atent", norm="linf", radius=radius, seed=seed, sampler=sampler)
        return run_attack(p, batch, cfg)

    def test_zero_radius_is_identity(self):
        p, batch = _model_and_batch()
        out = self._attack(p, batch, self._sampler(), radius=0.0)
        assert np.array_equal(out, batch.inputs.data)

    def test_containment(self):
        p, batch = _model_and_batch(seed=3)
        out = self._attack(p, batch, self._sampler(noise_scale=0.001, init_radius=0.1),
                           radius=0.2, seed=1)
        assert _linf_dist(out, batch.inputs.data) <= 0.2 + 1e-9
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_noise_free_chain_is_projected_ascent(self):
        from atent.models import loss_and_grads
        from atent.sampler import project_linf_increment

        p, batch = _model_and_batch(seed=4)
        cfg = self._sampler()
        radius = 0.15
        out = self._attack(p, batch, cfg, radius=radius, seed=0)
        x = batch.inputs.data
        ref = x.copy()
        for k in range(1, cfg.steps + 1):
            _, _, g = loss_and_grads(p, batch.with_inputs(ref), wrt="inputs")
            inc = cfg.step * g
            if k == cfg.steps:
                inc = project_linf_increment(inc, cfg.gamma)
            ref = ref + inc
        ref = x + np.clip(ref - x, -radius, radius)
        ref = np.clip(ref, 0.0, 1.0)
        assert np.array_equal(out, ref)

    def test_l2_norm_projects_into_the_l2_ball(self):
        # the chain ends far outside the ball; the l-inf box of the same
        # radius reaches sqrt(20) times further in l2
        p, batch = _model_and_batch(seed=6, n=6, d=20, with_range=False)
        radius = 0.5
        cfg = AttackConfig(kind="atent", norm="l2", radius=radius, seed=2,
                           sampler=self._sampler(norm="l2", init_radius=1.0))
        out = run_attack(p, batch, cfg)
        assert np.all(_l2_rows(out, batch.inputs.data) <= radius + 1e-12)
        assert _linf_dist(out, batch.inputs.data) > 0.0


class TestZeroRadius:
    @pytest.mark.parametrize("kw", [
        dict(kind="pgd", steps=3, step_size=0.1, random_start=True, restarts=2),
        dict(kind="fgsm"),
        dict(kind="atent", sampler=GibbsSamplerConfig(gamma=5.0, step=0.5, steps=3,
                                                      noise_scale=0.1)),
    ])
    def test_clean_inputs_without_a_gradient_pass(self, monkeypatch, kw):
        import atent.attacks
        import atent.sampler

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("wrt"))
            return loss_and_grads(*args, **kwargs)

        monkeypatch.setattr(atent.attacks, "loss_and_grads", counted)
        monkeypatch.setattr(atent.sampler, "loss_and_grads", counted)
        p, batch = _model_and_batch(seed=8)
        out = run_attack(p, batch, AttackConfig(radius=0.0, norm="linf", seed=3, **kw))
        assert np.array_equal(out, batch.inputs.data)
        assert out is not batch.inputs.data
        assert calls == []


class TestRobustAccuracy:
    def _trained_toy(self):
        ds = synth_two_gaussians(300, 5.0, seed=0)
        from atent.defenses import TrainerConfig, train

        p = build_mlp([2, 16, 2], seed=0)
        cfg = TrainerConfig(defense="sgd", lr=0.5, epochs=25, batch_size=32, seed=0,
                            lr_schedule=[])
        state = train(p, cfg, ds, ds.take(np.arange(0)))
        return state.params, ds

    def test_zero_radius_equals_natural_accuracy(self):
        p, ds = self._trained_toy()
        cfg = AttackConfig(kind="pgd", norm="linf", radius=0.0, steps=3,
                           step_size=0.1, seed=0)
        nat = accuracy(p, ds.inputs, ds.labels)
        assert robust_accuracy(p, ds, cfg) == nat

    def test_uninformative_model_stays_at_chance(self):
        rng = np.random.default_rng(1)
        p = build_mlp([3, 4, 2], seed=0)
        for t in p.weights.values():
            t.data = np.zeros_like(t.data)
        ds = Dataset(Tensor(rng.random((200, 3))), Tensor(np.eye(2)[rng.integers(0, 2, 200)]))
        cfg = AttackConfig(kind="fgsm", norm="linf", radius=0.3, seed=0)
        rob = robust_accuracy(p, ds, cfg)
        nat = accuracy(p, ds.inputs, ds.labels)
        assert rob == nat  # no gradient signal to follow
        assert abs(rob - 0.5) <= 0.1

    def test_monotone_in_radius(self):
        p, ds = self._trained_toy()

        def rob(eps):
            return robust_accuracy(p, ds, AttackConfig(
                kind="pgd", norm="linf", radius=eps, steps=10,
                step_size=max(2.5 * eps / 10, 1e-3), seed=5))

        assert rob(0.1) >= rob(0.3)

    def test_run_attack_dispatch(self):
        p, batch = _model_and_batch(seed=9)
        cfg = AttackConfig(kind="atent", norm="linf", radius=0.1, seed=0,
                           sampler=GibbsSamplerConfig(gamma=10.0, step=0.3, steps=2,
                                                      norm="linf", init_radius=0.0))
        out = run_attack(p, batch, cfg)
        assert _linf_dist(out, batch.inputs.data) <= 0.1 + 1e-9
