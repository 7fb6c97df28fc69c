"""Randomized smoothing: votes, abstention, accuracy plumbing."""
from dataclasses import replace

import numpy as np
import pytest

from atent import smoothing
from atent.data import Dataset, synth_two_gaussians
from atent.models import build_mlp, build_small_cnn, predict
from atent.seeding import derive_rng
from atent.smoothing import (
    ABSTAIN,
    VOTE_CHUNK,
    SmoothingConfig,
    _vote_outcome,
    smooth_accuracy,
    smooth_predict,
    vote_counts,
)
from atent.tensor import Tensor


def _threshold_model(slope=1.0):
    # logits (-s*x, s*x): class 1 iff x > 0
    p = build_mlp([1, 2], seed=0)
    p.weights["w0"].data = np.array([[-slope, slope]])
    p.weights["b0"].data = np.zeros(2)
    return p


def _small_cnn():
    return build_small_cnn([2], [3], seed=1, in_shape=(1, 6, 6))


def _full_vote(params, x, cfg, n_classes, stream=0):
    # the decision read from all n_samples votes: what smooth_predict returns
    rng = derive_rng(cfg.seed, "smoothing", stream)
    counts = vote_counts(params, x, cfg, rng, n_classes)
    top = int(counts.argmax())
    return top if counts[top] / cfg.n_samples >= 0.5 + cfg.abstain_margin else ABSTAIN


@pytest.fixture
def forward_sizes(monkeypatch):
    """Batch sizes that smoothing sends to models.predict, in order."""
    sizes = []

    def counting(params, inputs):
        sizes.append(len(inputs))
        return predict(params, inputs)

    monkeypatch.setattr(smoothing, "predict", counting)
    return sizes


def _compositions(total, k):
    """Every way of casting ``total`` votes among ``k`` classes."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first, *rest)


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [dict(sigma=-0.1), dict(n_samples=0), dict(abstain_margin=0.5),
         dict(abstain_margin=-0.01)],
    )
    def test_rejects_bad_values(self, kw):
        base = dict(sigma=1.0, n_samples=10, abstain_margin=0.0, seed=0)
        base.update(kw)
        with pytest.raises(ValueError):
            SmoothingConfig(**base)


class TestSmoothPredict:
    def test_constant_classifier_keeps_its_class(self):
        p = build_mlp([2, 3], seed=0)
        for t in p.weights.values():
            t.data = np.zeros_like(t.data)
        p.weights["b0"].data = np.array([0.0, 5.0, 0.0])
        for sigma in (0.0, 0.5, 3.0):
            cfg = SmoothingConfig(sigma=sigma, n_samples=200, seed=1)
            assert smooth_predict(p, np.array([0.3, 0.7]), cfg, 3) == 1

    def test_sigma_zero_equals_plain_argmax(self):
        rng = np.random.default_rng(2)
        p = build_mlp([3, 6, 4], seed=3)
        cfg = SmoothingConfig(sigma=0.0, n_samples=50, seed=0)
        for i in range(20):
            x = rng.random(3)
            plain = int(predict(p, x[None, :])[0])
            assert smooth_predict(p, x, cfg, 4) == plain

    def test_threshold_point_abstains(self):
        p = _threshold_model()
        cfg = SmoothingConfig(sigma=1.0, n_samples=10_000, abstain_margin=0.05, seed=7)
        assert smooth_predict(p, np.array([0.0]), cfg, 2) == ABSTAIN

    def test_vote_counts_sum_exactly(self):
        p = _threshold_model()
        cfg = SmoothingConfig(sigma=1.0, n_samples=4097, seed=3)
        counts = vote_counts(p, np.array([0.1]), cfg, derive_rng(0), n_classes=2)
        assert counts.sum() == 4097

    def test_vote_counts_match_votes_on_x_plus_sigma_z(self):
        # the noise is the smoothing stream's standard normals, in order,
        # across chunk boundaries; sigma = 0 draws nothing from it
        p = build_mlp([3, 6, 4], seed=3)
        x = np.array([0.2, -0.4, 0.9])
        n = 4 * VOTE_CHUNK + 5
        for i, sigma in enumerate((0.7, 0.0)):
            cfg = SmoothingConfig(sigma=sigma, n_samples=n, seed=4)
            rng = derive_rng(cfg.seed, "smoothing", i)
            counts = vote_counts(p, x, cfg, rng, n_classes=4)
            ref_rng = derive_rng(cfg.seed, "smoothing", i)
            z = ref_rng.standard_normal((n, 3)) if sigma > 0 else np.zeros((n, 3))
            want = np.bincount(predict(p, x + sigma * z), minlength=4)
            np.testing.assert_array_equal(counts, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert (counts > 0).sum() == (4 if sigma > 0 else 1)

    def test_same_seed_is_identical(self):
        p = _threshold_model()
        cfg = SmoothingConfig(sigma=0.8, n_samples=501, abstain_margin=0.1, seed=9)
        x = np.array([0.05])
        assert smooth_predict(p, x, cfg, 2) == smooth_predict(p, x, cfg, 2)

    def test_clear_margin_is_stable_across_seeds(self):
        # at x = sigma the class-1 vote share is ~0.84: margin ~0.34
        p = _threshold_model()
        x = np.array([1.0])
        results = {
            smooth_predict(p, x, SmoothingConfig(sigma=1.0, n_samples=10_000, seed=s), 2)
            for s in range(20)
        }
        assert results == {1}


class TestSmoothAccuracy:
    def _dataset(self, n=30):
        ds = synth_two_gaussians(n, 5.0, seed=4)
        return ds

    def test_sigma_zero_equals_natural_accuracy(self):
        from atent.models import accuracy

        ds = self._dataset()
        p = build_mlp([2, 8, 2], seed=1)
        cfg = SmoothingConfig(sigma=0.0, n_samples=11, seed=0)
        assert smooth_accuracy(p, ds, cfg) == accuracy(p, ds.inputs, ds.labels)

    def test_all_abstain_counts_as_zero(self):
        p = _threshold_model()
        x = np.zeros((10, 1))
        ds = Dataset(Tensor(x), Tensor(np.eye(2)[[0, 1] * 5]))
        cfg = SmoothingConfig(sigma=1.0, n_samples=2000, abstain_margin=0.4, seed=2)
        assert smooth_accuracy(p, ds, cfg) == 0.0

    def test_matches_hand_count(self):
        ds = self._dataset(10)
        p = build_mlp([2, 8, 2], seed=5)
        cfg = SmoothingConfig(sigma=0.3, n_samples=99, seed=6)
        preds = [
            smooth_predict(p, ds.inputs.data[i], cfg, n_classes=2, stream=i)
            for i in range(10)
        ]
        truths = ds.labels.data.argmax(axis=1)
        hand = sum(int(p_ == t) for p_, t in zip(preds, truths) if p_ != ABSTAIN) / 10
        assert smooth_accuracy(p, ds, cfg) == hand


class TestStopRule:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("margin", [0.0, 0.1, 0.3, 0.45])
    def test_decided_outcome_is_the_full_vote_outcome(self, k, margin):
        # every vote prefix against every completion: the rule decides
        # exactly when all completions agree, and then on their outcome
        for n in range(1, 10):
            cfg = SmoothingConfig(sigma=0.0, n_samples=n, abstain_margin=margin)
            for cast in range(n + 1):
                left = n - cast
                for prefix in _compositions(cast, k):
                    counts = np.array(prefix, dtype=np.int64)
                    finals = set()
                    for rest in _compositions(left, k):
                        final = counts + np.array(rest)
                        top = int(final.argmax())
                        finals.add(top if final[top] / n >= 0.5 + margin else ABSTAIN)
                    got = _vote_outcome(counts, left, cfg)
                    if got is None:
                        assert len(finals) > 1, (n, prefix)
                    else:
                        assert finals == {got}, (n, prefix)
                    if left == 0:
                        assert got == finals.pop()


class TestEarlyStop:
    # around one chunk and around four, where a decisive vote of 1000 stops
    @pytest.mark.parametrize("n", [1, VOTE_CHUNK - 1, VOTE_CHUNK, VOTE_CHUNK + 1,
                                   4 * VOTE_CHUNK - 1, 4 * VOTE_CHUNK, 4 * VOTE_CHUNK + 1, 2053])
    @pytest.mark.parametrize("kind", ["threshold", "cnn"])
    def test_equals_full_vote(self, kind, n, forward_sizes):
        if kind == "threshold":
            params, n_classes = _threshold_model(), 2
            xs = [np.array([v]) for v in (0.0, 0.03, 0.3, 1.0)]
        else:
            params, n_classes = _small_cnn(), 3
            rng = np.random.default_rng(11)
            xs = [rng.random((1, 6, 6)) for _ in range(3)]
        cast, outcomes = [], set()
        for seed in (0, 1, 2):
            for sigma in (0.0, 0.25, 1.0):
                for margin in (0.0, 0.1, 0.3):
                    cfg = SmoothingConfig(sigma=sigma, n_samples=n,
                                          abstain_margin=margin, seed=seed)
                    for stream, x in enumerate(xs):
                        forward_sizes.clear()
                        got = smooth_predict(params, x, cfg, n_classes=n_classes,
                                             stream=stream)
                        cast.append(sum(forward_sizes))
                        assert 0 < cast[-1] <= n
                        assert got == _full_vote(params, x, cfg, n_classes, stream)
                        outcomes.add(got)
        # one vote always decides; otherwise both kinds of outcome occur
        assert len(outcomes) > 1 and (ABSTAIN in outcomes or n == 1)
        if n > VOTE_CHUNK:
            assert min(cast) < n  # some votes stopped early
        if n == 2053:
            assert max(cast) > VOTE_CHUNK  # and some went past one chunk

    def test_decisive_example_forwards_once(self, forward_sizes):
        p = build_mlp([2, 3], seed=0)
        for t in p.weights.values():
            t.data = np.zeros_like(t.data)
        p.weights["b0"].data = np.array([0.0, 5.0, 0.0])
        cfg = SmoothingConfig(sigma=0.5, n_samples=1000, seed=1)
        assert smooth_predict(p, np.array([0.3, 0.7]), cfg, 3) == 1
        # 501 of 1000 votes are the fewest that can decide; the fourth chunk
        # is the first to reach them
        assert forward_sizes == [VOTE_CHUNK] * 4

    def test_abstaining_vote_is_checked_every_chunk(self, forward_sizes):
        # a share of 0.8 is 412 of 515 votes; with the vote near even, no
        # class can still reach it once about 206 are in, so the rule stops
        # the vote at its first look past them, after two chunks
        cfg = SmoothingConfig(sigma=1.0, n_samples=4 * VOTE_CHUNK + 3,
                              abstain_margin=0.3, seed=2)
        assert smooth_predict(_threshold_model(), np.array([0.0]), cfg, 2) == ABSTAIN
        assert forward_sizes == [VOTE_CHUNK, VOTE_CHUNK]

    # a vote that runs to its short last chunk, one decided early, and one
    # bound for ABSTAIN
    @pytest.mark.parametrize("x,margin", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.1)])
    def test_whole_chunks_until_the_first_that_decides(self, x, margin, forward_sizes):
        # replayed chunk by chunk from the same stream: every chunk but the
        # last is whole, and the outcome is first decided after the last
        p = _threshold_model()
        cfg = SmoothingConfig(sigma=1.0, n_samples=6 * VOTE_CHUNK + 7,
                              abstain_margin=margin, seed=5)
        got = smooth_predict(p, np.array([x]), cfg, 2)
        sizes = list(forward_sizes)
        assert all(m == VOTE_CHUNK for m in sizes[:-1]) and 0 < sizes[-1] <= VOTE_CHUNK
        rng = derive_rng(cfg.seed, "smoothing", 0)
        counts, remaining = np.zeros(2, dtype=np.int64), cfg.n_samples
        for i, m in enumerate(sizes):
            counts += vote_counts(p, np.array([x]), replace(cfg, n_samples=m), rng, 2)
            remaining -= m
            outcome = _vote_outcome(counts, remaining, cfg)
            assert (outcome is None) == (i < len(sizes) - 1)
        assert outcome == got

    def test_accuracy_equals_full_vote_decisions(self):
        x = np.linspace(-0.6, 0.6, 24)[:, None]
        ds = Dataset(Tensor(x), Tensor(np.eye(2)[[0, 1, 1] * 8]), value_range=(-1.0, 1.0))
        p = _threshold_model()
        cfg = SmoothingConfig(sigma=1.0, n_samples=VOTE_CHUNK + 300,
                              abstain_margin=0.1, seed=3)
        preds = [_full_vote(p, ds.inputs.data[i], cfg, 2, stream=i) for i in range(ds.n)]
        truths = ds.labels.data.argmax(axis=1)
        decided = [(q, t) for q, t in zip(preds, truths) if q != ABSTAIN]
        assert 0 < len(decided) < ds.n
        correct = sum(int(q == t) for q, t in decided)
        assert smooth_accuracy(p, ds, cfg) == correct / ds.n
