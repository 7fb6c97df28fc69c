"""Randomized smoothing: votes, the plurality stop rule, accuracy plumbing."""
import itertools
from collections import deque
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from atent import smoothing
from atent.data import Dataset, synth_two_gaussians
from atent.models import build_mlp, build_small_cnn, predict
from atent.seeding import derive_rng
from atent.smoothing import (
    VOTE_CHUNK,
    SmoothingConfig,
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


def _three_class_model(band=0.3):
    # logits (-x, band, x): class 1 iff |x| < band, else the sign's class
    p = build_mlp([1, 3], seed=0)
    p.weights["w0"].data = np.array([[-1.0, 0.0, 1.0]])
    p.weights["b0"].data = np.array([0.0, band, 0.0])
    return p


def _small_cnn():
    return build_small_cnn([2], [3], seed=1, in_shape=(1, 6, 6))


def _full_counts(params, x, cfg, n_classes, stream=0):
    return vote_counts(params, x, cfg, derive_rng(cfg.seed, "smoothing", stream), n_classes)


def _full_vote(params, x, cfg, n_classes, stream=0):
    # the plurality of all n_samples votes, lowest index on a tie: what
    # smooth_predict returns
    return int(_full_counts(params, x, cfg, n_classes, stream).argmax())


def _plurality(counts):
    return counts.index(max(counts))


def _settled(counts, remaining):
    """No rival, handed every one of the ``remaining`` votes, overtakes the
    plurality of ``counts``."""
    top = _plurality(counts)
    return all(_plurality([c + remaining * (j == rival) for j, c in enumerate(counts)]) == top
               for rival in range(len(counts)))


@pytest.fixture
def forward_sizes(monkeypatch):
    """Batch sizes that smoothing sends to models.predict, in order."""
    sizes = []

    def counting(params, inputs):
        sizes.append(len(inputs))
        return predict(params, inputs)

    monkeypatch.setattr(smoothing, "predict", counting)
    return sizes


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The vote budget of each vote_counts call that smooth_predict makes."""
    sizes = []

    def counting(params, x, cfg, rng, n_classes):
        sizes.append(cfg.n_samples)
        return vote_counts(params, x, cfg, rng, n_classes)

    monkeypatch.setattr(smoothing, "vote_counts", counting)
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
        [dict(sigma=-0.1), dict(n_samples=0), dict(sigma=float("nan"))],
    )
    def test_rejects_bad_values(self, kw):
        base = dict(sigma=1.0, n_samples=10, seed=0)
        base.update(kw)
        with pytest.raises(ValueError):
            SmoothingConfig(**base)

    def test_fields_hold_no_abstain_margin(self):
        # the attribute stays, at 0.0, for the benchmark's one read of it
        assert [f.name for f in fields(SmoothingConfig)] == ["sigma", "n_samples", "seed"]
        assert asdict(SmoothingConfig(sigma=1.0)) == {"sigma": 1.0, "n_samples": 1000, "seed": 0}
        assert SmoothingConfig.abstain_margin == 0.0
        assert not hasattr(smoothing, "ABSTAIN")


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

    def test_three_class_vote_without_majority_takes_plurality(self):
        # shares about 0.31, 0.23 and 0.46: the plurality class holds no
        # majority, where a vote-share threshold of one half abstained
        p = _three_class_model()
        x = np.array([0.2])
        for seed in range(5):
            cfg = SmoothingConfig(sigma=1.0, n_samples=1000, seed=seed)
            counts = _full_counts(p, x, cfg, 3)
            assert counts.argmax() == 2 and counts.max() < cfg.n_samples / 2
            assert smooth_predict(p, x, cfg, 3) == 2

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
        cfg = SmoothingConfig(sigma=0.8, n_samples=501, seed=9)
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

    def test_matches_hand_count(self):
        ds = self._dataset(10)
        p = build_mlp([2, 8, 2], seed=5)
        cfg = SmoothingConfig(sigma=0.3, n_samples=99, seed=6)
        preds = [
            smooth_predict(p, ds.inputs.data[i], cfg, n_classes=2, stream=i)
            for i in range(10)
        ]
        truths = ds.labels.data.argmax(axis=1)
        hand = sum(int(p_ == t) for p_, t in zip(preds, truths)) / 10
        assert smooth_accuracy(p, ds, cfg) == hand


class TestStopRule:
    @pytest.mark.parametrize("k", [2, 3])
    def test_decided_outcome_is_the_full_vote_outcome(self, k, monkeypatch):
        # one scripted vote per chunk, for every sequence of up to 6 votes:
        # the vote stops at the first prefix after which every completion
        # has the same plurality, and returns the plurality of the sequence
        monkeypatch.setattr(smoothing, "VOTE_CHUNK", 1)
        script = deque()
        monkeypatch.setattr(smoothing, "vote_counts",
                            lambda params, x, cfg, rng, n_classes:
                            np.bincount([script.popleft()], minlength=n_classes))
        for n in range(1, 7):
            cfg = SmoothingConfig(sigma=0.0, n_samples=n)
            for votes in itertools.product(range(k), repeat=n):
                script.extend(votes)
                got = smooth_predict(None, np.zeros(1), cfg, k)
                cast = n - len(script)
                script.clear()
                counts = [votes.count(c) for c in range(k)]
                assert got == _plurality(counts), votes
                settled = [
                    {_plurality([votes[:t].count(c) + r for c, r in enumerate(rest)])
                     for rest in _compositions(n - t, k)} for t in range(1, n + 1)]
                assert cast == 1 + [len(s) for s in settled].index(1), votes


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
            # centred on 0, where each class wins somewhere, and some votes
            # split with no majority
            xs = [rng.random((1, 6, 6)) - 0.5 for _ in range(3)]
        cast, outcomes = [], set()
        for seed in (0, 1, 2):
            for sigma in (0.0, 0.25, 1.0):
                cfg = SmoothingConfig(sigma=sigma, n_samples=n, seed=seed)
                for stream, x in enumerate(xs):
                    forward_sizes.clear()
                    got = smooth_predict(params, x, cfg, n_classes=n_classes, stream=stream)
                    cast.append(sum(forward_sizes))
                    assert 0 < cast[-1] <= n
                    assert got == _full_vote(params, x, cfg, n_classes, stream)
                    outcomes.add(got)
        assert len(outcomes) > 1
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

    # a vote that runs to its short last chunk and one decided early, beside
    # the threshold model's boundary at 0 and at a shifted boundary
    @pytest.mark.parametrize("x,threshold", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)])
    def test_whole_chunks_until_the_first_that_decides(self, x, threshold, forward_sizes):
        # replayed chunk by chunk from the same stream: every chunk but the
        # last is whole, and the plurality is first settled after the last
        p = _threshold_model()
        p.weights["b0"].data = np.array([threshold, -threshold])  # class 1 iff x > threshold
        cfg = SmoothingConfig(sigma=1.0, n_samples=6 * VOTE_CHUNK + 7, seed=5)
        got = smooth_predict(p, np.array([x]), cfg, 2)
        sizes = list(forward_sizes)
        assert all(m == VOTE_CHUNK for m in sizes[:-1]) and 0 < sizes[-1] <= VOTE_CHUNK
        rng = derive_rng(cfg.seed, "smoothing", 0)
        counts, remaining = np.zeros(2, dtype=np.int64), cfg.n_samples
        for i, m in enumerate(sizes):
            counts += vote_counts(p, np.array([x]), replace(cfg, n_samples=m), rng, 2)
            remaining -= m
            assert _settled(counts.tolist(), remaining) == (i == len(sizes) - 1)
        assert got == _plurality(counts.tolist())

    @pytest.mark.parametrize("n", [1, 77, VOTE_CHUNK, VOTE_CHUNK + 1, 1000])
    @pytest.mark.parametrize("k", [2, 3])
    def test_one_vote_counts_call_per_chunk_of_the_replayed_stream(self, k, n, chunk_sizes):
        # replayed chunk by chunk from the same stream: smooth_predict makes
        # one vote_counts call per chunk, every chunk but the last whole, up
        # to the first chunk after which no rival can overtake the leader
        if k == 2:
            params, xs = _threshold_model(), (0.0, 0.03, 0.3, 1.0)
        else:
            params, xs = _three_class_model(), (0.0, 0.2, 0.6, 1.5)
        calls = []
        for seed in (0, 1, 2):
            for sigma in (0.25, 1.0):
                cfg = SmoothingConfig(sigma=sigma, n_samples=n, seed=seed)
                for stream, x in enumerate(xs):
                    x = np.array([x])
                    chunk_sizes.clear()
                    got = smooth_predict(params, x, cfg, k, stream=stream)
                    rng = derive_rng(cfg.seed, "smoothing", stream)
                    counts, remaining, want = np.zeros(k, dtype=np.int64), n, []
                    while not want or not _settled(counts.tolist(), remaining):
                        want.append(min(VOTE_CHUNK, remaining))
                        remaining -= want[-1]
                        counts += vote_counts(params, x, replace(cfg, n_samples=want[-1]),
                                              rng, k)
                    assert chunk_sizes == want
                    assert got == _full_vote(params, x, cfg, k, stream)
                    calls.append(len(chunk_sizes))
        chunks = -(-n // VOTE_CHUNK)
        if chunks > 1:
            assert min(calls) < chunks  # some votes stopped early
        if n == 1000:
            assert max(calls) == chunks  # and some ran to the short last chunk

    def test_accuracy_equals_full_vote_decisions(self):
        x = np.linspace(-0.6, 0.6, 24)[:, None]
        ds = Dataset(Tensor(x), Tensor(np.eye(2)[[0, 1, 1] * 8]), value_range=(-1.0, 1.0))
        p = _threshold_model()
        cfg = SmoothingConfig(sigma=1.0, n_samples=VOTE_CHUNK + 300, seed=3)
        preds = [_full_vote(p, ds.inputs.data[i], cfg, 2, stream=i) for i in range(ds.n)]
        truths = ds.labels.data.argmax(axis=1)
        correct = sum(int(q == t) for q, t in zip(preds, truths))
        assert 0 < correct < ds.n
        assert smooth_accuracy(p, ds, cfg) == correct / ds.n
