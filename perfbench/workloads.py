"""The three benchmark workloads, driven through the same public calls the
`atent train` / `atent attack` / `atent smooth-eval` commands make.

Each workload has a set-up (config parse, data synthesis and, for the
evaluation workload, a short training run and a checkpoint round trip), a
unit of timed work, and output checks that run outside the timed region.
The workload seed reaches the program only as the config's ``seed``.

Units and set-ups are timed in CPU seconds of this process
(``time.process_time``), not wall seconds: the program runs on one thread,
so its CPU time is the work it does, while wall time also holds the waits
that other tenants of a shared host cause (a core taken away, a busy disk
behind every fsync). Those waits made wall-clock throughput spread by a
quarter between runs of the same code.

Why each workload exists is written down in ``README.md`` next to this file.
"""
from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from atent import attacks, checkpoint, config, experiment, models, smoothing, verify
from atent.seeding import derive_rng

SAMPLER = {"gamma": 10.0, "step": 1.0, "steps": 5, "noise_scale": 0.01,
           "ema": 0.5, "norm": "linf"}
CNN = {"kind": "cnn", "channels": [8, 16], "fc_widths": [32, 2]}
MLP = {"kind": "mlp", "widths": [784, 64, 2]}

ATTACK_EXAMPLES = 20   # eval examples each attack runs on per round
SMOOTH_EXAMPLES = 1    # eval examples smoothed per round, 1000 noisy copies each


@dataclass
class Tally:
    """Operations attempted and failed, output checks included."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def ops(self, n: int) -> None:
        self.attempted += n

    def fail(self, n: int, what: str) -> None:
        self.attempted += n
        self.failed += n
        self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.attempted += 1
        else:
            self.fail(1, what)


def params_equal(a: models.ModelParams, b: models.ModelParams) -> bool:
    return (a.descriptor == b.descriptor and list(a.weights) == list(b.weights)
            and all(np.array_equal(a.weights[k].data, b.weights[k].data) for k in a.weights))


def run_gradient_suite(tally: Tally) -> None:
    for result in verify.gradient_suite():
        tally.check(result.passed, result.line())


class Workload:
    name: str
    traced_units = 2
    # Set-ups per untraced run: as many as fit in about a tenth of it, so
    # that their median is steady.
    setup_repeats = 7

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"{self._dirs:04d}"
        path.mkdir(parents=True)
        return path

    def config_tree(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, seed: int):
        raise NotImplementedError

    def run_unit(self, s, tally: Tally) -> tuple[dict[str, float], object]:
        """One unit of timed work: ({phase: seconds}, result)."""
        raise NotImplementedError

    def phase_samples(self, s) -> dict[str, int]:
        """Examples one unit puts through each timed phase."""
        raise NotImplementedError

    def check_setup(self, s, tally: Tally) -> None:
        pass

    def check_unit(self, s, first, result, tally: Tally) -> None:
        """Checks one unit's result right after it ran; ``first`` is the
        first unit's result, or None while checking the first unit."""
        raise NotImplementedError

    def quality(self, s, result) -> dict[str, float]:
        raise NotImplementedError


@dataclass
class TrainSetup:
    cfg: config.ExperimentConfig
    train_ds: object
    val_ds: object


@dataclass
class TrainResult:
    state: object
    out: Path


class _TrainWorkload(Workload):
    def setup(self, seed: int) -> TrainSetup:
        cfg = config.parse_config_dict(self.config_tree(seed))
        train_ds, val_ds, _ = experiment.build_datasets(cfg.data, cfg.seed)
        return TrainSetup(cfg, train_ds, val_ds)

    def phase_samples(self, s: TrainSetup) -> dict[str, int]:
        return {"train": s.train_ds.n * s.cfg.trainer.epochs}

    def run_unit(self, s: TrainSetup, tally: Tally):
        out = self.fresh_dir()
        t0 = time.process_time()
        try:
            state = experiment.train_with_persistence(s.cfg, out, s.train_ds, s.val_ds)
        except Exception as exc:  # a failed unit is reported, not fatal
            tally.fail(s.cfg.trainer.epochs, f"train_with_persistence raised {exc!r}")
            return None
        return {"train": time.process_time() - t0}, TrainResult(state, out)

    def check_unit(self, s: TrainSetup, first: TrainResult | None, result: TrainResult,
                   tally: Tally) -> None:
        state = result.state
        tally.check(len(state.history) == s.cfg.trainer.epochs, "every epoch recorded")
        for rec in state.history:
            tally.check(math.isfinite(rec.train_loss), f"epoch {rec.epoch} loss finite")
        loaded = checkpoint.load_checkpoint(result.out / "last.ckpt")
        tally.check(params_equal(loaded, state.params), "last.ckpt reloads bitwise")
        if first is not None:
            tally.check(params_equal(state.params, first.state.params)
                        and state.history == first.state.history,
                        "a repeated training run retraces the first bitwise")
        shutil.rmtree(result.out)

    def quality(self, s: TrainSetup, result: TrainResult) -> dict[str, float]:
        last = result.state.history[-1]
        return {"quality.train_loss": last.train_loss,
                "quality.val_acc": last.nat_acc or 0.0}


class CnnAtentTrain(_TrainWorkload):
    name = "cnn_atent_train"
    traced_units = 4
    setup_repeats = 31

    def config_tree(self, seed: int) -> dict:
        return {
            "name": self.name, "seed": seed,
            "data": {"kind": "digits_binary", "n_per_class": 20, "val_fraction": 0.2},
            "model": CNN,
            "trainer": {"defense": "atent_linf", "lr": 0.05, "epochs": 1,
                        "batch_size": 32, "sampler": SAMPLER},
        }


class MlpSgdPersist(_TrainWorkload):
    name = "mlp_sgd_persist"
    setup_repeats = 11

    def config_tree(self, seed: int) -> dict:
        return {
            "name": self.name, "seed": seed,
            "data": {"kind": "digits_binary", "n_per_class": 200, "val_fraction": 0.1},
            "model": MLP,
            "trainer": {"defense": "sgd", "lr": 0.05, "epochs": 20, "batch_size": 32},
        }


@dataclass
class EvalSetup:
    cfg: config.ExperimentConfig
    trained: object
    params: models.ModelParams
    attack_ds: object
    smooth_ds: object


class CnnAttackEval(Workload):
    name = "cnn_attack_eval"
    setup_repeats = 5  # each set-up trains for 2-3 s

    def config_tree(self, seed: int) -> dict:
        return {
            "name": self.name, "seed": seed,
            "data": {"kind": "digits_binary", "n_per_class": 40, "val_fraction": 0.2},
            "model": CNN,
            "trainer": {"defense": "sgd", "lr": 0.01, "epochs": 6, "batch_size": 8,
                        "lr_schedule": []},
            "attacks": [
                {"kind": "pgd", "norm": "linf", "radius": 0.1, "steps": 5, "step_size": 0.05},
                {"kind": "atent", "norm": "linf", "radius": 0.1, "sampler": SAMPLER},
            ],
            "smoothing": {"sigma": 0.25, "n_samples": 1000},
            "eval_batch_size": 10,
        }

    def setup(self, seed: int) -> EvalSetup:
        cfg = config.parse_config_dict(self.config_tree(seed))
        train_ds, val_ds, eval_ds = experiment.build_datasets(cfg.data, cfg.seed)
        out = self.fresh_dir()
        trained = experiment.train_with_persistence(cfg, out, train_ds, val_ds)
        params = checkpoint.load_checkpoint(out / "last.ckpt")
        shutil.rmtree(out)
        return EvalSetup(cfg, trained, params,
                         eval_ds.take(np.arange(ATTACK_EXAMPLES)),
                         eval_ds.take(np.arange(SMOOTH_EXAMPLES)))

    def check_setup(self, s: EvalSetup, tally: Tally) -> None:
        tally.check(params_equal(s.params, s.trained.params),
                    "set-up checkpoint reloads bitwise")

    def phase_samples(self, s: EvalSetup) -> dict[str, int]:
        return {"pgd": s.attack_ds.n, "atent": s.attack_ds.n, "smooth": s.smooth_ds.n}

    def _batches(self, s: EvalSetup) -> int:
        return -(-s.attack_ds.n // s.cfg.eval_batch_size)

    def run_unit(self, s: EvalSetup, tally: Tally):
        seconds, accs = {}, {}
        for atk in s.cfg.attacks:
            t0 = time.process_time()
            try:
                accs[atk.kind] = attacks.robust_accuracy(s.params, s.attack_ds, atk,
                                                         batch_size=s.cfg.eval_batch_size)
            except Exception as exc:  # a failed unit is reported, not fatal
                tally.fail(self._batches(s), f"robust_accuracy({atk.kind}) raised {exc!r}")
                return None
            seconds[atk.kind] = time.process_time() - t0
            tally.ops(self._batches(s))
        t0 = time.process_time()
        try:
            accs["smooth"] = smoothing.smooth_accuracy(s.params, s.smooth_ds, s.cfg.smoothing)
        except Exception as exc:  # a failed unit is reported, not fatal
            tally.fail(s.smooth_ds.n, f"smooth_accuracy raised {exc!r}")
            return None
        seconds["smooth"] = time.process_time() - t0
        tally.ops(s.smooth_ds.n)
        return seconds, accs

    def check_unit(self, s: EvalSetup, first: dict | None, accs: dict, tally: Tally) -> None:
        if first is not None:
            tally.check(accs == first, "a repeated evaluation round gives equal results")
            return
        ds = s.attack_ds
        nat = models.accuracy(s.params, ds.inputs, ds.labels)
        truth = ds.labels.data.argmax(axis=1)
        bs = s.cfg.eval_batch_size
        for atk in s.cfg.attacks:
            correct = 0
            for bi, start in enumerate(range(0, ds.n, bs)):
                sub = ds.take(np.arange(start, min(start + bs, ds.n)))
                x = sub.inputs.data
                x_adv = attacks.run_attack(s.params, sub.as_batch(), atk, stream=bi)
                tally.check(bool(np.all(np.abs(x_adv - x) <= atk.radius + 1e-12)),
                            f"{atk.kind} batch {bi} inside its eps-ball")
                tally.check(bool(np.all((x_adv >= 0.0) & (x_adv <= 1.0))),
                            f"{atk.kind} batch {bi} inside [0, 1]")
                correct += int(np.sum(models.predict(s.params, x_adv) == truth[start:start + bs]))
            tally.check(correct / ds.n == accs[atk.kind],
                        f"{atk.kind} robust accuracy matches its per-batch outputs")
            tally.check(accs[atk.kind] <= nat, f"{atk.kind} robust accuracy <= natural accuracy")
        cfg = s.cfg.smoothing
        n_classes = s.smooth_ds.n_classes
        smooth_truth = s.smooth_ds.labels.data.argmax(axis=1)
        correct = 0
        for i in range(s.smooth_ds.n):
            rng = derive_rng(cfg.seed, "smoothing", i)
            counts = smoothing.vote_counts(s.params, s.smooth_ds.inputs.data[i], cfg, rng,
                                           n_classes)
            tally.check(int(counts.sum()) == cfg.n_samples,
                        f"vote_counts of example {i} sum to n_samples")
            top = int(counts.argmax())
            decided = counts[top] / cfg.n_samples >= 0.5 + cfg.abstain_margin
            correct += int(decided and top == smooth_truth[i])
        tally.check(correct / s.smooth_ds.n == accs["smooth"],
                    "smoothed accuracy matches its vote counts")

    def quality(self, s: EvalSetup, accs: dict) -> dict[str, float]:
        return {"quality.nat_acc": models.accuracy(s.params, s.attack_ds.inputs,
                                                   s.attack_ds.labels),
                "quality.robust_acc.pgd": accs["pgd"],
                "quality.robust_acc.atent": accs["atent"],
                "quality.smooth_acc": accs["smooth"]}


WORKLOADS = {w.name: w for w in (CnnAtentTrain, MlpSgdPersist, CnnAttackEval)}

QUALITY_METRICS = ("quality.train_loss", "quality.val_acc", "quality.nat_acc",
                   "quality.robust_acc.pgd", "quality.robust_acc.atent", "quality.smooth_acc")
