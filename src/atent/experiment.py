"""Experiment orchestration: data/model assembly, training with
checkpointed resume, attack evaluation, report emission.

Output-directory layout:

    <out>/last.ckpt                current params, written every epoch
    <out>/best.ckpt                early-stopped snapshot, written on
                                   improvement
    <out>/trainer_state.json       epoch counter, best metric, history
    <out>/metrics.jsonl.partial    per-epoch stream while training
    <out>/metrics.jsonl            finalized metric stream
    <out>/report.csv               accuracy table (schema in reporting)
    <out>/decision.svg             2-D tasks only

All writes are atomic (tmp + rename): a crashed run never leaves a file
that parses as a complete artifact. One experiment process per output
directory, enforced by a lock file.
"""
from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .attacks import robust_accuracy
from .checkpoint import atomic_write_text, load_checkpoint, save_checkpoint
from .config import ConfigError, DataSpec, ExperimentConfig
from .data import (
    Dataset,
    load_mnist_idx,
    split_train_val,
    subset_binary,
    synth_digits,
    synth_two_gaussians,
)
from .defenses import EpochRecord, TrainerState, train
from .models import ModelParams, accuracy, build_model
from .reporting import EvalReport, EvalRow, write_decision_svg, write_report_csv
from .smoothing import smooth_accuracy

DATA_DIR_ENV = "ATENT_DATA_DIR"


class ExperimentError(RuntimeError):
    """Runtime failure while orchestrating an experiment."""


def _pid_is_dead(lock: Path) -> bool:
    """True when ``lock`` names a pid that no process runs under. A lock
    without a readable pid counts as live: its holder may still be writing it."""
    try:
        pid = int(lock.read_text())
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, under another user
        pass
    return False


@contextmanager
def output_lock(out_dir: Path):
    """Hold ``out_dir/.lock`` for the block; the lock file records the pid.

    A lock left behind by a process that no longer runs is reclaimed. Two
    runs reclaiming the same stale lock at the same moment can both succeed,
    so this guards against a dead run, not against a race of two starts."""
    lock = out_dir / ".lock"
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        fd = os.open(lock, flags)
    except FileExistsError:
        if not _pid_is_dead(lock):
            raise ExperimentError(
                f"output directory {out_dir} is locked by another run "
                f"(remove {lock} if that run is dead)"
            )
        lock.unlink(missing_ok=True)
        fd = os.open(lock, flags)
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock)
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# Dataset assembly


def _mnist_paths(data_dir: Path, prefix: str) -> tuple[Path, Path]:
    stems = {
        "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        "t10k": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    }[prefix]
    out = []
    for stem in stems:
        plain, gz = data_dir / stem, data_dir / f"{stem}.gz"
        if plain.exists():
            out.append(plain)
        elif gz.exists():
            out.append(gz)
        else:
            raise ExperimentError(f"missing IDX file {plain} (or .gz)")
    return out[0], out[1]


def build_datasets(spec: DataSpec, master_seed: int,
                   data_dir: str | None = None) -> tuple[Dataset, Dataset, Dataset]:
    """(train, val, eval) triple for the configured dataset kind."""
    if spec.kind == "mnist_binary":
        root = Path(data_dir or spec.data_dir or os.environ.get(DATA_DIR_ENV, "."))
        train_full = load_mnist_idx(*_mnist_paths(root, "train"))
        test_full = load_mnist_idx(*_mnist_paths(root, "t10k"))
        pool = subset_binary(train_full, spec.class_a, spec.class_b,
                             spec.cap_per_class, seed=master_seed)
        eval_ds = subset_binary(test_full, spec.class_a, spec.class_b,
                                spec.cap_per_class, seed=master_seed)
    elif spec.kind == "digits_binary":
        pool = synth_digits(spec.n_per_class, (spec.class_a, spec.class_b),
                            seed=master_seed)
        eval_ds = synth_digits(max(50, spec.n_per_class // 4),
                               (spec.class_a, spec.class_b),
                               seed=master_seed + 90_001)
    else:
        pool = synth_two_gaussians(spec.n, spec.separation, seed=master_seed)
        eval_ds = synth_two_gaussians(spec.n, spec.separation,
                                      seed=master_seed + 90_001)
    if spec.val_fraction > 0:
        train_ds, val_ds = split_train_val(pool, spec.val_fraction)
    else:
        train_ds, val_ds = pool, pool.take(np.arange(0))
    return train_ds, val_ds, eval_ds


# ---------------------------------------------------------------------------
# Trainer-state persistence


def _state_to_json(state: TrainerState) -> dict:
    return {
        "epoch": state.epoch,
        "best_metric": state.best_metric,
        "best_epoch": state.best_epoch,
        "best_robust_acc": state.best_robust_acc,
        "history": [asdict(r) for r in state.history],
    }


def _read_state(path: Path) -> tuple[dict, TrainerState]:
    """The saved file's top level and its trainer state, without params.
    A file that is not JSON, or lacks ``trainer`` or one of its keys,
    raises :class:`ExperimentError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            tree = json.load(f)
        saved = tree["trainer"]
        state = TrainerState(params=None)
        state.epoch = saved["epoch"]
        state.best_metric = saved["best_metric"]
        state.best_epoch = saved["best_epoch"]
        state.best_robust_acc = saved["best_robust_acc"]
        state.history = [EpochRecord(**r) for r in saved["history"]]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError includes JSONDecodeError
        raise ExperimentError(
            f"{path}: malformed trainer state ({type(exc).__name__}: {exc})"
        ) from exc
    return tree, state


def _metrics_line(record: EpochRecord) -> str:
    return json.dumps(asdict(record), sort_keys=True)


def train_with_persistence(cfg: ExperimentConfig, out: Path,
                           train_ds: Dataset, val_ds: Dataset,
                           resume: bool = False,
                           stop_after: int | None = None) -> TrainerState:
    """Train ``cfg`` with a commit to ``out`` after every epoch.

    Each epoch writes, in this order: ``last.ckpt``; ``best.ckpt`` when the
    early-stopped snapshot is not the one this process wrote last (the
    trainer installs a fresh snapshot on every improvement, so this is
    each improving epoch plus the first commit of every process, resumed
    or not); ``trainer_state.json`` last; then a line appended to
    ``metrics.jsonl.partial``. A steady-state epoch thus replaces two
    files, and a crash between them leaves new weights beside the previous
    epoch's state. A finished run writes ``metrics.jsonl`` and removes the
    partial file.
    """
    state_path = out / "trainer_state.json"
    last_ckpt = out / "last.ckpt"
    best_ckpt = out / "best.ckpt"
    partial = out / "metrics.jsonl.partial"

    resume_state = None
    if resume:
        if not (state_path.exists() and last_ckpt.exists()):
            raise ExperimentError(f"nothing to resume in {out}")
        tree, resume_state = _read_state(state_path)
        if tree.get("name") != cfg.name or tree.get("seed") != cfg.seed:
            raise ExperimentError("saved state belongs to a different experiment")
        resume_state.params = load_checkpoint(last_ckpt)
        if best_ckpt.exists():
            resume_state.best_params = load_checkpoint(best_ckpt)
        if resume_state.epoch >= cfg.trainer.epochs:
            return resume_state
    params0 = build_model(cfg.model, cfg.seed)
    best_written = None

    def on_epoch(state: TrainerState):
        nonlocal best_written
        save_checkpoint(state.params, last_ckpt)
        if state.best_params is not None and state.best_params is not best_written:
            save_checkpoint(state.best_params, best_ckpt)
            best_written = state.best_params
        tree = {"name": cfg.name, "seed": cfg.seed, "trainer": _state_to_json(state)}
        atomic_write_text(state_path, json.dumps(tree, indent=2, sort_keys=True))
        with open(partial, "a", encoding="utf-8") as f:
            f.write(_metrics_line(state.history[-1]) + "\n")

    state = train(params0, cfg.trainer, train_ds, val_ds,
                  resume_state=resume_state, stop_after_epoch=stop_after,
                  on_epoch=on_epoch)
    if stop_after is None or state.epoch >= cfg.trainer.epochs:
        lines = "".join(_metrics_line(r) + "\n" for r in state.history)
        atomic_write_text(out / "metrics.jsonl", lines)
        if partial.exists():
            partial.unlink()
    return state


# ---------------------------------------------------------------------------
# Evaluation and the full pipeline


def evaluate_attacks(cfg: ExperimentConfig, params: ModelParams,
                     eval_ds: Dataset) -> EvalReport:
    nat = accuracy(params, eval_ds.inputs, eval_ds.labels)
    rows = []
    for atk in cfg.attacks:
        t0 = time.perf_counter() if cfg.record_timing else 0.0
        rob = robust_accuracy(params, eval_ds, atk, batch_size=cfg.eval_batch_size)
        wall = int(round((time.perf_counter() - t0) * 1000)) if cfg.record_timing else 0
        rows.append(EvalRow(
            defense=cfg.trainer.defense, attack=atk.kind, norm=atk.norm,
            epsilon=atk.radius, natural_acc=nat, robust_acc=rob,
            seed=cfg.seed, wall_ms=wall,
        ))
    if not cfg.attacks:
        rows.append(EvalRow(
            defense=cfg.trainer.defense, attack="none", norm="linf", epsilon=0.0,
            natural_acc=nat, robust_acc=nat, seed=cfg.seed, wall_ms=0,
        ))
    return EvalReport(rows)


def resolve_output_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    out = Path(override or cfg.output_dir or f"runs/{cfg.name}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_training(cfg: ExperimentConfig, output_dir: str | None = None,
                 resume: bool = False, stop_after: int | None = None,
                 data_dir: str | None = None) -> TrainerState:
    """Training with persistence only; no attack evaluation."""
    out = resolve_output_dir(cfg, output_dir)
    with output_lock(out):
        train_ds, val_ds, _ = build_datasets(cfg.data, cfg.seed, data_dir)
        return train_with_persistence(cfg, out, train_ds, val_ds,
                                      resume=resume, stop_after=stop_after)


def run_experiment(cfg: ExperimentConfig, output_dir: str | None = None,
                   resume: bool = False, stop_after: int | None = None,
                   data_dir: str | None = None) -> EvalReport | None:
    """Train (or resume), evaluate every configured attack at the
    early-stopped snapshot, and write report/metrics/checkpoints.

    Returns None when training was interrupted by ``stop_after`` before the
    configured epoch count (no report is produced for partial runs).
    """
    out = resolve_output_dir(cfg, output_dir)
    with output_lock(out):
        train_ds, val_ds, eval_ds = build_datasets(cfg.data, cfg.seed, data_dir)
        state = train_with_persistence(cfg, out, train_ds, val_ds,
                                       resume=resume, stop_after=stop_after)
        if state.epoch < cfg.trainer.epochs:
            return None
        params = state.snapshot_params()
        report = evaluate_attacks(cfg, params, eval_ds)
        write_report_csv(report, out / "report.csv")
        if eval_ds.inputs.data.ndim == 2 and eval_ds.inputs.shape[1] == 2:
            write_decision_svg(params, eval_ds, out / "decision.svg")
        return report


def evaluate_checkpoint(cfg: ExperimentConfig, checkpoint_path,
                        output_dir: str | None = None,
                        data_dir: str | None = None) -> EvalReport:
    """Attack evaluation of a stored checkpoint (no training)."""
    out = resolve_output_dir(cfg, output_dir)
    params = load_checkpoint(checkpoint_path)
    _, _, eval_ds = build_datasets(cfg.data, cfg.seed, data_dir)
    report = evaluate_attacks(cfg, params, eval_ds)
    write_report_csv(report, out / "report.csv")
    return report


def smooth_evaluate(cfg: ExperimentConfig, checkpoint_path,
                    data_dir: str | None = None,
                    count_abstain_as_error: bool = True) -> dict:
    """Smoothed accuracy of a stored checkpoint on the eval split.
    ``cfg.smoothing.n_samples`` is the vote budget per example: the result
    is the outcome of counting all of those votes, even where the vote is
    decided before the budget is spent."""
    if cfg.smoothing is None:
        raise ConfigError("config has no smoothing section")
    params = load_checkpoint(checkpoint_path)
    _, _, eval_ds = build_datasets(cfg.data, cfg.seed, data_dir)
    acc = smooth_accuracy(params, eval_ds, cfg.smoothing,
                          count_abstain_as_error=count_abstain_as_error)
    return {
        "sigma": cfg.smoothing.sigma,
        "n_samples": cfg.smoothing.n_samples,
        "abstain_margin": cfg.smoothing.abstain_margin,
        "count_abstain_as_error": count_abstain_as_error,
        "smooth_accuracy": acc,
    }
