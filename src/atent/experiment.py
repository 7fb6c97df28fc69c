"""Experiment orchestration: data/model assembly, training with
checkpointed resume, attack evaluation, report emission.

Output-directory layout:

    <out>/last.ckpt                current params, written every epoch; its
                                   header carries the run's name and seed,
                                   the epoch and the best-metric counters
    <out>/best.ckpt                early-stopped snapshot, written on
                                   improvement
    <out>/metrics.jsonl.partial    per-epoch records while training, one
                                   JSON line each (the only copy of the
                                   history until the run finishes)
    <out>/metrics.jsonl            finalized metric stream
    <out>/report.csv               accuracy table (schema in reporting)
    <out>/decision.svg             2-D tasks only

Every file but the partial stream is written atomically (tmp + rename): a
crashed run never leaves a file that parses as a complete artifact. Each
epoch appends its line to the stream, then writes ``best.ckpt`` when it
changed and ``last.ckpt`` last, whose rename commits the epoch; resume cuts
the stream back to ``last.ckpt``'s epoch. One experiment process per output
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
from .checkpoint import (
    atomic_write_bytes,
    atomic_write_text,
    checkpoint_bytes,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from .config import ConfigError, DataSpec, ExperimentConfig
from .data import (
    Dataset,
    load_mnist_idx,
    split_train_val,
    subset_binary,
    synth_digits,
    synth_two_gaussians,
)
from .defenses import EpochRecord, TrainerState, train, training_finished
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
# Training with a commit per epoch

# the counters ``last.ckpt`` carries in its header, and the types each may take
_COUNTER_TYPES = {
    "name": (str,),
    "seed": (int,),
    "epoch": (int,),
    "best_metric": (float,),
    "best_epoch": (int,),
    "best_robust_acc": (float, type(None)),
}


def _counters(cfg: ExperimentConfig, state: TrainerState) -> dict:
    return {"name": cfg.name, "seed": cfg.seed, "epoch": state.epoch,
            "best_metric": state.best_metric, "best_epoch": state.best_epoch,
            "best_robust_acc": state.best_robust_acc}


def _check_counters(path: Path, counters) -> None:
    """Raise :class:`ExperimentError` naming ``path`` unless ``counters``
    holds each key with its type."""
    if not isinstance(counters, dict):
        raise ExperimentError(f"{path}: no trainer counters in the header")
    for key, types in _COUNTER_TYPES.items():
        if key not in counters:
            raise ExperimentError(f"{path}: trainer counter {key!r} missing")
        if type(counters[key]) not in types:  # exact: a bool is not an epoch
            raise ExperimentError(f"{path}: trainer counter {key!r} is "
                                  f"{type(counters[key]).__name__}, not "
                                  f"{' or '.join(t.__name__ for t in types)}")
    if counters["epoch"] < 1:
        raise ExperimentError(f"{path}: trainer counter 'epoch' is {counters['epoch']}")


def _metrics_line(record: EpochRecord) -> str:
    return json.dumps(asdict(record), sort_keys=True)


def _metrics_text(history: list[EpochRecord]) -> str:
    return "".join(_metrics_line(r) + "\n" for r in history)


def _read_metrics(path: Path, epochs: int) -> tuple[list[EpochRecord], int]:
    """The first ``epochs`` records of the stream at ``path`` and their
    length in bytes. Lines after them, torn or whole, are not read; fewer
    complete lines raise :class:`ExperimentError` naming ``path``."""
    history, size = [], 0
    try:
        with open(path, "rb") as f:
            for line in f:
                if len(history) == epochs or not line.endswith(b"\n"):
                    break
                record = EpochRecord(**json.loads(line))
                if record.epoch != len(history) + 1:
                    raise ValueError(f"line {len(history) + 1} holds epoch {record.epoch}")
                history.append(record)
                size += len(line)
    except FileNotFoundError:
        pass
    except (TypeError, ValueError) as exc:  # ValueError includes JSON/UTF-8 decoding
        raise ExperimentError(
            f"{path}: malformed metric record ({type(exc).__name__}: {exc})"
        ) from exc
    if len(history) < epochs:
        raise ExperimentError(f"{path}: {len(history)} complete epoch records, "
                              f"but last.ckpt is at epoch {epochs}")
    return history, size


def _resume_state(cfg: ExperimentConfig, out: Path) -> TrainerState:
    """The state ``last.ckpt`` committed, its history read back from the
    metric stream: ``metrics.jsonl.partial`` if present, which is cut back
    to the committed epoch, else a finished run's ``metrics.jsonl``."""
    last_ckpt = out / "last.ckpt"
    if not last_ckpt.exists():
        raise ExperimentError(f"nothing to resume in {out}")
    params, counters = read_checkpoint(last_ckpt)
    _check_counters(last_ckpt, counters)
    if counters["name"] != cfg.name or counters["seed"] != cfg.seed:
        raise ExperimentError("saved state belongs to a different experiment")
    state = TrainerState(params=params, epoch=counters["epoch"],
                         best_metric=counters["best_metric"],
                         best_epoch=counters["best_epoch"],
                         best_robust_acc=counters["best_robust_acc"])
    partial = out / "metrics.jsonl.partial"
    if partial.exists():
        state.history, size = _read_metrics(partial, state.epoch)
        os.truncate(partial, size)
    else:
        state.history, _ = _read_metrics(out / "metrics.jsonl", state.epoch)
    if (out / "best.ckpt").exists():
        state.best_params = load_checkpoint(out / "best.ckpt")
    return state


def train_with_persistence(cfg: ExperimentConfig, out: Path,
                           train_ds: Dataset, val_ds: Dataset,
                           resume: bool = False,
                           stop_after: int | None = None) -> TrainerState:
    """Train ``cfg`` with a commit to ``out`` after every epoch.

    Each epoch, in this order: appends its record to
    ``metrics.jsonl.partial`` and flushes it; writes ``best.ckpt`` when the
    early-stopped snapshot is not the one this process wrote last (the
    trainer installs a fresh snapshot on every improvement, so this is
    each improving epoch plus the first commit of every process, resumed
    or not); writes ``last.ckpt`` last. Its rename commits the epoch:
    weights and counters land together, and resume cuts the stream back to
    the epoch it names. A crash before it leaves at most one record and a
    ``best.ckpt`` ahead of the commit; the resumed run retrains that epoch
    and writes both again with the same bytes. A finished run (all epochs,
    or ended by early stopping) writes ``metrics.jsonl`` and removes the
    partial file; resuming it trains no further epoch.
    """
    last_ckpt = out / "last.ckpt"
    best_ckpt = out / "best.ckpt"
    partial = out / "metrics.jsonl.partial"

    state = _resume_state(cfg, out) if resume else None
    if state is None or not training_finished(state, cfg.trainer):
        if state is None:
            partial.unlink(missing_ok=True)
        elif not partial.exists():  # a finished run trained further
            atomic_write_text(partial, _metrics_text(state.history))
        best_written = None
        with open(partial, "a", encoding="utf-8") as stream:

            def on_epoch(state: TrainerState):
                nonlocal best_written
                stream.write(_metrics_line(state.history[-1]) + "\n")
                stream.flush()
                if state.best_params is not None and state.best_params is not best_written:
                    save_checkpoint(state.best_params, best_ckpt)
                    best_written = state.best_params
                atomic_write_bytes(last_ckpt,
                                   checkpoint_bytes(state.params, _counters(cfg, state)))

            params0 = state.params if state is not None else build_model(cfg.model, cfg.seed)
            state = train(params0, cfg.trainer, train_ds, val_ds,
                          resume_state=state, stop_after_epoch=stop_after,
                          on_epoch=on_epoch)
    if partial.exists() and training_finished(state, cfg.trainer):
        atomic_write_text(out / "metrics.jsonl", _metrics_text(state.history))
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

    Returns None when ``stop_after`` interrupted training before it finished
    (no report is produced for partial runs); a run that early stopping
    ended is finished.
    """
    out = resolve_output_dir(cfg, output_dir)
    with output_lock(out):
        train_ds, val_ds, eval_ds = build_datasets(cfg.data, cfg.seed, data_dir)
        state = train_with_persistence(cfg, out, train_ds, val_ds,
                                       resume=resume, stop_after=stop_after)
        if not training_finished(state, cfg.trainer):
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
