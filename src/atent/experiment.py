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
    <out>/report.csv               accuracy table (schema in reporting),
                                   from ``evaluate`` and ``attack``
    <out>/decision.svg             decision regions, from ``evaluate`` and
                                   ``attack`` on 2-D eval data only
    <out>/smooth.json              smoothed accuracy, from ``smooth-eval``
    <out>/.lock                    empty; each command holds its flock while
                                   it writes here

This module writes every one of these files. Every file but the partial
stream and the empty lock is written atomically (tmp + rename): a crashed
run never leaves a file that parses as a complete artifact. Each epoch
appends its line to the stream, then writes ``best.ckpt`` when it changed
and ``last.ckpt`` last, whose rename commits the epoch; resume cuts the
stream back to ``last.ckpt``'s epoch. ``attack`` and ``smooth-eval`` make
the directory only once their results are computed. One process per output
directory: each command holds a kernel flock on ``.lock`` while it writes
there (:func:`output_lock`). The file stays; the kernel releases the lock on
any exit, a crash included. The lock excludes processes on one host, on a
local filesystem.

Data buffers: ``build_train_val`` owns the training pool it builds. Its
train and val splits are two slices of the pool's one float64 array,
reordered in place; a ``Dataset`` that a caller holds is never reordered.
For ``mnist_binary`` only the selected rows ever exist as float64. ``train``
builds no eval split, so it reads no t10k file; ``attack`` and
``smooth-eval`` build the eval split alone (``build_eval_dataset``), and
``evaluate`` builds both, the eval split before training starts.

Entry points read the output directory from ``cfg.output_dir`` (else
``runs/<name>``) and the IDX directory from ``cfg.data.data_dir`` (else
``$ATENT_DATA_DIR``, else ``.``); the CLI writes its flags into both.
"""
from __future__ import annotations

import fcntl
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

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
    permute_rows,
    read_idx_pair,
    subset_binary,
    synth_digits,
    synth_two_gaussians,
)
from .defenses import EpochRecord, TrainerState, train, training_finished
from .models import ModelParams, accuracy, build_model
from .reporting import EvalRow, render_decision_svg, report_to_csv
from .seeding import derive_rng
from .smoothing import smooth_accuracy

DATA_DIR_ENV = "ATENT_DATA_DIR"
TRAIN_VAL_SEED = 13  # fixed seed of the train/validation split


class ExperimentError(RuntimeError):
    """Runtime failure while orchestrating an experiment."""


@contextmanager
def output_lock(out_dir: Path):
    """Hold an exclusive ``flock`` on ``out_dir/.lock`` for the block.

    The kernel releases it when the holder exits, however it exits. A second
    lock in the same process is refused too: the lock belongs to the open
    file description. The file stays empty and is never removed, since
    unlinking a locked file lets a waiter lock an orphaned inode while a
    third run creates a new one. One host, local filesystem, POSIX only."""
    with open(os.open(out_dir / ".lock", os.O_CREAT | os.O_RDONLY, 0o644)) as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ExperimentError(f"output directory {out_dir} is locked by another run") from None
        yield


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


def _mnist_binary(spec: DataSpec, master_seed: int, prefix: str) -> Dataset:
    root = Path(spec.data_dir or os.environ.get(DATA_DIR_ENV, "."))
    images, digits = read_idx_pair(*_mnist_paths(root, prefix))
    return subset_binary(images, digits, spec.class_a, spec.class_b,
                         spec.cap_per_class, seed=master_seed)


def build_eval_dataset(spec: DataSpec, master_seed: int) -> Dataset:
    """The eval split of the configured dataset kind, built alone: for
    ``mnist_binary`` only the t10k files are read."""
    if spec.kind == "mnist_binary":
        return _mnist_binary(spec, master_seed, "t10k")
    if spec.kind == "digits_binary":
        return synth_digits(max(50, spec.n_per_class // 4), (spec.class_a, spec.class_b),
                            seed=master_seed + 90_001)
    return synth_two_gaussians(spec.n, spec.separation, seed=master_seed + 90_001)


def build_train_val(spec: DataSpec, master_seed: int) -> tuple[Dataset, Dataset]:
    """(train, val) pair for the configured dataset kind, without the eval
    split: for ``mnist_binary`` only the train files are read.

    The training pool is built here and belongs to this function. The split
    reorders its rows in place, by a permutation seeded with
    ``TRAIN_VAL_SEED``, and returns val and train as the two slices of its
    one array; with ``val_fraction`` 0 the pool keeps its order."""
    if spec.kind == "mnist_binary":
        pool = _mnist_binary(spec, master_seed, "train")
    elif spec.kind == "digits_binary":
        pool = synth_digits(spec.n_per_class, (spec.class_a, spec.class_b),
                            seed=master_seed)
    else:
        pool = synth_two_gaussians(spec.n, spec.separation, seed=master_seed)
    x, y = pool.inputs.data, pool.labels.data
    n_val = 0
    if spec.val_fraction > 0:
        n_val = int(round(spec.val_fraction * pool.n))
        permute_rows(derive_rng(TRAIN_VAL_SEED, "train-val-split").permutation(pool.n), x, y)
    return (Dataset(x[n_val:], y[n_val:], pool.value_range),
            Dataset(x[:n_val], y[:n_val], pool.value_range))


def build_datasets(spec: DataSpec, master_seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """(train, val, eval) triple for the configured dataset kind:
    :func:`build_train_val` and :func:`build_eval_dataset`."""
    return (*build_train_val(spec, master_seed), build_eval_dataset(spec, master_seed))


# ---------------------------------------------------------------------------
# Training with a commit per epoch

# the counters ``last.ckpt`` carries in its header, and the types each may take
_COUNTER_TYPES = {
    "name": (str,),
    "seed": (int,),
    "epoch": (int,),
    "best_metric": (float,),
    "best_epoch": (int,),
}


def _counters(cfg: ExperimentConfig, state: TrainerState) -> dict:
    return {"name": cfg.name, "seed": cfg.seed, "epoch": state.epoch,
            "best_metric": state.best_metric, "best_epoch": state.best_epoch}


def _check_types(where: str, values, types: dict) -> None:
    """Raise :class:`ExperimentError` that starts with ``where`` unless the
    dict ``values`` holds each key of ``types`` with one of its types."""
    for key, allowed in types.items():
        if key not in values:
            raise ExperimentError(f"{where} {key!r} missing")
        if type(values[key]) not in allowed:  # exact: a bool is not an epoch
            raise ExperimentError(f"{where} {key!r} is {type(values[key]).__name__}, "
                                  f"not {' or '.join(t.__name__ for t in allowed)}")


def _check_counters(path: Path, counters) -> None:
    """Raise :class:`ExperimentError` naming ``path`` unless ``counters``
    holds each key with its type. Other keys, such as the ``best_robust_acc``
    that older headers carry, are not read."""
    if not isinstance(counters, dict):
        raise ExperimentError(f"{path}: no trainer counters in the header")
    _check_types(f"{path}: trainer counter", counters, _COUNTER_TYPES)
    if counters["epoch"] < 1:
        raise ExperimentError(f"{path}: trainer counter 'epoch' is {counters['epoch']}")


# the fields of a metric record and the types each may take; an ``lr`` stays
# an int when a config built in code gives one and no decay has applied
_RECORD_TYPES = {
    "epoch": (int,),
    "train_loss": (float,),
    "nat_acc": (float, type(None)),
    "rob_acc": (float, type(None)),
    "lr": (float, int),
    "wall_ms": (int,),
}


def _metrics_line(record: EpochRecord) -> str:
    return json.dumps(asdict(record), sort_keys=True)


def _metrics_text(history: list[EpochRecord]) -> str:
    return "".join(_metrics_line(r) + "\n" for r in history)


def _read_metrics(path: Path, epochs: int) -> tuple[list[EpochRecord], int]:
    """The first ``epochs`` records of the stream at ``path`` and their
    length in bytes. Lines after them, torn or whole, are not read; fewer
    complete lines, or a record with a field missing or of a type the
    trainer does not write, raise :class:`ExperimentError` naming ``path``."""
    history, size = [], 0
    try:
        with open(path, "rb") as f:
            for line in f:
                if len(history) == epochs or not line.endswith(b"\n"):
                    break
                at = len(history) + 1
                values = json.loads(line)
                if not isinstance(values, dict):
                    raise ValueError(f"line {at} is not a JSON object")
                _check_types(f"{path}: malformed metric record on line {at}: field",
                             values, _RECORD_TYPES)
                record = EpochRecord(**values)
                if record.epoch != at:
                    raise ValueError(f"line {at} holds epoch {record.epoch}")
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
                         best_epoch=counters["best_epoch"])
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
                     eval_ds: Dataset) -> list[EvalRow]:
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
    return rows


def _write_evaluation(rows: list[EvalRow], params: ModelParams,
                      eval_ds: Dataset, out: Path) -> None:
    """``rows`` written to ``out/report.csv``, and the decision regions of
    ``params`` to ``out/decision.svg`` when the eval inputs are 2-D."""
    atomic_write_text(out / "report.csv", report_to_csv(rows))
    if eval_ds.inputs.data.ndim == 2 and eval_ds.inputs.shape[1] == 2:
        atomic_write_text(out / "decision.svg", render_decision_svg(params, eval_ds))


@contextmanager
def _output_dir(cfg: ExperimentConfig):
    """The run's output directory, made if missing and locked for the block."""
    out = Path(cfg.output_dir or f"runs/{cfg.name}")
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        yield out


def _training_datasets(cfg: ExperimentConfig):
    """``build_train_val``, refused when a split has no training row, or no
    validation row for robust early stopping."""
    train_ds, val_ds = build_train_val(cfg.data, cfg.seed)
    if not train_ds.n:
        raise ConfigError(f"data.val_fraction {cfg.data.val_fraction:g} of {val_ds.n} rows "
                          "leaves 0 training rows; training needs at least one")
    if cfg.trainer.early_stop.metric == "robust" and not val_ds.n:
        raise ConfigError(f"data.val_fraction {cfg.data.val_fraction:g} of {train_ds.n} rows "
                          "rounds to 0 validation rows; robust early stopping needs at least one")
    return train_ds, val_ds


def run_training(cfg: ExperimentConfig, resume: bool = False,
                 stop_after: int | None = None) -> TrainerState:
    """Training with persistence only; no attack evaluation."""
    train_ds, val_ds = _training_datasets(cfg)
    with _output_dir(cfg) as out:
        return train_with_persistence(cfg, out, train_ds, val_ds,
                                      resume=resume, stop_after=stop_after)


def run_experiment(cfg: ExperimentConfig, resume: bool = False) -> list[EvalRow]:
    """Train (or resume) to the end, evaluate every configured attack at the
    early-stopped snapshot, and write report/metrics/checkpoints."""
    train_ds, val_ds = _training_datasets(cfg)
    eval_ds = build_eval_dataset(cfg.data, cfg.seed)
    with _output_dir(cfg) as out:
        state = train_with_persistence(cfg, out, train_ds, val_ds, resume=resume)
        params = state.snapshot_params()
        rows = evaluate_attacks(cfg, params, eval_ds)
        _write_evaluation(rows, params, eval_ds, out)
        return rows


def evaluate_checkpoint(cfg: ExperimentConfig, checkpoint_path) -> list[EvalRow]:
    """Attack evaluation of a stored checkpoint (no training), written as
    :func:`run_experiment` writes it. The output directory is made only once
    every attack has run."""
    params = load_checkpoint(checkpoint_path)
    eval_ds = build_eval_dataset(cfg.data, cfg.seed)
    rows = evaluate_attacks(cfg, params, eval_ds)
    with _output_dir(cfg) as out:
        _write_evaluation(rows, params, eval_ds, out)
    return rows


def smooth_evaluate(cfg: ExperimentConfig, checkpoint_path) -> dict:
    """Smoothed accuracy of a stored checkpoint on the eval split, written
    to ``smooth.json`` once it is computed. ``cfg.smoothing.n_samples`` is
    the vote budget per example: the result is the outcome of counting all
    of those votes, even where the vote is decided before the budget is
    spent."""
    if cfg.smoothing is None:
        raise ConfigError("config has no smoothing section")
    params = load_checkpoint(checkpoint_path)
    eval_ds = build_eval_dataset(cfg.data, cfg.seed)
    result = {
        "sigma": cfg.smoothing.sigma,
        "n_samples": cfg.smoothing.n_samples,
        "abstain_margin": cfg.smoothing.abstain_margin,
        "smooth_accuracy": smooth_accuracy(params, eval_ds, cfg.smoothing),
    }
    with _output_dir(cfg) as out:
        atomic_write_text(out / "smooth.json", json.dumps(result, indent=2, sort_keys=True))
    return result
