"""CLI and experiment pipeline: determinism, resume, locking, exit codes."""
import argparse
import dataclasses
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from atent import checkpoint, cli, experiment
from atent.cli import main
from atent.config import parse_config_dict
from atent.experiment import (
    ExperimentError,
    build_datasets,
    output_lock,
    run_experiment,
    run_training,
)
from atent.models import build_mlp
from file_helpers import write_idx


def toy_tree(name="toy", epochs=3, **overrides):
    tree = {
        "name": name,
        "seed": 9,
        "data": {"kind": "two_gaussians", "n": 120, "separation": 5.0},
        "model": {"kind": "mlp", "widths": [2, 8, 2]},
        "trainer": {"defense": "sgd", "lr": 0.3, "epochs": epochs, "batch_size": 32,
                    "lr_schedule": []},
        "attacks": [
            {"kind": "pgd", "norm": "linf", "radius": 0.0, "steps": 2, "step_size": 0.1},
            {"kind": "fgsm", "norm": "linf", "radius": 0.1},
        ],
    }
    tree.update(overrides)
    return tree


def in_dir(cfg, out):
    """``cfg`` with ``out`` as its output directory."""
    return dataclasses.replace(cfg, output_dir=str(out))


def write_cfg(tmp_path, tree, fname="cfg.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(tree))
    return path


_HOLDER = """
import sys, time
from pathlib import Path
from atent.experiment import output_lock
with output_lock(Path(sys.argv[1])):
    print("locked", flush=True)
    time.sleep(60)
"""


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@contextmanager
def lock_holder(out):
    """A subprocess that holds ``out``'s lock through ``output_lock`` for
    the block; it has taken the lock when the block starts."""
    proc = subprocess.Popen([sys.executable, "-c", _HOLDER, str(out)],
                            stdout=subprocess.PIPE, text=True, env=src_env())
    try:
        assert proc.stdout.readline() == "locked\n"
        yield proc
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


class TestPipeline:
    def test_zero_radius_attack_row_equals_natural(self, tmp_path):
        cfg = parse_config_dict(toy_tree())
        report = run_experiment(in_dir(cfg, tmp_path / "out"))
        zero = report[0]
        assert zero.epsilon == 0.0
        assert zero.robust_acc == zero.natural_acc

    def test_bitwise_deterministic_outputs(self, tmp_path):
        cfg = parse_config_dict(toy_tree())
        run_experiment(in_dir(cfg, tmp_path / "a"))
        run_experiment(in_dir(cfg, tmp_path / "b"))
        for fname in ("report.csv", "metrics.jsonl", "last.ckpt", "best.ckpt",
                      "decision.svg"):
            fa = tmp_path / "a" / fname
            fb = tmp_path / "b" / fname
            if fa.exists() or fb.exists():
                assert fa.read_bytes() == fb.read_bytes(), fname

    def test_resume_equivalence(self, tmp_path):
        cfg = parse_config_dict(toy_tree(epochs=4))
        full = tmp_path / "full"
        split = tmp_path / "split"
        run_experiment(in_dir(cfg, full))
        run_training(in_dir(cfg, split), stop_after=2)
        assert (split / "metrics.jsonl.partial").exists()
        assert not (split / "report.csv").exists()
        run_experiment(in_dir(cfg, split), resume=True)
        names = sorted(p.name for p in full.iterdir())
        assert names == sorted(p.name for p in split.iterdir())
        for fname in ("report.csv", "metrics.jsonl", "last.ckpt", "best.ckpt"):
            assert fname in names
        assert "trainer_state.json" not in names
        assert not [n for n in names if n.endswith(".manifest.json")]
        for fname in names:
            assert (full / fname).read_bytes() == (split / fname).read_bytes(), fname
        assert not (split / "metrics.jsonl.partial").exists()

    def test_resume_of_finished_run_is_stable(self, tmp_path):
        cfg = parse_config_dict(toy_tree(epochs=2))
        out = tmp_path / "out"
        run_experiment(in_dir(cfg, out))
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(in_dir(cfg, out), resume=True)
        # the history is read back from metrics.jsonl; every file keeps its bytes
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_finished_run_trained_further(self, tmp_path):
        # no lr decay, so 2 epochs then 2 more retrace a 4-epoch run; the
        # resumed history comes from the finished run's metrics.jsonl
        full, out = tmp_path / "full", tmp_path / "out"
        run_experiment(in_dir(parse_config_dict(toy_tree(epochs=4)), full))
        run_experiment(in_dir(parse_config_dict(toy_tree(epochs=2)), out))
        assert not (out / "metrics.jsonl.partial").exists()
        run_experiment(in_dir(parse_config_dict(toy_tree(epochs=4)), out), resume=True)
        _same_files(full, out)

    def test_resume_rejects_other_experiment(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(in_dir(parse_config_dict(toy_tree(epochs=2)), out))
        other = parse_config_dict(toy_tree(name="other", epochs=2))
        with pytest.raises(ExperimentError, match="different experiment"):
            run_experiment(in_dir(other, out), resume=True)

    def test_resume_ignores_best_robust_acc_of_an_older_header(self, tmp_path):
        # headers written before the counter was dropped still carry it
        tree = toy_tree(epochs=4)
        tree["trainer"]["early_stop"] = {"metric": "robust",
                                         "eval_attack": {"kind": "fgsm", "radius": 0.1}}
        cfg = parse_config_dict(tree)
        full = run_training(in_dir(cfg, tmp_path / "full"))
        out = tmp_path / "out"
        first = run_training(in_dir(cfg, out), stop_after=2)
        last = out / "last.ckpt"
        params, counters = checkpoint.read_checkpoint(last)
        counters["best_robust_acc"] = first.history[first.best_epoch - 1].rob_acc
        last.write_bytes(checkpoint.checkpoint_bytes(params, counters))
        resumed = run_training(in_dir(cfg, out), resume=True)
        assert (resumed.best_epoch, resumed.best_metric) == (full.best_epoch, full.best_metric)
        for name in full.params.names:
            assert np.array_equal(resumed.params.weights[name].data,
                                  full.params.weights[name].data), name
        _same_files(tmp_path / "full", out)

    def test_lock_excludes_second_run(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with output_lock(out):
            with pytest.raises(ExperimentError, match="locked"):
                with output_lock(out):
                    pass
        with output_lock(out):  # released after exit
            pass

    @pytest.mark.parametrize("text", [None, "", "not a pid"],
                             ids=["dead-pid", "empty", "not-a-pid"])
    def test_leftover_lock_file_does_not_block(self, tmp_path, text):
        if text is None:
            proc = subprocess.Popen([sys.executable, "-c", "pass"])
            proc.wait()  # reaped: no process runs under its pid any more
            text = str(proc.pid)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(text)
        with output_lock(out):
            pass
        assert (out / ".lock").read_text() == text

    def test_lock_of_killed_holder_is_free_at_once(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with lock_holder(out) as holder:
            with pytest.raises(ExperimentError, match="locked by another run"):
                with output_lock(out):
                    pass
            holder.kill()  # SIGKILL: the holder runs no cleanup of its own
            holder.wait(timeout=10)
            with output_lock(out):
                pass
        assert (out / ".lock").read_bytes() == b""

    def test_mnist_kind_reads_idx_tree(self, tmp_path):
        rng = np.random.default_rng(0)
        for prefix, n in (("train", 40), ("t10k", 20)):
            imgs = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
            labels = np.array([5, 8] * (n // 2), dtype=np.uint8)
            write_idx(imgs, labels, tmp_path / f"{prefix}-images-idx3-ubyte",
                      tmp_path / f"{prefix}-labels-idx1-ubyte")
        tree = toy_tree()
        tree["data"] = {"kind": "mnist_binary", "class_a": 5, "class_b": 8,
                        "cap_per_class": 10, "data_dir": str(tmp_path)}
        cfg = parse_config_dict(tree)
        train_ds, val_ds, eval_ds = build_datasets(cfg.data, cfg.seed)
        assert train_ds.n + val_ds.n == 20
        assert eval_ds.n == 20

    def test_train_reads_no_test_files(self, tmp_path):
        # only the train pair is on disk: training never reads the t10k
        # pair, and a full run refuses before it trains
        imgs = np.random.default_rng(0).integers(0, 256, size=(40, 28, 28), dtype=np.uint8)
        write_idx(imgs, np.array([5, 8] * 20, dtype=np.uint8),
                  tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte")
        tree = toy_tree(epochs=2)
        tree["data"] = {"kind": "mnist_binary", "class_a": 5, "class_b": 8,
                        "cap_per_class": 10, "data_dir": str(tmp_path)}
        tree["model"] = {"kind": "mlp", "widths": [784, 8, 2]}
        cfg = parse_config_dict(tree)
        state = run_training(in_dir(cfg, tmp_path / "train"))
        assert [r.epoch for r in state.history] == [1, 2]
        with pytest.raises(ExperimentError, match="missing IDX file .*t10k-images"):
            run_experiment(in_dir(cfg, tmp_path / "full"))
        assert not (tmp_path / "full").exists()

    def test_missing_mnist_errors(self, tmp_path):
        tree = toy_tree()
        tree["data"] = {"kind": "mnist_binary", "data_dir": str(tmp_path / "nowhere")}
        cfg = parse_config_dict(tree)
        with pytest.raises(ExperimentError, match="missing IDX"):
            build_datasets(cfg.data, cfg.seed)

    @pytest.mark.parametrize("patience", [1, 2, 3])
    def test_patience_without_validation_never_stops(self, tmp_path, patience):
        tree = toy_tree(epochs=10)
        tree["data"]["val_fraction"] = 0.0
        tree["trainer"]["early_stop"] = {"patience": patience}
        state = run_training(in_dir(parse_config_dict(tree), tmp_path / "out"))
        assert [r.epoch for r in state.history] == list(range(1, 11))
        assert state.best_epoch == -1


class TestEpochCommit:
    """Which files each epoch's commit writes. The 6-epoch toy run improves
    its validation accuracy at epochs 1 and 2 only."""

    @pytest.fixture
    def writes(self, monkeypatch):
        """File names passed to ``atomic_write_bytes``, grouped per epoch
        (each commit ends with ``last.ckpt``), and the number of lines in
        the metric stream at each ``last.ckpt`` write."""
        log, stream_lines = [[]], []
        original = checkpoint.atomic_write_bytes

        def recording(path, blob):
            log[-1].append(os.path.basename(path))
            if log[-1][-1] == "last.ckpt":
                partial = os.path.join(os.path.dirname(path), "metrics.jsonl.partial")
                with open(partial, encoding="utf-8") as f:
                    stream_lines.append(len(f.readlines()))
                log.append([])
            original(path, blob)

        monkeypatch.setattr(checkpoint, "atomic_write_bytes", recording)
        monkeypatch.setattr(experiment, "atomic_write_bytes", recording)
        return log, stream_lines

    def test_best_only_on_improvement(self, tmp_path, writes):
        log, stream_lines = writes
        state = run_training(in_dir(parse_config_dict(toy_tree(epochs=6)), tmp_path / "out"))
        accs = [r.nat_acc for r in state.history]
        assert accs[0] < accs[1] >= max(accs[2:])
        steady = ["last.ckpt"]
        assert log == [
            ["best.ckpt", "last.ckpt"],
            ["best.ckpt", "last.ckpt"],
            steady, steady, steady, steady,
            ["metrics.jsonl"],
        ]
        # each epoch's record is in the stream before its checkpoints are written
        assert stream_lines == [1, 2, 3, 4, 5, 6]

    def test_resumed_process_writes_best_once(self, tmp_path, writes):
        log, stream_lines = writes
        cfg = parse_config_dict(toy_tree(epochs=6))
        run_training(in_dir(cfg, tmp_path / "full"))
        split = tmp_path / "split"
        run_training(in_dir(cfg, split), stop_after=3)
        log[:] = [[]]
        stream_lines.clear()
        run_training(in_dir(cfg, split), resume=True)
        steady = ["last.ckpt"]
        assert log == [["best.ckpt", "last.ckpt"], steady, steady, ["metrics.jsonl"]]
        assert stream_lines == [4, 5, 6]
        for fname in sorted(p.name for p in (tmp_path / "full").iterdir()):
            assert (tmp_path / "full" / fname).read_bytes() == (split / fname).read_bytes()


class _Crash(BaseException):
    """Stands in for the process dying between two writes."""


def _same_files(a, b) -> None:
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for fname in names:
        assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname


def _commit_points():
    """(write, epoch): die right after that epoch's metric line, its
    ``best.ckpt`` (epochs 1 and 2 improve) or its ``last.ckpt``, or after
    the finished run's ``metrics.jsonl``."""
    points = [("stream", e) for e in range(1, 7)] + [("last.ckpt", e) for e in range(1, 7)]
    return points + [("best.ckpt", 1), ("best.ckpt", 2), ("metrics.jsonl", 6)]


class TestCrashResume:
    """A 6-epoch run killed at any point of an epoch commit resumes to the
    bytes of the uninterrupted run."""

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("full")
        run_experiment(in_dir(parse_config_dict(toy_tree(epochs=6)), out))
        return out

    @pytest.mark.parametrize("point", _commit_points(), ids=lambda p: f"{p[0]}-e{p[1]}")
    def test_crash_after_each_write(self, tmp_path, monkeypatch, full, point):
        write, epoch = point
        committed = []
        original = checkpoint.atomic_write_bytes

        def dying(path, blob):
            name = os.path.basename(path)
            at = len(committed) + 1
            if write == "stream" and at == epoch and name.endswith(".ckpt"):
                raise _Crash  # nothing written since the epoch's metric line
            original(path, blob)
            if name == "last.ckpt":
                committed.append(at)
            if name == write and (at == epoch or name == "metrics.jsonl"):
                raise _Crash

        cfg = parse_config_dict(toy_tree(epochs=6))
        out = tmp_path / "out"
        with monkeypatch.context() as m:
            m.setattr(checkpoint, "atomic_write_bytes", dying)
            m.setattr(experiment, "atomic_write_bytes", dying)
            with pytest.raises(_Crash):
                run_experiment(in_dir(cfg, out))
        if (out / "last.ckpt").exists():
            run_experiment(in_dir(cfg, out), resume=True)
        else:  # died in the first epoch: nothing committed, start again
            with pytest.raises(ExperimentError, match="nothing to resume"):
                run_experiment(in_dir(cfg, out), resume=True)
            # the new run's stream starts empty, so it resumes too
            run_training(in_dir(cfg, out), stop_after=3)
            run_experiment(in_dir(cfg, out), resume=True)
        _same_files(full, out)

    @pytest.mark.parametrize("tail", [
        "whole",  # the next epoch's line, written before a crash
        "torn",   # part of it, without its newline
    ])
    def test_stream_past_the_checkpoint_is_cut(self, tmp_path, full, tail):
        cfg = parse_config_dict(toy_tree(epochs=6))
        out = tmp_path / "out"
        run_training(in_dir(cfg, out), stop_after=3)
        lines = (full / "metrics.jsonl").read_text().splitlines(keepends=True)
        partial = out / "metrics.jsonl.partial"
        with open(partial, "a", encoding="utf-8") as f:
            f.write(lines[3] if tail == "whole" else lines[3][:20])
        run_training(in_dir(cfg, out), resume=True, stop_after=5)
        assert partial.read_text() == "".join(lines[:5])
        run_experiment(in_dir(cfg, out), resume=True)
        _same_files(full, out)

    @pytest.mark.parametrize("defect, message", [
        ("short", "2 complete epoch records, but last.ckpt is at epoch 3"),
        ("torn", "2 complete epoch records, but last.ckpt is at epoch 3"),
        ("malformed", "malformed metric record"),
        ("out_of_order", "line 2 holds epoch 3"),
    ])
    def test_stream_behind_the_checkpoint_is_refused(self, tmp_path, defect, message):
        cfg = parse_config_dict(toy_tree(epochs=6))
        out = tmp_path / "out"
        run_training(in_dir(cfg, out), stop_after=3)
        partial = out / "metrics.jsonl.partial"
        lines = partial.read_text().splitlines(keepends=True)
        if defect == "short":
            lines = lines[:2]
        elif defect == "torn":
            lines[2] = lines[2][:-5]
        elif defect == "malformed":
            lines[1] = '{"epoch": 2}\n'
        else:
            lines[1], lines[2] = lines[2], lines[1]
        partial.write_text("".join(lines))
        before = partial.read_bytes()
        with pytest.raises(ExperimentError, match=message) as info:
            run_experiment(in_dir(cfg, out), resume=True)
        assert str(partial) in str(info.value)
        assert partial.read_bytes() == before


class TestCliCommands:
    def test_train_then_attack_and_evaluate(self, tmp_path, capsys):
        # attack and evaluate print the report.csv they wrote, byte for byte
        cfg_path = write_cfg(tmp_path, toy_tree())
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out)]) == 0
        assert (out / "last.ckpt").exists()
        capsys.readouterr()
        assert main(["attack", str(cfg_path), "--checkpoint", str(out / "last.ckpt"),
                     "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out == (out / "report.csv").read_text()
        assert main(["evaluate", str(cfg_path), "--output-dir",
                     str(tmp_path / "out2")]) == 0
        assert capsys.readouterr().out == (tmp_path / "out2" / "report.csv").read_text()

    def test_early_stopped_run_is_finished(self, tmp_path):
        # the toy reaches validation accuracy 1.0 at once, so patience 2
        # ends the 20-epoch run after a few epochs
        tree = toy_tree(epochs=20)
        tree["trainer"]["early_stop"] = {"patience": 2}
        cfg_path = write_cfg(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["evaluate", str(cfg_path), "--output-dir", str(out)]) == 0
        assert (out / "report.csv").exists() and not (out / "metrics.jsonl.partial").exists()
        epochs = checkpoint.read_checkpoint(out / "last.ckpt")[1]["epoch"]
        assert epochs < 20
        assert len((out / "metrics.jsonl").read_text().splitlines()) == epochs
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for _ in range(2):
            assert main(["evaluate", str(cfg_path), "--output-dir", str(out), "--resume"]) == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        # a stop-after epoch past the early stop does not hold back the stream
        stopped = tmp_path / "stopped"
        assert main(["train", str(cfg_path), "--output-dir", str(stopped),
                     "--stop-after", "19"]) == 0
        assert (stopped / "metrics.jsonl").read_bytes() == first["metrics.jsonl"]
        assert not (stopped / "metrics.jsonl.partial").exists()

    def test_resume_at_or_past_stop_after_trains_no_epoch(self, tmp_path):
        cfg_path = write_cfg(tmp_path, toy_tree(epochs=6))
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out),
                     "--stop-after", "2"]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for n in ("2", "1"):
            assert main(["train", str(cfg_path), "--output-dir", str(out), "--resume",
                         "--stop-after", n]) == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_stop_after_before_the_first_epoch_is_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "out"
        assert main(["train", str(write_cfg(tmp_path, toy_tree())), "--output-dir", str(out),
                     "--stop-after", n]) == 1
        assert f"must be an epoch of at least 1, not {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_train_stop_after_then_resume(self, tmp_path):
        cfg_path = write_cfg(tmp_path, toy_tree(epochs=4))
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out),
                     "--stop-after", "2"]) == 0
        assert checkpoint.read_checkpoint(out / "last.ckpt")[1]["epoch"] == 2
        assert main(["train", str(cfg_path), "--output-dir", str(out), "--resume"]) == 0
        assert checkpoint.read_checkpoint(out / "last.ckpt")[1]["epoch"] == 4

    def test_smooth_eval(self, tmp_path, capsys):
        tree = toy_tree()
        tree["smoothing"] = {"sigma": 0.05, "n_samples": 64}
        cfg_path = write_cfg(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out)]) == 0
        assert main(["smooth-eval", str(cfg_path), "--checkpoint",
                     str(out / "last.ckpt"), "--output-dir", str(out)]) == 0
        result = json.loads((out / "smooth.json").read_text())
        assert 0.0 <= result["smooth_accuracy"] <= 1.0

    @pytest.mark.parametrize("command, written", [("attack", "report.csv"),
                                                  ("smooth-eval", "smooth.json")])
    def test_checkpoint_evaluation_reads_only_the_eval_files(self, tmp_path, command,
                                                             written):
        # no train-* IDX file exists: attack and smooth-eval build the eval split alone
        rng = np.random.default_rng(1)
        write_idx(rng.integers(0, 256, size=(20, 28, 28), dtype=np.uint8),
                  np.array([5, 8] * 10, dtype=np.uint8),
                  tmp_path / "t10k-images-idx3-ubyte", tmp_path / "t10k-labels-idx1-ubyte")
        tree = toy_tree(model={"kind": "mlp", "widths": [784, 4, 2]},
                        smoothing={"sigma": 0.1, "n_samples": 16})
        tree["data"] = {"kind": "mnist_binary", "cap_per_class": 10,
                        "data_dir": str(tmp_path)}
        ckpt = tmp_path / "w.ckpt"
        checkpoint.save_checkpoint(build_mlp([784, 4, 2], seed=0), ckpt)
        out = tmp_path / "out"
        assert main([command, str(write_cfg(tmp_path, tree)), "--checkpoint", str(ckpt),
                     "--output-dir", str(out)]) == 0
        assert (out / written).exists()

    def test_attack_writes_the_decision_plot_of_evaluate(self, tmp_path):
        cfg_path = write_cfg(tmp_path, toy_tree())
        out, attacked = tmp_path / "out", tmp_path / "attacked"
        assert main(["evaluate", str(cfg_path), "--output-dir", str(out)]) == 0
        assert main(["attack", str(cfg_path), "--checkpoint", str(out / "best.ckpt"),
                     "--output-dir", str(attacked)]) == 0
        assert (attacked / "decision.svg").read_bytes() == (out / "decision.svg").read_bytes()
        assert (attacked / "report.csv").read_bytes() == (out / "report.csv").read_bytes()

    @pytest.mark.parametrize("winner", ["flag", "key", "env", "cwd"])
    def test_data_dir_precedence(self, tmp_path, monkeypatch, winner):
        # --data-dir, then data.data_dir, then $ATENT_DATA_DIR, then the working
        # directory: each level from the winner down names a directory, and only
        # the winner's holds the IDX files, so reading any other one fails
        order = ["flag", "key", "env", "cwd"]
        dirs = {level: tmp_path / level for level in order[order.index(winner):]}
        for d in dirs.values():
            d.mkdir()
        imgs = np.random.default_rng(0).integers(0, 256, size=(20, 28, 28), dtype=np.uint8)
        write_idx(imgs, np.array([5, 8] * 10, dtype=np.uint8),
                  dirs[winner] / "train-images-idx3-ubyte",
                  dirs[winner] / "train-labels-idx1-ubyte")
        data = {"kind": "mnist_binary", "cap_per_class": 10}
        if "key" in dirs:
            data["data_dir"] = str(dirs["key"])
        monkeypatch.delenv("ATENT_DATA_DIR", raising=False)
        if "env" in dirs:
            monkeypatch.setenv("ATENT_DATA_DIR", str(dirs["env"]))
        monkeypatch.chdir(dirs["cwd"])
        flag = ["--data-dir", str(dirs["flag"])] if "flag" in dirs else []
        tree = toy_tree(epochs=1, data=data, model={"kind": "mlp", "widths": [784, 4, 2]})
        assert main(["train", str(write_cfg(tmp_path, tree)),
                     "--output-dir", str(tmp_path / "out"), *flag]) == 0

    @pytest.mark.parametrize("winner", ["flag", "key", "default"])
    def test_output_dir_precedence(self, tmp_path, monkeypatch, winner):
        # --output-dir, then the output_dir key, then runs/<name>
        monkeypatch.chdir(tmp_path)
        dirs = {"flag": tmp_path / "flagged", "key": tmp_path / "keyed",
                "default": tmp_path / "runs" / "toy"}
        tree = toy_tree(epochs=1)
        if winner != "default":
            tree["output_dir"] = str(dirs["key"])
        flag = ["--output-dir", str(dirs["flag"])] if winner == "flag" else []
        assert main(["train", str(write_cfg(tmp_path, tree)), *flag]) == 0
        assert [d for d in dirs.values() if d.exists()] == [dirs[winner]]
        assert (dirs[winner] / "last.ckpt").exists()

    def test_verify_subcommand_lemma1(self, tmp_path, capsys):
        assert main(["verify", "--suite", "lemma1",
                     "--output-dir", str(tmp_path / "v")]) == 0
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert all(entry["passed"] for entry in report)
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, {**toy_tree(), "mystery": 1})
        assert main(["train", str(bad)]) == 1

    def test_robust_early_stop_without_validation_is_config_error(self, tmp_path, capsys):
        tree = toy_tree()
        tree["data"]["val_fraction"] = 0.0
        tree["trainer"].update(defense="pgd_at", early_stop={"metric": "robust"},
                               pgd={"radius": 0.1, "steps": 1, "step_size": 0.1})
        out = tmp_path / "out"
        assert main(["train", str(write_cfg(tmp_path, tree)), "--output-dir", str(out)]) == 1
        assert "config error: robust early stopping needs validation rows" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_robust_early_stop_with_a_validation_split_of_no_rows(self, tmp_path, capsys):
        tree = toy_tree()
        tree["data"]["val_fraction"] = 0.001
        tree["trainer"].update(defense="pgd_at", early_stop={"metric": "robust"},
                               pgd={"radius": 0.1, "steps": 1, "step_size": 0.1})
        out = tmp_path / "out"
        assert main(["train", str(write_cfg(tmp_path, tree)), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: data.val_fraction 0.001 of 120 rows rounds to 0 "
                       "validation rows; robust early stopping needs at least one"]
        assert not out.exists()

    def test_split_of_no_training_rows_is_config_error(self, tmp_path, capsys):
        tree = toy_tree(data={"kind": "digits_binary", "n_per_class": 1, "val_fraction": 0.75},
                        model={"kind": "mlp", "widths": [784, 2]})
        out = tmp_path / "out"
        assert main(["train", str(write_cfg(tmp_path, tree)), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: data.val_fraction 0.75 of 2 rows leaves 0 "
                       "training rows; training needs at least one"]
        assert not out.exists()

    def test_attack_key_that_its_kind_does_not_read_is_config_error(self, tmp_path, capsys):
        tree = toy_tree()
        tree["attacks"][1]["steps"] = 5
        out = tmp_path / "out"
        assert main(["train", str(write_cfg(tmp_path, tree)), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: unknown key 'attacks[1].steps'"]
        assert not out.exists()

    @pytest.mark.parametrize("data, key", [
        ({"kind": "two_gaussians", "n": 121}, "n"),
        ({"kind": "digits_binary", "class_a": 12}, "class_a"),
        ({"kind": "digits_binary", "class_a": 3, "class_b": 3}, "class_b"),
        ({"kind": "digits_binary", "n_per_class": 0}, "n_per_class"),
        ({"kind": "mnist_binary", "cap_per_class": 0}, "cap_per_class"),
    ])
    def test_data_the_data_layer_cannot_build_is_config_error(self, tmp_path, capsys,
                                                             data, key):
        out = tmp_path / "out"
        cfg_path = write_cfg(tmp_path, toy_tree(data=data))
        assert main(["train", str(cfg_path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: data: ") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.update(eval_batch_size=0), "eval_batch_size must be at least 1, got 0"),
        (lambda t: t["trainer"].update(lr_schedule=[[2, -1.0]]),
         "trainer: lr_schedule factors must be nonnegative"),
        (lambda t: t.update(model={"kind": "mlp", "widths": [2, 0, 2]}),
         "model: layer widths must be positive"),
    ], ids=["eval_batch_size", "lr_schedule", "model"])
    def test_value_the_run_cannot_use_is_config_error(self, tmp_path, capsys, edit, message):
        # refused when the config is read, before any file is written
        tree = toy_tree()
        edit(tree)
        out = tmp_path / "out"
        assert main(["evaluate", str(write_cfg(tmp_path, tree)), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["descriptor", "entry_name"])
    def test_malformed_checkpoint_exit_code(self, tmp_path, capsys, defect):
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(build_mlp([2, 8, 2], seed=0), ckpt)
        blob = bytearray(ckpt.read_bytes())
        if defect == "descriptor":
            at = blob.index(b'{"kind"')
        else:  # the first byte of the first entry's name, "w0"
            at = blob.index(b"w0")
        blob[at] = 0xFF
        ckpt.write_bytes(bytes(blob))
        cfg_path = write_cfg(tmp_path, toy_tree())
        assert main(["attack", str(cfg_path), "--checkpoint", str(ckpt),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"epoch": "2"}, "'epoch' is str, not int"),
        ({"best_epoch": None}, "'best_epoch' is NoneType, not int"),
        ({"best_metric": [1.0]}, "'best_metric' is list, not float"),
        ({"name": 7}, "'name' is int, not str"),
        ({"epoch": 0}, "'epoch' is 0"),
        ({"seed": None}, "'seed' is NoneType, not int"),
        ("best_epoch", "'best_epoch' missing"),
        (None, "no trainer counters"),
    ])
    def test_malformed_trainer_counters_exit_code(self, tmp_path, capsys, edit, message):
        cfg_path = write_cfg(tmp_path, toy_tree(epochs=4))
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out),
                     "--stop-after", "2"]) == 0
        last = out / "last.ckpt"
        params, counters = checkpoint.read_checkpoint(last)
        if isinstance(edit, dict):
            counters.update(edit)
        elif edit is None:
            counters = None
        else:
            del counters[edit]
        last.write_bytes(checkpoint.checkpoint_bytes(params, counters))
        capsys.readouterr()
        assert main(["train", str(cfg_path), "--output-dir", str(out), "--resume"]) == 2
        err = capsys.readouterr().err
        assert str(last) in err
        assert message in err

    @pytest.mark.parametrize("stream, line, field, value, message", [
        ("metrics.jsonl", 3, "nat_acc", [1], "'nat_acc' is list, not float or NoneType"),
        ("metrics.jsonl.partial", 1, "train_loss", "oops", "'train_loss' is str, not float"),
    ], ids=["finished", "partial"])
    def test_metric_record_of_wrong_type_exit_code(self, tmp_path, capsys, stream, line,
                                                   field, value, message):
        # a finished run's stream, or the partial one after --stop-after 2
        cfg_path = write_cfg(tmp_path, toy_tree(epochs=3))
        out = tmp_path / "out"
        stop = ["--stop-after", "2"] if stream.endswith(".partial") else []
        assert main(["train", str(cfg_path), "--output-dir", str(out), *stop]) == 0
        path = out / stream
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), field: value}) + "\n"
        path.write_text("".join(lines))
        before = path.read_bytes()
        capsys.readouterr()
        assert main(["train", str(cfg_path), "--output-dir", str(out), "--resume"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: malformed metric record on line {line}: field {message}" in err
        assert path.read_bytes() == before
        assert stream == "metrics.jsonl" or not (out / "metrics.jsonl").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda r: {k: v for k, v in r.items() if k != "wall_ms"},
         "on line 1: field 'wall_ms' missing"),
        (lambda r: {**r, "epoch": True}, "on line 1: field 'epoch' is bool, not int"),
        (lambda r: [r], "(ValueError: line 1 is not a JSON object)"),
    ], ids=["missing", "bool_epoch", "not_object"])
    def test_malformed_metric_record_exit_code(self, tmp_path, capsys, edit, message):
        cfg_path = write_cfg(tmp_path, toy_tree(epochs=3))
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out),
                     "--stop-after", "2"]) == 0
        path = out / "metrics.jsonl.partial"
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = json.dumps(edit(json.loads(lines[0]))) + "\n"
        path.write_text("".join(lines))
        before = path.read_bytes()
        capsys.readouterr()
        assert main(["train", str(cfg_path), "--output-dir", str(out), "--resume"]) == 2
        assert f"{path}: malformed metric record {message}" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert not (out / "metrics.jsonl").exists()

    def test_int_lr_of_a_config_built_in_code_reads_back(self, tmp_path):
        # no decay applies, so the records carry the int lr as it was given
        cfg = parse_config_dict(toy_tree(epochs=3))
        cfg = dataclasses.replace(cfg, trainer=dataclasses.replace(cfg.trainer, lr=1))
        out = tmp_path / "out"
        run_training(in_dir(cfg, out), stop_after=2)
        assert '"lr": 1,' in (out / "metrics.jsonl.partial").read_text()
        state = run_training(in_dir(cfg, out), resume=True)
        assert [r.lr for r in state.history] == [1, 1, 1]

    @pytest.mark.parametrize("command", ["attack", "smooth-eval"])
    def test_checkpoint_architecture_mismatch_exit_code(self, tmp_path, capsys, command):
        ckpt = tmp_path / "wide.ckpt"
        checkpoint.save_checkpoint(build_mlp([784, 8, 2], seed=0), ckpt)
        cfg_path = write_cfg(tmp_path, toy_tree(smoothing={"sigma": 0.1, "n_samples": 8}))
        assert main([command, str(cfg_path), "--checkpoint", str(ckpt),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert "error: input width 2 != model width 784" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["attack", "smooth-eval"])
    def test_checkpoint_that_does_not_fit_makes_no_output_directory(self, tmp_path, command):
        ckpt = tmp_path / "wide.ckpt"
        checkpoint.save_checkpoint(build_mlp([784, 8, 2], seed=0), ckpt)
        cfg_path = write_cfg(tmp_path, toy_tree(smoothing={"sigma": 0.1, "n_samples": 8}))
        out = tmp_path / "o"
        assert main([command, str(cfg_path), "--checkpoint", str(ckpt),
                     "--output-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "smooth-eval"])
    def test_live_lock_refuses_and_leaves_the_directory(self, tmp_path, capsys, command):
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(build_mlp([2, 8, 2], seed=0), ckpt)
        cfg_path = write_cfg(tmp_path, toy_tree(smoothing={"sigma": 0.1, "n_samples": 8}))
        out = tmp_path / "o"
        out.mkdir()
        (out / "report.csv").write_text("kept\n")
        with lock_holder(out):
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert main([command, str(cfg_path), "--checkpoint", str(ckpt),
                         "--output-dir", str(out)]) == 2
            assert "is locked by another run" in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_python_dash_m_runs_the_cli(self):
        proc = subprocess.run([sys.executable, "-m", "atent", "verify", "--suite", "lemma1"],
                              capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "5/5 checks passed"

    def test_smooth_eval_without_smoothing_section_is_config_error(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, toy_tree())
        assert main(["smooth-eval", str(cfg_path), "--checkpoint",
                     str(tmp_path / "absent.ckpt"), "--output-dir",
                     str(tmp_path / "o")]) == 1
        assert "config has no smoothing section" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, toy_tree())
        assert main(["attack", str(cfg_path), "--checkpoint",
                     str(tmp_path / "absent.ckpt"), "--output-dir",
                     str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_removed_command_and_option_are_usage_errors(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, toy_tree(smoothing={"sigma": 0.1, "n_samples": 8}))
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(build_mlp([2, 8, 2], seed=0), ckpt)
        out = tmp_path / "o"
        assert main(["report", str(cfg_path), "--checkpoint", str(ckpt),
                     "--output-dir", str(out)]) == 1
        assert main(["smooth-eval", str(cfg_path), "--checkpoint", str(ckpt),
                     "--keep-abstain", "--output-dir", str(out)]) == 1
        assert not out.exists()

    def test_docstring_names_every_subcommand(self):
        line = next(ln for ln in cli.__doc__.splitlines() if ln.startswith("Subcommands: "))
        named = line.removeprefix("Subcommands: ").rstrip(".").split(", ")
        choices = next(a.choices for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        assert sorted(named) == sorted(choices)
