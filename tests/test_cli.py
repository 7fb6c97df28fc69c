"""CLI and experiment pipeline: determinism, resume, locking, exit codes."""
import json
import os

import numpy as np
import pytest

from atent import checkpoint, experiment
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


def write_cfg(tmp_path, tree, fname="cfg.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(tree))
    return path


class TestPipeline:
    def test_zero_radius_attack_row_equals_natural(self, tmp_path):
        cfg = parse_config_dict(toy_tree())
        report = run_experiment(cfg, output_dir=str(tmp_path / "out"))
        zero = report.rows[0]
        assert zero.epsilon == 0.0
        assert zero.robust_acc == zero.natural_acc

    def test_bitwise_deterministic_outputs(self, tmp_path):
        cfg = parse_config_dict(toy_tree())
        run_experiment(cfg, output_dir=str(tmp_path / "a"))
        run_experiment(cfg, output_dir=str(tmp_path / "b"))
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
        run_experiment(cfg, output_dir=str(full))
        partial = run_experiment(cfg, output_dir=str(split), stop_after=2)
        assert partial is None
        assert (split / "metrics.jsonl.partial").exists()
        assert not (split / "report.csv").exists()
        run_experiment(cfg, output_dir=str(split), resume=True)
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
        run_experiment(cfg, output_dir=str(out))
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(cfg, output_dir=str(out), resume=True)
        # the history is read back from metrics.jsonl; every file keeps its bytes
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_finished_run_trained_further(self, tmp_path):
        # no lr decay, so 2 epochs then 2 more retrace a 4-epoch run; the
        # resumed history comes from the finished run's metrics.jsonl
        full, out = tmp_path / "full", tmp_path / "out"
        run_experiment(parse_config_dict(toy_tree(epochs=4)), output_dir=str(full))
        run_experiment(parse_config_dict(toy_tree(epochs=2)), output_dir=str(out))
        assert not (out / "metrics.jsonl.partial").exists()
        run_experiment(parse_config_dict(toy_tree(epochs=4)), output_dir=str(out),
                       resume=True)
        _same_files(full, out)

    def test_resume_rejects_other_experiment(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(parse_config_dict(toy_tree(epochs=2)), output_dir=str(out))
        other = parse_config_dict(toy_tree(name="other", epochs=2))
        with pytest.raises(ExperimentError, match="different experiment"):
            run_experiment(other, output_dir=str(out), resume=True)

    def test_lock_excludes_second_run(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with output_lock(out):
            with pytest.raises(ExperimentError, match="locked"):
                with output_lock(out):
                    pass
        with output_lock(out):  # released after exit
            pass

    def test_lock_of_dead_pid_is_reclaimed(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()  # reaped: no process runs under its pid any more
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(proc.pid))
        with output_lock(out):
            assert (out / ".lock").read_text() == str(os.getpid())
        assert not (out / ".lock").exists()

    def test_lock_without_readable_pid_refuses(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for text in ("", "not a pid"):
            (out / ".lock").write_text(text)
            with pytest.raises(ExperimentError, match="locked"):
                with output_lock(out):
                    pass

    def test_mnist_kind_reads_idx_tree(self, tmp_path):
        import numpy as np

        from atent.data import write_idx

        rng = np.random.default_rng(0)
        for prefix, n in (("train", 40), ("t10k", 20)):
            imgs = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
            labels = np.array([5, 8] * (n // 2), dtype=np.uint8)
            write_idx(imgs, labels, tmp_path / f"{prefix}-images-idx3-ubyte",
                      tmp_path / f"{prefix}-labels-idx1-ubyte")
        tree = toy_tree()
        tree["data"] = {"kind": "mnist_binary", "class_a": 5, "class_b": 8,
                        "cap_per_class": 10}
        cfg = parse_config_dict(tree)
        train_ds, val_ds, eval_ds = build_datasets(cfg.data, cfg.seed,
                                                   data_dir=str(tmp_path))
        assert train_ds.n + val_ds.n == 20
        assert eval_ds.n == 20

    def test_missing_mnist_errors(self, tmp_path):
        tree = toy_tree()
        tree["data"] = {"kind": "mnist_binary"}
        cfg = parse_config_dict(tree)
        with pytest.raises(ExperimentError, match="missing IDX"):
            build_datasets(cfg.data, cfg.seed, data_dir=str(tmp_path / "nowhere"))


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
        state = run_training(parse_config_dict(toy_tree(epochs=6)),
                             output_dir=str(tmp_path / "out"))
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
        run_training(cfg, output_dir=str(tmp_path / "full"))
        split = tmp_path / "split"
        run_training(cfg, output_dir=str(split), stop_after=3)
        log[:] = [[]]
        stream_lines.clear()
        run_training(cfg, output_dir=str(split), resume=True)
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
        run_experiment(parse_config_dict(toy_tree(epochs=6)), output_dir=str(out))
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
                run_experiment(cfg, output_dir=str(out))
        if (out / "last.ckpt").exists():
            run_experiment(cfg, output_dir=str(out), resume=True)
        else:  # died in the first epoch: nothing committed, start again
            with pytest.raises(ExperimentError, match="nothing to resume"):
                run_experiment(cfg, output_dir=str(out), resume=True)
            # the new run's stream starts empty, so it resumes too
            run_experiment(cfg, output_dir=str(out), stop_after=3)
            run_experiment(cfg, output_dir=str(out), resume=True)
        _same_files(full, out)

    @pytest.mark.parametrize("tail", [
        "whole",  # the next epoch's line, written before a crash
        "torn",   # part of it, without its newline
    ])
    def test_stream_past_the_checkpoint_is_cut(self, tmp_path, full, tail):
        cfg = parse_config_dict(toy_tree(epochs=6))
        out = tmp_path / "out"
        run_experiment(cfg, output_dir=str(out), stop_after=3)
        lines = (full / "metrics.jsonl").read_text().splitlines(keepends=True)
        partial = out / "metrics.jsonl.partial"
        with open(partial, "a", encoding="utf-8") as f:
            f.write(lines[3] if tail == "whole" else lines[3][:20])
        run_experiment(cfg, output_dir=str(out), resume=True, stop_after=5)
        assert partial.read_text() == "".join(lines[:5])
        run_experiment(cfg, output_dir=str(out), resume=True)
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
        run_experiment(cfg, output_dir=str(out), stop_after=3)
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
            run_experiment(cfg, output_dir=str(out), resume=True)
        assert str(partial) in str(info.value)
        assert partial.read_bytes() == before


class TestCliCommands:
    def test_train_then_attack_and_evaluate(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, toy_tree())
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out)]) == 0
        assert (out / "last.ckpt").exists()
        assert main(["attack", str(cfg_path), "--checkpoint", str(out / "last.ckpt"),
                     "--output-dir", str(out)]) == 0
        assert main(["evaluate", str(cfg_path), "--output-dir",
                     str(tmp_path / "out2")]) == 0
        assert (tmp_path / "out2" / "report.csv").exists()

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

    def test_report_subcommand(self, tmp_path):
        cfg_path = write_cfg(tmp_path, toy_tree())
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out)]) == 0
        assert main(["report", str(cfg_path), "--output-dir", str(out)]) == 0
        assert (out / "decision.svg").exists()
        assert (out / "sampler_hist.svg").exists()

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
        ({"best_robust_acc": True}, "'best_robust_acc' is bool, not float or NoneType"),
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

    @pytest.mark.parametrize("command", ["attack", "report"])
    def test_checkpoint_architecture_mismatch_exit_code(self, tmp_path, capsys, command):
        ckpt = tmp_path / "wide.ckpt"
        checkpoint.save_checkpoint(build_mlp([784, 8, 2], seed=0), ckpt)
        cfg_path = write_cfg(tmp_path, toy_tree())
        assert main([command, str(cfg_path), "--checkpoint", str(ckpt),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert "error: input width 2 != model width 784" in capsys.readouterr().err

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

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 1
