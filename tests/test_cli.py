"""CLI and experiment pipeline: determinism, resume, locking, exit codes."""
import json
import os

import numpy as np
import pytest

from atent import checkpoint
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
        for fname in ("report.csv", "metrics.jsonl", "last.ckpt", "best.ckpt",
                      "trainer_state.json"):
            assert fname in names
        assert not [n for n in names if n.endswith(".manifest.json")]
        for fname in names:
            assert (full / fname).read_bytes() == (split / fname).read_bytes(), fname
        assert not (split / "metrics.jsonl.partial").exists()

    def test_resume_of_finished_run_is_stable(self, tmp_path):
        cfg = parse_config_dict(toy_tree(epochs=2))
        out = tmp_path / "out"
        run_experiment(cfg, output_dir=str(out))
        first = (out / "report.csv").read_bytes()
        run_experiment(cfg, output_dir=str(out), resume=True)
        assert (out / "report.csv").read_bytes() == first

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
        (each commit ends with the state file)."""
        log = [[]]
        original = checkpoint.atomic_write_bytes

        def recording(path, blob):
            log[-1].append(os.path.basename(path))
            if log[-1][-1] == "trainer_state.json":
                log.append([])
            original(path, blob)

        monkeypatch.setattr(checkpoint, "atomic_write_bytes", recording)
        return log

    def test_best_only_on_improvement(self, tmp_path, writes):
        state = run_training(parse_config_dict(toy_tree(epochs=6)),
                             output_dir=str(tmp_path / "out"))
        accs = [r.nat_acc for r in state.history]
        assert accs[0] < accs[1] >= max(accs[2:])
        steady = ["last.ckpt", "trainer_state.json"]
        assert writes == [
            ["last.ckpt", "best.ckpt", "trainer_state.json"],
            ["last.ckpt", "best.ckpt", "trainer_state.json"],
            steady, steady, steady, steady,
            ["metrics.jsonl"],
        ]

    def test_resumed_process_writes_best_once(self, tmp_path, writes):
        cfg = parse_config_dict(toy_tree(epochs=6))
        run_training(cfg, output_dir=str(tmp_path / "full"))
        split = tmp_path / "split"
        run_training(cfg, output_dir=str(split), stop_after=3)
        writes[:] = [[]]
        run_training(cfg, output_dir=str(split), resume=True)
        steady = ["last.ckpt", "trainer_state.json"]
        assert writes == [["last.ckpt", "best.ckpt", "trainer_state.json"],
                          steady, steady, ["metrics.jsonl"]]
        for fname in sorted(p.name for p in (tmp_path / "full").iterdir()):
            assert (tmp_path / "full" / fname).read_bytes() == (split / fname).read_bytes()


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

    def test_train_stop_after_then_resume(self, tmp_path):
        cfg_path = write_cfg(tmp_path, toy_tree(epochs=4))
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out),
                     "--stop-after", "2"]) == 0
        state = json.loads((out / "trainer_state.json").read_text())
        assert state["trainer"]["epoch"] == 2
        assert main(["train", str(cfg_path), "--output-dir", str(out), "--resume"]) == 0
        state = json.loads((out / "trainer_state.json").read_text())
        assert state["trainer"]["epoch"] == 4

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

    @pytest.mark.parametrize("text", [
        '{"name": "toy", "seed": 9, "trainer": {"epo',
        '{"name": "toy", "seed": 9}',
        '{"name": "toy", "seed": 9, "trainer": {"epoch": 2}}',
    ])
    def test_malformed_trainer_state_exit_code(self, tmp_path, capsys, text):
        cfg_path = write_cfg(tmp_path, toy_tree(epochs=4))
        out = tmp_path / "out"
        assert main(["train", str(cfg_path), "--output-dir", str(out),
                     "--stop-after", "2"]) == 0
        (out / "trainer_state.json").write_text(text)
        assert main(["train", str(cfg_path), "--output-dir", str(out), "--resume"]) == 2
        assert str(out / "trainer_state.json") in capsys.readouterr().err

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
