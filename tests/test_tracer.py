"""The benchmark's tracer (``perfbench/tracer.py``) wraps ``atent`` functions
by their public names and puts them back afterwards.

A rename in ``src/`` that the tracer does not follow breaks
``perfbench/run.py --trace 1``; these tests catch it without running the
benchmark.
"""
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

import atent
from atent.config import parse_config_dict
from atent.models import Batch, build_mlp
from atent.sampler import GibbsSamplerConfig
from atent.seeding import derive_rng

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("tensor", "models", "sampler", "defenses", "attacks", "smoothing",
           "checkpoint", "experiment", "config", "verify", "data")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if isinstance(mod, types.ModuleType) and (name == "atent" or name.startswith("atent."))
            for attr, value in vars(mod).items() if callable(value)}


def test_install_then_restore_puts_every_binding_back():
    for name in MODULES:
        importlib.import_module(f"atent.{name}")
    tr = _load_tracer()
    tracer = tr.Tracer()
    before = _bindings()
    patcher = tr.install(tracer, atent)
    try:
        wrapped = {key for key, value in _bindings().items() if before.get(key) is not value}
        rng = np.random.default_rng(0)
        batch = Batch(rng.random((4, 3)), np.eye(2)[[0, 1, 0, 1]])
        cfg = GibbsSamplerConfig(gamma=2.0, step=0.1, steps=3, noise_scale=0.1)
        atent.sampler.run_chain(build_mlp([3, 4, 2], seed=0), batch, cfg, derive_rng(0))
    finally:
        patcher.restore()
    after = _bindings()
    assert sorted(key for key, value in before.items() if after.get(key) is not value) == []
    assert ("atent.sampler", "langevin_step") in wrapped
    metrics = tr.layer_metrics(tracer)
    # run_chain looks the step up by its module-level name once per step
    assert metrics["sampler.run_chain.calls"][0] == 1
    assert metrics["sampler.langevin_step.calls"][0] == cfg.steps


def test_traced_persisted_training_counts_each_commit_write(tmp_path):
    # 3 epochs, stopped after the first and resumed; validation accuracy
    # improves at epochs 1 and 2
    cfg = parse_config_dict({
        "name": "toy", "seed": 9, "output_dir": str(tmp_path),
        "data": {"kind": "two_gaussians", "n": 120, "separation": 5.0},
        "model": {"kind": "mlp", "widths": [2, 8, 2]},
        "trainer": {"defense": "sgd", "lr": 0.3, "epochs": 3, "batch_size": 32,
                    "lr_schedule": []},
    })
    for name in MODULES:
        importlib.import_module(f"atent.{name}")
    tr = _load_tracer()
    tracer = tr.Tracer()
    patcher = tr.install(tracer, atent)
    try:
        atent.experiment.run_training(cfg, stop_after=1)
        state = atent.experiment.run_training(cfg, resume=True)
    finally:
        patcher.restore()
    assert state.best_epoch == 2
    assert [r.epoch for r in state.history] == [1, 2, 3]
    metrics = tr.layer_metrics(tracer)
    # best.ckpt at epochs 1 and 2 (each also the first commit of its process)
    assert metrics["checkpoint.save_checkpoint.calls"][0] == 2
    # those 2, last.ckpt x3, metrics.jsonl
    assert metrics["checkpoint.atomic_write.calls"][0] == 6
    assert metrics["checkpoint.best_write_useful_frac"][0] == 1.0
    assert tracer.by_name()["experiment.on_epoch"]["calls"] == 3


def test_traced_conv2d_counts_dx_by_the_tapes_leaves():
    # the conv counters ask the tape whether it tracks the conv's input;
    # a tape over the kernels only must neither use nor compute a dx
    for name in MODULES:
        importlib.import_module(f"atent.{name}")
    tc = atent.tensor
    rng = np.random.default_rng(0)
    x = tc.Tensor(rng.random((2, 1, 5, 5)))
    k = tc.Tensor(rng.random((2, 1, 3, 3)))
    tr = _load_tracer()
    tracer = tr.Tracer()
    patcher = tr.install(tracer, atent)
    try:
        for leaves in ([x, k], [k]):
            with tc.Tape(leaves) as tape:
                root = tc.sum_all(tc.conv2d(x, k, 1, 1))
            tc.backward(tape, root)
    finally:
        patcher.restore()
    metrics = tr.layer_metrics(tracer)
    assert metrics["tensor.conv2d.calls"][0] == 2
    assert metrics["tensor.conv2d.dx_useful_frac"][0] == 0.5
    assert metrics["tensor.conv2d.dx_wasted_frac"][0] == 0.0
