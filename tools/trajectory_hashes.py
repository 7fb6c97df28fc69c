"""Print one SHA-256 per computed result of an ``atent`` source tree, and
check them against ``trajectory_hashes.lock``.

A change that should leave every number as it was (a speed-up, a refactor)
is checked with one command:

    python tools/trajectory_hashes.py --check

It hashes ``--src`` (by default this checkout's ``src/``) and compares the
lines with the lock's section for the running BLAS identity: numpy's
version, its bundled OpenBLAS's build config and the core OpenBLAS runs on,
read through ``ctypes``. It exits 1 and names every item that moved, and
exits 3 when the lock has no section for the identity, or the identity
cannot be read. A change that moves numbers on purpose rewrites the
section with ``--write`` in the same commit, so the lock's diff lists the
items that moved.

A change can be bitwise-equal under one BLAS kernel and not under another,
so the lock holds a section per kernel. numpy's OpenBLAS picks its kernel
by CPU, and ``OPENBLAS_CORETYPE`` overrides the pick:

    OPENBLAS_CORETYPE=Haswell python tools/trajectory_hashes.py --check

On a CPU where OpenBLAS picks SkylakeX by default, 37 of the 62 items
differ between the two kernels (every ``train/``, ``loss_and_grads/`` and
``resume/`` item among them, and ``conv_block/weights/k5`` and
``conv_block/both/k5``), so the second run checks other arithmetic. Where
the lock has no section for the machine, hash the parent's tree and diff:

    python tools/trajectory_hashes.py --src <parent-checkout>/src > parent.txt
    python tools/trajectory_hashes.py > change.txt
    diff parent.txt change.txt

Each line is ``<sha256>  <item>``. The 62 items are, but for the
``data/``, ``cnn_odd`` and ``conv_block/`` ones, on a small MLP and on a
CNN with two conv blocks, on ``digits_binary``:

- ``config/<name>``: the parsed ``ExperimentConfig`` of each tree below, as
  ``json.dumps(dataclasses.asdict(cfg), sort_keys=True)``, and of
  ``FULL_TREE``, which sets every key of every section (of an attack,
  every key that its kind reads). A field added to
  or removed from a class that every tree holds, such as the sampler's
  config, changes all of these hashes and no other;
- ``train/<defense>/<model>``: each of the five defenses for two epochs;
  the final weights, the per-epoch losses and accuracies, and the best epoch.
  ``train/pgd_at_fgsm/<model>`` is PGD-AT with an FGSM inner attack, and
  ``train/atent_linf_no_val/<model>`` is ATENT-l-inf with ``val_fraction``
  0, so with no validation rows;
- ``attack/<kind>/<model>``: FGSM, PGD (random start, two restarts) and
  ATENT-attack outputs, and ``attack/atent_l2/<model>``, the ATENT attack
  in the l2 ball;
- ``loss_and_grads/<wrt>/<model>``: loss and gradients for each ``wrt``
  on 10 eval rows, and ``loss_and_grads/<wrt>/cnn/100`` on the whole eval
  split: taped CNN passes that ``conv_block`` takes in two spans of
  samples (74 and 26) at both blocks, where 10 rows take one;
- ``loss_and_grads/<wrt>/cnn_odd``: loss and gradients for each ``wrt`` of
  the ``ODD_CNN`` at He init on ``ODD_ROWS`` seeded uniform rows: 13x13
  planes of 3 channels, whose pull takes three spans at block 0 with a
  trailing row and column outside every pool window, then a block with
  more input channels than output channels;
- ``conv_block/<wrt>/k5``: one ``conv_block`` with a 5x5 kernel on
  ``K5_ROWS`` seeded rows of 7x7 planes, untaped (``none``) and taped for
  each ``wrt`` under a cross-entropy head: the output, and for the taped
  ones the loss and gradients, where the kernel reaches two rows and two
  columns past each edge;
- ``smooth_accuracy/<model>``: the Entropy-SGD-trained model smoothed per
  ``SMOOTHING`` on the first 8 eval rows: the smoothed accuracy, each row's
  smoothed prediction and each row's counts of a full vote. The script
  raises unless some row's votes split and some row is predicted right and
  some wrong, so that the hash changes if a split vote's plurality or the
  accuracy's count moves;
- ``logits/<n>/cnn``: the SGD-trained CNN's untaped logits on ``n`` seeded
  uniform images, for each n in ``LOGIT_ROWS``, and ``accuracy/cnn``, its
  accuracy over the whole eval split (100 rows): forwards that stream the
  conv stack in spans, where the other items' forwards are taped or small;
- ``resume/sgd/mlp``: the MLP's SGD run stopped after epoch 2 and resumed
  in process to epoch 4. The epoch-2 ``params`` and ``best_params`` arrays
  are kept before the resume and hashed after it, with the final weights,
  so the hash changes if the resumed run writes into an array the first
  call returned;
- ``resume/persisted/sgd/mlp``: the same run through
  ``experiment.train_with_persistence`` in a temporary directory, stopped
  after epoch 2 and resumed from the directory to epoch 4: the bytes of
  the ``PERSISTED`` files, so the hash changes if the on-disk commit
  format moves;
- ``data/<kind>``: the input and label bytes of every split that
  ``build_datasets`` returns for each spec of ``DATA_SPECS``:
  ``digits_binary`` with ``val_fraction`` 0.1 and 0, ``two_gaussians``, and
  ``mnist_binary`` read from a small random IDX pair that the script writes
  to a temporary directory, whose ``cap_per_class`` exceeds the rows of a
  class;
- ``data/digits_all_glyphs``: the input and label bytes of ``synth_digits``
  for each class pair of ``GLYPH_PAIRS``, which cover all ten digits, at
  ``GLYPH_ROWS`` per class, not a whole number of render blocks.

That is 11 ``config/``, 14 ``train/``, 8 ``attack/``, 12
``loss_and_grads/``, 4 ``conv_block/``, 2 ``smooth_accuracy/``, 3
``logits/``, 1 ``accuracy/``, 2 ``resume/`` and 5 ``data/`` items.

The trees are imported from ``--src`` alone; BLAS is pinned to one thread,
as in the benchmark. The package does not import this script.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

LOCK = Path(__file__).with_suffix(".lock")

MODELS = {
    "mlp": {"kind": "mlp", "widths": [784, 16, 2]},
    "cnn": {"kind": "cnn", "channels": [4, 6], "fc_widths": [8, 2]},
}
SAMPLER = {"gamma": 10.0, "step": 1.0, "steps": 3, "noise_scale": 0.01,
           "ema": 0.5, "norm": "linf"}
DEFENSES = {
    "sgd": {},
    "entropy_sgd": {"sampler": {"gamma": 10.0, "step": 0.01, "steps": 3,
                                "noise_scale": 0.001, "ema": 0.5}},
    "pgd_at": {"pgd": {"kind": "pgd", "norm": "linf", "radius": 0.1, "steps": 3,
                       "step_size": 0.05, "random_start": True}},
    "atent_l2": {"sampler": {**SAMPLER, "norm": "l2"}},
    "atent_linf": {"sampler": SAMPLER},
}
# hashed with the trees below but kept out of them, so no ``config/`` item
# depends on them
PGD_AT_FGSM = {"kind": "fgsm", "norm": "linf", "radius": 0.1}
ATENT_L2_ATTACK = {"kind": "atent", "norm": "l2", "radius": 0.5,
                   "sampler": {**SAMPLER, "norm": "l2"}}
# the smoothing run of the ``smooth_accuracy/`` items. The Entropy-SGD-trained
# models are the only ones below whose votes split after two epochs; the
# SGD-trained ones predict class 0 on every eval row, at sigma 0.25 unanimously
SMOOTHING = {"sigma": 0.5, "n_samples": 200}
# the ``loss_and_grads/<wrt>/cnn_odd`` items' CNN and rows: odd 13x13 planes
# leave a trailing row and column outside every pool window at block 0, whose
# pull takes 120 rows in three spans (57, 57 and 6), and block 1 has more
# input channels than output channels
ODD_CNN = {"kind": "cnn", "channels": [4, 2], "fc_widths": [8, 2], "in_shape": [3, 13, 13]}
ODD_ROWS = 120
# the ``conv_block/<wrt>/k5`` items: a 5x5 kernel on 7x7 planes of 3 channels
# into 4 at pool 2, on K5_ROWS seeded rows, which the forward takes in spans
# of 142 and 8 samples and the pull in spans of 71, 71 and 8
K5_ROWS = 150
# one image, one more than the span of samples that an untaped CNN forward
# streams at a time (16), and many spans with a ragged last one
LOGIT_ROWS = (1, 17, 300)
# the ``data/`` items' data sections; the training IDX pair holds 14 rows
# of class 3 and 18 of class 7, so a cap of 25 keeps 14 of each
DATA_SPECS = {
    "digits_binary/val0.1": {"kind": "digits_binary", "n_per_class": 24,
                             "val_fraction": 0.1},
    "digits_binary/val0": {"kind": "digits_binary", "n_per_class": 24, "val_fraction": 0},
    "two_gaussians": {"kind": "two_gaussians", "n": 60, "separation": 3.0},
    "mnist_binary": {"kind": "mnist_binary", "class_a": 3, "class_b": 7,
                     "cap_per_class": 25, "val_fraction": 0.25},
}
# the ``data/digits_all_glyphs`` item: every digit, with a last short block
GLYPH_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
GLYPH_ROWS = 21
# the files of a run's output directory that ``resume/persisted/sgd/mlp``
# hashes: the on-disk commit of each epoch and the finished run's stream
PERSISTED = ("last.ckpt", "best.ckpt", "metrics.jsonl")
ATTACKS = [
    {"kind": "fgsm", "norm": "linf", "radius": 0.1},
    {"kind": "pgd", "norm": "linf", "radius": 0.1, "steps": 3, "step_size": 0.05,
     "restarts": 2, "random_start": True},
    {"kind": "atent", "norm": "linf", "radius": 0.1, "sampler": SAMPLER},
]


def config_tree(model: str, defense: str) -> dict:
    return {
        "name": f"hash-{defense}-{model}",
        "seed": 302,
        "data": {"kind": "digits_binary", "n_per_class": 24},
        "model": MODELS[model],
        "trainer": {"defense": defense, "lr": 0.05, "epochs": 2, "batch_size": 16,
                    **DEFENSES[defense]},
        "attacks": ATTACKS,
        "smoothing": {"sigma": 0.25, "n_samples": 200},
    }


FULL_TREE = {
    "name": "hash-full",
    "seed": 17,
    "record_timing": True,
    "output_dir": "runs/full",
    "eval_batch_size": 64,
    "data": {"kind": "mnist_binary", "class_a": 3, "class_b": 7, "cap_per_class": 50,
             "data_dir": "idx", "val_fraction": 0.25},
    "model": {"kind": "cnn", "channels": [3], "fc_widths": [5, 2], "in_shape": [1, 12, 12]},
    "trainer": {
        "defense": "atent_l2", "lr": 0.02, "epochs": 7, "batch_size": 9, "seed": 4,
        "lr_schedule": [[3, 0.5], [6, 0.2]], "weight_decay": 0.001,
        "sampler": {"gamma": 2.5, "step": 0.3, "steps": 6, "noise_scale": 0.02, "ema": 0.7,
                    "norm": "l2", "init_radius": 0.05},
        "pgd": {"kind": "pgd", "norm": "l2", "radius": 0.4, "steps": 4, "step_size": 0.2,
                "restarts": 3, "random_start": True, "seed": 8},
        "early_stop": {"metric": "robust", "patience": 2,
                       "eval_attack": {"kind": "fgsm", "norm": "linf", "radius": 0.2,
                                       "seed": 11}},
    },
    "attacks": [{"kind": "atent", "norm": "l2", "radius": 0.6, "seed": 12,
                 "sampler": {"gamma": 4.0, "step": 0.2, "steps": 3, "noise_scale": 0.1,
                             "ema": 0.4, "norm": "l2", "init_radius": 0.01}}],
    "smoothing": {"sigma": 0.3, "n_samples": 77, "seed": 13},
}


def _feed(h, value) -> None:
    """Hash ``value`` with its type and shape, so that equal bytes of
    different arrays or numbers never collide."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, int, str)) or value is None:
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, dict):
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"l{len(value)}".encode())
        for v in value:
            _feed(h, v)
    else:
        raise TypeError(f"cannot hash {type(value).__name__}")


def write_idx_pair(root: Path, prefix: str, n: int, seed: int) -> None:
    """``n`` random 28x28 uint8 images with random digit labels, written
    as ``<prefix>-images-idx3-ubyte`` and ``<prefix>-labels-idx1-ubyte``."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    (root / f"{prefix}-images-idx3-ubyte").write_bytes(
        struct.pack(">iiii", 0x803, n, 28, 28) + images.tobytes())
    (root / f"{prefix}-labels-idx1-ubyte").write_bytes(
        struct.pack(">ii", 0x801, n) + labels.tobytes())


def digest(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        _feed(h, v)
    return h.hexdigest()


def conv_block_k5_items(rng):
    """The ``conv_block/<wrt>/k5`` items: the block's untaped output
    (``none``), then its taped output, loss and tracked operands' gradients
    under a cross-entropy head over the flattened output."""
    from atent import tensor as tc

    x0 = rng.random((K5_ROWS, 3, 7, 7))
    k0, b0 = rng.normal(size=(4, 3, 5, 5)), rng.normal(size=4)
    labels = tc.Tensor(np.eye(36)[rng.integers(0, 36, K5_ROWS)])
    yield "conv_block/none/k5", digest(
        tc.conv_block(tc.Tensor(x0), tc.Tensor(k0), tc.Tensor(b0), 2).data)
    for wrt in ("weights", "inputs", "both"):
        x, k, b = tc.Tensor(x0), tc.Tensor(k0), tc.Tensor(b0)
        leaves = {"weights": [k, b], "inputs": [x], "both": [x, k, b]}[wrt]
        with tc.Tape(leaves) as tape:
            out = tc.conv_block(x, k, b, 2)
            loss = tc.softmax_cross_entropy(tc.reshape(out, (K5_ROWS, 36)), labels)
        grads = tc.backward(tape, loss)
        yield f"conv_block/{wrt}/k5", digest(out.data, loss.item(),
                                             [grads[t].data for t in leaves])


def items():
    """(item, sha256) for every hashed result, in a fixed order."""
    from atent import attacks, config, data, defenses, experiment, models, smoothing
    from atent.seeding import derive_rng

    trees = [config_tree(m, d) for m in MODELS for d in DEFENSES] + [FULL_TREE]
    for tree in trees:
        cfg = dataclasses.asdict(config.parse_config_dict(tree))
        yield (f"config/{tree['name']}",
               hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest())

    def train_digest(tree):
        cfg = config.parse_config_dict(tree)
        train_ds, val_ds, _ = experiment.build_datasets(cfg.data, cfg.seed)
        params = models.build_model(cfg.model, cfg.seed)
        state = defenses.train(params, cfg.trainer, train_ds, val_ds)
        history = [(r.epoch, r.train_loss, r.nat_acc, r.rob_acc, r.lr) for r in state.history]
        return state.params, digest({k: t.data for k, t in state.params.weights.items()},
                                    history, state.best_epoch, state.best_metric)

    def smoothing_digest(params, eval_ds):
        cfg = smoothing.SmoothingConfig(**SMOOTHING)
        rows = eval_ds.take(range(8))
        truths = rows.labels.data.argmax(axis=1).tolist()
        preds = [smoothing.smooth_predict(params, x, cfg, rows.n_classes, stream=i)
                 for i, x in enumerate(rows.inputs.data)]
        votes = [smoothing.vote_counts(params, x, cfg, derive_rng(cfg.seed, "hash-votes", i),
                                       rows.n_classes) for i, x in enumerate(rows.inputs.data)]
        right = [p == t for p, t in zip(preds, truths)]
        if not (any((v < cfg.n_samples).all() for v in votes) and any(right)
                and not all(right)):
            raise RuntimeError(f"smoothing hash gates nothing: predictions {preds} "
                               f"against labels {truths}; every item needs a row whose "
                               "votes split, a right prediction and a wrong one")
        return digest(smoothing.smooth_accuracy(params, rows, cfg), preds, votes)

    for model in MODELS:
        trained = {}
        for defense in DEFENSES:
            trained[defense], sha = train_digest(config_tree(model, defense))
            yield f"train/{defense}/{model}", sha
        tree = config_tree(model, "pgd_at")
        tree["trainer"]["pgd"] = PGD_AT_FGSM
        yield f"train/pgd_at_fgsm/{model}", train_digest(tree)[1]
        tree = config_tree(model, "atent_linf")
        tree["data"] = {**tree["data"], "val_fraction": 0}
        yield f"train/atent_linf_no_val/{model}", train_digest(tree)[1]

        tree = config_tree(model, "sgd")
        cfg = config.parse_config_dict(tree)
        _, _, eval_ds = experiment.build_datasets(cfg.data, cfg.seed)
        params = models.build_model(cfg.model, cfg.seed)
        batch = eval_ds.take(range(10))
        named = [(atk.kind, atk) for atk in cfg.attacks]
        named.append(("atent_l2", config.parse_config_dict(
            {**tree, "attacks": [ATENT_L2_ATTACK]}).attacks[0]))
        for name, atk in named:
            yield (f"attack/{name}/{model}",
                   digest(attacks.run_attack(params, batch, atk, stream=1)))
        for wrt in ("weights", "inputs", "both"):
            loss, wg, xg = models.loss_and_grads(params, batch, wrt=wrt)
            yield f"loss_and_grads/{wrt}/{model}", digest(loss, wg, xg)
        yield f"smooth_accuracy/{model}", smoothing_digest(trained["entropy_sgd"], eval_ds)
        if model == "cnn":
            for wrt in ("weights", "inputs", "both"):
                loss, wg, xg = models.loss_and_grads(params, eval_ds, wrt=wrt)
                yield f"loss_and_grads/{wrt}/cnn/{eval_ds.n}", digest(loss, wg, xg)
            odd = models.build_model(ODD_CNN, cfg.seed)
            rng = derive_rng(cfg.seed, "hash-cnn-odd")
            odd_batch = data.Dataset(rng.random((ODD_ROWS, *ODD_CNN["in_shape"])),
                                     np.eye(2)[rng.integers(0, 2, ODD_ROWS)])
            for wrt in ("weights", "inputs", "both"):
                yield (f"loss_and_grads/{wrt}/cnn_odd",
                       digest(*models.loss_and_grads(odd, odd_batch, wrt=wrt)))
            yield from conv_block_k5_items(derive_rng(cfg.seed, "hash-conv-block-k5"))
            sgd = trained["sgd"]
            x = derive_rng(cfg.seed, "hash-logits").random(
                (max(LOGIT_ROWS), *eval_ds.inputs.shape[1:]))
            for n in LOGIT_ROWS:
                yield f"logits/{n}/cnn", digest(models.forward_logits(sgd, x[:n]).data)
            yield "accuracy/cnn", digest(models.accuracy(sgd, eval_ds.inputs, eval_ds.labels))

    tree = config_tree("mlp", "sgd")
    cfg = config.parse_config_dict({**tree, "trainer": {**tree["trainer"], "epochs": 4}})
    train_ds, val_ds, _ = experiment.build_datasets(cfg.data, cfg.seed)
    params = models.build_model(cfg.model, cfg.seed)
    first = defenses.train(params, cfg.trainer, train_ds, val_ds, stop_after_epoch=2)
    kept = [{k: t.data for k, t in p.weights.items()} for p in (first.params, first.best_params)]
    final = defenses.train(params, cfg.trainer, train_ds, val_ds, resume_state=first)
    yield "resume/sgd/mlp", digest(kept, {k: t.data for k, t in final.params.weights.items()})
    with tempfile.TemporaryDirectory() as out_dir:
        out = Path(out_dir)
        experiment.train_with_persistence(cfg, out, train_ds, val_ds, stop_after=2)
        experiment.train_with_persistence(cfg, out, train_ds, val_ds, resume=True)
        yield "resume/persisted/sgd/mlp", digest(
            [np.frombuffer((out / name).read_bytes(), np.uint8) for name in PERSISTED])

    with tempfile.TemporaryDirectory() as idx_dir:
        write_idx_pair(Path(idx_dir), "train", 200, seed=1)
        write_idx_pair(Path(idx_dir), "t10k", 100, seed=2)
        for name, spec in DATA_SPECS.items():
            splits = experiment.build_datasets(config.DataSpec(**spec, data_dir=idx_dir), 302)
            yield f"data/{name}", digest([(ds.inputs.data, ds.labels.data) for ds in splits])
    glyphs = [data.synth_digits(GLYPH_ROWS, pair, seed=302) for pair in GLYPH_PAIRS]
    yield "data/digits_all_glyphs", digest([(ds.inputs.data, ds.labels.data) for ds in glyphs])


def blas_identity() -> str | None:
    """numpy's version, its bundled OpenBLAS's build config and the core
    that OpenBLAS runs on; None when they cannot be read, which matches no
    lock section."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    if len(libs) != 1:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    config.argtypes = core.argtypes = []
    config.restype = core.restype = ctypes.c_char_p
    return f"numpy {np.__version__}; {config().decode()}; {core().decode()}"


def read_lock(path: Path) -> dict[str, list[str]]:
    """The lock's sections: each ``[<identity>]`` header and the hash lines
    under it, in file order; ``#`` lines are comments."""
    sections, lines = {}, None
    text = path.read_text() if path.exists() else ""
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            lines = sections[line[1:-1]] = []
        elif line and not line.startswith("#"):
            lines.append(line)
    return sections


def write_lock(path: Path, sections: dict[str, list[str]]) -> None:
    text = ("# The lines of tools/trajectory_hashes.py for each BLAS identity, written\n"
            "# by its --write and compared by its --check.\n")
    for identity, lines in sections.items():
        text += "\n".join(["", f"[{identity}]", *lines, ""])
    path.write_text(text)


def moved_items(locked: list[str], lines: list[str]) -> list[str]:
    """Every item whose hash differs between two runs' lines, or that only
    one of them holds, each with what happened to it."""
    old, new = ({item: sha for sha, item in (line.split("  ", 1) for line in ls)}
                for ls in (locked, lines))
    moved = [f"{item}: not in the lock" for item in new if item not in old]
    moved += [f"{item}: {'changed' if item in new else 'missing'}"
              for item in old if old[item] != new.get(item)]
    return moved


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                   help="the src/ directory of the checkout to hash (default: this one's)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with the lock's section for this BLAS identity")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the lock's section for this BLAS identity")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "atent")):
        print(f"trajectory_hashes: no atent package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    lines = []
    for item, sha in items():
        lines.append(f"{sha}  {item}")
        print(lines[-1], flush=True)
    if not (args.check or args.write):
        return 0
    identity, sections = blas_identity(), read_lock(LOCK)
    if args.write and identity is not None:
        sections[identity] = lines
        write_lock(LOCK, sections)
        return 0
    if identity not in sections:
        print(f"trajectory_hashes: {LOCK.name} has no section for BLAS identity "
              f"{identity or '(unreadable)'}", file=sys.stderr)
        return 3
    moved = moved_items(sections[identity], lines)
    for line in moved:
        print(f"trajectory_hashes: moved: {line}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
