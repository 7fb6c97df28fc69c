"""Print one SHA-256 per computed result of an ``atent`` source tree.

A change that should leave every number as it was (a speed-up, a refactor)
can be checked against its parent with one command per tree:

    python tools/trajectory_hashes.py --src <parent-checkout>/src > parent.txt
    python tools/trajectory_hashes.py --src src > change.txt
    diff parent.txt change.txt

Each line is ``<sha256>  <item>``. The items are, on a small MLP and on a
CNN with two conv blocks, on ``digits_binary``:

- ``train/<defense>/<model>``: each of the five defenses for two epochs;
  the final weights, the per-epoch losses and accuracies, and the best epoch;
- ``attack/<kind>/<model>``: FGSM, PGD (random start, two restarts) and
  ATENT-attack outputs;
- ``loss_and_grads/<wrt>/<model>``: loss and gradients for each ``wrt``;
- ``smooth_accuracy/<model>``: the smoothed accuracy of the SGD-trained
  model, with the vote counts of one example.

The trees are imported from ``--src`` alone; BLAS is pinned to one thread,
as in the benchmark. The package does not import this script.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

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


def digest(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        _feed(h, v)
    return h.hexdigest()


def items():
    """(item, sha256) for every hashed result, in a fixed order."""
    from atent import attacks, config, defenses, experiment, models, smoothing
    from atent.seeding import derive_rng

    for model in MODELS:
        trained = {}
        for defense in DEFENSES:
            cfg = config.parse_config_dict(config_tree(model, defense))
            train_ds, val_ds, _ = experiment.build_datasets(cfg.data, cfg.seed)
            params = models.build_model(cfg.model, cfg.seed)
            state = defenses.train(params, cfg.trainer, train_ds, val_ds)
            trained[defense] = state.params
            history = [(r.epoch, r.train_loss, r.nat_acc, r.rob_acc, r.lr)
                       for r in state.history]
            yield (f"train/{defense}/{model}",
                   digest({k: t.data for k, t in state.params.weights.items()}, history,
                          state.best_epoch, state.best_metric))

        cfg = config.parse_config_dict(config_tree(model, "sgd"))
        _, _, eval_ds = experiment.build_datasets(cfg.data, cfg.seed)
        params = models.build_model(cfg.model, cfg.seed)
        batch = eval_ds.take(range(10)).as_batch()
        for atk in cfg.attacks:
            yield (f"attack/{atk.kind}/{model}",
                   digest(attacks.run_attack(params, batch, atk, stream=1)))
        for wrt in ("weights", "inputs", "both"):
            loss, wg, xg = models.loss_and_grads(params, batch, wrt=wrt)
            yield f"loss_and_grads/{wrt}/{model}", digest(loss, wg, xg)
        sgd = trained["sgd"]
        acc = smoothing.smooth_accuracy(sgd, eval_ds.take(range(8)), cfg.smoothing)
        votes = smoothing.vote_counts(sgd, eval_ds.inputs.data[0], cfg.smoothing,
                                      derive_rng(cfg.seed, "hash-votes"), eval_ds.n_classes)
        yield f"smooth_accuracy/{model}", digest(acc, votes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True,
                   help="the src/ directory of the checkout to hash")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "atent")):
        print(f"trajectory_hashes: no atent package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    for item, sha in items():
        print(f"{sha}  {item}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
