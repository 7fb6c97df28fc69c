"""Entropy-regularized adversarial training (ATENT) at desk scale.

Everything runs on float64 numpy through a small tape-based autodiff core.
Modules: tensor (tape autodiff), models (MLP / small-CNN classifiers),
sampler (Langevin chains over inputs, and the l2 step Entropy-SGD's weight
chain shares), defenses (SGD, Entropy-SGD, PGD-AT, ATENT trainers), attacks
(FGSM / PGD / ATENT-as-attack), smoothing, data, seeding (RNG streams),
checkpoint, config, experiment (training with resume, evaluation), reporting
(CSV / SVG), oracle (independent references), verify (the `atent verify`
suites) and cli (the `atent` command).
"""

__version__ = "0.1.0"
