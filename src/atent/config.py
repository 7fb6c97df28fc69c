"""Experiment configuration: a strict JSON key tree.

Each section is read into the dataclass it configures. Its keys are the
dataclass's fields, each value must match its field's annotation, and a key
that is left out takes the field's default. So every default lives once, on
its dataclass: ``GibbsSamplerConfig``, ``AttackConfig``, ``EarlyStopConfig``,
``TrainerConfig`` and ``SmoothingConfig`` in their modules, ``DataSpec`` and
``ExperimentConfig`` here. Beyond the fields, this module knows only:

- the master ``seed``, which fills every ``seed`` that a section leaves out;
- ``record_timing``, a root key that is copied into the trainer;
- the keys that ``data`` and an attack take for each kind, and the two
  model kinds, read into the descriptor dict that ``models.build_model``
  takes.

``null`` for a section, or for a key that may be None, leaves the key out.
Unknown keys, wrong types, non-finite numbers and the dataclasses'
constraint violations are errors, reported with their full path.
"""
from __future__ import annotations

import functools
import json
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .attacks import ATENT_ATTACK, FGSM, PGD, AttackConfig
from .defenses import TrainerConfig
from .models import expected_shapes
from .smoothing import SmoothingConfig


class ConfigError(ValueError):
    """Bad experiment config: syntax, unknown key, or constraint violation."""


# The keys of ``data`` besides ``kind`` and ``val_fraction``, per kind.
_DATA_KINDS = {
    "mnist_binary": ("class_a", "class_b", "cap_per_class", "data_dir"),
    "digits_binary": ("class_a", "class_b", "n_per_class"),
    "two_gaussians": ("n", "separation"),
}

# The keys that each attack kind reads; a left-out ``kind`` is ``pgd``.
_ATTACK_KEYS = ("kind", "norm", "radius", "seed")
_ATTACK_KINDS = {FGSM: _ATTACK_KEYS, ATENT_ATTACK: (*_ATTACK_KEYS, "sampler"),
                 PGD: (*_ATTACK_KEYS, "steps", "step_size", "restarts", "random_start")}


@dataclass
class DataSpec:
    kind: str
    class_a: int = 5
    class_b: int = 8
    cap_per_class: int = 1000
    n: int = 400
    separation: float = 4.0
    n_per_class: int = 1000
    data_dir: str | None = None
    val_fraction: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.kind == "two_gaussians" and (self.n < 2 or self.n % 2):
            raise ValueError(f"n must be even and at least 2, got {self.n}")
        for key in ("n_per_class", "cap_per_class"):
            if key in _DATA_KINDS.get(self.kind, ()) and getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if "class_a" in _DATA_KINDS.get(self.kind, ()):
            for key in ("class_a", "class_b"):
                if not 0 <= getattr(self, key) <= 9:
                    raise ValueError(f"{key} must be a digit 0-9, got {getattr(self, key)}")
            if self.class_a == self.class_b:
                raise ValueError(f"class_a and class_b must differ, both are {self.class_a}")


class _Model:
    def __post_init__(self):  # the rule is the models module's; a TensorError is a ValueError
        expected_shapes(vars(self))


@dataclass
class _Mlp(_Model):
    kind: str
    widths: list[int]


@dataclass
class _Cnn(_Model):
    kind: str
    channels: list[int]
    fc_widths: list[int]
    in_shape: tuple[int, int, int] = (1, 28, 28)


_MODEL_KINDS = {"mlp": _Mlp, "cnn": _Cnn}


@dataclass
class ExperimentConfig:
    name: str
    data: DataSpec
    model: dict
    trainer: TrainerConfig
    seed: int = 0
    attacks: list[AttackConfig] = field(default_factory=list)
    smoothing: SmoothingConfig | None = None
    output_dir: str | None = None
    record_timing: bool = False
    eval_batch_size: int = 256

    def __post_init__(self):
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0 \t\n"):
            raise ValueError("name must be non-empty and filesystem-safe")
        if self.trainer.early_stop.metric == "robust" and self.data.val_fraction == 0:
            raise ValueError("robust early stopping needs validation rows: "
                             "data.val_fraction must be positive")
        if self.eval_batch_size < 1:
            raise ValueError(f"eval_batch_size must be at least 1, got {self.eval_batch_size}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(tree, path: str) -> dict:
    if not isinstance(tree, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object")
    return tree


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _kind(tree, path: str, kinds: dict, what: str) -> str:
    if "kind" not in _object(tree, path):
        raise ConfigError(f"missing required key {path + '.kind'!r}")
    kind = tree["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind: unknown {what} kind {kind!r}")
    return kind


def _read(cls, tree, path: str, seed: int, keys=None):
    """Build the dataclass ``cls`` from the JSON object ``tree``, whose keys
    may be ``keys`` (by default, every field of ``cls``). A key that is left
    out is not passed, so its field's default applies; a ``seed`` that is
    left out is the master ``seed``."""
    hints = _hints(cls)
    for key in sorted(_object(tree, path)):
        if key not in (keys or hints):
            raise ConfigError(f"unknown key {_join(path, key)!r}")
    kwargs = {"seed": seed} if "seed" in hints else {}
    for f in fields(cls):
        key = _join(path, f.name)
        value = _value(hints[f.name], tree[f.name], key, seed) if f.name in tree else None
        if value is not None:
            kwargs[f.name] = value
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {key!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _value(hint, value, path: str, seed: int):
    """``value`` read as the annotation ``hint``, or None for a ``null`` that
    leaves its key out."""
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    if hint is DataSpec:
        kind = _kind(value, path, _DATA_KINDS, "dataset")
        return _read(hint, value, path, seed, ("kind", "val_fraction", *_DATA_KINDS[kind]))
    if hint is AttackConfig:  # an unknown kind takes every key, for AttackConfig to name
        kind = _object(value, path).get("kind", AttackConfig.kind)
        return _read(hint, value, path, seed, isinstance(kind, str) and _ATTACK_KINDS.get(kind))
    if hint is TrainerConfig:  # its record_timing is the root's
        return _read(hint, value, path, seed, _hints(hint).keys() - {"record_timing"})
    if hint is dict:  # the model descriptor
        kind = _kind(value, path, _MODEL_KINDS, "model")
        return vars(_read(_MODEL_KINDS[kind], value, path, seed))
    if is_dataclass(hint):
        return None if value is None else _read(hint, value, path, seed)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list or origin is tuple:
        if origin is tuple and not (isinstance(value, list) and len(value) == len(args)):
            raise ConfigError(f"{path}: expected a list of {len(args)} items")
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        items = args if origin is tuple else args * len(value)
        return origin(_value(h, v, f"{path}[{i}]", seed)
                      for i, (h, v) in enumerate(zip(items, value)))
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        if not abs(value) <= sys.float_info.max:  # json reads NaN, Infinity, 1e999
            raise ConfigError(f"{path}: expected a finite number")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if not isinstance(value, hint):
        raise ConfigError(f"{path}: expected {hint.__name__}")
    return value


def parse_config_dict(tree: dict, path: str = "") -> ExperimentConfig:
    seed = ExperimentConfig.seed
    if "seed" in _object(tree, path):
        seed = _value(int, tree["seed"], _join(path, "seed"), seed)
    cfg = _read(ExperimentConfig, tree, path, seed)
    cfg.trainer.record_timing = cfg.record_timing
    return cfg


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            tree = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return parse_config_dict(tree)
