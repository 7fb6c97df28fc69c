"""Strict config parsing: defaults, unknown keys, constraint paths."""
import copy
import importlib.util
import json
import os
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from unittest import mock

import pytest

from atent.attacks import AttackConfig
from atent.config import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    parse_config,
    parse_config_dict,
)
from atent.defenses import EarlyStopConfig, TrainerConfig
from atent.sampler import GibbsSamplerConfig
from atent.smoothing import SmoothingConfig


def minimal_tree(**overrides):
    tree = {
        "name": "unit",
        "seed": 5,
        "data": {"kind": "two_gaussians", "n": 100, "separation": 4.0},
        "model": {"kind": "mlp", "widths": [2, 8, 2]},
        "trainer": {"defense": "sgd", "lr": 0.1, "epochs": 2, "batch_size": 16},
    }
    tree.update(overrides)
    return tree


class TestParsing:
    def test_minimal_round_trip(self):
        cfg = parse_config_dict(minimal_tree())
        assert cfg.name == "unit"
        assert cfg.seed == 5
        assert cfg.trainer.defense == "sgd"
        assert cfg.trainer.seed == 5  # inherits master seed
        assert cfg.attacks == []
        assert cfg.smoothing is None

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_tree()))
        cfg = parse_config(path)
        assert cfg.name == "unit"

    def test_unknown_key_named(self):
        tree = minimal_tree()
        tree["trainer"]["sampler"] = {"gama": 1.0, "step": 0.1, "steps": 1}
        with pytest.raises(ConfigError, match="gama"):
            parse_config_dict(tree)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'mystery'"):
            parse_config_dict(minimal_tree(mystery=1))

    def test_constraint_violation_carries_path(self):
        tree = minimal_tree()
        tree["trainer"] = {
            "defense": "atent_l2", "lr": 0.1, "epochs": 2, "batch_size": 16,
            "sampler": {"gamma": -1.0, "step": 0.1, "steps": 1},
        }
        with pytest.raises(ConfigError, match="trainer.sampler"):
            parse_config_dict(tree)

    def test_missing_required_key(self):
        tree = minimal_tree()
        del tree["model"]
        with pytest.raises(ConfigError, match="model"):
            parse_config_dict(tree)

    @pytest.mark.parametrize("name", ["a/b", ".", ".."])
    def test_bad_name_rejected(self, name):
        with pytest.raises(ConfigError, match="name must be non-empty and filesystem-safe"):
            parse_config_dict(minimal_tree(name=name))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.json")

    def test_full_tree(self):
        tree = minimal_tree()
        tree["trainer"] = {
            "defense": "atent_linf", "lr": 0.1, "epochs": 3, "batch_size": 16,
            "weight_decay": 5e-4, "lr_schedule": [[2, 0.1]],
            "sampler": {"gamma": 3.33, "step": 0.5, "steps": 4, "noise_scale": 0.001,
                        "ema": 0.9, "norm": "linf", "init_radius": 0.05},
            "early_stop": {"metric": "robust", "patience": 5},
        }
        tree["attacks"] = [
            {"kind": "fgsm", "norm": "linf", "radius": 0.1},
            {"kind": "pgd", "norm": "l2", "radius": 0.5, "steps": 10,
             "step_size": 0.125, "restarts": 2, "random_start": True},
            {"kind": "atent", "norm": "linf", "radius": 0.3,
             "sampler": {"gamma": 6.0, "step": 0.5, "steps": 3}},
        ]
        tree["smoothing"] = {"sigma": 0.12, "n_samples": 500}
        cfg = parse_config_dict(tree)
        assert cfg.trainer.sampler.norm == "linf"
        assert cfg.trainer.early_stop.eval_attack.radius == pytest.approx(1 / 3.33)
        assert [a.kind for a in cfg.attacks] == ["fgsm", "pgd", "atent"]
        assert cfg.smoothing.sigma == 0.12

    def test_wrong_types_rejected(self):
        tree = minimal_tree()
        tree["trainer"]["lr"] = "fast"
        with pytest.raises(ConfigError, match="number"):
            parse_config_dict(tree)
        tree = minimal_tree()
        tree["trainer"]["epochs"] = 2.5
        with pytest.raises(ConfigError, match="integer"):
            parse_config_dict(tree)

    def test_unknown_dataset_and_model_kinds(self):
        tree = minimal_tree()
        tree["data"] = {"kind": "cifar"}
        with pytest.raises(ConfigError, match="dataset kind"):
            parse_config_dict(tree)
        tree = minimal_tree()
        tree["model"] = {"kind": "transformer"}
        with pytest.raises(ConfigError, match="model kind"):
            parse_config_dict(tree)


# Every key of every section, each set away from its default. ``data`` takes
# different keys per kind, so each kind is paired with one model below.
DATA_BY_KIND = {
    "mnist_binary": {"kind": "mnist_binary", "class_a": 3, "class_b": 7,
                     "cap_per_class": 50, "data_dir": "idx", "val_fraction": 0.25},
    "digits_binary": {"kind": "digits_binary", "class_a": 1, "class_b": 2,
                      "n_per_class": 30, "val_fraction": 0.2},
    "two_gaussians": {"kind": "two_gaussians", "n": 60, "separation": 2.5,
                      "val_fraction": 0.3},
}
MODEL_BY_KIND = {
    "mlp": {"kind": "mlp", "widths": [2, 5, 2]},
    "cnn": {"kind": "cnn", "channels": [3], "fc_widths": [5, 2], "in_shape": [1, 12, 12]},
}
FULL_SAMPLER = {"gamma": 4.0, "step": 0.2, "steps": 3, "noise_scale": 0.1, "ema": 0.4,
                "norm": "linf", "init_radius": 0.01}


def full_tree(data_kind="mnist_binary", model_kind="cnn"):
    return copy.deepcopy({
        "name": "full", "seed": 17, "record_timing": True, "output_dir": "runs/full",
        "eval_batch_size": 64,
        "data": DATA_BY_KIND[data_kind],
        "model": MODEL_BY_KIND[model_kind],
        "trainer": {
            "defense": "atent_linf", "lr": 0.02, "epochs": 7, "batch_size": 9, "seed": 4,
            "lr_schedule": [[3, 0.5], [6, 0.2]], "weight_decay": 0.001,
            "sampler": FULL_SAMPLER,
            # a left-out kind is pgd, the default
            "pgd": {"norm": "l2", "radius": 0.4, "steps": 4, "step_size": 0.2,
                    "restarts": 3, "random_start": True, "seed": 8},
            "early_stop": {"metric": "robust", "patience": 2,
                           "eval_attack": {"kind": "atent", "norm": "l2", "radius": 0.2,
                                           "seed": 11, "sampler": FULL_SAMPLER}},
        },
        "attacks": [{"kind": "atent", "norm": "l2", "radius": 0.6, "seed": 12,
                     "sampler": {**FULL_SAMPLER, "gamma": 3.0}},
                    {"kind": "fgsm", "radius": 0.3, "seed": 14}],
        "smoothing": {"sigma": 0.3, "n_samples": 77, "seed": 13},
    })


def _plain(value):
    return json.loads(json.dumps(value))


def _assert_reached(section: dict, obj, path: str) -> None:
    """Every key of ``section`` reached its field of ``obj``, and none holds
    its field's default (so a dropped key cannot pass unseen)."""
    by_name = {f.name: f for f in fields(obj)}
    for key, value in section.items():
        got, f = getattr(obj, key), by_name[key]
        assert f.default is MISSING or _plain(f.default) != value, f"{path}.{key} is a default"
        if is_dataclass(got):
            _assert_reached(value, got, f"{path}.{key}")
        elif isinstance(got, list) and got and is_dataclass(got[0]):
            for i, (v, g) in enumerate(zip(value, got, strict=True)):
                _assert_reached(v, g, f"{path}.{key}[{i}]")
        else:
            assert _plain(got) == value, f"{path}.{key}"


class TestEveryKey:
    @pytest.mark.parametrize("data_kind,model_kind", [
        ("mnist_binary", "cnn"), ("digits_binary", "mlp"), ("two_gaussians", "cnn")])
    def test_each_value_reaches_its_field(self, data_kind, model_kind):
        tree = full_tree(data_kind, model_kind)
        cfg = parse_config_dict(tree)
        _assert_reached(tree, cfg, "<root>")
        assert cfg.trainer.record_timing is True  # copied from the root

    def test_full_tree_sets_every_field(self):
        tree = full_tree()
        sections = [
            (tree, ExperimentConfig, set()),
            (tree["trainer"], TrainerConfig, {"record_timing"}),
            (tree["trainer"]["sampler"], GibbsSamplerConfig, set()),
            (tree["trainer"]["early_stop"], EarlyStopConfig, set()),
            (tree["smoothing"], SmoothingConfig, set()),
        ]
        for section, cls, from_root in sections:
            assert set(section) == {f.name for f in fields(cls)} - from_root, cls.__name__
        # each attack kind reads some of the keys; together the attacks set every one
        attacks = [tree["trainer"]["pgd"], tree["trainer"]["early_stop"]["eval_attack"],
                   *tree["attacks"]]
        assert set().union(*attacks) == {f.name for f in fields(AttackConfig)}
        data_keys = set().union(*DATA_BY_KIND.values())
        assert data_keys == {f.name for f in fields(DataSpec)}

    def test_omitted_seeds_take_the_master_seed(self):
        tree = full_tree()
        for section in (tree["trainer"], tree["trainer"]["pgd"],
                        tree["trainer"]["early_stop"]["eval_attack"], tree["attacks"][0],
                        tree["smoothing"]):
            del section["seed"]
        cfg = parse_config_dict(tree)
        seeds = [cfg.trainer.seed, cfg.trainer.pgd.seed,
                 cfg.trainer.early_stop.eval_attack.seed, cfg.attacks[0].seed,
                 cfg.smoothing.seed]
        assert seeds == [17] * 5


class TestStrictValues:
    @pytest.mark.parametrize("edit,path", [
        (lambda t: t["trainer"].update(lr_schedule=[["2", 0.1]]), "trainer.lr_schedule[0][0]"),
        (lambda t: t["trainer"].update(lr_schedule=[[2.5, 0.1]]), "trainer.lr_schedule[0][0]"),
        (lambda t: t["trainer"].update(lr_schedule=[[2]]), "trainer.lr_schedule[0]"),
        (lambda t: t["model"].update(channels=[2.0]), "model.channels[0]"),
        (lambda t: t["model"].update(fc_widths=[5, "2"]), "model.fc_widths[1]"),
        (lambda t: t["model"].update(in_shape=[1, 12.0, 12]), "model.in_shape[1]"),
        (lambda t: t["model"].update(in_shape=[1, 12]), "model.in_shape"),
        (lambda t: t["model"].update(in_shape=[1, 12, 12, 1]), "model.in_shape"),
        (lambda t: t.update(model={"kind": "mlp", "widths": [2, 5.0, 2]}), "model.widths[1]"),
        (lambda t: t.update(model={"kind": "mlp", "widths": ["2", 5, 2]}), "model.widths[0]"),
        (lambda t: t["data"].update(kind=3), "data.kind: unknown dataset kind"),
        # values of the right type that the run cannot use
        (lambda t: t.update(eval_batch_size=0), "eval_batch_size must be at least 1, got 0"),
        (lambda t: t.update(eval_batch_size=-1), "eval_batch_size must be at least 1, got -1"),
        (lambda t: t["trainer"].update(lr_schedule=[[1, 0.5], [2, -1.0]]),
         "trainer: lr_schedule factors must be nonnegative, got [(1, 0.5), (2, -1.0)]"),
        (lambda t: t.update(model={"kind": "mlp", "widths": [784, 0, 2]}),
         "model: layer widths must be positive"),
        (lambda t: t.update(model={"kind": "mlp", "widths": [784]}),
         "model: an MLP needs at least input and output widths"),
        (lambda t: t["model"].update(channels=[]),
         "model: need at least one conv block and one dense layer"),
        (lambda t: t["model"].update(in_shape=[0, 12, 12]),
         "model: in_shape, channel counts and widths must be positive"),
        (lambda t: t["model"].update(in_shape=[1, 1, 1]),
         "model: input (1, 1, 1) too small for 1 pool stages"),
    ])
    def test_malformed_value_names_its_path(self, edit, path):
        tree = full_tree()
        edit(tree)
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config_dict(tree)

    @pytest.mark.parametrize("edit,path", [
        (lambda t: t["trainer"]["sampler"].pop("gamma"), "trainer.sampler.gamma"),
        (lambda t: t["attacks"][0].pop("radius"), "attacks[0].radius"),
        (lambda t: t["smoothing"].pop("sigma"), "smoothing.sigma"),
    ])
    def test_missing_required_key_names_its_path(self, edit, path):
        tree = full_tree()
        edit(tree)
        with pytest.raises(ConfigError, match=re.escape(f"missing required key '{path}'")):
            parse_config_dict(tree)

    # a config that sets a removed sampler key must fail, not run without it:
    # each l-inf mode (the one l-inf step remains) and the loss_cap monitor
    @pytest.mark.parametrize("key,value", [
        pytest.param("linf_mode", mode, id=mode)
        for mode in ("final_projection", "per_step_projection", "coordinate_sign")
    ] + [pytest.param("loss_cap", 9.0, id="loss_cap")])
    @pytest.mark.parametrize("path", ["trainer.sampler", "attacks[0].sampler",
                                      "trainer.early_stop.eval_attack.sampler"])
    def test_linf_mode_is_refused(self, path, key, value):
        tree = full_tree()
        *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
        parent = tree
        for k in keys:
            parent = parent[k]
        parent[last] = {**parent[last], key: value}  # full_tree shares its samplers
        with pytest.raises(ConfigError, match=re.escape(f"unknown key '{path}.{key}'")):
            parse_config_dict(tree)

    # an attack refuses every key that its kind does not read
    @pytest.mark.parametrize("path, key, value", [
        ("attacks[1]", "steps", 2),
        ("attacks[1]", "step_size", 0.1),
        ("attacks[1]", "restarts", 2),
        ("attacks[1]", "random_start", True),
        ("attacks[1]", "sampler", FULL_SAMPLER),
        ("attacks[0]", "steps", 2),
        ("attacks[0]", "random_start", True),
        ("trainer.early_stop.eval_attack", "restarts", 2),
        ("trainer.pgd", "sampler", FULL_SAMPLER),
    ], ids=["fgsm_steps", "fgsm_step_size", "fgsm_restarts", "fgsm_random_start",
            "fgsm_sampler", "atent_steps", "atent_random_start", "eval_attack_restarts",
            "pgd_without_kind_sampler"])
    def test_attack_key_that_its_kind_does_not_read_is_refused(self, path, key, value):
        tree = full_tree()
        section = tree
        for k in re.findall(r"\w+", path):
            section = section[int(k) if k.isdigit() else k]
        section[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"unknown key '{path}.{key}'")):
            parse_config_dict(tree)

    def test_unknown_attack_kind_is_named(self):
        tree = full_tree()
        tree["attacks"][1] = {"kind": "cw", "radius": 0.3, "steps": 2}
        with pytest.raises(ConfigError, match=re.escape("attacks[1]: unknown attack kind 'cw'")):
            parse_config_dict(tree)

    def test_robust_early_stop_without_validation_is_refused(self):
        tree = minimal_tree()
        tree["data"]["val_fraction"] = 0
        tree["trainer"].update(early_stop={"metric": "robust"}, defense="pgd_at",
                               pgd={"radius": 0.1, "steps": 1, "step_size": 0.1})
        with pytest.raises(ConfigError, match=re.escape("data.val_fraction must be positive")):
            parse_config_dict(tree)
        tree["trainer"]["early_stop"]["metric"] = "natural"
        assert parse_config_dict(tree).data.val_fraction == 0.0

    # the weight chain runs l2 steps from the weights, so a sampler key that
    # says otherwise would be ignored
    @pytest.mark.parametrize("sampler, message", [
        ({"norm": "linf"}, "trainer: entropy_sgd's weight chain is l2: "
                           "it takes no sampler norm 'linf'"),
        ({"init_radius": 0.3}, "trainer: entropy_sgd's weight chain starts at the weights: "
                               "it takes no sampler init_radius"),
        ({"norm": "linf", "init_radius": 0.3}, "trainer: entropy_sgd's weight chain is l2"),
    ], ids=["linf", "init_radius", "both"])
    def test_entropy_sgd_sampler_key_its_chain_does_not_read_is_refused(self, sampler,
                                                                         message):
        tree = minimal_tree()
        tree["trainer"].update(defense="entropy_sgd", sampler={
            "gamma": 1.0, "step": 0.1, "steps": 2, **sampler})
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_dict(tree)
        tree["trainer"]["sampler"] = {"gamma": 1.0, "step": 0.1, "steps": 2, "norm": "l2"}
        assert parse_config_dict(tree).trainer.sampler.norm == "l2"

    @pytest.mark.parametrize("data, message", [
        ({"kind": "two_gaussians", "n": 121}, "data: n must be even and at least 2, got 121"),
        ({"kind": "digits_binary", "class_a": 12}, "data: class_a must be a digit 0-9, got 12"),
        ({"kind": "mnist_binary", "class_b": -1}, "data: class_b must be a digit 0-9, got -1"),
        ({"kind": "digits_binary", "class_a": 3, "class_b": 3},
         "data: class_a and class_b must differ, both are 3"),
        ({"kind": "digits_binary", "n_per_class": 0}, "data: n_per_class must be at least 1, got 0"),
        ({"kind": "mnist_binary", "cap_per_class": 0},
         "data: cap_per_class must be at least 1, got 0"),
    ], ids=["odd_n", "class_a_12", "class_b_negative", "same_classes", "n_per_class_0",
            "cap_per_class_0"])
    def test_data_the_data_layer_cannot_build_is_refused(self, data, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_dict(minimal_tree(data=data))

    def test_lr_schedule_factor_zero_is_allowed(self):
        # as lr 0 is: the run trains on with a zero step
        tree = minimal_tree()
        tree["trainer"]["lr_schedule"] = [[2, 0.0]]
        assert parse_config_dict(tree).trainer.schedule() == [(2, 0.0)]

    def test_null_section_is_absent(self):
        cfg = parse_config_dict(minimal_tree(smoothing=None))
        assert cfg.smoothing is None
        tree = minimal_tree()
        tree["trainer"]["early_stop"] = None
        assert parse_config_dict(tree).trainer.early_stop == EarlyStopConfig()

    def test_null_is_absent_for_a_key_that_may_be_none(self):
        tree = minimal_tree(output_dir=None)
        tree["trainer"].update(lr_schedule=None, early_stop={"patience": None})
        cfg = parse_config_dict(tree)
        assert (cfg.output_dir, cfg.trainer.lr_schedule, cfg.trainer.early_stop.patience) \
            == (None, None, None)

    @pytest.mark.parametrize("edit,path", [
        (lambda t: t.update(seed=True), "seed"),
        (lambda t: t["trainer"].update(epochs=True), "trainer.epochs"),
        (lambda t: t.update(smoothing={"sigma": 0.1, "n_samples": False}), "smoothing.n_samples"),
    ])
    def test_bool_is_not_an_integer(self, edit, path):
        tree = minimal_tree()
        edit(tree)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected an integer")):
            parse_config_dict(tree)

    # json reads NaN and Infinity as floats; each would reach the run
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path", ["trainer.lr", "trainer.sampler.gamma",
                                      "trainer.lr_schedule[0][1]", "smoothing.sigma",
                                      "attacks[0].radius"])
    def test_non_finite_number_is_refused(self, path, value):
        tree = full_tree()
        *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
        section = tree
        for k in keys:
            section = section[k]
        section[last] = value
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected a finite number")):
            parse_config_dict(tree)

    def test_abstain_margin_is_an_unknown_key(self):
        tree = minimal_tree(smoothing={"sigma": 0.1, "abstain_margin": 0.0})
        with pytest.raises(ConfigError, match=re.escape("unknown key 'smoothing.abstain_margin'")):
            parse_config_dict(tree)


def _trajectory_hashes_tool():
    """``tools/trajectory_hashes.py`` as a module; its BLAS thread pins stay
    out of this process's environment."""
    path = Path(__file__).resolve().parents[1] / "tools" / "trajectory_hashes.py"
    spec = importlib.util.spec_from_file_location("trajectory_hashes", path)
    tool = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(tool)
    return tool


class TestTrajectoryHashTrees:
    # the bitwise gate parses these trees first: a key the parser no longer
    # takes would crash it before it prints a hash
    def test_every_tree_parses(self):
        tool = _trajectory_hashes_tool()
        trees = [tool.config_tree(m, d) for m in tool.MODELS for d in tool.DEFENSES]
        for tree in trees + [tool.FULL_TREE]:
            assert parse_config_dict(tree).name == tree["name"]
