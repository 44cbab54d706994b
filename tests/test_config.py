import dataclasses

import numpy as np
import pytest

from groupcontrast.config import (ConfigError, DataConfig, RunConfig,
                                  build_config, format_config, load_config,
                                  parse_pairs, read_config_file)
from groupcontrast.graphs import GraphError, generate_planted_motif_dataset


def test_defaults_match_reference_setup():
    cfg = RunConfig()
    assert cfg.pipeline == "groupcl"
    assert cfg.num_groups == 4
    assert cfg.embed_dim == 160
    assert cfg.key_dim == 100
    assert cfg.diversity_weight == 0.5
    assert cfg.learning_rate == 0.001
    assert cfg.epochs == 20
    assert cfg.batch_size == 128
    assert cfg.group_dim == 40
    assert cfg.aug_kind_list == ("node-drop", "attribute-mask")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        build_config(RunConfig, {"learning_rte": "0.01"})


def test_validation_rules():
    with pytest.raises(ConfigError):
        RunConfig(pipeline="simclr")
    with pytest.raises(ConfigError):
        RunConfig(estimator="mine")
    with pytest.raises(ConfigError):
        RunConfig(num_groups=0)
    with pytest.raises(ConfigError):
        RunConfig(embed_dim=160, num_groups=3)
    with pytest.raises(ConfigError):
        RunConfig(diversity_weight=-0.1)
    with pytest.raises(ConfigError):
        RunConfig(learning_rate=0.0)
    # non-finite and zero-width values, and augmentation fields a pipeline
    # does not use, are rejected by name
    for field, bad in [
        ("learning_rate", dict(learning_rate=float("nan"))),
        ("diversity_weight", dict(diversity_weight=float("inf"))),
        ("aug_ratio", dict(aug_ratio=float("nan"))),
        ("key_dim", dict(key_dim=0)),
        ("gin_hidden", dict(gin_hidden=0)),
        ("embed_dim", dict(embed_dim=0)),
        ("aug_ratio", dict(pipeline="groupig", aug_ratio=7.0)),
        ("aug_kinds", dict(pipeline="groupig", aug_kinds="bogus")),
        ("aug_kinds", dict(pipeline="graphcl-baseline", aug_kinds="")),
    ]:
        with pytest.raises(ConfigError, match=field):
            RunConfig(**bad)


@pytest.mark.parametrize("kinds", ["node-drop,node-drop,attribute-mask",
                                   "attribute-mask, node-drop ,node-drop"])
def test_repeated_augmentation_kind_rejected_by_name(kinds):
    # a repeated kind was accepted and drawn for 2 of 3 graphs, where each
    # graph draws one enabled kind uniformly
    with pytest.raises(ConfigError, match="^aug_kinds: repeated augmentation kind 'node-drop'$"):
        RunConfig(aug_kinds=kinds)


@pytest.mark.parametrize("field, bad", [
    ("tie_views", "no"),            # a non-empty string is truthy
    ("scale_scores", 1),
    ("seed", 1.5),                  # would be truncated by the seeded streams
    ("epochs", 2.5),
    ("num_groups", True),           # a bool is never an int
    ("batch_size", np.int64(8)),    # a checkpoint's JSON header cannot hold it
    ("learning_rate", "0.001"),
    ("diversity_weight", False),
    ("aug_ratio", None),
    ("pipeline", 1),
])
def test_field_of_wrong_type_rejected_by_name(field, bad):
    with pytest.raises(ConfigError, match=f"^{field} must be a "):
        RunConfig(**{field: bad})


@pytest.mark.parametrize("field, bad", [
    ("num_graphs", 2.5), ("seed", "x"), ("nodes_per_graph", True), ("feature_dim", None)])
def test_data_config_field_of_wrong_type_rejected_by_name(field, bad):
    with pytest.raises(ConfigError, match=f"^{field} must be a "):
        DataConfig(**{field: bad})


@pytest.mark.parametrize("field, bad, rule", [
    ("num_graphs", 0, "positive and even"), ("num_graphs", -4, "positive and even"),
    ("num_graphs", 7, "positive and even"), ("nodes_per_graph", 7, "at least 8"),
    ("feature_dim", 3, "at least 4")])
def test_data_config_out_of_range_rejected_by_name(field, bad, rule):
    # the generator's own limits, checked before it runs
    with pytest.raises(ConfigError, match=f"^{field} must be {rule}, got {bad}$"):
        DataConfig(**{field: bad})
    with pytest.raises(GraphError):
        generate_planted_motif_dataset(**dict(dataclasses.asdict(DataConfig()), **{field: bad}))


@pytest.mark.parametrize("cls", [RunConfig, DataConfig])
def test_negative_seed_rejected_by_name(cls):
    # numpy's seed sequence rejects it too, but without naming the field
    with pytest.raises(ConfigError, match="^seed must be at least 0"):
        cls(seed=-3)
    assert cls(seed=0).seed == 0


def test_int_accepted_for_float_field():
    cfg = RunConfig(diversity_weight=1, learning_rate=1)
    assert cfg.diversity_weight == 1 and cfg.learning_rate == 1


def test_parse_pairs():
    assert parse_pairs(["a=1", "b=x y"]) == {"a": "1", "b": "x y"}
    with pytest.raises(ConfigError):
        parse_pairs(["novalue"])
    with pytest.raises(ConfigError):
        parse_pairs(["a=1", "a=2"])
    with pytest.raises(ConfigError):
        parse_pairs(["=1"])


def test_type_conversion_and_bools():
    cfg = build_config(RunConfig, {
        "num_groups": "2", "embed_dim": "80", "diversity_weight": "0.3",
        "tie_views": "false", "learnable_eps": "yes",
    })
    assert cfg.num_groups == 2 and cfg.embed_dim == 80
    assert cfg.tie_views is False and cfg.learnable_eps is True
    with pytest.raises(ConfigError):
        build_config(RunConfig, {"epochs": "twenty"})
    with pytest.raises(ConfigError):
        build_config(RunConfig, {"tie_views": "maybe"})


def test_config_file_roundtrip(tmp_path):
    cfg = RunConfig(num_groups=2, embed_dim=80, seed=9)
    path = tmp_path / "run.cfg"
    path.write_text(format_config(cfg))
    back = load_config(RunConfig, path)
    assert back == cfg


def test_config_file_comments_and_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nepochs=5\n")
    assert read_config_file(path) == {"epochs": "5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs 5\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_config_file(bad)


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs=5\nseed=1\n")
    cfg = load_config(RunConfig, path, ["epochs=9"])
    assert cfg.epochs == 9 and cfg.seed == 1


def test_data_config_defaults():
    d = DataConfig()
    assert (d.seed, d.num_graphs, d.nodes_per_graph, d.feature_dim) == (7, 200, 14, 8)
