"""Flat key=value run configuration with typed validation."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import product

from .augment import AugmentationPolicy
from .graphs import GraphError

PIPELINES = ("groupcl", "groupig", "graphcl-baseline")
ESTIMATORS = ("nonparam", "param")


class ConfigError(ValueError):
    pass


def _check_field_types(cfg) -> None:
    """Each field holds a value of its default's type; an int passes for a
    float, a bool never for an int."""
    for f in dataclasses.fields(cfg):
        value, kind = getattr(cfg, f.name), type(f.default)
        if not (type(value) is kind or (kind is float and type(value) is int)):
            raise ConfigError(f"{f.name} must be a {kind.__name__}, got {value!r}")


@dataclass
class RunConfig:
    """Every hyperparameter and seed governing a training/evaluation run."""

    pipeline: str = "groupcl"
    num_groups: int = 4
    embed_dim: int = 160
    key_dim: int = 100
    gin_layers: int = 3
    gin_hidden: int = 32
    diversity_weight: float = 0.5
    estimator: str = "nonparam"
    aug_kinds: str = "node-drop,attribute-mask"
    aug_ratio: float = 0.2
    learning_rate: float = 0.001
    epochs: int = 20
    batch_size: int = 128
    seed: int = 0
    tie_views: bool = True
    scale_scores: bool = False
    learnable_eps: bool = False

    def __post_init__(self):
        _check_field_types(self)
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        for name, least in (("num_groups", 1), ("embed_dim", 1), ("key_dim", 1), ("gin_hidden", 1),
                            ("batch_size", 1), ("epochs", 0), ("gin_layers", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.embed_dim % self.num_groups != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_groups {self.num_groups}")
        for name, ok, rule in (("diversity_weight", self.diversity_weight >= 0, "non-negative"),
                               ("learning_rate", self.learning_rate > 0, "positive")):
            if not (ok and math.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite and {rule}, got {getattr(self, name)}")
        # every pipeline checks its augmentation fields, used or not
        for name, policy in (("aug_kinds", dict(kinds=self.aug_kind_list)),
                             ("aug_ratio", dict(ratio=self.aug_ratio))):
            try:
                AugmentationPolicy(**policy)
            except GraphError as exc:
                raise ConfigError(f"{name}: {exc}") from exc

    @property
    def group_dim(self) -> int:
        return self.embed_dim // self.num_groups

    @property
    def aug_kind_list(self) -> tuple[str, ...]:
        return tuple(k.strip() for k in self.aug_kinds.split(",") if k.strip())


@dataclass
class DataConfig:
    """Parameters of the synthetic planted-motif generator."""

    seed: int = 7
    num_graphs: int = 200
    nodes_per_graph: int = 14
    feature_dim: int = 8

    def __post_init__(self):
        _check_field_types(self)
        for name, least in (("seed", 0), ("nodes_per_graph", 8), ("feature_dim", 4)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        # the generator alternates the two classes
        if self.num_graphs <= 0 or self.num_graphs % 2:
            raise ConfigError(f"num_graphs must be positive and even, got {self.num_graphs}")


def _convert(name: str, raw: str, kind):
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {name!r}: {exc}") from exc


def parse_pairs(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"empty key in {item!r}")
        if key in out:
            raise ConfigError(f"duplicate key {key!r}")
        out[key] = value.strip()
    return out


def read_config_file(path) -> dict[str, str]:
    pairs = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            pairs.append(line)
    return parse_pairs(pairs)


def build_config(cls, entries: dict[str, str]):
    """Instantiate a config dataclass from string entries, each converted to
    the type of its field's default; unknown keys are rejected, never
    ignored."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    unknown = set(entries) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cls(**{name: _convert(name, raw, kinds[name]) for name, raw in entries.items()})


def load_grid(cls, path, overrides: list[str], axes: dict[str, list[str]]) -> list:
    """The config of each point of the axes' product, the last axis varying fastest."""
    entries = read_config_file(path) if path else {}
    entries.update(parse_pairs(overrides))
    both = sorted(set(entries) & set(axes))
    if both:
        raise ConfigError(f"keys both fixed and grid axes: {both}")
    return [build_config(cls, {**entries, **dict(zip(axes, p))}) for p in product(*axes.values())]


def load_config(cls, path=None, overrides: list[str] | None = None):
    return load_grid(cls, path, overrides or [], {})[0]


def format_config(cfg) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"
