"""Run-level configuration: nested dataclasses plus a flat dotted-key view.

Config files are flat JSON objects whose keys name a section and field
("model.hidden_dim", "optimizer.target_lr") or a top-level scalar
("seed"). Flatness keeps files diffable and lets every key be checked
against the schema; unknown keys are errors, not warnings.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .augmentation import _mix_shares
from .model import ModelConfig


class UnknownConfigKey(ValueError):
    """A config file or override names a field that does not exist."""


@dataclass
class OptimizerConfig:
    beta1: float = 0.8
    beta2: float = 0.999
    eps: float = 1e-7
    target_lr: float = 0.001
    warmup_steps: int = 1000
    weight_decay: float = 3e-7
    ema_decay: float = 0.9999
    batch_size: int = 32
    total_steps: int = 1000

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        for name in ("eps", "target_lr", "warmup_steps", "ema_decay",
                     "batch_size", "total_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass
class AugmentationConfig:
    """Knobs for the round-trip paraphrase pipeline and pool mixing."""

    k: int = 5
    threshold: float = 0.5
    copies: int = 1
    mix_orig: float = 3.0
    mix_fr: float = 1.0
    mix_de: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.copies < 1:
            raise ValueError("copies must be at least 1")
        _mix_shares((self.mix_orig, self.mix_fr, self.mix_de))


@dataclass
class PathsConfig:
    train_data: str = ""
    dev_data: str = ""
    vectors: str = ""
    augmented_fr: str = ""
    augmented_de: str = ""
    out_dir: str = "runs/default"


@dataclass
class RunConfig:
    """Everything one run needs; defaults match the reference settings."""

    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    augment: AugmentationConfig = field(default_factory=AugmentationConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    seed: int = 0
    eval_every: int = 0
    checkpoint_every: int = 0
    log_every: int = 50

    def __post_init__(self):
        for name in _TOP_LEVEL:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        for name in ("seed", "eval_every", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")


_SECTIONS = {"model": ModelConfig, "optimizer": OptimizerConfig,
             "augment": AugmentationConfig, "paths": PathsConfig}
_TOP_LEVEL = ("seed", "eval_every", "checkpoint_every", "log_every")


def to_flat(config: RunConfig) -> dict:
    flat = {name: getattr(config, name) for name in _TOP_LEVEL}
    for section in _SECTIONS:
        for key, value in asdict(getattr(config, section)).items():
            flat[f"{section}.{key}"] = value
    return dict(sorted(flat.items()))


def from_flat(flat: dict, base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from dotted keys, layered over ``base`` (or defaults).

    Every key must name a real field; section validation reruns on the
    merged values.
    """
    source = base if base is not None else RunConfig()
    buckets = {name: asdict(getattr(source, name)) for name in _SECTIONS}
    top = {name: getattr(source, name) for name in _TOP_LEVEL}
    for key, value in flat.items():
        if key in top:
            top[key] = value
            continue
        section, dot, field_name = key.partition(".")
        if not dot or section not in buckets or field_name not in buckets[section]:
            raise UnknownConfigKey(f"unknown config key {key!r}")
        buckets[section][field_name] = value
    parts = {}
    for name, cls in _SECTIONS.items():
        try:
            parts[name] = cls(**buckets[name])
        except (TypeError, ValueError) as err:
            raise ValueError(f"bad value in section '{name}': {err}") from err
    return RunConfig(**parts, **top)


def load_run_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            flat = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {path}: {err}") from err
    if not isinstance(flat, dict):
        raise ValueError(f"config file {path}: expected a JSON object")
    return from_flat(flat)


def parse_override(text: str) -> tuple[str, object]:
    """Parse a ``key=value`` override; value is JSON, bare strings allowed."""
    key, eq, raw = text.partition("=")
    if not eq or not key:
        raise ValueError(f"override {text!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value
