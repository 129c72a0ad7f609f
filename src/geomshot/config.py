"""Strict YAML configuration loading for the CLI.

Every config document carries ``schema_version: 1``; unknown keys at any
level are errors so typos in experiment grids fail loudly instead of
silently falling back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import InvalidConfig
from .evaluation import EvalSpec
from .geometry import REPRESENTATIONS
from .nnet import EncoderConfig
from .pipeline import AdaptConfig, TrainConfig

SCHEMA_VERSION = 1

_DATA_KEYS = {"data_root", "split", "representation", "normalize"}
_TRAIN_KEYS = {
    "n_way", "k_shot", "q_query", "episodes_per_epoch", "max_epochs",
    "patience", "base_seed", "supcon_weight", "temperature",
    "learning_rate", "weight_decay", "clip_norm", "monitor_episodes",
}
_ENCODER_KEYS = {"hidden_dim", "num_hidden", "embed_dim", "dropout_p"}
_EVAL_KEYS = {"n_way", "k_shot", "q_query", "episodes", "base_seed"}
_ADAPT_KEYS = {"mode", "max_epochs", "learning_rate", "patience"}
_ABLATE_KEYS = {"k_values"}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise InvalidConfig(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise InvalidConfig(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path, top_keys: set[str]) -> dict:
    doc = yaml.safe_load(Path(path).read_text())
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{path}: config must be a mapping")
    _check_keys(doc, top_keys | {"schema_version"}, str(path))
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidConfig(f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return doc


@dataclass
class DataConfig:
    data_root: Path
    split: Path
    representation: str
    normalize: bool


def parse_data(doc: dict, where: str = "data") -> DataConfig:
    section = doc.get("data")
    if section is None:
        raise InvalidConfig(f"missing required section {where!r}")
    _check_keys(section, _DATA_KEYS, where)
    for key in ("data_root", "split", "representation"):
        if key not in section:
            raise InvalidConfig(f"{where}.{key} is required")
    representation = section["representation"]
    if representation not in REPRESENTATIONS:
        raise InvalidConfig(
            f"{where}.representation must be one of {REPRESENTATIONS}, got {representation!r}"
        )
    normalize = section.get("normalize", True)
    if type(normalize) is not bool:
        raise InvalidConfig(f"{where}.normalize must be a boolean, got {normalize!r}")
    return DataConfig(
        data_root=Path(section["data_root"]),
        split=Path(section["split"]),
        representation=representation,
        normalize=normalize,
    )


def parse_train(doc: dict) -> TrainConfig:
    section = doc.get("train", {}) or {}
    _check_keys(section, _TRAIN_KEYS, "train")
    return TrainConfig(**section)


def parse_encoder(doc: dict, input_dim: int) -> EncoderConfig:
    section = doc.get("encoder", {}) or {}
    _check_keys(section, _ENCODER_KEYS, "encoder")
    return EncoderConfig(input_dim=input_dim, **section)


def parse_eval(doc: dict) -> EvalSpec:
    section = doc.get("eval", {}) or {}
    _check_keys(section, _EVAL_KEYS, "eval")
    return EvalSpec(**section)


def _int_list(values, where: str) -> tuple[int, ...]:
    """A non-empty list of ints; bools are refused although Python counts them as ints."""
    if not isinstance(values, list) or not values or not all(type(v) is int for v in values):
        raise InvalidConfig(f"{where} must be a non-empty list of integers, got {values!r}")
    return tuple(values)


def parse_ablate(doc: dict) -> tuple[int, ...]:
    """The K values of the ablation table; defaults to (1, 3, 5)."""
    section = doc.get("ablate", {}) or {}
    _check_keys(section, _ABLATE_KEYS, "ablate")
    ks = _int_list(section.get("k_values", [1, 3, 5]), "ablate.k_values")
    if min(ks) < 1:
        raise InvalidConfig(f"ablate.k_values must be positive, got {list(ks)}")
    return ks


def parse_seeds(doc: dict) -> tuple[int, ...]:
    """The seeds of a multiseed run; defaults to (42, 1337, 2024)."""
    seeds = _int_list(doc.get("seeds", [42, 1337, 2024]), "seeds")
    if len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise InvalidConfig(f"seeds must be distinct and non-negative, got {list(seeds)}")
    return seeds


def parse_adapt(doc: dict) -> AdaptConfig:
    section = doc.get("adapt")
    if section is None:
        raise InvalidConfig("missing required section 'adapt'")
    _check_keys(section, _ADAPT_KEYS, "adapt")
    return AdaptConfig(**section)
