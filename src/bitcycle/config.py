"""Declarative run configuration.

The on-disk format is a flat, diff-friendly text file of dotted keys:

    schedule.mode = ctmq
    schedule.target_k = 1
    data.batch_size = 512
    # comments and blank lines are fine

Every key has a typed default; unknown keys and malformed values are
rejected with their line number. A run's canonical form (all keys,
sorted, defaults materialized) is what gets hashed into the config
digest and copied into the run directory.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

# models and optim load numpy, which the CLI must not load before it pins threads
if TYPE_CHECKING:
    from .models import ModelConfig
    from .optim import OptimizerConfig

DATA_ROOT_ENV = "BITCYCLE_DATA"


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_int_tuple(s: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in s.split(",") if part.strip())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


# key -> (default, parser)
_SCHEMA: dict[str, tuple[object, object]] = {
    "model.block_kind": ("type2", str),
    "model.stage_channels": ((16, 32, 64, 128), _parse_int_tuple),
    "model.blocks_per_stage": ((2, 2, 2, 2), _parse_int_tuple),
    "model.num_classes": (10, int),
    "model.stem": ("cifar", str),
    "model.in_channels": (3, int),
    "schedule.mode": ("ctmq", str),
    "schedule.target_k": (1, int),
    "schedule.start_bits": (8, int),
    "schedule.cycles": (9, int),
    "schedule.soft_epochs": (20, int),
    "schedule.cyclic_epochs": (20, int),
    "schedule.final_epochs": (200, int),
    "schedule.bit_depth": (32, int),
    "schedule.epochs": (10, int),
    "schedule.initial_weights": ("", str),
    "optimizer.kind": ("adam", str),
    "optimizer.lr_base": (0.001, float),
    "optimizer.beta1": (0.9, float),
    "optimizer.beta2": (0.999, float),
    "optimizer.eps": (1e-8, float),
    "optimizer.weight_decay": (0.0, float),
    "optimizer.lr_policy": ("poly", str),
    "data.format": ("synthetic", str),
    "data.root": ("", str),
    "data.batch_size": (128, int),
    "data.eval_batch_size": (0, int),
    "data.augment": (True, _parse_bool),
    "data.pad": (4, int),
    "data.flip_prob": (0.5, float),
    "data.train_per_class": (0, int),
    "data.eval_per_class": (0, int),
    "data.synth_classes": (10, int),
    "data.synth_per_class": (64, int),
    "data.synth_size": (16, int),
    "run.seed": (0, int),
    "run.out_dir": ("runs/default", str),
    "run.threads": (1, int),
    "run.checkpoint_every": (10, int),
}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines into a raw string map, with line context on errors."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(
                f"{origin}:{lineno}: duplicate key {key!r} (first set on line {first_line[key]})"
            )
        out[key] = value
        first_line[key] = lineno
    return out


def apply_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply `key=value` strings on top of a raw map (later entries win)."""
    merged = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"override names unknown key {key!r}")
        merged[key] = value
    return merged


def typed_values(raw: dict[str, str], origin: str = "<config>") -> dict[str, object]:
    """Parse each raw string with its key's type; defaults are not filled in."""
    typed: dict[str, object] = {}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"{origin}: unknown key {key!r}")
        parse = _SCHEMA[key][1]
        # canonical_text writes every string but run.out_dir; each must parse back unchanged
        if parse is str and key != "run.out_dir" and (
                "#" in value or value != value.strip() or len(value.splitlines()) > 1):
            raise ConfigError(f"{origin}: {key!r} cannot hold {value!r}: config text cannot "
                              "carry a '#', a line break or leading/trailing whitespace")
        try:
            typed[key] = parse(value)
        except ValueError as e:
            raise ConfigError(f"{origin}: bad value for {key!r}: {e}") from None
    return typed


def file_values(path: str, overrides: list[str]) -> dict[str, object]:
    """Typed values of a config file with `key=value` overrides on top; loads no numpy."""
    with open(path) as f:
        raw = parse_config_text(f.read(), origin=path)
    return typed_values(apply_overrides(raw, overrides), origin=path)


@dataclass
class RunConfig:
    """Typed view over the flat key space; see _SCHEMA for keys and defaults.

    A dict goes through the same parsers as config text, so unknown keys and ill-typed
    values are refused and config.txt and the digest record exactly what a run executes.
    """

    values: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        full = {k: default for k, (default, _) in _SCHEMA.items()}
        full.update(self.values)
        self.values = typed_values({k: _fmt(v) for k, v in full.items()})
        self._validate()

    def _validate(self):
        # a key's bound lives in the object that takes the key; only keys no object takes are checked here
        from .data import AugmentPolicy
        from .optim import lr_at
        from .schedule import CtmqInputs

        if self["schedule.mode"] not in ("ctmq", "single"):
            raise ConfigError(f"schedule.mode must be ctmq or single, got {self['schedule.mode']!r}")
        if self["data.format"] not in ("cifar", "idx", "synthetic"):
            raise ConfigError(f"data.format must be cifar, idx, or synthetic, got {self['data.format']!r}")
        for key, low in (("data.batch_size", 1), ("data.eval_batch_size", 0),
                         ("data.train_per_class", 0), ("data.eval_per_class", 0),
                         ("run.threads", 1), ("run.checkpoint_every", 1)):
            if self[key] < low:
                raise ConfigError(f"{key} must be at least {low}, got {self[key]}")
        try:
            self.optimizer_config()
            self.view(AugmentPolicy, "data")
            # both modes' keys; CtmqInputs keeps every ctmq phase's depth and epochs within these
            self.view(CtmqInputs, "schedule")
            self.model_config(self["schedule.bit_depth"])
            lr_at(self["optimizer.lr_policy"], 0, self["schedule.epochs"], self["optimizer.lr_base"])
        except ValueError as e:
            raise ConfigError(f"invalid config: {e}") from None

    def __getitem__(self, key: str):
        return self.values[key]

    @staticmethod
    def from_file(path: str, overrides: list[str] | None = None) -> "RunConfig":
        return RunConfig(file_values(path, overrides or []))

    # ------------------------------------------------------------------

    def canonical_text(self) -> str:
        # run.out_dir names where results land, not what the experiment is,
        # so it stays out of the canonical form and the digest
        lines = [f"{k} = {_fmt(self.values[k])}"
                 for k in sorted(self.values) if k != "run.out_dir"]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    # ------------------------------------------------------------------
    # typed views

    def view(self, cls, group: str, **given):
        """Build dataclass ``cls`` from the keys ``<group>.<field>``.

        Each field name of ``cls`` is the suffix of the key that fills it; ``given``
        supplies the fields no key holds. ``cls`` checks its own bounds.
        """
        return cls(**{f.name: self[f"{group}.{f.name}"] for f in fields(cls)
                      if f.name not in given}, **given)

    def model_config(self, bit_depth: int) -> ModelConfig:
        from .models import ModelConfig

        return self.view(ModelConfig, "model", bit_depth=bit_depth)

    def optimizer_config(self) -> OptimizerConfig:
        from .optim import OptimizerConfig

        return self.view(OptimizerConfig, "optimizer")

    def eval_batch_size(self) -> int:
        """The batch size a run evaluates at: data.eval_batch_size, or data.batch_size where that is 0."""
        return self["data.eval_batch_size"] or self["data.batch_size"]

    def data_root(self) -> str:
        return self["data.root"] or os.environ.get(DATA_ROOT_ENV, "")
