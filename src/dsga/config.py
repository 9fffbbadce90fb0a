"""Pipeline configuration: JSON in/out with an exhaustive schema.

Unknown keys are rejected everywhere; silently ignored hyperparameter typos
are the main reproducibility hazard this guards against.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, fields

from .adapter import DsgaConfig
from .lora import LoraConfig
from .prompts import PromptConfig

__all__ = ["ValidationError", "BackboneProfile", "PipelineConfig"]


class ValidationError(ValueError):
    """Raised for malformed or out-of-contract configuration values."""


@dataclass
class BackboneProfile:
    """Frozen-model bookkeeping used by the parameter audit: ``layers`` is
    the encoder's block count, each block carrying one graph adapter and the
    low-rank updates; the token width is ``dsga.embed_dim``."""

    layers: int = 12
    params_frozen: int = 91_000_000

    def __post_init__(self) -> None:
        if self.layers < 0 or self.params_frozen < 1:
            raise ValidationError(f"invalid backbone profile: {self}")


@dataclass
class PipelineConfig:
    """The sections the toolkit reads; loss hyperparameters are not one of
    them (``dsga loss eval`` takes them as flags)."""

    dsga: DsgaConfig = field(default_factory=lambda: DsgaConfig(embed_dim=768))
    lora: LoraConfig = field(default_factory=LoraConfig)
    prompt: PromptConfig = field(default_factory=PromptConfig)
    backbone: BackboneProfile = field(default_factory=BackboneProfile)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ValidationError(f"config root must be an object, got {type(data).__name__}")
        base = cls()
        names = [f.name for f in fields(cls)]
        unknown = set(data) - set(names)
        if unknown:
            raise ValidationError(f"unknown config sections: {sorted(unknown)}")
        try:
            return cls(**{n: _merge(n, data.get(n, {}), getattr(base, n)) for n in names})
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc


def _typed(name: str, value, default):
    """Return ``value`` if its JSON type matches the default's: an int (not a
    bool) within int64 for an int, an int or float of finite float value for
    a float, a string for a string, a list of strings (as a tuple) for a
    tuple. Other defaults are checked by their dataclass."""
    if isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63
        kind = "an int within int64"
    elif isinstance(default, float):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        # compared exactly, so an int past the float range fails without an OverflowError
        ok, kind = number and abs(value) <= sys.float_info.max, "finite" if number else "a number"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
        value, kind = tuple(value) if ok else value, "a list of strings"
    else:
        return value
    if not ok:
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return value


def _merge(section: str, data: dict, defaults):
    """A ``type(defaults)`` with the keys of ``data`` typed and set over it."""
    if not isinstance(data, dict):
        raise ValidationError(f"section {section!r} must be an object")
    values = asdict(defaults)
    extra = set(data) - set(values)
    if extra:
        raise ValidationError(f"unknown keys in section {section!r}: {sorted(extra)}")
    for key, value in data.items():
        values[key] = _typed(f"{section}.{key}", value, values[key])
    return type(defaults)(**values)
