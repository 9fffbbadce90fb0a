"""Pipeline configuration: JSON in/out with an exhaustive schema.

Unknown keys are rejected everywhere; silently ignored hyperparameter typos
are the main reproducibility hazard this guards against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .adapter import DsgaConfig
from .lora import LoraConfig
from .losses import LossHyper, LossWeights
from .prompts import PromptConfig

__all__ = ["ValidationError", "BackboneProfile", "PipelineConfig"]


class ValidationError(ValueError):
    """Raised for malformed or out-of-contract configuration values."""


@dataclass
class BackboneProfile:
    """Frozen-model bookkeeping used by the parameter audit."""

    layers: int = 12
    embed_dim: int = 768
    params_frozen: int = 91_000_000

    def __post_init__(self) -> None:
        if self.layers < 0 or self.embed_dim < 1 or self.params_frozen < 1:
            raise ValidationError(f"invalid backbone profile: {self}")


@dataclass
class PipelineConfig:
    dsga: DsgaConfig = field(default_factory=lambda: DsgaConfig(embed_dim=768))
    lora: LoraConfig = field(default_factory=LoraConfig)
    prompt: PromptConfig = field(default_factory=PromptConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    loss_hyper: LossHyper = field(default_factory=LossHyper)
    backbone: BackboneProfile = field(default_factory=BackboneProfile)

    def to_dict(self) -> dict:
        return {
            "dsga": asdict(self.dsga),
            "lora": {**asdict(self.lora), "targets": list(self.lora.targets)},
            "prompt": asdict(self.prompt),
            "loss": {
                "weights": list(self.loss_weights.lams),
                "ema_beta": self.loss_weights.ema_beta,
                **asdict(self.loss_hyper),
            },
            "backbone": asdict(self.backbone),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ValidationError(f"config root must be an object, got {type(data).__name__}")
        base = cls()
        sections = dict(data)
        try:
            dsga_cfg = _merge("dsga", sections.pop("dsga", {}), base.dsga, DsgaConfig)
            lora_cfg = _merge("lora", sections.pop("lora", {}), base.lora, LoraConfig)
            prompt_cfg = _merge(
                "prompt", sections.pop("prompt", {}), base.prompt, PromptConfig
            )
            loss_weights, loss_hyper = _parse_loss(sections.pop("loss", {}))
            backbone = _merge(
                "backbone", sections.pop("backbone", {}), base.backbone, BackboneProfile
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if sections:
            raise ValidationError(f"unknown config sections: {sorted(sections)}")
        # the adapter and the audit read the token width from different
        # sections; a config that sets both must agree with itself
        if (
            "embed_dim" in data.get("dsga", {})
            and "embed_dim" in data.get("backbone", {})
            and dsga_cfg.embed_dim != backbone.embed_dim
        ):
            raise ValidationError(
                f"dsga.embed_dim = {dsga_cfg.embed_dim} differs from "
                f"backbone.embed_dim = {backbone.embed_dim}"
            )
        return cls(
            dsga=dsga_cfg,
            lora=lora_cfg,
            prompt=prompt_cfg,
            loss_weights=loss_weights,
            loss_hyper=loss_hyper,
            backbone=backbone,
        )


def _typed(name: str, value, default):
    """Return ``value`` if its JSON type matches the default's: an int (not a
    bool) for an int, an int or float for a float, a string for a string.
    Other defaults are checked by their dataclass."""
    if isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an int"
    elif isinstance(default, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        kind = "a number"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:
        return value
    if not ok:
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return value


def _merge(section: str, data: dict, defaults, cls):
    if not isinstance(data, dict):
        raise ValidationError(f"section {section!r} must be an object")
    fields = {k: getattr(defaults, k) for k in defaults.__dataclass_fields__}
    extra = set(data) - set(fields)
    if extra:
        raise ValidationError(f"unknown keys in section {section!r}: {sorted(extra)}")
    for key, value in data.items():
        # a field declared with default None (lora.alpha) also takes null
        if value is not None or cls.__dataclass_fields__[key].default is not None:
            value = _typed(f"{section}.{key}", value, fields[key])
        fields[key] = value
    if "targets" in fields and isinstance(fields["targets"], list):
        fields["targets"] = tuple(fields["targets"])
    return cls(**fields)


def _parse_loss(data: dict):
    if not isinstance(data, dict):
        raise ValidationError("section 'loss' must be an object")
    data = dict(data)
    weights = data.pop("weights", [1.0, 1.0, 1.0])
    if not (isinstance(weights, (list, tuple)) and len(weights) == 3):
        raise ValidationError(f"loss.weights must be a 3-element list, got {weights!r}")
    lams = [float(_typed("loss.weights", w, 1.0)) for w in weights]

    def take(key, default):
        return _typed(f"loss.{key}", data.pop(key, default), default)

    lw = LossWeights(*lams, ema_beta=float(take("ema_beta", 0.9)))
    hyper = LossHyper(
        focal_gamma=float(take("focal_gamma", 2.0)),
        focal_alpha=float(take("focal_alpha", 0.25)),
        dice_smooth=float(take("dice_smooth", 1.0)),
    )
    if data:
        raise ValidationError(f"unknown keys in section 'loss': {sorted(data)}")
    return lw, hyper
