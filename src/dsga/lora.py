"""Low-rank update h = x W0^T + (alpha/r) x A^T B^T for frozen projection
matrices, with gradients for the A/B factors only."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import as_cotangent, check_finite

__all__ = [
    "LoraLayer",
    "LoraConfig",
    "init_lora_layer",
    "lora_apply",
    "lora_vjp",
    "lora_parameter_count",
]

VALID_TARGETS = ("query", "value")


@dataclass
class LoraLayer:
    """Frozen base W0 [d, k_dim] plus trainable factors B [d, r] and A [r, k_dim].

    B starts at zero so the initial update is exactly the base projection.
    """

    w0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    rank: int
    alpha: float

    def __post_init__(self) -> None:
        d, k_dim = self.w0.shape
        if self.rank < 1 or self.rank > min(d, k_dim):
            raise ValueError(
                f"rank {self.rank} out of range for base shape {self.w0.shape}"
            )
        if self.a.shape != (self.rank, k_dim):
            raise ValueError(f"A must be [{self.rank}, {k_dim}], got {self.a.shape}")
        if self.b.shape != (d, self.rank):
            raise ValueError(f"B must be [{d}, {self.rank}], got {self.b.shape}")
        for name, arr in (("w0", self.w0), ("a", self.a), ("b", self.b)):
            check_finite(arr, name)
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


@dataclass
class LoraConfig:
    rank: int = 8
    targets: Sequence[str] = ("query", "value")

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not self.targets:
            raise ValueError("targets must be non-empty")
        bad = [t for t in self.targets if t not in VALID_TARGETS]
        if bad:
            raise ValueError(f"unknown targets {bad}; valid: {list(VALID_TARGETS)}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {list(self.targets)}")


def init_lora_layer(
    w0: np.ndarray, rank: int, alpha: float | None = None, seed: int = 0
) -> LoraLayer:
    """A ~ N(0, 0.01^2), B = 0: the delta path starts exactly at zero."""
    w0 = np.asarray(w0)
    d, k_dim = w0.shape
    rng = np.random.default_rng(seed)
    a = (0.01 * rng.standard_normal((rank, k_dim))).astype(w0.dtype)
    b = np.zeros((d, rank), dtype=w0.dtype)
    return LoraLayer(
        w0=w0, a=a, b=b, rank=rank, alpha=float(rank if alpha is None else alpha)
    )


def lora_apply(layer: LoraLayer, x: np.ndarray) -> np.ndarray:
    """h = x W0^T + (alpha/r) ((x A^T) B^T) for x of shape [..., k_dim]."""
    x = np.asarray(x)
    k_dim = layer.w0.shape[1]
    if x.ndim < 1 or x.shape[-1] != k_dim:
        raise ValueError(f"input last dim {x.shape} incompatible with base {layer.w0.shape}")
    base = x @ layer.w0.T
    delta = (x @ layer.a.T) @ layer.b.T
    # scaled, then added into base, in place: each buffer is widened first
    # where the float scaling (of an integer product) or the wider factors
    # set a wider dtype, so the bytes are those of base + scaling * delta
    delta = delta.astype(np.result_type(delta, layer.scaling), copy=False)
    delta *= layer.scaling
    base = base.astype(np.result_type(base, delta), copy=False)
    base += delta
    return base


def lora_vjp(layer: LoraLayer, x: np.ndarray, upstream: np.ndarray):
    """Cotangents of sum(upstream * lora_apply) wrt (x, A, B); W0 is frozen
    and emits no cotangent.

    The cotangents come back in the working dtype result_type(x, W0, A, B):
    float32 input with a float32 layer gives float32, float64 gives float64.
    The upstream is cast to that dtype once; a non-finite upstream, or one
    that overflows in the cast, raises NumericalError.
    """
    x = np.asarray(x)
    d, k_dim = layer.w0.shape
    dt = np.result_type(x, layer.w0, layer.a, layer.b)
    um = as_cotangent(upstream, x.shape[:-1] + (d,), dt).reshape(-1, d)
    xm = x.reshape(-1, k_dim).astype(dt, copy=False)
    s = layer.scaling
    dx = um @ layer.w0
    dx += s * (um @ layer.b) @ layer.a
    da = s * (layer.b.T @ um.T) @ xm
    db = s * um.T @ (xm @ layer.a.T)
    return dx.reshape(x.shape), da, db


def lora_parameter_count(cfg: LoraConfig, d: int, k_dim: int, num_layers: int) -> int:
    """num_layers * |targets| * r * (d + k_dim) trainable scalars."""
    if num_layers < 0:
        raise ValueError(f"num_layers must be >= 0, got {num_layers}")
    return num_layers * len(cfg.targets) * cfg.rank * (d + k_dim)
