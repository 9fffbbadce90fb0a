"""Focal, smoothed-Dice, and boundary losses, their weighted combination,
and the EMA weight-balancing recurrence, with analytic gradients wrt the
prediction map.

The boundary loss is the prediction-weighted mean of the signed Euclidean
distance to the ground-truth boundary (negative inside the foreground), so
it rewards probability mass deep inside the object.

combined_loss and loss_grads take that distance map from a one-entry memo
per thread, keyed on the mask's exact bytes: a training step that calls both
on one GT runs one distance transform. The memo keeps its own copy of the
mask, so a different mask, or the same array changed in place, misses and
recomputes; it holds the last map until the thread asks for another mask.
signed_distance itself stays a pure function and runs only on a miss.

EMA weighting: the state advances un-normalized as
lambda_t = beta * lambda_{t-1} + (1 - beta) * c_t (this is what the
closed-form geometric recurrence describes); the weights actually applied
to the combined loss are the state rescaled to sum 3, matching the scale of
the static 1:1:1 default. Contributions c_t default to the component values
divided by the running mean of their magnitudes, which evens out the very
different natural scales of the three terms; raw component values are
available behind ``mode="raw"``.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import distance_transform_edt

from .numerics import NumericalError, as_mask, as_unit_map, checked_pair, same_bits

__all__ = [
    "LossHyper",
    "LossWeights",
    "DistanceMap",
    "ContributionState",
    "focal_loss",
    "dice_loss",
    "signed_distance",
    "boundary_loss",
    "combined_loss",
    "ema_update",
    "ema_normalized",
    "contributions_from_components",
    "loss_grads",
]

CLIP_EPS = 1e-7


def _check_numbers(obj) -> None:
    """Reject a bool or a non-number in any field of a loss dataclass before
    its range checks compare the values."""
    for name, value in vars(obj).items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass
class LossHyper:
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25
    dice_smooth: float = 1.0

    def __post_init__(self) -> None:
        _check_numbers(self)
        if not 0.0 <= self.focal_gamma < np.inf:
            raise ValueError(f"focal_gamma must be finite and >= 0, got {self.focal_gamma}")
        if not 0.0 <= self.focal_alpha <= 1.0:
            raise ValueError(f"focal_alpha must be in [0, 1], got {self.focal_alpha}")
        if not 0.0 < self.dice_smooth < np.inf:
            raise ValueError(f"dice_smooth must be finite and > 0, got {self.dice_smooth}")


@dataclass
class LossWeights:
    lam1: float = 1.0  # focal
    lam2: float = 1.0  # dice
    lam3: float = 1.0  # boundary
    ema_beta: float = 0.9

    def __post_init__(self) -> None:
        _check_numbers(self)
        lams = (self.lam1, self.lam2, self.lam3)
        if not all(0.0 <= l < np.inf for l in lams):
            raise ValueError(f"loss weights must be finite and non-negative, got {lams}")
        if not any(l > 0 for l in lams):
            raise ValueError("at least one loss weight must be positive")
        if not 0.0 <= self.ema_beta < 1.0:
            raise ValueError(f"ema_beta must be in [0, 1), got {self.ema_beta}")

    @property
    def lams(self) -> tuple[float, float, float]:
        return (self.lam1, self.lam2, self.lam3)


@dataclass
class DistanceMap:
    """Signed Euclidean distance to the mask boundary, negative inside the
    foreground; all-foreground/all-background masks yield a zero map with
    ``degenerate`` set (no boundary exists)."""

    phi: np.ndarray
    degenerate: bool = False


def focal_loss(pred, gt, gamma: float = 2.0, alpha_bal: float = 0.25) -> float:
    """Mean of -alpha_t (1 - p_t)^gamma log(p_t); probabilities are clamped
    to [1e-7, 1 - 1e-7] before the log."""
    LossHyper(focal_gamma=gamma, focal_alpha=alpha_bal)  # LossHyper range-checks both
    pred, gt = checked_pair(pred, gt, "prediction")
    p = np.clip(pred, CLIP_EPS, 1.0 - CLIP_EPS)
    p_t = np.where(gt, p, 1.0 - p)
    a_t = np.where(gt, alpha_bal, 1.0 - alpha_bal)
    return float(np.mean(-a_t * (1.0 - p_t) ** gamma * np.log(p_t)))


def dice_loss(pred, gt, smooth: float = 1.0) -> float:
    """1 - (2 sum(p*g) + smooth) / (sum(p) + sum(g) + smooth)."""
    LossHyper(dice_smooth=smooth)  # LossHyper range-checks it
    pred, gt = checked_pair(pred, gt, "prediction")
    g = gt.astype(np.float64)
    num = 2.0 * float(np.sum(pred * g)) + smooth
    den = float(np.sum(pred)) + float(np.sum(g)) + smooth
    return 1.0 - num / den


def signed_distance(gt: np.ndarray) -> DistanceMap:
    """Exact signed Euclidean distance transform of a binary mask:
    +distance-to-foreground on background pixels, -distance-to-background on
    foreground pixels."""
    gt = as_mask(gt, "mask")
    if gt.all() or not gt.any():
        return DistanceMap(phi=np.zeros(gt.shape, dtype=np.float64), degenerate=True)
    phi = distance_transform_edt(~gt) - distance_transform_edt(gt)
    return DistanceMap(phi=phi.astype(np.float64), degenerate=False)


# the calling thread's last (mask, distance map) of _distance
_last_distance = threading.local()


def _distance(gt: np.ndarray) -> DistanceMap:
    """signed_distance of the bool mask ``gt``, through the calling thread's
    one-entry memo keyed on the mask's exact bytes."""
    last = getattr(_last_distance, "entry", None)
    if last is not None and same_bits(last[0], gt):
        return last[1]
    dist = signed_distance(gt)
    _last_distance.entry = (gt.copy(), dist)
    return dist


def boundary_loss(pred, dist: DistanceMap) -> float:
    """Mean over pixels of phi * p; negative when mass sits inside the object."""
    pred = as_unit_map(pred, "prediction")
    if dist.phi.shape != pred.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs phi {dist.phi.shape}")
    return float(np.mean(dist.phi * pred))


def combined_loss(pred, gt, weights: LossWeights, hyper: LossHyper | None = None):
    """Weighted sum lam1*focal + lam2*dice + lam3*boundary; returns
    (total, per-component dict)."""
    hyper = hyper or LossHyper()
    components = {
        "focal": focal_loss(pred, gt, hyper.focal_gamma, hyper.focal_alpha),
        "dice": dice_loss(pred, gt, hyper.dice_smooth),
        "boundary": boundary_loss(pred, _distance(as_mask(gt, "gt"))),
    }
    total = (
        weights.lam1 * components["focal"]
        + weights.lam2 * components["dice"]
        + weights.lam3 * components["boundary"]
    )
    return float(total), components


def ema_update(weights: LossWeights, contributions) -> LossWeights:
    """One step of the raw EMA state: lam <- beta * lam + (1 - beta) * c."""
    c = [float(v) for v in contributions]
    if len(c) != 3:
        raise ValueError(f"expected 3 contributions, got {len(c)}")
    if not all(np.isfinite(v) for v in c):
        raise NumericalError(f"non-finite contribution {c}")
    if any(v < 0 for v in c):
        raise ValueError(f"contributions must be non-negative, got {c}")
    b = weights.ema_beta
    new = [b * l + (1.0 - b) * v for l, v in zip(weights.lams, c)]
    return replace(weights, lam1=new[0], lam2=new[1], lam3=new[2])


def ema_normalized(weights: LossWeights) -> LossWeights:
    """Rescale the weights to sum 3, the scale of the static 1:1:1 default."""
    total = sum(weights.lams)
    scale = 3.0 / total
    return replace(
        weights,
        lam1=weights.lam1 * scale,
        lam2=weights.lam2 * scale,
        lam3=weights.lam3 * scale,
    )


@dataclass
class ContributionState:
    """Running mean of each component's magnitude, for scale normalization."""

    count: int = 0
    sums: tuple[float, float, float] = (0.0, 0.0, 0.0)


def contributions_from_components(
    components, state: ContributionState, mode: str = "scale_normalized"
):
    """Turn per-step component values into EMA contributions.

    ``scale_normalized`` divides each |value| by the running mean of its
    magnitude (current step included); ``raw`` passes |values| through.
    Returns (contributions, updated state).
    """
    vals = [abs(float(v)) for v in components]
    if len(vals) != 3:
        raise ValueError(f"expected 3 component values, got {len(vals)}")
    new_state = ContributionState(
        count=state.count + 1,
        sums=tuple(s + v for s, v in zip(state.sums, vals)),
    )
    if mode == "raw":
        return tuple(vals), new_state
    if mode != "scale_normalized":
        raise ValueError(f"unknown contribution mode {mode!r}")
    means = [s / new_state.count for s in new_state.sums]
    c = tuple(v / m if m > 0.0 else 0.0 for v, m in zip(vals, means))
    return c, new_state


def loss_grads(pred, gt, weights: LossWeights, hyper: LossHyper | None = None):
    """Analytic d(total)/d(p) per pixel for the combined loss."""
    hyper = hyper or LossHyper()
    pred, gtb = checked_pair(pred, gt, "prediction")
    h, w = pred.shape
    n = h * w
    gamma, alpha = hyper.focal_gamma, hyper.focal_alpha

    p = np.clip(pred, CLIP_EPS, 1.0 - CLIP_EPS)
    inside = (pred > CLIP_EPS) & (pred < 1.0 - CLIP_EPS)
    # clipping keeps p and 1-p >= CLIP_EPS, so every power below stays finite
    # foreground: d/dp[-a (1-p)^g ln p] = a g (1-p)^(g-1) ln p - a (1-p)^g / p
    d_fg = alpha * gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) - alpha * (
        1.0 - p
    ) ** gamma / p
    # background: d/dp[-(1-a) p^g ln(1-p)] = -(1-a) g p^(g-1) ln(1-p) + (1-a) p^g / (1-p)
    d_bg = -(1.0 - alpha) * gamma * p ** (gamma - 1.0) * np.log(1.0 - p) + (
        1.0 - alpha
    ) * p ** gamma / (1.0 - p)
    d_focal = np.where(gtb, d_fg, d_bg) * inside / n

    # dice consumes the unclipped prediction, so its gradient is ungated
    g = gtb.astype(np.float64)
    num = 2.0 * float(np.sum(pred * g)) + hyper.dice_smooth
    den = float(np.sum(pred)) + float(np.sum(g)) + hyper.dice_smooth
    d_dice = (num - 2.0 * g * den) / (den * den)

    d_boundary = _distance(gtb).phi / n

    return weights.lam1 * d_focal + weights.lam2 * d_dice + weights.lam3 * d_boundary
