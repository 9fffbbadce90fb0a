"""Point-prompt generation from foreground masks and IoU-based instance
deduplication.

A foreground mask is partitioned into grid cells (edge cells may be smaller
than g x g and score over their actual pixel count); each cell gets a
saliency score rho = foreground fraction, and cells above the threshold emit
a prompt at the floor-of-mean centroid of their foreground pixels. Adaptive
distribution control tops the prompt set up to n_min (descending rho,
excluding empty cells) and caps it at n_max.

Candidate instance masks are thinned greedily, highest predicted-IoU score
first: a candidate is dropped when it overlaps an already-kept mask above
tau_o, so the retained set is an antichain under IoU > tau_o. Dedup, matching
and AP all read one pairwise-IoU matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_array

from .numerics import as_mask

__all__ = [
    "PromptConfig",
    "PointPrompt",
    "ScoredInstance",
    "grid_saliency",
    "cell_centroid",
    "generate_prompts",
    "pairwise_iou",
    "mask_iou",
    "dedup_instances",
]


@dataclass
class PromptConfig:
    grid_size: int = 64
    saliency_threshold: float = 0.05
    n_min: int = 1
    n_max: int = 1024

    def __post_init__(self) -> None:
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if not 0.0 <= self.saliency_threshold <= 1.0:
            raise ValueError(
                f"saliency_threshold must be in [0, 1], got {self.saliency_threshold}"
            )
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"need 1 <= n_min <= n_max, got {self.n_min}..{self.n_max}")


@dataclass
class PointPrompt:
    """Pixel coordinate plus the saliency of its generating grid cell."""

    x: int
    y: int
    confidence: float
    source_cell: tuple[int, int]


@dataclass
class ScoredInstance:
    """Candidate mask with a predicted-IoU confidence score."""

    mask: np.ndarray
    score: float
    source_prompt: Optional[PointPrompt] = None

    def __post_init__(self) -> None:
        self.mask = as_mask(self.mask, "mask")
        if not self.mask.any():
            raise ValueError("instance mask is empty")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


def _cell_sums(a: np.ndarray, g: int, axes=(0, 1)) -> np.ndarray:
    """Integer sums of a 2-D array over runs of g along ``axes``; over both
    axes, the cells of the ceil(H/g) x ceil(W/g) grid. Edge runs may be
    shorter than g."""
    for axis in axes:
        starts = np.arange(0, a.shape[axis], g)
        a = np.add.reduceat(a, starts, axis=axis, dtype=np.int64)
    return a


def grid_saliency(mask: np.ndarray, g: int) -> np.ndarray:
    """Per-cell foreground fraction on the ceil(H/g) x ceil(W/g) grid."""
    mask = as_mask(mask, "mask")
    if g < 1:
        raise ValueError(f"grid size must be >= 1, got {g}")
    return _cell_sums(mask, g) / _cell_sums(np.ones(mask.shape, bool), g)


def cell_centroid(
    mask: np.ndarray, cell: tuple[int, int, int, int]
) -> Optional[tuple[int, int]]:
    """Floor-of-mean centroid (x, y) of foreground pixels inside a cell
    rectangle (y0, x0, y1, x1), or None when the cell has no foreground."""
    mask = as_mask(mask, "mask")
    y0, x0, y1, x1 = cell
    if not (0 <= y0 <= y1 <= mask.shape[0] and 0 <= x0 <= x1 <= mask.shape[1]):
        raise ValueError(f"cell {cell} outside mask bounds {mask.shape}")
    ys, xs = np.nonzero(mask[y0:y1, x0:x1])
    if ys.size == 0:
        return None
    xc = int(np.floor(xs.mean())) + x0
    yc = int(np.floor(ys.mean())) + y0
    return xc, yc


def generate_prompts(mask: np.ndarray, cfg: PromptConfig) -> list[PointPrompt]:
    """One prompt per cell with rho above the threshold, topped up to n_min
    from the densest remaining nonzero cells and capped at n_max; output is
    sorted by descending confidence, ties by (cell row, cell column).

    Every cell statistic is a cell sum: rho is count / size, and a centroid
    is floor(sum of cell-local coordinates / count) plus the cell origin,
    which equals the floor of the mean (the sums are exact integers). The
    coordinate sums weight the mask summed along the other axis, so no
    temporary is as large as the mask."""
    mask = as_mask(mask, "mask")
    g = cfg.grid_size
    h, w = mask.shape
    by_row = _cell_sums(mask, g, axes=(0,))  # [cell rows, W]
    by_col = _cell_sums(mask, g, axes=(1,))  # [H, cell columns]
    count = _cell_sums(by_row, g, axes=(1,))
    rho = count / _cell_sums(np.ones(mask.shape, bool), g)

    # admission is one prefix of the cells in descending rho, ties by
    # (row, col): the cells above the threshold, topped up to n_min with
    # nonzero cells (which rank next), capped at n_max
    order = np.argsort(-rho, axis=None, kind="stable")
    n_above = int(np.count_nonzero(rho > cfg.saliency_threshold))
    n_keep = max(n_above, min(cfg.n_min, int(np.count_nonzero(count))))
    cells = np.unravel_index(order[: min(n_keep, cfg.n_max)], rho.shape)

    n = count[cells]
    ys = _cell_sums(by_col * (np.arange(h) % g)[:, None], g, axes=(0,))[cells] // n
    xs = _cell_sums(by_row * (np.arange(w) % g), g, axes=(1,))[cells] // n
    ys, xs = ys + cells[0] * g, xs + cells[1] * g
    return [
        PointPrompt(x=x, y=y, confidence=conf, source_cell=(i, j))
        for x, y, conf, i, j in zip(
            xs.tolist(), ys.tolist(), rho[cells].tolist(), *(c.tolist() for c in cells)
        )
    ]


def _incidence(masks: list[np.ndarray], size: int):
    """Masks x pixels 0/1 matrix in CSR form (the flat foreground indices of
    each mask), and each mask's foreground count. Indices and values are
    int32 whenever the counts fit, which halves the memory."""
    cols = [np.flatnonzero(m) for m in masks]
    counts = np.array([c.size for c in cols], dtype=np.int64)
    index = np.int32 if max(size, int(counts.sum())) < 2**31 else np.int64
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(index)
    indices = np.concatenate(cols, dtype=index) if cols else np.zeros(0, dtype=index)
    data = np.ones(indices.size, dtype=index)
    return csr_array((data, indices, indptr), shape=(len(masks), size)), counts


def pairwise_iou(a_masks, b_masks) -> np.ndarray:
    """[len(a_masks), len(b_masks)] intersection over union of equally sized
    2-D masks (nonzero = foreground); 0 where both masks are empty.

    Intersections come from one sparse product of the masks' foreground
    incidence matrices and union = |a| + |b| - intersection, so memory
    follows the foreground pixels, not the image size."""
    same = a_masks is b_masks
    a_masks = [as_mask(m, "mask") for m in a_masks]
    b_masks = a_masks if same else [as_mask(m, "mask") for m in b_masks]
    shapes = {m.shape for m in a_masks + b_masks}
    if len(shapes) > 1:
        raise ValueError(f"mask dimensions differ: {sorted(shapes)}")
    size = a_masks[0].size if a_masks else b_masks[0].size if b_masks else 0
    a, a_count = _incidence(a_masks, size)
    b, b_count = (a, a_count) if same else _incidence(b_masks, size)
    inter = (a @ b.T).toarray()
    union = a_count[:, None] + b_count[None, :] - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two equally sized masks; 0 when both empty."""
    return float(pairwise_iou([a], [b])[0, 0])


def _score_order(scores) -> list[int]:
    """Indices of ``scores`` by descending score, ties in first-seen order
    (the sort is stable): the ranking of dedup and of detection matching."""
    return sorted(range(len(scores)), key=lambda i: -scores[i])


def dedup_instances(
    candidates: list[ScoredInstance], tau_o: float = 0.75
) -> list[ScoredInstance]:
    """Greedy suppression, highest score first (ties keep first-seen order):
    a candidate survives unless its IoU with an already-kept mask exceeds
    tau_o. Output preserves acceptance order."""
    if not 0.0 < tau_o <= 1.0:
        raise ValueError(f"tau_o must be in (0, 1], got {tau_o}")
    masks = [c.mask for c in candidates]
    iou = pairwise_iou(masks, masks)
    suppressed = np.zeros(len(candidates), dtype=bool)
    kept: list[ScoredInstance] = []
    for idx in _score_order([c.score for c in candidates]):
        if not suppressed[idx]:
            kept.append(candidates[idx])
            suppressed |= iou[idx] > tau_o
    return kept
