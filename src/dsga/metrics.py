"""Saliency and instance-level evaluation: precision/recall, F-measure,
structure measure, enhanced-alignment measure, MAE, threshold sweeps, and
AP at the 0.5-IoU operating point with greedy matching. ``detection_report``
holds that match and every score derived from it; ``ap50`` reads two of them.

S comes from per-cell moments: the centroid split gives four quadrants, each
cut into a foreground and a background cell whose count, mean and centred M2
come from masked sums. Merging cells by the pairwise update of Chan, Golub &
LeVeque (1983) gives the object term and each quadrant's SSIM. E maps are
mean-centred, with the all-foreground / all-background shortcuts, and
averaged over W*H pixels so a perfect prediction scores exactly 1.

P, R, F and E are functions of the confusion counts: one kernel maps counts
to scores, and the 256-level sweep takes all its counts from one histogram.
A pixel's level (the number of thresholds i/255 strictly below its value) is
binned by integer arithmetic, ceil(255 s) plus one exact correction step,
and the histogram is keyed by level and ground-truth value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import numerics
from .prompts import ScoredInstance, _score_order, pairwise_iou
from .prompts import mask_iou  # noqa: F401  (wrapped by perfbench/tracer.py; unused here)

__all__ = [
    "MetricReport",
    "DetectionSet",
    "precision_recall",
    "f_beta",
    "adaptive_threshold",
    "threshold_sweep",
    "s_measure",
    "e_measure",
    "mae",
    "evaluate_saliency",
    "ap50",
    "detection_report",
]

_EPS = np.spacing(1.0)
NUM_THRESHOLDS = 256
S_ALPHA = 0.5  # weight of the object term in S
F_BETA_SQ = 0.3  # beta^2 of every F-measure in a saliency report
_NO_CELL = (0, 0.0, 0.0)  # (count, mean, centred M2) of an empty cell
_IOU_FLOOR = 0.5  # the IoU a greedy match must reach


def _count_scores(tp, pp, ng: int, n: int):
    """Precision, recall, F (at F_BETA_SQ) and E arrays from per-binarization
    counts: ``tp`` true positives and ``pp`` predicted positives (int arrays),
    against a ground truth with ``ng`` foreground pixels out of ``n``.

    Empty-P precision is 1 if G is also empty, else 0; empty-G recall is 1.
    Mean-centred, a binarization and the ground truth each take two values,
    so the E sum is a count-weighted sum over the TP/FP/FN/TN pixel classes.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pp == 0, 1.0 if ng == 0 else 0.0, tp / pp)
        recall = np.ones(tp.shape) if ng == 0 else tp / ng
        den = F_BETA_SQ * precision + recall
        f = np.where(den == 0.0, 0.0, (1.0 + F_BETA_SQ) * precision * recall / den)
    if ng == 0:
        enhanced_sum = n - pp
    elif ng == n:
        enhanced_sum = pp
    else:
        enhanced_sum = 0.0
        # (pixel count, pred value, gt value) of the TP, FP, FN and TN classes
        fp, fn, tn = pp - tp, ng - tp, n - pp - ng + tp
        for count, p_val, g_val in ((tp, 1.0, 1.0), (fp, 1.0, 0.0), (fn, 0.0, 1.0), (tn, 0.0, 0.0)):
            a, g = p_val - pp / n, g_val - ng / n
            align = 2.0 * a * g / (a * a + g * g + _EPS)
            enhanced_sum = enhanced_sum + count * ((align + 1.0) ** 2 / 4.0)
    return precision, recall, f, enhanced_sum / n


def _binary_scores(pred: np.ndarray, gt: np.ndarray):
    """(P, R, F, E) of one binarization, through the sweep's kernel."""
    tp = np.array([np.count_nonzero(pred & gt)])
    pp = np.array([np.count_nonzero(pred)])
    scores = _count_scores(tp, pp, int(np.count_nonzero(gt)), gt.size)
    return tuple(float(v[0]) for v in scores)


def precision_recall(pred, gt) -> tuple[float, float]:
    """|P&G|/|P| and |P&G|/|G|. Empty-P precision is 1 if G is also empty,
    else 0; empty-G recall is 1 (nothing was there to find)."""
    return _binary_scores(*numerics.checked_pair(pred, gt, "pred", binary=True))[:2]


def f_beta(precision: float, recall: float, beta_sq: float = F_BETA_SQ) -> float:
    """(1 + b^2) P R / (b^2 P + R); 0 when the denominator vanishes."""
    den = beta_sq * precision + recall
    if den == 0.0:
        return 0.0
    return (1.0 + beta_sq) * precision * recall / den


def adaptive_threshold(sal) -> float:
    """min(2 * mean, 1); binarization everywhere uses the strict sal > t rule."""
    sal = numerics.as_unit_map(sal, "saliency")
    return min(2.0 * float(sal.mean()), 1.0)


def e_measure(binarized, gt) -> float:
    """Enhanced-alignment score: mean of ((2 a g / (a^2 + g^2)) + 1)^2 / 4 on
    mean-centered maps; all-foreground/all-background ground truth degenerates
    to the matching-pixel fraction."""
    return _binary_scores(*numerics.checked_pair(binarized, gt, "binarized", binary=True))[3]


def _merge(a, b):
    """The (count, mean, M2) of two disjoint cells' union (pairwise update)."""
    (na, xa, ma), (nb, xb, mb) = a, b
    if na == 0 or nb == 0:
        return b if na == 0 else a
    n, d = na + nb, xb - xa
    return n, xa + d * nb / n, ma + mb + d * d * na * nb / n


def _cells(sal_q: np.ndarray, gt_q: np.ndarray):
    """(count, mean, centred M2) of a non-empty quadrant's foreground and
    background values: masked sums over one contiguous copy, centred in place."""
    n, n_f = gt_q.size, int(np.count_nonzero(gt_q))
    if n_f in (0, n):
        # a pure quadrant scores 1 or 0 by whether sigma_x == 0, which on a
        # constant map turns on the mean's rounding: take it as the loop form does
        c = np.subtract(sal_q, x := float(sal_q.mean()))
        pure = (n, x, float(np.square(c, out=c).sum()))
        return (pure, _NO_CELL) if n_f else (_NO_CELL, pure)
    c, bg = np.array(sal_q), ~gt_q
    x_f, x_b = float(c.sum(where=gt_q)) / n_f, float(c.sum(where=bg)) / (n - n_f)
    np.subtract(c, x_f, out=c, where=gt_q)
    np.subtract(c, x_b, out=c, where=bg)
    np.square(c, out=c)
    return (n_f, x_f, float(c.sum(where=gt_q))), (n - n_f, x_b, float(c.sum(where=bg)))


def _region_score(fg, bg) -> float:
    """A quadrant's SSIM against its GT from its two cells. The GT's centred
    sums, n_f n_b / n (variance) and n_f n_b (x_f - x_b) / n (covariance),
    come from counts and cell means, so both are exactly 0 in a pure quadrant."""
    (n_f, x_f, _), (n_b, x_b, _) = fg, bg
    n, x, m2 = _merge(fg, bg)
    div, y = n - 1 + _EPS, n_f / n
    num = 4.0 * x * y * (n_f * n_b * (x_f - x_b) / n / div)
    den = (x * x + y * y) * (m2 / div + n_f * n_b / n / div)
    if num != 0.0:
        return num / (den + _EPS)
    return 1.0 if den == 0.0 else 0.0


def _quadrants(gt: np.ndarray, n_fg: int):
    """(row slice, column slice) of the quadrants split at the rounded, 1-based
    centroid of a mask's ``n_fg`` > 0 foreground pixels. Its numerators are
    exact integer sums, so it equals the rounded mean of ``np.argwhere(gt)``
    (``round`` breaks .5 ties to even as ``ndarray.round`` does)."""
    (h, w), u8 = gt.shape, gt.view(np.uint8)  # a row's count fits int32
    py = round(int(np.arange(h) @ np.add.reduce(u8, axis=1, dtype=np.int32)) / n_fg) + 1
    px = round(int(np.arange(w) @ np.add.reduce(u8, axis=0, dtype=np.int32)) / n_fg) + 1
    return [(sy, sx) for sy in (slice(0, py), slice(py, h)) for sx in (slice(0, px), slice(px, w))]


def _s_measure(sal: np.ndarray, gt: np.ndarray) -> float:
    n_fg = int(np.count_nonzero(gt))
    if n_fg in (0, gt.size):
        return float(np.clip(sal.mean() if n_fg else 1.0 - sal.mean(), 0.0, 1.0))
    fg, bg, s_region = _NO_CELL, _NO_CELL, 0.0
    for sy, sx in _quadrants(gt, n_fg):
        gt_q = gt[sy, sx]
        if gt_q.size:  # an empty quadrant has zero weight
            f, b = _cells(sal[sy, sx], gt_q)
            fg, bg = _merge(fg, f), _merge(bg, b)
            s_region += gt_q.size / gt.size * _region_score(f, b)

    # object component: foreground p and background 1 - p (same M2, mean 1 - x)
    def object_score(n, x, m2):
        return 2.0 * x / (x * x + 1.0 + (np.sqrt(m2 / (n - 1)) if n > 1 else 0.0) + _EPS)

    y = n_fg / gt.size
    s_object = y * object_score(*fg) + (1.0 - y) * object_score(bg[0], 1.0 - bg[1], bg[2])
    return float(np.clip(S_ALPHA * s_object + (1.0 - S_ALPHA) * s_region, 0.0, 1.0))


def s_measure(sal, gt) -> float:
    """Structure measure alpha * S_object + (1 - alpha) * S_region with
    alpha = 0.5, clamped to [0, 1]; empty/full ground truth degenerates to
    1 - mean / mean."""
    return _s_measure(*numerics.checked_pair(sal, gt, "saliency"))


def mae(sal, gt) -> float:
    """Mean absolute difference between the map and the binary ground truth."""
    return _mae(*numerics.checked_pair(sal, gt, "saliency"))


def _mae(sal: np.ndarray, gt: np.ndarray) -> float:
    # one float64 temporary: the bool GT is cast inside the subtraction
    diff = np.subtract(sal, gt)
    return float(np.abs(diff, out=diff).mean())


def _levels(sal: np.ndarray) -> np.ndarray:
    """Per pixel of a validated map, the number L of thresholds T[i] = i/255
    strictly below its value s (int16, 0..255): the pixel is foreground at
    threshold i exactly when L exceeds i.

    c = ceil(255 s) is L or L - 1. Rounding is monotone and 255 * T[k]
    rounds back to k for every k, so T[L - 1] < s <= T[L] gives
    L - 1 <= 255 s <= L after rounding. One step up where T[c] < s fixes c;
    T[c] = c / 255 is the same float64 division that defines the thresholds,
    and at c = 255 it is 1 >= s, so no step goes past 255.
    """
    s = sal.ravel()
    buf = np.multiply(s, 255.0)
    np.ceil(buf, out=buf)
    levels = buf.astype(np.int16)
    buf /= 255.0
    levels += buf < s
    return levels


def _counts_above(hist: np.ndarray) -> np.ndarray:
    """Per threshold i, the number of pixels whose level exceeds i, from
    level histograms along the last axis."""
    return np.cumsum(hist[..., ::-1], axis=-1)[..., ::-1][..., 1:]


def threshold_sweep(sal, gt) -> np.ndarray:
    """Binarize at t = i/255 for i in 0..255 (strict >) and report
    (precision, recall, F at beta^2 = 0.3, E) per threshold as a [256, 4]
    array."""
    return _sweep(*numerics.checked_pair(sal, gt, "saliency"))


def _sweep(sal: np.ndarray, gt: np.ndarray) -> np.ndarray:
    # one histogram of the levels keyed by GT value: row 0 background, row 1
    # foreground
    key = _levels(sal)
    key += np.multiply(gt.ravel(), NUM_THRESHOLDS + 1, dtype=np.int16)
    hist = np.bincount(key, minlength=2 * (NUM_THRESHOLDS + 1)).reshape(2, -1)
    above = _counts_above(hist)
    tp, pp = above[1], above[0] + above[1]
    scores = _count_scores(tp, pp, int(hist[1].sum()), gt.size)
    return np.stack(scores, axis=1)


@dataclass
class MetricReport:
    s_measure: float
    f_mean: float
    f_max: float
    f_adaptive: float
    e_mean: float
    e_max: float
    e_adaptive: float
    mae: float
    threshold_curve: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        """The scores by field name, in field order: all but the curve."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "threshold_curve"}


def evaluate_saliency(sal, gt) -> MetricReport:
    """Full per-image report: S, mean/max/adaptive F and E, MAE, and the
    256-point threshold curve."""
    # the one validation: the kernels below take it as read
    sal, gt = numerics.checked_pair(sal, gt, "saliency")
    curve = _sweep(sal, gt)
    _, _, f_adp, e_adp = _binary_scores(sal > min(2.0 * float(sal.mean()), 1.0), gt)
    return MetricReport(
        s_measure=_s_measure(sal, gt),
        f_mean=float(curve[:, 2].mean()),
        f_max=float(curve[:, 2].max()),
        f_adaptive=f_adp,
        e_mean=float(curve[:, 3].mean()),
        e_max=float(curve[:, 3].max()),
        e_adaptive=e_adp,
        mae=_mae(sal, gt),
        threshold_curve=curve,
    )


@dataclass
class DetectionSet:
    predictions: list[ScoredInstance]
    ground_truths: list[np.ndarray]

    def __post_init__(self) -> None:
        self.ground_truths = [numerics.as_mask(g, "ground truth") for g in self.ground_truths]
        shapes = {g.shape for g in self.ground_truths}
        shapes |= {p.mask.shape for p in self.predictions}
        if len(shapes) > 1:
            raise ValueError(f"all masks must share dimensions, got {sorted(shapes)}")


def _greedy_match(scores, iou: np.ndarray):
    """Score-descending greedy one-to-one matching on the prediction x
    ground-truth IoU matrix: each prediction takes the free ground truth of
    highest IoU (lowest index on ties) if that IoU reaches ``_IOU_FLOOR``.
    Returns per-prediction hit flags (aligned with the ranking) and matched
    IoUs."""
    free = np.ones(iou.shape[1], dtype=bool)
    hits, matched_ious = [], []
    for idx in _score_order(scores):
        row = np.where(free, iou[idx], -1.0)
        j = int(np.argmax(row)) if row.size else -1
        if j >= 0 and row[j] >= _IOU_FLOOR:
            free[j] = False
            hits.append(True)
            matched_ious.append(float(row[j]))
        else:
            hits.append(False)
    return hits, matched_ious


def detection_report(dets: DetectionSet) -> dict:
    """Precision, recall and F1 at the greedy 0.5-IoU match, its all-point
    AP (AP50), and the mean IoU over matched pairs only (0 when nothing
    matched)."""
    n_gt, n_pred = len(dets.ground_truths), len(dets.predictions)
    if not n_gt:
        raise ValueError("detection metrics require at least one ground-truth mask")
    iou = pairwise_iou([p.mask for p in dets.predictions], dets.ground_truths)
    hits, matched_ious = _greedy_match([p.score for p in dets.predictions], iou)
    ap, tp, prev_recall = 0.0, 0, 0.0
    for n, hit in enumerate(hits, start=1):
        tp += int(hit)
        recall = tp / n_gt
        ap += (recall - prev_recall) * (tp / n)
        prev_recall = recall
    precision, recall = (tp / n_pred if n_pred else 0.0), tp / n_gt
    return {
        "precision": precision,
        "recall": recall,
        "f1": f_beta(precision, recall, beta_sq=1.0),
        "ap50": ap,
        "matched_iou_mean": float(np.mean(matched_ious)) if matched_ious else 0.0,
        "matched_count": len(matched_ious),
        "num_predictions": n_pred,
        "num_ground_truths": n_gt,
    }


def ap50(dets: DetectionSet) -> tuple[float, float]:
    """The ``ap50`` and ``matched_iou_mean`` of ``detection_report(dets)``."""
    report = detection_report(dets)
    return report["ap50"], report["matched_iou_mean"]
