"""Saliency and instance-level evaluation: precision/recall, F-measure,
structure measure, enhanced-alignment measure, MAE, threshold sweeps, and
AP at the 0.5-IoU operating point with greedy matching.

Structure/enhanced-alignment internals follow their standard reference
algorithms (object/region decomposition with a centroid quadrant split and
per-region SSIM; mean-centered alignment maps with the degenerate
all-foreground / all-background shortcuts). The enhanced-alignment score is
averaged over W*H pixels so a perfect prediction scores exactly 1.

P, R, F and E are functions of the confusion counts: one kernel maps counts
to scores, and the 256-level sweep takes all its counts from one histogram.
A pixel's level (the number of thresholds i/255 strictly below its value) is
binned by integer arithmetic, ceil(255 s) plus one exact correction step,
and the histogram is keyed by level and ground-truth value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .prompts import ScoredInstance, _as_mask, pairwise_iou
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


def _as_saliency(sal) -> np.ndarray:
    sal = np.asarray(sal, dtype=np.float64)
    if sal.ndim != 2:
        raise ValueError(f"saliency map must be 2-D, got shape {sal.shape}")
    if not (sal.min() >= 0.0 and sal.max() <= 1.0):  # NaN fails too
        raise ValueError("saliency values must lie in [0, 1]")
    return sal


def _check_dims(a, b):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _checked_pair(sal, gt) -> tuple[np.ndarray, np.ndarray]:
    """The validated float64 saliency map and boolean ground truth."""
    sal = _as_saliency(sal)
    gt = _as_mask(gt, "gt")
    _check_dims(sal, gt)
    return sal, gt


def _count_scores(tp, pp, ng: int, n: int, beta_sq: float = 0.3):
    """Precision, recall, F and E arrays from per-binarization counts: ``tp``
    true positives and ``pp`` predicted positives (int arrays), against a
    ground truth with ``ng`` foreground pixels out of ``n``.

    Empty-P precision is 1 if G is also empty, else 0; empty-G recall is 1.
    Mean-centred, a binarization and the ground truth each take two values,
    so the E sum is a count-weighted sum over the TP/FP/FN/TN pixel classes.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pp == 0, 1.0 if ng == 0 else 0.0, tp / pp)
        recall = np.ones(tp.shape) if ng == 0 else tp / ng
        den = beta_sq * precision + recall
        f = np.where(den == 0.0, 0.0, (1.0 + beta_sq) * precision * recall / den)
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


def _binary_scores(pred: np.ndarray, gt: np.ndarray, beta_sq: float = 0.3):
    """(P, R, F, E) of one binarization, through the sweep's kernel."""
    tp = np.array([np.count_nonzero(pred & gt)])
    pp = np.array([np.count_nonzero(pred)])
    scores = _count_scores(tp, pp, int(np.count_nonzero(gt)), gt.size, beta_sq)
    return tuple(float(v[0]) for v in scores)


def _checked_scores(pred, gt, name: str):
    pred = _as_mask(pred, name)
    gt = _as_mask(gt, "gt")
    _check_dims(pred, gt)
    return _binary_scores(pred, gt)


def precision_recall(pred, gt) -> tuple[float, float]:
    """|P&G|/|P| and |P&G|/|G|. Empty-P precision is 1 if G is also empty,
    else 0; empty-G recall is 1 (nothing was there to find)."""
    return _checked_scores(pred, gt, "pred")[:2]


def f_beta(precision: float, recall: float, beta_sq: float = 0.3) -> float:
    """(1 + b^2) P R / (b^2 P + R); 0 when the denominator vanishes."""
    den = beta_sq * precision + recall
    if den == 0.0:
        return 0.0
    return (1.0 + beta_sq) * precision * recall / den


def adaptive_threshold(sal) -> float:
    """min(2 * mean, 1); binarization everywhere uses the strict sal > t rule."""
    sal = _as_saliency(sal)
    return min(2.0 * float(sal.mean()), 1.0)


def e_measure(binarized, gt) -> float:
    """Enhanced-alignment score: mean of ((2 a g / (a^2 + g^2)) + 1)^2 / 4 on
    mean-centered maps; all-foreground/all-background ground truth degenerates
    to the matching-pixel fraction."""
    return _checked_scores(binarized, gt, "binarized")[3]


def _object_score(values: np.ndarray) -> float:
    x = float(values.mean())
    sigma = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return 2.0 * x / (x * x + 1.0 + sigma + _EPS)


def _region_ssim(pred_q: np.ndarray, gt_q: np.ndarray) -> float:
    n = pred_q.size
    if n == 0:
        return 0.0  # empty quadrant carries zero weight anyway
    x = float(pred_q.mean())
    y = float(gt_q.mean())
    div = n - 1 + _EPS
    sigma_x = float(np.sum((pred_q - x) ** 2)) / div
    sigma_y = float(np.sum((gt_q - y) ** 2)) / div
    sigma_xy = float(np.sum((pred_q - x) * (gt_q - y))) / div
    num = 4.0 * x * y * sigma_xy
    den = (x * x + y * y) * (sigma_x + sigma_y)
    if num != 0.0:
        return num / (den + _EPS)
    return 1.0 if den == 0.0 else 0.0


def _centroid(gt: np.ndarray) -> tuple[int, int]:
    """Rounded (row, column) mean of a non-empty mask's foreground pixels.

    Both numerators and the denominator are exact integer sums, so the
    quotients equal the float mean of ``np.argwhere(gt)`` bit for bit, and
    ``round`` breaks .5 ties to even as ``ndarray.round`` does.
    """
    rows, cols = np.count_nonzero(gt, axis=1), np.count_nonzero(gt, axis=0)
    fg = int(rows.sum())
    cy = int(np.arange(gt.shape[0]) @ rows) / fg
    cx = int(np.arange(gt.shape[1]) @ cols) / fg
    return round(cy), round(cx)


def s_measure(sal, gt, alpha: float = 0.5) -> float:
    """Structure measure alpha * S_object + (1 - alpha) * S_region, clamped
    to [0, 1]; empty/full ground truth degenerates to 1 - mean / mean."""
    sal, gt = _checked_pair(sal, gt)
    y = float(gt.mean())
    if y == 0.0:
        return float(np.clip(1.0 - sal.mean(), 0.0, 1.0))
    if y == 1.0:
        return float(np.clip(sal.mean(), 0.0, 1.0))

    # object component: foreground/background mean-dissimilarity, weighted by
    # the foreground ratio
    o_fg = _object_score(sal[gt])
    o_bg = _object_score(1.0 - sal[~gt])
    s_object = y * o_fg + (1.0 - y) * o_bg

    # region component: quadrant split at the (1-based) ground-truth centroid
    h, w = gt.shape
    cy, cx = _centroid(gt)
    px, py = cx + 1, cy + 1
    area = h * w
    quads = [
        (slice(0, py), slice(0, px), px * py / area),
        (slice(0, py), slice(px, w), py * (w - px) / area),
        (slice(py, h), slice(0, px), (h - py) * px / area),
        (slice(py, h), slice(px, w), 0.0),  # weight filled below
    ]
    w4 = 1.0 - sum(q[2] for q in quads[:3])
    quads[3] = (quads[3][0], quads[3][1], w4)
    s_region = sum(
        wt * _region_ssim(sal[sy, sx], gt[sy, sx].astype(np.float64))
        for sy, sx, wt in quads
    )

    return float(np.clip(alpha * s_object + (1.0 - alpha) * s_region, 0.0, 1.0))


def mae(sal, gt) -> float:
    """Mean absolute difference between the map and the binary ground truth."""
    sal, gt = _checked_pair(sal, gt)
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


def threshold_sweep(sal, gt, beta_sq: float = 0.3) -> np.ndarray:
    """Binarize at t = i/255 for i in 0..255 (strict >) and report
    (precision, recall, F, E) per threshold as a [256, 4] array."""
    sal, gt = _checked_pair(sal, gt)
    # one histogram of the levels keyed by GT value: row 0 background, row 1
    # foreground
    key = _levels(sal)
    key += np.multiply(gt.ravel(), NUM_THRESHOLDS + 1, dtype=np.int16)
    hist = np.bincount(key, minlength=2 * (NUM_THRESHOLDS + 1)).reshape(2, -1)
    above = _counts_above(hist)
    tp, pp = above[1], above[0] + above[1]
    scores = _count_scores(tp, pp, int(hist[1].sum()), gt.size, beta_sq)
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

    def as_dict(self, with_curve: bool = False) -> dict:
        out = {
            "s_measure": self.s_measure,
            "f_mean": self.f_mean,
            "f_max": self.f_max,
            "f_adaptive": self.f_adaptive,
            "e_mean": self.e_mean,
            "e_max": self.e_max,
            "e_adaptive": self.e_adaptive,
            "mae": self.mae,
        }
        if with_curve:
            out["threshold_curve"] = [
                {"precision": p, "recall": r, "f": f, "e": e}
                for p, r, f, e in self.threshold_curve.tolist()
            ]
        return out


def evaluate_saliency(sal, gt, alpha: float = 0.5, beta_sq: float = 0.3) -> MetricReport:
    """Full per-image report: S, mean/max/adaptive F and E, MAE, and the
    256-point threshold curve."""
    sal, gt = _checked_pair(sal, gt)
    curve = threshold_sweep(sal, gt, beta_sq)
    _, _, f_adp, e_adp = _binary_scores(sal > adaptive_threshold(sal), gt, beta_sq)
    return MetricReport(
        s_measure=s_measure(sal, gt, alpha),
        f_mean=float(curve[:, 2].mean()),
        f_max=float(curve[:, 2].max()),
        f_adaptive=f_adp,
        e_mean=float(curve[:, 3].mean()),
        e_max=float(curve[:, 3].max()),
        e_adaptive=e_adp,
        mae=mae(sal, gt),
        threshold_curve=curve,
    )


@dataclass
class DetectionSet:
    predictions: list[ScoredInstance]
    ground_truths: list[np.ndarray]

    def __post_init__(self) -> None:
        self.ground_truths = [_as_mask(g, "ground truth") for g in self.ground_truths]
        shapes = {g.shape for g in self.ground_truths}
        shapes |= {p.mask.shape for p in self.predictions}
        if len(shapes) > 1:
            raise ValueError(f"all masks must share dimensions, got {sorted(shapes)}")


def _greedy_match(scores, iou: np.ndarray, iou_floor: float = 0.5):
    """Score-descending greedy one-to-one matching on the prediction x
    ground-truth IoU matrix: each prediction takes the free ground truth of
    highest IoU (lowest index on ties) if that IoU is positive and reaches
    the floor. Returns per-prediction hit flags (aligned with the ranking)
    and matched IoUs."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    free = np.ones(iou.shape[1], dtype=bool)
    hits, matched_ious = [], []
    for idx in order:
        row = np.where(free, iou[idx], -1.0)
        j = int(np.argmax(row)) if row.size else -1
        if j >= 0 and row[j] > 0.0 and row[j] >= iou_floor:
            free[j] = False
            hits.append(True)
            matched_ious.append(float(row[j]))
        else:
            hits.append(False)
    return hits, matched_ious


def _match(dets: DetectionSet):
    """Greedy 0.5-IoU matching of ``dets`` plus the scores derived from it:
    (hits, matched IoUs, all-point AP, mean matched IoU or 0)."""
    iou = pairwise_iou([p.mask for p in dets.predictions], dets.ground_truths)
    hits, matched_ious = _greedy_match([p.score for p in dets.predictions], iou)
    n_gt = len(dets.ground_truths)
    ap = 0.0
    tp = 0
    prev_recall = 0.0
    for n, hit in enumerate(hits, start=1):
        tp += int(hit)
        precision = tp / n
        recall = tp / n_gt
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    mean_iou = float(np.mean(matched_ious)) if matched_ious else 0.0
    return hits, matched_ious, float(ap), mean_iou


def ap50(dets: DetectionSet) -> tuple[float, float]:
    """All-point average precision at IoU >= 0.5 plus the mean IoU over
    matched pairs only (0 when nothing matched)."""
    if not dets.ground_truths:
        raise ValueError("ap50 requires at least one ground-truth mask")
    _, _, ap, mean_iou = _match(dets)
    return ap, mean_iou


def detection_report(dets: DetectionSet) -> dict:
    """Precision, recall, F1 (at the 0.5-IoU match), AP50, matched mean IoU."""
    if not dets.ground_truths:
        raise ValueError("detection_report requires at least one ground-truth mask")
    hits, matched_ious, ap, mean_iou = _match(dets)
    tp = sum(hits)
    n_pred = len(dets.predictions)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / len(dets.ground_truths)
    f1 = f_beta(precision, recall, beta_sq=1.0)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "ap50": ap,
        "matched_iou_mean": mean_iou,
        "matched_count": len(matched_ious),
        "num_predictions": n_pred,
        "num_ground_truths": len(dets.ground_truths),
    }
