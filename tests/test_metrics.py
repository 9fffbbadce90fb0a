import math

import numpy as np
import pytest

from dsga import numerics
from dsga.metrics import (
    DetectionSet,
    _count_scores,
    _greedy_match,
    _quadrants,
    adaptive_threshold,
    ap50,
    detection_report,
    e_measure,
    evaluate_saliency,
    f_beta,
    mae,
    precision_recall,
    s_measure,
    threshold_sweep,
)
from dsga.prompts import ScoredInstance, pairwise_iou


class TestPrecisionRecall:
    def test_exact_match(self):
        gt = np.zeros((4, 4), bool)
        gt[1:3, 1:3] = True
        assert precision_recall(gt, gt) == (1.0, 1.0)

    def test_strict_subset(self):
        gt = np.zeros((4, 4), bool)
        gt[0:2, 0:4] = True
        pred = np.zeros((4, 4), bool)
        pred[0, 0:4] = True
        p, r = precision_recall(pred, gt)
        assert p == 1.0 and r == 0.5

    def test_half_overlap(self):
        pred = np.zeros((2, 2), bool)
        gt = np.zeros((2, 2), bool)
        pred[0, 0] = pred[0, 1] = True
        gt[0, 1] = gt[1, 0] = True
        assert precision_recall(pred, gt) == (0.5, 0.5)

    def test_empty_conventions(self):
        empty = np.zeros((3, 3), bool)
        full = np.ones((3, 3), bool)
        assert precision_recall(empty, empty) == (1.0, 1.0)
        assert precision_recall(empty, full) == (0.0, 0.0)
        assert precision_recall(full, empty) == (0.0, 1.0)


class TestFBeta:
    def test_perfect(self):
        assert f_beta(1.0, 1.0) == 1.0

    @pytest.mark.parametrize("beta_sq", [0.3, 1.0, 2.0])
    def test_equal_inputs_fixed_point(self, beta_sq):
        for x in (0.2, 0.5, 0.9):
            assert f_beta(x, x, beta_sq) == pytest.approx(x)

    def test_precision_weighted_value(self):
        assert f_beta(1.0, 0.5, beta_sq=0.3) == 0.8125

    def test_zero_denominator(self):
        assert f_beta(0.0, 0.0) == 0.0


class TestAdaptiveThreshold:
    def test_twice_mean(self):
        assert adaptive_threshold(np.full((4, 4), 0.25)) == 0.5

    def test_clamped_at_one(self):
        assert adaptive_threshold(np.full((4, 4), 0.8)) == 1.0

    def test_all_zero_marks_nothing(self):
        sal = np.zeros((4, 4))
        t = adaptive_threshold(sal)
        assert t == 0.0
        assert not (sal > t).any()  # strict comparison leaves the map empty


class TestEMeasure:
    def test_perfect_alignment(self):
        gt = np.zeros((6, 6), bool)
        gt[1:4, 2:5] = True
        assert e_measure(gt, gt) == pytest.approx(1.0, abs=1e-6)

    def test_complement_on_half_image(self):
        gt = np.zeros((4, 4), bool)
        gt[:, :2] = True
        assert e_measure(~gt, gt) == pytest.approx(0.0, abs=1e-6)

    def test_all_ones_degenerate(self):
        full = np.ones((5, 5), bool)
        assert e_measure(full, full) == 1.0
        assert e_measure(np.zeros((5, 5), bool), np.zeros((5, 5), bool)) == 1.0

    def test_degenerate_partial_credit(self):
        empty = np.zeros((4, 4), bool)
        pred = np.zeros((4, 4), bool)
        pred[0, 0] = True
        assert e_measure(pred, empty) == pytest.approx(15.0 / 16.0)


# straight-line structure-measure oracle (same algorithm, loop form)


def reference_s_measure(sal, gt, alpha=0.5):
    eps = np.spacing(1.0)
    h, w = gt.shape
    y = gt.mean()
    if y == 0:
        return min(max(1.0 - sal.mean(), 0.0), 1.0)
    if y == 1:
        return min(max(float(sal.mean()), 0.0), 1.0)

    def obj(vals):
        x = float(np.mean(vals))
        sigma = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        return 2.0 * x / (x * x + 1.0 + sigma + eps)

    s_o = y * obj(sal[gt]) + (1 - y) * obj(1.0 - sal[~gt])

    ys, xs = np.nonzero(gt)
    cy = int(np.round(ys.mean())) + 1
    cx = int(np.round(xs.mean())) + 1

    def ssim(pq, gq):
        n = pq.size
        if n == 0:
            return 0.0
        x, yv = pq.mean(), gq.mean()
        sx = ((pq - x) ** 2).sum() / (n - 1 + eps)
        sy = ((gq - yv) ** 2).sum() / (n - 1 + eps)
        sxy = ((pq - x) * (gq - yv)).sum() / (n - 1 + eps)
        num, den = 4 * x * yv * sxy, (x * x + yv * yv) * (sx + sy)
        if num != 0:
            return num / (den + eps)
        return 1.0 if den == 0 else 0.0

    area = h * w
    parts = [
        (sal[:cy, :cx], gt[:cy, :cx], cx * cy / area),
        (sal[:cy, cx:], gt[:cy, cx:], cy * (w - cx) / area),
        (sal[cy:, :cx], gt[cy:, :cx], (h - cy) * cx / area),
    ]
    w4 = 1.0 - sum(p[2] for p in parts)
    parts.append((sal[cy:, cx:], gt[cy:, cx:], w4))
    s_r = sum(wt * ssim(pq, gq.astype(float)) for pq, gq, wt in parts)
    return min(max(alpha * s_o + (1 - alpha) * s_r, 0.0), 1.0)


def checkerboard(n=8):
    idx = np.add.outer(np.arange(n), np.arange(n))
    return (idx % 2 == 0).astype(bool)


class TestSMeasure:
    def test_perfect_binary_match(self):
        gt = np.zeros((8, 8), bool)
        gt[2:6, 3:7] = True
        assert s_measure(gt.astype(float), gt) == pytest.approx(1.0, abs=1e-6)

    def test_complement_scores_below_half(self):
        gt = checkerboard(8)
        sal = 1.0 - gt.astype(float)
        value = s_measure(sal, gt)
        ref = reference_s_measure(sal, gt)
        assert value == pytest.approx(ref, abs=1e-12)
        assert value < 0.5

    def test_empty_gt_zero_map_scores_one(self):
        assert s_measure(np.zeros((5, 5)), np.zeros((5, 5), bool)) == 1.0

    def test_full_gt_degenerate(self):
        assert s_measure(np.full((5, 5), 0.75), np.ones((5, 5), bool)) == 0.75

    def test_matches_reference_on_random_maps(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            sal = rng.random((9, 9))
            gt = rng.random((9, 9)) < 0.5
            assert s_measure(sal, gt) == pytest.approx(
                reference_s_measure(sal, gt), abs=1e-12
            )

    def test_degenerate_geometries_stay_finite(self):
        # size-1 foreground (sample std undefined), near-full masks, and
        # edge-hugging regions whose centroid collapses a quadrant to zero
        # width must neither produce NaN nor break the perfect-score fixpoint
        single = np.zeros((7, 7), bool)
        single[3, 3] = True
        value = s_measure(np.full((7, 7), 0.5), single)
        assert np.isfinite(value) and 0.0 <= value <= 1.0

        nearly_full = np.ones((7, 7), bool)
        nearly_full[0, 0] = False
        assert s_measure(nearly_full.astype(float), nearly_full) == pytest.approx(
            1.0, abs=1e-6
        )

        for axis_mask in (np.s_[:, 5], np.s_[0, :]):
            gt = np.zeros((6, 6), bool)
            gt[axis_mask] = True
            assert s_measure(gt.astype(float), gt) == pytest.approx(1.0, abs=1e-6)


class TestMae:
    def test_zero_for_match(self):
        gt = checkerboard()
        assert mae(gt.astype(float), gt) == 0.0

    def test_one_for_complement(self):
        gt = checkerboard()
        assert mae(1.0 - gt.astype(float), gt) == 1.0

    def test_constant_half(self):
        for gt in (checkerboard(), np.zeros((4, 4), bool)):
            assert mae(np.full(gt.shape, 0.5), gt) == 0.5


class TestThresholdSweep:
    def test_binary_map_equal_to_gt(self):
        gt = np.zeros((6, 6), bool)
        gt[1:5, 2:4] = True
        curve = threshold_sweep(gt.astype(float), gt)
        assert curve.shape == (256, 4)
        assert curve[:255, 2].min() == 1.0  # F = 1 until the t = 1 cutoff
        assert curve[:, 2].max() == 1.0

    def test_constant_half_map_empty_gt(self):
        curve = threshold_sweep(np.full((4, 4), 0.5), np.zeros((4, 4), bool))
        # below 0.5 the prediction is full: precision 0, recall 1 (empty gt)
        assert curve[0, 0] == 0.0 and curve[0, 1] == 1.0
        # at and above 0.5 the prediction empties: both conventions give 1
        assert curve[255, 0] == 1.0 and curve[255, 1] == 1.0

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sal = np.round(rng.random((4, 4)) * 255) / 255.0
            gt = rng.random((4, 4)) < 0.5
            curve = threshold_sweep(sal, gt)
            for i in range(256):
                t = i / 255.0
                binar = sal > t
                inter = int(np.logical_and(binar, gt).sum())
                np_, ng = int(binar.sum()), int(gt.sum())
                p = (1.0 if ng == 0 else 0.0) if np_ == 0 else inter / np_
                r = 1.0 if ng == 0 else inter / ng
                assert curve[i, 0] == p and curve[i, 1] == r
                den = 0.3 * p + r
                f = 0.0 if den == 0 else 1.3 * p * r / den
                assert curve[i, 2] == f


class TestEvaluateSaliency:
    def test_perfect_prediction_fixpoint(self):
        gt = np.zeros((8, 8), bool)
        gt[2:6, 1:7] = True
        report = evaluate_saliency(gt.astype(float), gt)
        assert report.s_measure == pytest.approx(1.0, abs=1e-6)
        assert report.f_max == 1.0
        assert report.e_max == pytest.approx(1.0, abs=1e-6)
        assert report.e_adaptive == pytest.approx(1.0, abs=1e-6)
        assert report.mae == 0.0

    def test_ordering_invariants_on_random_maps(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            # quantized maps: the adaptive threshold then coincides with a
            # sweep level, so the adaptive scores sit on the curve
            sal = np.round(rng.random((8, 8)) * 255) / 255.0
            gt = rng.random((8, 8)) < 0.5
            rep = evaluate_saliency(sal, gt)
            assert rep.f_max >= rep.f_mean
            assert rep.e_max >= rep.e_mean
            assert rep.f_max >= rep.f_adaptive - 1e-12
            assert rep.e_max >= rep.e_adaptive - 1e-12
            for v in (rep.f_max, rep.f_mean, rep.e_max, rep.e_mean, rep.mae, rep.s_measure):
                assert 0.0 <= v <= 1.0


def square_mask(y, x, side=3, shape=(12, 12)):
    m = np.zeros(shape, bool)
    m[y : y + side, x : x + side] = True
    return m


class TestAp50:
    def test_single_exact_match(self):
        gt = square_mask(2, 2)
        dets = DetectionSet([ScoredInstance(mask=gt, score=0.9)], [gt])
        assert ap50(dets) == (1.0, 1.0)

    def test_single_disjoint_prediction(self):
        dets = DetectionSet([ScoredInstance(mask=square_mask(0, 0), score=0.9)],
                            [square_mask(8, 8)])
        ap, mean_iou = ap50(dets)
        assert ap == 0.0 and mean_iou == 0.0
        assert detection_report(dets)["matched_count"] == 0

    def test_ranked_hit_miss_hit_fixture(self):
        g1, g2 = square_mask(0, 0), square_mask(8, 8)
        preds = [
            ScoredInstance(mask=g1, score=0.9),              # hit
            ScoredInstance(mask=square_mask(4, 4), score=0.8),  # miss
            ScoredInstance(mask=g2, score=0.7),              # hit
        ]
        ap, mean_iou = ap50(DetectionSet(preds, [g1, g2]))
        assert ap == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert mean_iou == 1.0

    def test_trailing_false_positives_leave_ap_unchanged(self):
        g1 = square_mask(0, 0)
        preds = [ScoredInstance(mask=g1, score=0.9)]
        base, _ = ap50(DetectionSet(preds, [g1]))
        extended = preds + [
            ScoredInstance(mask=square_mask(8, 8), score=0.1),
            ScoredInstance(mask=square_mask(8, 0), score=0.05),
        ]
        ap, _ = ap50(DetectionSet(extended, [g1]))
        assert ap == base

    def test_leading_false_positives_never_help(self):
        g1 = square_mask(0, 0)
        hit = [ScoredInstance(mask=g1, score=0.5)]
        base, _ = ap50(DetectionSet(hit, [g1]))
        with_fp = [ScoredInstance(mask=square_mask(8, 8), score=0.9)] + hit
        ap, _ = ap50(DetectionSet(with_fp, [g1]))
        assert ap <= base

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError, match="ground-truth"):
            ap50(DetectionSet([], []))

    def test_one_to_one_matching(self):
        g1 = square_mask(0, 0)
        # two identical predictions: only one can match the single gt
        preds = [ScoredInstance(mask=g1, score=0.9), ScoredInstance(mask=g1, score=0.8)]
        report = detection_report(DetectionSet(preds, [g1]))
        assert report["matched_count"] == 1
        assert report["precision"] == 0.5 and report["recall"] == 1.0

    def test_mixed_shape_rejected(self):
        with pytest.raises(ValueError, match="share dimensions"):
            DetectionSet(
                [ScoredInstance(mask=square_mask(0, 0), score=0.5)],
                [np.zeros((5, 5), bool)],
            )


# reference oracles: the per-threshold, per-pixel and per-pair loops that the
# count kernel and the IoU matrix replaced, kept verbatim in behaviour


def reference_precision_recall(pred, gt):
    inter = int(np.logical_and(pred, gt).sum())
    np_, ng = int(pred.sum()), int(gt.sum())
    precision = (1.0 if ng == 0 else 0.0) if np_ == 0 else inter / np_
    recall = 1.0 if ng == 0 else inter / ng
    return precision, recall


def reference_e_measure(pred, gt):
    n = gt.size
    gt_fg, pred_fg = int(gt.sum()), int(pred.sum())
    if gt_fg == 0:
        enhanced_sum = n - pred_fg
    elif gt_fg == n:
        enhanced_sum = pred_fg
    else:
        a = pred.astype(np.float64) - pred_fg / n
        g = gt.astype(np.float64) - gt_fg / n
        align = 2.0 * a * g / (a * a + g * g + np.spacing(1.0))
        enhanced_sum = float(np.sum((align + 1.0) ** 2 / 4.0))
    return float(enhanced_sum / n)


def reference_sweep(sal, gt, beta_sq=0.3):
    curve = np.zeros((256, 4))
    for i in range(256):
        binarized = sal > i / 255.0
        p, r = reference_precision_recall(binarized, gt)
        curve[i] = (p, r, f_beta(p, r, beta_sq), reference_e_measure(binarized, gt))
    return curve


def reference_mask_iou(a, b):
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(a, b).sum() / union)


def reference_greedy_match(dets, iou_floor=0.5):
    order = sorted(range(len(dets.predictions)), key=lambda i: (-dets.predictions[i].score, i))
    taken = [False] * len(dets.ground_truths)
    hits, matched_ious = [], []
    for idx in order:
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(dets.ground_truths):
            if taken[j]:
                continue
            iou = reference_mask_iou(dets.predictions[idx].mask, gt)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= iou_floor:
            taken[best_j] = True
            hits.append(True)
            matched_ious.append(best_iou)
        else:
            hits.append(False)
    return hits, matched_ious


def reference_detection_report(dets):
    hits, matched_ious = reference_greedy_match(dets)
    n_pred, n_gt = len(dets.predictions), len(dets.ground_truths)
    tp = sum(hits)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gt
    ap, tp_run, prev_recall = 0.0, 0, 0.0
    for n, hit in enumerate(hits, start=1):
        tp_run += int(hit)
        ap += (tp_run / n_gt - prev_recall) * (tp_run / n)
        prev_recall = tp_run / n_gt
    return {
        "precision": precision,
        "recall": recall,
        "f1": f_beta(precision, recall, beta_sq=1.0),
        "ap50": float(ap),
        "matched_iou_mean": float(np.mean(matched_ious)) if matched_ious else 0.0,
        "matched_count": len(matched_ious),
        "num_predictions": n_pred,
        "num_ground_truths": n_gt,
    }


def oracle_maps(rng, trials=48):
    """Seeded (saliency, gt) pairs: continuous maps, 8-bit PGM maps (every
    value exactly on a threshold i/255), float32-rounded maps, few-level maps
    with heavy ties, binary maps; 1xN, Nx1 and 1x1 strips; empty and full
    ground truth."""
    strips = [(1, 37), (29, 1), (1, 1), (1, 256)]
    for trial in range(trials):
        if trial % 4 == 0:
            h, w = strips[(trial // 4) % len(strips)]
        else:
            h, w = int(rng.integers(2, 48)), int(rng.integers(2, 48))
        sal = rng.random((h, w))
        kind = trial % 5
        if kind == 1:
            sal = np.rint(sal * 255.0) / 255.0
        elif kind == 2:
            sal = sal.astype(np.float32).astype(np.float64)
        elif kind == 3:
            sal = rng.integers(0, 4, (h, w)) / 3.0
        elif kind == 4:
            sal = (sal > 0.5).astype(np.float64)
        gt = rng.random((h, w)) < rng.random()
        if trial % 6 == 1:
            gt[:] = False
        elif trial % 6 == 2:
            gt[:] = True
        yield sal, gt


class TestCountKernelOracle:
    def test_sweep_matches_per_threshold_loop(self):
        rng = np.random.default_rng(60)
        for sal, gt in oracle_maps(rng):
            curve, ref = threshold_sweep(sal, gt), reference_sweep(sal, gt)
            assert np.array_equal(curve[:, :3], ref[:, :3])
            assert np.abs(curve[:, 3] - ref[:, 3]).max() <= 1e-15

    def test_single_binarization_matches_per_pixel_sums(self):
        rng = np.random.default_rng(61)
        for sal, gt in oracle_maps(rng):
            pred = sal > rng.choice([0.0, 0.5, 1.0, float(rng.random())])
            assert precision_recall(pred, gt) == reference_precision_recall(pred, gt)
            assert abs(e_measure(pred, gt) - reference_e_measure(pred, gt)) <= 1e-15

    def test_report_matches_old_loops(self):
        rng = np.random.default_rng(62)
        for sal, gt in oracle_maps(rng):
            rep = evaluate_saliency(sal, gt)
            ref = reference_sweep(sal, gt)
            adp = sal > min(2.0 * float(sal.mean()), 1.0)
            p, r = reference_precision_recall(adp, gt)
            assert rep.f_mean == float(ref[:, 2].mean())
            assert rep.f_max == float(ref[:, 2].max())
            assert rep.f_adaptive == f_beta(p, r)
            assert abs(rep.e_mean - float(ref[:, 3].mean())) <= 1e-15
            assert abs(rep.e_max - float(ref[:, 3].max())) <= 1e-15
            assert abs(rep.e_adaptive - reference_e_measure(adp, gt)) <= 1e-15

    def test_sweep_shares_the_e_measure_kernel(self):
        # one code path: the sweep's E is bit-equal to e_measure at every level
        rng = np.random.default_rng(63)
        for sal, gt in oracle_maps(rng, trials=12):
            curve = threshold_sweep(sal, gt)
            for i in range(0, 256, 17):
                assert curve[i, 3] == e_measure(sal > i / 255.0, gt)

    def test_nan_saliency_rejected(self):
        sal = np.full((3, 3), 0.5)
        sal[1, 1] = np.nan
        with pytest.raises(ValueError, match="saliency values"):
            threshold_sweep(sal, np.zeros((3, 3), bool))


class TestReportAndMae:
    def test_report_equals_the_public_functions(self):
        rng = np.random.default_rng(64)
        for sal, gt in oracle_maps(rng):
            rep = evaluate_saliency(sal, gt)
            assert rep.threshold_curve.tobytes() == threshold_sweep(sal, gt).tobytes()
            assert rep.s_measure == s_measure(sal, gt)
            assert rep.mae == mae(sal, gt)
            adp = sal > adaptive_threshold(sal)
            assert rep.f_adaptive == f_beta(*precision_recall(adp, gt))
            assert rep.e_adaptive == e_measure(adp, gt)

    def test_mae_matches_float64_gt_difference(self):
        # the old expression, with the GT cast to a float64 copy first
        rng = np.random.default_rng(65)
        for sal, gt in oracle_maps(rng):
            assert mae(sal, gt) == float(np.mean(np.abs(sal - gt.astype(np.float64))))

    @pytest.mark.parametrize("fn", [evaluate_saliency, threshold_sweep, s_measure, mae])
    def test_each_entry_point_rejects_bad_maps(self, fn):
        gt = np.zeros((3, 3), bool)
        with pytest.raises(ValueError, match="saliency values"):
            fn(np.full((3, 3), 1.5), gt)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fn(np.full((3, 4), 0.5), gt)
        with pytest.raises(ValueError, match="2-D"):
            fn(np.full(9, 0.5), gt)


def oracle_scene(rng, n_pred, n_gt, shape=(10, 12)):
    """Blocks on a small grid, so IoU ties, exact duplicates and score ties
    are common."""

    def block():
        m = np.zeros(shape, bool)
        y, x = int(rng.integers(0, shape[0] - 1)), int(rng.integers(0, shape[1] - 1))
        m[y : y + int(rng.integers(1, 5)), x : x + int(rng.integers(1, 5))] = True
        return m

    gts = [block() for _ in range(n_gt)]
    preds = []
    for _ in range(n_pred):
        m = gts[int(rng.integers(0, n_gt))].copy() if gts and rng.random() < 0.4 else block()
        preds.append(ScoredInstance(mask=m, score=float(rng.integers(0, 5)) / 4.0))
    return DetectionSet(preds, gts)


class TestIouMatchingOracle:
    def test_greedy_match_matches_per_pair_loop(self):
        rng = np.random.default_rng(64)
        for trial in range(150):
            dets = oracle_scene(rng, trial % 7, int(rng.integers(0, 6)))
            iou = pairwise_iou([p.mask for p in dets.predictions], dets.ground_truths)
            scores = [p.score for p in dets.predictions]
            assert _greedy_match(scores, iou) == reference_greedy_match(dets)

    def test_detection_report_matches_old_loops(self):
        rng = np.random.default_rng(65)
        for trial in range(150):
            dets = oracle_scene(rng, trial % 9, int(rng.integers(1, 6)))
            assert detection_report(dets) == reference_detection_report(dets)
            report = reference_detection_report(dets)
            assert ap50(dets) == (report["ap50"], report["matched_iou_mean"])

    def test_equal_iou_goes_to_lowest_ground_truth(self):
        g0 = np.zeros((2, 2), bool)
        g0[:, 0] = True
        g1 = np.zeros((2, 2), bool)
        g1[0, :] = True
        corner = np.zeros((2, 2), bool)
        corner[0, 0] = True  # IoU 1/2 with both
        # the corner takes g0, so the exact copy of g0 ranked after it misses
        preds = [ScoredInstance(mask=corner, score=0.9), ScoredInstance(mask=g0, score=0.8)]
        dets = DetectionSet(preds, [g0, g1])
        iou = pairwise_iou([corner, g0], [g0, g1])
        assert _greedy_match([0.9, 0.8], iou) == ([True, False], [0.5])
        assert reference_greedy_match(dets) == ([True, False], [0.5])
        assert detection_report(dets)["matched_count"] == 1


# binning oracle: the searchsorted levels and the two per-subset histograms
# that the integer binning and the GT-keyed histogram replaced

THRESHOLDS = np.arange(256) / 255.0


def searchsorted_sweep(sal, gt):
    def counts_above(levels):
        hist = np.bincount(levels, minlength=257)
        return np.cumsum(hist[::-1])[::-1][1:]

    levels = np.searchsorted(THRESHOLDS, sal.ravel())
    pp = counts_above(levels)
    tp = counts_above(levels[gt.ravel()])
    scores = _count_scores(tp, pp, int(np.count_nonzero(gt)), gt.size)
    return np.stack(scores, axis=1)


def threshold_neighbours():
    """Every threshold i/255, its two float64 neighbours on both sides, and
    the same for the float32 rounding of each threshold, within [0, 1]."""
    values = []
    for base in (THRESHOLDS, THRESHOLDS.astype(np.float32).astype(np.float64)):
        for direction in (-1.0, 2.0):
            v = base
            for _ in range(2):
                v = np.nextafter(v, direction)
                values.append(v)
        values.append(base)
    values = np.concatenate(values)
    return values[(values >= 0.0) & (values <= 1.0)]


def assert_sweep_matches_searchsorted(sal, gt):
    curve, ref = threshold_sweep(sal, gt), searchsorted_sweep(sal, gt)
    assert curve.tobytes() == ref.tobytes()


class TestSweepBinningOracle:
    def test_thresholds_scale_back_to_their_index(self):
        # the premise that lets ceil(255 s) undershoot but never overshoot
        assert np.array_equal(THRESHOLDS * 255.0, np.arange(256.0))

    def test_uniform_maps(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            h, w = rng.integers(1, 96, 2)
            sal = rng.random((h, w))
            assert_sweep_matches_searchsorted(sal, rng.random((h, w)) < rng.random())

    def test_thresholds_and_their_neighbours(self):
        values = threshold_neighbours()
        assert values.size > 2000
        rng = np.random.default_rng(71)
        for _ in range(8):
            sal = rng.permutation(values).reshape(1, -1)
            assert_sweep_matches_searchsorted(sal, rng.random(sal.shape) < 0.5)

    def test_end_values(self):
        for value in (0.0, 1.0, -0.0):
            for gt_value in (False, True):
                sal = np.full((3, 4), value)
                gt = np.full((3, 4), gt_value)
                gt[0, 0] = not gt_value
                assert_sweep_matches_searchsorted(sal, gt)
        sal = np.array([[0.0, 1.0, 0.0, 1.0]])
        assert_sweep_matches_searchsorted(sal, np.array([[True, True, False, False]]))

    def test_float32_and_8_bit_maps(self):
        # TNS predictions are float32 widened to float64; PGM ones are q/255
        rng = np.random.default_rng(72)
        for _ in range(12):
            h, w = rng.integers(1, 80, 2)
            gt = rng.random((h, w)) < rng.random()
            tns = rng.random((h, w)).astype(np.float32).astype(np.float64)
            pgm = rng.integers(0, 256, (h, w)).astype(np.uint8).astype(np.float64) / 255.0
            assert_sweep_matches_searchsorted(tns, gt)
            assert_sweep_matches_searchsorted(pgm, gt)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 53), (47, 1)])
    def test_strips_and_single_pixels(self, shape):
        rng = np.random.default_rng(73)
        values = threshold_neighbours()
        for _ in range(6):
            sal = rng.choice(values, shape)
            assert_sweep_matches_searchsorted(sal, rng.random(shape) < 0.5)
            assert_sweep_matches_searchsorted(sal, np.zeros(shape, bool))
            assert_sweep_matches_searchsorted(sal, np.ones(shape, bool))

    def test_empty_and_full_gt(self):
        rng = np.random.default_rng(74)
        values = threshold_neighbours()
        for sal in (rng.random((31, 17)), rng.choice(values, (31, 17))):
            assert_sweep_matches_searchsorted(sal, np.zeros(sal.shape, bool))
            assert_sweep_matches_searchsorted(sal, np.ones(sal.shape, bool))


def argwhere_centroid(gt):
    cy, cx = np.argwhere(gt).mean(axis=0).round()
    return int(cy), int(cx)


def split_centroid(gt):
    """The 0-based centroid that the S-measure splits at, read off the ends
    of its first quadrant; the quadrants must tile the map."""
    quads = _quadrants(gt, int(np.count_nonzero(gt)))
    tiles = np.zeros(gt.shape, int)
    for sy, sx in quads:
        tiles[sy, sx] += 1
    assert len(quads) == 4 and (tiles == 1).all()
    rows, cols = quads[0]
    return rows.stop - 1, cols.stop - 1


class TestCentroidOracle:
    def test_matches_argwhere_mean(self):
        rng = np.random.default_rng(75)
        for _ in range(300):
            h, w = rng.integers(1, 40, 2)
            gt = rng.random((h, w)) < rng.random()
            gt[rng.integers(h), rng.integers(w)] = True
            assert split_centroid(gt) == argwhere_centroid(gt)

    def test_half_way_ties_round_to_even(self):
        # means 0.5, 1.5, 2.5 and 3.5 along both axes
        for lo in range(4):
            gt = np.zeros((6, 6), bool)
            gt[lo : lo + 2, lo : lo + 2] = True
            assert split_centroid(gt) == argwhere_centroid(gt) == (lo + lo % 2, lo + lo % 2)

    def test_large_mask(self):
        rng = np.random.default_rng(76)
        gt = rng.random((512, 512)) < 0.3
        assert split_centroid(gt) == argwhere_centroid(gt)


# S-measure hazards for the per-cell moments: values whose raw second moment
# cancels (constant non-dyadic and near-constant regions), quadrants that
# hold one class only, a single foreground pixel, and edge centroids that
# leave a quadrant empty


def smooth_field(rng, h, w):
    """A smooth random field: a few low-frequency sinusoids."""
    yy, xx = np.mgrid[0:h, 0:w] / max(h, w)
    field = np.zeros((h, w))
    for _ in range(4):
        fy, fx, phase = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0, 2 * np.pi)
        field += np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
    return field


def smooth_pair(rng, h, w, fg_frac):
    """A blob GT with the given foreground fraction and a correlated map."""
    field = smooth_field(rng, h, w)
    gt = field > np.quantile(field, 1.0 - fg_frac)
    logits = 3.0 * (gt - 0.5) + 0.8 * rng.standard_normal((h, w)) + field
    return 1.0 / (1.0 + np.exp(-logits)), gt


def s_hazard_maps():
    rng = np.random.default_rng(80)
    for h, w in ((64, 64), (97, 41), (257, 300)):
        block = np.zeros((h, w), bool)
        block[h // 4 : 3 * h // 4, w // 5 : 3 * w // 5] = True
        line = np.zeros((h, w), bool)
        line[3, : w - 2] = True  # the two lower quadrants are pure background
        ell = np.ones((h, w), bool)
        ell[h // 2 :, w // 2 :] = False  # three quadrants are pure foreground
        for fg, bg in ((200 / 255, 3 / 255), (1 / 3, 1 / 3), (1 / 3, 2 / 3), (0.7, 0.1)):
            for gt in (block, line, ell):
                yield f"constant {fg:.4f}/{bg:.4f}", np.where(gt, fg, bg), gt
        noise = 1e-9 * rng.random((h, w))
        for gt in (block, line, ell):
            yield "near-constant foreground", np.where(gt, 0.7 + noise, rng.random((h, w))), gt
            yield "near-constant cells", np.where(gt, 0.7, 0.2) + noise, gt
            yield "constant map", np.full((h, w), 0.3), gt
            yield "random map", rng.random((h, w)), gt
        for y, x in ((h // 3, w // 3), (0, 0), (h - 1, w - 1), (h - 1, 0)):
            single = np.zeros((h, w), bool)
            single[y, x] = True
            yield "single foreground pixel", rng.random((h, w)), single
        for edge in (np.s_[:, -1], np.s_[-1, :], np.s_[-2:, -2:], np.s_[:, 0]):
            gt = np.zeros((h, w), bool)
            gt[edge] = True
            yield "edge centroid", rng.random((h, w)), gt
    for frac in (0.02, 0.1, 0.25, 0.6):
        for h, w in ((256, 256), (384, 512), (512, 448)):
            sal, gt = smooth_pair(rng, h, w, frac)
            yield "smooth", sal, gt
            yield "smooth 8-bit", np.rint(sal * 255.0) / 255.0, gt
            yield "smooth float32", sal.astype(np.float32).astype(np.float64), gt


class TestSMeasureCells:
    def test_hazard_set_matches_the_loop_form(self):
        for name, sal, gt in s_hazard_maps():
            assert abs(s_measure(sal, gt) - reference_s_measure(sal, gt)) <= 1e-12, name

    def test_saliency_fixtures_match_the_loop_form(self):
        rng = np.random.default_rng(81)
        for sal, gt in oracle_maps(rng, trials=96):
            assert abs(s_measure(sal, gt) - reference_s_measure(sal, gt)) <= 1e-12

    def test_pure_quadrants_of_a_dyadic_constant_score_one(self):
        # sigma_x is exactly 0 and so are sigma_y and sigma_xy: num = den = 0
        line = np.zeros((40, 40), bool)
        line[3, :30] = True
        sal = np.where(line, 0.75, 0.25)
        assert s_measure(sal, line) == reference_s_measure(sal, line)
        (rows, _), *_ = _quadrants(line, 30)
        assert rows.stop == 4  # so the pure lower quadrants carry the score
        assert s_measure(sal, line) > 0.5 * 0.8


class TestSingleValidation:
    def test_report_validates_each_map_once(self, monkeypatch):
        calls = []
        checked = numerics.as_unit_map

        def counting(values, name):
            calls.append(1)
            return checked(values, name)

        monkeypatch.setattr(numerics, "as_unit_map", counting)
        rng = np.random.default_rng(82)
        for sal, gt in oracle_maps(rng, trials=12):
            calls.clear()
            evaluate_saliency(sal, gt)
            assert len(calls) == 1
        # the public entry points keep their own validation
        sal, gt = np.full((4, 5), 0.25), np.eye(4, 5, dtype=bool)
        for fn, args in ((threshold_sweep, (sal, gt)), (s_measure, (sal, gt)),
                         (mae, (sal, gt)), (adaptive_threshold, (sal,))):
            calls.clear()
            fn(*args)
            assert len(calls) == 1
