import math
import threading

import numpy as np
import pytest

from dsga import losses
from dsga.losses import (
    ContributionState,
    DistanceMap,
    LossHyper,
    LossWeights,
    boundary_loss,
    combined_loss,
    contributions_from_components,
    dice_loss,
    ema_normalized,
    ema_update,
    focal_loss,
    loss_grads,
    signed_distance,
)
from dsga.numerics import NumericalError, finite_diff_grad
from dsga.pipeline import max_hybrid_error


def half_foreground(shape=(2, 2)):
    gt = np.zeros(shape, bool)
    gt[:, : shape[1] // 2] = True
    return gt


class TestFocalLoss:
    def test_confident_perfect_prediction(self):
        gt = half_foreground((4, 4))
        pred = np.where(gt, 1.0 - 1e-7, 1e-7)
        assert focal_loss(pred, gt, gamma=2.0, alpha_bal=0.25) <= 1e-5

    def test_gamma_zero_reduces_to_half_bce(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(0.05, 0.95, (5, 5))
        gt = rng.random((5, 5)) < 0.5
        bce = float(np.mean(np.where(gt, -np.log(pred), -np.log(1.0 - pred))))
        assert abs(focal_loss(pred, gt, gamma=0.0, alpha_bal=0.5) - 0.5 * bce) <= 1e-9

    def test_four_pixel_hand_sum(self):
        # uniform p = 0.5, half-foreground 2x2, gamma = 2, alpha = 0.25:
        # mean of {0.25, 0.25, 0.75, 0.75} * 0.25 * ln 2
        gt = half_foreground()
        loss = focal_loss(np.full((2, 2), 0.5), gt, gamma=2.0, alpha_bal=0.25)
        assert abs(loss - 0.08664339756999316) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pred = rng.random((4, 4))
            gt = rng.random((4, 4)) < 0.5
            assert focal_loss(pred, gt) >= 0.0


class TestDiceLoss:
    def test_exact_match_is_zero(self):
        gt = half_foreground((4, 6))
        assert dice_loss(gt.astype(float), gt, smooth=1.0) == 0.0

    def test_disjoint_four_pixel_masks(self):
        pred = np.zeros((4, 4))
        gt = np.zeros((4, 4), bool)
        pred[0, :] = 1.0
        gt[2, :] = True
        assert dice_loss(pred, gt, smooth=1.0) == pytest.approx(1.0 - 1.0 / 9.0)

    def test_both_empty_rescued_by_smoothing(self):
        assert dice_loss(np.zeros((3, 3)), np.zeros((3, 3), bool), smooth=1.0) == 0.0

    def test_bounded_below_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred = rng.random((5, 5))
            gt = rng.random((5, 5)) < 0.5
            assert 0.0 <= dice_loss(pred, gt) < 1.0


class TestTermHyperparameters:
    """The term functions reject what LossHyper rejects, with its messages."""

    GT = half_foreground((4, 4))
    PRED = np.full((4, 4), 0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, -1.0])
    def test_focal_gamma(self, gamma):
        with pytest.raises(ValueError, match="focal_gamma"):
            focal_loss(self.PRED, self.GT, gamma=gamma)

    @pytest.mark.parametrize("alpha", [math.nan, -0.1, 1.5])
    def test_focal_alpha(self, alpha):
        with pytest.raises(ValueError, match="focal_alpha"):
            focal_loss(self.PRED, self.GT, alpha_bal=alpha)

    @pytest.mark.parametrize("smooth", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_dice_smooth(self, smooth):
        with pytest.raises(ValueError, match="dice_smooth"):
            dice_loss(self.PRED, self.GT, smooth=smooth)

    def test_bounds_accepted(self):
        assert math.isfinite(focal_loss(self.PRED, self.GT, gamma=0.0, alpha_bal=0.0))
        assert math.isfinite(focal_loss(self.PRED, self.GT, gamma=5.0, alpha_bal=1.0))
        assert math.isfinite(dice_loss(self.PRED, self.GT, smooth=1e-12))


class TestSignedDistance:
    def test_three_pixel_strip(self):
        gt = np.array([[0, 1, 0]], dtype=bool)
        dm = signed_distance(gt)
        assert not dm.degenerate
        assert np.array_equal(dm.phi, [[1.0, -1.0, 1.0]])

    def test_center_spike_euclidean(self):
        gt = np.zeros((3, 3), bool)
        gt[1, 1] = True
        phi = signed_distance(gt).phi
        assert phi[1, 1] == -1.0
        assert phi[0, 1] == phi[1, 0] == phi[1, 2] == phi[2, 1] == 1.0
        assert phi[0, 0] == pytest.approx(math.sqrt(2.0))

    def test_degenerate_masks_flagged(self):
        for gt in (np.zeros((3, 3), bool), np.ones((3, 3), bool)):
            dm = signed_distance(gt)
            assert dm.degenerate
            assert not dm.phi.any()

    def test_sign_structure_and_unit_floor(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            gt = rng.random((8, 8)) < 0.4
            if gt.all() or not gt.any():
                continue
            phi = signed_distance(gt).phi
            assert np.all(phi[gt] < 0) and np.all(phi[~gt] > 0)
            assert np.abs(phi).min() >= 1.0


class TestBoundaryLoss:
    def test_zero_prediction(self):
        gt = np.array([[0, 1, 0]], dtype=bool)
        assert boundary_loss(np.zeros((1, 3)), signed_distance(gt)) == 0.0

    def test_indicator_on_strip(self):
        gt = np.array([[0, 1, 0]], dtype=bool)
        assert boundary_loss(gt.astype(float), signed_distance(gt)) == pytest.approx(-1.0 / 3.0)

    def test_moving_mass_inside_decreases(self):
        gt = np.zeros((5, 5), bool)
        gt[1:4, 1:4] = True
        dm = signed_distance(gt)
        outside = np.zeros((5, 5))
        outside[0, 0] = 0.7
        inside = np.zeros((5, 5))
        inside[2, 2] = 0.7
        assert boundary_loss(inside, dm) < boundary_loss(outside, dm)


class TestCombinedLoss:
    def test_perfect_prediction_leaves_boundary_term(self):
        gt = half_foreground((4, 4))
        pred = gt.astype(float)
        weights = LossWeights(1.0, 1.0, 1.0)
        total, parts = combined_loss(pred, gt, weights)
        assert abs(total - parts["boundary"]) <= 1e-5
        assert parts["dice"] == 0.0

    def test_heavy_focal_weighting(self):
        rng = np.random.default_rng(4)
        pred = rng.uniform(0.1, 0.9, (4, 4))
        gt = half_foreground((4, 4))
        total, parts = combined_loss(pred, gt, LossWeights(20.0, 1.0, 0.0))
        assert total == pytest.approx(20.0 * parts["focal"] + parts["dice"])

    def test_dice_only_perfect(self):
        gt = half_foreground((4, 4))
        total, _ = combined_loss(gt.astype(float), gt, LossWeights(0.0, 1.0, 0.0))
        assert total == 0.0

    def test_linear_in_weights(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.05, 0.95, (6, 6))
        gt = rng.random((6, 6)) < 0.5
        t1, _ = combined_loss(pred, gt, LossWeights(1.0, 0.0, 0.0))
        t2, _ = combined_loss(pred, gt, LossWeights(0.0, 1.0, 0.0))
        t3, _ = combined_loss(pred, gt, LossWeights(0.0, 0.0, 1.0))
        mixed, _ = combined_loss(pred, gt, LossWeights(2.0, 3.0, 0.5))
        assert mixed == pytest.approx(2.0 * t1 + 3.0 * t2 + 0.5 * t3, rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            LossWeights(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LossWeights(ema_beta=1.0)


class TestEmaUpdate:
    def test_closed_form_geometric_recurrence(self):
        beta = 0.9
        c = (0.4, 1.7, 0.2)
        w = LossWeights(ema_beta=beta)
        lam0 = np.array(w.lams)
        for k in range(1, 101):
            w = ema_update(w, c)
            expected = beta**k * lam0 + (1.0 - beta**k) * np.array(c)
            assert np.abs(np.array(w.lams) - expected).max() < 1e-12

    def test_beta_zero_adopts_contributions(self):
        w = ema_update(LossWeights(ema_beta=0.0), (0.2, 0.3, 0.5))
        assert w.lams == (0.2, 0.3, 0.5)
        assert sum(ema_normalized(w).lams) == pytest.approx(3.0)

    def test_equal_contributions_fixed_point(self):
        w = LossWeights(ema_beta=0.7)
        for _ in range(10):
            w = ema_update(w, (0.8, 0.8, 0.8))
        assert ema_normalized(w).lams == pytest.approx((1.0, 1.0, 1.0))

    def test_bounded_by_contribution_scale(self):
        rng = np.random.default_rng(6)
        w = LossWeights(ema_beta=0.9)
        cmax = 0.0
        for _ in range(500):
            c = rng.uniform(0.0, 5.0, 3)
            if not c.any():
                c[0] = 0.1
            cmax = max(cmax, c.max())
            w = ema_update(w, tuple(c))
            assert max(w.lams) <= max(1.0, cmax) + 1e-12
        assert sum(ema_normalized(w).lams) == pytest.approx(3.0)

    def test_rejects_bad_contributions(self):
        w = LossWeights()
        with pytest.raises(NumericalError):
            ema_update(w, (float("nan"), 1.0, 1.0))
        with pytest.raises(ValueError):
            ema_update(w, (-0.1, 1.0, 1.0))

    def test_scale_normalized_contributions(self):
        state = ContributionState()
        c1, state = contributions_from_components((2.0, 0.02, 200.0), state)
        assert c1 == pytest.approx((1.0, 1.0, 1.0))  # first step: value / own mean
        c2, state = contributions_from_components((4.0, 0.02, 100.0), state)
        assert c2 == pytest.approx((4.0 / 3.0, 1.0, 100.0 / 150.0))
        raw, _ = contributions_from_components((4.0, 0.02, 100.0), state, mode="raw")
        assert raw == (4.0, 0.02, 100.0)


class TestLossGrads:
    def test_boundary_only_is_phi_over_n(self):
        rng = np.random.default_rng(7)
        gt = rng.random((5, 5)) < 0.5
        gt[0, 0], gt[1, 1] = True, False
        pred = rng.uniform(0.1, 0.9, (5, 5))
        grad = loss_grads(pred, gt, LossWeights(0.0, 0.0, 1.0))
        assert np.array_equal(grad, signed_distance(gt).phi / 25.0)

    def test_dice_only_at_hard_match_finite_and_correct(self):
        gt = half_foreground((4, 4))
        pred = gt.astype(float)
        grad = loss_grads(pred, gt, LossWeights(0.0, 1.0, 0.0))
        assert np.all(np.isfinite(grad))

        # FD oracle on the raw dice formula, which extends smoothly beyond
        # [0, 1] (clipping at the hard 0/1 values would halve the quotient)
        g = gt.astype(float)

        def dice_raw(p):
            num = 2.0 * float(np.sum(p * g)) + 1.0
            den = float(np.sum(p)) + float(np.sum(g)) + 1.0
            return 1.0 - num / den

        fd = finite_diff_grad(dice_raw, pred)
        assert max_hybrid_error(grad, fd) <= 1e-4

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        weights = LossWeights(1.3, 0.7, 2.0)
        hyper = LossHyper(focal_gamma=2.0, focal_alpha=0.25, dice_smooth=1.0)
        for _ in range(5):
            pred = rng.uniform(0.05, 0.95, (6, 6))
            gt = rng.random((6, 6)) < 0.5
            gt[0, 0], gt[1, 1] = True, False
            grad = loss_grads(pred, gt, weights, hyper)
            fd = finite_diff_grad(
                lambda p: combined_loss(np.clip(p, 0.0, 1.0), gt, weights, hyper)[0], pred
            )
            assert max_hybrid_error(grad, fd) <= 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_grads(np.zeros((2, 2)), np.zeros((3, 3), bool), LossWeights())


def count_distance_calls(monkeypatch):
    """Empty the calling thread's distance memo; the returned list gains one
    entry per signed_distance call."""
    monkeypatch.setattr(losses, "_last_distance", threading.local())
    calls = []

    def counted(gt, _fn=losses.signed_distance):
        calls.append(1)
        return _fn(gt)

    monkeypatch.setattr(losses, "signed_distance", counted)
    return calls


def unmemoized(monkeypatch, fn, *args):
    """``fn(*args)`` with each distance map computed afresh."""
    with monkeypatch.context() as m:
        m.setattr(losses, "_distance", signed_distance)
        return fn(*args)


def loss_step_bytes(pred, gt, weights):
    """combined_loss then loss_grads, as a training step calls them, as bytes."""
    total, components = combined_loss(pred, gt, weights)
    return np.float64(total).tobytes(), components, loss_grads(pred, gt, weights).tobytes()


class TestDistanceMemo:
    def test_one_distance_transform_per_step(self, monkeypatch):
        calls = count_distance_calls(monkeypatch)
        rng = np.random.default_rng(30)
        pred, gt = rng.uniform(0.05, 0.95, (9, 7)), rng.random((9, 7)) < 0.4
        loss_step_bytes(pred, gt, LossWeights())
        assert len(calls) == 1

    def test_other_mask_or_in_place_change_recomputes(self, monkeypatch):
        calls = count_distance_calls(monkeypatch)
        rng = np.random.default_rng(31)
        pred, gt = rng.uniform(0.05, 0.95, (8, 8)), rng.random((8, 8)) < 0.5
        weights = LossWeights(0.0, 0.0, 1.0)
        for step, change in enumerate([None, "other", "in place"], start=1):
            if change == "other":
                gt = ~gt
            elif change == "in place":
                gt[3, 4] = not gt[3, 4]
            assert loss_grads(pred, gt, weights).tobytes() == (signed_distance(gt).phi / 64).tobytes()
            # the repeat is a hit; signed_distance above was called directly
            loss_grads(pred, gt, weights)
            assert len(calls) == step

    def test_step_bytes_equal_the_unmemoized_losses(self, monkeypatch):
        rng = np.random.default_rng(32)
        weights = LossWeights(1.3, 0.7, 2.0)
        masks = [rng.random((10, 12)) < p for p in (0.2, 0.5, 0.8)]
        masks += [np.zeros((10, 12), bool), np.ones((10, 12), bool)]
        masks.append(masks[1].astype(np.uint8))  # a 0/1 mask that is not bool
        for gt in masks + masks[::-1]:
            pred = rng.uniform(0.0, 1.0, gt.shape)
            got = loss_step_bytes(pred, gt, weights)
            assert got == unmemoized(monkeypatch, loss_step_bytes, pred, gt, weights)


class TestDistanceMapType:
    def test_carries_shape_and_flag(self):
        dm = DistanceMap(phi=np.zeros((2, 2)), degenerate=True)
        assert dm.phi.shape == (2, 2) and dm.degenerate


def _bad_map(value):
    pred = np.full((4, 4), 0.5)
    pred[1, 2] = value
    return pred


LOSS_CALLS = {
    "focal_loss": lambda p, gt: focal_loss(p, gt),
    "dice_loss": lambda p, gt: dice_loss(p, gt),
    "boundary_loss": lambda p, gt: boundary_loss(p, signed_distance(gt)),
    "combined_loss": lambda p, gt: combined_loss(p, gt, LossWeights()),
    "loss_grads": lambda p, gt: loss_grads(p, gt, LossWeights()),
}


class TestPredictionRange:
    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf, -0.1, 1.5])
    @pytest.mark.parametrize("name", list(LOSS_CALLS))
    def test_out_of_range_or_nan_rejected(self, name, value):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            LOSS_CALLS[name](_bad_map(value), half_foreground((4, 4)))

    @pytest.mark.parametrize("name", list(LOSS_CALLS))
    def test_closed_interval_accepted(self, name):
        pred = np.tile([0.0, 1.0, -0.0, 0.5], (4, 1))
        result = LOSS_CALLS[name](pred, half_foreground((4, 4)))
        total = result[0] if isinstance(result, tuple) else result  # combined_loss
        assert np.all(np.isfinite(total))
