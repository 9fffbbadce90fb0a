"""The three-part segmentation loss and the EMA weight balancer.

Focal handles the foreground/background imbalance, smoothed Dice scores
region overlap, and the boundary term integrates prediction mass against
the signed distance to the object edge (negative inside, so mass deep in
the object is rewarded).
"""

import numpy as np

from dsga import (
    ContributionState,
    LossHyper,
    LossWeights,
    boundary_loss,
    combined_loss,
    contributions_from_components,
    ema_normalized,
    ema_update,
    loss_grads,
    signed_distance,
)
from dsga.numerics import finite_diff_grad

rng = np.random.default_rng(2)

gt = np.zeros((16, 16), dtype=bool)
gt[4:12, 5:13] = True

# a blurry prediction: right region, soft edges
from scipy.ndimage import gaussian_filter
pred = np.clip(gaussian_filter(gt.astype(float), sigma=1.5), 0.0, 1.0)

dm = signed_distance(gt)
print(f"signed distance range: {dm.phi.min():+.2f} (deep inside) .. "
      f"{dm.phi.max():+.2f} (far outside)")

weights = LossWeights(1.0, 1.0, 1.0)
hyper = LossHyper(focal_gamma=2.0, focal_alpha=0.25, dice_smooth=1.0)
total, parts = combined_loss(pred, gt, weights, hyper)
print(f"components: focal {parts['focal']:.4f}  dice {parts['dice']:.4f}  "
      f"boundary {parts['boundary']:+.4f}  ->  total {total:+.4f}")
print(f"boundary term alone on a perfect mask: "
      f"{boundary_loss(gt.astype(float), dm):+.4f} (negative = good)")

# analytic gradient, spot-checked against central differences
grad = loss_grads(pred, gt, weights, hyper)
probe = np.clip(pred, 0.05, 0.95)
fd = finite_diff_grad(
    lambda p: combined_loss(np.clip(p, 0.0, 1.0), gt, weights, hyper)[0], probe
)
agrees = np.abs(loss_grads(probe, gt, weights, hyper) - fd).max()
print(f"gradient vs finite differences (interior probe): max gap {agrees:.2e}")
print(f"gradient pushes probabilities up inside the object: "
      f"{(grad[gt] < 0).mean():.0%} of foreground pixels")

# --- EMA weight balancing ---------------------------------------------------
# component magnitudes on very different scales get evened out before the
# moving average, and the applied weights are rescaled to sum 3
print("\nEMA replay on a synthetic three-component trace:")
state = ContributionState()
w = LossWeights(ema_beta=0.9)
trace = [(0.6 * 0.97**t, 0.25, 5.0 + 0.5 * np.sin(t / 3.0)) for t in range(40)]
for t, comps in enumerate(trace):
    c, state = contributions_from_components(comps, state)
    w = ema_update(w, c)
    if t % 10 == 9:
        used = ema_normalized(w)
        print(f"  step {t + 1:2d}: applied weights "
              f"({used.lam1:.3f}, {used.lam2:.3f}, {used.lam3:.3f})  sum = 3")
