"""Dense-tensor core: the input contracts, elementwise nonlinearities, and
the central-difference gradient oracle that backstops every differentiable
operation in this package.

Tensors are plain numpy arrays in C (row-major) order, float32 ("single",
the default working precision) or float64 ("double", mandatory inside
gradient checks). Inputs go through :func:`check_finite` so the
no-NaN/no-Inf invariant holds at the boundary. Probability maps, masks,
the two as a scored pair, and VJP upstream cotangents each have one checker.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import erf

__all__ = [
    "NumericalError",
    "check_finite",
    "as_unit_map",
    "as_mask",
    "checked_pair",
    "as_cotangent",
    "same_bits",
    "gelu",
    "gelu_grad",
    "l2_normalize",
    "softmax",
    "softmax_vjp",
    "sigmoid",
    "sigmoid_grad",
    "finite_diff_grad",
]

# l2_normalize maps zero-norm slices to zero vectors via this denominator shift.
EPS_NORM = 1e-12


class NumericalError(Exception):
    """Raised when a non-finite value appears where the contract forbids it."""


def check_finite(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """``x`` itself, unless it holds NaN or +-inf (NumericalError). A NaN
    reaches both the minimum and the maximum, and an infinity one of them,
    so the two reductions test every element without an array-sized mask."""
    values = np.asarray(x)
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise NumericalError(f"{name} contains non-finite values")
    return x


def as_unit_map(values, name: str) -> np.ndarray:
    """The float64 2-D map of an array-like whose values all lie in [0, 1]
    (a probability or saliency map); NaN fails the range check."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {values.shape}")
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError(f"{name} values must lie in [0, 1]")
    return values


def as_mask(mask, name: str) -> np.ndarray:
    """The 2-D boolean mask (nonzero = foreground) of an array-like; a bool
    array comes back as is, not copied."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {mask.shape}")
    return mask


def checked_pair(values, gt, name: str, binary: bool = False):
    """``values`` as a unit map (a mask if ``binary``) and the mask ``gt``,
    checked to share their dimensions."""
    values = as_mask(values, name) if binary else as_unit_map(values, name)
    gt = as_mask(gt, "gt")
    if values.shape != gt.shape:
        raise ValueError(f"dimension mismatch: {values.shape} vs {gt.shape}")
    return values, gt


def as_cotangent(upstream, shape: tuple, dtype) -> np.ndarray:
    """``upstream`` in the working ``dtype`` (uncopied if it is already in
    it), checked to have the output's ``shape``; a non-finite upstream, or one
    that overflows in the cast, raises NumericalError."""
    upstream = np.asarray(upstream)
    if upstream.shape != shape:
        raise ValueError(f"upstream shape {upstream.shape} != output shape {shape}")
    with np.errstate(over="ignore"):  # an overflowing cast is reported below
        return check_finite(upstream.astype(dtype, copy=False), "upstream")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have the same dtype, shape and bytes: unlike ==,
    a NaN matches its own bit pattern and -0 does not match +0. The memos
    that reuse a result for an equal input use it as their key test."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    a, b = (np.ascontiguousarray(v).reshape(-1).view(np.uint8) for v in (a, b))
    return np.array_equal(a, b)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU x * Phi(x) using the Gaussian CDF (not the tanh approximation),
    in the dtype of ``x``: the Python-float constants do not promote it."""
    x = np.asarray(x)
    # two buffers; (x * 0.5) * (1 + erf) in erf's dtype, as the one expression
    # promotes, and a product is the same bits in either order
    cdf = erf(x / math.sqrt(2.0))
    cdf += 1.0
    cdf *= x * 0.5
    return cdf


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of exact GELU: Phi(x) + x * pdf(x), in float64 whatever the dtype
    of ``x``: a float32 exp(-x^2 / 2) would add its own rounding to the
    cotangents, so callers cast the float64 result to their working dtype."""
    x = np.asarray(x, dtype=np.float64)
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return cdf + x * pdf


def l2_normalize(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Scale each slice along ``axis`` to unit Euclidean norm.

    Zero-norm slices come back as zero vectors (the denominator carries a
    1e-12 shift), so cosine similarity against an empty feature patch is 0
    rather than NaN. A finite slice whose sum of squares overflows is first
    divided by its largest magnitude, and its norm then needs no shift; every
    other slice keeps its bytes.
    """
    x = np.asarray(x)
    with np.errstate(over="ignore"):  # an overflowing slice is rescaled below
        norm = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
    out = x / (norm + EPS_NORM)
    huge = np.isinf(norm)
    if huge.any():
        y = x / np.where(huge, np.max(np.abs(x), axis=axis, keepdims=True), 1)
        np.divide(y, np.sqrt(np.sum(y * y, axis=axis, keepdims=True)), out=out, where=huge)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; outputs positive and sum to 1 along ``axis``."""
    x = np.asarray(x)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_vjp(y: np.ndarray, dy: np.ndarray, axis: int = -1) -> np.ndarray:
    """Cotangent through softmax given its output ``y``: y * (dy - <dy, y>)."""
    inner = np.sum(dy * y, axis=axis, keepdims=True)
    return y * (dy - inner)


def sigmoid(x):
    """Numerically stable logistic function; output in (0, 1)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def sigmoid_grad(x) -> float:
    s = sigmoid(np.asarray(x, dtype=float))
    return s * (1.0 - s)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``f`` at ``x``.

    h = 1e-5 balances truncation against rounding for unit-scale double
    inputs; ``x`` is promoted to float64. A non-finite evaluation of ``f``
    aborts with the offending coordinate index.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalError(
                f"finite_diff_grad: non-finite evaluation at coordinate {i}"
            )
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
