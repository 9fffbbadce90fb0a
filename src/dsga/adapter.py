"""Bottleneck graph adapter: similarity-graph construction, adaptive local
feature aggregation, and the residual forward pass, with analytic gradients
for every learnable parameter.

Pipeline order (the feature-fusion matrix is applied after graph
propagation, and pooling operates on the post-fusion hidden features
reshaped to [B, H, W, D_hidden]):

    Z   = GELU(flatten(x) @ down + b_down)
    S   = tanh(cos_sim(Z) / sqrt(D_hidden))
    A   = row-normalized top-k graph from S with rank weights
    F   = (A @ Z) @ W_fusion
    Z'  = gated_residual(F, hybrid_pool(dual_pool(F)))
    out = unflatten(dropout(Z') @ up + b_up) + x

S is only a selection key: the edge weights depend on rank alone, so the
forward pass never holds S whole. It computes the cosine products one block
of rows at a time (about ``_BLOCK_ELEMS`` entries, so O(rows * N) memory
rather than O(N^2)), keeps each row's k largest keys, and drops the block.
The columns fall into ``_GROUPS`` groups by index modulo, and the block is
read once for its group maxima: tanh is monotone, so their keys give the
k-th largest group key L, a lower bound on the k-th largest key, and only
groups keyed at or above L are keyed and sorted (the whole block when ties
at L span most groups). Fewer than k groups hold keys above L, at most
(k - 1) * ceil(N / groups) per row; when ties at L (flat regions) admit
more, each row keeps those and its k lowest-index keys equal to L, by one
cut that both ways share. Neighbors are in descending similarity, ties by
lowest index: a stable sort of the row.

One private runner computes the forward and returns, beside the output and
the graph, its pullback: a closure over the forward's intermediates that
maps a cotangent on the output to the cotangents of x and every parameter.
dsga_forward holds the pullback for the calling thread, with the key of its
reuse, as the arguments of a weakref finalizer on its output; dsga_vjp
states when it applies the pullback instead of rerunning the forward.

Precision: every stage from the down-projection to the up-projection (Z, S,
propagation, fusion, both pools, the gated residual, dropout) runs in the
dtype of the down-projection's output, so float32 input with float32 params
stays float32 throughout and only ``out`` is cast back to x's dtype. The
selection key is S in that dtype; widening it to float64 would be exact and
keep its order, so it would pick the same neighbors. The backward runs in
the same working dtype and returns its cotangents in it. The graph's rank
weights stay float64 for the rank-weight softmax VJP, which also runs in
float64; propagate and the backward cast them to the working dtype where
they use them.

Discrete selections (top-k membership, the chosen neighbor count k, the
floor inside adaptive_k, max-pool argmax) are treated as constants of the
forward pass: they receive zero gradient.
"""

from __future__ import annotations

import math
import numbers
import threading
import weakref
from dataclasses import astuple, dataclass, fields, replace

import numpy as np
from numpy import matmul  # bound here so a tracer can wrap adapter.matmul
from scipy.sparse import csr_array

from .numerics import (
    NumericalError,
    as_cotangent,
    check_finite,
    gelu,
    gelu_grad,
    l2_normalize,
    same_bits,
    sigmoid,
    sigmoid_grad,
    softmax,
    softmax_vjp,
)

__all__ = [
    "DsgaConfig",
    "DsgaParams",
    "check_params",
    "SimilarityGraph",
    "similarity_matrix",
    "init_rank_weights",
    "rank_weights",
    "adaptive_k",
    "build_graph",
    "propagate",
    "dual_pool",
    "hybrid_pool",
    "gated_residual",
    "dropout_mask",
    "dsga_forward",
    "dsga_vjp",
    "parameter_count",
    "init_dsga_params",
]

# Similarity entries per row block of the streamed top-k graph (8 MB of
# float32 keys, 16 MB of float64); the block holds
# max(2, _BLOCK_ELEMS // (B * N)) rows.
_BLOCK_ELEMS = 2**21
# Column groups of the top-k candidate bound (at least k + 1, at most N): more
# groups give a tighter bound, fewer give a cheaper group-maximum pass.
_GROUPS = 256
# Candidate groups are gathered while under 1/_GATHER_SHARE of a block's columns.
_GATHER_SHARE = 4
# Exponent p of the polynomial-decay rank logits that init_dsga_params draws.
RANK_DECAY = 2.0


@dataclass
class DsgaConfig:
    """Adapter hyperparameters. ``d_hidden = floor(reduction_ratio * embed_dim)``."""

    embed_dim: int
    reduction_ratio: float = 0.25
    k_max: int = 8
    dropout_prob: float = 0.1
    mode: str = "eval"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.embed_dim >= 1:
            raise ValueError(f"embed_dim must be positive, got {self.embed_dim}")
        if not 0.0 < self.reduction_ratio <= 1.0:
            raise ValueError(f"reduction_ratio must be in (0, 1], got {self.reduction_ratio}")
        if not self.k_max >= 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
        if self.mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {self.mode!r}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.d_hidden < 1:
            raise ValueError(
                f"floor(reduction_ratio * embed_dim) = {self.d_hidden} must be >= 1"
            )

    @property
    def d_hidden(self) -> int:
        return int(math.floor(self.reduction_ratio * self.embed_dim))


@dataclass
class DsgaParams:
    """Learnable state: down/up projections (with biases), the feature-fusion
    matrix, pre-softmax rank-weight logits, and the three scalar gates."""

    down_w: np.ndarray  # [D, D_hidden]
    down_b: np.ndarray  # [D_hidden]
    up_w: np.ndarray    # [D_hidden, D]
    up_b: np.ndarray    # [D]
    fusion_w: np.ndarray  # [D_hidden, D_hidden]
    rank_logits: np.ndarray  # [K_max]
    theta_k: float
    w_p_raw: float
    w_n_raw: float

    def named_arrays(self):
        """The parameter arrays by field name, in field order: all but the gates."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _GATES}


_GATES = ("theta_k", "w_p_raw", "w_n_raw")  # the scalar fields of DsgaParams


def _param_shapes(cfg: DsgaConfig) -> dict:
    """The shape of each DsgaParams array under ``cfg``, in field order."""
    d, dh = cfg.embed_dim, cfg.d_hidden
    return {"down_w": (d, dh), "down_b": (dh,), "up_w": (dh, d), "up_b": (d,),
            "fusion_w": (dh, dh), "rank_logits": (cfg.k_max,)}


def check_params(params: DsgaParams, cfg: DsgaConfig) -> None:
    """Raise ValueError unless ``params`` fits ``cfg``: down_w [D, Dh],
    down_b [Dh], up_w [Dh, D], up_b [D], fusion_w [Dh, Dh] and rank_logits
    [k_max] are numpy arrays of one floating dtype, and the three gates are
    finite real numbers. O(1): no array element is read."""
    shapes = _param_shapes(cfg)
    arrays = params.named_arrays()
    for name, value in arrays.items():
        if not isinstance(value, np.ndarray):
            raise ValueError(f"{name} must be a numpy array, got {type(value).__name__}")
        if value.shape != shapes[name]:
            raise ValueError(f"{name} must have shape {list(shapes[name])}, got {list(value.shape)}")
        if not np.issubdtype(value.dtype, np.floating):
            raise ValueError(f"{name} must be floating point, got {value.dtype}")
    dtypes = [value.dtype for value in arrays.values()]
    common = max(dtypes, key=dtypes.count)
    for name, value in arrays.items():
        if value.dtype != common:
            raise ValueError(f"{name} is {value.dtype} but most parameter arrays are {common}: "
                             "they share one dtype")
    for name in _GATES:
        value = getattr(params, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {type(value).__name__}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def init_rank_weights(k_max: int, p: float) -> np.ndarray:
    """Polynomial-decay logits: 1 - (r / (k_max - 1))^p for ranks r = 0..k_max-1."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if k_max == 1:
        return np.array([1.0])
    r = np.arange(k_max, dtype=np.float64)
    return 1.0 - (r / (k_max - 1)) ** p


def rank_weights(raw: np.ndarray) -> np.ndarray:
    """Softmax over the rank logits; positive, sums to 1, one weight per rank."""
    return softmax(np.asarray(raw, dtype=np.float64))


def adaptive_k(theta_k: float, k_max: int) -> int:
    """k = min(K_max, max(1, floor(sigmoid(theta) * (K_max - 1) + 1)))."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k = int(math.floor(sigmoid(theta_k) * (k_max - 1) + 1.0))
    return min(k_max, max(1, k))


def init_theta_k(k_max: int) -> float:
    return math.log(k_max / 2.0)


def init_dsga_params(cfg: DsgaConfig, precision: str = "single") -> DsgaParams:
    """Seeded float32 (``precision="single"``) or float64 (``"double"``)
    initialization; up-projection scale matches the down one (callers zero it
    out to start from the identity map), rank logits decay with ``RANK_DECAY``."""
    if precision not in ("single", "double"):
        raise ValueError(f"precision must be 'single' or 'double', got {precision!r}")
    dtype = np.float32 if precision == "single" else np.float64
    rng = np.random.default_rng(cfg.seed)
    d, dh = cfg.embed_dim, cfg.d_hidden

    def linear(fan_in, shape):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return DsgaParams(
        down_w=linear(d, (d, dh)),
        down_b=linear(d, (dh,)),
        up_w=linear(dh, (dh, d)),
        up_b=linear(dh, (d,)),
        fusion_w=linear(dh, (dh, dh)),
        rank_logits=init_rank_weights(cfg.k_max, RANK_DECAY).astype(dtype),
        theta_k=init_theta_k(cfg.k_max),
        w_p_raw=0.0,
        w_n_raw=0.0,
    )


@dataclass
class SimilarityGraph:
    """Per-batch-element sparse top-k adjacency.

    ``neighbors[b, i]`` holds the k neighbor indices of node i sorted by
    descending similarity (ties broken by lowest index, node i excluded);
    ``edge_weights`` are the row-normalized rank weights and ``self_weights``
    the normalized self-connection, so each row sums to 1.
    """

    neighbors: np.ndarray     # [B, N, k] int
    edge_weights: np.ndarray  # [B, N, k]
    self_weights: np.ndarray  # [B, N]
    k: int

    @property
    def batch(self) -> int:
        return self.neighbors.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.neighbors.shape[1]

    def to_dense(self) -> np.ndarray:
        """Materialize the [B, N, N] row-stochastic adjacency matrix."""
        b, n, k = self.neighbors.shape
        dense = np.zeros((b, n, n), dtype=self.edge_weights.dtype)
        bi = np.arange(b)[:, None, None]
        ni = np.arange(n)[None, :, None]
        if k > 0:
            dense[bi, ni, self.neighbors] = self.edge_weights
        dense[np.arange(b)[:, None], np.arange(n)[None, :], np.arange(n)[None, :]] = (
            self.self_weights
        )
        return dense

    def as_json_obj(self):
        out = []
        for b in range(self.batch):
            nodes = []
            for i in range(self.num_nodes):
                nodes.append(
                    {
                        "node": i,
                        "self_weight": float(self.self_weights[b, i]),
                        "neighbors": [
                            {
                                "index": int(self.neighbors[b, i, r]),
                                "rank": r,
                                "weight": float(self.edge_weights[b, i, r]),
                            }
                            for r in range(self.k)
                        ],
                    }
                )
            out.append(nodes)
        return out


def _tanh_key(s: np.ndarray, scale: float) -> np.ndarray:
    """The similarity tanh(scale * s) of the cosine products ``s``, in place."""
    s *= scale
    return np.tanh(s, out=s)


def _unit_rows(z: np.ndarray):
    """The rows of [B, N, D] ``z`` L2-normalized, and their [B, D, N]
    transpose, contiguous: zh @ zh.T itself goes to SYRK, about twice as slow."""
    zh = l2_normalize(z, axis=-1)
    return zh, np.ascontiguousarray(zh.transpose(0, 2, 1))


def similarity_matrix(z: np.ndarray) -> np.ndarray:
    """Temperature-controlled cosine similarity: tanh(<z_i, z_j> / sqrt(D_hidden))
    on row-wise L2-normalized features. Symmetric, entries in (-1, 1)."""
    z = np.asarray(z)
    if z.ndim != 3:
        raise ValueError(f"expected [B, N, D_hidden], got shape {z.shape}")
    return _tanh_key(matmul(*_unit_rows(z)), 1.0 / math.sqrt(z.shape[-1]))


def _clamp_k(k: int, n: int, weights: np.ndarray) -> int:
    k_eff = max(0, min(int(k), n - 1))
    if k_eff > weights.size:
        raise ValueError(f"k={k_eff} exceeds available rank weights ({weights.size})")
    return k_eff


def _top_k_rows(s: np.ndarray, row0: int, k: int, key=None) -> np.ndarray:
    """Neighbor indices [B, R, k] of the rows row0..row0+R-1 of ``s`` (a float,
    C-contiguous block, overwritten) by key(s), or s when key is None: descending
    key, ties by lowest index, the row's own node excluded. ``key`` maps in place,
    elementwise and non-decreasing, so it commutes with a maximum. NaN or +inf
    in s off the diagonal raises: it reaches its group's maximum (a NaN on
    the diagonal, or -inf, does not). Widening the key to float64 is exact
    and keeps its order, so the selection is the same in the key's dtype."""
    b, r, n = s.shape
    if k == 0:
        return np.zeros((b, r, 0), dtype=np.intp)
    key = key or (lambda v: v)
    local = np.arange(r)
    s[:, local, row0 + local] = -np.inf
    # column j is in group j % m, and k < m; the k-th largest group key L is
    # at most the k-th largest key (k distinct entries reach it), so every
    # entry of the top k or tied with its last one is in a group keyed >= L
    m = min(n, max(_GROUPS, k + 1))
    whole = n - n % m
    c = -(-n // m)  # columns per group, at most
    gkey = s[..., :whole].reshape(b, r, -1, m).max(axis=2)
    np.maximum(gkey[..., : n - whole], s[..., whole:], out=gkey[..., : n - whole])
    # the masked self entry can leave a group at -inf, so only the top is checked
    if not gkey.max() < np.inf:
        raise NumericalError("similarity contains non-finite values")
    # key(-inf) is at most every other key, so such a group still ranks last
    bound = np.partition(key(gkey), m - k, axis=-1)[..., m - k, None]
    groups = gkey >= bound
    # fewer than k groups hold entries above L, at most (k-1)*ceil(n/m) per
    # row; with ties at L making more, keep those and each row's first k ties
    cap = b * r * (k + (k - 1) * c)
    cand = None  # the candidates as a block mask, for the tie cut below
    if np.count_nonzero(groups) * c * _GATHER_SHARE < b * r * n:
        # the columns t*m + g of each (row, group g) keyed >= L, keyed alone;
        # the candidates' keys are written back over their similarities
        rows = s.reshape(b * r, n)
        p = np.flatnonzero(groups)
        row, g = p // m, p % m
        vals = np.empty((p.size, c), dtype=s.dtype)
        vals[:, : whole // m] = rows[:, :whole].reshape(b * r, -1, m)[row, :, g]
        if whole < n:  # the last t holds the columns whole + g, g < n - whole
            vals[:, -1] = rows[row, np.minimum(whole + g, n - 1)]
        hit = np.flatnonzero(key(vals) >= bound.reshape(-1)[row, None])
        row, col = row[hit // c], g[hit // c] + m * (hit % c)
        ok = (col < n) & (col != row0 + row % r)  # not past the end, nor self
        at = row[ok] * n + col[ok]
        s.reshape(-1)[at] = vals.reshape(-1)[hit[ok]]
        if at.size > cap:  # not s >= bound: s holds keys at the candidates only
            cand = np.zeros(s.shape, dtype=bool)
            cand.reshape(-1)[at] = True
        else:
            flat = np.sort(at)
    else:  # ties at L in most groups: the key of the whole block
        key(s)[:, local, row0 + local] = -np.inf
        cand = s >= bound
    if cand is not None:
        if np.count_nonzero(cand) > cap:
            ties = cand & (s == bound)  # the candidates equal to L
            cand ^= ties
            each_row = np.arange(b)[:, None], local
            for _ in range(k):  # argmax stops at each row's first remaining tie
                first = (*each_row, ties.argmax(axis=-1))
                cand[first] |= ties[first]
                ties[first] = False
        flat = np.flatnonzero(cand)
    # flat indices ascend, so a stable sort by (row, -key) orders each row
    # as a stable sort of the full row does
    row = flat // n
    flat = flat[np.lexsort((-s.reshape(-1)[flat], row))]
    count = np.bincount(row, minlength=b * r)
    start = np.cumsum(count) - count
    return (flat[start[:, None] + np.arange(k)] % n).reshape(b, r, k)


def _rank_graph(neighbors: np.ndarray, weights: np.ndarray) -> SimilarityGraph:
    """Attach the row-normalized rank weights to [B, N, k] neighbor lists."""
    b, n, k = neighbors.shape
    used = weights[:k]
    row_sum = 1.0 + float(used.sum())
    return SimilarityGraph(
        neighbors=neighbors,
        edge_weights=np.broadcast_to(used / row_sum, (b, n, k)).copy(),
        self_weights=np.full((b, n), 1.0 / row_sum),
        k=k,
    )


def build_graph(s: np.ndarray, k: int, weights: np.ndarray) -> SimilarityGraph:
    """Top-k neighborhood selection plus rank-weighted, row-normalized adjacency.

    Each row keeps its k largest similarities, ordered by descending value
    with ties broken by lowest index (the order of a stable sort). They are
    sorted out of the entries at or above the k-th largest maximum over
    column groups, with a dense tie at that bound cut to its first k.
    Self-connections carry pre-normalization weight 1 and never compete in
    the top-k. k is clamped to N - 1 when fewer candidates exist (N = 1
    yields the pure self-loop graph). Non-finite similarities raise
    NumericalError. The forward pass runs the same selection over blocks of
    rows of S without building it; here one block covers all rows.
    """
    s = np.asarray(s)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError(f"expected square [B, N, N] similarities, got {s.shape}")
    weights = np.asarray(weights, dtype=np.float64)
    k_eff = _clamp_k(k, s.shape[1], weights)
    # checked whole: the selection sees neither the diagonal nor an -inf;
    # a float copy in s's own precision (integer inputs promote to float)
    key = check_finite(s, "similarity").astype(np.promote_types(s.dtype, np.float32))
    return _rank_graph(_top_k_rows(key, 0, k_eff), weights)


def _streamed_graph(z: np.ndarray, k: int, weights: np.ndarray) -> SimilarityGraph:
    """build_graph(similarity_matrix(z), k, weights) without the N x N matrix:
    similarities are computed and selected one block of rows at a time."""
    b, n, dh = z.shape
    k_eff = _clamp_k(k, n, weights)
    zh, zt = _unit_rows(z)
    scale = 1.0 / math.sqrt(dh)
    neighbors = np.empty((b, n, k_eff), dtype=np.intp)
    rows = max(2, _BLOCK_ELEMS // max(b * n, 1))
    for r0 in range(0, max(n - 1, 1), rows):
        # a lone last row joins this block: a one-row product takes another
        # BLAS path (gemv) whose rounding can differ from the full matrix's
        r1 = r0 + rows if r0 + rows < n - 1 else n
        neighbors[:, r0:r1] = _top_k_rows(matmul(zh[:, r0:r1], zt), r0, k_eff,
                                          lambda v: _tanh_key(v, scale))
    return _rank_graph(neighbors, weights)


def _edge_matrix(graph: SimilarityGraph, dtype) -> csr_array:
    """The graph's neighbor weights as a block-diagonal [B*N, B*N] CSR matrix
    in ``dtype``: row b*N + i holds A_{i, nbr(i, r)} at column b*N + nbr(i, r),
    stored in rank order."""
    b, n, k = graph.neighbors.shape
    rows = np.arange(b * n * k + 1, step=k)
    cols = (np.arange(b)[:, None, None] * n + graph.neighbors).reshape(-1)
    weights = graph.edge_weights.reshape(-1).astype(dtype, copy=False)
    return csr_array((weights, cols, rows), shape=(b * n, b * n))


def propagate(graph: SimilarityGraph, z: np.ndarray) -> np.ndarray:
    """Sparse aggregation out_i = A_ii z_i + sum_r A_{i,nbr(i,r)} z_{nbr(i,r)}."""
    z = np.asarray(z)
    b, n, dh = z.shape
    if graph.batch != b or graph.num_nodes != n:
        raise ValueError(
            f"graph is {graph.batch}x{graph.num_nodes} nodes, features are {b}x{n}"
        )
    # the graph's weights are float64; cast them at use so the sum stays in z's dtype
    out = graph.self_weights.astype(z.dtype, copy=False)[..., None] * z
    if graph.k > 0:
        # the product adds each row's entries in rank order from +0: the same
        # sums as reducing a [B, N, k, Dh] gather over k, without holding it
        out += (_edge_matrix(graph, z.dtype) @ z.reshape(b * n, dh)).reshape(b, n, dh)
    return out


_OFFSETS = [(dy, dx) for dy in range(3) for dx in range(3)]


def _reflect_pad(zp: np.ndarray) -> np.ndarray:
    """[B, H, W, C] ``zp`` padded by 1 on H and W by reflection (a side of 1
    repeats), in C order."""
    return np.pad(zp, ((0, 0), (1, 1), (1, 1), (0, 0)), mode="reflect")


def dual_pool(zp: np.ndarray):
    """Parallel 3x3 max and average pooling, stride 1, reflective padding of 1;
    output shapes equal the input shape."""
    zp = np.asarray(zp)
    if zp.ndim != 4:
        raise ValueError(f"expected [B, H, W, C], got shape {zp.shape}")
    _, h, w, _ = zp.shape
    # C order, so that sums over the outputs (the gate cotangents) add in order
    padded = _reflect_pad(zp)
    # the max 3 wide, then 3 tall: of equal values (-0, +0) np.maximum keeps
    # its second, so this is the 9-offset running max's bits
    rows = np.maximum(padded[:, :, :w], padded[:, :, 1 : w + 1])
    np.maximum(rows, padded[:, :, 2:], out=rows)
    mx = np.maximum(rows[:, :h], rows[:, 1 : h + 1])
    np.maximum(mx, rows[:, 2:], out=mx)
    # the sum over the offsets in order from +0, as a reduction adds, so all
    # -0 windows average to +0
    acc = np.zeros_like(mx)
    for dy, dx in _OFFSETS:
        acc += padded[:, dy : dy + h, dx : dx + w]
    return mx, acc / 9


def _dual_pool_vjp(dmx, dav, zp, mx):
    """Adjoint of the dual pool of ``zp``, whose max is ``mx``, in the
    cotangents' dtype. The max's cotangent goes to the first offset whose
    window equals the max: for finite values, the first-index argmax."""
    b, h, w, c = zp.shape
    padded = _reflect_pad(zp)
    dpadded = np.zeros((b, h + 2, w + 2, c), dtype=dmx.dtype)
    dav9 = dav / 9.0
    term = np.empty_like(dmx)
    hit = np.empty(mx.shape, dtype=bool)
    free = np.ones(mx.shape, dtype=bool)  # no earlier offset reached the max
    for dy, dx in _OFFSETS:
        np.equal(padded[:, dy : dy + h, dx : dx + w], mx, out=hit)
        hit &= free
        free ^= hit
        # hit * dmx is dmx or a signed zero; a -0 term adds the same bits as
        # +0, because the +0-started accumulator never becomes -0
        np.multiply(hit, dmx, out=term)
        term += dav9
        dpadded[:, dy : dy + h, dx : dx + w] += term
    return _fold_reflect(_fold_reflect(dpadded, 1), 2)


def _fold_reflect(d: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of pad-1 reflection along ``axis``: each padded position adds
    into its source, so 1 and n - 2 pick up the pads (all three positions
    fold onto 0 when n = 1)."""
    d = np.moveaxis(d, axis, 0)
    n = d.shape[0] - 2
    if n == 1:
        out = (d[0] + d[1] + d[2])[None]
    else:
        out = d[1 : n + 1].copy()
        out[1] += d[0]
        out[n - 2] += d[n + 1]
    return np.moveaxis(out, 0, axis)


def hybrid_pool(max_t: np.ndarray, avg_t: np.ndarray, w_p_raw: float) -> np.ndarray:
    """Learnable blend sigmoid(w_p) * max + (1 - sigmoid(w_p)) * avg."""
    if np.shape(max_t) != np.shape(avg_t):
        raise ValueError(f"pooled shapes differ: {np.shape(max_t)} vs {np.shape(avg_t)}")
    sp = sigmoid(w_p_raw)
    return sp * np.asarray(max_t) + (1.0 - sp) * np.asarray(avg_t)


def gated_residual(zp: np.ndarray, pooled: np.ndarray, w_n_raw: float) -> np.ndarray:
    """out = (1 - g) * zp + g * pooled with g = 0.5 * sigmoid(w_n_raw) in (0, 0.5),
    so at least half of the ungated features always survive."""
    if np.shape(zp) != np.shape(pooled):
        raise ValueError(f"shapes differ: {np.shape(zp)} vs {np.shape(pooled)}")
    g = 0.5 * sigmoid(w_n_raw)
    return (1.0 - g) * np.asarray(zp) + g * np.asarray(pooled)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def dropout_mask(n: int, prob: float, seed: int, stream: int = 0) -> np.ndarray:
    """Inverted-dropout scale factors from a counter-based generator.

    Element i keeps iff hash(seed, stream, i) maps above prob; kept elements
    are scaled by 1/(1-prob). Independent of thread schedule by construction.
    """
    if prob == 0.0:
        return np.ones(n)
    base = np.full(n, np.uint64(seed & 0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _mix64(base + np.uint64(stream) * np.uint64(0xD1B54A32D192ED03))
        h = _mix64(base + np.arange(n, dtype=np.uint64))
    u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return np.where(u >= prob, 1.0 / (1.0 - prob), 0.0)


def _checked(x, params: DsgaParams, cfg: DsgaConfig) -> np.ndarray:
    """x as a non-empty, finite [B, H, W, embed_dim] array; params are
    checked against cfg too (check_params)."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected [B, H, W, D], got shape {x.shape}")
    b, h, w, d = x.shape
    if d != cfg.embed_dim:
        raise ValueError(f"input channel dim {d} != configured embed_dim {cfg.embed_dim}")
    if b == 0:
        raise ValueError("empty batch: B = 0")
    if h == 0 or w == 0:
        raise ValueError(f"empty token grid: H = {h}, W = {w}")
    check_params(params, cfg)
    return check_finite(x, "input")


def _down(x: np.ndarray, params: DsgaParams) -> np.ndarray:
    """The down-projection pre = flatten(x) @ down_w + down_b, [B, N, D_hidden]."""
    b, h, w, d = x.shape
    # a strided x is copied by the reshape; the copy lives only for this product
    pre = matmul(x.reshape(b, h * w, d), params.down_w)
    pre += params.down_b
    return check_finite(pre, "down-projection")


def _run(x: np.ndarray, params: DsgaParams, cfg: DsgaConfig, pre: np.ndarray):
    """The adapter forward from its down-projection ``pre``: (out, graph,
    pullback). ``pullback(upstream, x, params)`` takes a cotangent on ``out``
    in the working dtype and returns (dx, grads). It closes over the
    forward's intermediates, which live as long as it does, and reads x and
    the parameters only from its own arguments: what it closes over is a
    function of pre, fusion_w, rank_logits, the gates, cfg and x's shape,
    which dsga_vjp compares before it reuses a held pullback."""
    b, h, w, d = x.shape
    n, dh = h * w, cfg.d_hidden
    z = gelu(pre)
    w_rank = rank_weights(params.rank_logits)
    graph = _streamed_graph(z, adaptive_k(params.theta_k, cfg.k_max), w_rank)
    g = propagate(graph, z)
    fr = check_finite(matmul(g, params.fusion_w), "fusion").reshape(b, h, w, dh)
    mx, av = dual_pool(fr)
    pooled = hybrid_pool(mx, av, params.w_p_raw)
    zp = gated_residual(fr, pooled, params.w_n_raw)

    dropped = zp.reshape(b, n, dh)
    scale = None
    if cfg.mode == "train" and cfg.dropout_prob > 0.0:
        scale = dropout_mask(dropped.size, cfg.dropout_prob, cfg.seed).reshape(dropped.shape)
        # the float64 scale would widen the hidden path; 1/(1-p) rounds once to its dtype
        dropped = dropped * scale.astype(dropped.dtype, copy=False)
    # bias and residual are added in place: no further [B, N, D] temporaries
    delta = matmul(dropped, params.up_w)
    delta += params.up_b
    # params of the other precision set the hidden dtype; the residual sum stays in x's
    out = delta.reshape(b, h, w, d).astype(x.dtype, copy=False)
    out += x
    check_finite(out, "up-projection")

    def pullback(upstream, x, params):
        dt = upstream.dtype
        uf = upstream.reshape(b * n, d)

        # up-projection; weight gradients are GEMMs over the flattened [B*N, .] rows
        d_up_w = dropped.reshape(b * n, dh).T @ uf
        d_up_b = uf.sum(axis=0)
        d_zp = matmul(uf, params.up_w.T).reshape(b, h, w, dh)
        if scale is not None:
            d_zp *= scale.reshape(d_zp.shape).astype(dt, copy=False)

        # gated residual
        g_n = 0.5 * sigmoid(params.w_n_raw)
        d_fr = (1.0 - g_n) * d_zp
        d_pooled = g_n * d_zp
        d_w_n = float(np.sum((pooled - fr) * d_zp)) * 0.5 * sigmoid_grad(params.w_n_raw)

        # hybrid pooling
        sp = sigmoid(params.w_p_raw)
        d_mx = sp * d_pooled
        d_av = (1.0 - sp) * d_pooled
        d_w_p = float(np.sum((mx - av) * d_pooled)) * sigmoid_grad(params.w_p_raw)

        # dual pooling (argmax fixed)
        d_fr += _dual_pool_vjp(d_mx, d_av, fr, mx)
        d_f = d_fr.reshape(b * n, dh)

        # fusion
        d_fusion_w = g.reshape(b * n, dh).T @ d_f
        d_g = matmul(d_f, params.fusion_w.T).reshape(b, n, dh)

        # graph propagation: out_i = A_ii z_i + sum_r w_r/s * z_nbr; the graph's
        # float64 weights are cast at use, as propagate casts them
        d_z = graph.self_weights.astype(dt, copy=False)[..., None] * d_g
        d_w_rank = np.zeros_like(w_rank)
        if graph.k > 0:
            # scatter the cotangent back to neighbor features: d_z += E^T d_g
            d_z += (_edge_matrix(graph, dt).T @ d_g.reshape(b * n, dh)).reshape(b, n, dh)
            # cotangent on the normalized adjacency values, one rank at a time
            zw = z.astype(d_g.dtype, copy=False)
            bi = np.arange(b)[:, None]
            d_edge = np.empty((b, n, graph.k))
            for r in range(graph.k):
                d_edge[..., r] = np.einsum("bnh,bnh->bn", zw[bi, graph.neighbors[..., r]], d_g)
            d_self = np.einsum("bnh,bnh->bn", zw, d_g)
            # A_edge[r] = w_r / s and A_self = 1 / s with s = 1 + sum(w[:k])
            row_sum = 1.0 + float(w_rank[: graph.k].sum())
            d_row_sum = -(
                float(np.sum(d_edge * graph.edge_weights))
                + float(np.sum(d_self * graph.self_weights))
            ) / row_sum
            d_w_rank[: graph.k] = d_edge.sum(axis=(0, 1)) / row_sum + d_row_sum
        d_rank_logits = softmax_vjp(w_rank, d_w_rank).astype(dt, copy=False)

        # activation and down-projection; gelu_grad evaluates in float64
        d_pre = (d_z * gelu_grad(pre).astype(dt, copy=False)).reshape(b * n, dh)
        xf = x.reshape(b * n, d).astype(d_pre.dtype, copy=False)
        dx = matmul(d_pre, params.down_w.T).reshape(b, h, w, d)
        dx += upstream  # the residual; the caller's upstream is never written
        return dx, DsgaParams(
            down_w=xf.T @ d_pre,
            down_b=d_pre.sum(axis=0),
            up_w=d_up_w,
            up_b=d_up_b,
            fusion_w=d_fusion_w,
            rank_logits=d_rank_logits,
            theta_k=0.0,
            w_p_raw=d_w_p,
            w_n_raw=d_w_n,
        )

    return out, graph, pullback


# .held: the finalizer on the output of the calling thread's last dsga_forward;
# its arguments, (pullback, pre, scalars, arrays), live as long as that output
_thread = threading.local()
# the parameter arrays the reuse key holds copies of (down_w and down_b enter
# it through pre)
_KEY_ARRAYS = ("up_w", "up_b", "fusion_w", "rank_logits")


def _key_scalars(x: np.ndarray, params: DsgaParams, cfg: DsgaConfig) -> tuple:
    """x's shape, every config field and the three gates, compared by value
    (a gate of -0 and one of +0 give the same forward)."""
    return x.shape, astuple(cfg), params.theta_k, params.w_p_raw, params.w_n_raw


def _take_held():
    """Empty the calling thread's slot and return the arguments of the
    finalizer it held, or None when there is none or its output is gone."""
    finalizer, _thread.held = getattr(_thread, "held", None), None
    detached = finalizer.detach() if finalizer else None  # (out, func, args, kwargs)
    return detached and detached[2]


def _key_matches(held, pre, x, params: DsgaParams, cfg: DsgaConfig) -> bool:
    """Whether the held forward's key equals this call's, bit for bit."""
    _, held_pre, scalars, arrays = held
    return (scalars == _key_scalars(x, params, cfg)
            and all(same_bits(getattr(params, k), v) for k, v in zip(_KEY_ARRAYS, arrays))
            and same_bits(pre, held_pre))


def dsga_forward(x, params: DsgaParams, cfg: DsgaConfig):
    """Residual adapter forward pass; returns (output, similarity graph).

    Output shape equals input shape; with a zero up-projection the map is
    the identity bit-for-bit in eval mode. The forward's pullback is held
    for this thread's dsga_vjp while the output lives (see dsga_vjp); the
    graph returned is the caller's own copy.
    """
    _take_held()  # the last forward's state is freed before this one's is made
    x = _checked(x, params, cfg)
    pre = _down(x, params)
    out, graph, pullback = _run(x, params, cfg, pre)
    arrays = tuple(getattr(params, name).copy() for name in _KEY_ARRAYS)
    _thread.held = weakref.finalize(out, lambda *held: None,
                                    pullback, pre, _key_scalars(x, params, cfg), arrays)
    return out, replace(graph, neighbors=graph.neighbors.copy(),
                        edge_weights=graph.edge_weights.copy(),
                        self_weights=graph.self_weights.copy())


def dsga_vjp(x, params: DsgaParams, cfg: DsgaConfig, upstream):
    """Cotangents of sum(upstream * dsga_forward(x)) wrt x and all parameters.

    The cotangents come back in the forward's working dtype, the hidden dtype
    result_type(x, down_w, down_b): float32 input with float32 params gives
    float32 cotangents, float64 gives float64. The upstream is cast to that
    dtype once, before any forward work; a non-finite upstream, or one that
    overflows in the cast, raises NumericalError. The rank-weight softmax VJP
    runs in float64 and its cotangent is cast at the end.

    The pullback of this thread's last dsga_forward is applied to the
    upstream when that forward's output is still alive and the key matches
    bit for bit: the down-projection, recomputed here from x, down_w and
    down_b; up_w, up_b, fusion_w and rank_logits against copies taken at the
    forward; the gates, every config field and x's shape by value. The
    pullback reads x and the parameters from this call's arguments. The held
    forward is dropped when its output dies (on any thread) or at this
    thread's next dsga_forward or dsga_vjp, so it is used at most once.
    Otherwise the forward is rerun on x; in train mode the rerun draws the
    same dropout mask (a pure function of size, probability and seed).
    Either way the result is the same bytes. theta_k sits behind the floor
    in adaptive_k and therefore gets zero gradient; graph structure is held
    fixed (top-k membership does not differentiate).
    """
    held = _take_held()
    x = _checked(x, params, cfg)
    dt = np.result_type(x, params.down_w, params.down_b)
    upstream = as_cotangent(upstream, x.shape, dt)
    pre = _down(x, params)
    pullback = held[0] if held and _key_matches(held, pre, x, params, cfg) else None
    held = None  # freed before a rerun allocates
    if pullback is None:
        pullback = _run(x, params, cfg, pre)[2]
    return pullback(upstream, x, params)


def parameter_count(cfg: DsgaConfig, num_layers: int) -> int:
    """Trainable scalars for a stack of adapters: per layer, the elements of
    the arrays check_params enforces plus the gates,
    D*Dh + Dh + Dh*D + D + Dh^2 + K_max + 3."""
    if num_layers < 0:
        raise ValueError(f"num_layers must be >= 0, got {num_layers}")
    per_layer = sum(map(math.prod, _param_shapes(cfg).values())) + len(_GATES)
    return num_layers * per_layer
