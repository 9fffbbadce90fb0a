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
forward pass never holds S whole. It computes S one block of rows at a time
(about ``_BLOCK_ELEMS`` entries, so O(rows * N) memory rather than O(N^2)),
keeps each row's k largest entries, and drops the block. The columns fall
into ``_GROUPS`` groups by index modulo; the k-th largest group maximum is a
lower bound on the k-th largest entry, so only the few entries at or above
it are sorted. A block where the bound admits more than 30% of the entries
(dense ties) is selected by a partition of each row instead. Neighbors are
ordered by descending similarity, ties by lowest index, which is exactly a
stable sort of the full row.

Precision: every stage from the down-projection to the up-projection (Z, S,
propagation, fusion, both pools, the gated residual, dropout) runs in the
dtype of the down-projection's output, so float32 input with float32 params
stays float32 throughout and only ``out`` is cast back to x's dtype. The
selection key is S in that dtype; widening it to float64 would be exact and
keep its order, so it would pick the same neighbors. The graph's rank
weights stay float64 for the rank-weight softmax VJP and the float64
cotangents; propagate casts them to the hidden dtype where it uses them.

Discrete selections (top-k membership, the chosen neighbor count k, the
floor inside adaptive_k, max-pool argmax) are treated as constants of the
forward pass: they receive zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .numerics import (
    check_finite,
    gelu,
    gelu_grad,
    l2_normalize,
    matmul,
    sigmoid,
    sigmoid_grad,
    softmax,
    softmax_vjp,
)

__all__ = [
    "DsgaConfig",
    "DsgaParams",
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
# Column groups of the top-k candidate bound, and the share of a block's
# entries above which its candidates are selected by partition instead: the
# measured crossover. Timed on float32 blocks of 512x4096, 1024x1024 and
# 256x8192 (k = 6, 2 vCPU, median of 9; BENCH_topk_pool.json,
# "branch_crossover"), with whole rows tied or c entries per row tied at the
# top, the sort won every case up to a share of 0.3 (at 512x4096 with 30% of
# rows tied, 16.3 against 16.8 ms) and the partition won on tied rows from
# 0.4 on (23.1 against 21.3 ms; 56.9 against 40.0 ms on a constant block).
_GROUPS = 256
_CANDIDATE_SHARE = 0.3


@dataclass
class DsgaConfig:
    """Adapter hyperparameters. ``d_hidden = floor(reduction_ratio * embed_dim)``."""

    embed_dim: int
    reduction_ratio: float = 0.25
    k_max: int = 8
    decay_exponent: float = 2.0
    dropout_prob: float = 0.1
    mode: str = "eval"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be positive, got {self.embed_dim}")
        if not 0.0 < self.reduction_ratio <= 1.0:
            raise ValueError(f"reduction_ratio must be in (0, 1], got {self.reduction_ratio}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.decay_exponent <= 0:
            raise ValueError(f"decay_exponent must be positive, got {self.decay_exponent}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
        if self.mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {self.mode!r}")
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

    def count(self) -> int:
        return int(
            self.down_w.size
            + self.down_b.size
            + self.up_w.size
            + self.up_b.size
            + self.fusion_w.size
            + self.rank_logits.size
            + 3
        )

    def named_arrays(self):
        return {
            "down_w": self.down_w,
            "down_b": self.down_b,
            "up_w": self.up_w,
            "up_b": self.up_b,
            "fusion_w": self.fusion_w,
            "rank_logits": self.rank_logits,
        }


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
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 1:
        return np.array([1.0])
    return softmax(raw)


def adaptive_k(theta_k: float, k_max: int) -> int:
    """k = min(K_max, max(1, floor(sigmoid(theta) * (K_max - 1) + 1)))."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k = int(math.floor(sigmoid(theta_k) * (k_max - 1) + 1.0))
    return min(k_max, max(1, k))


def init_theta_k(k_max: int) -> float:
    return math.log(k_max / 2.0)


def init_dsga_params(cfg: DsgaConfig, precision: str = "single") -> DsgaParams:
    """Seeded initialization; up-projection scale matches the down one (callers
    zero it out to start from the identity map)."""
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
        rank_logits=init_rank_weights(cfg.k_max, cfg.decay_exponent).astype(dtype),
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


def _similarity(zh_rows: np.ndarray, zh: np.ndarray, scale: float) -> np.ndarray:
    """tanh(scale * <zh_i, zh_j>) for the given rows i against every row j."""
    s = matmul(zh_rows, zh.transpose(0, 2, 1))
    s *= scale
    return np.tanh(s, out=s)


def similarity_matrix(z: np.ndarray) -> np.ndarray:
    """Temperature-controlled cosine similarity: tanh(<z_i, z_j> / sqrt(D_hidden))
    on row-wise L2-normalized features. Symmetric, entries in (-1, 1)."""
    z = np.asarray(z)
    if z.ndim != 3:
        raise ValueError(f"expected [B, N, D_hidden], got shape {z.shape}")
    zh = l2_normalize(z, axis=-1)
    return _similarity(zh, zh, 1.0 / math.sqrt(z.shape[-1]))


def _clamp_k(k: int, n: int, weights: np.ndarray) -> int:
    k_eff = max(0, min(int(k), n - 1))
    if k_eff > weights.size:
        raise ValueError(f"k={k_eff} exceeds available rank weights ({weights.size})")
    return k_eff


def _top_k_rows(key: np.ndarray, row0: int, k: int) -> np.ndarray:
    """Neighbor indices [B, R, k] of the similarity rows row0..row0+R-1 held in
    ``key`` (any float dtype, overwritten): descending value, ties by lowest
    index, the row's own node excluded. Non-finite similarities raise.
    Widening the key to float64 is exact and keeps its order, so the
    selection is the same in the key's own dtype."""
    check_finite(key, "similarity")
    b, r, n = key.shape
    if k == 0:
        return np.zeros((b, r, 0), dtype=np.intp)
    local = np.arange(r)
    key[:, local, row0 + local] = -np.inf
    m = min(_GROUPS, n)
    if k < m:
        # column j is in group j % m; the k-th largest group maximum L is at
        # most the k-th largest value (k distinct entries reach it), so every
        # entry of the top k or tied with its last one is at least L
        whole = n - n % m
        gmax = key[..., :whole].reshape(b, r, -1, m).max(axis=2)
        np.maximum(gmax[..., : n - whole], key[..., whole:], out=gmax[..., : n - whole])
        cand = key >= np.partition(gmax, m - k, axis=-1)[..., m - k, None]
        if np.count_nonzero(cand) <= _CANDIDATE_SHARE * cand.size:
            # flat indices ascend, so a stable sort by (row, -value) orders
            # each row as a stable sort of the full row does
            flat = np.flatnonzero(cand)
            row = flat // n
            flat = flat[np.lexsort((-key.reshape(-1)[flat], row))]
            count = np.bincount(row, minlength=b * r)
            start = np.cumsum(count) - count
            return (flat[start[:, None] + np.arange(k)] % n).reshape(b, r, k)
        # freed before the partition allocates: holding them made the
        # fallback ~25% slower on a constant field
        del gmax, cand
    # dense ties (the bound admits over _CANDIDATE_SHARE of the entries):
    # partition each row
    kth = np.partition(key, n - k, axis=-1)[..., n - k, None]
    keep = key >= kth
    # rows with more than k entries at or above the k-th value keep the
    # lowest-index entries of the tie at the k-th value
    tied = np.count_nonzero(keep, axis=-1) > k
    if tied.any():
        sub, cut = key[tied], kth[tied]
        above, at = sub > cut, sub == cut
        need = k - np.count_nonzero(above, axis=-1, keepdims=True)
        keep[tied] = above | (at & (np.cumsum(at, axis=-1) <= need))
    cols = (np.flatnonzero(keep) % n).reshape(b, r, k)  # ascending index per row
    vals = np.take_along_axis(key, cols, axis=-1)
    order = np.argsort(-vals, axis=-1, kind="stable")
    return np.take_along_axis(cols, order, axis=-1)


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
    column groups, or found by a partition when ties make those many.
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
    # a float copy in s's own precision (integer inputs promote to float)
    key = s.astype(np.promote_types(s.dtype, np.float32))
    return _rank_graph(_top_k_rows(key, 0, k_eff), weights)


def _streamed_graph(z: np.ndarray, k: int, weights: np.ndarray) -> SimilarityGraph:
    """build_graph(similarity_matrix(z), k, weights) without the N x N matrix:
    similarities are computed and selected one block of rows at a time."""
    b, n, dh = z.shape
    k_eff = _clamp_k(k, n, weights)
    zh = l2_normalize(z, axis=-1)
    scale = 1.0 / math.sqrt(dh)
    neighbors = np.empty((b, n, k_eff), dtype=np.intp)
    rows = max(2, _BLOCK_ELEMS // max(b * n, 1))
    for r0 in range(0, max(n - 1, 1), rows):
        # a lone last row joins this block: a one-row product takes another
        # BLAS path (gemv) whose rounding can differ from the full matrix's
        r1 = r0 + rows if r0 + rows < n - 1 else n
        neighbors[:, r0:r1] = _top_k_rows(_similarity(zh[:, r0:r1], zh, scale), r0, k_eff)
    return _rank_graph(neighbors, weights)


def propagate(graph: SimilarityGraph, z: np.ndarray) -> np.ndarray:
    """Sparse aggregation out_i = A_ii z_i + sum_r A_{i,nbr(i,r)} z_{nbr(i,r)}."""
    z = np.asarray(z)
    b, n, _ = z.shape
    if graph.batch != b or graph.num_nodes != n:
        raise ValueError(
            f"graph is {graph.batch}x{graph.num_nodes} nodes, features are {b}x{n}"
        )
    # the graph's weights are float64; cast them at use so the sum stays in z's dtype
    out = graph.self_weights.astype(z.dtype, copy=False)[..., None] * z
    if graph.k > 0:
        # rank by rank, in rank order from +0: the same sums as reducing a
        # [B, N, k, Dh] gather over k, without holding it
        edge_weights = graph.edge_weights.astype(z.dtype, copy=False)
        bi = np.arange(b)[:, None]
        acc = np.zeros(out.shape, z.dtype)
        for r in range(graph.k):
            acc += edge_weights[..., r, None] * z[bi, graph.neighbors[..., r]]
        out += acc
    return out


def _reflect_indices(n: int) -> np.ndarray:
    """Source index per padded position for pad-1 reflection (replicates at n=1)."""
    if n == 1:
        return np.zeros(3, dtype=np.intp)
    idx = np.arange(-1, n + 1)
    idx[0] = 1
    idx[-1] = n - 2
    return idx


_OFFSETS = [(dy, dx) for dy in range(3) for dx in range(3)]


def _dual_pool_trace(zp: np.ndarray):
    zp = np.asarray(zp)
    if zp.ndim != 4:
        raise ValueError(f"expected [B, H, W, C], got shape {zp.shape}")
    _, h, w, _ = zp.shape
    padded = zp[:, _reflect_indices(h)][:, :, _reflect_indices(w)]  # [B, H+2, W+2, C]
    # running max, argmax and sum over the offsets in order: the same values
    # as max/argmax/mean over a 9-offset stack, without holding it (strict >
    # keeps argmax's first-index tie rule; the sum starts from +0 as a
    # reduction does, so all -0 windows average to +0)
    mx = padded[:, :h, :w].copy()
    argmax = np.zeros(mx.shape, dtype=np.uint8)
    acc = np.zeros_like(mx)
    for o, (dy, dx) in enumerate(_OFFSETS):
        window = padded[:, dy : dy + h, dx : dx + w]
        # offsets ascend, so a strict win at o raises the argmax to o
        np.maximum(argmax, (window > mx) * np.uint8(o), out=argmax)
        np.maximum(mx, window, out=mx)
        acc += window
    return mx, acc / 9, argmax.astype(np.intp)


def dual_pool(zp: np.ndarray):
    """Parallel 3x3 max and average pooling, stride 1, reflective padding of 1;
    output shapes equal the input shape."""
    mx, av, _ = _dual_pool_trace(zp)
    return mx, av


def _dual_pool_vjp(dmx, dav, argmax):
    b, h, w, c = argmax.shape
    dpadded = np.zeros((b, h + 2, w + 2, c), dtype=np.float64)
    dav9 = dav / 9.0
    for o, (dy, dx) in enumerate(_OFFSETS):
        dpadded[:, dy : dy + h, dx : dx + w] += np.where(argmax == o, dmx, 0.0) + dav9
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


def _forward_trace(x, params: DsgaParams, cfg: DsgaConfig):
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected [B, H, W, D], got shape {x.shape}")
    b, h, w, d = x.shape
    if d != cfg.embed_dim:
        raise ValueError(f"input channel dim {d} != configured embed_dim {cfg.embed_dim}")
    if h == 0 or w == 0:
        raise ValueError(f"empty token grid: H = {h}, W = {w}")
    n = h * w
    check_finite(x, "input")

    t = {"x": x, "shape": (b, h, w, d), "n": n}
    # a strided x is copied by the reshape; the copy lives only for this product
    pre = matmul(x.reshape(b, n, d), params.down_w) + params.down_b
    t["pre"] = check_finite(pre, "down-projection")
    t["z"] = gelu(t["pre"])
    k = adaptive_k(params.theta_k, cfg.k_max)
    t["w_rank"] = rank_weights(params.rank_logits)
    t["graph"] = _streamed_graph(t["z"], k, t["w_rank"])
    t["g"] = propagate(t["graph"], t["z"])
    t["f"] = check_finite(matmul(t["g"], params.fusion_w), "fusion")
    fr = t["f"].reshape(b, h, w, cfg.d_hidden)
    t["fr"] = fr
    t["mx"], t["av"], t["argmax"] = _dual_pool_trace(fr)
    t["pooled"] = hybrid_pool(t["mx"], t["av"], params.w_p_raw)
    t["zp"] = gated_residual(fr, t["pooled"], params.w_n_raw)

    flat = t["zp"].reshape(b, n, cfg.d_hidden)
    if cfg.mode == "train" and cfg.dropout_prob > 0.0:
        scale = dropout_mask(flat.size, cfg.dropout_prob, cfg.seed).reshape(flat.shape)
    else:
        scale = None
    t["drop_scale"] = scale
    # the float64 scale would widen the hidden path; 1/(1-p) rounds once to its dtype
    t["dropped"] = flat if scale is None else flat * scale.astype(flat.dtype, copy=False)
    # bias and residual are added in place: no further [B, N, D] temporaries
    delta = matmul(t["dropped"], params.up_w)
    delta += params.up_b
    # params of the other precision set the hidden dtype; the residual sum stays in x's
    out = delta.reshape(b, h, w, d).astype(x.dtype, copy=False)
    out += x
    t["out"] = check_finite(out, "up-projection")
    return t


def dsga_forward(x, params: DsgaParams, cfg: DsgaConfig):
    """Residual adapter forward pass; returns (output, similarity graph).

    Output shape equals input shape; with a zero up-projection the map is
    the identity bit-for-bit in eval mode.
    """
    t = _forward_trace(x, params, cfg)
    return t["out"], t["graph"]


def dsga_vjp(x, params: DsgaParams, cfg: DsgaConfig, upstream):
    """Cotangents of sum(upstream * dsga_forward(x)) wrt x and all parameters.

    Requires eval mode or dropout_prob = 0. theta_k sits behind the floor in
    adaptive_k and therefore gets zero gradient; graph structure is held
    fixed (top-k membership does not differentiate).
    """
    if cfg.mode == "train" and cfg.dropout_prob > 0.0:
        raise ValueError("dsga_vjp requires eval mode or dropout_prob = 0")
    upstream = np.asarray(upstream, dtype=np.float64)
    t = _forward_trace(x, params, cfg)
    if upstream.shape != t["out"].shape:
        raise ValueError(
            f"upstream shape {upstream.shape} != output shape {t['out'].shape}"
        )
    b, h, w, d = t["shape"]
    n = t["n"]
    dh = cfg.d_hidden
    graph: SimilarityGraph = t["graph"]

    dx = upstream.copy()  # residual term
    uf = upstream.reshape(b * n, d)

    # up-projection; weight gradients are GEMMs over the flattened [B*N, .] rows
    d_up_w = t["dropped"].reshape(b * n, dh).T @ uf
    d_up_b = uf.sum(axis=0)
    d_zp = matmul(uf, params.up_w.T).reshape(b, h, w, dh)  # no dropout by precondition

    # gated residual
    g = 0.5 * sigmoid(params.w_n_raw)
    d_fr = (1.0 - g) * d_zp
    d_pooled = g * d_zp
    d_w_n = float(np.sum((t["pooled"] - t["fr"]) * d_zp)) * 0.5 * sigmoid_grad(
        params.w_n_raw
    )

    # hybrid pooling
    sp = sigmoid(params.w_p_raw)
    d_mx = sp * d_pooled
    d_av = (1.0 - sp) * d_pooled
    d_w_p = float(np.sum((t["mx"] - t["av"]) * d_pooled)) * sigmoid_grad(params.w_p_raw)

    # dual pooling (argmax fixed)
    d_fr += _dual_pool_vjp(d_mx, d_av, t["argmax"])
    d_f = d_fr.reshape(b * n, dh)

    # fusion
    d_fusion_w = t["g"].reshape(b * n, dh).T @ d_f
    d_g = matmul(d_f, params.fusion_w.T).reshape(b, n, dh)

    # graph propagation: out_i = A_ii z_i + sum_r w_r/s * z_nbr
    d_z = graph.self_weights[..., None] * d_g
    d_w_used = np.zeros(graph.k)
    d_row_sum = 0.0
    row_sum = 1.0 + float(t["w_rank"][: graph.k].sum()) if graph.k > 0 else 1.0
    if graph.k > 0:
        # scatter the cotangent back to neighbor features: d_z += E^T d_g with
        # E[i, nbr(i, r)] = A_{i, nbr(i, r)}, block-diagonal over the batch
        rows = np.arange(b * n * graph.k + 1, step=graph.k)
        cols = (np.arange(b)[:, None, None] * n + graph.neighbors).reshape(-1)
        edges = csr_array(
            (graph.edge_weights.reshape(-1), cols, rows), shape=(b * n, b * n)
        )
        d_z += (edges.T @ d_g.reshape(b * n, dh)).reshape(b, n, dh)
        # cotangent on the normalized adjacency values, one rank at a time
        z = t["z"].astype(d_g.dtype, copy=False)
        bi = np.arange(b)[:, None]
        d_edge = np.empty((b, n, graph.k))
        for r in range(graph.k):
            d_edge[..., r] = np.einsum("bnh,bnh->bn", z[bi, graph.neighbors[..., r]], d_g)
        d_self = np.einsum("bnh,bnh->bn", z, d_g)
        # A_edge[r] = w_r / s and A_self = 1 / s with s = 1 + sum(w[:k])
        d_w_used = d_edge.sum(axis=(0, 1)) / row_sum
        d_row_sum = -(
            float(np.sum(d_edge * graph.edge_weights)) + float(np.sum(d_self * graph.self_weights))
        ) / row_sum
    d_w_rank = np.zeros_like(t["w_rank"])
    d_w_rank[: graph.k] = d_w_used + d_row_sum
    d_rank_logits = softmax_vjp(t["w_rank"], d_w_rank)
    if params.rank_logits.size == 1:
        d_rank_logits = np.zeros(1)

    # activation and down-projection
    d_pre = (d_z * gelu_grad(t["pre"])).reshape(b * n, dh)
    xf = t["x"].reshape(b * n, d).astype(d_pre.dtype, copy=False)
    d_down_w = xf.T @ d_pre
    d_down_b = d_pre.sum(axis=0)
    dx += matmul(d_pre, params.down_w.T).reshape(b, h, w, d)

    grads = DsgaParams(
        down_w=d_down_w,
        down_b=d_down_b,
        up_w=d_up_w,
        up_b=d_up_b,
        fusion_w=d_fusion_w,
        rank_logits=d_rank_logits,
        theta_k=0.0,
        w_p_raw=d_w_p,
        w_n_raw=d_w_n,
    )
    return dx, grads


def parameter_count(cfg: DsgaConfig, num_layers: int) -> int:
    """Trainable scalars for a stack of adapters: per layer,
    D*Dh + Dh + Dh*D + D + Dh^2 + K_max + 3."""
    if num_layers < 0:
        raise ValueError(f"num_layers must be >= 0, got {num_layers}")
    d, dh = cfg.embed_dim, cfg.d_hidden
    per_layer = d * dh + dh + dh * d + d + dh * dh + cfg.k_max + 3
    return num_layers * per_layer
