"""Walk through the graph adapter one stage at a time.

The adapter takes an embedding field [B, H, W, D], reduces it to a hidden
width, connects the H*W patch positions by a top-k cosine-similarity graph,
aggregates neighbors with rank-specific weights, mixes in local 3x3 pooled
context, and projects back up with a residual connection.
"""

import numpy as np

from dsga import (
    DsgaConfig,
    adaptive_k,
    build_graph,
    dsga_forward,
    init_dsga_params,
    init_rank_weights,
    propagate,
    rank_weights,
    similarity_matrix,
)
from dsga.adapter import RANK_DECAY, init_theta_k

rng = np.random.default_rng(0)

# a toy field: one image, 4x4 patches, 16 channels
cfg = DsgaConfig(embed_dim=16, reduction_ratio=0.25, k_max=4, dropout_prob=0.0,
                 mode="eval", seed=0)
x = rng.standard_normal((1, 4, 4, 16))
params = init_dsga_params(cfg, precision="double")
print(f"input field {x.shape}, hidden width {cfg.d_hidden}")

# --- stage 1: reduced features and their pairwise similarities -------------
z = rng.standard_normal((1, 16, cfg.d_hidden))  # stand-in for GELU(down(x))
s = similarity_matrix(z)
print(f"similarity matrix {s.shape}: symmetric, values in (-1, 1)")
print(f"  extremes: {s.min():+.4f} .. {s.max():+.4f}")

# --- stage 2: how many neighbors? ------------------------------------------
theta = init_theta_k(cfg.k_max)
k = adaptive_k(theta, cfg.k_max)
print(f"neighbor budget from the learnable gate: k = {k} of k_max = {cfg.k_max}")

# --- stage 3: rank weights and the sparse adjacency ------------------------
logits = init_rank_weights(cfg.k_max, RANK_DECAY)
w = rank_weights(logits)
print(f"rank weights (closest neighbor first): {np.round(w, 4)}")

graph = build_graph(s, k, w)
dense = graph.to_dense()
print(f"adjacency rows all sum to 1: max deviation {abs(dense.sum(-1) - 1).max():.2e}")
print(f"node 0 keeps neighbors {graph.neighbors[0, 0]} "
      f"with weights {np.round(graph.edge_weights[0, 0], 4)} "
      f"and self weight {graph.self_weights[0, 0]:.4f}")

# --- stage 4: propagation = weighted neighborhood averaging ----------------
mixed = propagate(graph, z)
print(f"propagated features {mixed.shape}; "
      f"sparse result matches the dense product: "
      f"{np.allclose(mixed, dense @ z)}")

# --- the full residual forward pass ----------------------------------------
out, g = dsga_forward(x, params, cfg)
print(f"\nfull forward: {x.shape} -> {out.shape} using a k={g.k} graph")
print(f"residual keeps the output close to the input: "
      f"relative shift {np.linalg.norm(out - x) / np.linalg.norm(x):.4f}")

# zeroing the up-projection makes the adapter an exact identity, which is
# how a stack of these starts training without disturbing the host model
params.up_w[:] = 0.0
params.up_b[:] = 0.0
identity, _ = dsga_forward(x, params, cfg)
print(f"zero up-projection gives the identity map exactly: "
      f"{np.array_equal(identity, x)}")
