"""Low-rank projection updates and the trainable-parameter audit.

A frozen projection W0 is adapted through two small factors B and A scaled
by alpha/rank. B starts at zero, so the adapted projection is exactly the
frozen one until training moves the factors.
"""

import numpy as np

from dsga import (
    LoraConfig,
    PipelineConfig,
    audit_params,
    init_lora_layer,
    lora_apply,
    lora_parameter_count,
    lora_vjp,
)

rng = np.random.default_rng(1)

d, k_dim, rank = 8, 12, 2
w0 = rng.standard_normal((d, k_dim))
layer = init_lora_layer(w0, rank=rank, seed=1)
x = rng.standard_normal((5, k_dim))

print(f"base projection {w0.shape}, factors B {layer.b.shape} x A {layer.a.shape}")
print(f"fresh layer equals the frozen base exactly: "
      f"{np.array_equal(lora_apply(layer, x), x @ w0.T)}")

# after a mock training step the delta path switches on
layer.b = 0.3 * rng.standard_normal(layer.b.shape)
h = lora_apply(layer, x)
dense = w0 + layer.scaling * (layer.b @ layer.a)
print(f"factored path equals the materialized W0 + (alpha/r) B A: "
      f"{np.allclose(h, x @ dense.T)}")

# gradients exist for the factors only; the base is frozen by construction
upstream = rng.standard_normal(h.shape)
dx, da, db = lora_vjp(layer, x, upstream)
print(f"cotangents: x {dx.shape}, A {da.shape}, B {db.shape} (none for W0)")

# parameter accounting for the reference configuration: rank-8 updates on
# the query/value projections of a 12-layer, 768-wide backbone
cfg = LoraConfig(rank=8, targets=("query", "value"))
n = lora_parameter_count(cfg, d=768, k_dim=768, num_layers=12)
print(f"\nreference low-rank budget: {n:,} trainable scalars ({n / 1e6:.2f}M)")

# the audit takes the width from dsga.embed_dim and the depth from
# backbone.layers, and puts both adapters in every block
report = audit_params(PipelineConfig())
print(f"graph adapter:  {report.dsga_params:,} "
      f"(reference {report.dsga_reference_millions:.2f}M, "
      f"matches: {report.dsga_matches_reference})")
print(f"low-rank update: {report.lora_params:,} "
      f"(reference {report.lora_reference_millions:.2f}M, "
      f"discrepancy flagged: {report.lora_reference_discrepancy})")
print(f"combined: {report.total_trainable:,} trainable of "
      f"{report.frozen_total:,} frozen = {100 * report.trainable_fraction:.2f}%")

# a ViT-Large encoder: 24 blocks of 1024-wide tokens, set once each
large = audit_params(PipelineConfig.from_dict(
    {"dsga": {"embed_dim": 1024}, "backbone": {"layers": 24}}))
print(f"ViT-Large profile: graph adapter {large.dsga_params:,}, "
      f"low-rank update {large.lora_params:,}")
