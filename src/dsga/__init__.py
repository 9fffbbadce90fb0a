"""Desk-scale graph-adapter toolkit: a dynamic similarity-graph bottleneck
adapter with analytic gradients, a low-rank projection update, grid-saliency
point-prompt generation with IoU instance dedup, a focal/dice/boundary
composite loss with EMA weight balancing, and the full saliency + instance
evaluation-metric stack. Every differentiable operation is verified against
a central finite-difference oracle.
"""

from .adapter import (
    DsgaConfig,
    DsgaParams,
    SimilarityGraph,
    adaptive_k,
    build_graph,
    dsga_forward,
    dsga_vjp,
    dual_pool,
    gated_residual,
    hybrid_pool,
    init_dsga_params,
    init_rank_weights,
    parameter_count,
    propagate,
    rank_weights,
    similarity_matrix,
)
from .config import BackboneProfile, PipelineConfig, ValidationError
from .lora import (
    LoraConfig,
    LoraLayer,
    init_lora_layer,
    lora_apply,
    lora_parameter_count,
    lora_vjp,
)
from .losses import (
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
from .metrics import (
    DetectionSet,
    MetricReport,
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
from .numerics import (
    NumericalError,
    finite_diff_grad,
    gelu,
    l2_normalize,
    sigmoid,
    softmax,
)
from .pipeline import (
    AuditReport,
    audit_params,
    demo_synthetic,
    gradcheck_all,
    run_stage_transition,
)
from .prompts import (
    PointPrompt,
    PromptConfig,
    ScoredInstance,
    cell_centroid,
    dedup_instances,
    generate_prompts,
    grid_saliency,
    mask_iou,
    pairwise_iou,
)

__version__ = "0.1.0"
