"""Two-stage orchestration on file artifacts: parameter audit, the
finite-difference gradient-check harness, the foreground-to-instances stage
transition, and a fully synthetic end-to-end demo whose artifact directory
is byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_dilation, label as cc_label

from . import fileio
from .adapter import (
    DsgaConfig,
    DsgaParams,
    dsga_forward,
    dsga_vjp,
    init_dsga_params,
    parameter_count,
    _GATES,
)
from .config import PipelineConfig, ValidationError, _typed
from .lora import LoraLayer, init_lora_layer, lora_apply, lora_parameter_count, lora_vjp
from .losses import LossWeights, combined_loss, loss_grads
from .metrics import DetectionSet, detection_report, evaluate_saliency
from .numerics import finite_diff_grad
from .prompts import PromptConfig, ScoredInstance, dedup_instances, generate_prompts

__all__ = [
    "AuditReport",
    "audit_params",
    "GradcheckResult",
    "gradcheck_all",
    "max_hybrid_error",
    "run_stage_transition",
    "demo_synthetic",
    "write_params_bundle",
    "read_params_bundle",
]

# Reference trainable-parameter totals for the ViT-Base configuration
# (millions); the audit prints these next to the computed counts.
DSGA_REFERENCE_M = 4.00
LORA_REFERENCE_M = 0.33
REFERENCE_MATCH_RTOL = 0.003


@dataclass
class AuditReport:
    dsga_params: int
    lora_params: int
    total_trainable: int
    frozen_total: int
    trainable_fraction: float
    dsga_reference_millions: float
    lora_reference_millions: float
    dsga_matches_reference: bool
    lora_reference_discrepancy: bool

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def audit_params(cfg: PipelineConfig) -> AuditReport:
    """Count trainable parameters for both adapters (disjoint by construction),
    one of each in every backbone block at the adapter's token width, and
    compare against the reference totals."""
    width, layers = cfg.dsga.embed_dim, cfg.backbone.layers
    dsga_count = parameter_count(cfg.dsga, layers)
    lora_count = lora_parameter_count(cfg.lora, d=width, k_dim=width, num_layers=layers)
    total = dsga_count + lora_count
    dsga_ok = (
        abs(dsga_count / 1e6 - DSGA_REFERENCE_M) <= REFERENCE_MATCH_RTOL * DSGA_REFERENCE_M
        if layers
        else True
    )
    lora_flag = (
        abs(lora_count / 1e6 - LORA_REFERENCE_M) > REFERENCE_MATCH_RTOL * LORA_REFERENCE_M
        if layers
        else False
    )
    return AuditReport(
        dsga_params=dsga_count,
        lora_params=lora_count,
        total_trainable=total,
        frozen_total=cfg.backbone.params_frozen,
        trainable_fraction=total / cfg.backbone.params_frozen,
        dsga_reference_millions=DSGA_REFERENCE_M,
        lora_reference_millions=LORA_REFERENCE_M,
        dsga_matches_reference=dsga_ok,
        lora_reference_discrepancy=lora_flag,
    )


# --------------------------------------------------------------------------
# gradient checks


def max_hybrid_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max |a - fd| / max(|a|, |fd|, 1): relative error for unit-scale
    gradients, absolute for near-zero ones (where relative error is noise)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass
class GradcheckResult:
    """One op's check. ``errors`` holds the worst error per checked input or
    parameter name; ``max_rel_err`` is the largest of them."""

    op: str
    max_rel_err: float
    tolerance: float
    instances: int
    errors: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "max_rel_err": self.max_rel_err,
            "tolerance": self.tolerance,
            "instances": self.instances,
            "errors": dict(self.errors),
            "pass": self.passed,
        }


def _gradcheck(op: str, seed: int, instances: int, draw) -> GradcheckResult:
    """Worst error per checked name over ``instances`` draws. Each
    ``draw(rng)`` gives (point, analytic, value): the inputs and parameters
    to check, their analytic cotangents, and ``value(name, theta)``, the
    scalar objective with ``name`` set to ``theta``; central differences
    are taken around ``point[name]``."""
    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    for _ in range(instances):
        point, analytic, value = draw(rng)
        for name, theta in point.items():
            fd = finite_diff_grad(lambda t: value(name, t), theta)
            errors[name] = max(errors.get(name, 0.0), max_hybrid_error(analytic[name], fd))
    return GradcheckResult(op, max(errors.values(), default=0.0), 1e-4, instances, errors)


def _draw_dsga(rng: np.random.Generator):
    h = int(rng.integers(2, 4))
    w = int(rng.integers(2, 4))
    d = int(rng.integers(4, 9))
    # reduction 0.5 keeps d_hidden >= 2: at d_hidden = 1 cosine similarity
    # collapses to +-tanh(1) and top-k membership rides on the 1e-12
    # normalization shift, which finite differences flip (the excluded
    # discrete-selection regime)
    cfg = DsgaConfig(
        embed_dim=d,
        reduction_ratio=0.5,
        k_max=3,
        dropout_prob=0.0,
        mode="eval",
        seed=int(rng.integers(0, 2**31)),
    )
    params = init_dsga_params(cfg, precision="double")
    x = rng.standard_normal((1, h, w, d))
    upstream = rng.standard_normal((1, h, w, d))
    dx, grads = dsga_vjp(x, params, cfg, upstream)

    def value(name, theta):
        if name == "x":
            out, _ = dsga_forward(theta, params, cfg)
        else:
            if name in _GATES:
                theta = float(theta.reshape(()))
            out, _ = dsga_forward(x, replace(params, **{name: theta}), cfg)
        return float(np.sum(upstream * out))

    gates = {n: np.array(getattr(params, n)) for n in _GATES}
    point = {"x": x, **params.named_arrays(), **gates}
    analytic = {"x": dx, **grads.named_arrays(), **{n: getattr(grads, n) for n in _GATES}}
    return point, analytic, value


def _draw_lora(rng: np.random.Generator):
    d = int(rng.integers(2, 9))
    k_dim = int(rng.integers(2, 9))
    r = int(rng.integers(1, min(d, k_dim) + 1))
    layer = LoraLayer(
        w0=rng.standard_normal((d, k_dim)),
        a=0.1 * rng.standard_normal((r, k_dim)),
        b=0.1 * rng.standard_normal((d, r)),
        rank=r,
        alpha=float(rng.uniform(0.5, 2.0) * r),
    )
    x = rng.standard_normal((3, k_dim))
    upstream = rng.standard_normal((3, d))
    dx, da, db = lora_vjp(layer, x, upstream)

    def value(name, theta):
        if name == "x":
            return float(np.sum(upstream * lora_apply(layer, theta)))
        return float(np.sum(upstream * lora_apply(replace(layer, **{name: theta}), x)))

    return {"x": x, "a": layer.a, "b": layer.b}, {"x": dx, "a": da, "b": db}, value


def _draw_loss(rng: np.random.Generator):
    h = int(rng.integers(3, 9))
    w = int(rng.integers(3, 9))
    pred = rng.uniform(0.05, 0.95, size=(h, w))
    gt = rng.random((h, w)) < 0.5
    if not gt.any():
        gt[0, 0] = True
    if gt.all():
        gt[0, 0] = False
    weights = LossWeights(
        lam1=float(rng.uniform(0.2, 2.0)),
        lam2=float(rng.uniform(0.2, 2.0)),
        lam3=float(rng.uniform(0.2, 2.0)),
    )

    def value(_, p):
        return combined_loss(np.clip(p, 0.0, 1.0), gt, weights)[0]

    return {"pred": pred}, {"pred": loss_grads(pred, gt, weights)}, value


def gradcheck_all(seed: int = 0, instances: int = 10) -> list[GradcheckResult]:
    """FD-vs-analytic comparison for every differentiable op in the package."""
    if instances < 1:
        raise ValidationError(f"gradcheck needs at least 1 instance, got {instances}")
    return [
        _gradcheck("dsga_vjp", seed, instances, _draw_dsga),
        _gradcheck("lora_vjp", seed + 1, instances, _draw_lora),
        _gradcheck("loss_grads", seed + 2, instances, _draw_loss),
    ]


# --------------------------------------------------------------------------
# stage transition


def read_instance_manifest(manifest_path) -> list[dict]:
    """The entries of a JSON instance manifest ``{"instances": [...]}``: a
    list of objects, each naming its mask file, relative to the manifest, by
    the string ``mask``. Anything else raises FileFormatError."""
    data = fileio.read_json(manifest_path)
    entries = data.get("instances") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise fileio.FileFormatError(f"{manifest_path}: expected an 'instances' list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise fileio.FileFormatError(
                f"{manifest_path}: instance {i} must be an object, got {entry!r}"
            )
        _manifest_field(manifest_path, i, entry, "mask", "")
    return entries


def _manifest_field(manifest_path, i, entry, key, default):
    """entry[key] if its JSON type matches ``default``'s (see config._typed)."""
    try:
        return _typed(f"instance {i} {key!r}", entry.get(key), default)
    except ValidationError as exc:
        raise fileio.FileFormatError(f"{manifest_path}: {exc}") from exc


def load_candidates(manifest_path, expected_shape=None):
    """Scored candidate masks of an instance manifest, and the manifest's
    validated entries in the same order. Each entry needs a numeric
    ``score``; a ``prompt_index``, where present, must be an int."""
    manifest_path = Path(manifest_path)
    entries = read_instance_manifest(manifest_path)
    out = []
    for i, entry in enumerate(entries):
        score = float(_manifest_field(manifest_path, i, entry, "score", 0.0))
        if entry.get("prompt_index") is not None:
            _manifest_field(manifest_path, i, entry, "prompt_index", 0)
        mask = fileio.read_mask(manifest_path.parent / entry["mask"])
        if expected_shape is not None and mask.shape != expected_shape:
            raise ValidationError(
                f"candidate {i} has shape {mask.shape}, expected {expected_shape}"
            )
        out.append(ScoredInstance(mask=mask, score=score, source_prompt=None))
    return out, entries


def run_stage_transition(
    fg_mask_path, candidates_manifest, cfg: PipelineConfig, tau_o: float = 0.75
):
    """Foreground mask -> prompts -> (externally realized candidates, joined
    by prompt index when given) -> deduplicated instances + count."""
    mask = fileio.read_mask(fg_mask_path)
    prompts = generate_prompts(mask, cfg.prompt)
    candidates, entries = load_candidates(candidates_manifest, mask.shape)
    for cand, entry in zip(candidates, entries):
        idx = entry.get("prompt_index")
        if idx is not None:
            if not 0 <= idx < len(prompts):
                raise ValidationError(
                    f"candidate prompt_index {idx} out of range (have {len(prompts)} prompts)"
                )
            cand.source_prompt = prompts[idx]
    kept = dedup_instances(candidates, tau_o)
    return {"prompts": prompts, "kept": kept, "count": len(kept)}


# --------------------------------------------------------------------------
# params bundle files

_BUNDLE_NAMES = {
    "down.w": "down_w",
    "down.b": "down_b",
    "up.w": "up_w",
    "up.b": "up_b",
    "fusion.w": "fusion_w",
    "rank_logits": "rank_logits",
    "theta_k": "theta_k",
    "w_p": "w_p_raw",
    "w_n": "w_n_raw",
}


def write_params_bundle(bundle_dir, params: DsgaParams) -> None:
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    for fname, attr in _BUNDLE_NAMES.items():
        value = np.asarray(getattr(params, attr))  # arrays keep their dtype
        fileio.write_tns(bundle_dir / fname, value)


def read_params_bundle(bundle_dir) -> DsgaParams:
    bundle_dir = Path(bundle_dir)
    loaded = {}
    for fname, attr in _BUNDLE_NAMES.items():
        path = bundle_dir / fname
        if not path.exists():
            raise fileio.FileFormatError(f"params bundle is missing {fname}")
        arr = fileio.read_tns(path)
        # a gate file holds a 0-d array; any other shape reaches check_params
        loaded[attr] = float(arr) if attr in _GATES and arr.ndim == 0 else arr
    return DsgaParams(**loaded)


# --------------------------------------------------------------------------
# synthetic end-to-end demo


def _synth_blobs(rng: np.random.Generator, size: int = 96, cell: int = 24):
    """Three disjoint axis-aligned blobs, one per chosen grid cell, sized so a
    one-pixel dilation stays above 0.75 IoU with the original."""
    mask = np.zeros((size, size), dtype=bool)
    anchors = [(0, 0), (1, 2), (3, 1)]
    for ci, cj in anchors:
        side = int(rng.integers(15, 19))
        margin_y = int(rng.integers(2, max(3, cell - side - 1)))
        margin_x = int(rng.integers(2, max(3, cell - side - 1)))
        y0 = ci * cell + margin_y
        x0 = cj * cell + margin_x
        mask[y0 : y0 + side, x0 : x0 + side] = True
    return mask


def demo_synthetic(seed: int, out_dir) -> dict:
    """Generate, run, and score a self-consistent toy pipeline; every
    intermediate lands in ``out_dir`` in its documented format."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    # stage 1: adapter forward on a random embedding field
    dsga_cfg = DsgaConfig(
        embed_dim=16, reduction_ratio=0.25, k_max=4, dropout_prob=0.1, mode="eval", seed=seed
    )
    x = rng.standard_normal((1, 6, 6, 16)).astype(np.float32)
    params = init_dsga_params(dsga_cfg, precision="single")
    y, graph = dsga_forward(x, params, dsga_cfg)
    fileio.write_tns(out_dir / "embedding_in.tns", x)
    fileio.write_tns(out_dir / "embedding_out.tns", y)
    fileio.write_json(out_dir / "graph.json", graph.as_json_obj())
    write_params_bundle(out_dir / "dsga_params", params)

    # low-rank update on a toy projection: zero-initialized delta, then a
    # perturbed-factor application
    w0 = rng.standard_normal((8, 16)).astype(np.float32)
    layer = init_lora_layer(w0, rank=4, seed=seed)
    rows = x.reshape(-1, 16)
    fileio.write_tns(out_dir / "lora_base.tns", lora_apply(layer, rows))
    layer.b = (0.1 * rng.standard_normal(layer.b.shape)).astype(np.float32)
    fileio.write_tns(out_dir / "lora_adapted.tns", lora_apply(layer, rows))

    # stage transition: synthetic foreground, prompts, candidates, dedup
    fg = _synth_blobs(rng)
    fileio.write_mask_pgm(out_dir / "foreground.pgm", fg)
    prompt_cfg = PromptConfig(grid_size=24, saliency_threshold=0.05, n_min=1, n_max=64)
    prompts = generate_prompts(fg, prompt_cfg)
    fileio.write_prompts_jsonl(out_dir / "prompts.jsonl", prompts)

    labels, _ = cc_label(fg)
    entries = []
    candidates = []
    for i, p in enumerate(prompts):
        component = labels == labels[p.y, p.x]
        exact = component
        dilated = binary_dilation(component)
        for variant, vmask, base_score in (("exact", exact, 0.95), ("dilated", dilated, 0.80)):
            name = f"candidate_{len(entries):03d}.pgm"
            fileio.write_mask_pgm(out_dir / name, vmask)
            score = round(base_score - 0.001 * i, 6)
            entries.append(
                {"mask": name, "score": score, "prompt_index": i, "variant": variant}
            )
            candidates.append(ScoredInstance(mask=vmask, score=score, source_prompt=p))
    fileio.write_json(out_dir / "candidates.json", {"instances": entries})

    kept = dedup_instances(candidates, tau_o=0.75)
    kept_entries = []
    for j, inst in enumerate(kept):
        name = f"instance_{j:03d}.pgm"
        fileio.write_mask_pgm(out_dir / name, inst.mask)
        kept_entries.append({"mask": name, "score": inst.score})
    fileio.write_json(
        out_dir / "instances.json", {"count": len(kept), "instances": kept_entries}
    )

    # dedup threshold study: looser suppression keeps the dilated variants too
    study = {
        str(tau): len(dedup_instances(candidates, tau_o=tau)) for tau in (0.75, 0.99)
    }

    # metrics on the self-consistent fixture
    sal_report = evaluate_saliency(fg.astype(np.float64), fg)
    gt_instances = [labels == v for v in range(1, labels.max() + 1)]
    det = DetectionSet(predictions=kept, ground_truths=gt_instances)
    inst_report = detection_report(det)
    fileio.write_json(
        out_dir / "metrics.json",
        {"saliency": sal_report.as_dict(), "instances": inst_report},
    )

    summary = {
        "seed": seed,
        "instance_count": len(kept),
        "num_prompts": len(prompts),
        "num_candidates": len(candidates),
        "dedup_study": study,
        "saliency_s_measure": sal_report.s_measure,
        "saliency_mae": sal_report.mae,
        "instance_ap50": inst_report["ap50"],
    }
    fileio.write_json(out_dir / "report.json", summary)
    return summary
