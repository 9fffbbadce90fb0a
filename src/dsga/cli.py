"""Command-line entry point.

Subcommands: ``forward`` (adapter forward pass on TNS1 tensors), ``lora
apply``, ``prompts generate``, ``instances dedup``, ``loss eval``, ``loss
ema-sim``, ``metrics saliency``, ``metrics instances``, ``audit params``,
``gradcheck``, ``demo``. Commands return nothing: ``main`` alone maps their
outcome to an exit code, 0 success, 1 validation error, 2 I/O error, 3
numerical failure. ``lora apply`` takes the rank from A's row count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio, pipeline
from .adapter import dsga_forward
from .config import PipelineConfig, ValidationError, _typed
from .lora import LoraLayer, lora_apply
from .losses import (
    LossHyper,
    LossWeights,
    combined_loss,
    contributions_from_components,
    ContributionState,
    ema_normalized,
    ema_update,
)
from .metrics import DetectionSet, detection_report, evaluate_saliency
from .numerics import NumericalError, check_finite
from .prompts import PromptConfig, dedup_instances, generate_prompts

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------- commands


def cmd_forward(args) -> None:
    x = fileio.read_tns(args.input)
    cfg_data = fileio.read_json(args.config)
    if not isinstance(cfg_data, dict):
        raise ValidationError("dsga config must be a JSON object")
    full = PipelineConfig.from_dict({"dsga": cfg_data})
    cfg = full.dsga
    params = pipeline.read_params_bundle(args.params)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow exits 3 in its checks
        out, graph = dsga_forward(x, params, cfg)
    fileio.write_tns(args.output, out)
    if args.emit_graph:
        fileio.write_json(args.emit_graph, graph.as_json_obj())


def cmd_lora_apply(args) -> None:
    w0 = fileio.read_tns(args.base)
    a = fileio.read_tns(args.a)
    b = fileio.read_tns(args.b)
    x = fileio.read_tns(args.input)
    if a.ndim != 2:
        raise ValidationError(f"A must be 2-D, got shape {a.shape}")
    layer = LoraLayer(w0=w0, a=a, b=b, rank=a.shape[0], alpha=args.alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow exits 3 below
        h = lora_apply(layer, x)
    fileio.write_tns(args.output, check_finite(h, "lora output"))


def cmd_prompts_generate(args) -> None:
    mask = fileio.read_mask(args.mask)
    cfg = PromptConfig(
        grid_size=args.grid,
        saliency_threshold=args.threshold,
        n_min=args.nmin,
        n_max=args.nmax,
    )
    fileio.write_prompts_jsonl(args.out, generate_prompts(mask, cfg))


def cmd_instances_dedup(args) -> None:
    candidates, manifest_entries = pipeline.load_candidates(args.manifest)
    kept = dedup_instances(candidates, tau_o=args.iou_threshold)
    by_id = {id(c): i for i, c in enumerate(candidates)}
    entries = [manifest_entries[by_id[id(inst)]] for inst in kept]
    fileio.write_json(args.out, {"count": len(entries), "instances": entries})


def cmd_loss_eval(args) -> None:
    pred = fileio.read_saliency(args.pred)
    gt = fileio.read_mask(args.gt)
    lam = [float(v) for v in args.weights.split(",")]
    if len(lam) != 3:
        raise ValidationError(f"--weights needs 3 comma-separated values, got {args.weights!r}")
    weights = LossWeights(lam1=lam[0], lam2=lam[1], lam3=lam[2])
    hyper = LossHyper(
        focal_gamma=args.focal_gamma,
        focal_alpha=args.focal_alpha,
        dice_smooth=args.dice_smooth,
    )
    total, parts = combined_loss(pred, gt, weights, hyper)
    fileio.write_json(args.out, {"total": total, **parts})


def _trace_contributions(path, lineno: int, line: bytes) -> list:
    """The ``contributions`` of one UTF-8 trace line, three numbers; a
    malformed line raises FileFormatError naming the file and the line."""
    where = f"{path}: line {lineno}"
    record = fileio.decode_json(line, where)
    values = record.get("contributions") if isinstance(record, dict) else None
    try:
        if not (isinstance(values, list) and len(values) == 3):
            raise ValidationError("expected an object with a 3-element 'contributions' list")
        return [_typed(f"contribution {i}", v, 0.0) for i, v in enumerate(values)]
    except ValidationError as exc:
        raise fileio.FileFormatError(f"{where}: {exc}") from exc


def cmd_loss_ema_sim(args) -> None:
    weights = LossWeights(ema_beta=args.beta)
    state = ContributionState()
    rows = []
    with open(args.trace, "rb") as fh:
        for step, line in enumerate(fh):
            if not line.strip():
                continue
            contributions, state = contributions_from_components(
                _trace_contributions(args.trace, step + 1, line), state, mode=args.mode
            )
            weights = ema_update(weights, contributions)
            used = ema_normalized(weights)
            rows.append(
                {
                    "step": step,
                    "contributions": list(contributions),
                    "lambda_raw": list(weights.lams),
                    "lambda_normalized": list(used.lams),
                }
            )
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _files_by_stem(directory: Path) -> dict:
    files = {}
    for path in filter(Path.is_file, sorted(directory.iterdir())):
        if path.stem in files:
            other = files[path.stem].name
            raise ValidationError(f"{directory}: stem {path.stem!r} names {other} and {path.name}")
        files[path.stem] = path
    return files


def _pair_files(pred_dir: Path, gt_dir: Path):
    preds = _files_by_stem(pred_dir)
    gts = _files_by_stem(gt_dir)
    common = sorted(set(preds) & set(gts))
    if not common:
        raise ValidationError(f"no common file stems between {pred_dir} and {gt_dir}")
    return [(stem, preds[stem], gts[stem]) for stem in common]


def _saliency_row(stem: str, pred_path: Path, gt_path: Path) -> dict:
    """The saliency report of one pair; a pair that does not fit raises
    ValueError naming its stem."""
    sal, gt = fileio.read_saliency(pred_path), fileio.read_mask(gt_path)
    try:
        return evaluate_saliency(sal, gt).as_dict()
    except ValueError as exc:
        raise ValueError(f"{stem}: {exc}") from exc


def cmd_metrics_saliency(args) -> None:
    pairs = _pair_files(Path(args.pred_dir), Path(args.gt_dir))
    images = {stem: _saliency_row(stem, pred, gt) for stem, pred, gt in pairs}
    rows = list(images.values())
    means = {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}
    fileio.write_json(args.out, {"images": images, "dataset_mean": means, "count": len(rows)})


def cmd_metrics_instances(args) -> None:
    preds, _ = pipeline.load_candidates(args.pred_manifest)
    gt_manifest = Path(args.gt_manifest)
    gts = [
        fileio.read_mask(gt_manifest.parent / e["mask"])
        for e in pipeline.read_instance_manifest(gt_manifest)
    ]
    report = detection_report(DetectionSet(predictions=preds, ground_truths=gts))
    fileio.write_json(args.out, report)


def cmd_audit_params(args) -> None:
    if args.config:
        cfg = PipelineConfig.from_dict(fileio.read_json(args.config))
    else:
        cfg = PipelineConfig()
    report = pipeline.audit_params(cfg)
    fileio.write_json(args.out, report.as_dict())


def cmd_gradcheck(args) -> None:
    results = pipeline.gradcheck_all(seed=args.seed, instances=args.instances)
    report = {"ops": [r.as_dict() for r in results], "pass": all(r.passed for r in results)}
    fileio.write_json(args.out, report)
    if not report["pass"]:
        raise NumericalError("gradient check failed; see report")


def cmd_demo(args) -> None:
    fileio.write_json(None, pipeline.demo_synthetic(seed=args.seed, out_dir=args.out))


# ---------------------------------------------------------------- wiring


class _Parser(argparse.ArgumentParser):
    """Argparse maps usage errors to exit code 2; this CLI reserves 2 for I/O,
    so parse failures surface as validation errors (exit 1) instead."""

    def error(self, message):
        raise ValidationError(message)


def int64(text: str) -> int:
    """The type of every integer flag: a config's int (see config._typed), so
    a value past int64 is a usage error."""
    return _typed(text, int(text), 0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dsga",
        description="Graph-adapter toolkit: adapter/LoRA forward passes, prompt "
        "generation, instance dedup, losses, metrics, audit, and gradient checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="adapter forward pass on a TNS1 embedding field")
    p.add_argument("--input", required=True)
    p.add_argument("--params", required=True, help="directory of named TNS1 files")
    p.add_argument("--config", required=True, help="JSON adapter config")
    p.add_argument("--output", required=True)
    p.add_argument("--emit-graph", default=None)
    p.set_defaults(func=cmd_forward)

    lora = sub.add_parser("lora", help="low-rank update operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = lora.add_parser("apply", help="h = x W0^T + (alpha/r) x A^T B^T, r = rows of A")
    p.add_argument("--base", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_lora_apply)

    prompts = sub.add_parser("prompts", help="point-prompt generation").add_subparsers(
        dest="subcommand", required=True
    )
    p = prompts.add_parser("generate", help="grid-saliency prompts from a mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--grid", type=int64, default=64)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--nmin", type=int64, default=1)
    p.add_argument("--nmax", type=int64, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prompts_generate)

    instances = sub.add_parser("instances", help="instance post-processing").add_subparsers(
        dest="subcommand", required=True
    )
    p = instances.add_parser("dedup", help="greedy IoU suppression of candidates")
    p.add_argument("--manifest", required=True)
    p.add_argument("--iou-threshold", type=float, default=0.75)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_instances_dedup)

    loss = sub.add_parser("loss", help="composite loss evaluation").add_subparsers(
        dest="subcommand", required=True
    )
    p = loss.add_parser("eval", help="focal + dice + boundary on one image")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--weights", default="1,1,1")
    p.add_argument("--focal-gamma", type=float, default=2.0)
    p.add_argument("--focal-alpha", type=float, default=0.25)
    p.add_argument("--dice-smooth", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_loss_eval)
    p = loss.add_parser("ema-sim", help="replay a contribution trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--mode", choices=["scale_normalized", "raw"], default="scale_normalized")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_loss_ema_sim)

    metrics = sub.add_parser("metrics", help="evaluation suites").add_subparsers(
        dest="subcommand", required=True
    )
    p = metrics.add_parser("saliency", help="per-image and dataset-mean saliency metrics")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics_saliency)
    p = metrics.add_parser("instances", help="detection metrics for instance masks")
    p.add_argument("--pred-manifest", required=True)
    p.add_argument("--gt-manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics_instances)

    audit = sub.add_parser("audit", help="parameter accounting").add_subparsers(
        dest="subcommand", required=True
    )
    p = audit.add_parser("params", help="trainable-parameter audit vs reference totals")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit_params)

    p = sub.add_parser("gradcheck", help="finite-difference check of every vjp")
    p.add_argument("--seed", type=int64, default=0)
    p.add_argument("--instances", type=int64, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("demo", help="seeded synthetic end-to-end run")
    p.add_argument("--seed", type=int64, default=7)
    p.add_argument("--out", default="demo_artifacts")
    p.set_defaults(func=cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser: parsing leaves it unchanged (every call gets a
    fresh namespace), so ``main`` builds it once."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (fileio.FileFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
