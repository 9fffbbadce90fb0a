"""Span tracer for the traced benchmark run.

It wraps public functions of the dsga modules by replacing module
attributes; the package resolves these names at call time, so every call
goes through the wrapper. Spans (id, name, start, end, parent, item, thread,
attrs) are kept in memory and written once at the end. Nothing here is
active in the untraced run, which is the source of every end-to-end number.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[int]
    thread: int
    attrs: Optional[dict]


def _path_bytes(args, kwargs, result):
    path = args[0] if args else next(iter(kwargs.values()))
    return {"bytes": os.path.getsize(path)}


def _dedup_counts(args, kwargs, result):
    candidates = args[0] if args else kwargs["candidates"]
    return {"candidates": len(candidates), "kept": len(result)}


# (module, attribute, span name, attrs hook, record tracemalloc peak)
WRAPPED = [
    ("adapter", "dsga_forward", "adapter.dsga_forward", None, True),
    ("adapter", "dsga_vjp", "adapter.dsga_vjp", None, False),
    ("adapter", "similarity_matrix", "adapter.similarity_matrix", None, False),
    ("adapter", "build_graph", "adapter.build_graph", None, False),
    ("adapter", "propagate", "adapter.propagate", None, False),
    ("adapter", "check_finite", "numerics.check_finite", None, False),
    ("adapter", "l2_normalize", "numerics.l2_normalize", None, False),
    ("adapter", "matmul", "numerics.matmul", None, False),
    ("adapter", "gelu", "numerics.gelu", None, False),
    ("lora", "check_finite", "numerics.check_finite", None, False),
    ("lora", "lora_apply", "lora.apply", None, False),
    ("lora", "lora_vjp", "lora.vjp", None, False),
    ("losses", "combined_loss", "losses.combined_loss", None, False),
    ("losses", "loss_grads", "losses.loss_grads", None, False),
    ("losses", "signed_distance", "losses.signed_distance", None, False),
    ("cli", "main", "cli.call", None, False),
    ("cli", "evaluate_saliency", "metrics.evaluate_saliency", None, False),
    ("metrics", "threshold_sweep", "metrics.threshold_sweep", None, False),
    ("metrics", "s_measure", "metrics.s_measure", None, False),
    ("metrics", "e_measure", "metrics.e_measure", None, False),
    ("metrics", "detection_report", "metrics.detection_report", None, False),
    ("metrics", "ap50", "metrics.ap50", None, False),
    ("metrics", "mask_iou", "metrics.mask_iou", None, False),
    ("fileio", "check_finite", "numerics.check_finite", None, False),
    ("fileio", "read_saliency", "fileio.read_saliency", _path_bytes, False),
    ("fileio", "read_mask", "fileio.read_mask", _path_bytes, False),
    ("fileio", "read_tns", "fileio.read_tns", _path_bytes, False),
    ("fileio", "read_json", "fileio.read_json", _path_bytes, False),
    ("pipeline", "run_stage_transition", "pipeline.stage_transition", None, False),
    ("pipeline", "load_candidates", "pipeline.load_candidates", None, False),
    ("pipeline", "generate_prompts", "prompts.generate_prompts", None, False),
    ("pipeline", "dedup_instances", "prompts.dedup", _dedup_counts, False),
    ("prompts", "grid_saliency", "prompts.grid_saliency", None, False),
    ("prompts", "cell_centroid", "prompts.cell_centroid", None, False),
    ("prompts", "mask_iou", "prompts.mask_iou", None, False),
]


class Tracer:
    """Records spans while installed. Worker-thread spans with no open span
    of their own take the installing thread's innermost open span as parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, self.item, threading.get_ident(), None)
            )

    def _wrap(self, fn, name, attrs_hook, peak):
        tracer = self

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            sid, parent, stack = tracer._open()
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = attrs_hook(args, kwargs, result) if attrs_hook else None
            if peak:
                attrs = {"traced_peak_bytes": tracemalloc.get_traced_memory()[1] - base}
            tracer.spans.append(
                Span(sid, name, start, end, parent, tracer.item, threading.get_ident(), attrs)
            )
            return result

        return inner

    def install(self, modules: dict) -> None:
        """Patch every WRAPPED attribute of ``modules`` (short name -> module)."""
        self._main_stack = self._stack()
        for mod_name, attr, name, hook, peak in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook, peak))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans
    (children on other threads may overlap each other; their union counts)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


# (metric, unit, better) for the traced run; values are per item unless the
# name says otherwise
PER_LAYER = [
    ("adapter.similarity_matrix_ms", "ms", "lower"),
    ("adapter.build_graph_ms", "ms", "lower"),
    ("adapter.propagate_ms", "ms", "lower"),
    ("numerics.check_finite_ms", "ms", "lower"),
    ("numerics.l2_normalize_ms", "ms", "lower"),
    ("adapter.peak_traced_mb", "MB", "lower"),
    ("adapter.forward_self_ms", "ms", "lower"),
    ("numerics.matmul_ms", "ms", "lower"),
    ("numerics.gelu_ms", "ms", "lower"),
    ("adapter.vjp_self_ms", "ms", "lower"),
    ("adapter.similarity_calls_per_step", "count", "lower"),
    ("lora.apply_ms", "ms", "lower"),
    ("lora.vjp_ms", "ms", "lower"),
    ("losses.combined_loss_ms", "ms", "lower"),
    ("losses.loss_grads_ms", "ms", "lower"),
    ("losses.signed_distance_ms", "ms", "lower"),
    ("losses.signed_distance_calls_per_step", "count", "lower"),
    ("metrics.evaluate_saliency_ms", "ms", "lower"),
    ("metrics.threshold_sweep_ms", "ms", "lower"),
    ("metrics.s_measure_ms", "ms", "lower"),
    ("metrics.e_measure_calls_per_image", "count", "lower"),
    ("fileio.read_ms", "ms", "lower"),
    ("fileio.bytes_read", "bytes", "lower"),
    ("cli.call_ms", "ms", "lower"),
    ("cli.pool_busy_frac", "ratio", "higher"),
    ("pipeline.stage_transition_ms", "ms", "lower"),
    ("pipeline.load_candidates_ms", "ms", "lower"),
    ("prompts.generate_prompts_ms", "ms", "lower"),
    ("prompts.grid_saliency_ms", "ms", "lower"),
    ("prompts.cell_centroid_ms", "ms", "lower"),
    ("prompts.cell_centroid_calls", "count", "lower"),
    ("prompts.dedup_ms", "ms", "lower"),
    ("prompts.dedup_iou_calls", "count", "lower"),
    ("prompts.dedup_kept_ratio", "ratio", "higher"),
    ("metrics.detection_report_ms", "ms", "lower"),
    ("metrics.ap50_ms", "ms", "lower"),
    ("metrics.mask_iou_calls_per_report", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def layer_metrics(spans, n_items: int, overhead_frac: float) -> dict:
    """Per-layer values from the spans of ``n_items`` traced items. Layers a
    workload does not reach read 0."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def ms(name):
        return 1e3 * sum(s.end - s.start for s in by_name[name]) / n_items

    def self_ms(name):
        return 1e3 * sum(own[s.id] for s in by_name[name]) / n_items

    def count(name):
        return len(by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    top_reads = [
        s for s in spans
        if s.name.startswith("fileio.")
        and not (s.parent in by_id and by_id[s.parent].name.startswith("fileio."))
    ]
    busy = wall = 0.0
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    for call in by_name["cli.call"]:
        kids = children.get(call.id, [])
        if kids:
            busy += sum(k.end - k.start for k in kids)
            wall += (call.end - call.start) * len({k.thread for k in kids})
    dedup = by_name["prompts.dedup"]
    peaks = [s.attrs["traced_peak_bytes"] for s in by_name["adapter.dsga_forward"]]
    values = {
        "adapter.similarity_matrix_ms": ms("adapter.similarity_matrix"),
        "adapter.build_graph_ms": ms("adapter.build_graph"),
        "adapter.propagate_ms": ms("adapter.propagate"),
        "numerics.check_finite_ms": ms("numerics.check_finite"),
        "numerics.l2_normalize_ms": ms("numerics.l2_normalize"),
        "adapter.peak_traced_mb": statistics.median(peaks) / 2**20 if peaks else 0.0,
        "adapter.forward_self_ms": self_ms("adapter.dsga_forward"),
        "numerics.matmul_ms": ms("numerics.matmul"),
        "numerics.gelu_ms": ms("numerics.gelu"),
        "adapter.vjp_self_ms": self_ms("adapter.dsga_vjp"),
        "adapter.similarity_calls_per_step": count("adapter.similarity_matrix") / n_items,
        "lora.apply_ms": ms("lora.apply"),
        "lora.vjp_ms": ms("lora.vjp"),
        "losses.combined_loss_ms": ms("losses.combined_loss"),
        "losses.loss_grads_ms": ms("losses.loss_grads"),
        "losses.signed_distance_ms": ms("losses.signed_distance"),
        "losses.signed_distance_calls_per_step": count("losses.signed_distance") / n_items,
        "metrics.evaluate_saliency_ms": ms("metrics.evaluate_saliency"),
        "metrics.threshold_sweep_ms": ms("metrics.threshold_sweep"),
        "metrics.s_measure_ms": ms("metrics.s_measure"),
        "metrics.e_measure_calls_per_image": ratio(
            count("metrics.e_measure"), count("metrics.evaluate_saliency")
        ),
        "fileio.read_ms": 1e3 * sum(s.end - s.start for s in top_reads) / n_items,
        "fileio.bytes_read": sum(s.attrs["bytes"] for s in top_reads) / n_items,
        "cli.call_ms": ms("cli.call"),
        "cli.pool_busy_frac": ratio(busy, wall),
        "pipeline.stage_transition_ms": ms("pipeline.stage_transition"),
        "pipeline.load_candidates_ms": ms("pipeline.load_candidates"),
        "prompts.generate_prompts_ms": ms("prompts.generate_prompts"),
        "prompts.grid_saliency_ms": ms("prompts.grid_saliency"),
        "prompts.cell_centroid_ms": ms("prompts.cell_centroid"),
        "prompts.cell_centroid_calls": count("prompts.cell_centroid") / n_items,
        "prompts.dedup_ms": ms("prompts.dedup"),
        "prompts.dedup_iou_calls": count("prompts.mask_iou") / n_items,
        "prompts.dedup_kept_ratio": ratio(
            sum(s.attrs["kept"] for s in dedup), sum(s.attrs["candidates"] for s in dedup)
        ),
        "metrics.detection_report_ms": ms("metrics.detection_report"),
        "metrics.ap50_ms": ms("metrics.ap50"),
        "metrics.mask_iou_calls_per_report": ratio(
            count("metrics.mask_iou"), count("metrics.detection_report")
        ),
        "trace.overhead_frac": overhead_frac,
    }
    return values
