"""Tests for the benchmark's own logic: tail-percentile selection, self-time
subtraction, tracer install/uninstall, generator determinism, the white-noise
gradient check, and the refusal to run outside a checkout.

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, value",
    [(11, 0.0, 1), (12, 10.0, 2), (19, 25.0, 5), (20, 50.0, 10), (40, 75.0, 30),
     (100, 90.0, 90), (200, 95.0, 190), (1000, 99.0, 990), (10000, 99.9, 9990)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, value):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    p, v, beyond = run.tail_percentile(samples)
    assert (p, v) == (percentile, value)
    assert beyond == sum(s > v for s in samples) >= run.MIN_BEYOND


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(10)))


def span(sid, start, end, parent=None, name="x", thread=0):
    return tracing.Span(sid, name, start, end, parent, 0, thread, None)


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(1, 3), (2, 5), (8, 12), (6, 6)], 0, 10) == 6
    assert tracing.covered_length([(-5, -1), (11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1, thread=1),  # overlapping children on two threads
        span(3, 2.0, 5.0, parent=1, thread=2),
        span(4, 1.5, 2.0, parent=2, thread=1),  # grandchild: only its parent loses it
        span(5, 8.0, 10.0, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 4.0, 2: 1.5, 3: 3.0, 4: 0.5, 5: 2.0}


def test_tracer_wraps_and_restores():
    modules = run.import_package()
    cli, prompts = modules["cli"], modules["prompts"]
    originals = {(m, a): getattr(modules[m], a) for m, a, *_ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        rng = np.random.default_rng(0)
        gt = rng.random((24, 32)) > 0.6
        cli.evaluate_saliency(rng.random((24, 32)), gt)
        prompts.mask_iou(gt, gt)
    finally:
        tracer.uninstall()
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())
    values = tracing.layer_metrics(tracer.spans, 1, 0.5)
    assert values["metrics.e_measure_calls_per_image"] == 257
    assert values["prompts.dedup_iou_calls"] == 1
    assert values["metrics.threshold_sweep_ms"] > 0
    assert values["adapter.build_graph_ms"] == 0
    assert list(values) == [name for name, _, _ in tracing.PER_LAYER]


def _snapshot(obj, root):
    """Comparable form of generated inputs: arrays as bytes, files by content."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, Path):
        rel = obj.relative_to(root)
        if obj.is_dir():
            return (str(rel), sorted((p.name, p.read_bytes()) for p in obj.iterdir()))
        return (str(rel), obj.read_bytes() if obj.exists() else None)
    if isinstance(obj, (list, tuple)):
        return [_snapshot(o, root) for o in obj]
    if isinstance(obj, dict):
        return {k: _snapshot(v, root) for k, v in obj.items()}
    return obj


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    snaps = []
    for i, seed in enumerate((3, 3, 4)):
        wl = cls()
        root = tmp_path / str(i)
        wl.setup(seed, root)
        snaps.append(_snapshot(wl.inputs, root))
    assert snaps[0] == snaps[1]
    assert snaps[0] != snaps[2]


@pytest.mark.parametrize("wrong", [None, "dx", "down_w", "down_b", "fusion_w", "rank_logits"])
def test_white_noise_check_catches_a_wrong_gradient(wrong, monkeypatch):
    adapter = workloads.adapter
    cfg = adapter.DsgaConfig(embed_dim=workloads.EMBED_DIM, k_max=workloads.K_MAX, mode="eval")
    p64 = workloads.params_f64(workloads.adapter_params(np.random.default_rng(0)))
    vjp = adapter.dsga_vjp

    def off_by_five_percent(*args):
        dx, grads = vjp(*args)
        if wrong == "dx":
            return 1.05 * dx, grads
        setattr(grads, wrong, 1.05 * getattr(grads, wrong))
        return dx, grads

    if wrong is not None:
        monkeypatch.setattr(adapter, "dsga_vjp", off_by_five_percent)
    problems = workloads.noise_vjp_problems(p64, cfg, np.random.default_rng(1))
    assert bool(problems) == (wrong is not None)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "instance_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
