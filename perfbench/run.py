"""Benchmark runner for the dsga toolkit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; the package is imported from its
``src`` directory. Workloads are closed loops with one client: each item
starts when the previous one returns. A run first times the imports five
times (here and in four fresh interpreters) and the set-up three times
(seeded inputs, params, files, one warm-up item) and reports the sum of the
two medians as ``setup_s``. It then measures whole passes over the seeded
input set until ``--seconds`` of item time and at least 11 items have
accumulated. Every item's output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes under the span tracer and tracemalloc, for about
``--seconds`` in all, and prints the per-layer metrics plus the tracing
overhead.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a run record with the
environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# import time varies more than set-up time and costs less to repeat
IMPORT_REPEATS = 5
# a fresh interpreter timing the imports this script makes before set-up
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = [{src!r}, {here!r}]; "
    "import run, tracer, workloads; print(time.perf_counter() - t0)"
)
MIN_BEYOND = 10
MIN_ITEMS = MIN_BEYOND + 1
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 25.0, 10.0, 0.0)

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]


def tail_percentile(samples):
    """Highest percentile in TAIL_PERCENTILES with at least MIN_BEYOND samples
    ranked above it (nearest-rank definition). Returns (percentile, value,
    samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(-(-round(p * 10) * n // 1000), 1)  # ceil(p/100 * n) in integers
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    raise ValueError(f"a tail needs at least {MIN_ITEMS} samples, got {n}")


def import_package():
    src = ROOT / "src"
    if not (src / "dsga" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dsga package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import dsga
    from dsga import adapter, cli, fileio, lora, losses, metrics, pipeline, prompts

    if Path(dsga.__file__).resolve().parent != (src / "dsga").resolve():
        raise ImportError(f"imported dsga from {dsga.__file__}, not from {src}")
    return {
        "adapter": adapter, "cli": cli, "fileio": fileio, "lora": lora, "losses": losses,
        "metrics": metrics, "pipeline": pipeline, "prompts": prompts,
    }


def import_seconds(first_s):
    """Median of this process's import time and IMPORT_REPEATS - 1 timings of
    the same imports in fresh interpreters."""
    code = IMPORT_PROBE.format(src=str(ROOT / "src"), here=str(HERE))
    times = [first_s]
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times), times


def environment(seed):
    import numpy as np
    import scipy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:  # not a repository that merely encloses the checkout
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": build.get("blas"),
        "lapack": build.get("lapack"),
        "git_commit": commit,
        "seed": seed,
    }


class Loop:
    """Closed loop, one client: runs items, times each call, checks outputs
    outside the clock and counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.pass_rates = []  # items that passed their check / item time, per pass
        self.attempted = 0
        self.failed = 0
        self.first_problem = None

    def _fail(self, name, msg):
        self.failed += 1
        if self.first_problem is None:
            self.first_problem = msg
            print(f"{name}: {msg}", file=sys.stderr)

    def _call(self, wl, inp):
        if self.tracer is None:
            return wl.run_item(inp)
        self.tracer.item = len(self.latencies)
        with self.tracer.span("bench.item"):
            return wl.run_item(inp)

    def item(self, wl, inp) -> float:
        """Run, time and check one item; returns its latency in seconds."""
        self.attempted += 1
        raised = None
        t0 = time.perf_counter()
        try:
            out = self._call(wl, inp)
        except Exception:
            raised = traceback.format_exc()
        self.latencies.append(time.perf_counter() - t0)
        if raised is not None:
            problems = ["item raised\n" + raised]
        else:
            try:
                problems = wl.check_item(inp, out)
            except Exception:
                problems = ["output check raised\n" + traceback.format_exc()]
        if problems:
            self._fail(wl.name, "; ".join(problems))
        return self.latencies[-1]

    def one_pass(self, wl):
        failed, spent = self.failed, 0.0
        for inp in wl.inputs:
            spent += self.item(wl, inp)
        self.pass_rates.append((len(wl.inputs) - (self.failed - failed)) / spent)

    def run_for(self, wl, seconds, min_items):
        """Whole passes until ``seconds`` of item time and ``min_items`` items."""
        while sum(self.latencies) < seconds or len(self.latencies) < min_items:
            self.one_pass(wl)

    def run_checks(self, wl):
        if hasattr(wl, "run_checks"):
            self.attempted += 1
            try:
                problems = wl.run_checks()
            except Exception:
                problems = ["run check raised\n" + traceback.format_exc()]
            if problems:
                self._fail(wl.name, "; ".join(problems))


def set_up(cls, seed, workdir, loop):
    """One set-up: seeded inputs, params and files, plus one warm-up item
    (its output check is not timed). Returns (workload, seconds)."""
    t0 = time.perf_counter()
    wl = cls()
    wl.setup(seed, workdir)
    generated = time.perf_counter() - t0
    return wl, generated + loop.item(wl, wl.inputs[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        modules = import_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.SaliencyEval:
        os.environ.pop("DSGA_THREADS", None)  # the workload runs the default pool size

    OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        record = run(cls, args, modules, tracing, work_root, import_s)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    record["environment"] = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("details " + json.dumps(record["details"], sort_keys=True))
    for name, m in record["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


def run(cls, args, modules, tracing, work_root, import_s):
    details = {"workload": cls.name, "item": cls.item, "sizes": cls.sizes,
               "loop": "closed, 1 client", "seconds": args.seconds}
    loop = Loop()
    if args.trace == 0:
        import_s, imports = import_seconds(import_s)
        setups = []
        for rep in range(SETUP_REPEATS):
            wl, dt = set_up(cls, args.seed, work_root / f"setup{rep}", loop)
            setups.append(dt)
        loop.latencies.clear()
        loop.run_for(wl, args.seconds, MIN_ITEMS)
        lat = loop.latencies
        loop.run_checks(wl)
        pct, tail, beyond = tail_percentile(lat)
        values = {
            "setup_s": import_s + statistics.median(setups),
            "items_per_s": statistics.median(loop.pass_rates),
            "item_p50_ms": 1e3 * statistics.median(lat),
            "item_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (loop.attempted - loop.failed) / loop.attempted,
        }
        details.update(
            import_repeats_s=imports, setup_repeats_s=setups, items=len(lat), passes=len(loop.pass_rates),
            latencies_ms=[round(1e3 * t, 3) for t in lat],
            p50_samples=len(lat), tail_percentile=pct, tail_samples_beyond=beyond,
        )
        units = dict(END_TO_END)
    else:
        wl, _ = set_up(cls, args.seed, work_root / "setup0", loop)
        loop.latencies.clear()
        tracer = tracing.Tracer()
        traced = Loop(tracer)
        # untraced and traced passes alternate, so drift in machine speed hits both alike
        while sum(loop.latencies) < args.seconds / 2.0:
            loop.one_pass(wl)
            tracemalloc.start()
            tracer.install(modules)
            try:
                traced.one_pass(wl)
            finally:
                tracer.uninstall()
                tracemalloc.stop()
        loop.run_checks(wl)
        overhead = sum(traced.latencies) / sum(loop.latencies) - 1.0
        values = tracing.layer_metrics(tracer.spans, len(traced.latencies), overhead)
        tracer.write(OUT / f"{cls.name}-seed{args.seed}.spans.jsonl")
        loop.attempted += traced.attempted
        loop.failed += traced.failed
        details.update(passes_each_phase=len(traced.pass_rates), items_traced=len(traced.latencies),
                       spans=len(tracer.spans))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    details["error_rate"] = loop.failed / loop.attempted
    details["first_problem"] = loop.first_problem
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return {"result": result, "details": details}


if __name__ == "__main__":
    sys.exit(main())
