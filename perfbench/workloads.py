"""The four benchmark workloads: seeded input generators, the timed item that
calls into the dsga package, and per-item output checks written
independently of the code being timed.

Every package call goes through a module attribute (``adapter.dsga_forward``,
``cli.main``, ...) looked up at call time, so the tracer's wrappers see it.
Generators take the run seed and hand the package only the generated
arrays and files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import erf

from dsga import adapter, cli, lora, losses, metrics, pipeline, prompts

EMBED_DIM = 768
K_MAX = 8
# adaptive_k at the initial theta_k = log(K_MAX / 2): floor(0.8 * 7 + 1) = 6
EXPECTED_K = 6
# the package's similarities differ from a float64 recomputation by about
# 2e-8; neighbours must form a valid top-k of the float64 ranking within this
SIM_TOL = 1e-6
TAU_O = 0.75
BETA_SQ = 0.3


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


# ------------------------------------------------------------------ generators


def smooth_field(rng, h, w, c, cells=8, noise=0.05, dtype=np.float32):
    """Bilinear upsampling of a (cells+1)^2 Gaussian grid plus white noise,
    with one rectangle of identical tokens so that top-k ties occur."""
    coarse = rng.standard_normal((cells + 1, cells + 1, c))
    ys = np.linspace(0.0, cells, h)
    xs = np.linspace(0.0, cells, w)
    y0 = np.minimum(ys.astype(int), cells - 1)
    x0 = np.minimum(xs.astype(int), cells - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = coarse[y0][:, x0] * (1 - fx) + coarse[y0][:, x0 + 1] * fx
    bot = coarse[y0 + 1][:, x0] * (1 - fx) + coarse[y0 + 1][:, x0 + 1] * fx
    field = top * (1 - fy) + bot * fy + noise * rng.standard_normal((h, w, c))
    fh, fw = int(rng.integers(h // 8, h // 4 + 1)), int(rng.integers(w // 8, w // 4 + 1))
    fy0, fx0 = int(rng.integers(0, h - fh + 1)), int(rng.integers(0, w - fw + 1))
    field[fy0 : fy0 + fh, fx0 : fx0 + fw] = field[fy0, fx0]
    flat = (np.arange(h)[:, None] >= fy0) & (np.arange(h)[:, None] < fy0 + fh)
    flat = flat & (np.arange(w)[None, :] >= fx0) & (np.arange(w)[None, :] < fx0 + fw)
    return field[None].astype(dtype), np.flatnonzero(flat)


def adapter_params(rng, d=EMBED_DIM):
    """Seeded f32 adapter parameters with the package's init distribution."""
    dh = d // 4

    def linear(fan_in, shape):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    r = np.arange(K_MAX, dtype=np.float64)
    return adapter.DsgaParams(
        down_w=linear(d, (d, dh)),
        down_b=linear(d, (dh,)),
        up_w=linear(dh, (dh, d)),
        up_b=linear(dh, (d,)),
        fusion_w=linear(dh, (dh, dh)),
        rank_logits=(1.0 - (r / (K_MAX - 1)) ** 2.0).astype(np.float32),
        theta_k=math.log(K_MAX / 2.0),
        w_p_raw=float(rng.normal(0.0, 0.5)),
        w_n_raw=float(rng.normal(0.0, 0.5)),
    )


def params_f64(params):
    return adapter.DsgaParams(
        **{k: v.astype(np.float64) for k, v in params.named_arrays().items()},
        theta_k=params.theta_k, w_p_raw=params.w_p_raw, w_n_raw=params.w_n_raw,
    )


def smooth_map(rng, h, w, cells=6):
    """A smooth 2-D scalar field (bilinear upsampling of a coarse grid)."""
    return smooth_field(rng, h, w, 1, cells=cells, noise=0.0, dtype=np.float64)[0][0, ..., 0]


def pred_gt_pair(rng, h, w, fg_frac):
    """Ground truth with the requested foreground fraction (0 and 1 allowed)
    and a prediction in (0, 1) that correlates with it."""
    field = smooth_map(rng, h, w)
    if fg_frac <= 0.0:
        gt = np.zeros((h, w), dtype=bool)
    elif fg_frac >= 1.0:
        gt = np.ones((h, w), dtype=bool)
    else:
        gt = field > np.quantile(field, 1.0 - fg_frac)
    logits = 3.0 * (gt.astype(np.float64) - 0.5) + 0.8 * rng.standard_normal((h, w))
    logits += 2.0 * (field - field.mean()) / (field.std() + 1e-12)
    # away from 0 and 1, so central differences on the loss stay in range
    return np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-3, 1.0 - 1e-3), gt


def write_pgm(path, gray_u8):
    h, w = gray_u8.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + gray_u8.tobytes())


def write_tns_f32(path, arr):
    header = json.dumps({"shape": list(arr.shape), "dtype": "f32"}) + "\n"
    Path(path).write_bytes(header.encode("ascii") + arr.astype("<f4").tobytes())


# ----------------------------------------------------------- reference checks


def gelu64(x):
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def topk_problems(sim_row, row, chosen, k, tol=SIM_TOL):
    """Is ``chosen`` (descending order) a valid top-k of ``sim_row`` without
    the self entry, up to ``tol``?"""
    s = np.array(sim_row, dtype=np.float64)
    s[row] = -np.inf
    if len(set(chosen.tolist())) != k or row in chosen:
        return [f"row {row}: neighbours {chosen.tolist()} not k={k} distinct non-self"]
    kth = np.partition(s, -k)[-k]
    vals = s[chosen]
    out = []
    if np.any(vals < kth - tol):
        out.append(f"row {row}: a neighbour ranks below the float64 top-{k}")
    if np.any(np.diff(vals) > tol):
        out.append(f"row {row}: neighbours not in descending similarity")
    must = np.flatnonzero(s > kth + tol)
    if not np.isin(must, chosen).all():
        out.append(f"row {row}: a clear float64 top-{k} neighbour is missing")
    return out


def pairwise_iou(masks):
    """Brute-force IoU matrix from boolean counts. It avoids BLAS on purpose:
    a BLAS call wakes worker threads that keep spinning into the next item."""
    stack = np.stack([m.reshape(-1) for m in masks])
    inter = np.stack([np.count_nonzero(row & stack, axis=1) for row in stack])
    area = np.diag(inter)
    union = area[:, None] + area[None, :] - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def f_curve(sal, gt, thresholds):
    """F-measure at each threshold (strict sal > t) from sorted counts."""
    n_gt = int(gt.sum())
    all_sorted = np.sort(sal.reshape(-1))
    fg_sorted = np.sort(sal[gt])
    pos = all_sorted.size - np.searchsorted(all_sorted, thresholds, side="right")
    tp = fg_sorted.size - np.searchsorted(fg_sorted, thresholds, side="right")
    out = []
    for p_count, tp_count in zip(pos.tolist(), tp.tolist()):
        if p_count == 0:
            precision = 1.0 if n_gt == 0 else 0.0
        else:
            precision = tp_count / p_count
        recall = 1.0 if n_gt == 0 else tp_count / n_gt
        den = BETA_SQ * precision + recall
        out.append(0.0 if den == 0.0 else (1.0 + BETA_SQ) * precision * recall / den)
    return np.array(out)


# ------------------------------------------------------------------ workloads


class AdapterInfer:
    name = "adapter_infer"
    item = "one dsga_forward, eval mode, f32 params, batch 1"
    sizes = "64x64x768 token grid (N=4096), 4 fields per pass"
    fields = 4
    grid = 64
    sample_rows = 3

    def setup(self, seed, workdir):
        rng = _rng(seed, 1)
        self.cfg = adapter.DsgaConfig(embed_dim=EMBED_DIM, k_max=K_MAX, mode="eval")
        self.params = adapter_params(rng)
        self.inputs = [smooth_field(rng, self.grid, self.grid, EMBED_DIM) for _ in range(self.fields)]
        self.check_rng = _rng(seed, 2)

    def run_item(self, inp):
        return adapter.dsga_forward(inp[0], self.params, self.cfg)

    def check_item(self, inp, result):
        x, flat = inp
        out, graph = result
        problems = []
        if out.shape != x.shape or out.dtype != x.dtype:
            problems.append(f"output {out.shape} {out.dtype}, input {x.shape} {x.dtype}")
        if not np.isfinite(out).all():
            problems.append("non-finite output")
        n = x.shape[1] * x.shape[2]
        nb = np.asarray(graph.neighbors)
        if graph.k != EXPECTED_K or nb.shape != (1, n, EXPECTED_K):
            return problems + [f"graph k={graph.k}, neighbours {nb.shape}"]
        row_sum = np.asarray(graph.self_weights) + np.asarray(graph.edge_weights).sum(-1)
        if np.abs(row_sum - 1.0).max() > 1e-12:
            problems.append("graph rows do not sum to 1")
        srt = np.sort(nb[0], axis=1)
        if (np.diff(srt, axis=1) == 0).any() or (nb[0] == np.arange(n)[:, None]).any():
            problems.append("neighbour rows repeat an index or include self")
        rows = self.check_rng.choice(n, self.sample_rows, replace=False).tolist()
        rows.append(int(flat[self.check_rng.integers(flat.size)]))
        z = gelu64(
            x.reshape(n, -1).astype(np.float64) @ self.params.down_w.astype(np.float64)
            + self.params.down_b.astype(np.float64)
        )
        zh = z / (np.sqrt((z * z).sum(-1, keepdims=True)) + 1e-12)
        sims = np.tanh(zh[rows] @ zh.T / math.sqrt(z.shape[1]))
        for row, sim in zip(rows, sims):
            problems += topk_problems(sim, row, nb[0, row], EXPECTED_K)
        return problems


class AdapterTrain:
    name = "adapter_train"
    item = ("one training step: dsga_forward, combined_loss + loss_grads, dsga_vjp, "
            "lora_apply + lora_vjp for query and value")
    sizes = "32x32x768 grid (N=1024), 256x256 pred/GT, LoRA 768x768 r=8 over 1024 tokens, 3 inputs per pass"
    inputs_per_pass = 3
    grid = 32
    rank = 8

    def setup(self, seed, workdir):
        self.seed = seed
        rng = _rng(seed, 3)
        self.cfg = adapter.DsgaConfig(embed_dim=EMBED_DIM, k_max=K_MAX, mode="eval")
        self.params = adapter_params(rng)
        self.weights = losses.LossWeights()
        self.hyper = losses.LossHyper()
        self.layers = []
        for _ in ("query", "value"):
            bound = 1.0 / math.sqrt(EMBED_DIM)
            w0 = rng.uniform(-bound, bound, (EMBED_DIM, EMBED_DIM)).astype(np.float32)
            a = (0.01 * rng.standard_normal((self.rank, EMBED_DIM))).astype(np.float32)
            b = (0.01 * rng.standard_normal((EMBED_DIM, self.rank))).astype(np.float32)
            self.layers.append(
                lora.LoraLayer(w0=w0, a=a, b=b, rank=self.rank, alpha=float(self.rank))
            )
        self.inputs = []
        for i in range(self.inputs_per_pass):
            x, _ = smooth_field(rng, self.grid, self.grid, EMBED_DIM)
            pred, gt = pred_gt_pair(rng, 256, 256, (0.1, 0.3, 0.5)[i % 3])
            upstream = rng.standard_normal(x.shape)
            token_up = [rng.standard_normal((self.grid * self.grid, EMBED_DIM)) for _ in self.layers]
            self.inputs.append((x, pred, gt, upstream, token_up))

    def run_item(self, inp):
        x, pred, gt, upstream, token_up = inp
        out, _ = adapter.dsga_forward(x, self.params, self.cfg)
        total, _ = losses.combined_loss(pred, gt, self.weights, self.hyper)
        d_pred = losses.loss_grads(pred, gt, self.weights, self.hyper)
        dx, grads = adapter.dsga_vjp(x, self.params, self.cfg, upstream)
        tokens = out.reshape(-1, EMBED_DIM)
        lora_out = []
        for layer, up in zip(self.layers, token_up):
            lora_out.append(lora.lora_apply(layer, tokens))
            lora_out.append(lora.lora_vjp(layer, tokens, up))
        return out, total, d_pred, dx, grads, lora_out

    def check_item(self, inp, result):
        x, pred = inp[0], inp[1]
        out, total, d_pred, dx, grads, lora_out = result
        problems = []
        if out.shape != x.shape or dx.shape != x.shape or d_pred.shape != pred.shape:
            problems.append("output, dx or loss-gradient shape mismatch")
        arrays = {"out": out, "loss": np.asarray(total), "d_pred": d_pred, "dx": dx}
        arrays.update({f"d_{k}": v for k, v in grads.named_arrays().items()})
        for j, (h, (ldx, da, db)) in enumerate(zip(lora_out[::2], lora_out[1::2])):
            arrays.update({f"lora{j}.h": h, f"lora{j}.dx": ldx, f"lora{j}.da": da, f"lora{j}.db": db})
        for key in ("w_p_raw", "w_n_raw"):
            arrays[f"d_{key}"] = np.asarray(getattr(grads, key))
        problems += [f"{k} not finite" for k, v in arrays.items() if not np.isfinite(v).all()]
        return problems

    def run_checks(self):
        """Directional central differences in float64 for the three gradient
        families of the step, outside the timed region."""
        x, pred, gt, upstream, token_up = self.inputs[0]
        rng = _rng(self.seed, 4)
        problems = []
        p64 = params_f64(self.params)
        x64 = x.astype(np.float64)
        # only parameters past every discrete choice: moving fusion_w, the rank
        # logits or down_w flips near-tied max-pool argmaxes in these smooth
        # fields, and central differences then miss by up to 1e-2
        names = ("up_w", "up_b")
        direction = {k: rng.standard_normal(getattr(p64, k).shape) for k in names}
        dw = (float(rng.standard_normal()), float(rng.standard_normal()))
        _, grads = adapter.dsga_vjp(x64, p64, self.cfg, upstream)
        analytic = sum(float(np.sum(getattr(grads, k) * v)) for k, v in direction.items())
        analytic += grads.w_p_raw * dw[0] + grads.w_n_raw * dw[1]

        def objective(t):
            moved = adapter.DsgaParams(
                **{k: v + t * direction[k] if k in direction else v
                   for k, v in p64.named_arrays().items()},
                theta_k=p64.theta_k, w_p_raw=p64.w_p_raw + t * dw[0], w_n_raw=p64.w_n_raw + t * dw[1],
            )
            return float(np.sum(upstream * adapter.dsga_forward(x64, moved, self.cfg)[0]))

        problems += _fd_problems("dsga_vjp", objective, analytic)
        problems += noise_vjp_problems(p64, self.cfg, rng)

        v = rng.standard_normal(pred.shape)
        g = losses.loss_grads(pred, gt, self.weights, self.hyper)
        problems += _fd_problems(
            "loss_grads",
            lambda t: losses.combined_loss(pred + t * v, gt, self.weights, self.hyper)[0],
            float(np.sum(g * v)),
        )

        layer = self.layers[0]
        tokens = rng.standard_normal((64, EMBED_DIM))
        up = token_up[0][:64]
        va, vb = rng.standard_normal(layer.a.shape), rng.standard_normal(layer.b.shape)
        _, da, db = lora.lora_vjp(layer, tokens, up)

        def lora_objective(t):
            moved = lora.LoraLayer(
                w0=layer.w0.astype(np.float64), a=layer.a + t * va, b=layer.b + t * vb,
                rank=layer.rank, alpha=layer.alpha,
            )
            return float(np.sum(up * lora.lora_apply(moved, tokens)))

        problems += _fd_problems("lora_vjp", lora_objective, float(np.sum(da * va) + np.sum(db * vb)))
        return problems


# a step small enough that max-pool winners rarely change within it, and
# large enough that float64 rounding in the objective stays far below the
# tolerance
NOISE_STEP = 1e-7


def noise_vjp_problems(p64, cfg, rng, grid=8):
    """Central difference of ``dsga_vjp`` along a direction that moves x and
    every parameter but theta_k (which sits behind a floor), on white noise.
    Without tied tokens the max-pool and top-k gaps are far wider than the
    step, so the pooling VJP, the scatter and the down-projection are checked
    too. Each direction is scaled to its array's spread."""
    x = rng.standard_normal((1, grid, grid, EMBED_DIM))
    upstream = rng.standard_normal(x.shape)
    arrays = p64.named_arrays()
    direction = {k: rng.standard_normal(v.shape) * v.std() for k, v in arrays.items()}
    vx = rng.standard_normal(x.shape)
    dw = (float(rng.standard_normal()), float(rng.standard_normal()))
    dx, grads = adapter.dsga_vjp(x, p64, cfg, upstream)
    g = grads.named_arrays()
    analytic = sum(float(np.sum(g[k] * v)) for k, v in direction.items())
    analytic += float(np.sum(dx * vx)) + grads.w_p_raw * dw[0] + grads.w_n_raw * dw[1]

    def forward(t):
        moved = adapter.DsgaParams(
            **{k: v + t * direction[k] for k, v in arrays.items()},
            theta_k=p64.theta_k, w_p_raw=p64.w_p_raw + t * dw[0], w_n_raw=p64.w_n_raw + t * dw[1],
        )
        return adapter.dsga_forward(x + t * vx, moved, cfg)

    # the VJP holds the graph fixed; shrink the step until it stays fixed
    h = NOISE_STEP
    base = np.asarray(forward(0.0)[1].neighbors)
    while any(not np.array_equal(np.asarray(forward(t)[1].neighbors), base) for t in (h, -h)):
        h /= 10.0
    objective = lambda t: float(np.sum(upstream * forward(t)[0]))  # noqa: E731
    return _fd_problems("dsga_vjp on white noise", objective, analytic, h=h)


def _fd_problems(op, objective, analytic, h=1e-5, tol=1e-4):
    numeric = (objective(h) - objective(-h)) / (2.0 * h)
    err = abs(numeric - analytic) / max(1.0, abs(analytic))
    if not err <= tol:
        return [f"{op}: directional derivative {analytic:.6g} vs central difference {numeric:.6g}"]
    return []


# one directory per item: (height, width, prediction format, GT foreground
# fraction) per map. The mix is fixed so that every seed costs the same; the
# seed changes only the map contents. The largest map comes first: set-up
# warms up on the first item, and large first allocations are slow.
SALIENCY_DIRS = [
    [(512, 512, "tns", 0.1)],
    [(256, 256, "pgm", 0.0)],
    [(256, 384, "pgm", 1.0), (320, 320, "tns", 0.4)],
    [(384, 256, "tns", 0.6)],
    [(384, 384, "pgm", 0.25), (256, 256, "tns", 0.02)],
    [(288, 448, "tns", 0.25)],
    [(448, 448, "pgm", 0.1), (256, 320, "pgm", 0.4)],
    [(512, 384, "tns", 0.6)],
    [(320, 320, "pgm", 0.02)],
    [(384, 512, "pgm", 0.25), (256, 256, "tns", 0.6)],
]


class SaliencyEval:
    name = "saliency_eval"
    item = "one in-process `dsga metrics saliency` call over one directory pair, DSGA_THREADS unset"
    sizes = "10 directories of 1-2 maps, 256x256 to 512x512 incl. non-square, PGM and TNS predictions"

    def setup(self, seed, workdir):
        rng = _rng(seed, 5)
        self.inputs = []
        for d, maps in enumerate(SALIENCY_DIRS):
            pred_dir, gt_dir = workdir / f"sal{d}" / "pred", workdir / f"sal{d}" / "gt"
            pred_dir.mkdir(parents=True)
            gt_dir.mkdir(parents=True)
            images = {}
            for i, (h, w, fmt, frac) in enumerate(maps):
                pred, gt = pred_gt_pair(rng, h, w, frac)
                stem = f"img{i}"
                if fmt == "pgm":
                    q = np.rint(pred * 255.0).astype(np.uint8)
                    write_pgm(pred_dir / f"{stem}.pgm", q)
                    sal = q.astype(np.float64) / 255.0
                else:
                    write_tns_f32(pred_dir / f"{stem}.tns", pred)
                    sal = pred.astype(np.float32).astype(np.float64)
                write_pgm(gt_dir / f"{stem}.pgm", gt.astype(np.uint8) * 255)
                images[stem] = (sal, gt)
            self.inputs.append((pred_dir, gt_dir, workdir / f"sal{d}" / "report.json", images, {}))

    def run_item(self, inp):
        pred_dir, gt_dir, out_path = inp[:3]
        return cli.main(
            ["metrics", "saliency", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
             "--out", str(out_path)]
        )

    def check_item(self, inp, rc):
        _, _, out_path, images, expected = inp
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(Path(out_path).read_text())
        problems = []
        if report.get("count") != len(images) or set(report["images"]) != set(images):
            problems.append(f"image count {report.get('count')} != {len(images)}")
            return problems
        rows = list(report["images"].values()) + [report["dataset_mean"]]
        for row in rows:
            bad = {k: v for k, v in row.items() if not 0.0 <= v <= 1.0}
            if bad:
                problems.append(f"metrics outside [0, 1]: {bad}")
        if not expected:
            expected.update({stem: _saliency_reference(*pair) for stem, pair in images.items()})
        for stem, ref in expected.items():
            got = report["images"][stem]
            for key, want in ref.items():
                if abs(got[key] - want) > 1e-9:
                    problems.append(f"{stem}.{key} = {got[key]!r}, recount gives {want!r}")
        return problems


def _saliency_reference(sal, gt):
    curve = f_curve(sal, gt, np.arange(256) / 255.0)
    t_adp = min(2.0 * float(sal.mean()), 1.0)
    return {
        "mae": float(np.abs(sal - gt).mean()),
        "f_mean": float(curve.mean()),
        "f_max": float(curve.max()),
        "f_adaptive": float(f_curve(sal, gt, np.array([t_adp]))[0]),
    }


# (distinct objects, mean extra candidates per object) per scene, all at
# 256x256; counts are fixed so that every seed costs about the same. An odd
# number of scenes keeps the median item inside one scene's samples. Scene s
# plants the first objects of one shared pool and object o's first variants,
# so the scenes share their candidate files: 200 files instead of 512, since
# creating a file costs far more than writing its 64 KiB and varies from run
# to run.
INSTANCE_SCENES = [(12, 3.0), (40, 0.5), (24, 2.0), (56, 0.3), (40, 3.0), (10, 5.0), (20, 1.0)]
SCENE_SIZE = 256
# every variant of a rectangle with sides >= 20 px (1-px shifts, 1-px cross dilation)
# overlaps every other variant of it above IoU 0.78 > TAU_O
SHIFTS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def _rect_variant(shape, box, variant):
    y0, x0, y1, x1 = box
    m = np.zeros(shape, dtype=bool)
    if variant < 4:
        dy, dx = SHIFTS[variant]
        m[y0 + dy : y1 + dy, x0 + dx : x1 + dx] = True
    elif variant == 4:
        m[y0 - 1 : y1 + 1, x0:x1] = True
        m[y0:y1, x0 - 1 : x1 + 1] = True
    else:
        m[y0:y1, x0:x1] = True
    return m


def _box_iou(a, b):
    iy = max(0, min(a[2], b[2]) - max(a[0], b[0]))
    ix = max(0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iy * ix
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def plant_boxes(rng, count, size=SCENE_SIZE):
    """Rectangles of side 20..32 whose 1-px-grown boxes overlap pairwise at
    box IoU <= 0.2, so variants of different objects stay below IoU 0.6."""
    boxes = []
    for _ in range(100_000):
        if len(boxes) == count:
            return boxes
        bh, bw = (int(v) for v in rng.integers(20, 33, 2))
        y0, x0 = int(rng.integers(2, size - bh - 1)), int(rng.integers(2, size - bw - 1))
        box = (y0, x0, y0 + bh, x0 + bw)
        grown = (y0 - 1, x0 - 1, y0 + bh + 1, x0 + bw + 1)
        if all(_box_iou(grown, (b[0] - 1, b[1] - 1, b[2] + 1, b[3] + 1)) <= 0.2 for b in boxes):
            boxes.append(box)
    raise ValueError(f"could not place {count} objects in {size}x{size}")


class InstanceEval:
    name = "instance_eval"
    item = "one scene: run_stage_transition (16-px grid prompts, load candidates, dedup) then detection_report"
    sizes = ("7 scenes at 256x256 drawn from one pool of 56 objects: 10-56 planted objects, "
             "40-160 candidates (200 distinct candidate files), 23-83% duplicates")

    def setup(self, seed, workdir):
        rng = _rng(seed, 6)
        # 16-px prompt cells: 256 cells per scene, so prompt generation shows
        self.cfg = pipeline.PipelineConfig(prompt=prompts.PromptConfig(grid_size=16))
        shape = (SCENE_SIZE, SCENE_SIZE)
        boxes = plant_boxes(rng, max(n_obj for n_obj, _ in INSTANCE_SCENES))
        gts = [_rect_variant(shape, b, 5) for b in boxes]
        variant_order = [rng.permutation(6).tolist() for _ in boxes]
        shared = workdir / "candidates"
        shared.mkdir(parents=True)
        files = {}  # (object, variant) -> candidate file name, written once
        self.inputs = []
        for s, (n_obj, extra) in enumerate(INSTANCE_SCENES):
            entries = []
            for o in range(n_obj):
                n_var = 1 + min(5, math.floor((o + 1) * extra) - math.floor(o * extra))
                for v in variant_order[o][:n_var]:
                    if (o, v) not in files:
                        files[o, v] = f"c{o:02d}-{v}.pgm"
                        write_pgm(shared / files[o, v],
                                  _rect_variant(shape, boxes[o], v).astype(np.uint8) * 255)
                    entries.append({"mask": files[o, v], "score": float(rng.uniform(0.05, 1.0))})
            order = rng.permutation(len(entries))
            manifest = {"instances": [entries[i] for i in order.tolist()]}
            fg = shared / f"fg{s}.pgm"
            write_pgm(fg, np.any(gts[:n_obj], axis=0).astype(np.uint8) * 255)
            (shared / f"scene{s}.json").write_text(json.dumps(manifest))
            self.inputs.append((fg, shared / f"scene{s}.json", gts[:n_obj]))

    def run_item(self, inp):
        fg, manifest, gts = inp
        result = pipeline.run_stage_transition(fg, manifest, self.cfg, TAU_O)
        report = metrics.detection_report(
            metrics.DetectionSet(predictions=result["kept"], ground_truths=gts)
        )
        return result, report

    def check_item(self, inp, out):
        gts = inp[2]
        result, report = out
        kept = [k.mask for k in result["kept"]]
        problems = []
        if len(kept) != len(gts) or result["count"] != len(gts):
            problems.append(f"kept {len(kept)} (count {result['count']}), planted {len(gts)}")
        if kept:
            iou = pairwise_iou(kept)
            np.fill_diagonal(iou, 0.0)
            if (iou > TAU_O).any():
                problems.append("kept set has a pair with IoU above tau")
        if not 0.0 <= report["ap50"] <= 1.0:
            problems.append(f"ap50 {report['ap50']} outside [0, 1]")
        return problems


WORKLOADS = {w.name: w for w in (AdapterInfer, AdapterTrain, SaliencyEval, InstanceEval)}
