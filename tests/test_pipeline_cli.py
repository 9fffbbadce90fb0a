import dataclasses
import filecmp
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from dsga import fileio, pipeline
from dsga.adapter import DsgaConfig, dsga_forward, init_dsga_params
from dsga.cli import main
from dsga.config import PipelineConfig, ValidationError
from dsga.lora import LoraLayer
from dsga.numerics import gelu
from dsga.losses import LossHyper, LossWeights
from dsga.pipeline import (
    audit_params,
    demo_synthetic,
    gradcheck_all,
    max_hybrid_error,
    read_params_bundle,
    run_stage_transition,
    write_params_bundle,
)


class TestConfig:
    def test_round_trip(self):
        cfg = PipelineConfig()
        data = cfg.to_dict()
        assert list(data) == ["dsga", "lora", "prompt", "backbone"]
        again = PipelineConfig.from_dict(json.loads(json.dumps(data)))
        assert again == cfg and again.to_dict() == data

    def test_round_trip_with_overrides(self):
        data = PipelineConfig().to_dict()
        data["dsga"]["k_max"] = 4
        data["lora"]["rank"] = 16
        data["prompt"]["grid_size"] = 32
        cfg = PipelineConfig.from_dict(data)
        assert cfg.dsga.k_max == 4
        assert cfg.lora.rank == 16
        assert cfg.prompt.grid_size == 32
        assert PipelineConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match="unknown config sections"):
            PipelineConfig.from_dict({"dgsa": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            PipelineConfig.from_dict({"dsga": {"embed_dims": 768}})
        with pytest.raises(ValidationError, match="unknown keys in section 'prompt'"):
            PipelineConfig.from_dict({"prompt": {"grid": 64}})

    def test_removed_ema_enabled_key_rejected(self, tmp_path):
        # the whole loss section is gone, ema_enabled with it
        assert "loss" not in PipelineConfig().to_dict()
        with pytest.raises(ValidationError, match=r"unknown config sections: \['loss'\]"):
            PipelineConfig.from_dict({"loss": {"ema_enabled": True}})
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"loss": {"ema_enabled": false}}')
        assert main(["audit", "params", "--config", str(cfg)]) == 1

    # loss hyperparameters are `dsga loss eval` flags, and lora.alpha was never
    # read: a config that sets either exits 1 with one validation line
    @pytest.mark.parametrize("data, message", [
        ({"loss": {}}, "unknown config sections: ['loss']"),
        ({"loss": {"weights": [1.0, 1.0, 1.0], "focal_gamma": 2.0}},
         "unknown config sections: ['loss']"),
        ({"lora": {"alpha": 8.0}}, "unknown keys in section 'lora': ['alpha']"),
        ({"lora": {"rank": 4, "alpha": None}}, "unknown keys in section 'lora': ['alpha']"),
    ])
    def test_removed_loss_section_and_lora_alpha_rejected(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["audit", "params", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == f"validation error: {message}\n"

    def test_invalid_value_rejected(self):
        with pytest.raises(ValidationError):
            PipelineConfig.from_dict({"dsga": {"reduction_ratio": 0.0}})

    @pytest.mark.parametrize("data", [
        {"prompt": {"saliency_threshold": "0.05"}},
        {"prompt": {"n_max": 1024.0}},
        {"backbone": {"layers": True}},
        {"backbone": {"params_frozen": "91000000"}},
        {"dsga": {"k_max": 2.5}},
        {"dsga": {"k_max": True}},
        {"dsga": {"embed_dim": "768"}},
        {"dsga": {"reduction_ratio": False}},
        {"dsga": {"mode": 1}},
        {"prompt": {"grid_size": True}},
        {"lora": {"rank": 8.0}},
        {"backbone": {"layers": "12"}},
    ])
    def test_wrong_value_type_rejected(self, data):
        with pytest.raises(ValidationError, match="must be an? (bool|int|number|string)"):
            PipelineConfig.from_dict(data)

    def test_conflicting_embed_dims_rejected(self, tmp_path):
        data = {"dsga": {"embed_dim": 16}, "backbone": {"embed_dim": 768}}
        with pytest.raises(ValidationError, match=r"section 'backbone': \['embed_dim'\]"):
            PipelineConfig.from_dict(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["audit", "params", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("dsga_dim, backbone_dim", [
        (None, None), (16, None), (None, 1024), (1024, 1024),
    ])
    def test_one_embed_dim_source_accepted(self, dsga_dim, backbone_dim):
        # only dsga.embed_dim sets the token width: backbone.embed_dim is an
        # unknown key, even where it agrees
        data = {} if dsga_dim is None else {"dsga": {"embed_dim": dsga_dim}}
        if backbone_dim is None:
            assert PipelineConfig.from_dict(data).dsga.embed_dim == (dsga_dim or 768)
        else:
            data["backbone"] = {"embed_dim": backbone_dim}
            with pytest.raises(ValidationError, match=r"section 'backbone': \['embed_dim'\]"):
                PipelineConfig.from_dict(data)

    def test_fourteen_settable_values(self):
        data = PipelineConfig().to_dict()
        assert {s: list(v) for s, v in data.items()} == {
            "dsga": ["embed_dim", "reduction_ratio", "k_max", "dropout_prob", "mode", "seed"],
            "lora": ["rank", "targets"],
            "prompt": ["grid_size", "saliency_threshold", "n_min", "n_max"],
            "backbone": ["layers", "params_frozen"],
        }

    def test_ints_accepted_for_floats(self):
        cfg = PipelineConfig.from_dict(
            {"dsga": {"reduction_ratio": 1}, "prompt": {"saliency_threshold": 0}}
        )
        assert cfg.dsga.reduction_ratio == 1
        assert cfg.prompt.saliency_threshold == 0


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


# keys a config no longer has, each with the out-of-range value it once had:
# the width lives in dsga.embed_dim, the block count in backbone.layers, and
# the rank decay is adapter.RANK_DECAY
REMOVED_KEYS = {"dsga.decay_exponent": 0.0, "lora.num_layers": -1, "backbone.embed_dim": 0}

# one value per field that has the field's type but lies outside its range
OUT_OF_RANGE = {
    "dsga.embed_dim": 0, "dsga.reduction_ratio": 1.5, "dsga.k_max": 0,
    "dsga.dropout_prob": 1.0, "dsga.mode": "predict", "dsga.seed": -1,
    "lora.rank": 0, "lora.targets": ["key"],
    "prompt.grid_size": 0, "prompt.saliency_threshold": 1.5, "prompt.n_min": 0,
    "prompt.n_max": 0,
    "backbone.layers": -1, "backbone.params_frozen": 0,
    "LossHyper.focal_gamma": -1.0, "LossHyper.focal_alpha": 1.5, "LossHyper.dice_smooth": 0.0,
    "LossWeights.lam1": -1.0, "LossWeights.lam2": -1.0, "LossWeights.lam3": -1.0,
    "LossWeights.ema_beta": 1.0,
}


def config_field_cases():
    """Every field of every config section, and every removed key, each with a
    non-finite number, a bool, a string and one out-of-range value."""
    names = [
        f"{section.name}.{fld.name}"
        for section in dataclasses.fields(PipelineConfig)
        for fld in dataclasses.fields(section.default_factory())
    ]
    for name, bad in [(n, OUT_OF_RANGE[n]) for n in names] + list(REMOVED_KEYS.items()):
        section, key = name.split(".")
        for value in NON_FINITE + [True, "bogus", bad]:
            yield pytest.param(section, key, value, id=f"{name}={value}")


def loss_field_cases():
    for cls in (LossHyper, LossWeights):
        for fld in dataclasses.fields(cls):
            name = f"{cls.__name__}.{fld.name}"
            for value in NON_FINITE + [True, "bogus", OUT_OF_RANGE[name]]:
                yield pytest.param(cls, fld.name, value, id=f"{name}={value}")


class TestNonFiniteValues:
    @pytest.mark.parametrize("section, key, value", config_field_cases())
    def test_config_field_rejected(self, tmp_path, capsys, section, key, value):
        data = {section: {key: value}}
        with pytest.raises(ValidationError):
            PipelineConfig.from_dict(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))  # NaN and Infinity, as Python's json reads them
        capsys.readouterr()
        assert main(["audit", "params", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if f"{section}.{key}" in REMOVED_KEYS:
            assert err == f"validation error: unknown keys in section '{section}': ['{key}']\n"

    @pytest.mark.parametrize("value", [2.0, 0.0])
    def test_removed_decay_exponent_exits_one_in_forward(self, tmp_path, capsys, value):
        cfg = DsgaConfig(embed_dim=8, k_max=3)
        write_params_bundle(tmp_path / "params", init_dsga_params(cfg))
        fileio.write_tns(tmp_path / "x.tns", np.ones((1, 3, 3, 8), dtype=np.float32))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"embed_dim": 8, "k_max": 3, "decay_exponent": value}))
        capsys.readouterr()
        assert main(["forward", "--input", str(tmp_path / "x.tns"), "--config", str(config),
                     "--params", str(tmp_path / "params"), "--output", str(tmp_path / "y.tns")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "y.tns").exists()
        assert captured.err == "validation error: unknown keys in section 'dsga': ['decay_exponent']\n"

    @pytest.mark.parametrize("cls, key, value", loss_field_cases())
    def test_loss_field_rejected(self, cls, key, value):
        with pytest.raises(ValueError):
            cls(**{key: value})

    @pytest.mark.parametrize("value", NON_FINITE + ["true"])
    @pytest.mark.parametrize("flag", [
        "--focal-gamma", "--focal-alpha", "--dice-smooth", "--beta", "--alpha",
        "--threshold", "--iou-threshold",
    ])
    def test_float_flag_exits_one(self, tmp_path, capsys, flag, value):
        # every type=float flag of the CLI, each given a non-finite value or a bool
        assert main(float_flag_command(tmp_path, flag) + [f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("validation error: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("weights", ["nan,1,1", "1,inf,1", "1,1,-inf"])
    def test_non_finite_loss_weights_exit_one(self, tmp_path, capsys, weights):
        assert main(float_flag_command(tmp_path, "--focal-gamma") + ["--weights", weights]) == 1
        assert capsys.readouterr().err.startswith("validation error: loss weights must be finite")


class TestHugeIntegers:
    """An integer past int64 (for a float field, past the float range) exits
    1 with one line, not a traceback; int64's largest value still runs."""

    @pytest.mark.parametrize("section, key, value", [
        ("dsga", "embed_dim", 10**400), ("backbone", "layers", 10**320),
        ("dsga", "reduction_ratio", 10**400), ("backbone", "params_frozen", 2**63),
        # 4300 digits, the most that JSON decoding turns into an int
        ("dsga", "k_max", 10**4300 - 1), ("dsga", "dropout_prob", 10**4300 - 1),
    ], ids=["embed_dim=10**400", "layers=10**320", "reduction_ratio=10**400",
            "params_frozen=2**63", "k_max=4300_digits", "dropout_prob=4300_digits"])
    def test_config_value_exits_one(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        capsys.readouterr()
        assert main(["audit", "params", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"validation error: {section}.{key} must be ")

    def test_largest_int64_config_value_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backbone": {"layers": 2**63 - 1}}))
        capsys.readouterr()
        assert main(["audit", "params", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["dsga_params"] % (2**63 - 1) == 0

    @pytest.mark.parametrize("value, code", [(2**63, 1), (2**63 - 1, 0)])
    def test_grid_flag(self, tmp_path, capsys, value, code):
        mask_path, _, _ = three_blob_fixture(tmp_path)
        capsys.readouterr()
        assert main(["prompts", "generate", "--mask", str(mask_path), "--grid", str(value),
                     "--out", str(tmp_path / "p.jsonl")]) == code
        if code:
            assert capsys.readouterr().err == (
                f"validation error: argument --grid: invalid int64 value: '{value}'\n"
            )
            assert not (tmp_path / "p.jsonl").exists()


def float_flag_command(tmp_path, flag):
    """A valid command line, without ``flag``, for the subcommand that takes it."""
    if flag in ("--threshold", "--iou-threshold"):
        mask_path, manifest, _ = three_blob_fixture(tmp_path)
        if flag == "--threshold":
            return ["prompts", "generate", "--mask", str(mask_path), "--out", str(tmp_path / "p.jsonl")]
        return ["instances", "dedup", "--manifest", str(manifest)]
    if flag == "--beta":
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"contributions": [1.0, 2.0, 3.0]}) + "\n")
        return ["loss", "ema-sim", "--trace", str(trace)]
    if flag == "--alpha":
        TestLoraApplyFinite.write_inputs(tmp_path)
        return ["lora", "apply", "--base", str(tmp_path / "w0.tns"), "--a", str(tmp_path / "a.tns"),
                "--b", str(tmp_path / "b.tns"), "--input", str(tmp_path / "x.tns"),
                "--output", str(tmp_path / "h.tns")]
    gt = np.zeros((8, 8), bool)
    gt[2:6, 2:6] = True
    fileio.write_mask_pgm(tmp_path / "gt.pgm", gt)
    fileio.write_tns(tmp_path / "pred.tns", np.full((8, 8), 0.5))
    return ["loss", "eval", "--pred", str(tmp_path / "pred.tns"), "--gt", str(tmp_path / "gt.pgm")]


class TestForwardOverflow:
    """dsga forward under strict warnings on fields whose hidden rows are too
    large to square in float32, with the bundle of ``dsga demo --seed 7``."""

    @staticmethod
    def run(tmp_path, scale):
        params = init_dsga_params(DsgaConfig(embed_dim=16, k_max=4, seed=7))
        write_params_bundle(tmp_path / "params", params)
        x = (np.random.default_rng(7).uniform(-1.0, 1.0, (1, 4, 4, 16)) * scale).astype(np.float32)
        fileio.write_tns(tmp_path / "x.tns", x)
        (tmp_path / "cfg.json").write_text(json.dumps({"embed_dim": 16, "k_max": 4}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["forward", "--input", str(tmp_path / "x.tns"),
                         "--params", str(tmp_path / "params"), "--config", str(tmp_path / "cfg.json"),
                         "--output", str(tmp_path / "y.tns"), "--emit-graph", str(tmp_path / "g.json")])
        return code, x, params

    def test_overflowing_hidden_norms_rank_as_in_float64(self, tmp_path, capsys):
        # the float32 squares of these rows overflow; the neighbours are those
        # of the float64 cosine ranking of the same hidden features
        code, x, params = self.run(tmp_path, 1e20)
        assert code == 0 and capsys.readouterr().err == ""
        z = gelu(x.reshape(1, 16, 16) @ params.down_w + params.down_b)[0].astype(np.float64)
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(z.astype(np.float32) ** 2, axis=-1)).sum() >= 8
        zh = z / (np.linalg.norm(z, axis=-1, keepdims=True) + 1e-12)
        s = np.tanh(zh @ zh.T / math.sqrt(z.shape[-1]))
        s[np.arange(16), np.arange(16)] = -np.inf
        (nodes,) = fileio.read_json(tmp_path / "g.json")
        got = [[nb["index"] for nb in node["neighbors"]] for node in nodes]
        assert got == np.argsort(-s, axis=-1, kind="stable")[:, : len(got[0])].tolist()
        assert np.isfinite(fileio.read_tns(tmp_path / "y.tns")).all()

    def test_overflowing_forward_exits_three(self, tmp_path, capsys):
        # the output overflows: one line, no traceback, no output written
        code, _, _ = self.run(tmp_path, 3e38)
        assert code == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: up-projection contains non-finite values\n"
        assert not (tmp_path / "y.tns").exists()


class TestLoraApplyFinite:
    @staticmethod
    def write_inputs(tmp_path, scale=1.0):
        rng = np.random.default_rng(12)
        arrays = {"w0": rng.standard_normal((4, 6)) * scale, "a": rng.standard_normal((2, 6)),
                  "b": rng.standard_normal((4, 2)), "x": rng.standard_normal((5, 6)) * scale}
        for name, arr in arrays.items():
            fileio.write_tns(tmp_path / f"{name}.tns", arr)
        return arrays

    def run(self, tmp_path, alpha):
        return main([
            "lora", "apply", "--base", str(tmp_path / "w0.tns"),
            "--a", str(tmp_path / "a.tns"), "--b", str(tmp_path / "b.tns"),
            f"--alpha={alpha}", "--input", str(tmp_path / "x.tns"),
            "--output", str(tmp_path / "h.tns"),
        ])

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exits_one(self, tmp_path, capsys, alpha):
        arrays = self.write_inputs(tmp_path)
        with pytest.raises(ValueError, match="alpha must be finite"):
            LoraLayer(w0=arrays["w0"], a=arrays["a"], b=arrays["b"], rank=2, alpha=float(alpha))
        capsys.readouterr()
        assert self.run(tmp_path, alpha) == 1
        assert capsys.readouterr().err.startswith("validation error: alpha must be finite")
        assert not (tmp_path / "h.tns").exists()

    def test_overflowing_output_exits_three(self, tmp_path, capsys):
        self.write_inputs(tmp_path, scale=1e200)
        capsys.readouterr()
        assert self.run(tmp_path, "2") == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: lora output contains non-finite values\n"
        assert not (tmp_path / "h.tns").exists()

    @pytest.mark.parametrize("shape", [(6,), ()], ids=["1-d", "0-d"])
    def test_a_not_two_d_exits_one(self, tmp_path, capsys, shape):
        # the rank is A's row count, so A must have rows
        self.write_inputs(tmp_path)
        fileio.write_tns(tmp_path / "a.tns", np.ones(shape))
        capsys.readouterr()
        assert self.run(tmp_path, "2") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "h.tns").exists()
        assert captured.err == f"validation error: A must be 2-D, got shape {shape}\n"

    @pytest.mark.parametrize("header", ['{"shape": 5, "dtype": "f32"}', "[1, 2]",
                                        '{"shape": [4294967296, 4294967296], "dtype": "f32"}'])
    def test_malformed_tns_header_exits_two(self, tmp_path, capsys, header):
        self.write_inputs(tmp_path)
        (tmp_path / "a.tns").write_bytes(header.encode("ascii") + b"\n")
        capsys.readouterr()
        assert self.run(tmp_path, "2") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
        assert "a.tns" in captured.err and not (tmp_path / "h.tns").exists()


class TestAudit:
    def test_vit_base_defaults(self):
        report = audit_params(PipelineConfig())
        assert report.dsga_params == 3_992_964
        assert report.lora_params == 294_912
        assert report.total_trainable == report.dsga_params + report.lora_params
        assert report.dsga_matches_reference
        assert report.lora_reference_discrepancy
        assert report.trainable_fraction == pytest.approx(4_287_876 / 91_000_000)

    def test_zero_layer_profile(self):
        data = PipelineConfig().to_dict()
        data["backbone"]["layers"] = 0
        report = audit_params(PipelineConfig.from_dict(data))
        assert report.dsga_params == 0
        assert report.lora_params == 0
        assert report.total_trainable == 0

    def test_width_and_depth_reach_both_adapters(self, tmp_path, capsys):
        # ViT-Large: 24 blocks of 1024-wide tokens, each with one graph adapter
        # (1024*256*2 + 256 + 1024 + 256^2 + 8 + 3 = 591,115 per block) and
        # rank-8 updates on W_q and W_v (2 * 8 * 2048 = 32,768 per block)
        cfg = tmp_path / "large.json"
        cfg.write_text(json.dumps({"dsga": {"embed_dim": 1024}, "backbone": {"layers": 24}}))
        capsys.readouterr()
        assert main(["audit", "params", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dsga_params"] == 14_186_760 == 24 * 591_115
        assert report["lora_params"] == 786_432 == 24 * 32_768
        assert report["total_trainable"] == 14_186_760 + 786_432
        assert not report["dsga_matches_reference"] and report["lora_reference_discrepancy"]


class TestGradcheckHarness:
    def test_gradcheck_keeps_worst_per_name(self):
        # value(name, t) = sum(t^2) for every name, so the exact gradient is 2t;
        # the first draw is off in one entry of "b", the second is exact
        point = {"b": np.array([1.0, -2.0]), "a": np.array(0.5)}
        exact = {name: 2.0 * theta for name, theta in point.items()}
        off = {"b": exact["b"] + [0.0, 0.5], "a": exact["a"]}
        analytic = iter([off, exact])

        def draw(rng):
            return point, next(analytic), lambda _, t: float(np.sum(t * t))

        result = pipeline._gradcheck("square", 0, 2, draw)
        assert list(result.errors) == ["b", "a"]
        assert result.errors["b"] == pytest.approx(0.5 / 4.0, rel=1e-6)  # |-3.5 - (-4)| / 4
        assert result.errors["a"] < 1e-9
        assert result.max_rel_err == result.errors["b"] and not result.passed

    def test_all_ops_pass(self):
        results = gradcheck_all(seed=0, instances=3)
        assert [r.op for r in results] == ["dsga_vjp", "lora_vjp", "loss_grads"]
        for r in results:
            assert r.passed, (r.op, r.max_rel_err)
            assert r.max_rel_err == max(r.errors.values())
        assert list(results[0].errors) == [
            "x", "down_w", "down_b", "up_w", "up_b", "fusion_w", "rank_logits",
            "theta_k", "w_p_raw", "w_n_raw",
        ]
        assert list(results[1].errors) == ["x", "a", "b"]
        assert list(results[2].errors) == ["pred"]

    def test_error_reported_under_the_faulty_parameter(self, monkeypatch, tmp_path):
        from dsga import pipeline

        vjp = pipeline.dsga_vjp

        def skewed_vjp(*args):
            dx, grads = vjp(*args)
            grads.fusion_w = grads.fusion_w * 1.05
            return dx, grads

        monkeypatch.setattr(pipeline, "dsga_vjp", skewed_vjp)
        out = tmp_path / "report.json"
        assert main(["gradcheck", "--instances", "2", "--out", str(out)]) == 3
        ops = {op["op"]: op for op in json.loads(out.read_text())["ops"]}
        errors = ops["dsga_vjp"]["errors"]
        assert errors["fusion_w"] > 1e-3
        assert ops["dsga_vjp"]["max_rel_err"] == errors["fusion_w"]
        assert all(v <= 1e-4 for k, v in errors.items() if k != "fusion_w")
        assert ops["lora_vjp"]["pass"] and ops["loss_grads"]["pass"]

    def test_corrupted_gradient_detected(self):
        good = np.array([1.0, 2.0, 3.0])
        corrupted = good * 1.5
        assert max_hybrid_error(corrupted, good) > 1e-4

    def test_zero_instances_rejected(self):
        with pytest.raises(ValidationError, match="at least 1"):
            gradcheck_all(seed=0, instances=0)


def bad_bundle_cases():
    """(bundle file, DsgaParams field, kind of fault) for every bundle file."""
    for fname, field in pipeline._BUNDLE_NAMES.items():
        gate = field in pipeline._GATES
        for kind in ("rank", "length") + (() if gate else ("dtype",)):
            yield fname, field, kind


class TestParamsBundle:
    def test_bundle_names_map_onto_the_fields(self):
        # one file per DsgaParams field, every field once
        fields = sorted(pipeline._BUNDLE_NAMES.values())
        assert fields == sorted(f.name for f in dataclasses.fields(pipeline.DsgaParams))

    def test_round_trip_preserves_dtypes(self, tmp_path):
        cfg = DsgaConfig(embed_dim=8, k_max=3, seed=5)
        params = init_dsga_params(cfg)
        write_params_bundle(tmp_path / "bundle", params)
        names = {p.name for p in (tmp_path / "bundle").iterdir()}
        assert names == {
            "down.w", "down.b", "up.w", "up.b", "fusion.w",
            "rank_logits", "theta_k", "w_p", "w_n",
        }
        back = read_params_bundle(tmp_path / "bundle")
        for key, arr in params.named_arrays().items():
            assert np.array_equal(getattr(back, key), arr)
            assert getattr(back, key).dtype == arr.dtype
        assert back.theta_k == params.theta_k

    def test_missing_file_rejected(self, tmp_path):
        cfg = DsgaConfig(embed_dim=8, k_max=3)
        write_params_bundle(tmp_path / "b", init_dsga_params(cfg))
        (tmp_path / "b" / "theta_k").unlink()
        with pytest.raises(fileio.FileFormatError, match="theta_k"):
            read_params_bundle(tmp_path / "b")

    @pytest.mark.parametrize("fname, field, kind", bad_bundle_cases())
    def test_bad_bundle_file_exits_one_naming_its_field(self, tmp_path, capsys, fname, field, kind):
        # one float32 bundle for an 8-wide input, k_max = 4, with one file
        # replaced: an extra leading axis, one more entry on the last axis, or
        # float64 (the gates are read as Python floats, so no dtype case)
        cfg = DsgaConfig(embed_dim=8, k_max=4, seed=6)
        write_params_bundle(tmp_path / "params", init_dsga_params(cfg))
        path = tmp_path / "params" / fname
        value = fileio.read_tns(path)
        if kind == "rank":
            value = value[None]
        elif kind == "length":
            value = np.concatenate([value.reshape(value.shape or (1,))] * 2, axis=-1)
        else:
            value = value.astype(np.float64)
        fileio.write_tns(path, value)
        fileio.write_tns(tmp_path / "x.tns", np.ones((1, 3, 3, 8), dtype=np.float32))
        fileio.write_json(tmp_path / "cfg.json", {"embed_dim": 8, "k_max": 4})
        capsys.readouterr()
        assert main(["forward", "--input", str(tmp_path / "x.tns"), "--config", str(tmp_path / "cfg.json"),
                     "--params", str(tmp_path / "params"), "--output", str(tmp_path / "y.tns")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "y.tns").exists()
        assert captured.err.startswith(f"validation error: {field} ") and captured.err.count("\n") == 1


def three_blob_fixture(tmp_path):
    mask = np.zeros((48, 48), bool)
    blobs = []
    for i, (y, x) in enumerate([(2, 2), (2, 26), (26, 2)]):
        blob = np.zeros((48, 48), bool)
        blob[y : y + 12, x : x + 12] = True
        mask |= blob
        blobs.append(blob)
    mask_path = tmp_path / "fg.pgm"
    fileio.write_mask_pgm(mask_path, mask)
    entries = []
    for i, blob in enumerate(blobs):
        name = f"cand_{i}.pgm"
        fileio.write_mask_pgm(tmp_path / name, blob)
        entries.append({"mask": name, "score": 0.9 - 0.01 * i, "prompt_index": i})
    manifest = tmp_path / "cands.json"
    fileio.write_json(manifest, {"instances": entries})
    return mask_path, manifest, blobs


def stage_config():
    data = PipelineConfig().to_dict()
    data["prompt"] = {"grid_size": 24, "saliency_threshold": 0.05, "n_min": 1, "n_max": 16}
    return PipelineConfig.from_dict(data)


class TestStageTransition:
    def test_three_blobs_three_instances(self, tmp_path):
        mask_path, manifest, _ = three_blob_fixture(tmp_path)
        result = run_stage_transition(mask_path, manifest, stage_config())
        assert result["count"] == 3
        assert all(inst.source_prompt is not None for inst in result["kept"])

    def test_duplicate_candidates_collapse(self, tmp_path):
        mask_path, manifest, blobs = three_blob_fixture(tmp_path)
        entries = []
        for score in (0.9, 0.8):
            name = f"dup_{score}.pgm"
            fileio.write_mask_pgm(tmp_path / name, blobs[0])
            entries.append({"mask": name, "score": score})
        dup_manifest = tmp_path / "dups.json"
        fileio.write_json(dup_manifest, {"instances": entries})
        result = run_stage_transition(mask_path, dup_manifest, stage_config())
        assert result["count"] == 1
        assert result["kept"][0].score == 0.9

    def test_empty_foreground(self, tmp_path):
        mask_path = tmp_path / "empty.pgm"
        fileio.write_mask_pgm(mask_path, np.zeros((48, 48), bool))
        manifest = tmp_path / "none.json"
        fileio.write_json(manifest, {"instances": []})
        result = run_stage_transition(mask_path, manifest, stage_config())
        assert result["count"] == 0 and result["kept"] == []

    def test_bad_prompt_index_rejected(self, tmp_path):
        mask_path, manifest, blobs = three_blob_fixture(tmp_path)
        data = fileio.read_json(manifest)
        data["instances"][0]["prompt_index"] = 99
        fileio.write_json(manifest, data)
        with pytest.raises(ValidationError, match="prompt_index"):
            run_stage_transition(mask_path, manifest, stage_config())


def tree_snapshot(root: Path):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestDemo:
    def test_byte_identical_reruns(self, tmp_path):
        a = demo_synthetic(seed=7, out_dir=tmp_path / "a")
        b = demo_synthetic(seed=7, out_dir=tmp_path / "b")
        assert a == b
        snap_a, snap_b = tree_snapshot(tmp_path / "a"), tree_snapshot(tmp_path / "b")
        assert snap_a.keys() == snap_b.keys()
        for name in snap_a:
            assert snap_a[name] == snap_b[name], name

    def test_self_consistent_metrics(self, tmp_path):
        summary = demo_synthetic(seed=11, out_dir=tmp_path / "d")
        assert summary["saliency_s_measure"] == pytest.approx(1.0, abs=1e-6)
        assert summary["saliency_mae"] == 0.0
        assert summary["instance_ap50"] == 1.0
        assert summary["instance_count"] == 3

    def test_looser_threshold_keeps_more(self, tmp_path):
        summary = demo_synthetic(seed=3, out_dir=tmp_path / "d")
        study = summary["dedup_study"]
        assert study["0.99"] >= study["0.75"]


class TestCli:
    def test_forward_round_trip(self, tmp_path):
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="eval", seed=9)
        params = init_dsga_params(cfg)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 3, 3, 8)).astype(np.float32)
        fileio.write_tns(tmp_path / "x.tns", x)
        write_params_bundle(tmp_path / "params", params)
        cfg_json = tmp_path / "cfg.json"
        cfg_json.write_text(json.dumps({
            "embed_dim": 8, "k_max": 3, "dropout_prob": 0.0, "mode": "eval", "seed": 9,
        }))
        code = main([
            "forward", "--input", str(tmp_path / "x.tns"),
            "--params", str(tmp_path / "params"), "--config", str(cfg_json),
            "--output", str(tmp_path / "y.tns"),
            "--emit-graph", str(tmp_path / "g.json"),
        ])
        assert code == 0
        expected, graph = dsga_forward(x, params, cfg)
        assert np.array_equal(fileio.read_tns(tmp_path / "y.tns"), expected)
        emitted = fileio.read_json(tmp_path / "g.json")
        assert len(emitted) == 1 and len(emitted[0]) == 9
        assert emitted[0][0]["neighbors"][0]["index"] == int(graph.neighbors[0, 0, 0])

    def test_lora_apply_cli(self, tmp_path):
        rng = np.random.default_rng(10)
        w0 = rng.standard_normal((4, 6))
        a = rng.standard_normal((2, 6))
        b = rng.standard_normal((4, 2))
        x = rng.standard_normal((3, 6))
        for name, arr in [("w0", w0), ("a", a), ("b", b), ("x", x)]:
            fileio.write_tns(tmp_path / f"{name}.tns", arr)
        code = main([
            "lora", "apply", "--base", str(tmp_path / "w0.tns"),
            "--a", str(tmp_path / "a.tns"), "--b", str(tmp_path / "b.tns"),
            "--alpha", "2", "--input", str(tmp_path / "x.tns"),
            "--output", str(tmp_path / "h.tns"),
        ])
        assert code == 0
        h = fileio.read_tns(tmp_path / "h.tns")
        assert np.allclose(h, x @ (w0 + b @ a).T, atol=1e-12)

    def test_prompts_and_dedup_cli(self, tmp_path):
        mask_path, manifest, _ = three_blob_fixture(tmp_path)
        code = main([
            "prompts", "generate", "--mask", str(mask_path), "--grid", "24",
            "--threshold", "0.05", "--nmin", "1", "--nmax", "16",
            "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == 0
        lines = (tmp_path / "p.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(l) for l in lines]
        assert all(set(p) == {"x", "y", "confidence", "cell"} for p in parsed)

        code = main([
            "instances", "dedup", "--manifest", str(manifest),
            "--iou-threshold", "0.75", "--out", str(tmp_path / "kept.json"),
        ])
        assert code == 0
        kept = fileio.read_json(tmp_path / "kept.json")
        assert kept["count"] == 3

    def test_dedup_cli_echoes_kept_entries(self, tmp_path, capsys):
        # a higher-scored copy of blob 0, listed last, suppresses cand_0: the
        # kept entries come back verbatim (extra keys too) in acceptance order
        _, manifest, blobs = three_blob_fixture(tmp_path)
        entries = fileio.read_json(manifest)["instances"]
        fileio.write_mask_pgm(tmp_path / "copy_0.pgm", blobs[0])
        entries.append({"mask": "copy_0.pgm", "score": 0.95, "variant": "copy"})
        fileio.write_json(manifest, {"instances": entries})
        capsys.readouterr()
        assert main(["instances", "dedup", "--manifest", str(manifest)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"count": 3, "instances": [entries[3], entries[1], entries[2]]}

    def test_loss_eval_cli(self, tmp_path):
        gt = np.zeros((8, 8), bool)
        gt[2:6, 2:6] = True
        fileio.write_mask_pgm(tmp_path / "gt.pgm", gt)
        fileio.write_tns(tmp_path / "pred.tns", gt.astype(np.float64))
        code = main([
            "loss", "eval", "--pred", str(tmp_path / "pred.tns"),
            "--gt", str(tmp_path / "gt.pgm"), "--weights", "1,1,1",
            "--focal-gamma", "2", "--dice-smooth", "1",
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 0
        report = fileio.read_json(tmp_path / "report.json")
        assert set(report) == {"total", "focal", "dice", "boundary"}
        assert report["dice"] == 0.0

    def test_ema_sim_cli(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            "\n".join(json.dumps({"contributions": [1.0, 2.0, 3.0]}) for _ in range(5))
        )
        args = ["loss", "ema-sim", "--trace", str(trace), "--beta", "0.5", "--mode", "raw"]
        capsys.readouterr()
        assert main(args) == 0
        stdout = capsys.readouterr().out
        code = main(args + ["--out", str(tmp_path / "traj.jsonl")])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "traj.jsonl").read_bytes() == stdout.encode()
        rows = [json.loads(l) for l in (tmp_path / "traj.jsonl").read_text().splitlines()]
        assert len(rows) == 5
        lam0 = np.ones(3)
        c = np.array([1.0, 2.0, 3.0])
        for k, row in enumerate(rows, start=1):
            expected = 0.5**k * lam0 + (1 - 0.5**k) * c
            assert np.allclose(row["lambda_raw"], expected, atol=1e-12)
            assert sum(row["lambda_normalized"]) == pytest.approx(3.0)

    # (bad third line, words the message must contain): each exits 2 with one
    # "i/o error" line naming the file and the line, not a traceback
    MALFORMED_TRACE_LINES = {
        "invalid_json": ('{"contributions": [1.0, 2.0,', ["invalid JSON"]),
        "a_json_list": ("[1.0, 2.0, 3.0]", ["'contributions' list"]),
        "contributions_an_int": ('{"contributions": 5}', ["'contributions' list"]),
        "contributions_missing": ('{"weights": [1.0, 2.0, 3.0]}', ["'contributions' list"]),
        "two_contributions": ('{"contributions": [1.0, 2.0]}', ["3-element"]),
        "contribution_a_bool": ('{"contributions": [1.0, true, 3.0]}',
                                ["contribution 1", "a number"]),
        "contribution_a_string": ('{"contributions": [1.0, 2.0, "3"]}',
                                  ["contribution 2", "a number"]),
        "not_utf8": (b'{"contributions": [1.0, 2.0, 3.0]} \xff\xfe', ["not UTF-8 text"]),
        "contribution_past_float_range": ('{"contributions": [1.0, %d, 3.0]}' % 10**400,
                                          ["contribution 1", "finite"]),
        "nested_too_deeply": ("[" * 100_000, ["JSON nested too deeply"]),
        "integer_literal_too_long": ('{"contributions": [1.0, %s, 3.0]}' % ("9" * 5001),
                                     ["integer literal too long"]),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACE_LINES))
    def test_malformed_trace_line_exits_two(self, tmp_path, capsys, case):
        bad_line, words = self.MALFORMED_TRACE_LINES[case]
        bad_line = bad_line if isinstance(bad_line, bytes) else bad_line.encode()
        good = json.dumps({"contributions": [1.0, 2.0, 3.0]}).encode()
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes(b"\n".join([good, b"", bad_line, good, b""]))  # the blank line counts
        capsys.readouterr()
        out = tmp_path / "traj.jsonl"
        assert main(["loss", "ema-sim", "--trace", str(trace), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
        assert f"{trace}: line 3:" in captured.err
        assert all(word in captured.err for word in words), captured.err
        assert not out.exists()

    def test_metrics_saliency_cli(self, tmp_path):
        gt = np.zeros((8, 8), bool)
        gt[2:6, 1:5] = True
        (tmp_path / "preds").mkdir()
        (tmp_path / "gts").mkdir()
        for stem in ("img1", "img2"):
            fileio.write_mask_pgm(tmp_path / "preds" / f"{stem}.pgm", gt)
            fileio.write_mask_pgm(tmp_path / "gts" / f"{stem}.pgm", gt)
        code = main([
            "metrics", "saliency", "--pred-dir", str(tmp_path / "preds"),
            "--gt-dir", str(tmp_path / "gts"), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 0
        report = fileio.read_json(tmp_path / "r.json")
        assert report["count"] == 2
        assert report["dataset_mean"]["mae"] == 0.0
        assert report["dataset_mean"]["f_max"] == 1.0
        assert set(report["images"]) == {"img1", "img2"}

    @pytest.mark.parametrize("bad, message", [
        ("out_of_range", "b: saliency values must lie in [0, 1]"),
        ("transposed_gt", "b: dimension mismatch: (4, 5) vs (5, 4)"),
    ], ids=["out_of_range", "transposed_gt"])
    def test_metrics_saliency_names_the_failing_pair(self, tmp_path, capsys, bad, message):
        gt = np.zeros((4, 5), bool)
        gt[1:3, 1:4] = True
        for d in ("preds", "gts"):
            (tmp_path / d).mkdir()
        for stem in ("a", "b", "c"):
            fileio.write_tns(tmp_path / "preds" / f"{stem}.tns", gt.astype(np.float32))
            fileio.write_mask_pgm(tmp_path / "gts" / f"{stem}.pgm", gt)
        if bad == "out_of_range":
            fileio.write_tns(tmp_path / "preds" / "b.tns", np.full((4, 5), 1.5, np.float32))
        else:
            fileio.write_mask_pgm(tmp_path / "gts" / "b.pgm", gt.T)
        capsys.readouterr()
        code = main([
            "metrics", "saliency", "--pred-dir", str(tmp_path / "preds"),
            "--gt-dir", str(tmp_path / "gts"), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("side", ["preds", "gts"])
    def test_metrics_saliency_rejects_duplicate_stems(self, tmp_path, capsys, side):
        gt = np.zeros((8, 8), bool)
        gt[2:6, 1:5] = True
        for d in ("preds", "gts"):
            (tmp_path / d).mkdir()
            fileio.write_mask_pgm(tmp_path / d / "a.pgm", gt)
            fileio.write_mask_pgm(tmp_path / d / "b.pgm", gt)
        # same stem, second format: one of the two would be dropped silently
        fileio.write_tns(tmp_path / side / "a.tns", gt.astype(np.float32))
        capsys.readouterr()
        code = main([
            "metrics", "saliency", "--pred-dir", str(tmp_path / "preds"),
            "--gt-dir", str(tmp_path / "gts"), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "'a'" in err and "a.pgm" in err and "a.tns" in err
        assert not (tmp_path / "r.json").exists()

    def test_metrics_instances_cli(self, tmp_path):
        _, manifest, blobs = three_blob_fixture(tmp_path)
        code = main([
            "metrics", "instances", "--pred-manifest", str(manifest),
            "--gt-manifest", str(manifest), "--out", str(tmp_path / "inst.json"),
        ])
        assert code == 0
        report = fileio.read_json(tmp_path / "inst.json")
        assert report["ap50"] == 1.0 and report["matched_iou_mean"] == 1.0
        assert set(report) >= {"precision", "recall", "f1", "ap50", "matched_iou_mean"}

    # (command, manifest data, words the message must contain): each exits 2
    # with one "i/o error" line, not a traceback
    MALFORMED_MANIFESTS = {
        "instances_not_a_list": ("dedup", {"instances": 5}, ["'instances' list"]),
        "mask_not_a_string": ("dedup", {"instances": [{"mask": 5, "score": 0.5}]},
                              ["instance 0", "'mask'", "a string"]),
        "mask_missing": ("dedup", {"instances": [{"score": 0.5}]}, ["'mask'", "a string"]),
        "score_a_string": ("dedup", {"instances": [{"mask": "cand_0.pgm", "score": "0.5"}]},
                           ["'score'", "a number"]),
        "prompt_index_a_bool": ("dedup", {"instances": [
            {"mask": "cand_0.pgm", "score": 0.5, "prompt_index": True}]},
            ["'prompt_index'", "an int"]),
        "prompt_index_a_float": ("dedup", {"instances": [
            {"mask": "cand_0.pgm", "score": 0.5, "prompt_index": 1.0}]},
            ["'prompt_index'", "an int"]),
        "score_past_float_range": ("dedup", {"instances": [
            {"mask": "cand_0.pgm", "score": 10**400}]}, ["'score'", "finite"]),
        "prompt_index_past_int64": ("dedup", {"instances": [
            {"mask": "cand_0.pgm", "score": 0.5, "prompt_index": 2**63}]},
            ["'prompt_index'", "within int64"]),
        "gt_entry_not_an_object": ("gt", {"instances": [7]}, ["instance 0", "an object"]),
        "gt_mask_not_a_string": ("gt", {"instances": [{"mask": None}]}, ["'mask'", "a string"]),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_exits_two(self, tmp_path, capsys, case):
        command, data, words = self.MALFORMED_MANIFESTS[case]
        _, good, _ = three_blob_fixture(tmp_path)
        bad = tmp_path / "bad.json"
        fileio.write_json(bad, data)
        if command == "dedup":
            argv = ["instances", "dedup", "--manifest", str(bad), "--iou-threshold", "0.75"]
        else:
            argv = ["metrics", "instances", "--pred-manifest", str(good),
                    "--gt-manifest", str(bad)]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
        assert all(word in captured.err for word in words), captured.err
        assert not (tmp_path / "out.json").exists()

    def test_over_long_integer_in_a_gt_manifest_exits_two(self, tmp_path, capsys):
        # its bytes are written here: json.dumps, which writes the
        # MALFORMED_MANIFESTS, refuses an int of over 4300 digits too
        _, good, _ = three_blob_fixture(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"instances": [{"mask": "cand_0.pgm", "score": %s}]}' % ("9" * 5001))
        capsys.readouterr()
        assert main(["metrics", "instances", "--pred-manifest", str(good), "--gt-manifest",
                     str(bad), "--out", str(tmp_path / "out.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"i/o error: {bad}: integer literal too long\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("content, message", [
        (b"\x89PNG\r\n\x1a\n\x00\xff\xfe", "not UTF-8 text"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
        (b"[" + b"9" * 5001 + b"]", "integer literal too long"),
    ], ids=["binary", "nested_too_deeply", "integer_literal_too_long"])
    @pytest.mark.parametrize("flag", ["--config", "--manifest"])
    def test_undecodable_json_input_exits_two(self, tmp_path, capsys, flag, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = {"--config": ["audit", "params", "--config", str(bad)],
                "--manifest": ["instances", "dedup", "--manifest", str(bad)]}[flag]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"i/o error: {bad}: {message}\n"

    def test_audit_cli(self, tmp_path, capsys):
        assert main(["audit", "params"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dsga_params"] == 3_992_964
        assert out["lora_params"] == 294_912
        assert out["lora_reference_discrepancy"] is True

    def test_exit_codes(self, tmp_path):
        # 2: missing file
        assert main(["forward", "--input", str(tmp_path / "nope.tns"),
                     "--params", "p", "--config", "c", "--output", "o"]) == 2
        # 1: validation error in config
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text('{"bogus": 1}')
        assert main(["audit", "params", "--config", str(bad_cfg)]) == 1
        # 1: a mistyped value is a validation error, not a traceback
        bad_cfg.write_text('{"backbone": {"layers": "12"}}')
        assert main(["audit", "params", "--config", str(bad_cfg)]) == 1
        # 1: argparse usage error routed through the validation path
        assert main(["lora", "apply"]) == 1
        # 2: corrupt tensor file
        bad_tns = tmp_path / "bad.tns"
        bad_tns.write_bytes(b"junk\n")
        x_cfg = tmp_path / "cfg.json"
        x_cfg.write_text('{"embed_dim": 8}')
        assert main(["forward", "--input", str(bad_tns), "--params", "p",
                     "--config", str(x_cfg), "--output", "o"]) == 2

    def test_forward_on_empty_grid_exits_one(self, tmp_path, capsys):
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="eval", seed=9)
        write_params_bundle(tmp_path / "params", init_dsga_params(cfg))
        (tmp_path / "cfg.json").write_text('{"embed_dim": 8, "k_max": 3}')
        fileio.write_tns(tmp_path / "x.tns", np.zeros((1, 0, 3, 8), np.float32))
        code = main([
            "forward", "--input", str(tmp_path / "x.tns"),
            "--params", str(tmp_path / "params"), "--config", str(tmp_path / "cfg.json"),
            "--output", str(tmp_path / "y.tns"),
        ])
        assert code == 1
        assert "empty token grid" in capsys.readouterr().err
        assert not (tmp_path / "y.tns").exists()

    def test_forward_on_empty_batch_exits_one(self, tmp_path, capsys):
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="eval", seed=9)
        write_params_bundle(tmp_path / "params", init_dsga_params(cfg))
        (tmp_path / "cfg.json").write_text('{"embed_dim": 8, "k_max": 3}')
        fileio.write_tns(tmp_path / "x.tns", np.zeros((0, 3, 3, 8), np.float32))
        code = main([
            "forward", "--input", str(tmp_path / "x.tns"),
            "--params", str(tmp_path / "params"), "--config", str(tmp_path / "cfg.json"),
            "--output", str(tmp_path / "y.tns"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "validation error: empty batch: B = 0\n"
        assert not (tmp_path / "y.tns").exists()

    def test_gradcheck_failure_exits_three(self, tmp_path, monkeypatch):
        from dsga import cli
        from dsga.pipeline import GradcheckResult

        monkeypatch.setattr(
            cli.pipeline,
            "gradcheck_all",
            lambda seed, instances: [GradcheckResult("dsga_vjp", 0.5, 1e-4, instances)],
        )
        assert main(["gradcheck", "--out", str(tmp_path / "r.json")]) == 3
        report = fileio.read_json(tmp_path / "r.json")
        assert report["pass"] is False

    def test_demo_cli_deterministic(self, tmp_path, capsys):
        assert main(["demo", "--seed", "7", "--out", str(tmp_path / "d1")]) == 0
        first = capsys.readouterr().out
        assert main(["demo", "--seed", "7", "--out", str(tmp_path / "d2")]) == 0
        second = capsys.readouterr().out
        assert first == second
        comparison = filecmp.dircmp(tmp_path / "d1", tmp_path / "d2")
        assert not comparison.diff_files and not comparison.left_only


class TestCliParserReuse:
    @staticmethod
    def saliency_pair(root: Path, seed: int) -> list[str]:
        rng = np.random.default_rng(seed)
        for d in ("pred", "gt"):
            (root / d).mkdir(parents=True)
        for stem in ("a", "b"):
            gt = rng.random((12, 9)) < 0.4
            fileio.write_tns(root / "pred" / f"{stem}.tns", rng.random((12, 9)).astype(np.float32))
            fileio.write_mask_pgm(root / "gt" / f"{stem}.pgm", gt)
        return ["metrics", "saliency", "--pred-dir", str(root / "pred"),
                "--gt-dir", str(root / "gt")]

    def test_calls_in_one_process_match_fresh_parsers(self, tmp_path, capsys):
        from dsga import cli

        gt = np.zeros((8, 8), bool)
        gt[2:6, 2:6] = True
        fileio.write_mask_pgm(tmp_path / "loss_gt.pgm", gt)
        fileio.write_tns(tmp_path / "loss_pred.tns", np.where(gt, 0.8, 0.1))
        first = self.saliency_pair(tmp_path / "one", 1)
        second = self.saliency_pair(tmp_path / "two", 2)
        calls = [
            first,
            second,
            ["metrics", "saliency", "--pred-dir", str(tmp_path / "one" / "pred")],
            ["loss", "eval", "--pred", str(tmp_path / "loss_pred.tns"),
             "--gt", str(tmp_path / "loss_gt.pgm"), "--weights", "1,2,3"],
            second,
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        cli._parser.cache_clear()
        reused = [run(calls[0])]
        parser = cli._parser()
        reused += [run(argv) for argv in calls[1:]]

        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0]
        assert reused[2][2].startswith("validation error:")
        assert "--gt-dir" in reused[2][2]
        assert reused[0][1] != reused[1][1] == reused[4][1]
        assert set(json.loads(reused[3][1])) == {"total", "focal", "dice", "boundary"}
        assert cli._parser() is parser

    def test_build_parser_returns_a_new_parser(self):
        from dsga import cli

        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()
