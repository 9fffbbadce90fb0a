import tracemalloc

import numpy as np
import pytest

from dsga import pipeline
from dsga.adapter import DsgaConfig, init_dsga_params, parameter_count
from dsga.lora import (
    LoraConfig,
    LoraLayer,
    init_lora_layer,
    lora_apply,
    lora_parameter_count,
    lora_vjp,
)
from dsga.numerics import NumericalError, finite_diff_grad
from dsga.pipeline import max_hybrid_error


def random_layer(rng, d=6, k_dim=5, rank=3, alpha=None):
    return LoraLayer(
        w0=rng.standard_normal((d, k_dim)),
        a=0.3 * rng.standard_normal((rank, k_dim)),
        b=0.3 * rng.standard_normal((d, rank)),
        rank=rank,
        alpha=float(alpha if alpha is not None else rank),
    )


class TestLoraApply:
    def test_zero_b_is_bitwise_base_projection(self):
        rng = np.random.default_rng(0)
        layer = init_lora_layer(rng.standard_normal((6, 5)), rank=3, seed=1)
        x = rng.standard_normal((4, 5))
        assert np.array_equal(lora_apply(layer, x), x @ layer.w0.T)

    def test_identity_through_delta_path(self):
        d = 4
        layer = LoraLayer(
            w0=np.zeros((d, d)), a=np.eye(d), b=np.eye(d), rank=d, alpha=float(d)
        )
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, d))
        assert np.allclose(lora_apply(layer, x), x, atol=1e-12)

    def test_matches_materialized_delta(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            k_dim = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(d, k_dim) + 1))
            layer = random_layer(rng, d, k_dim, r, alpha=float(rng.uniform(0.5, 4.0)))
            x = rng.standard_normal((5, k_dim)).astype(np.float32)
            dense = layer.w0 + layer.scaling * (layer.b @ layer.a)
            out = lora_apply(layer, x)
            ref = x @ dense.T
            rel = np.abs(out - ref).max() / max(np.abs(ref).max(), 1e-12)
            assert rel <= 1e-5

    def test_scaling_halves_when_rank_doubles(self):
        rng = np.random.default_rng(3)
        layer = random_layer(rng, d=6, k_dim=6, rank=2, alpha=2.0)
        x = rng.standard_normal((3, 6))
        delta1 = lora_apply(layer, x) - x @ layer.w0.T
        # same A, B padded with zero rows/columns to rank 4, alpha unchanged
        padded = LoraLayer(
            w0=layer.w0,
            a=np.vstack([layer.a, np.zeros((2, 6))]),
            b=np.hstack([layer.b, np.zeros((6, 2))]),
            rank=4,
            alpha=2.0,
        )
        delta2 = lora_apply(padded, x) - x @ layer.w0.T
        assert np.allclose(delta2, delta1 / 2.0, atol=1e-12)

    def test_batched_inputs(self):
        rng = np.random.default_rng(4)
        layer = random_layer(rng)
        x = rng.standard_normal((2, 3, 5))
        out = lora_apply(layer, x)
        assert out.shape == (2, 3, 6)
        assert np.allclose(out[1, 2], lora_apply(layer, x[1, 2]), atol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(5)
        layer = random_layer(rng)
        with pytest.raises(ValueError, match="incompatible"):
            lora_apply(layer, np.zeros((3, 4)))

    @pytest.mark.parametrize("x_dt, w0_dt, factor_dt", [
        (np.float32, np.float32, np.float32), (np.float64, np.float64, np.float64),
        (np.float32, np.float32, np.float64), (np.float64, np.float32, np.float32),
        (np.int64, np.int64, np.int64),
    ])
    def test_bytes_of_the_out_of_place_sum(self, x_dt, w0_dt, factor_dt):
        # the product is scaled in place and added into base's buffer, each
        # widened first where needed (float64 factors, or the float scaling
        # of an integer product)
        rng = np.random.default_rng(6)
        layer = LoraLayer(w0=(3 * rng.standard_normal((7, 5))).astype(w0_dt),
                          a=(3 * rng.standard_normal((2, 5))).astype(factor_dt),
                          b=(3 * rng.standard_normal((7, 2))).astype(factor_dt), rank=2, alpha=3.0)
        x = (3 * rng.standard_normal((4, 5))).astype(x_dt)
        out = lora_apply(layer, x)
        ref = x @ layer.w0.T + layer.scaling * ((x @ layer.a.T) @ layer.b.T)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    def test_two_token_sized_arrays_at_peak(self):
        # base and the product; scaling the product out of place held a third
        rng = np.random.default_rng(7)
        layer = init_lora_layer(rng.standard_normal((768, 768)).astype(np.float32), rank=8)
        layer.b[...] = 0.01
        x = rng.standard_normal((1024, 768)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lora_apply(layer, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.nbytes, peak / x.nbytes


class TestLoraVjp:
    def test_zero_upstream(self):
        rng = np.random.default_rng(6)
        layer = random_layer(rng)
        x = rng.standard_normal((3, 5))
        dx, da, db = lora_vjp(layer, x, np.zeros((3, 6)))
        assert not dx.any() and not da.any() and not db.any()

    def test_zero_b_structure(self):
        rng = np.random.default_rng(7)
        layer = init_lora_layer(rng.standard_normal((6, 5)), rank=2, seed=2)
        x = rng.standard_normal((3, 5))
        upstream = rng.standard_normal((3, 6))
        dx, da, db = lora_vjp(layer, x, upstream)
        # with B = 0 the input cotangent is the pure base path and A gets none
        assert np.allclose(dx, upstream @ layer.w0, atol=1e-12)
        assert not da.any()
        assert db.any()

    def test_no_cotangent_for_frozen_base(self):
        rng = np.random.default_rng(8)
        layer = random_layer(rng)
        result = lora_vjp(layer, rng.standard_normal((3, 5)), rng.standard_normal((3, 6)))
        assert len(result) == 3  # x, A, B only

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        layer = random_layer(rng)
        x = rng.standard_normal((3, 5))
        upstream = rng.standard_normal((3, 6))
        dx, da, db = lora_vjp(layer, x, upstream)

        def f_x(t):
            return float(np.sum(upstream * lora_apply(layer, t)))

        def f_a(t):
            lay = LoraLayer(layer.w0, t, layer.b, layer.rank, layer.alpha)
            return float(np.sum(upstream * lora_apply(lay, x)))

        def f_b(t):
            lay = LoraLayer(layer.w0, layer.a, t, layer.rank, layer.alpha)
            return float(np.sum(upstream * lora_apply(lay, x)))

        assert max_hybrid_error(dx, finite_diff_grad(f_x, x)) <= 1e-4
        assert max_hybrid_error(da, finite_diff_grad(f_a, layer.a)) <= 1e-4
        assert max_hybrid_error(db, finite_diff_grad(f_b, layer.b)) <= 1e-4


def lora_vjp_before(layer, x, upstream):
    """lora_vjp as it was when it always worked in float64: the bit-exact
    oracle of its float64 path."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    d, k_dim = layer.w0.shape
    xm = x.reshape(-1, k_dim)
    um = upstream.reshape(-1, d)
    s = layer.scaling
    dx = um @ layer.w0 + s * (um @ layer.b) @ layer.a
    da = s * (layer.b.T @ um.T) @ xm
    db = s * um.T @ (xm @ layer.a.T)
    return dx.reshape(x.shape), da, db


def cast_layer(layer, dtype):
    return LoraLayer(layer.w0.astype(dtype), layer.a.astype(dtype), layer.b.astype(dtype),
                     layer.rank, layer.alpha)


class TestLoraVjpPrecision:
    def cases(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            d, k_dim = int(rng.integers(2, 40)), int(rng.integers(2, 40))
            r = int(rng.integers(1, min(d, k_dim) + 1))
            layer = random_layer(rng, d, k_dim, r, alpha=float(rng.uniform(0.5, 4.0)))
            lead = tuple(int(v) for v in rng.integers(1, 6, size=int(rng.integers(1, 3))))
            yield layer, rng.standard_normal(lead + (k_dim,)), rng.standard_normal(lead + (d,))

    def test_float64_bitwise_unchanged(self):
        # float64 x with a float64 or a float32 layer works in float64
        for layer, x, upstream in self.cases():
            for lay in (layer, cast_layer(layer, np.float32)):
                for got, ref in zip(lora_vjp(lay, x, upstream), lora_vjp_before(lay, x, upstream)):
                    assert got.dtype == ref.dtype == np.float64
                    assert got.tobytes() == ref.tobytes()

    def test_float32_within_bound_of_float64(self):
        for layer, x, upstream in self.cases():
            layer32, x32 = cast_layer(layer, np.float32), x.astype(np.float32)
            ref = lora_vjp(cast_layer(layer32, np.float64), x32.astype(np.float64), upstream)
            for got, want in zip(lora_vjp(layer32, x32, upstream), ref):
                assert got.dtype == np.float32 and got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_upstream_overflow_raises(self):
        layer = cast_layer(random_layer(np.random.default_rng(12)), np.float32)
        upstream = np.zeros((3, 6))
        upstream[1, 2] = -1e39  # finite in float64, beyond float32's range
        with pytest.raises(NumericalError, match="upstream"):
            lora_vjp(layer, np.ones((3, 5), np.float32), upstream)
        dx, _, _ = lora_vjp(layer, np.ones((3, 5)), upstream)  # float64 x: no cast
        assert dx.dtype == np.float64 and np.isfinite(dx).all()

    def test_gradcheck_errors_unchanged(self, monkeypatch):
        results = [r.as_dict() for r in pipeline.gradcheck_all(seed=0, instances=3)]
        monkeypatch.setattr(pipeline, "lora_vjp", lora_vjp_before)
        assert [r.as_dict() for r in pipeline.gradcheck_all(seed=0, instances=3)] == results


class TestLoraParameterCount:
    def test_vit_base_query_value(self):
        cfg = LoraConfig(rank=8, targets=("query", "value"))
        assert lora_parameter_count(cfg, d=768, k_dim=768, num_layers=12) == 294_912

    def test_single_target_rank_one(self):
        cfg = LoraConfig(rank=1, targets=("query",))
        assert lora_parameter_count(cfg, d=4, k_dim=4, num_layers=1) == 8

    def test_zero_layers(self):
        assert lora_parameter_count(LoraConfig(), 768, 768, 0) == 0

    def test_negative_layer_count_rejected(self):
        # as parameter_count does: a block count is never negative
        with pytest.raises(ValueError, match="num_layers must be >= 0, got -1"):
            lora_parameter_count(LoraConfig(), 768, 768, -1)

    def test_validation(self):
        with pytest.raises(ValueError, match="targets"):
            LoraConfig(targets=())
        with pytest.raises(ValueError, match="unknown targets"):
            LoraConfig(targets=("key",))
        with pytest.raises(ValueError, match="rank"):
            LoraConfig(rank=0)


class TestParameterDisjointness:
    def test_combined_count_is_plain_sum(self):
        dsga_cfg = DsgaConfig(embed_dim=768, reduction_ratio=0.25, k_max=8)
        lora_cfg = LoraConfig(rank=8, targets=("query", "value"))
        dsga_n = parameter_count(dsga_cfg, 12)
        lora_n = lora_parameter_count(lora_cfg, 768, 768, 12)
        assert dsga_n + lora_n == 4_287_876

    def test_parameter_namespaces_disjoint(self):
        # adapters introduce their own tensors; neither touches the other's
        dsga_names = {
            f"dsga.layer0.{name}"
            for name in init_dsga_params(DsgaConfig(embed_dim=8)).named_arrays()
        } | {"dsga.layer0.theta_k", "dsga.layer0.w_p_raw", "dsga.layer0.w_n_raw"}
        lora_names = {
            f"lora.layer0.{target}.{factor}"
            for target in ("query", "value")
            for factor in ("a", "b")
        }
        assert not (dsga_names & lora_names)


class TestLoraLayerInvariants:
    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank"):
            LoraLayer(
                w0=np.zeros((3, 4)), a=np.zeros((5, 4)), b=np.zeros((3, 5)),
                rank=5, alpha=5.0,
            )

    def test_factor_shapes_checked(self):
        with pytest.raises(ValueError, match="A must be"):
            LoraLayer(
                w0=np.zeros((3, 4)), a=np.zeros((2, 3)), b=np.zeros((3, 2)),
                rank=2, alpha=2.0,
            )

    def test_init_starts_at_zero_delta(self):
        rng = np.random.default_rng(10)
        layer = init_lora_layer(rng.standard_normal((5, 7)), rank=3, seed=3)
        assert not layer.b.any()
        assert layer.a.any()
        assert abs(layer.a).max() < 0.1  # small-sigma gaussian
