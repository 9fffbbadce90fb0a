import importlib.util
import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

from dsga import adapter, pipeline
from dsga.adapter import (
    DsgaConfig,
    adaptive_k,
    build_graph,
    check_params,
    dropout_mask,
    dsga_forward,
    dsga_vjp,
    dual_pool,
    gated_residual,
    hybrid_pool,
    init_dsga_params,
    init_rank_weights,
    init_theta_k,
    parameter_count,
    propagate,
    rank_weights,
    similarity_matrix,
)
from dsga.numerics import NumericalError, finite_diff_grad
from dsga.pipeline import max_hybrid_error


class TestSimilarityMatrix:
    def test_identical_rows(self):
        z = np.array([[[1.0, 2.0, 2.0, 0.0], [1.0, 2.0, 2.0, 0.0]]])
        s = similarity_matrix(z)
        # cosine 1 scaled by 1/sqrt(4), then tanh
        assert abs(s[0, 0, 1] - math.tanh(0.5)) < 1e-12

    def test_orthogonal_rows(self):
        z = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        assert abs(similarity_matrix(z)[0, 0, 1]) < 1e-12

    def test_antipodal_one_dim(self):
        z = np.array([[[2.0], [-3.0]]])
        assert abs(similarity_matrix(z)[0, 0, 1] - math.tanh(-1.0)) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        z64 = rng.standard_normal((2, 10, 4))
        s64 = similarity_matrix(z64)
        assert np.abs(s64 - s64.transpose(0, 2, 1)).max() < 1e-12
        s32 = similarity_matrix(z64.astype(np.float32))
        assert np.abs(s32 - s32.transpose(0, 2, 1)).max() < 1e-6

    def test_range_and_diagonal(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((1, 6, 4))
        s = similarity_matrix(z)
        assert np.all(np.abs(s) < 1.0)
        assert np.allclose(np.diagonal(s, axis1=1, axis2=2), math.tanh(0.5), atol=1e-9)


class TestRankWeights:
    def test_polynomial_decay_logits(self):
        assert np.allclose(init_rank_weights(3, 2.0), [1.0, 0.75, 0.0], atol=1e-15)

    def test_softmax_of_decay_logits(self):
        w = rank_weights(init_rank_weights(3, 2.0))
        expected = [0.46583556726652602, 0.36279310456968256, 0.17137132816379142]
        assert np.allclose(w, expected, rtol=0, atol=1e-15)

    def test_degenerate_single_rank(self):
        assert np.array_equal(rank_weights(init_rank_weights(1, 2.0)), [1.0])

    def test_large_decay_exponent_limit(self):
        # p -> inf drives logits to [1, 1, 0]: first two weights approach e/(2e+1)
        w = rank_weights(init_rank_weights(3, 1e6))
        e = math.e
        assert np.allclose(w[:2], e / (2 * e + 1), atol=1e-12)
        assert abs(w[2] - 1 / (2 * e + 1)) < 1e-12

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("k_max", [2, 4, 8])
    def test_strictly_decreasing(self, p, k_max):
        w = rank_weights(init_rank_weights(k_max, p))
        assert np.all(np.diff(w) < 0)


class TestAdaptiveK:
    def test_closed_form_case(self):
        assert adaptive_k(math.log(4.0), 8) == 6

    def test_lower_clamp(self):
        assert adaptive_k(-50.0, 8) == 1

    def test_upper_clamp(self):
        assert adaptive_k(50.0, 8) == 8

    def test_initializer(self):
        assert init_theta_k(8) == math.log(4.0)
        assert adaptive_k(init_theta_k(2), 2) in (1, 2)


class TestBuildGraph:
    def test_hand_constructed_top1(self):
        s = np.array(
            [[[0.0, 0.9, 0.1], [0.9, 0.0, 0.2], [0.1, 0.2, 0.0]]]
        )
        g = build_graph(s, k=1, weights=np.array([1.0]))
        assert g.neighbors[0, 0, 0] == 1
        dense = g.to_dense()[0]
        assert abs(dense[0, 0] - 0.5) < 1e-12 and abs(dense[0, 1] - 0.5) < 1e-12

    def test_single_node_self_loop(self):
        g = build_graph(np.zeros((1, 1, 1)), k=3, weights=np.ones(3))
        assert g.k == 0
        assert np.array_equal(g.to_dense(), [[[1.0]]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 20))
            k = int(rng.integers(1, 9))
            s = np.tanh(rng.standard_normal((2, n, n)))
            dense = build_graph(s, k, rank_weights(init_rank_weights(8, 2.0))).to_dense()
            assert np.abs(dense.sum(axis=-1) - 1.0).max() <= 1e-6

    def test_self_never_a_neighbor(self):
        rng = np.random.default_rng(10)
        s = np.tanh(rng.standard_normal((1, 12, 12)))
        g = build_graph(s, 4, rank_weights(init_rank_weights(8, 2.0)))
        for i in range(12):
            assert i not in g.neighbors[0, i]

    def test_tie_break_lowest_index(self):
        s = np.zeros((1, 4, 4))  # all similarities tie
        g = build_graph(s, 2, np.array([0.6, 0.4]))
        assert list(g.neighbors[0, 0]) == [1, 2]
        assert list(g.neighbors[0, 3]) == [0, 1]

    def test_json_obj_lists_each_node(self):
        rng = np.random.default_rng(12)
        s = np.tanh(rng.standard_normal((2, 7, 7)))
        g = build_graph(s, 3, rank_weights(init_rank_weights(4, 2.0)))
        obj = g.as_json_obj()
        assert len(obj) == 2 and all(len(nodes) == 7 for nodes in obj)
        for b, nodes in enumerate(obj):
            for i, node in enumerate(nodes):
                assert node["node"] == i and node["self_weight"] == g.self_weights[b, i]
                nbrs = node["neighbors"]
                assert [nb["rank"] for nb in nbrs] == [0, 1, 2]
                assert [nb["index"] for nb in nbrs] == list(g.neighbors[b, i])
                assert [nb["weight"] for nb in nbrs] == list(g.edge_weights[b, i])
                total = node["self_weight"] + sum(nb["weight"] for nb in nbrs)
                assert abs(total - 1.0) <= 1e-12

    def test_rank_order_strict(self):
        rng = np.random.default_rng(11)
        s = np.tanh(rng.standard_normal((1, 16, 16)))
        g = build_graph(s, 5, rank_weights(init_rank_weights(8, 2.0)))
        for i in range(16):
            vals = s[0, i, g.neighbors[0, i]]
            assert np.all(np.diff(vals) < 0)  # continuous values: no ties


def argsort_neighbors(s, k):
    """Reference top-k selection: a stable argsort of every full row of the
    float64 similarities with the self entry masked (descending value, ties
    by lowest index). It is the selection build_graph used before the
    partition kernel, kept here as the oracle."""
    n = s.shape[1]
    k = max(0, min(int(k), n - 1))
    masked = np.asarray(s).astype(np.float64, copy=True)
    diag = np.arange(n)
    masked[:, diag, diag] = -np.inf
    return np.argsort(-masked, axis=-1, kind="stable")[:, :, :k]


def tied_tokens(rng, b, n, dh):
    """Gaussian features where about a third of the tokens copy another token
    and a few are zero, so many similarities tie exactly."""
    z = rng.standard_normal((b, n, dh))
    for bi in range(b):
        dst = rng.choice(n, size=n // 3, replace=False)
        z[bi, dst] = z[bi, rng.integers(0, n, size=dst.size)]
        z[bi, rng.choice(n, size=n // 10, replace=False)] = 0.0
    return z


DEFAULT_BLOCK_ELEMS = adapter._BLOCK_ELEMS


def set_block_rows(monkeypatch, rows, b, n):
    """Set the streamed graph's element budget to ``rows`` rows per block
    (None restores the module default)."""
    budget = DEFAULT_BLOCK_ELEMS if rows is None else rows * b * n
    monkeypatch.setattr(adapter, "_BLOCK_ELEMS", budget)


def record_blocks(monkeypatch):
    """Copies of the similarity row blocks the streamed graph selects from, in
    order: the key of each whole block of products, which the selection
    itself evaluates only where it needs it."""
    blocks = []
    top_k_rows = adapter._top_k_rows

    def recording(s, row0, k, key=None):
        blocks.append(s.copy() if key is None else key(s.copy()))
        return top_k_rows(s, row0, k, key)

    monkeypatch.setattr(adapter, "_top_k_rows", recording)
    return blocks


def streamed_vs_argsort(monkeypatch, z, k, weights, rows=None):
    """Run the streamed graph and check it against the argsort oracle on the
    similarity blocks it computed; returns (graph, blocked similarity)."""
    b, n, _ = z.shape
    set_block_rows(monkeypatch, rows, b, n)
    rows = max(2, adapter._BLOCK_ELEMS // (b * n))
    blocks = record_blocks(monkeypatch)
    g = adapter._streamed_graph(z, k, weights)
    # blocks tile the rows in order; a lone last row joins the block before it
    sizes = [blk.shape[1] for blk in blocks]
    assert sum(sizes) == n and all(size == rows for size in sizes[:-1])
    assert n == 1 or 2 <= sizes[-1] <= rows + 1
    s = np.concatenate(blocks, axis=1)
    assert np.allclose(s, similarity_matrix(z), rtol=0, atol=1e-12)
    assert np.array_equal(g.neighbors, argsort_neighbors(s, k))
    return g, s


class TestTopKOracle:
    def test_build_graph_matches_argsort_on_ties(self):
        rng = np.random.default_rng(60)
        for _ in range(60):
            b, n = int(rng.integers(1, 3)), int(rng.integers(1, 40))
            k = int(rng.integers(0, n + 3))
            if rng.random() < 0.5:
                s = similarity_matrix(tied_tokens(rng, b, n, 4))
            else:  # coarse levels: most of each row ties
                s = rng.integers(-3, 4, size=(b, n, n)) / 4.0
            g = build_graph(s, k, np.ones(max(k, 1)))
            assert np.array_equal(g.neighbors, argsort_neighbors(s, k))

    @pytest.mark.parametrize("rows", [2, 3, 5, 7])
    def test_streamed_matches_argsort_across_blocks(self, rows, monkeypatch):
        rng = np.random.default_rng(61 + rows)
        for _ in range(25):
            b, n = int(rng.integers(1, 3)), int(rng.integers(1, 30))
            k = int(rng.integers(0, n + 2))
            streamed_vs_argsort(monkeypatch, tied_tokens(rng, b, n, 3), k, np.ones(max(k, 1)), rows)

    def test_streamed_edge_cases(self, monkeypatch):
        rng = np.random.default_rng(62)
        w = rank_weights(init_rank_weights(8, 2.0))
        # N = 1 (k -> 0), k >= N - 1, N % rows == 1, N below one default block
        for b, n, k, rows in [(1, 1, 3, 2), (2, 1, 1, 5), (2, 6, 8, 4), (1, 9, 8, 3),
                              (1, 10, 4, 3), (2, 17, 5, 4), (2, 13, 3, None)]:
            z = tied_tokens(rng, b, n, 3)
            g, s = streamed_vs_argsort(monkeypatch, z, k, w, rows)
            ref = build_graph(s, k, w)
            assert g.k == ref.k == min(k, n - 1)
            assert np.array_equal(g.edge_weights, ref.edge_weights)
            assert np.array_equal(g.self_weights, ref.self_weights)
            if rows is None:  # one block is the full product, as in similarity_matrix
                assert np.array_equal(s, similarity_matrix(z))

    def test_streamed_default_budget_two_blocks(self, monkeypatch):
        # N = 1500 exceeds one default block of 2**21 // 1500 = 1398 rows
        rng = np.random.default_rng(63)
        streamed_vs_argsort(monkeypatch, tied_tokens(rng, 1, 1500, 6), 6, np.ones(6))

    def test_forward_bytes_unchanged_on_tied_field(self, monkeypatch):
        cfg = DsgaConfig(embed_dim=32, k_max=8, dropout_prob=0.0, mode="eval", seed=64)

        def argsort_graph(z, k, weights):
            s = similarity_matrix(z)
            g = build_graph(s, k, weights)
            g.neighbors = argsort_neighbors(s, k)
            return g

        for precision, dtype in (("single", np.float32), ("double", np.float64)):
            params = init_dsga_params(cfg, precision=precision)
            rng = np.random.default_rng(64)
            x = rng.standard_normal((1, 16, 16, 32)).astype(dtype)
            x[0, 3:9, 5:12] = x[0, 3, 5]  # a flat rectangle of identical tokens
            x[0, 12:, :4] = x[0, 0, 0]
            out, graph = dsga_forward(x, params, cfg)
            with monkeypatch.context() as m:
                m.setattr(adapter, "_streamed_graph", argsort_graph)
                ref_out, ref_graph = dsga_forward(x, params, cfg)
            assert np.array_equal(graph.neighbors, ref_graph.neighbors)
            assert out.dtype == dtype and out.tobytes() == ref_out.tobytes()

    @pytest.mark.parametrize("rows", [2, 3, 5, None])
    def test_float32_key_selects_as_its_float64_widening(self, rows, monkeypatch):
        # widening is exact and keeps order, so selecting on the float32 blocks
        # and on their float64 copies gives the same neighbours, ties included
        rng = np.random.default_rng(67 + (rows or 0))
        top_k_rows = adapter._top_k_rows

        def widened(s, row0, k, key):
            return top_k_rows(key(s).astype(np.float64), row0, k)

        for _ in range(20):
            b, n = int(rng.integers(1, 3)), int(rng.integers(2, 40))
            k = int(rng.integers(1, n + 2))
            z = tied_tokens(rng, b, n, 4).astype(np.float32)
            weights = np.ones(k)
            with monkeypatch.context() as m:
                set_block_rows(m, rows, b, n)
                m.setattr(adapter, "_top_k_rows", widened)
                g64 = adapter._streamed_graph(z, k, weights)
                m.setattr(adapter, "_top_k_rows", top_k_rows)
                blocks = record_blocks(m)
                g32 = adapter._streamed_graph(z, k, weights)
            s = np.concatenate(blocks, axis=1)
            assert s.dtype == np.float32 and (rows is None or len(blocks) > 1 or n <= rows + 1)
            assert np.array_equal(g32.neighbors, g64.neighbors)
            assert np.array_equal(g32.neighbors, argsort_neighbors(s, k))

    def test_non_finite_similarity_raises(self, monkeypatch):
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="eval", seed=65)
        params = init_dsga_params(cfg)
        x = np.random.default_rng(65).standard_normal((1, 3, 3, 8))

        def nan_gelu(pre):
            z = np.array(pre, dtype=np.float64)
            z[0, 4, 1] = np.nan
            return z

        monkeypatch.setattr(adapter, "gelu", nan_gelu)
        set_block_rows(monkeypatch, 2, 1, 9)
        with pytest.raises(NumericalError, match="similarity"):
            dsga_forward(x, params, cfg)
        # build_graph checks its matrix whole: a NaN on the diagonal and an
        # -inf would not show in the group maxima the selection checks
        for entry, value in [((2, 0), np.nan), ((1, 1), np.nan), ((2, 0), -np.inf),
                             ((0, 2), np.inf)]:
            s = np.zeros((1, 3, 3))
            s[(0, *entry)] = value
            for k in (0, 1):
                with pytest.raises(NumericalError, match="similarity"):
                    build_graph(s, k, np.ones(1))
        # the selection itself sees NaN or +inf off the diagonal through the
        # group maxima, whichever group holds it
        for col in (0, 255, 256, 299):
            for value in (np.nan, np.inf):
                key = np.zeros((1, 4, 300), dtype=np.float32)
                key[0, 3, col] = value
                with pytest.raises(NumericalError, match="similarity contains non-finite"):
                    adapter._top_k_rows(key, 0, 2)

    def test_no_n_by_n_buffer_in_forward_or_vjp(self, monkeypatch):
        cfg = DsgaConfig(embed_dim=8, k_max=4, dropout_prob=0.0, mode="eval", seed=66)
        params = init_dsga_params(cfg, precision="double")
        rng = np.random.default_rng(66)
        x = rng.standard_normal((1, 48, 48, 8))
        n = 48 * 48
        set_block_rows(monkeypatch, 16, 1, n)
        tracemalloc.start()
        try:
            for call in (
                lambda: dsga_forward(x, params, cfg),
                lambda: dsga_vjp(x, params, cfg, np.ones_like(x)),
            ):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak < n * n  # an N x N float64 array is 8 * n * n bytes
        finally:
            tracemalloc.stop()


def partition_top_k(key, row0, k):
    """Reference top-k selection of the similarity rows row0..row0+R-1 in
    ``key`` (not modified): a partition of every full row, the tie at the
    k-th value cut at the lowest indices, then a stable sort of the k kept
    values. It is the selection _top_k_rows made before the group-maximum
    bound, kept here as the oracle."""
    b, r, n = key.shape
    if k == 0:
        return np.zeros((b, r, 0), dtype=np.intp)
    key = key.copy()
    local = np.arange(r)
    key[:, local, row0 + local] = -np.inf
    kth = np.partition(key, n - k, axis=-1)[..., n - k, None]
    keep = key >= kth
    tied = np.count_nonzero(keep, axis=-1) > k
    if tied.any():
        sub, cut = key[tied], kth[tied]
        above, at = sub > cut, sub == cut
        need = k - np.count_nonzero(above, axis=-1, keepdims=True)
        keep[tied] = above | (at & (np.cumsum(at, axis=-1) <= need))
    cols = (np.flatnonzero(keep) % n).reshape(b, r, k)
    vals = np.take_along_axis(key, cols, axis=-1)
    order = np.argsort(-vals, axis=-1, kind="stable")
    return np.take_along_axis(cols, order, axis=-1)


def full_key_top_k(key, row0, k):
    """Reference top-k selection of the similarity rows row0..row0+R-1 held in
    ``key`` (overwritten): the whole block's key, the group-maximum bound,
    each row's first k ties at it, then a stable sort by (row, -key). It is
    the selection _top_k_rows made before it read each block of products
    once and keyed only the groups that can hold the top k, kept here as the
    oracle."""
    b, r, n = key.shape
    if k == 0:
        return np.zeros((b, r, 0), dtype=np.intp)
    local = np.arange(r)
    key[:, local, row0 + local] = -np.inf
    m = min(n, max(adapter._GROUPS, k + 1))
    whole = n - n % m
    gmax = key[..., :whole].reshape(b, r, -1, m).max(axis=2)
    np.maximum(gmax[..., : n - whole], key[..., whole:], out=gmax[..., : n - whole])
    if not gmax.max() < np.inf:
        raise NumericalError("similarity contains non-finite values")
    bound = np.partition(gmax, m - k, axis=-1)[..., m - k, None]
    cand = key >= bound
    if np.count_nonzero(cand) > b * r * (k + (k - 1) * -(-n // m)):
        ties = cand
        cand = key > bound
        ties ^= cand
        each_row = np.arange(b)[:, None], local
        for _ in range(k):
            first = (*each_row, ties.argmax(axis=-1))
            cand[first] |= ties[first]
            ties[first] = False
    flat = np.flatnonzero(cand)
    row = flat // n
    flat = flat[np.lexsort((-key.reshape(-1)[flat], row))]
    count = np.bincount(row, minlength=b * r)
    start = np.cumsum(count) - count
    return (flat[start[:, None] + np.arange(k)] % n).reshape(b, r, k)


def record_sort_sizes(monkeypatch):
    """The number of keys each np.lexsort call sorts, in order: the candidates
    of each block that _top_k_rows selects from (it is the only caller of
    np.lexsort in the forward)."""
    sizes = []
    lexsort = np.lexsort

    def recording(keys, *args, **kwargs):
        sizes.append(len(keys[0]))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", recording)
    return sizes


def candidate_cap(rows, n, k):
    """At most (k - 1) * ceil(n / m) entries of a row exceed the group bound
    (fewer than k groups hold them), plus the row's first k ties at it."""
    m = min(n, max(adapter._GROUPS, k + 1))
    return rows * (k + (k - 1) * -(-n // m))


def streamed_vs_partition(monkeypatch, z, k, rows=None):
    """Streamed and build_graph neighbours against the partition oracle on the
    similarity blocks the streamed graph computed, and on their concatenation."""
    b, n, _ = z.shape
    k_eff = max(0, min(k, n - 1))
    weights = np.ones(max(k_eff, 1))
    with monkeypatch.context() as m:
        set_block_rows(m, rows, b, n)
        blocks = record_blocks(m)
        g = adapter._streamed_graph(z, k, weights)
    ref, r0 = [], 0
    for blk in blocks:
        ref.append(partition_top_k(blk, r0, k_eff))
        r0 += blk.shape[1]
    assert np.array_equal(g.neighbors, np.concatenate(ref, axis=1))
    s = np.concatenate(blocks, axis=1)
    assert np.array_equal(build_graph(s, k, weights).neighbors, partition_top_k(s, 0, k_eff))


def two_valued_tokens(rng, b, n, dh):
    """Each token is one of two fixed vectors, so every similarity row holds
    two values (three with its own entry) and ties densely."""
    pair = rng.standard_normal((2, dh))
    return pair[rng.integers(0, 2, size=(b, n))]


# column-group counts: the module's; the fewest (m = k + 1, the loosest bound,
# so a row's candidates are nearly the whole row, as for a partition); and
# one group per column (m = n, the tightest bound and the fewest candidates)
GROUP_COUNTS = {"default": adapter._GROUPS, "partition": 1, "candidates": 2**31}


class TestGroupBoundSelection:
    """The top-k selection through the group-maximum candidate bound, with
    dense ties at the bound cut to their first k, is bit-equal to the
    full-row partition."""

    @pytest.mark.parametrize("groups", GROUP_COUNTS)
    @pytest.mark.parametrize("n", [600, 1000, 1500])
    def test_tied_tokens_with_multi_column_groups(self, n, groups, monkeypatch):
        # with the module's 256 groups, n > 256 puts two or more columns in
        # each group, and 256 divides none of n
        monkeypatch.setattr(adapter, "_GROUPS", GROUP_COUNTS[groups])
        rng = np.random.default_rng(80 + n)
        for b, dh, k, rows in [(1, 4, 6, None), (2, 3, 8, 97), (1, 6, 1, 250)]:
            streamed_vs_partition(monkeypatch, tied_tokens(rng, b, n, dh), k, rows)

    @pytest.mark.parametrize("groups", GROUP_COUNTS)
    def test_dense_ties(self, groups, monkeypatch):
        monkeypatch.setattr(adapter, "_GROUPS", GROUP_COUNTS[groups])
        rng = np.random.default_rng(90)
        for z in (np.ones((1, 700, 5)), two_valued_tokens(rng, 2, 700, 5)):
            for k in (1, 6):
                streamed_vs_partition(monkeypatch, z, k)
                streamed_vs_partition(monkeypatch, z, k, rows=128)

    @pytest.mark.parametrize("groups", GROUP_COUNTS)
    def test_batch_of_two_and_extreme_k(self, groups, monkeypatch):
        monkeypatch.setattr(adapter, "_GROUPS", GROUP_COUNTS[groups])
        rng = np.random.default_rng(91)
        # k = n - 1 gives m = n = 200 (every column its own group) and, at
        # n = 300, m = n above the 256 default groups, whatever the group count
        for n, ks in ((200, (0, 1, 199, 203)), (300, (0, 1, 299)), (520, (0, 1, 6))):
            z = tied_tokens(rng, 2, n, 4)
            for k in ks:
                streamed_vs_partition(monkeypatch, z, k)
                streamed_vs_partition(monkeypatch, z, k, rows=111)

    @pytest.mark.parametrize("groups", GROUP_COUNTS)
    def test_self_entry_alone_large_in_its_group(self, groups, monkeypatch):
        # with the module's groups, each row's own entry is its group's only
        # large value: masking it leaves that group's maximum among the
        # smallest of the row
        monkeypatch.setattr(adapter, "_GROUPS", GROUP_COUNTS[groups])
        rng = np.random.default_rng(92)
        b, n = 2, 700
        s = rng.uniform(-1.0, 0.0, size=(b, n, n))
        s[:, np.arange(n), np.arange(n)] = 1.0
        # a few tied large values elsewhere, and signed zeros that tie with each other
        s[:, :, 3] = s[:, :, 259] = s[:, :, 515] = 0.5
        s[:, :, 10::37] = 0.0
        s[:, :, 11::37] = -0.0
        for k in (1, 3, 6, 40):
            ref = partition_top_k(s, 0, k)
            assert np.array_equal(build_graph(s, k, np.ones(k)).neighbors, ref)
            assert np.array_equal(ref, argsort_neighbors(s, k))

    @pytest.mark.parametrize("rows", [100, 128])
    def test_dense_ties_sort_at_most_the_cap(self, rows, monkeypatch):
        # constant, two-valued and half-tied fields: without the cut every
        # row of a tied block would sort all of its n - 1 tied entries
        rng = np.random.default_rng(93)
        half = rng.standard_normal((1, 1000, 6))
        half[0, 300:800] = half[0, 300]
        for z in (np.ones((1, 1000, 6)), two_valued_tokens(rng, 2, 1000, 6), half):
            b, n, _ = z.shape
            for k in (1, 2, 6):
                streamed_vs_partition(monkeypatch, z, k, rows=rows)
                with monkeypatch.context() as m:
                    set_block_rows(m, rows, b, n)
                    blocks = record_blocks(m)
                    sizes = record_sort_sizes(m)
                    adapter._streamed_graph(z, k, np.ones(k))
                assert len(sizes) == len(blocks)
                for size, blk in zip(sizes, blocks):
                    assert size <= candidate_cap(b * blk.shape[1], n, k)


class TestPropagate:
    def test_single_node_identity(self):
        g = build_graph(np.zeros((1, 1, 1)), k=1, weights=np.array([1.0]))
        z = np.array([[[3.0, -1.0]]])
        assert np.array_equal(propagate(g, z), z)

    def test_uniform_row_averages(self):
        n = 4
        s = np.zeros((1, n, n))
        g = build_graph(s, n - 1, np.full(n - 1, 1.0 / (n - 1)))
        # every row: self weight and each edge weight equal 1/(1 + 1) shares
        z = np.arange(n, dtype=float).reshape(1, n, 1)
        out = propagate(g, z)
        dense = g.to_dense()
        assert np.allclose(out, dense @ z, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((3, 9, 4))
        s = similarity_matrix(z)
        g = build_graph(s, 3, rank_weights(init_rank_weights(8, 2.0)))
        assert np.allclose(propagate(g, z), g.to_dense() @ z, atol=1e-12)

    def test_node_count_mismatch_rejected(self):
        g = build_graph(np.zeros((1, 3, 3)), 1, np.array([1.0]))
        with pytest.raises(ValueError, match="nodes"):
            propagate(g, np.zeros((1, 4, 2)))


class TestDualPool:
    def test_constant_field(self):
        zp = np.full((1, 4, 5, 2), 3.25)
        mx, av = dual_pool(zp)
        assert np.array_equal(mx, zp) and np.allclose(av, zp, atol=1e-12)

    def test_interior_spike(self):
        zp = np.zeros((1, 5, 5, 1))
        zp[0, 2, 2, 0] = 1.0
        mx, av = dual_pool(zp)
        block = np.zeros((5, 5))
        block[1:4, 1:4] = 1.0
        assert np.array_equal(mx[0, :, :, 0], block)
        assert np.allclose(av[0, :, :, 0], block / 9.0, atol=1e-12)

    def test_one_by_one_replicates(self):
        zp = np.array([[[[7.5]]]])
        mx, av = dual_pool(zp)
        assert mx[0, 0, 0, 0] == 7.5 and abs(av[0, 0, 0, 0] - 7.5) < 1e-12

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(13)
        zp = rng.standard_normal((2, 3, 7, 4))
        mx, av = dual_pool(zp)
        assert mx.shape == zp.shape == av.shape


class TestHybridPoolAndGate:
    def test_zero_raw_blends_equally(self):
        mx, av = np.array([2.0]), np.array([4.0])
        assert hybrid_pool(mx, av, 0.0) == pytest.approx(3.0)

    def test_saturates_to_max(self):
        mx, av = np.array([2.0]), np.array([4.0])
        assert hybrid_pool(mx, av, 50.0) == pytest.approx(2.0)

    def test_equal_inputs_invariant(self):
        x = np.array([1.0, -2.0])
        for w in (-3.0, 0.0, 5.0):
            assert np.allclose(hybrid_pool(x, x, w), x, atol=1e-15)

    def test_gate_closed(self):
        zp, pooled = np.array([1.0]), np.array([9.0])
        assert gated_residual(zp, pooled, -60.0) == pytest.approx(1.0)

    def test_gate_saturates_at_half(self):
        zp, pooled = np.array([1.0]), np.array([9.0])
        assert gated_residual(zp, pooled, 60.0) == pytest.approx(5.0)

    def test_identical_inputs_pass_through(self):
        x = np.array([0.5, -1.5])
        assert np.allclose(gated_residual(x, x, 1.3), x, atol=1e-15)

    def test_preservation_bound(self):
        rng = np.random.default_rng(14)
        zp = rng.standard_normal((2, 3, 3, 2))
        pooled = rng.standard_normal((2, 3, 3, 2))
        for w in (-4.0, -0.3, 0.0, 1.7, 30.0):
            out = gated_residual(zp, pooled, w)
            assert np.abs(out - zp).max() <= 0.5 * np.abs(pooled - zp).max() + 1e-12


# ---------------------------------------------------------------------------
# straight-line reimplementation of the full forward pass (loops only), used
# as the dual-implementation oracle


def _reflect(i, n):
    if n == 1:
        return 0
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - 2 - i
    return i


def straightline_forward(x, params, cfg):
    b, h, w, d = x.shape
    n = h * w
    dh = cfg.d_hidden
    xf = x.reshape(b, n, d)

    z = np.zeros((b, n, dh))
    for bi in range(b):
        for i in range(n):
            for j in range(dh):
                acc = params.down_b[j]
                for t in range(d):
                    acc += xf[bi, i, t] * params.down_w[t, j]
                z[bi, i, j] = acc * 0.5 * (1.0 + math.erf(acc / math.sqrt(2.0)))

    zh = np.zeros_like(z)
    for bi in range(b):
        for i in range(n):
            norm = math.sqrt(sum(z[bi, i, j] ** 2 for j in range(dh)))
            for j in range(dh):
                zh[bi, i, j] = z[bi, i, j] / (norm + 1e-12)
    sim = np.zeros((b, n, n))
    for bi in range(b):
        for i in range(n):
            for j in range(n):
                dot = sum(zh[bi, i, t] * zh[bi, j, t] for t in range(dh))
                sim[bi, i, j] = math.tanh(dot / math.sqrt(dh))

    k = min(cfg.k_max, max(1, math.floor(
        1.0 / (1.0 + math.exp(-params.theta_k)) * (cfg.k_max - 1) + 1)))
    k = min(k, n - 1)

    logits = np.asarray(params.rank_logits, dtype=np.float64)
    exps = np.exp(logits - logits.max())
    wr = exps / exps.sum()

    g_out = np.zeros((b, n, dh))
    row_sum = 1.0 + sum(wr[:k])
    for bi in range(b):
        for i in range(n):
            order = sorted((j for j in range(n) if j != i),
                           key=lambda j: (-sim[bi, i, j], j))
            nbrs = order[:k]
            for t in range(dh):
                acc = z[bi, i, t] / row_sum
                for r, j in enumerate(nbrs):
                    acc += (wr[r] / row_sum) * z[bi, j, t]
                g_out[bi, i, t] = acc

    f = np.zeros((b, n, dh))
    for bi in range(b):
        for i in range(n):
            for j in range(dh):
                f[bi, i, j] = sum(g_out[bi, i, t] * params.fusion_w[t, j] for t in range(dh))
    fr = f.reshape(b, h, w, dh)

    sp = 1.0 / (1.0 + math.exp(-params.w_p_raw))
    gate = 0.5 / (1.0 + math.exp(-params.w_n_raw))
    zp = np.zeros_like(fr)
    for bi in range(b):
        for y in range(h):
            for xx in range(w):
                for c in range(dh):
                    vals = [
                        fr[bi, _reflect(y + dy, h), _reflect(xx + dx, w), c]
                        for dy in (-1, 0, 1)
                        for dx in (-1, 0, 1)
                    ]
                    pooled = sp * max(vals) + (1.0 - sp) * (sum(vals) / 9.0)
                    zp[bi, y, xx, c] = (1.0 - gate) * fr[bi, y, xx, c] + gate * pooled

    out = np.array(x, dtype=np.float64)
    flat = zp.reshape(b, n, dh)
    for bi in range(b):
        for i in range(n):
            for j in range(d):
                acc = params.up_b[j]
                for t in range(dh):
                    acc += flat[bi, i, t] * params.up_w[t, j]
                out[bi, i // w, i % w, j] += acc
    return out


class TestDsgaForward:
    def test_zero_up_projection_is_identity(self):
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.1, mode="eval", seed=2)
        params = init_dsga_params(cfg)
        params.up_w = np.zeros_like(params.up_w)
        params.up_b = np.zeros_like(params.up_b)
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 2, 8)).astype(np.float32)
        out, _ = dsga_forward(x, params, cfg)
        assert out.dtype == x.dtype
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("embed_dim", [4, 8])
    def test_matches_straightline_reimplementation(self, embed_dim):
        cfg = DsgaConfig(
            embed_dim=embed_dim, k_max=3, dropout_prob=0.0, mode="eval", seed=33
        )
        params = init_dsga_params(cfg, precision="double")
        rng = np.random.default_rng(34)
        x = rng.standard_normal((1, 2, 2, embed_dim))
        out, _ = dsga_forward(x, params, cfg)
        ref = straightline_forward(x, params, cfg)
        assert np.allclose(out, ref, rtol=0, atol=1e-9)

    def test_train_mode_without_dropout_matches_eval(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 2, 3, 8))
        cfg_eval = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="eval", seed=3)
        cfg_train = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="train", seed=3)
        params = init_dsga_params(cfg_eval)
        out_e, _ = dsga_forward(x, params, cfg_eval)
        out_t, _ = dsga_forward(x, params, cfg_train)
        assert np.array_equal(out_e, out_t)

    def test_train_dropout_changes_output_deterministically(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((1, 2, 3, 8))
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.5, mode="train", seed=4)
        params = init_dsga_params(cfg)
        out1, _ = dsga_forward(x, params, cfg)
        out2, _ = dsga_forward(x, params, cfg)
        assert np.array_equal(out1, out2)
        out_eval, _ = dsga_forward(
            x, params, DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.5, mode="eval", seed=4)
        )
        assert not np.array_equal(out1, out_eval)

    def test_permutation_equivariance_of_graph_stage(self):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((1, 9, 3))
        w = rank_weights(init_rank_weights(4, 2.0))
        fusion = rng.standard_normal((3, 3))

        def graph_stage(feats):
            g = build_graph(similarity_matrix(feats), 3, w)
            return propagate(g, feats) @ fusion

        perm = rng.permutation(9)
        base = graph_stage(z)
        permuted = graph_stage(z[:, perm])
        assert np.allclose(permuted, base[:, perm], atol=1e-10)

    def test_shape_validation(self):
        cfg = DsgaConfig(embed_dim=8)
        params = init_dsga_params(cfg)
        with pytest.raises(ValueError, match="embed_dim"):
            dsga_forward(np.zeros((1, 2, 2, 4)), params, cfg)

    @pytest.mark.parametrize("shape", [(1, 0, 3, 8), (1, 3, 0, 8), (2, 0, 0, 8)])
    def test_empty_grid_rejected(self, shape):
        cfg = DsgaConfig(embed_dim=8)
        params = init_dsga_params(cfg)
        with pytest.raises(ValueError, match="empty token grid"):
            dsga_forward(np.zeros(shape, np.float32), params, cfg)
        with pytest.raises(ValueError, match="empty token grid"):
            dsga_vjp(np.zeros(shape), params, cfg, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 3, 3, 8), (0, 1, 1, 8), (0, 0, 3, 8)])
    def test_empty_batch_rejected(self, shape):
        cfg = DsgaConfig(embed_dim=8)
        params = init_dsga_params(cfg)
        with pytest.raises(ValueError, match="^empty batch: B = 0$"):
            dsga_forward(np.zeros(shape, np.float32), params, cfg)
        with pytest.raises(ValueError, match="^empty batch: B = 0$"):
            dsga_vjp(np.zeros(shape), params, cfg, np.zeros(shape))

    @pytest.mark.parametrize("field, value", [
        ("down_w", lambda p: p.down_w.tolist()),
        ("down_b", lambda p: p.down_b[:1]),
        ("up_w", lambda p: p.up_w[None]),
        ("fusion_w", lambda p: p.fusion_w.astype(np.float64)),
        ("rank_logits", lambda p: p.rank_logits.astype(np.int64)),
        ("theta_k", lambda p: np.array(p.theta_k)),
        ("w_p_raw", lambda p: float("nan")),
        ("w_n_raw", lambda p: True),
    ])
    def test_params_that_do_not_fit_rejected(self, field, value):
        # both calls refuse the bundle with a message that starts with the field
        cfg = DsgaConfig(embed_dim=8, k_max=3)
        params = init_dsga_params(cfg)
        bad = replace(params, **{field: value(params)})
        x = np.ones((1, 2, 2, 8), np.float32)
        with pytest.raises(ValueError, match=f"^{field} "):
            adapter.check_params(bad, cfg)
        with pytest.raises(ValueError, match=f"^{field} "):
            dsga_forward(x, bad, cfg)
        with pytest.raises(ValueError, match=f"^{field} "):
            dsga_vjp(x, bad, cfg, np.ones(x.shape))


class TestDropoutMask:
    def test_zero_prob_identity(self):
        assert np.array_equal(dropout_mask(16, 0.0, seed=1), np.ones(16))

    def test_deterministic_and_stream_keyed(self):
        m1 = dropout_mask(64, 0.3, seed=5, stream=0)
        m2 = dropout_mask(64, 0.3, seed=5, stream=0)
        assert np.array_equal(m1, m2)
        assert not np.array_equal(m1, dropout_mask(64, 0.3, seed=6, stream=0))
        assert not np.array_equal(m1, dropout_mask(64, 0.3, seed=5, stream=1))

    def test_inverted_scaling(self):
        m = dropout_mask(4096, 0.25, seed=7)
        kept = m[m > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert 0.6 < kept.size / 4096 < 0.9


class TestDsgaVjp:
    def _setup(self, seed=40, embed_dim=8):
        cfg = DsgaConfig(
            embed_dim=embed_dim, reduction_ratio=0.25, k_max=3,
            dropout_prob=0.0, mode="eval", seed=seed,
        )
        params = init_dsga_params(cfg, precision="double")
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, 3, embed_dim))
        return cfg, params, x, rng

    def test_zero_upstream_gives_zero_cotangents(self):
        cfg, params, x, _ = self._setup()
        dx, grads = dsga_vjp(x, params, cfg, np.zeros_like(x))
        assert np.array_equal(dx, np.zeros_like(x))
        for arr in grads.named_arrays().values():
            assert np.array_equal(arr, np.zeros_like(arr))
        assert grads.w_p_raw == 0.0 and grads.w_n_raw == 0.0 and grads.theta_k == 0.0

    def test_residual_term_with_zero_up(self):
        cfg, params, x, rng = self._setup(seed=41)
        params.up_w = np.zeros_like(params.up_w)
        upstream = rng.standard_normal(x.shape)
        dx, _ = dsga_vjp(x, params, cfg, upstream)
        assert np.allclose(dx, upstream, atol=1e-15)

    def test_matches_finite_differences(self):
        cfg, params, x, rng = self._setup(seed=42)
        upstream = rng.standard_normal(x.shape)
        dx, grads = dsga_vjp(x, params, cfg, upstream)

        fd_x = finite_diff_grad(
            lambda t: float(np.sum(upstream * dsga_forward(t, params, cfg)[0])), x
        )
        assert max_hybrid_error(dx, fd_x) <= 1e-4

        for name in ("down_w", "fusion_w", "rank_logits", "up_b", "w_p_raw", "w_n_raw"):
            theta0 = np.asarray(getattr(params, name), dtype=np.float64)

            def f(theta, name=name):
                value = float(theta.reshape(())) if theta0.ndim == 0 else theta
                out, _ = dsga_forward(x, replace(params, **{name: value}), cfg)
                return float(np.sum(upstream * out))

            fd = finite_diff_grad(f, theta0)
            assert max_hybrid_error(np.asarray(getattr(grads, name)), fd) <= 1e-4, name

    @pytest.mark.parametrize("prob", [0.1, 0.3])
    @pytest.mark.parametrize("seed", range(5))
    def test_train_mode_dropout_matches_fd(self, prob, seed):
        # the forward draws its mask from (size, prob, seed) alone, so every
        # finite-difference evaluation drops the same hidden units
        cfg = DsgaConfig(
            embed_dim=8, reduction_ratio=0.5, k_max=3,
            dropout_prob=prob, mode="train", seed=60 + seed,
        )
        params = init_dsga_params(cfg, precision="double")
        rng = np.random.default_rng(60 + seed)
        x = rng.standard_normal((1, 3, 3, 8))
        upstream = rng.standard_normal(x.shape)
        dx, grads = dsga_vjp(x, params, cfg, upstream)
        assert not np.all(dropout_mask(9 * cfg.d_hidden, prob, cfg.seed))  # some unit dropped

        fd_x = finite_diff_grad(
            lambda t: float(np.sum(upstream * dsga_forward(t, params, cfg)[0])), x
        )
        assert max_hybrid_error(dx, fd_x) <= 1e-4
        for name in ("up_w", "fusion_w", "down_w"):
            def f(theta, name=name):
                out, _ = dsga_forward(x, replace(params, **{name: theta}), cfg)
                return float(np.sum(upstream * out))

            fd = finite_diff_grad(f, getattr(params, name))
            assert max_hybrid_error(getattr(grads, name), fd) <= 1e-4, name

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 3), (2, 3, 1)])
    def test_degenerate_spatial_shapes_match_fd(self, shape):
        # single-node graphs and 1-wide strips exercise the replicating
        # reflect padding in both directions of the pooling backward
        b, h, w = shape
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="eval", seed=50)
        params = init_dsga_params(cfg, precision="double")
        rng = np.random.default_rng(51)
        x = rng.standard_normal((b, h, w, 8))
        upstream = rng.standard_normal(x.shape)
        dx, grads = dsga_vjp(x, params, cfg, upstream)
        fd_x = finite_diff_grad(
            lambda t: float(np.sum(upstream * dsga_forward(t, params, cfg)[0])), x
        )
        assert max_hybrid_error(dx, fd_x) <= 1e-4

        def fusion_scalar(t):
            out, _ = dsga_forward(x, replace(params, fusion_w=t), cfg)
            return float(np.sum(upstream * out))

        fd_fusion = finite_diff_grad(fusion_scalar, params.fusion_w)
        assert max_hybrid_error(grads.fusion_w, fd_fusion) <= 1e-4


# ---------------------------------------------------------------------------
# the forward pieces and the backward as they were before the running
# reductions, the rank-by-rank propagate and the GEMM / sparse backward, kept
# as oracles


def reflect_indices(n):
    """Source index per padded position for pad-1 reflection (replicates at n=1)."""
    if n == 1:
        return np.zeros(3, dtype=np.intp)
    idx = np.arange(-1, n + 1)
    idx[0] = 1
    idx[-1] = n - 2
    return idx


def argmax_dual_pool(zp):
    """Running max, argmax and sum over the 9 offsets in order: the dual pool
    as it was when it carried the argmax (uint8, strict > for the first
    index) for its VJP, kept as the oracle."""
    _, h, w, _ = zp.shape
    padded = zp[:, reflect_indices(h)][:, :, reflect_indices(w)]
    mx = padded[:, :h, :w].copy()
    argmax = np.zeros(mx.shape, dtype=np.uint8)
    acc = np.zeros_like(mx)
    for o, (dy, dx) in enumerate(adapter._OFFSETS):
        window = padded[:, dy : dy + h, dx : dx + w]
        np.maximum(argmax, (window > mx) * np.uint8(o), out=argmax)
        np.maximum(mx, window, out=mx)
        acc += window
    return mx, acc / 9, argmax


def argmax_dual_pool_vjp(dmx, dav, argmax):
    """The dual pool's adjoint from a given argmax, as it was before the VJP
    derived the argmax from the max; kept as the oracle."""
    b, h, w, c = argmax.shape
    dpadded = np.zeros((b, h + 2, w + 2, c), dtype=dmx.dtype)
    dav9 = dav / 9.0
    term = np.empty_like(dmx)
    for o, (dy, dx) in enumerate(adapter._OFFSETS):
        np.multiply(argmax == o, dmx, out=term)
        term += dav9
        dpadded[:, dy : dy + h, dx : dx + w] += term
    return adapter._fold_reflect(adapter._fold_reflect(dpadded, 1), 2)


def stacked_dual_pool(zp):
    """max, mean and argmax over a stack of the 9 reflect-padded offsets; the
    argmax (an offset index 0..8) in uint8."""
    _, h, w, _ = zp.shape
    padded = zp[:, reflect_indices(h)][:, :, reflect_indices(w)]
    stack = np.stack(
        [padded[:, dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)], axis=0
    )
    return stack.max(axis=0), stack.mean(axis=0), stack.argmax(axis=0).astype(np.uint8)


def gathered_propagate(graph, z):
    """Self term plus the sum over k of a [B, N, k, Dh] weighted gather, with
    the graph's weights cast to z's dtype as propagate casts them."""
    b = z.shape[0]
    out = graph.self_weights.astype(z.dtype)[..., None] * z
    if graph.k > 0:
        gathered = z[np.arange(b)[:, None, None], graph.neighbors]
        out = out + np.sum(graph.edge_weights.astype(z.dtype)[..., None] * gathered, axis=2)
    return out


def forward_trace(x, params, cfg):
    """The forward's intermediates by name, built from the adapter's stage
    functions; its output must be the bytes of dsga_forward's."""
    x = np.asarray(x)
    b, h, w, d = x.shape
    n, dh = h * w, cfg.d_hidden
    t = {"x": x, "shape": x.shape, "n": n}
    t["pre"] = adapter.matmul(x.reshape(b, n, d), params.down_w) + params.down_b
    t["z"] = adapter.gelu(t["pre"])
    t["w_rank"] = adapter.rank_weights(params.rank_logits)
    t["graph"] = adapter._streamed_graph(
        t["z"], adaptive_k(params.theta_k, cfg.k_max), t["w_rank"]
    )
    t["g"] = adapter.propagate(t["graph"], t["z"])
    t["f"] = adapter.matmul(t["g"], params.fusion_w)
    t["fr"] = t["f"].reshape(b, h, w, dh)
    t["mx"], t["av"], t["argmax"] = argmax_dual_pool(t["fr"])
    t["pooled"] = adapter.hybrid_pool(t["mx"], t["av"], params.w_p_raw)
    t["zp"] = adapter.gated_residual(t["fr"], t["pooled"], params.w_n_raw)
    flat = t["zp"].reshape(b, n, dh)
    t["drop_scale"] = None
    t["dropped"] = flat
    if cfg.mode == "train" and cfg.dropout_prob > 0.0:
        t["drop_scale"] = adapter.dropout_mask(flat.size, cfg.dropout_prob, cfg.seed).reshape(
            flat.shape
        )
        t["dropped"] = flat * t["drop_scale"].astype(flat.dtype)
    delta = adapter.matmul(t["dropped"], params.up_w) + params.up_b
    t["out"] = delta.reshape(x.shape).astype(x.dtype) + x
    out, _ = dsga_forward(x, params, cfg)
    assert t["out"].dtype == out.dtype and t["out"].tobytes() == out.tobytes()
    return t


def reference_vjp(x, params, cfg, upstream):
    """dsga_vjp's backward with einsum weight gradients, a [B, N, k, Dh]
    gather and np.add.at scatters, on the same forward trace."""
    upstream = np.asarray(upstream, dtype=np.float64)
    t = forward_trace(x, params, cfg)
    b, h, w, d = t["shape"]
    n, dh, graph = t["n"], cfg.d_hidden, t["graph"]
    dx = upstream.copy()
    uf = upstream.reshape(b, n, d)
    d_up_w = np.einsum("bnh,bnd->hd", t["dropped"], uf)
    d_up_b = uf.sum(axis=(0, 1))
    d_zp = (uf @ params.up_w.T).reshape(b, h, w, dh)
    if t["drop_scale"] is not None:
        d_zp *= t["drop_scale"].reshape(d_zp.shape)
    g = 0.5 * adapter.sigmoid(params.w_n_raw)
    d_fr = (1.0 - g) * d_zp
    d_pooled = g * d_zp
    d_w_n = float(np.sum((t["pooled"] - t["fr"]) * d_zp)) * 0.5 * adapter.sigmoid_grad(
        params.w_n_raw
    )
    sp = adapter.sigmoid(params.w_p_raw)
    d_mx, d_av = sp * d_pooled, (1.0 - sp) * d_pooled
    d_w_p = float(np.sum((t["mx"] - t["av"]) * d_pooled)) * adapter.sigmoid_grad(params.w_p_raw)
    dpadded = np.zeros((b, h + 2, w + 2, dh))
    for o, (dy, ddx) in enumerate(adapter._OFFSETS):
        dpadded[:, dy : dy + h, ddx : ddx + w] += np.where(t["argmax"] == o, d_mx, 0.0) + d_av / 9.0
    folded_rows = np.zeros((b, h, w + 2, dh))
    np.add.at(folded_rows, (slice(None), reflect_indices(h)), dpadded)
    d_pool = np.zeros((b, h, w, dh))
    np.add.at(d_pool, (slice(None), slice(None), reflect_indices(w)), folded_rows)
    d_f = (d_fr + d_pool).reshape(b, n, dh)
    d_fusion_w = np.einsum("bnh,bng->hg", t["g"], d_f)
    d_g = d_f @ params.fusion_w.T
    d_z = graph.self_weights[..., None] * d_g
    d_w_used, d_row_sum = np.zeros(graph.k), 0.0
    row_sum = 1.0 + float(t["w_rank"][: graph.k].sum())
    if graph.k > 0:
        gathered = t["z"][np.arange(b)[:, None, None], graph.neighbors]
        contrib = graph.edge_weights[..., None] * d_g[:, :, None, :]
        flat_idx = (np.arange(b)[:, None, None] * n + graph.neighbors).reshape(-1)
        np.add.at(d_z.reshape(b * n, dh), flat_idx, contrib.reshape(-1, dh))
        d_edge = np.sum(gathered * d_g[:, :, None, :], axis=-1)
        d_self = np.sum(t["z"] * d_g, axis=-1)
        d_w_used = d_edge.sum(axis=(0, 1)) / row_sum
        d_row_sum = -(
            float(np.sum(d_edge * graph.edge_weights)) + float(np.sum(d_self * graph.self_weights))
        ) / row_sum
    d_w_rank = np.zeros_like(t["w_rank"])
    d_w_rank[: graph.k] = d_w_used + d_row_sum
    d_rank_logits = adapter.softmax_vjp(t["w_rank"], d_w_rank)
    if params.rank_logits.size == 1:
        d_rank_logits = np.zeros(1)
    d_pre = d_z * adapter.gelu_grad(t["pre"])
    d_down_w = np.einsum("bnd,bnh->dh", np.asarray(x).reshape(b, n, d), d_pre)
    dx += (d_pre @ params.down_w.T).reshape(b, h, w, d)
    return dx, adapter.DsgaParams(
        down_w=d_down_w, down_b=d_pre.sum(axis=(0, 1)), up_w=d_up_w, up_b=d_up_b,
        fusion_w=d_fusion_w, rank_logits=d_rank_logits, theta_k=0.0,
        w_p_raw=d_w_p, w_n_raw=d_w_n,
    )


def vjp_before(x, params, cfg, upstream):
    """dsga_vjp as it was when every cotangent was float64 whatever the
    forward's dtype: the same GEMM / sparse backward, with the pool VJP's
    np.where terms. Its float64 output is the bit-exact oracle of the
    working-precision backward."""
    upstream = np.asarray(upstream, dtype=np.float64)
    t = forward_trace(x, params, cfg)
    b, h, w, d = t["shape"]
    n, dh, graph = t["n"], cfg.d_hidden, t["graph"]
    dx = upstream.copy()
    uf = upstream.reshape(b * n, d)
    d_up_w = t["dropped"].reshape(b * n, dh).T @ uf
    d_up_b = uf.sum(axis=0)
    d_zp = (uf @ params.up_w.T).reshape(b, h, w, dh)
    if t["drop_scale"] is not None:
        d_zp *= t["drop_scale"].reshape(d_zp.shape)
    g = 0.5 * adapter.sigmoid(params.w_n_raw)
    d_fr = (1.0 - g) * d_zp
    d_pooled = g * d_zp
    d_w_n = float(np.sum((t["pooled"] - t["fr"]) * d_zp)) * 0.5 * adapter.sigmoid_grad(
        params.w_n_raw
    )
    sp = adapter.sigmoid(params.w_p_raw)
    d_mx, d_av = sp * d_pooled, (1.0 - sp) * d_pooled
    d_w_p = float(np.sum((t["mx"] - t["av"]) * d_pooled)) * adapter.sigmoid_grad(params.w_p_raw)
    dpadded = np.zeros((b, h + 2, w + 2, dh))
    dav9 = d_av / 9.0
    for o, (dy, ddx) in enumerate(adapter._OFFSETS):
        dpadded[:, dy : dy + h, ddx : ddx + w] += np.where(t["argmax"] == o, d_mx, 0.0) + dav9
    d_fr += adapter._fold_reflect(adapter._fold_reflect(dpadded, 1), 2)
    d_f = d_fr.reshape(b * n, dh)
    d_fusion_w = t["g"].reshape(b * n, dh).T @ d_f
    d_g = (d_f @ params.fusion_w.T).reshape(b, n, dh)
    d_z = graph.self_weights[..., None] * d_g
    d_w_used, d_row_sum = np.zeros(graph.k), 0.0
    row_sum = 1.0 + float(t["w_rank"][: graph.k].sum()) if graph.k > 0 else 1.0
    if graph.k > 0:
        rows = np.arange(b * n * graph.k + 1, step=graph.k)
        cols = (np.arange(b)[:, None, None] * n + graph.neighbors).reshape(-1)
        edges = csr_array((graph.edge_weights.reshape(-1), cols, rows), shape=(b * n, b * n))
        d_z += (edges.T @ d_g.reshape(b * n, dh)).reshape(b, n, dh)
        z = t["z"].astype(d_g.dtype, copy=False)
        bi = np.arange(b)[:, None]
        d_edge = np.empty((b, n, graph.k))
        for r in range(graph.k):
            d_edge[..., r] = np.einsum("bnh,bnh->bn", z[bi, graph.neighbors[..., r]], d_g)
        d_self = np.einsum("bnh,bnh->bn", z, d_g)
        d_w_used = d_edge.sum(axis=(0, 1)) / row_sum
        d_row_sum = -(
            float(np.sum(d_edge * graph.edge_weights)) + float(np.sum(d_self * graph.self_weights))
        ) / row_sum
    d_w_rank = np.zeros_like(t["w_rank"])
    d_w_rank[: graph.k] = d_w_used + d_row_sum
    d_rank_logits = adapter.softmax_vjp(t["w_rank"], d_w_rank)
    if params.rank_logits.size == 1:
        d_rank_logits = np.zeros(1)
    d_pre = (d_z * adapter.gelu_grad(t["pre"])).reshape(b * n, dh)
    xf = t["x"].reshape(b * n, d).astype(d_pre.dtype, copy=False)
    dx += (d_pre @ params.down_w.T).reshape(b, h, w, d)
    return dx, adapter.DsgaParams(
        down_w=xf.T @ d_pre, down_b=d_pre.sum(axis=0), up_w=d_up_w, up_b=d_up_b,
        fusion_w=d_fusion_w, rank_logits=d_rank_logits, theta_k=0.0,
        w_p_raw=d_w_p, w_n_raw=d_w_n,
    )


def tied_values(rng, shape, dtype):
    """Few distinct levels with both signs of zero, so the pool's max and
    argmax see ties in every window."""
    v = rng.integers(-2, 3, size=shape) / 2.0 * rng.choice([-1.0, 1.0], size=shape)
    return v.astype(dtype)


GRID_SHAPES = [(1, 1, 1), (2, 1, 1), (1, 1, 9), (1, 9, 1), (1, 2, 2), (2, 2, 3),
               (1, 3, 5), (2, 4, 4), (1, 6, 7)]


def assert_same_array(got, ref):
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def assert_pool_matches_stack(values, rng):
    """dual_pool against the stack's max and mean, and its VJP against the
    adjoint at the stack's first-index argmax (the max's cotangent at the
    first offset that reaches it)."""
    mx, av = adapter.dual_pool(values)
    ref_mx, ref_av, ref_argmax = stacked_dual_pool(values)
    assert_same_array(mx, ref_mx)
    assert_same_array(av, ref_av)
    # C-ordered as the running pool's were: the forward's gate cotangents
    # sum over them in memory order
    assert mx.flags.c_contiguous and av.flags.c_contiguous
    for ct in (np.float32, np.float64):
        dmx, dav = (rng.standard_normal(values.shape).astype(ct) for _ in range(2))
        dmx[rng.random(values.shape) < 0.2] *= 0.0  # signed zero cotangents
        got = adapter._dual_pool_vjp(dmx, dav, values, mx)
        assert_same_array(got, argmax_dual_pool_vjp(dmx, dav, ref_argmax))


class TestForwardPieceOracle:
    def test_dual_pool_matches_stack(self):
        rng = np.random.default_rng(70)
        for b, h, w in GRID_SHAPES:
            for dtype in (np.float32, np.float64):
                for values in (rng.standard_normal((b, h, w, 5)).astype(dtype),
                               tied_values(rng, (b, h, w, 5), dtype),
                               rng.integers(-3, 4, size=(b, h, w, 5))):
                    assert_pool_matches_stack(values, rng)
                    # the oracle itself: the running argmax is the stack's
                    for a, ref in zip(argmax_dual_pool(values), stacked_dual_pool(values)):
                        assert_same_array(a, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_derived_argmax_matches_stack(self, dtype):
        # plateaus and signed zeros: the separable max keeps the stack's bits,
        # and the VJP's first offset equal to the max is the stack's
        # first-index argmax where windows tie
        rng = np.random.default_rng(73)
        for b, h, w in [(1, 1, 1), (2, 1, 6), (1, 7, 1), (1, 1, 2), (2, 5, 4), (1, 8, 9)]:
            signed_zeros = np.where(rng.random((b, h, w, 4)) < 0.5, 0.0, -0.0)
            mixed = signed_zeros.copy()
            mixed[..., 0] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(b, h, w))
            for values in (np.full((b, h, w, 3), 2.5),  # a plateau: all nine windows equal
                           np.broadcast_to(rng.standard_normal(3), (b, h, w, 3)),
                           np.full((b, h, w, 2), -0.0),
                           signed_zeros,
                           mixed):
                assert_pool_matches_stack(np.ascontiguousarray(values, dtype=dtype), rng)

    def test_propagate_matches_gather(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            b, n = int(rng.integers(1, 3)), int(rng.integers(1, 20))
            k = int(rng.integers(0, n + 2))  # includes k >= N - 1 and N = 1
            dtype = (np.float32, np.float64)[int(rng.integers(0, 2))]
            z = tied_tokens(rng, b, n, 4).astype(dtype)
            z[z == 0] *= -1.0  # zero tokens become -0
            z[..., 0] = -0.0  # a -0 channel: the neighbour sum must start from +0
            g = build_graph(similarity_matrix(z), k, rank_weights(rng.standard_normal(max(k, 1))))
            got, ref = propagate(g, z), gathered_propagate(g, z)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("b, h, w", GRID_SHAPES)
    def test_forward_bytes_match_reference_pieces(self, b, h, w, monkeypatch):
        rng = np.random.default_rng(72 + h * w)
        cfg = DsgaConfig(embed_dim=8, reduction_ratio=0.5, k_max=8, dropout_prob=0.0,
                         mode="eval", seed=h * w)
        for dtype in (np.float32, np.float64):
            params = init_dsga_params(cfg, precision="single" if dtype == np.float32 else "double")
            x = tied_tokens(rng, b, h * w, 8).reshape(b, h, w, 8).astype(dtype)
            out, graph = dsga_forward(x, params, cfg)
            with monkeypatch.context() as m:
                m.setattr(adapter, "propagate", gathered_propagate)
                m.setattr(adapter, "dual_pool", lambda zp: stacked_dual_pool(zp)[:2])
                ref_out, ref_graph = dsga_forward(x, params, cfg)
            assert np.array_equal(graph.neighbors, ref_graph.neighbors)
            assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()


class TestPrecision:
    STAGES = ("pre", "z", "g", "f", "fr", "mx", "av", "pooled", "zp", "dropped", "out")

    @staticmethod
    def record_stages(monkeypatch):
        """The arrays that the forward's stage calls take and return, by stage
        name, recorded by wrapping the adapter's module-level stage functions."""
        seen = {}

        def record(name, args, result):
            if name == "check_finite":
                seen[{"input": "x", "down-projection": "pre", "fusion": "f",
                      "up-projection": "out"}[args[1]]] = result
            elif name == "matmul":  # the last product is the up-projection
                seen["dropped"] = args[0]
            elif name == "dual_pool":
                seen["fr"] = args[0]
                seen["mx"], seen["av"] = result
            else:
                seen[{"gelu": "z", "propagate": "g", "hybrid_pool": "pooled",
                      "gated_residual": "zp"}[name]] = result

        for name in ("matmul", "gelu", "propagate", "check_finite", "dual_pool",
                     "hybrid_pool", "gated_residual"):
            def stage(*args, _name=name, _fn=getattr(adapter, name)):
                result = _fn(*args)
                record(_name, args, result)
                return result

            monkeypatch.setattr(adapter, name, stage)
        return seen

    @pytest.mark.parametrize("precision, dtype", [("single", np.float32), ("double", np.float64)])
    @pytest.mark.parametrize("mode, prob", [("eval", 0.0), ("train", 0.3)])
    def test_every_stage_in_the_working_dtype(self, precision, dtype, mode, prob, monkeypatch):
        cfg = DsgaConfig(embed_dim=16, k_max=4, dropout_prob=prob, mode=mode, seed=76)
        params = init_dsga_params(cfg, precision=precision)
        x = np.random.default_rng(76).standard_normal((2, 5, 6, 16)).astype(dtype)
        seen = self.record_stages(monkeypatch)
        out, graph = dsga_forward(x, params, cfg)
        assert seen["out"] is out
        assert {name: seen[name].dtype for name in self.STAGES} == dict.fromkeys(
            self.STAGES, np.dtype(dtype)
        )
        # eval sends the gated residual itself to the up-projection
        dropped, zp = seen["dropped"], seen["zp"]
        assert (mode == "eval") == np.shares_memory(dropped, zp)
        assert mode == "eval" or np.any(dropped == 0)
        # the graph's weights stay float64 for the rank-weight softmax VJP
        assert graph.edge_weights.dtype == graph.self_weights.dtype == np.float64

    def test_single_forward_holds_no_float64_token_array(self):
        # a float64 [B, N, D] array at 64x64x768 is 25 MB; the single-precision
        # forward peaks at about 48 MB, so a 60 MB bound leaves no room for one
        cfg = DsgaConfig(embed_dim=768, k_max=8, dropout_prob=0.0, mode="eval", seed=77)
        params = init_dsga_params(cfg)
        x = np.random.default_rng(77).standard_normal((1, 64, 64, 768)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, _ = dsga_forward(x, params, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float32
        assert peak <= 60e6, peak / 1e6

    def test_single_vjp_holds_no_forward_output(self):
        # the VJP keeps what its backward reads, not the forward's 3 MB output:
        # at 32x32x768 with a float64 upstream it peaks at about 22.3 MB, and
        # 25.5 MB while it also held the output
        cfg = DsgaConfig(embed_dim=768, k_max=8, dropout_prob=0.0, mode="eval", seed=80)
        params = init_dsga_params(cfg)
        rng = np.random.default_rng(80)
        x = rng.standard_normal((1, 32, 32, 768)).astype(np.float32)
        upstream = rng.standard_normal(x.shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dx, _ = dsga_vjp(x, params, cfg, upstream)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert dx.dtype == np.float32
        assert peak < 24e6, peak / 1e6


def oracle_cases():
    """(x, params, cfg, upstream) on every grid shape, float32 and float64
    alternating, with k from 1 to k_max (often >= N - 1) and tied tokens:
    each shape in eval mode, then in train mode with dropout at p = 0.1 (even
    shapes) or 0.3 (odd shapes)."""
    rng = np.random.default_rng(73)
    cases = [(s, dt) for s in GRID_SHAPES for dt in (np.float32, np.float64)]
    modes = [("eval", 0.0)] * len(cases) + [("train", (0.1, 0.3)[i // 2 % 2])
                                            for i in range(len(cases))]
    for ((b, h, w), dtype), (mode, prob) in zip(cases + cases, modes):
        d = int(rng.choice([8, 12]))
        cfg = DsgaConfig(embed_dim=d, reduction_ratio=float(rng.choice([0.25, 0.5])),
                         k_max=int(rng.integers(1, 9)), dropout_prob=prob, mode=mode,
                         seed=int(rng.integers(0, 2**31)))
        params = init_dsga_params(cfg, precision="single" if dtype == np.float32 else "double")
        params.theta_k = float(rng.uniform(-3.0, 6.0))
        params.w_p_raw, params.w_n_raw = (float(v) for v in rng.standard_normal(2))
        x = tied_tokens(rng, b, h * w, d).reshape(b, h, w, d).astype(dtype)
        yield x, params, cfg, rng.standard_normal(x.shape)


def vjp_arrays(dx, grads):
    """Every cotangent by name, the scalar ones as 0-d arrays."""
    out = {"x": dx, **grads.named_arrays()}
    out.update({k: np.asarray(getattr(grads, k)) for k in ("theta_k", "w_p_raw", "w_n_raw")})
    return out


# float32 cotangents against the float64 reference, relative to its largest
# magnitude; measured up to 1.6e-6 on the benchmark's 32x32x768 fields
F32_VJP_RTOL = 1e-5


class TestVjpOracle:
    @staticmethod
    def assert_rel_close(got, ref, name, dtype=np.float64, rtol=1e-12):
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.shape == ref.shape and got.dtype == dtype, name
        err = np.abs(got - ref).max(initial=0.0)
        assert err <= rtol * np.abs(ref).max(initial=0.0), (name, err)

    def test_cotangents_match_reference(self):
        # float64: the same arithmetic up to summation order; float32: the
        # working-precision backward against the float64 reference on the
        # same float32 trace
        for x, params, cfg, upstream in oracle_cases():
            dx, grads = dsga_vjp(x, params, cfg, upstream)
            ref_dx, ref = reference_vjp(x, params, cfg, upstream)
            rtol = 1e-12 if x.dtype == np.float64 else F32_VJP_RTOL
            self.assert_rel_close(dx, ref_dx, "x", x.dtype, rtol)
            for name, value in grads.named_arrays().items():
                self.assert_rel_close(value, getattr(ref, name), name, x.dtype, rtol)
            for name in ("theta_k", "w_p_raw", "w_n_raw"):
                self.assert_rel_close(float(getattr(grads, name)), float(getattr(ref, name)),
                                      name, rtol=rtol)

    def test_float64_cotangents_bitwise_unchanged(self):
        # a float64 working dtype (float64 x or params) keeps the float64
        # backward's arithmetic bit for bit
        for x, params, cfg, upstream in oracle_cases():
            if x.dtype == np.float32:  # float32 x with float64 params
                params = replace(params, **{k: v.astype(np.float64)
                                            for k, v in params.named_arrays().items()})
            got = vjp_arrays(*dsga_vjp(x, params, cfg, upstream))
            ref = vjp_arrays(*vjp_before(x, params, cfg, upstream))
            for name, value in got.items():
                assert value.dtype == ref[name].dtype == np.float64, name
                assert value.tobytes() == ref[name].tobytes(), name

    def test_gradcheck_errors_unchanged(self, monkeypatch):
        results = [r.as_dict() for r in pipeline.gradcheck_all(seed=0, instances=3)]
        monkeypatch.setattr(pipeline, "dsga_vjp", vjp_before)
        assert [r.as_dict() for r in pipeline.gradcheck_all(seed=0, instances=3)] == results

    def test_float32_cotangents_on_a_benchmark_field(self):
        # the adapter_train shape: 32x32x768, k = 6, a smooth field with a
        # block of identical tokens
        cfg = DsgaConfig(embed_dim=768, k_max=8, dropout_prob=0.0, mode="eval", seed=75)
        params = init_dsga_params(cfg)
        params.w_p_raw, params.w_n_raw = 0.3, -0.4
        rng = np.random.default_rng(75)
        coarse = rng.standard_normal((1, 5, 5, 768))
        x = np.repeat(np.repeat(coarse, 7, axis=1), 7, axis=2)[:, :32, :32]
        x = (x + 0.05 * rng.standard_normal(x.shape)).astype(np.float32)
        x[:, 3:9, 20:30] = x[:, 3, 20]
        upstream = rng.standard_normal(x.shape)
        dx, grads = dsga_vjp(x, params, cfg, upstream)
        ref_dx, ref = reference_vjp(x, params, cfg, upstream)
        self.assert_rel_close(dx, ref_dx, "x", np.float32, F32_VJP_RTOL)
        for name, value in grads.named_arrays().items():
            self.assert_rel_close(value, getattr(ref, name), name, np.float32, F32_VJP_RTOL)
        # each gate cotangent is one sum over every hidden element, which can
        # cancel to far below its terms (on the benchmark's fields down to
        # 1/18000 of them); its float32 error scales with the terms (measured
        # at about 2e-9 of their magnitude sum), so the bound does too
        t = forward_trace(x, params, cfg)
        abs_d_zp = np.abs(upstream.reshape(-1, 768) @ params.up_w.T.astype(np.float64))
        g = 0.5 * adapter.sigmoid(params.w_n_raw)
        terms = {
            "w_n_raw": 0.5 * adapter.sigmoid_grad(params.w_n_raw)
            * np.sum(np.abs(t["pooled"] - t["fr"]).reshape(abs_d_zp.shape) * abs_d_zp),
            "w_p_raw": g * adapter.sigmoid_grad(params.w_p_raw)
            * np.sum(np.abs(t["mx"] - t["av"]).reshape(abs_d_zp.shape) * abs_d_zp),
        }
        for name, scale in terms.items():
            err = abs(getattr(grads, name) - getattr(ref, name))
            assert err <= 1e-7 * scale, (name, err / scale)

    def test_upstream_overflow_raises(self):
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="eval", seed=78)
        x = np.random.default_rng(78).standard_normal((1, 3, 3, 8))
        upstream = np.zeros(x.shape)
        upstream[0, 1, 2, 3] = 1e39  # finite in float64, beyond float32's ~3.4e38
        single = init_dsga_params(cfg)
        with pytest.raises(NumericalError, match="upstream"):
            dsga_vjp(x.astype(np.float32), single, cfg, upstream)
        # a float64 working dtype takes it as it is
        dx, _ = dsga_vjp(x, init_dsga_params(cfg, precision="double"), cfg, upstream)
        assert dx.dtype == np.float64 and np.isfinite(dx).all()
        upstream[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="upstream"):
            dsga_vjp(x, init_dsga_params(cfg, precision="double"), cfg, upstream)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upstream_in_the_working_dtype_is_not_written(self, dtype):
        # the upstream is taken uncopied when no cast is needed
        cfg = DsgaConfig(embed_dim=8, k_max=3, dropout_prob=0.0, mode="eval", seed=79)
        params = init_dsga_params(cfg, precision="single" if dtype == np.float32 else "double")
        rng = np.random.default_rng(79)
        x = rng.standard_normal((1, 3, 3, 8)).astype(dtype)
        upstream = rng.standard_normal(x.shape).astype(dtype)
        before = upstream.copy()
        dx, _ = dsga_vjp(x, params, cfg, upstream)
        assert dx.dtype == dtype and not np.shares_memory(dx, upstream)
        assert np.array_equal(upstream, before)

    def test_no_gather_or_offset_buffer(self, monkeypatch):
        # 32x32x768 with k = k_max = 8: a [B, N, k, Dh] float64 gather is 8
        # hidden-sized arrays and the 9-offset pool stack 9
        cfg = DsgaConfig(embed_dim=768, k_max=8, dropout_prob=0.0, mode="eval", seed=74)
        params = init_dsga_params(cfg)
        rng = np.random.default_rng(74)
        x = rng.standard_normal((1, 32, 32, 768)).astype(np.float32)
        upstream = rng.standard_normal(x.shape)
        hidden = 32 * 32 * cfg.d_hidden * 8

        def traced(call):
            """(tracemalloc peak above the start, result) of call()."""
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = call()
                return tracemalloc.get_traced_memory()[1] - base, result
            finally:
                tracemalloc.stop()

        peaks = {}
        for name in ("propagate", "dual_pool"):
            def stage(*args, _name=name, _fn=getattr(adapter, name)):
                peaks[_name], result = traced(lambda: _fn(*args))
                return result

            monkeypatch.setattr(adapter, name, stage)
        dsga_vjp(x, replace(params, theta_k=50.0), cfg, upstream)
        monkeypatch.undo()
        assert peaks["dual_pool"] < 9 * hidden
        assert peaks["propagate"] < 8 * hidden
        # nothing the backward holds grows with k by a hidden-sized array per rank
        total = {
            theta: traced(lambda: dsga_vjp(x, replace(params, theta_k=theta), cfg, upstream))[0]
            for theta in (-50.0, 50.0)  # k = 1 and k = 8
        }
        assert adaptive_k(-50.0, 8) == 1 and adaptive_k(50.0, 8) == 8
        assert total[50.0] - total[-50.0] < hidden


def bench_workloads():
    """The benchmark's workloads module, loaded from perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def benchmark_train_cases(seed=5):
    """(x, params, cfg, upstream) of the three inputs of the benchmark's
    adapter_train workload at ``seed``, made by its own generator."""
    bench = bench_workloads().AdapterTrain()
    bench.setup(seed, None)
    for x, _, _, upstream, _ in bench.inputs:
        yield x, bench.params, bench.cfg, upstream


def count_selections(monkeypatch):
    """A list that gains the calling thread's id at every _top_k_rows call
    (one per row block of the streamed graph)."""
    calls = []

    def counted(*args, _fn=adapter._top_k_rows):
        calls.append(threading.get_ident())
        return _fn(*args)

    monkeypatch.setattr(adapter, "_top_k_rows", counted)
    return calls


def vjp_outcome(x, params, cfg, upstream):
    """Every cotangent's dtype, shape and bytes by name, or the ValueError
    that dsga_vjp raised."""
    try:
        got = vjp_arrays(*dsga_vjp(x, params, cfg, upstream))
    except ValueError as exc:
        return repr(exc)
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in got.items()}


def reuse_case(seed=81):
    """A small train-mode case with dropout, float64, with tied tokens."""
    cfg = DsgaConfig(embed_dim=8, k_max=4, dropout_prob=0.2, mode="train", seed=seed)
    params = init_dsga_params(cfg, precision="double")
    rng = np.random.default_rng(seed)
    params.w_p_raw, params.w_n_raw = (float(v) for v in rng.standard_normal(2))
    x = tied_tokens(rng, 1, 12, 8).reshape(1, 3, 4, 8)
    return x, params, cfg, rng.standard_normal(x.shape)


def large_reuse_case(seed=83):
    """An eval-mode float32 case at 32x32x768, where the held forward is
    megabytes."""
    cfg = DsgaConfig(embed_dim=768, k_max=8, dropout_prob=0.0, mode="eval", seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 32, 32, 768)).astype(np.float32)
    return x, init_dsga_params(cfg), cfg, rng.standard_normal(x.shape).astype(np.float32)


GRAPH_ARRAYS = ("neighbors", "edge_weights", "self_weights")
CONFIG_CHANGES = {"embed_dim": 12, "reduction_ratio": 0.5, "k_max": 3, "dropout_prob": 0.4,
                  "mode": "eval", "seed": 82}
# x and down_w changed where the other is zero, so the down-projection, and
# with it every value the held pullback closes over, stays the same; in
# place, or in a new array passed to the VJP
UNREAD_X, UNREAD_W = "x past a zero row of down_w", "down_w past a zero channel of x"
NEW_X, NEW_W = "new " + UNREAD_X, "new " + UNREAD_W
UNREAD = (UNREAD_X, UNREAD_W, NEW_X, NEW_W)


def mutate(item, x, params, cfg, out, graph):
    """Change ``item`` in place: x, a params array, a gate, a config field,
    the returned output or one of the returned graph's arrays; or, for NEW_X
    and NEW_W, make the changed copy. Returns the (x, params) for the VJP."""
    if item in (NEW_X, NEW_W):
        x, params = x.copy(), replace(params, down_w=params.down_w.copy())
        item = item.removeprefix("new ")
    if item in ("x", UNREAD_X):
        x[0, 1, 2, 3] += 0.5
    elif item == UNREAD_W:
        params.down_w[3, 0] += 0.5
    elif item in params.named_arrays():
        getattr(params, item).flat[0] += 0.5
    elif item == "theta_k":
        params.theta_k = -5.0  # k from 3 to 1
    elif item in ("w_p_raw", "w_n_raw"):
        setattr(params, item, getattr(params, item) + 1.0)
    elif item in CONFIG_CHANGES:
        setattr(cfg, item, CONFIG_CHANGES[item])
    elif item == "out":
        out[...] = 0.0
    else:
        getattr(graph, item)[...] = 0
    return x, params


class TestForwardReuse:
    def test_reused_vjp_bytes_equal_a_lone_vjp(self, monkeypatch):
        calls = count_selections(monkeypatch)
        for x, params, cfg, upstream in [*oracle_cases(), *benchmark_train_cases()]:
            lone = vjp_outcome(x, params, cfg, upstream)
            out, _ = dsga_forward(x, params, cfg)
            calls.clear()
            assert vjp_outcome(x, params, cfg, upstream) == lone
            assert calls == []  # the held pullback was applied

    @pytest.mark.parametrize("item", [
        "x", "down_w", "down_b", "up_w", "up_b", "fusion_w", "rank_logits",
        "theta_k", "w_p_raw", "w_n_raw", *CONFIG_CHANGES, "out", *GRAPH_ARRAYS, *UNREAD,
    ])
    def test_mutation_between_the_calls(self, item, monkeypatch):
        # each case is the bytes of a fresh VJP on the mutated inputs; the
        # caller's output and graph are not what the held pullback reads, and
        # it takes x and down_w from the VJP's arguments
        x, params, cfg, upstream = reuse_case()
        if item in (UNREAD_X, NEW_X):
            params.down_w[3] = 0.0
        elif item in (UNREAD_W, NEW_W):
            x[..., 3] = 0.0
        before = vjp_outcome(x, params, cfg, upstream)
        out, graph = dsga_forward(x, params, cfg)
        x, params = mutate(item, x, params, cfg, out, graph)
        calls = count_selections(monkeypatch)
        got = vjp_outcome(x, params, cfg, upstream)
        reused = not calls
        assert got == vjp_outcome(x, params, cfg, upstream)  # no forward held now
        caller_side = item == "out" or item in GRAPH_ARRAYS
        if isinstance(got, str):  # a config that no longer fits x or params
            assert item in ("embed_dim", "reduction_ratio", "k_max"), got
        else:
            assert reused == (caller_side or item in UNREAD)
        # every other mutation changes the cotangents, except up_b's: it
        # reaches only the output
        assert (got == before) == (caller_side or item == "up_b")

    def test_one_selection_per_step_while_the_output_lives(self, monkeypatch):
        x, params, cfg, upstream = reuse_case()
        calls = count_selections(monkeypatch)
        out, _ = dsga_forward(x, params, cfg)
        first = vjp_outcome(x, params, cfg, upstream)
        assert len(calls) == 1
        # the held forward is used once
        assert vjp_outcome(x, params, cfg, upstream) == first and len(calls) == 2
        out, _ = dsga_forward(x, params, cfg)
        del out
        assert vjp_outcome(x, params, cfg, upstream) == first and len(calls) == 4

    def test_threads_interleaving_forward_and_vjp(self, monkeypatch):
        # more threads than cores, a short switch interval, and every thread
        # holding a forward before any of them runs its VJP
        cases = [reuse_case(seed) for seed in range(90, 94)]
        serial = [vjp_outcome(*case) for case in cases]
        rounds = 3
        calls = count_selections(monkeypatch)
        barrier = threading.Barrier(len(cases), timeout=30)
        results = {i: [] for i in range(len(cases))}
        errors = []

        def steps(i):
            x, params, cfg, upstream = cases[i]
            try:
                for _ in range(rounds):
                    out, _ = dsga_forward(x, params, cfg)
                    barrier.wait()
                    results[i].append(vjp_outcome(x, params, cfg, upstream))
                    barrier.wait()
            except Exception as exc:  # reported below, on the test's thread
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=steps, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert [results[i] for i in range(len(cases))] == [[r] * rounds for r in serial]
        # one selection per forward on each thread: every VJP reused its own
        assert sorted(calls.count(t.ident) for t in threads) == [rounds] * len(cases)

    def test_dropping_the_output_frees_the_held_forward(self):
        cfg = DsgaConfig(embed_dim=768, k_max=8, dropout_prob=0.0, mode="eval", seed=83)
        params = init_dsga_params(cfg)
        x = np.random.default_rng(83).standard_normal((1, 32, 32, 768)).astype(np.float32)
        dsga_forward(x, params, cfg)  # first-call allocations happen outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = dsga_forward(x, params, cfg)[0]
            held = tracemalloc.get_traced_memory()[0] - base
            del out
            after = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # the output (3 MB) and the intermediates its pullback reads (7 MB)
        assert held > 2 * x.nbytes, held
        assert after < 16e3, after

    def test_dropping_the_output_on_another_thread_frees_the_held_forward(self, monkeypatch):
        x, params, cfg, upstream = large_reuse_case()
        lone = vjp_outcome(x, params, cfg, upstream)  # first-call allocations happen untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            outs = [dsga_forward(x, params, cfg)[0]]
            held = tracemalloc.get_traced_memory()[0] - base
            dropper = threading.Thread(target=outs.clear)  # the last reference dies there
            dropper.start()
            dropper.join(timeout=30)
            after = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert not dropper.is_alive() and outs == []
        assert held > 2 * x.nbytes, held
        assert after < 16e3, after
        calls = count_selections(monkeypatch)
        assert vjp_outcome(x, params, cfg, upstream) == lone
        assert calls  # nothing was held: the forward ran again

    def test_key_miss_frees_the_held_forward_before_the_rerun(self):
        x, params, cfg, upstream = large_reuse_case()
        other = replace(params, w_n_raw=0.5)
        dsga_vjp(x, other, cfg, upstream)  # first-call allocations happen untraced
        tracemalloc.start()
        try:
            out = dsga_forward(x, params, cfg)[0]  # alive through the VJP, as in a step
            dsga_vjp(x, other, cfg, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~22 MB with out alive; holding the forward's intermediates and key
        # through the rerun would add ~7 MB
        assert peak < 25e6, peak
        assert out.shape == x.shape


def use_oracle_kernels(m):
    """Put the selection and the pool as they were before the single-read
    change (each whole block keyed; the argmax carried by the pool) in place
    of the adapter's."""
    m.setattr(adapter, "_top_k_rows", lambda s, row0, k, key=None:
              full_key_top_k(s if key is None else key(s), row0, k))
    m.setattr(adapter, "dual_pool", lambda zp: argmax_dual_pool(zp)[:2])
    m.setattr(adapter, "_dual_pool_vjp", lambda dmx, dav, zp, mx:
              argmax_dual_pool_vjp(dmx, dav, argmax_dual_pool(zp)[2]))


def forward_vjp_outcome(x, params, cfg, upstream):
    """Output and neighbour bytes of dsga_forward, then the outcome of the
    dsga_vjp that applies its held pullback."""
    out, graph = dsga_forward(x, params, cfg)
    return out.dtype, out.tobytes(), graph.neighbors.tobytes(), vjp_outcome(
        x, params, cfg, upstream)


def assert_matches_oracles(case, monkeypatch, knobs=()):
    with monkeypatch.context() as m:
        for name, value in knobs:
            m.setattr(adapter, name, value)
        got = forward_vjp_outcome(*case)
        use_oracle_kernels(m)
        assert got == forward_vjp_outcome(*case), (case[0].shape, case[0].dtype, case[2], knobs)


def token_field(rng, kind, b, h, w, d):
    """A [B, H, W, D] token field of one kind: a Gaussian field with a
    rectangle of identical tokens, a constant, two tokens, half of the
    tokens identical, values rounded to halves, or tied_tokens."""
    n = h * w
    x = rng.standard_normal((b, n, d))
    if kind == "rectangle":
        x = x.reshape(b, h, w, d)
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        y1, x1 = y0 + int(rng.integers(1, h + 1)), x0 + int(rng.integers(1, w + 1))
        x[:, y0:y1, x0:x1] = x[:, y0, x0, None, None]
    elif kind == "constant":
        x[...] = rng.standard_normal()
    elif kind == "two-valued":
        x = rng.standard_normal((2, d))[rng.integers(0, 2, size=(b, n))]
    elif kind == "half-tied":
        x[:, n // 4 : n // 4 + -(-n // 2)] = x[:, n // 4, None]
    elif kind == "rounded":
        x = np.round(2 * x) / 2
    else:
        x = tied_tokens(rng, b, n, d)
    return x.reshape(b, h, w, d)


FIELD_KINDS = ("rectangle", "constant", "two-valued", "half-tied", "rounded", "tied")


def single_read_cases(count, seed=84):
    """(case, knobs): small grids (B <= 2, H and W <= 12) of every field kind,
    float32 and float64, eval and train mode with dropout, k from 1 to
    k_max, under module knobs that vary the column groups (the module's, the
    fewest, and a few per block), the rows per block, and the gather share
    (the module's, always gathered, never gathered)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        b, h, w = int(rng.integers(1, 3)), int(rng.integers(1, 13)), int(rng.integers(1, 13))
        dtype = (np.float32, np.float64)[i % 2]
        d = int(rng.choice([8, 12, 16]))
        mode, prob = [("eval", 0.0), ("train", 0.1), ("train", 0.3)][int(rng.integers(0, 3))]
        cfg = DsgaConfig(embed_dim=d, reduction_ratio=float(rng.choice([0.25, 0.5])),
                         k_max=int(rng.integers(1, 9)), dropout_prob=prob, mode=mode,
                         seed=int(rng.integers(0, 2**31)))
        params = init_dsga_params(cfg, precision="single" if dtype == np.float32 else "double")
        params.theta_k = float(rng.uniform(-3.0, 6.0))
        params.w_p_raw, params.w_n_raw = (float(v) for v in rng.standard_normal(2))
        x = token_field(rng, FIELD_KINDS[i % len(FIELD_KINDS)], b, h, w, d).astype(dtype)
        rows = [None, 2, 3, 7][int(rng.integers(0, 4))]
        knobs = (("_GROUPS", int(rng.choice([adapter._GROUPS, 1, 3, 5, 16]))),
                 ("_BLOCK_ELEMS", DEFAULT_BLOCK_ELEMS if rows is None else rows * b * h * w),
                 ("_GATHER_SHARE", float(rng.choice([adapter._GATHER_SHARE, 0.0, np.inf]))))
        yield (x, params, cfg, rng.standard_normal(x.shape)), knobs


def benchmark_infer_cases(seed=5):
    """(x, params, cfg) of the four 64x64x768 fields of the benchmark's
    adapter_infer workload at ``seed``, made by its own generator."""
    bench = bench_workloads().AdapterInfer()
    bench.setup(seed, None)
    for x, _ in bench.inputs:
        yield x, bench.params, bench.cfg


class TestSingleReadOracle:
    """The selection that reads each block of products once and keys only
    the candidate groups, and the pool whose VJP derives its argmax, give
    the bytes of the kernels they replaced: neighbours, forward output and
    every dsga_vjp cotangent."""

    def test_small_fields(self, monkeypatch):
        for case, knobs in single_read_cases(1000):
            assert_matches_oracles(case, monkeypatch, knobs)

    def test_oracle_and_benchmark_train_cases(self, monkeypatch):
        # the train-mode dropout cases included
        for case in [*oracle_cases(), *benchmark_train_cases()]:
            assert_matches_oracles(case, monkeypatch)

    @pytest.mark.parametrize("share", [4, 0.0, np.inf])
    def test_key_that_lifts_the_masked_entry(self, share, monkeypatch):
        # a key that maps the masked self entry's -inf up to the bound, as a
        # saturating tanh would: the row's own node is still never selected
        monkeypatch.setattr(adapter, "_GATHER_SHARE", share)
        rng = np.random.default_rng(85)

        def clamp(v):
            return np.maximum(v, 0.0, out=v)

        for groups in (adapter._GROUPS, 1, 5):
            monkeypatch.setattr(adapter, "_GROUPS", groups)
            for _ in range(20):
                b, n = int(rng.integers(1, 3)), int(rng.integers(2, 60))
                r0, k = int(rng.integers(0, n - 1)), int(rng.integers(1, n))
                s = rng.uniform(-1.0, 0.2, size=(b, int(rng.integers(1, n - r0 + 1)), n))
                ref = full_key_top_k(clamp(s.copy()), r0, k)
                assert np.array_equal(adapter._top_k_rows(s, r0, k, clamp), ref)

    def test_benchmark_infer_fields(self, monkeypatch):
        for x, params, cfg in benchmark_infer_cases():
            out, graph = dsga_forward(x, params, cfg)
            with monkeypatch.context() as m:
                use_oracle_kernels(m)
                ref_out, ref_graph = dsga_forward(x, params, cfg)
            assert np.array_equal(graph.neighbors, ref_graph.neighbors)
            assert out.tobytes() == ref_out.tobytes()


class TestParameterCount:
    def test_vit_base_profile(self):
        cfg = DsgaConfig(embed_dim=768, reduction_ratio=0.25, k_max=8)
        assert parameter_count(cfg, 12) == 3_992_964

    def test_tiny_config(self):
        cfg = DsgaConfig(embed_dim=4, reduction_ratio=0.25, k_max=1)
        assert parameter_count(cfg, 1) == 18

    def test_zero_layers(self):
        assert parameter_count(DsgaConfig(embed_dim=768), 0) == 0

    def test_matches_actual_parameter_arrays(self):
        # the count is the arrays init_dsga_params makes (and check_params
        # accepts) plus the three gates, at every width
        for embed_dim, ratio, k_max in ((16, 0.25, 5), (4, 0.25, 1), (7, 0.5, 3),
                                        (768, 0.25, 8), (1024, 0.25, 8)):
            cfg = DsgaConfig(embed_dim=embed_dim, reduction_ratio=ratio, k_max=k_max)
            params = init_dsga_params(cfg)
            check_params(params, cfg)
            arrays = params.named_arrays()
            assert sum(a.size for a in arrays.values()) + 3 == parameter_count(cfg, 1)
            assert list(arrays) == [f.name for f in fields(params)][:-3]

    @pytest.mark.parametrize("precision", ["sngle", "float32", "Single", None])
    def test_unknown_precision_rejected(self, precision):
        with pytest.raises(ValueError, match="precision must be 'single' or 'double'"):
            init_dsga_params(DsgaConfig(embed_dim=8), precision=precision)
