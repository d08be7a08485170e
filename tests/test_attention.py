import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iclattn import verify
from iclattn.attention import (dense_structured_reference, full_attention,
                               score_storage, structured_attention)
from iclattn.segments import (RelativeBiasTable, SegmentLayout,
                              bias_for_layout, build_full_mask,
                              build_structured_mask, permute_segments)
from iclattn.tensor import (MASK_VALUE, Tensor, backward, mul, split_heads,
                            tsum)


def full_layout(k, L):
    return SegmentLayout(k, L, (L,) * (k + 1))


def random_qkv(rng, heads, T, d):
    return tuple(Tensor(rng.standard_normal((heads, T, d))) for _ in range(3))


class TestEqualLogitExample:
    def test_k2_l1_uniform_mix(self):
        """With all queries and keys equal, each demo row averages its own
        value with the test value, and the test row averages all three."""
        k, L, d = 2, 1, 4
        layout = full_layout(k, L)
        q = Tensor(np.ones((1, 3, d)))
        key = Tensor(np.ones((1, 3, d)))
        v = Tensor(np.arange(12, dtype=float).reshape(1, 3, d))
        out = structured_attention(q, key, v, layout).data
        vals = v.data[0]
        np.testing.assert_allclose(out[0, 0], (vals[0] + vals[2]) / 2, atol=1e-12)
        np.testing.assert_allclose(out[0, 1], (vals[1] + vals[2]) / 2, atol=1e-12)
        np.testing.assert_allclose(out[0, 2], vals.mean(axis=0), atol=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("k,L,heads", [(0, 1, 1), (0, 3, 2), (1, 1, 1),
                                           (2, 2, 2), (4, 3, 1), (6, 5, 2)])
    def test_matches_dense_reference(self, k, L, heads):
        rng = np.random.default_rng(k * 100 + L * 10 + heads)
        layout = full_layout(k, L)
        q, key, v = random_qkv(rng, heads, layout.total_length, 8)
        fast = structured_attention(q, key, v, layout).data
        dense = dense_structured_reference(q, key, v, layout, table=None).data
        assert np.abs(fast - dense).max() <= 1e-9

    def test_matches_dense_with_padding(self):
        rng = np.random.default_rng(7)
        layout = SegmentLayout(3, 4, (4, 2, 3, 1))
        q, key, v = random_qkv(rng, 2, layout.total_length, 8)
        fast = structured_attention(q, key, v, layout).data
        dense = dense_structured_reference(q, key, v, layout, table=None).data
        valid = layout.key_valid()
        assert np.abs(fast[:, valid] - dense[:, valid]).max() <= 1e-9

    def test_matches_dense_with_bias(self):
        rng = np.random.default_rng(8)
        layout = full_layout(3, 2)
        table = RelativeBiasTable(2, num_buckets=8, max_distance=16,
                                  rng=rng, init_std=0.5)
        q, key, v = random_qkv(rng, 2, layout.total_length, 8)
        fast = structured_attention(q, key, v, layout,
                                    bias_block=table.bias_block(2)).data
        dense = dense_structured_reference(q, key, v, layout, table=table).data
        assert np.abs(fast - dense).max() <= 1e-9

    def test_merged_batch_head_axis(self):
        """Leading axis can be batch*heads; each slice must equal the
        corresponding one-head call."""
        rng = np.random.default_rng(9)
        layout = full_layout(2, 3)
        q, key, v = random_qkv(rng, 6, layout.total_length, 4)
        merged = structured_attention(q, key, v, layout).data
        for h in range(6):
            single = structured_attention(
                Tensor(q.data[h:h + 1]), Tensor(key.data[h:h + 1]),
                Tensor(v.data[h:h + 1]), layout).data
            np.testing.assert_allclose(merged[h], single[0], atol=1e-12)


class TestPermutationEquivariance:
    def test_demo_outputs_permute_test_invariant(self):
        rng = np.random.default_rng(10)
        layout = full_layout(5, 3)
        q, key, v = random_qkv(rng, 2, layout.total_length, 8)
        perm = tuple(rng.permutation(5))
        out = structured_attention(q, key, v, layout).data
        qp = Tensor(permute_segments(layout, q.data, perm, axis=1))
        kp = Tensor(permute_segments(layout, key.data, perm, axis=1))
        vp = Tensor(permute_segments(layout, v.data, perm, axis=1))
        out_p = structured_attention(qp, kp, vp, layout).data
        expected = permute_segments(layout, out, perm, axis=1)
        assert np.abs(out_p - expected).max() <= 1e-9

    def test_full_attention_not_invariant(self):
        """Control: with a position-dependent bias, dense attention over the
        same inputs is sensitive to demo order."""
        rng = np.random.default_rng(11)
        layout = full_layout(3, 2)
        table = RelativeBiasTable(1, num_buckets=8, max_distance=16,
                                  rng=rng, init_std=1.0)
        from iclattn.segments import build_full_mask
        q, key, v = random_qkv(rng, 1, layout.total_length, 4)
        mask = build_full_mask(layout)
        bias = table.bias_global(layout.total_length)
        out = full_attention(q, key, v, mask=mask, bias=bias).data
        perm = (2, 0, 1)
        qp = Tensor(permute_segments(layout, q.data, perm, axis=1))
        kp = Tensor(permute_segments(layout, key.data, perm, axis=1))
        vp = Tensor(permute_segments(layout, v.data, perm, axis=1))
        out_p = full_attention(qp, kp, vp, mask=mask, bias=bias).data
        test_rows = out[:, -2:], out_p[:, -2:]
        assert np.abs(test_rows[0] - test_rows[1]).max() > 1e-6


class TestScoreStorage:
    def test_k1_equal(self):
        s = score_storage(1, 4)
        assert s["full"] == s["structured"] == 64

    def test_k4_l3(self):
        assert score_storage(4, 3) == {"full": 225, "structured": 117}

    @pytest.mark.parametrize("k,L", [(0, 1), (2, 5), (8, 64), (128, 64)])
    def test_closed_forms(self, k, L):
        s = score_storage(k, L)
        assert s["full"] == ((k + 1) * L) ** 2
        assert s["structured"] == (3 * k + 1) * L * L

    def test_ratio_grows_linearly(self):
        r32 = score_storage(32, 64)
        r64 = score_storage(64, 64)
        ratio = (r64["full"] / r64["structured"]) / (r32["full"] / r32["structured"])
        assert 1.5 < ratio < 2.5

    @pytest.mark.parametrize("k,L", [(-1, 4), (2, 0)])
    def test_bad_layout_rejected(self, k, L):
        with pytest.raises(ValueError, match=rf"bad \(k, L\) = \({k}, {L}\)"):
            score_storage(k, L)


class TestGradients:
    def test_backward_matches_dense_reference(self):
        rng = np.random.default_rng(12)
        layout = full_layout(2, 2)
        raw = [rng.standard_normal((1, 6, 4)) for _ in range(3)]

        def grads(fn):
            ts = [Tensor(a.copy(), requires_grad=True) for a in raw]
            out = fn(*ts)
            backward(tsum(out))
            return [t.grad.copy() for t in ts]

        fast = grads(lambda q, k, v: structured_attention(q, k, v, layout))
        dense = grads(lambda q, k, v: dense_structured_reference(q, k, v, layout, table=None))
        for a, b in zip(fast, dense):
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestSingleKey:
    """The identity the decoder's one-token path rests on: over one key the
    softmax weight is exactly 1, so `full_attention` returns `v`, passes
    the output gradient to `v` unchanged and sends exact zeros to the
    queries, the keys and the bias."""

    @pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_is_value_and_dq_dk_dbias_are_zero(self, dtype, with_bias):
        rng = np.random.default_rng(21)
        q, k, v = (Tensor(rng.standard_normal((5, 2, 1, 4)).astype(dtype),
                          requires_grad=True) for _ in range(3))
        bias = (Tensor(rng.standard_normal((2, 1, 1)).astype(dtype),
                       requires_grad=True) if with_bias else None)
        g = rng.standard_normal((5, 2, 1, 4)).astype(dtype)
        z = full_attention(q, k, v, None, bias)
        assert z.data.dtype == dtype
        assert np.array_equal(z.data, v.data)
        backward(tsum(mul(z, Tensor(g))))
        assert np.array_equal(v.grad, g)
        for t in (q, k) + ((bias,) if with_bias else ()):
            assert t.grad.dtype == dtype
            assert not t.grad.any()


class TestFusedNodes:
    """Each attention call is one tape node with a hand-written backward;
    the composite dense oracle checks its output and every gradient."""

    @pytest.mark.parametrize("name,layout,prompts", verify.FUSED_CASES,
                             ids=[case[0] for case in verify.FUSED_CASES])
    def test_matches_oracle_and_finite_differences(self, name, layout, prompts):
        fd, gap = verify.check_fused_case(layout, prompts, seed=13)
        assert gap <= 1e-9
        assert fd <= 1e-4

    @pytest.mark.parametrize("name,layout,prompts", verify.FUSED_CASES,
                             ids=[case[0] for case in verify.FUSED_CASES])
    def test_strided_head_views_match_contiguous_copies(self, name, layout,
                                                        prompts):
        """The model hands both nodes the (B, H, T, dh) strided views of
        `split_heads`; they must give bit for bit what the same call on
        contiguous copies gives, output and every gradient."""
        rng = np.random.default_rng(16)
        H, dh = verify.FUSED_HEADS, verify.FUSED_HEAD_DIM
        rows = [rng.standard_normal((prompts, layout.total_length, H * dh))
                for _ in range(3)]
        table = RelativeBiasTable(H, num_buckets=8, max_distance=16,
                                  rng=rng, init_std=0.5)
        nodes = [
            lambda q, k, v: structured_attention(
                q, k, v, layout,
                bias_block=table.bias_block(layout.segment_length)),
            lambda q, k, v: full_attention(
                q, k, v, build_structured_mask(layout),
                bias_for_layout(table, layout)),
        ]

        def run(node, contiguous):
            views = [split_heads(Tensor(r), H).data for r in rows]
            assert not any(a.flags.c_contiguous for a in views)
            if contiguous:
                views = [np.ascontiguousarray(a) for a in views]
            qkv = [Tensor(a, requires_grad=True) for a in views]
            table.weights.grad = None
            out = node(*qkv)
            backward(tsum(mul(out, out)))
            return [out.data] + [t.grad for t in qkv] + [table.weights.grad]

        for node in nodes:
            for got, want in zip(run(node, False), run(node, True)):
                np.testing.assert_array_equal(got, want)

    @given(data=st.data(), k=st.integers(0, 6), L=st.integers(1, 5),
           prompts=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_layouts_match_oracle_and_permute(self, data, k, L,
                                                     prompts, seed):
        """Both nodes against the oracle, output and every gradient, on
        drawn batched, ragged and k=0 layouts; and permuting the
        demonstrations permutes their outputs and keeps the test
        segment's."""
        valid = data.draw(st.lists(st.integers(1, L), min_size=k + 1,
                                   max_size=k + 1))
        layout = SegmentLayout(k, L, tuple(valid))
        gap, _ = verify.fused_gaps(layout, prompts, seed)
        assert gap <= verify.FUSED_ORACLE_TOL
        perm = data.draw(st.permutations(range(k)))
        assert verify.permutation_gap(layout, prompts, perm, seed) \
            <= verify.FUSED_ORACLE_TOL

    @pytest.mark.parametrize("tracked", [{"q"}, {"k", "v"}, {"bias"}],
                             ids=["q", "kv", "bias"])
    def test_partially_tracked_inputs(self, tracked):
        """With only some of q, k, v and the bias table tracked, both nodes
        give the tracked ones the oracle's gradients and leave the other
        `.grad`s None, on every FUSED_CASES layout."""
        names = ("q", "k", "v", "bias")
        for _, layout, prompts in verify.FUSED_CASES:
            for i in range(2):
                tensors, nodes, oracle = verify._fused_setup(layout, prompts,
                                                             seed=17)
                want = verify._value_and_grads(oracle, tensors)[1:]
                for name, t in zip(names, tensors):
                    t.requires_grad = name in tracked
                    t.grad = None
                out = nodes[i]()
                backward(tsum(mul(out, out)))
                for name, t, w in zip(names, tensors, want):
                    if name in tracked:
                        assert np.max(np.abs(t.grad - w)) \
                            <= verify.FUSED_ORACLE_TOL, (name, layout)
                    else:
                        assert t.grad is None, (name, layout)

    def test_float32_nodes_match_float64_oracle(self):
        """Every FUSED_CASES layout with float32 inputs: float32 outputs
        and gradients within FUSED_FLOAT32_TOL of the float64 oracle."""
        ok, worst = verify.attention_float32()
        assert ok, worst

    def test_benchmark_size_layout_matches_oracle(self):
        """Both nodes at the `train-long` benchmark's size, k=32 and L=16
        over two prompts, with a ragged test segment and two ragged
        demonstrations: output and every gradient within the float64 and
        float32 tolerances. It reaches the structured node's K*L-long
        key-major rows and its sums over 32 blocks, which the small
        random layouts do not."""
        layout = SegmentLayout(32, 16, (16,) * 15 + (5,) + (16,) * 15
                               + (11, 9))
        gap, gap32 = verify.fused_gaps(layout, 2, seed=18)
        assert gap <= verify.FUSED_ORACLE_TOL
        assert gap32 <= verify.FUSED_FLOAT32_TOL

    def test_structured_node_matches_oracle_at_train_long_scale(self):
        """The structured node against the dense oracle at `train-long`'s
        model shape: k=32, L=16, a test segment of 11 valid tokens, two
        prompts, H=4, dh=16 and the model's 64 buckets, in float64.
        The output and the q, k, v and table gradients all agree within
        FUSED_ORACLE_TOL."""
        layout = SegmentLayout(32, 16, (16,) * 32 + (11,))
        rng = np.random.default_rng(19)
        shape = (2, 4, layout.total_length, 16)
        q, key, v = (Tensor(rng.standard_normal(shape), requires_grad=True)
                     for _ in range(3))
        table = RelativeBiasTable(4, num_buckets=64, rng=rng, init_std=0.5)
        tensors = [q, key, v, table.weights]
        got = verify._value_and_grads(lambda: structured_attention(
            q, key, v, layout, bias_block=table.bias_block(16)), tensors)
        want = verify._value_and_grads(lambda: dense_structured_reference(
            q, key, v, layout, table), tensors)
        for name, a, b in zip(("out", "q", "k", "v", "table"), got, want):
            assert np.max(np.abs(a - b)) <= verify.FUSED_ORACLE_TOL, name

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(14)
        layout = SegmentLayout(3, 2, (2, 1, 2, 2))
        q, key, v = (Tensor(a, requires_grad=True) for a in
                     (rng.standard_normal((2, 8, 4)) for _ in range(3)))
        bias = Tensor(rng.standard_normal((2, 2, 2)), requires_grad=True)
        out = structured_attention(q, key, v, layout, bias_block=bias)
        assert out._parents == (q, key, v, bias)
        out = full_attention(q, key, v, build_full_mask(layout))
        assert out._parents == (q, key, v)

    def test_all_masked_row_gives_zeros(self):
        rng = np.random.default_rng(15)
        q, key, v = (Tensor(a, requires_grad=True) for a in
                     (rng.standard_normal((2, 3, 4)) for _ in range(3)))
        mask = np.zeros((3, 3))
        mask[1] = MASK_VALUE
        out = full_attention(q, key, v, mask)
        assert np.all(out.data[:, 1] == 0.0)
        backward(tsum(out))
        assert np.all(q.grad[:, 1] == 0.0)
        assert all(np.isfinite(t.grad).all() for t in (q, key, v))

    def test_nan_scores_raise(self):
        q = Tensor(np.full((1, 2, 2), np.nan))
        key = Tensor(np.ones((1, 2, 2)))
        with pytest.raises(ValueError, match="NaN"):
            full_attention(q, key, key, None)
        with pytest.raises(ValueError, match="NaN"):
            structured_attention(q, key, key, full_layout(1, 1))

    def test_sequence_length_must_match_layout(self):
        """Five tokens do not split into the layout's 3 segments of 2."""
        q = Tensor(np.ones((1, 5, 2)))
        with pytest.raises(ValueError,
                           match="sequence length 5 does not split into 3 segments of 2"):
            structured_attention(q, q, q, full_layout(2, 2))
