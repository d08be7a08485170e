import math

import numpy as np
import pytest

from iclattn.segments import (InvalidPermutationError, RelativeBiasTable,
                              SegmentLayout, bias_for_layout, build_full_mask,
                              build_structured_mask, permute_segments,
                              relative_bucket)
from iclattn.tensor import (MASK_VALUE, Tensor, backward, constant, embed,
                            mul, transpose, tsum)


def full_layout(k, L):
    return SegmentLayout(k, L, (L,) * (k + 1))


def open_pairs(mask):
    return int((mask == 0).sum())


def brute_force_allowed(layout):
    """Boolean matrix built directly from the attention rule: same
    segment, or key in test, or query in test; padding keys blocked."""
    k, L = layout.num_demos, layout.segment_length
    T = layout.total_length
    allowed = np.zeros((T, T), dtype=bool)
    for q in range(T):
        for r in range(T):
            qs, rs = q // L, r // L
            if r % L >= layout.valid[rs]:
                continue
            allowed[q, r] = qs == rs or rs == k or qs == k
    return allowed


class TestLayout:
    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentLayout(-1, 2, (2,))
        with pytest.raises(ValueError):
            SegmentLayout(1, 2, (2, 3))   # valid > L
        with pytest.raises(ValueError):
            SegmentLayout(1, 2, (2,))     # missing test count

    def test_key_valid(self):
        layout = SegmentLayout(1, 3, (2, 1))
        np.testing.assert_array_equal(
            layout.key_valid(), [True, True, False, True, False, False])


class TestStructuredMask:
    def test_k1_l1_all_allowed(self):
        mask = build_structured_mask(full_layout(1, 1))
        np.testing.assert_array_equal(mask, np.zeros((2, 2)))

    def test_k2_l1_cross_demo_blocked(self):
        mask = build_structured_mask(full_layout(2, 1))
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = MASK_VALUE
        np.testing.assert_array_equal(mask, expected)

    def test_k4_l3_allowed_count(self):
        assert open_pairs(build_structured_mask(full_layout(4, 3))) == 117

    @pytest.mark.parametrize("k,L", [(0, 1), (0, 4), (1, 2), (3, 3), (5, 2), (6, 5)])
    def test_matches_brute_force_full(self, k, L):
        layout = full_layout(k, L)
        mask = build_structured_mask(layout)
        np.testing.assert_array_equal(mask == 0, brute_force_allowed(layout))
        assert open_pairs(mask) == (3 * k + 1) * L * L

    def test_matches_brute_force_with_padding(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(0, 5))
            L = int(rng.integers(1, 5))
            valid = tuple(int(rng.integers(1, L + 1)) for _ in range(k + 1))
            layout = SegmentLayout(k, L, valid)
            np.testing.assert_array_equal(
                build_structured_mask(layout) == 0,
                brute_force_allowed(layout))

    def test_invariant_under_block_permutation(self):
        rng = np.random.default_rng(1)
        layout = SegmentLayout(4, 3, (3, 2, 3, 1, 2))
        perm = tuple(rng.permutation(4))
        mask = build_structured_mask(layout)
        permuted_both = permute_segments(
            layout, permute_segments(layout, mask, perm, axis=0), perm, axis=1)
        np.testing.assert_array_equal(
            permuted_both, build_structured_mask(layout.permuted(perm)))


class TestFullMask:
    def test_k1_l1(self):
        np.testing.assert_array_equal(
            build_full_mask(full_layout(1, 1)), np.zeros((2, 2)))

    def test_k2_l2_count(self):
        assert open_pairs(build_full_mask(full_layout(2, 2))) == 36

    def test_k4_l3_ratio(self):
        full = open_pairs(build_full_mask(full_layout(4, 3)))
        structured = open_pairs(build_structured_mask(full_layout(4, 3)))
        assert full == 225
        assert full / structured == pytest.approx(225 / 117)


def bucket_oracle(delta, num_buckets, max_distance):
    """Piecewise-log bucketing, written independently: half the buckets
    per sign, half of those exact, the rest log-spaced to max_distance."""
    half = num_buckets // 2
    base = half if delta > 0 else 0
    mag = abs(delta)
    exact = half // 2
    if mag < exact:
        return base + mag
    scaled = exact + int(math.log(mag / exact) / math.log(max_distance / exact)
                         * (half - exact))
    return base + min(scaled, half - 1)


class TestRelativeBucket:
    def test_zero_offset(self):
        assert relative_bucket(0) == 0

    def test_sign_separation(self):
        assert relative_bucket(1) != relative_bucket(-1)

    def test_full_table_vs_oracle(self):
        for delta in range(-200, 201):
            assert relative_bucket(delta, 32, 128) == bucket_oracle(delta, 32, 128), delta

    def test_clamps_beyond_max_distance(self):
        assert relative_bucket(500, 32, 128) == relative_bucket(10_000, 32, 128)

    def test_small_offsets_distinct(self):
        seen = {relative_bucket(d, 32, 128) for d in range(0, 8)}
        assert len(seen) == 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            relative_bucket(1, num_buckets=31)
        with pytest.raises(ValueError):
            relative_bucket(1, num_buckets=32, max_distance=10)
        with pytest.raises(ValueError, match="no exact bucket"):
            relative_bucket(1, num_buckets=2, max_distance=2)
        with pytest.raises(ValueError, match="no exact bucket"):
            relative_bucket(1, num_buckets=1, max_distance=2,
                            bidirectional=False)


# Layouts the placed bias is checked on: full, ragged, no demonstrations,
# and the `train-long` benchmark's shape.
BIAS_LAYOUTS = {
    "full": full_layout(8, 2),
    "ragged": SegmentLayout(3, 3, (3, 1, 2, 2)),
    "k0": SegmentLayout(0, 3, (2,)),
    "train-long": SegmentLayout(32, 16, (16,) * 32 + (11,)),
}


def pairwise_bias(table, layout):
    """The bias built pairwise over the whole sequence: bucket the
    within-segment offset of every one of the T^2 position pairs, look
    the buckets up, and zero the cross-segment pairs with a same-segment
    mask."""
    T, L = layout.total_length, layout.segment_length
    pos = np.arange(T) % L
    buckets = relative_bucket(pos[:, None] - pos[None, :], table.num_buckets,
                              table.max_distance)
    bias = transpose(embed(table.weights, buckets), (2, 0, 1))
    seg = np.arange(T) // L
    same = (seg[:, None] == seg[None, :]).astype(table.weights.data.dtype)
    return mul(bias, constant(same[None, :, :]))


def table_grad(table, build, layout):
    """The table's gradient through `build(table, layout)` under a fixed
    random output gradient."""
    table.weights.grad = None
    bias = build(table, layout)
    g = np.random.default_rng(3).standard_normal(bias.data.shape)
    backward(tsum(mul(bias, Tensor(g.astype(bias.data.dtype)))))
    return table.weights.grad


def large_buffers(out, size):
    """Distinct memory buffers of at least `size` entries that the graph
    under `out` keeps alive: every node's data and every array its
    backward closure holds, views counted once with their base."""
    buffers, seen, stack = {}, set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        cells = (node._backward.__closure__ or ()) if node._backward else ()
        for a in [node.data] + [c.cell_contents for c in cells]:
            if isinstance(a, np.ndarray):
                while a.base is not None:
                    a = a.base
                if a.size >= size:
                    buffers[id(a)] = a
    return list(buffers.values())


class TestBiasForLayout:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.table = RelativeBiasTable(2, num_buckets=8, max_distance=16,
                                       rng=rng, init_std=1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", BIAS_LAYOUTS)
    def test_placed_block_equals_pairwise_bias(self, name, dtype):
        """Bit for bit, signed zeros included, in the table's dtype."""
        layout = BIAS_LAYOUTS[name]
        self.table.weights.data = self.table.weights.data.astype(dtype)
        got = bias_for_layout(self.table, layout).data
        want = pairwise_bias(self.table, layout).data
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", BIAS_LAYOUTS)
    def test_table_gradient_matches_pairwise_bias(self, name):
        """The placement sums over segments before buckets, the pairwise
        bias over buckets alone: equal up to float64 rounding."""
        layout = BIAS_LAYOUTS[name]
        got = table_grad(self.table, bias_for_layout, layout)
        want = table_grad(self.table, pairwise_bias, layout)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_graph_holds_one_bias_sized_buffer(self):
        """Of the arrays the bias's tape keeps for backward, one has H*T^2
        entries: the placed bias itself. The pairwise bias keeps three,
        its lookup, the lookup's transpose and the masked product."""
        layout = BIAS_LAYOUTS["train-long"]
        size = 2 * layout.total_length ** 2
        assert len(large_buffers(bias_for_layout(self.table, layout),
                                 size)) == 1
        assert len(large_buffers(pairwise_bias(self.table, layout),
                                 size)) == 3

    def test_structured_blocks_identical(self):
        """Also in the table's dtype: a float32 table, as Adam's float32
        tape leaves it, gives a float32 bias, not a float64 one."""
        layout = full_layout(2, 3)
        for dtype in (np.float64, np.float32):
            self.table.weights.data = self.table.weights.data.astype(dtype)
            bias = bias_for_layout(self.table, layout).data
            assert bias.dtype == dtype
            block1 = bias[:, 0:3, 0:3]
            block2 = bias[:, 3:6, 3:6]
            np.testing.assert_array_equal(block1, block2)
            np.testing.assert_array_equal(block1,
                                          self.table.bias_block(3).data)

    def test_structured_cross_segment_exactly_zero(self):
        layout = full_layout(3, 2)
        bias = bias_for_layout(self.table, layout).data
        L = 2
        for i in range(4):
            for j in range(4):
                if i != j:
                    block = bias[:, i * L:(i + 1) * L, j * L:(j + 1) * L]
                    assert (block == 0.0).all()

    def test_unstructured_uses_global_positions(self):
        layout = full_layout(1, 2)
        bias = self.table.bias_global(layout.total_length).data
        bucket = relative_bucket(0 - 3, self.table.num_buckets,
                                 self.table.max_distance)
        np.testing.assert_array_equal(bias[:, 0, 3],
                                      self.table.weights.data[bucket])


class TestPermuteSegments:
    def test_identity(self):
        layout = full_layout(3, 2)
        x = np.random.default_rng(3).standard_normal((layout.total_length, 4))
        np.testing.assert_array_equal(permute_segments(layout, x, (0, 1, 2)), x)

    def test_inverse_composition(self):
        layout = full_layout(4, 2)
        x = np.random.default_rng(4).standard_normal(layout.total_length)
        perm = (2, 0, 3, 1)
        inv = tuple(np.argsort(perm))
        roundtrip = permute_segments(layout, permute_segments(layout, x, perm), inv)
        np.testing.assert_array_equal(roundtrip, x)

    def test_block_swap(self):
        layout = full_layout(2, 2)
        x = np.array([1, 1, 2, 2, 9, 9])
        np.testing.assert_array_equal(permute_segments(layout, x, (1, 0)),
                                      [2, 2, 1, 1, 9, 9])

    def test_invalid_permutation_rejected(self):
        layout = full_layout(2, 2)
        x = np.zeros(layout.total_length)
        with pytest.raises(InvalidPermutationError):
            permute_segments(layout, x, (0, 0))
        with pytest.raises(InvalidPermutationError):
            permute_segments(layout, x, (1, 2))

    def test_wrong_extent_rejected(self):
        """Axis 1 has 5 entries where the layout has 6 tokens."""
        layout = full_layout(2, 2)
        with pytest.raises(ValueError,
                           match="axis 1 has extent 5, layout wants 6"):
            permute_segments(layout, np.zeros((6, 5)), (1, 0), axis=1)
