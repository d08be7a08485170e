import numpy as np
import pytest

from iclattn import tensor as tz
from iclattn.tensor import Tensor
from iclattn.verify import grad_check


def naive_contract(spec, a, b):
    """Nested-loop Einstein summation oracle."""
    lhs, out = spec.split("->")
    la, lb = lhs.split(",")
    labels = sorted(set(la) | set(lb))
    dims = {}
    for lab, ext in list(zip(la, a.shape)) + list(zip(lb, b.shape)):
        dims[lab] = ext
    result = np.zeros([dims[l] for l in out])
    import itertools
    for combo in itertools.product(*[range(dims[l]) for l in labels]):
        idx = dict(zip(labels, combo))
        ia = tuple(idx[l] for l in la)
        ib = tuple(idx[l] for l in lb)
        io = tuple(idx[l] for l in out)
        result[io] += a[ia] * b[ib]
    return result


class TestContract:
    def test_identity_matmul(self):
        b = np.arange(12.0).reshape(3, 4)
        out = tz.contract("ij,jk->ik", Tensor(np.eye(3)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_zero_annihilates(self):
        a = Tensor(np.random.default_rng(0).standard_normal((3, 3)))
        out = tz.contract("ij,jk->ik", a, Tensor(np.zeros((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((2, 2, 3, 4))
        k = rng.standard_normal((2, 2, 5, 4))
        out = tz.contract("bhtd,bhrd->bhtr", Tensor(q), Tensor(k))
        expected = naive_contract("bhtd,bhrd->bhtr", q, k)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("spec,sa,sb", [
        ("td,de->te", (5, 3), (3, 4)),
        ("htd,hrd->htr", (2, 3, 4), (2, 5, 4)),
        ("htr,hrd->htd", (2, 3, 5), (2, 5, 4)),
        ("hstd,hsrd->hstr", (2, 3, 2, 4), (2, 3, 5, 4)),
        ("hstd,hrd->hstr", (2, 3, 2, 4), (2, 5, 4)),
        ("hstr,hrd->hstd", (2, 3, 2, 5), (2, 5, 4)),
        ("btd,vd->btv", (2, 3, 4), (6, 4)),
        ("ij,jk->k", (3, 4), (4, 2)),
    ])
    def test_attention_specs_vs_oracle(self, spec, sa, sb):
        rng = np.random.default_rng(hash(spec) % 2**32)
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        out = tz.contract(spec, Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, naive_contract(spec, a, b),
                                   atol=1e-12)

    def test_shape_mismatch_names_axis(self):
        with pytest.raises(tz.ShapeMismatchError, match="'j'"):
            tz.contract("ij,jk->ik", Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_malformed_spec(self):
        with pytest.raises(tz.SpecError):
            tz.contract("ij,jk", Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
        with pytest.raises(tz.SpecError):
            tz.contract("iij,jk->ik", Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2))))

    def test_axis_summed_out_of_one_operand_gradients(self):
        # `i` is summed out of `a` alone, so its gradient broadcasts over `i`
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        w = rng.standard_normal(2)
        tz.backward(tz.tsum(tz.mul(tz.contract("ij,jk->k", a, b), tz.constant(w))))
        np.testing.assert_allclose(
            a.grad, np.broadcast_to(b.data @ w, (3, 4)), atol=1e-12)
        np.testing.assert_allclose(
            b.grad, np.outer(a.data.sum(axis=0), w), atol=1e-12)


class TestSoftmax:
    def test_uniform(self):
        out = tz.softmax_last(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5))
        a = tz.softmax_last(Tensor(x)).data
        b = tz.softmax_last(Tensor(x + 17.3)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_direct_exp_sum_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(tz.softmax_last(Tensor(x)).data, expected,
                                   atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = tz.softmax_last(Tensor(rng.standard_normal((6, 7))))
        np.testing.assert_allclose(out.data.sum(-1), np.ones(6), atol=1e-12)

    def test_fully_masked_row_is_zero(self):
        x = np.full((2, 3), tz.MASK_VALUE)
        x[0, 1] = 0.5
        out = tz.softmax_last(Tensor(x)).data
        assert out[1].sum() == 0.0
        assert not np.isnan(out).any()
        np.testing.assert_allclose(out[0].sum(), 1.0, atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            tz.softmax_last(Tensor([np.nan, 1.0]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(4).standard_normal((3, 4)),
                   requires_grad=True)
        tz.backward(tz.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient_is_x(self):
        x = Tensor(np.random.default_rng(5).standard_normal(6),
                   requires_grad=True)
        tz.backward(tz.scale(tz.tsum(tz.mul(x, x)), 0.5))
        np.testing.assert_allclose(x.grad, x.data, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tz.backward(tz.mul(x, x))

    def test_three_layer_composition_finite_differences(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def loss():
            h = tz.contract("ij,jk->ik", a, b)
            h = tz.softmax_last(tz.add(h, c))
            h = tz.contract("ij,jk->ik", h, c)
            return tz.tsum(tz.mul(h, h))

        ok, worst = grad_check(loss, [a, b, c])
        assert ok, f"relative error {worst}"


@pytest.mark.parametrize("seed", range(10))
def test_every_primitive_passes_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    g = Tensor(np.abs(rng.standard_normal(4)) + 0.5, requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    table = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    ids = rng.integers(0, 5, size=6)
    pick = rng.integers(0, 4, size=3)
    u = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    c = Tensor(rng.standard_normal(5), requires_grad=True)
    heads = Tensor(rng.standard_normal((4, 3, 2)).reshape(2, 2, 3, 2),
                   requires_grad=True)
    split_weight = tz.constant(rng.standard_normal((4, 3, 2)).reshape(2, 2, 3, 2))
    merge_weight = tz.constant(rng.standard_normal((2, 3, 4)))

    cases = {
        "add": lambda: tz.tsum(tz.mul(tz.add(x, y), tz.add(x, y))),
        "mul": lambda: tz.tsum(tz.mul(tz.mul(x, y), x)),
        "scale": lambda: tz.tsum(tz.scale(x, -2.5)),
        "softmax": lambda: tz.tsum(tz.mul(tz.softmax_last(x), y)),
        "log_softmax": lambda: tz.tsum(tz.mul(tz.log_softmax_last(x), y)),
        "relu": lambda: tz.tsum(tz.mul(tz.relu(x), y)),
        "reshape": lambda: tz.tsum(tz.mul(tz.reshape(x, (4, 3)), tz.reshape(y, (4, 3)))),
        "transpose": lambda: tz.tsum(tz.mul(tz.transpose(x, (1, 0)), tz.transpose(y, (1, 0)))),
        "concat": lambda: tz.tsum(tz.mul(tz.concat([x, y], axis=0),
                                         tz.concat([y, x], axis=0))),
        "embed": lambda: tz.tsum(tz.mul(tz.embed(table, ids), tz.embed(table, ids))),
        "gather": lambda: tz.tsum(tz.gather_last(tz.mul(x, x), pick)),
        "layer_norm": lambda: tz.tsum(tz.mul(tz.layer_norm(x, g, b), y)),
        "linear": lambda: tz.tsum(tz.mul(tz.linear(u, w), tz.linear(u, w))),
        "linear_bias": lambda: tz.tsum(tz.mul(tz.linear(u, w, c),
                                              tz.linear(u, w, c))),
        "split_heads": lambda: tz.tsum(tz.mul(tz.split_heads(u, 2),
                                              split_weight)),
        "merge_heads": lambda: tz.tsum(tz.mul(tz.merge_heads(heads),
                                              merge_weight)),
    }
    extra = {"linear": [u, w], "linear_bias": [u, w, c], "split_heads": [u],
             "merge_heads": [heads]}
    for name, fn in cases.items():
        tensors = [x, y] if name not in ("embed", "layer_norm") else \
            ([table] if name == "embed" else [x, g, b])
        tensors = extra.get(name, tensors)
        ok, worst = grad_check(fn, tensors)
        assert ok, f"{name}: relative error {worst} (seed {seed})"


class TestLinear:
    @pytest.mark.parametrize("bias", [False, True], ids=["plain", "bias"])
    def test_matches_contract_plus_add(self, bias):
        rng = np.random.default_rng(13)
        x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in ((2, 3, 4), (4, 5), (5,)))
        weight = tz.constant(rng.standard_normal((2, 3, 5)))
        ref = tz.contract("btd,de->bte", x, w)
        if bias:
            ref = tz.add(ref, b)
        tz.backward(tz.tsum(tz.mul(ref, weight)))
        want = [t.grad for t in (x, w, b)]
        for t in (x, w, b):
            t.grad = None
        got = tz.linear(x, w, b if bias else None)
        tz.backward(tz.tsum(tz.mul(got, weight)))
        np.testing.assert_allclose(got.data, ref.data, rtol=0, atol=1e-12)
        for t, g in zip((x, w, b), want):
            if g is None:
                assert t.grad is None
            else:
                np.testing.assert_allclose(t.grad, g, rtol=0, atol=1e-12)

    def test_width_mismatch_raises(self):
        with pytest.raises(tz.ShapeMismatchError, match="width 3"):
            tz.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_split_and_merge_heads_are_inverse_layouts():
    x = np.arange(2 * 3 * 4.0).reshape(2, 3, 4)
    split = tz.split_heads(Tensor(x), 2)
    np.testing.assert_array_equal(
        split.data, x.reshape(2, 3, 2, 2).transpose(0, 2, 1, 3))
    np.testing.assert_array_equal(tz.merge_heads(split).data, x)
    single = tz.split_heads(Tensor(x[0]), 2)
    np.testing.assert_array_equal(single.data, split.data[0])
    np.testing.assert_array_equal(tz.merge_heads(single).data, x[0])


def test_split_heads_is_a_view():
    x = Tensor(np.arange(2 * 3 * 4.0).reshape(2, 3, 4))
    split = tz.split_heads(x, 2)
    assert np.shares_memory(split.data, x.data)
    assert not split.data.flags.c_contiguous


def test_rank0_scalar_becomes_shape_1():
    t = Tensor(3.5)
    assert t.shape == (1,)
    assert t.item() == 3.5


def test_tape_cleared_after_backward():
    x = Tensor(np.ones(3), requires_grad=True)
    y = tz.tsum(tz.mul(x, x))
    tz.backward(y)
    assert y._parents == () and y._backward is None


class TestGradientOwnership:
    def test_add_shares_gradient_then_further_use_stays_correct(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = tz.constant(rng.standard_normal((3, 4)))
        # `add` hands one gradient array to both operands; the later use
        # of `a` must sum into a fresh array, not into b's gradient
        loss = tz.add(tz.tsum(tz.mul(tz.add(a, b), w)),
                      tz.tsum(tz.mul(a, a)))
        tz.backward(loss)
        np.testing.assert_allclose(a.grad, w.data + 2 * a.data, atol=1e-12)
        np.testing.assert_array_equal(b.grad, w.data)

    def test_clipping_one_shared_gradient_leaves_the_other(self):
        from iclattn.training import clip_gradients
        rng = np.random.default_rng(8)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = tz.constant(rng.standard_normal((3, 4)))
        tz.backward(tz.tsum(tz.mul(tz.add(a, b), w)))
        clip_gradients({"a": a}, 1e-3)
        np.testing.assert_array_equal(b.grad, w.data)
        np.testing.assert_allclose(np.linalg.norm(a.grad), 1e-3, rtol=1e-12)

    def test_leaf_used_twice(self):
        x = Tensor(np.random.default_rng(9).standard_normal((2, 5)),
                   requires_grad=True)
        tz.backward(tz.tsum(tz.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_constants_receive_no_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        m = tz.constant(rng.standard_normal((2, 3)))
        pad = tz.constant(np.zeros((2, 2)))
        w = tz.constant(rng.standard_normal((3, 3)))
        h = tz.add(tz.mul(x, m), m)
        h = tz.concat([pad, tz.contract("ij,jk->ik", h, w)], axis=1)
        tz.backward(tz.tsum(h))
        assert x.grad is not None
        assert m.grad is None and pad.grad is None and w.grad is None

    def test_intermediate_gradients_released(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        h = tz.contract("ij,jk->ik", x, y)
        r = tz.relu(h)
        loss = tz.tsum(r)
        tz.backward(loss)
        assert h.grad is None and r.grad is None and loss.grad is None
        assert x.grad is not None and y.grad is not None


def _embed_grad(table, ids, g):
    table.grad = None
    tz.backward(tz.tsum(tz.mul(tz.embed(table, ids), tz.constant(g))))
    return table.grad


class TestEmbedBackward:
    @pytest.mark.parametrize("kind",
                             ["repeated_unsorted", "bucket_matrix", "empty"])
    def test_matches_add_at_reference(self, kind):
        from iclattn.segments import relative_bucket
        rng = np.random.default_rng(21)
        if kind == "bucket_matrix":
            pos = np.arange(40)
            ids = relative_bucket(pos[:, None] - pos[None, :], 32, 128)
            table = Tensor(rng.standard_normal((32, 4)), requires_grad=True)
        elif kind == "empty":
            ids = np.zeros(0, dtype=np.int64)
            table = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        else:
            ids = np.array([[5, 1, 5, 0], [3, 5, 1, 1]])
            table = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        g = rng.standard_normal(ids.shape + table.shape[1:])
        expected = np.zeros(table.shape)
        np.add.at(expected, ids, g)
        np.testing.assert_allclose(_embed_grad(table, ids, g), expected,
                                   rtol=0, atol=1e-12)

    def test_float32_table_keeps_float32_gradient(self):
        rng = np.random.default_rng(22)
        table = Tensor(rng.standard_normal((9, 4)).astype(np.float32),
                       requires_grad=True)
        ids = rng.integers(0, 9, size=(3, 11))
        grad = _embed_grad(table, ids,
                           rng.standard_normal((3, 11, 4)).astype(np.float32))
        assert grad.dtype == np.float32

    @pytest.mark.parametrize("bad_id", [9, -1])
    def test_id_outside_table_raises(self, bad_id):
        """The model checks its tokens first, so only a direct call
        reaches this check."""
        table = Tensor(np.zeros((9, 4)))
        with pytest.raises(IndexError, match=r"out of range \[0, 9\)"):
            tz.embed(table, np.array([[0, bad_id]]))


def test_float32_layer_norm_matches_float64():
    rng = np.random.default_rng(23)
    x, g = rng.standard_normal((2, 9, 64)), rng.standard_normal((2, 9, 64))
    gain, bias = rng.standard_normal(64) + 1.0, rng.standard_normal(64)
    out = {}
    for dtype in (np.float32, np.float64):
        ts = [Tensor(a.astype(dtype), requires_grad=True)
              for a in (x, gain, bias)]
        y = tz.layer_norm(*ts)
        tz.backward(tz.tsum(tz.mul(y, tz.constant(g.astype(dtype)))))
        assert y.data.dtype == dtype and ts[0].grad.dtype == dtype
        out[dtype] = [y.data] + [t.grad for t in ts]
    for got, ref in zip(out[np.float32], out[np.float64]):
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-4)


class TestShortRowSoftmax:
    """Short rows, as the desk-scale attention nodes normalize them."""

    @pytest.mark.parametrize("width", [1, 16, 32, 33])
    def test_row_max_is_exact(self, width):
        """In float32, on the last axis and on the structured node's
        key-major axis -3, against the float64 reference formula."""
        rng = np.random.default_rng(24)
        s = rng.standard_normal((2, 3, 5, width)).astype(np.float32)
        s64 = s.astype(np.float64)
        for axis in (-1, -3):
            e = np.exp(s64 - s64.max(axis=axis, keepdims=True))
            ref = e / e.sum(axis=axis, keepdims=True)
            got = tz._softmax_inplace(s.copy(), axis=axis)
            assert got.dtype == np.float32
            # 1e-6 is about eight float32 ulps (eps 1.2e-7)
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=0)

    def test_fully_masked_row_is_zero(self):
        s = np.full((2, 3, 8), tz.MASK_VALUE, dtype=np.float32)
        s[0, 1, 2] = 0.5
        out = tz._softmax_inplace(s)
        assert out[0, 1, 2] == 1.0
        assert out[1].sum() == 0.0 and not np.isnan(out).any()

    def test_nan_rejected(self):
        s = np.zeros((2, 4, 6), dtype=np.float32)
        s[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            tz._softmax_inplace(s)


def test_float32_mask_gives_the_same_bits_as_float64():
    from iclattn.attention import full_attention
    rng = np.random.default_rng(25)
    q, k, v = (Tensor(rng.standard_normal((2, 7, 4)).astype(np.float32))
               for _ in range(3))
    mask = np.where(rng.random((7, 7)) < 0.3, tz.MASK_VALUE, 0.0)
    out64 = full_attention(q, k, v, mask).data
    out32 = full_attention(q, k, v, mask.astype(np.float32)).data
    assert out64.dtype == np.float32
    np.testing.assert_array_equal(out32, out64)
