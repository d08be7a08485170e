"""Self-contained verification suites: oracle equivalence, invariance,
mask accounting, and gradient checks. Shared by `iclattn verify` and the
test suite.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .attention import (dense_structured_reference, full_attention,
                        score_storage, structured_attention)
from .segments import (RelativeBiasTable, SegmentLayout, bias_for_layout,
                       build_full_mask, build_structured_mask,
                       permute_segments)
from .tensor import Tensor


def finite_difference_grad(fn, tensors, step=1e-5):
    """Central finite differences of a scalar-valued fn wrt each tensor."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = fn().item()
            flat[i] = orig - step
            lo = fn().item()
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def grad_check(fn, tensors, step=1e-5, rtol=1e-4):
    """Compare analytic gradients against central differences."""
    for t in tensors:
        t.grad = None
    loss = fn()
    tz.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_difference_grad(fn, tensors, step=step)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst <= rtol, worst


def random_instance(rng, k=None, L=None, H=None, d=4):
    k = int(rng.integers(0, 7)) if k is None else k
    L = int(rng.integers(1, 6)) if L is None else L
    H = int(rng.choice([1, 2])) if H is None else H
    valid = tuple(int(rng.integers(1, L + 1)) for _ in range(k + 1))
    layout = SegmentLayout(k, L, valid)
    shape = (H, layout.total_length, d)
    q = Tensor(rng.standard_normal(shape))
    kk = Tensor(rng.standard_normal(shape))
    v = Tensor(rng.standard_normal(shape))
    table = RelativeBiasTable(H, num_buckets=8, max_distance=16,
                              rng=rng, init_std=0.5)
    return q, kk, v, layout, table


def oracle_equivalence(instances=100, seed=0, tol=1e-9):
    """Structured attention vs dense oracle with structured mask + bias."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        q, k, v, layout, table = random_instance(rng)
        fast = structured_attention(q, k, v, layout,
                                    bias_block=table.bias_block(layout.segment_length))
        ref = dense_structured_reference(q, k, v, layout, table)
        valid = layout.key_valid()
        diff = np.abs(fast.data - ref.data)[:, valid, :]
        worst = max(worst, float(diff.max()))
    return worst <= tol, worst


def permutation_invariance(instances=50, seed=1, tol=1e-9):
    """Permuting demonstration segments permutes demonstration outputs
    and leaves the test-segment output unchanged."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        q, k, v, layout, table = random_instance(rng)
        if layout.num_demos < 2:
            continue
        perm = tuple(rng.permutation(layout.num_demos))
        bias = table.bias_block(layout.segment_length)
        base = structured_attention(q, k, v, layout, bias_block=bias)
        playout = layout.permuted(perm)
        pq = permute_segments(layout, q, perm, axis=1)
        pk = permute_segments(layout, k, perm, axis=1)
        pv = permute_segments(layout, v, perm, axis=1)
        permd = structured_attention(pq, pk, pv, playout, bias_block=bias)
        expected = permute_segments(layout, base, perm, axis=1)
        valid = playout.key_valid()
        diff = np.abs(permd.data - expected.data)[:, valid, :]
        worst = max(worst, float(diff.max()))
    return worst <= tol, worst


def mask_counts(max_k=6, max_l=5):
    """Allowed-pair counts vs brute-force evaluation of the attention
    rule, plus the closed-form counts for full layouts."""
    for k in range(max_k + 1):
        for L in range(1, max_l + 1):
            layout = SegmentLayout(k, L, (L,) * (k + 1))
            sa = int((build_structured_mask(layout) == 0).sum())
            fu = int((build_full_mask(layout) == 0).sum())
            if sa != (3 * k + 1) * L * L or fu != ((k + 1) * L) ** 2:
                return False, (k, L, sa, fu)
            brute = 0
            for qpos in range(layout.total_length):
                for kpos in range(layout.total_length):
                    qs, ks = qpos // L, kpos // L
                    if qs == ks or qs == k or ks == k:
                        brute += 1
            if brute != sa:
                return False, (k, L, sa, brute)
            st = score_storage(k, L)
            if st["full"] != fu or st["structured"] != sa:
                return False, (k, L, st)
    return True, None


# Layouts the fused attention nodes are checked on, as (name, layout,
# prompts): several prompts sharing one per-head bias (broadcast over the
# prompt axis, as in the model), ragged valid counts, and no
# demonstrations at all.
FUSED_CASES = (
    ("batched", SegmentLayout(2, 2, (2, 2, 2)), 3),
    ("ragged", SegmentLayout(3, 3, (3, 1, 2, 2)), 1),
    ("k0", SegmentLayout(0, 3, (2,)), 2),
)
FUSED_HEADS, FUSED_HEAD_DIM = 2, 3
# Largest allowed gap between a fused node and the composite oracle.
FUSED_ORACLE_TOL = 1e-9
# Largest allowed gap between a fused node run in float32 and the float64
# oracle, as max-abs difference over the max-abs oracle entry.
FUSED_FLOAT32_TOL = 1e-5


def _squared_sum(fn):
    """Scalar loss sum(fn()^2), returning the output alongside."""
    out = fn()
    return tz.tsum(tz.mul(out, out)), out


def _value_and_grads(fn, tensors):
    for t in tensors:
        t.grad = None
    loss, out = _squared_sum(fn)
    tz.backward(loss)
    return [out.data] + [t.grad if t.grad is not None else np.zeros_like(t.data)
                         for t in tensors]


def _fused_setup(layout, prompts, seed):
    """Float64 q, k, v and bias table for one FUSED_CASES layout, the
    tensors they differentiate, both fused nodes over them and the
    composite oracle, in the model's (prompts, heads, T, d) layout. The
    structured node gets its shared bias block, the full node the
    structured mask and bias placement, each broadcast over the prompts."""
    rng = np.random.default_rng(seed)
    shape = (prompts, FUSED_HEADS, layout.total_length, FUSED_HEAD_DIM)
    q, k, v = (Tensor(rng.standard_normal(shape), requires_grad=True)
               for _ in range(3))
    table = RelativeBiasTable(FUSED_HEADS, num_buckets=8, max_distance=16,
                              rng=rng, init_std=0.5)
    nodes = [
        lambda: structured_attention(
            q, k, v, layout,
            bias_block=table.bias_block(layout.segment_length)),
        lambda: full_attention(
            q, k, v, build_structured_mask(layout),
            bias_for_layout(table, layout)),
    ]

    def oracle():
        return dense_structured_reference(q, k, v, layout, table)

    return [q, k, v, table.weights], nodes, oracle


def check_fused_case(layout, prompts, seed=2, rtol=1e-4):
    """Both fused attention nodes against the composite oracle on one
    layout. Returns (worst finite-difference relative error over both
    nodes and the oracle, worst gap between a node and the oracle over
    the output and the gradients of q, k, v and the bias table)."""
    tensors, nodes, oracle = _fused_setup(layout, prompts, seed)
    expected = _value_and_grads(oracle, tensors)
    worst_gap = 0.0
    for node in nodes:
        got = _value_and_grads(node, tensors)
        worst_gap = max([worst_gap] + [float(np.max(np.abs(a - b)))
                                       for a, b in zip(got, expected)])
    worst_fd = 0.0
    for fn in nodes + [oracle]:
        _, err = grad_check(lambda: _squared_sum(fn)[0], tensors, rtol=rtol)
        worst_fd = max(worst_fd, err)
    return worst_fd, worst_gap


def attention_gradients(seed=2, rtol=1e-4):
    """Finite-difference and oracle checks of both fused attention nodes
    on every layout in FUSED_CASES. Passes when every finite-difference
    relative error is within `rtol` and every oracle gap within
    FUSED_ORACLE_TOL; also returns the worst of all of them."""
    ok, worst = True, 0.0
    for _, layout, prompts in FUSED_CASES:
        fd, gap = check_fused_case(layout, prompts, seed=seed, rtol=rtol)
        ok = ok and fd <= rtol and gap <= FUSED_ORACLE_TOL
        worst = max(worst, fd, gap)
    return ok, worst


def _check_fused_float32(layout, prompts, seed=2):
    """Both fused attention nodes run on float32 q, k, v and bias table
    against the float64 oracle on one layout. Returns (whether every
    output and gradient is float32, worst gap over the output and the
    gradients as max-abs difference over the max-abs oracle entry)."""
    tensors, nodes, oracle = _fused_setup(layout, prompts, seed)
    expected = _value_and_grads(oracle, tensors)
    for t in tensors:
        t.data = t.data.astype(np.float32)
    pure, worst = True, 0.0
    for node in nodes:
        got = _value_and_grads(node, tensors)
        pure = pure and all(a.dtype == np.float32 for a in got)
        worst = max([worst] + [float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
                               for a, b in zip(got, expected)])
    return pure, worst


def attention_float32(seed=2):
    """`_check_fused_float32` on every layout in FUSED_CASES. Passes when
    every result is float32 and every gap within FUSED_FLOAT32_TOL; also
    returns the worst gap."""
    ok, worst = True, 0.0
    for _, layout, prompts in FUSED_CASES:
        pure, gap = _check_fused_float32(layout, prompts, seed=seed)
        ok = ok and pure and gap <= FUSED_FLOAT32_TOL
        worst = max(worst, gap)
    return ok, worst


def run_suite(quick=False):
    """Run all check groups; returns list of (name, ok, detail)."""
    n_oracle = 20 if quick else 100
    n_perm = 10 if quick else 50
    results = []
    for name, fn in [
        ("oracle-equivalence", lambda: oracle_equivalence(n_oracle)),
        ("permutation-invariance", lambda: permutation_invariance(n_perm)),
        ("mask-counts", mask_counts),
        ("attention-gradients", attention_gradients),
        ("attention-float32", attention_float32),
    ]:
        ok, detail = fn()
        results.append((name, ok, detail))
    return results
