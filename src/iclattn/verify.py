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
    """Float64 q, k, v and bias table for one layout, the tensors they
    differentiate, both fused nodes over them and the composite oracle, in
    the model's (prompts, heads, T, d) layout. The structured node gets its
    shared bias block, the full node the structured mask and bias
    placement, each broadcast over the prompts."""
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


def fused_gaps(layout, prompts, seed):
    """Both fused attention nodes against the float64 composite oracle on
    one layout, over the output and the gradients of q, k, v and the bias
    table: first on the float64 tensors, then on float32 copies of them.
    Returns (worst float64 gap as max-abs difference, worst float32 gap as
    max-abs difference over the max-abs oracle entry); the float32 gap is
    inf when a float32 run gives anything but float32."""
    tensors, nodes, oracle = _fused_setup(layout, prompts, seed)
    expected = _value_and_grads(oracle, tensors)
    got = [_value_and_grads(node, tensors) for node in nodes]
    gap = max(float(np.max(np.abs(a - b)))
              for run in got for a, b in zip(run, expected))
    for t in tensors:
        t.data = t.data.astype(np.float32)
    got = [_value_and_grads(node, tensors) for node in nodes]
    # an all-zero oracle array (one key per row) divides by `tiny`, not 0
    tiny = np.finfo(np.float64).tiny
    gap32 = max(float(np.max(np.abs(a - b)) / np.max(np.abs(b), initial=tiny))
                if a.dtype == np.float32 else np.inf
                for run in got for a, b in zip(run, expected))
    return gap, gap32


def permutation_gap(layout, prompts, perm, seed):
    """Both fused nodes on one layout's inputs and on the same inputs with
    the demonstration segments permuted by `perm`. Returns the worst gap
    between the second output and the first permuted alike: demonstration
    outputs move with their segment, the test segment's stay put."""
    _, nodes, _ = _fused_setup(layout, prompts, seed)
    tensors, permuted_nodes, _ = _fused_setup(layout.permuted(perm), prompts,
                                              seed)
    for t in tensors[:3]:
        t.data = permute_segments(layout, t.data, perm, axis=2)
    gaps = [pnode().data - permute_segments(layout, node().data, perm, axis=2)
            for node, pnode in zip(nodes, permuted_nodes)]
    return max(float(np.max(np.abs(g))) for g in gaps)


def _random_cases(rng, instances, min_demos):
    """`instances` random (layout, prompts, seed) cases drawn from `rng`:
    k in [min_demos, 6], L in [1, 5], ragged valid counts, 1-3 prompts."""
    for _ in range(instances):
        k, L = int(rng.integers(min_demos, 7)), int(rng.integers(1, 6))
        valid = tuple(int(v) for v in rng.integers(1, L + 1, size=k + 1))
        yield (SegmentLayout(k, L, valid), int(rng.integers(1, 4)),
               int(rng.integers(2 ** 32)))


def oracle_equivalence(instances=100, seed=0):
    """Both fused nodes against the dense oracle with the structured mask
    and bias, output and gradients, on random layouts."""
    rng = np.random.default_rng(seed)
    worst = max(fused_gaps(layout, prompts, s)[0]
                for layout, prompts, s in _random_cases(rng, instances, 0))
    return worst <= FUSED_ORACLE_TOL, worst


def permutation_invariance(instances=50, seed=1):
    """Permuting demonstration segments permutes both fused nodes'
    demonstration outputs and leaves the test-segment output unchanged,
    on random layouts with at least two demonstrations."""
    rng = np.random.default_rng(seed)
    worst = max(permutation_gap(layout, prompts,
                                rng.permutation(layout.num_demos), s)
                for layout, prompts, s in _random_cases(rng, instances, 2))
    return worst <= FUSED_ORACLE_TOL, worst


def check_fused_case(layout, prompts, seed=2, rtol=1e-4):
    """Both fused attention nodes against the composite oracle on one
    layout. Returns (worst finite-difference relative error over both
    nodes and the oracle, `fused_gaps`'s float64 gap)."""
    tensors, nodes, oracle = _fused_setup(layout, prompts, seed)
    worst_fd = max(grad_check(lambda: _squared_sum(fn)[0], tensors,
                              rtol=rtol)[1] for fn in nodes + [oracle])
    return worst_fd, fused_gaps(layout, prompts, seed)[0]


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


def attention_float32(seed=2):
    """`fused_gaps`'s float32 gap on every layout in FUSED_CASES. Passes
    when every gap is within FUSED_FLOAT32_TOL; also returns the worst."""
    worst = max(fused_gaps(layout, prompts, seed)[1]
                for _, layout, prompts in FUSED_CASES)
    return worst <= FUSED_FLOAT32_TOL, worst


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
