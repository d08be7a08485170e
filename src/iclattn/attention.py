"""The two encoder attention implementations, over one softmax-attention
core.

`_forward` computes softmax(q k^T / sqrt(d) + mask + bias) v and
`_backward` its gradients, in the recompute-free form of
FlashAttention's backward (Dao et al. 2022), without the tiling: with
probabilities P and output gradient dZ,

    dV = P^T dZ,   dP = dZ V^T,   dS = P * (dP - rowsum(dP * P)),
    dQ = dS K / sqrt(d),   dK = dS^T Q / sqrt(d),   dbias = dS.

`full_attention` is plain dense masked attention: the core around one
tape node. `structured_attention` computes the same result for the
segmented mask without ever materializing the (k+1)L x (k+1)L score
matrix, so peak score storage stays O(k L^2). It is one tape node. Test
rows run the core over the whole sequence. Demonstration rows use its
formulas with FlashAttention's key-block split, scores laid out key-major
as (2L keys, k blocks, L queries): the test block is one operand shared
by every demonstration, so its scores, dV and dK are one matmul per
head, summed over blocks inside the matmul, and the softmax runs over
contiguous rows kL long.
`dense_structured_reference` composes the same computation from
primitive tape ops, so it stays an independent oracle for both nodes.

Logits are scaled by 1/sqrt(head_dim) in both variants, applied to the
queries once up front.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .segments import bias_for_layout, build_structured_mask
from .tensor import add, constant, contract, scale, softmax_last

VARIANTS = ("full", "structured")


def _forward(qs, k, v, mask, bias):
    """(z, p) for z = p v, p = softmax(qs k^T + mask + bias), with the
    queries `qs` already scaled by 1/sqrt(d). `mask` and `bias` are
    arrays broadcastable to the scores, or None."""
    s = np.matmul(qs, k.swapaxes(-1, -2))
    if mask is not None:
        s += np.asarray(mask, dtype=s.dtype)
    if bias is not None:
        s += bias
    p = tz._softmax_inplace(s)
    return np.matmul(p, v), p


def _backward(g, qs, k, v, p):
    """(dq, dk, dv, dS) of `_forward`'s output at output gradient `g`: dq
    with respect to the unscaled queries, dS the gradient of the scores
    and so of the bias."""
    dv = np.matmul(p.swapaxes(-1, -2), g)
    ds = np.matmul(g, v.swapaxes(-1, -2))
    ds -= np.einsum("...r,...r->...", ds, p)[..., None]
    ds *= p
    dq = np.matmul(ds, k)
    dq *= qs.shape[-1] ** -0.5
    return dq, np.matmul(ds.swapaxes(-1, -2), qs), dv, ds


def full_attention(q, k, v, mask, bias=None):
    """z = softmax(q k^T + bias + mask) v, per head, as one tape node.

    q: (..., Tq, d); k, v: (..., Tk, d), with any leading axes, such as
    (B, H). mask: additive array broadcastable to (..., Tq, Tk), or None.
    bias: tensor broadcastable to (..., Tq, Tk), such as a shared
    (H, Tq, Tk), or None. One dense score matrix, no blocks.
    """
    qs = q.data * q.data.shape[-1] ** -0.5
    z, p = _forward(qs, k.data, v.data, mask,
                    None if bias is None else bias.data)

    def back(g):
        dq, dk, dv, ds = _backward(g, qs, k.data, v.data, p)
        tz._accumulate(v, dv)
        tz._accumulate(q, dq)
        tz._accumulate(k, dk)
        if bias is not None:
            tz._accumulate(bias, tz._unbroadcast(ds, bias.data.shape))

    parents = (q, k, v) if bias is None else (q, k, v, bias)
    return tz._result(z, parents, back)


def structured_attention(q, k, v, layout, bias_block=None):
    """Block-structured attention over a segmented prompt, as one tape
    node.

    q, k, v: (..., (k+1)*L, d), with any leading axes, such as (B, H).
    Demonstration-segment rows normalize over the concatenation of their
    own diagonal block and the test block; test rows normalize over the
    whole row. `bias_block` is the within-segment bias, broadcastable to
    (..., L, L) (the model's is a shared (H, L, L)), applied on every
    segment diagonal and nowhere else.
    """
    *lead, T, d = q.data.shape
    K, L = layout.num_demos, layout.segment_length
    if T != layout.total_length:
        raise ValueError(
            f"sequence length {T} does not split into {K + 1} segments of {L}")
    KL, dtype = K * L, q.data.dtype
    key_mask = layout.key_mask().astype(dtype)                  # (T,)
    # one additive array per row group: key-major (2L keys, K blocks,
    # L queries) for the demonstration rows, (L, T) for the test rows
    b = np.zeros((L, L), dtype) if bias_block is None else bias_block.data
    bt = np.ascontiguousarray(b.swapaxes(-1, -2))    # (..., L keys, L queries)
    demo_add = np.empty((*b.shape[:-2], 2 * L, K, L), dtype)
    np.add(key_mask[:KL].reshape(K, L).T[:, :, None], bt[..., :, None, :],
           out=demo_add[..., :L, :, :])
    demo_add[..., L:, :, :] = key_mask[KL:, None, None]
    test_add = np.broadcast_to(key_mask, (*b.shape[:-2], L, T)).copy()
    test_add[..., KL:] += b

    def own(x):
        """(..., K, L, d): the demonstration blocks of x."""
        return x[..., :KL, :].reshape(*lead, K, L, d)

    def split(s):
        """Key-major s as own-block (..., K, L, L), test-block (..., L, KL)."""
        return (s[..., :L, :, :].swapaxes(-3, -2),
                s[..., L:, :, :].reshape(*lead, L, KL))

    def laid_out(x, scale=1.0):
        """x * scale as a contiguous (..., T, d), and its demonstration rows
        as a contiguous (..., d, K*L) and as (..., K, d, L) blocks: numpy's
        matmul is several times slower on a transposed right operand."""
        xc = np.multiply(x, scale, out=np.empty(x.shape, dtype))
        xt = np.ascontiguousarray(xc[..., :KL, :].swapaxes(-1, -2))
        return xc, xt, xt.reshape(*lead, d, K, L).swapaxes(-3, -2)

    qs, qdt, qot = laid_out(q.data, d ** -0.5)
    kd, vd = k.data, v.data
    qt, kt, vt = qs[..., KL:, :], kd[..., KL:, :], vd[..., KL:, :]
    pd = np.empty((*lead, 2 * L, K, L), dtype)
    p_own, p_test = split(pd)
    np.matmul(own(kd), qot, out=p_own)
    np.matmul(kt, qdt, out=p_test)
    pd += demo_add
    tz._softmax_inplace(pd, axis=-3)
    z = np.empty(q.data.shape, dtype)
    np.matmul(p_test.swapaxes(-1, -2), vt, out=z[..., :KL, :])
    own(z)[...] += np.matmul(p_own.swapaxes(-1, -2), own(vd))
    z[..., KL:, :], pt = _forward(qt, kd, vd, None, test_add)

    def back(g):
        g, gdt, got = laid_out(g)
        ds = np.empty_like(pd)
        ds_own, ds_test = split(ds)
        np.matmul(own(vd), got, out=ds_own)
        np.matmul(vt, gdt, out=ds_test)
        ds -= np.einsum("...jkq,...jkq->...kq", ds, pd)[..., None, :, :]
        ds *= pd
        dqt, dk, dv, dst = _backward(g[..., KL:, :], qt, kd, vd, pt)
        dv[..., :KL, :] += np.matmul(p_own, own(g)).reshape(*lead, KL, d)
        dv[..., KL:, :] += np.matmul(p_test, g[..., :KL, :])
        dk[..., :KL, :] += np.matmul(ds_own, own(qs)).reshape(*lead, KL, d)
        dk[..., KL:, :] += np.matmul(ds_test, qs[..., :KL, :])
        dq = np.empty(q.data.shape, dtype)
        np.matmul(ds_test.swapaxes(-1, -2), kt, out=dq[..., :KL, :])
        own(dq)[...] += np.matmul(ds_own.swapaxes(-1, -2), own(kd))
        dq[..., :KL, :] *= d ** -0.5
        dq[..., KL:, :] = dqt
        tz._accumulate(v, dv)
        tz._accumulate(q, dq)
        tz._accumulate(k, dk)
        if bias_block is not None:
            # the sum over K as a matmul: a strided axis sum is 8x slower
            db = np.matmul(np.ones(K, dtype), ds[..., :L, :, :])
            db = db.swapaxes(-1, -2) + dst[..., KL:]
            tz._accumulate(bias_block,
                           tz._unbroadcast(db, bias_block.data.shape))

    parents = (q, k, v) if bias_block is None else (q, k, v, bias_block)
    return tz._result(z, parents, back)


def dense_structured_reference(q, k, v, layout, table):
    """Oracle route for the structured path: dense attention under the
    structured mask with the structured bias placement, composed from
    primitive tape ops. q, k, v: (..., T, d); the table's (H, T, T) bias
    broadcasts over the leading axes."""
    mask = build_structured_mask(layout)
    lead = "ABCDEF"[:q.data.ndim - 2]
    q = scale(q, q.data.shape[-1] ** -0.5)
    scores = add(contract(f"{lead}td,{lead}rd->{lead}tr", q, k),
                 constant(mask))
    if table:
        scores = add(scores, bias_for_layout(table, layout))
    return contract(f"{lead}tr,{lead}rd->{lead}td", softmax_last(scores), v)


def score_storage(k, L):
    """Peak attention-score entries for each variant at (k, L)."""
    if k < 0 or L < 1:
        raise ValueError(f"bad (k, L) = ({k}, {L})")
    return {"full": ((k + 1) * L) ** 2, "structured": (3 * k + 1) * L * L}
