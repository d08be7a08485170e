"""The two encoder attention implementations.

`full_attention` is plain dense masked attention. `structured_attention`
computes the same result for the segmented mask without ever
materializing the (k+1)L x (k+1)L score matrix: demonstration rows take
a softmax over [own block || test block], test rows over the full
sequence, so peak score storage stays O(k L^2).

Each call is a single tape node with a hand-derived backward (the
recompute-free form of FlashAttention's, without the tiling): with
probabilities P and output gradient dZ,

    dV = P^T dZ,   dP = dZ V^T,   dS = P * (dP - rowsum(dP * P)),
    dQ = dS K / sqrt(d),   dK = dS^T Q / sqrt(d),   dbias = dS,

where the structured node sums dbias over every segment diagonal. The
backward writes into arrays it allocates once per call, in the dtype of
the queries.
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


def _softmax_grad_inplace(dp, p):
    """dS = P * (dP - rowsum(dP * P)), written over `dp`."""
    dp -= np.einsum("...r,...r->...", dp, p)[..., None]
    dp *= p
    return dp


def _dense_node(q, k, v, mask_values, bias):
    """softmax(q k^T / sqrt(d) + mask + bias) v as one tape node."""
    c = q.data.shape[-1] ** -0.5
    qs = q.data * c
    kd, vd = k.data, v.data
    s = np.matmul(qs, kd.swapaxes(-1, -2))
    if mask_values is not None:
        s += np.asarray(mask_values, dtype=s.dtype)
    if bias is not None:
        s += bias.data
    p = tz._softmax_inplace(s)
    z = np.matmul(p, vd)

    def back(g):
        if tz._tracked(v):
            tz._accumulate(v, np.matmul(p.swapaxes(-1, -2), g))
        need_q, need_k = tz._tracked(q), tz._tracked(k)
        need_bias = bias is not None and tz._tracked(bias)
        if not (need_q or need_k or need_bias):
            return
        ds = _softmax_grad_inplace(np.matmul(g, vd.swapaxes(-1, -2)), p)
        if need_q:
            dq = np.matmul(ds, kd)
            dq *= c
            tz._accumulate(q, dq)
        if need_k:
            tz._accumulate(k, np.matmul(ds.swapaxes(-1, -2), qs))
        if need_bias:
            tz._accumulate(bias, tz._unbroadcast(ds, bias.data.shape))

    parents = (q, k, v) if bias is None else (q, k, v, bias)
    return tz._result(z, parents, back)


def full_attention(q, k, v, mask, bias=None):
    """z = softmax(q k^T + bias + mask) v, per head.

    q: (..., Tq, d); k, v: (..., Tk, d), with any leading axes, such as
    (B, H). mask: additive array broadcastable to (..., Tq, Tk), or None.
    bias: tensor broadcastable to (..., Tq, Tk), such as a shared
    (H, Tq, Tk), or None. One dense score matrix, no blocks.
    """
    return _dense_node(q, k, v, mask, bias)


def structured_attention(q, k, v, layout, bias_block=None):
    """Block-structured attention over a segmented prompt.

    q, k, v: (..., (k+1)*L, d), with any leading axes, such as (B, H).
    Demonstration-segment rows normalize over the concatenation of their
    own diagonal block and the test block; test rows normalize over the
    whole row. `bias_block` is the within-segment bias, broadcastable to
    (..., L, L) (the model's is a shared (H, L, L)), applied on every
    segment diagonal and nowhere else.
    """
    *lead, T, d = q.data.shape
    K = layout.num_demos
    L = layout.segment_length
    if T != layout.total_length:
        raise ValueError(
            f"sequence length {T} does not split into {K + 1} segments of {L}")
    key_mask = layout.key_mask().astype(q.data.dtype)  # (T,)
    if K == 0:
        return _dense_node(q, k, v, key_mask, bias_block)

    KL = K * L
    blocks = (*lead, K, L, d)
    c = d ** -0.5
    qs = q.data * c
    kd, vd = k.data, v.data
    qdf, qt = qs[..., :KL, :], qs[..., KL:, :]  # (..., KL, d), (..., L, d)
    qd = qdf.reshape(blocks)
    kdem, kt = kd[..., :KL, :].reshape(blocks), kd[..., KL:, :]
    vdem, vt = vd[..., :KL, :].reshape(blocks), vd[..., KL:, :]
    block_mask = key_mask.reshape(K + 1, L)
    bias = None if bias_block is None else bias_block.data

    # demonstration rows: [own diagonal block || test block]
    dtype = q.data.dtype
    sd = np.empty((*lead, K, L, 2 * L), dtype=dtype)
    np.matmul(qd, kdem.swapaxes(-1, -2), out=sd[..., :L])
    sd[..., :L] += block_mask[:K, None, :]
    if bias is not None:
        sd[..., :L] += bias[..., None, :, :]
    sd[..., L:] = np.matmul(qdf, kt.swapaxes(-1, -2)).reshape(
        *lead, K, L, L)
    sd[..., L:] += block_mask[K]
    pd = tz._softmax_inplace(sd)
    pdd, pdt = pd[..., :L], pd[..., L:].reshape(*lead, KL, L)

    # test rows: global attention over the whole sequence
    st = np.matmul(qt, kd.swapaxes(-1, -2))     # (..., L, T)
    st += key_mask
    if bias is not None:
        st[..., KL:] += bias
    pt = tz._softmax_inplace(st)

    z = np.empty((*lead, T, d), dtype=dtype)
    np.matmul(pdd, vdem, out=z[..., :KL, :].reshape(blocks))
    z[..., :KL, :] += np.matmul(pdt, vt)
    np.matmul(pt, vd, out=z[..., KL:, :])

    def back(g):
        gdf, gt = g[..., :KL, :], g[..., KL:, :]
        gd = gdf.reshape(blocks)
        if tz._tracked(v):
            dv = np.matmul(pt.swapaxes(-1, -2), gt)            # (..., T, d)
            dv_diag = dv[..., :KL, :].reshape(blocks)
            dv_diag += np.matmul(pdd.swapaxes(-1, -2), gd)
            dv[..., KL:, :] += np.matmul(pdt.swapaxes(-1, -2), gdf)
            tz._accumulate(v, dv)
        need_q, need_k = tz._tracked(q), tz._tracked(k)
        need_bias = bias_block is not None and tz._tracked(bias_block)
        if not (need_q or need_k or need_bias):
            return
        dst = _softmax_grad_inplace(np.matmul(gt, vd.swapaxes(-1, -2)), pt)
        dsd = np.empty((*lead, K, L, 2 * L), dtype=dtype)
        np.matmul(gd, vdem.swapaxes(-1, -2), out=dsd[..., :L])
        dsd[..., L:] = np.matmul(gdf, vt.swapaxes(-1, -2)).reshape(
            *lead, K, L, L)
        _softmax_grad_inplace(dsd, pd)
        dsdd, dsdt = dsd[..., :L], dsd[..., L:].reshape(*lead, KL, L)
        if need_q:
            dq = np.empty((*lead, T, d), dtype=dtype)
            np.matmul(dsdd, kdem, out=dq[..., :KL, :].reshape(blocks))
            dq[..., :KL, :] += np.matmul(dsdt, kt)
            np.matmul(dst, kd, out=dq[..., KL:, :])
            dq *= c
            tz._accumulate(q, dq)
        if need_k:
            dk = np.matmul(dst.swapaxes(-1, -2), qt)           # (..., T, d)
            dk_diag = dk[..., :KL, :].reshape(blocks)
            dk_diag += np.matmul(dsdd.swapaxes(-1, -2), qd)
            dk[..., KL:, :] += np.matmul(dsdt.swapaxes(-1, -2), qdf)
            tz._accumulate(k, dk)
        if need_bias:
            db = dsdd.sum(axis=-3)
            db += dst[..., KL:]
            tz._accumulate(bias_block, tz._unbroadcast(db, bias.shape))

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
