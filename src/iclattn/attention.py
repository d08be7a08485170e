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
matrix. It is one tape node that runs the core twice on re-blocked
inputs: demonstration rows as a batch of k softmaxes over
[own block || test block] keys, test rows as one softmax over the whole
sequence, so peak score storage stays O(k L^2). Its backward folds the
block gradients back onto the sequence and sums the bias gradient over
every segment diagonal.
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
    K = layout.num_demos
    L = layout.segment_length
    if T != layout.total_length:
        raise ValueError(
            f"sequence length {T} does not split into {K + 1} segments of {L}")
    KL = K * L
    key_mask = layout.key_mask().astype(q.data.dtype)           # (T,)
    block_mask = key_mask.reshape(K + 1, L)
    demo_mask = np.concatenate(
        [block_mask[:K], np.broadcast_to(block_mask[K], (K, L))],
        axis=-1)[:, None, :]                                    # (K, 1, 2L)
    demo_bias = test_bias = None
    if bias_block is not None:
        b = bias_block.data
        demo_bias = np.zeros((*b.shape[:-2], L, 2 * L), dtype=b.dtype)
        demo_bias[..., :L] = b
        demo_bias = demo_bias[..., None, :, :]          # over the K blocks
        test_bias = np.zeros((*b.shape[:-2], L, T), dtype=b.dtype)
        test_bias[..., KL:] = b

    def blocks(x):
        """(..., K, 2L, d): each demonstration's [own block || test block]."""
        own = x[..., :KL, :].reshape(*lead, K, L, d)
        test = np.broadcast_to(x[..., None, KL:, :], own.shape)
        return np.concatenate([own, test], axis=-2)

    qs = q.data * d ** -0.5
    qd, qt = qs[..., :KL, :].reshape(*lead, K, L, d), qs[..., KL:, :]
    kd, vd = k.data, v.data
    zd, pd = _forward(qd, blocks(kd), blocks(vd), demo_mask, demo_bias)
    zt, pt = _forward(qt, kd, vd, key_mask, test_bias)
    z = np.concatenate([zd.reshape(*lead, KL, d), zt], axis=-2)

    def back(g):
        # blocks rebuilt rather than kept on the tape: lower peak memory
        dqd, dkb, dvb, dsd = _backward(g[..., :KL, :].reshape(*lead, K, L, d),
                                       qd, blocks(kd), blocks(vd), pd)
        dqt, dk, dv, dst = _backward(g[..., KL:, :], qt, kd, vd, pt)
        for full, block in ((dk, dkb), (dv, dvb)):
            full[..., :KL, :] += block[..., :L, :].reshape(*lead, KL, d)
            full[..., KL:, :] += block[..., L:, :].sum(axis=-3)
        tz._accumulate(v, dv)
        tz._accumulate(q, np.concatenate([dqd.reshape(*lead, KL, d), dqt],
                                         axis=-2))
        tz._accumulate(k, dk)
        if bias_block is not None:
            db = dsd[..., :L].sum(axis=-3)
            db += dst[..., KL:]
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
