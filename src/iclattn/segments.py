"""Segmented prompt layout and everything derived from it.

A packed prompt is k demonstration segments followed by one test segment,
all padded to a common length L. This module derives the block attention
masks, the within-segment relative position bias, and segment
permutations from that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import MASK_VALUE, Tensor, constant, embed, mul, reshape, transpose


class InvalidPermutationError(ValueError):
    pass


@dataclass(frozen=True)
class SegmentLayout:
    """k demonstration segments plus a trailing test segment, each padded
    to `segment_length` tokens with `valid[i]` real tokens."""

    num_demos: int
    segment_length: int
    valid: tuple

    def __post_init__(self):
        k, L = self.num_demos, self.segment_length
        if k < 0 or L < 1:
            raise ValueError(f"bad layout: k={k}, L={L}")
        if len(self.valid) != k + 1:
            raise ValueError(f"need {k + 1} valid counts, got {len(self.valid)}")
        if any(not (1 <= v <= L) for v in self.valid):
            raise ValueError(f"valid counts must lie in [1, {L}]: {self.valid}")

    @property
    def num_segments(self):
        return self.num_demos + 1

    @property
    def total_length(self):
        return self.num_segments * self.segment_length

    def key_valid(self):
        """Boolean (total_length,) array: True at non-padding positions."""
        return (np.arange(self.segment_length)
                < np.asarray(self.valid)[:, None]).reshape(-1)

    def key_mask(self):
        """(total_length,) additive mask blocking padding keys."""
        return np.where(self.key_valid(), 0.0, MASK_VALUE)

    def permuted(self, perm):
        perm = _check_perm(perm, self.num_demos)
        valid = tuple(self.valid[p] for p in perm) + (self.valid[-1],)
        return SegmentLayout(self.num_demos, self.segment_length, valid)


def _check_perm(perm, k):
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise InvalidPermutationError(
            f"{perm} is not a permutation of the {k} demonstration indices")
    return perm


def build_structured_mask(layout):
    """Additive (T, T) mask, 0 where a query may attend a key and
    MASK_VALUE where it is blocked. Demonstration tokens attend within
    their own segment and to the test segment; test tokens attend
    everywhere. Padding keys are blocked for all queries. With every
    segment full, (3k+1)*L^2 pairs stay open.
    """
    seg = np.arange(layout.total_length) // layout.segment_length
    test = layout.num_demos
    same = seg[:, None] == seg[None, :]
    to_test = seg[None, :] == test
    from_test = seg[:, None] == test
    allowed = (same | to_test | from_test) & layout.key_valid()[None, :]
    return np.where(allowed, 0.0, MASK_VALUE)


def build_full_mask(layout):
    """Additive (T, T) mask of the dense baseline: every non-padding key
    is visible to every query."""
    allowed = np.broadcast_to(layout.key_valid()[None, :],
                              (layout.total_length, layout.total_length))
    return np.where(allowed, 0.0, MASK_VALUE)


def check_buckets(num_buckets, max_distance, bidirectional=True):
    """Raise ValueError unless `relative_bucket` can serve these settings:
    an even count in bidirectional mode, at least one exact bucket per
    direction, and a max_distance past the exact buckets."""
    if bidirectional and num_buckets % 2 != 0:
        raise ValueError("num_buckets must be even in bidirectional mode")
    half = num_buckets // 2 if bidirectional else num_buckets
    if half // 2 < 1:
        raise ValueError(f"num_buckets {num_buckets} leaves no exact bucket")
    if max_distance <= num_buckets // 2:
        raise ValueError("max_distance must exceed num_buckets / 2")


def relative_bucket(delta, num_buckets=32, max_distance=128, bidirectional=True):
    """Map a signed offset (query position minus key position) to a
    bucket index, T5 style: exact buckets for small offsets, log-spaced
    up to max_distance, clamped beyond.

    Accepts scalars or integer arrays.
    """
    check_buckets(num_buckets, max_distance, bidirectional)
    delta = np.asarray(delta, dtype=np.int64)
    bucket = np.zeros_like(delta)
    if bidirectional:
        half = num_buckets // 2
        bucket = bucket + (delta > 0).astype(np.int64) * half
        pos = np.abs(delta)
    else:
        # unidirectional: only keys at or before the query are meaningful,
        # i.e. delta = query - key >= 0
        half = num_buckets
        pos = np.maximum(delta, 0)
    max_exact = half // 2
    with np.errstate(divide="ignore"):
        large = max_exact + (
            np.log(np.maximum(pos, 1) / max_exact)
            / math.log(max_distance / max_exact) * (half - max_exact)
        ).astype(np.int64)
    large = np.minimum(large, half - 1)
    bucket = bucket + np.where(pos < max_exact, pos, large)
    return bucket if bucket.ndim else int(bucket)


class RelativeBiasTable:
    """Learned additive attention bias, indexed by (bucket, head)."""

    def __init__(self, num_heads, num_buckets=32, max_distance=128,
                 bidirectional=True, *, rng, init_std=0.02):
        self.num_buckets = num_buckets
        self.max_distance = max_distance
        self.bidirectional = bidirectional
        weights = rng.normal(0.0, init_std, size=(num_buckets, num_heads))
        self.weights = Tensor(weights, requires_grad=True)

    def bias_block(self, length):
        """(heads, L, L) bias for one segment; shared by every segment."""
        pos = np.arange(length)
        buckets = relative_bucket(pos[:, None] - pos[None, :], self.num_buckets,
                                  self.max_distance, self.bidirectional)
        return transpose(embed(self.weights, buckets), (2, 0, 1))

    def bias_global(self, length):
        """(heads, T, T) bias from absolute positions over the whole
        packed sequence - the dense-baseline convention."""
        return self.bias_block(length)


def bias_for_layout(table, layout):
    """(H, T, T) structured bias aligned with the (T, T) mask, in the
    table's dtype: `table.bias_block(L)` on every segment diagonal and
    exactly zero across segments, which makes demonstration permutations
    invisible. The dense baseline's bias is `table.bias_global(T)`."""
    T, L, n = layout.total_length, layout.segment_length, layout.num_segments
    block = table.bias_block(L)
    eye = np.eye(n, dtype=block.data.dtype)[None, :, None, :, None]
    placed = mul(reshape(block, (-1, 1, L, 1, L)), constant(eye))
    return reshape(placed, (-1, T, T))


def permute_segments(layout, values, perm, axis=0):
    """Reorder the demonstration blocks of a per-token array along
    `axis`; the trailing test segment stays put."""
    perm = _check_perm(perm, layout.num_demos)
    arr = values.data if isinstance(values, Tensor) else np.asarray(values)
    L = layout.segment_length
    if arr.shape[axis] != layout.total_length:
        raise ValueError(
            f"axis {axis} has extent {arr.shape[axis]}, layout wants {layout.total_length}")
    order = np.concatenate([np.arange(p * L, (p + 1) * L) for p in perm]
                           + [np.arange(layout.num_demos * L, layout.total_length)])
    out = np.take(arr, order, axis=axis)
    return Tensor(out) if isinstance(values, Tensor) else out
