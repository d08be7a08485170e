"""Prompt packing, the one candidate scorer, and fusion over groups.

A prompt is built from k demonstrations plus the test input, in direct
order (x_i, y_i, ..., x_test) or channel order (y_i, x_i, ..., y_test).
Packing truncates every sample to a per-sample cap and admits
demonstrations greedily while the count stays within k and the total
token length within 64*k.

Fusion schemes: single prompt, FiD (one demonstration per independently
encoded prompt, encoder states concatenated for the decoder), Group-FiD
(G multi-demonstration prompts, concatenated), and ensemble (per-group
logits averaged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PAD_ID
from .segments import SegmentLayout
from .tasks import TaskExample
from .tensor import concat, reshape

FORMATS = ("direct", "channel")
SCHEMES = ("single", "fid", "group_fid", "ensemble")
TOKENS_PER_DEMO_BUDGET = 64


class PackingError(ValueError):
    pass


@dataclass(frozen=True)
class PromptPack:
    """One fused prompt: demonstration segments and the test segment."""

    demo_segments: tuple        # tuple of token tuples
    test_segment: tuple

    def __post_init__(self):
        if len(self.test_segment) == 0:
            raise ValueError("test segment must be non-empty")

    @property
    def num_demos(self):
        return len(self.demo_segments)

    @property
    def segment_length(self):
        return max([len(self.test_segment)]
                   + [len(s) for s in self.demo_segments])

    def layout(self):
        valid = tuple(len(s) for s in self.demo_segments) + (len(self.test_segment),)
        return SegmentLayout(self.num_demos, self.segment_length, valid)

    def padded_tokens(self):
        L = self.segment_length
        segs = list(self.demo_segments) + [self.test_segment]
        out = np.full(len(segs) * L, PAD_ID, dtype=np.int64)
        for i, seg in enumerate(segs):
            out[i * L:i * L + len(seg)] = seg
        return out


@dataclass(frozen=True)
class FusionPlan:
    scheme: str = "single"
    groups: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown fusion scheme {self.scheme!r}")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")
        if self.scheme in ("single", "fid") and self.groups != 1:
            raise ValueError(f"{self.scheme} scheme requires groups == 1")


def pack_prompt(demos, test, k, l_max, fmt="direct"):
    """Truncate each sample to l_max tokens, then admit demonstrations
    greedily in the given order while the count is at most k and the
    total token length at most 64*k. The test segment is x_test in direct
    format and y_test in channel format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown prompt format {fmt!r}")
    if len(demos) == 0:
        raise PackingError("need at least one demonstration")
    if l_max < 1:
        raise PackingError("l_max must be >= 1")
    budget = TOKENS_PER_DEMO_BUDGET * k
    test_seg = list(test.y if fmt == "channel" else test.x)[:l_max]
    if len(test_seg) > budget:
        raise PackingError(
            f"test input alone ({len(test_seg)} tokens) exceeds the {budget}-token budget")
    admitted = []
    total = len(test_seg)
    for demo in demos:
        x, y = list(demo.x), list(demo.y)
        seg = (y + x if fmt == "channel" else x + y)[:l_max]
        if len(admitted) + 1 > k or total + len(seg) > budget:
            break
        admitted.append(tuple(seg))
        total += len(seg)
    return PromptPack(tuple(admitted), tuple(test_seg))


def batch_scores(model, episodes, candidates, k, l_max, fmt="direct"):
    """(B, C) log-probabilities of each of B episodes' C candidates, from
    one `encode_batch` and one `batch_logprobs`: direct format scores the
    candidates after one prompt per episode; channel format scores x_test
    after one prompt per candidate, the candidate in y_test's place.
    Raises ValueError, before any encoder pass, unless every episode has
    the same number of continuations, all of one length, and the prompts
    share one layout."""
    if fmt == "channel":
        prompts = [(ep.demos, TaskExample(ep.test.x, c))
                   for ep, cs in zip(episodes, candidates) for c in cs]
        candidates = [[ep.test.x] * len(cs)
                      for ep, cs in zip(episodes, candidates)]
    else:
        prompts = [(ep.demos, ep.test) for ep in episodes]
    if (len({len(cs) for cs in candidates}) != 1
            or len({len(c) for cs in candidates for c in cs}) != 1):
        raise ValueError("batch_scores needs the same number of "
                         "continuations, all of one length, in every episode")
    # encode_batch rejects differing layouts before it encodes
    states, key_valid = model.encode_batch(
        [pack_prompt(d, t, k, l_max, fmt) for d, t in prompts])
    lp = model.batch_logprobs(states, key_valid,
                              [c for cs in candidates for c in cs])
    return reshape(lp, (len(candidates), len(candidates[0])))


def split_groups(n, groups):
    """Contiguous split of range(n) into `groups` parts, sizes equal +-1."""
    if not (1 <= groups <= n):
        raise ValueError(f"groups must lie in [1, {n}], got {groups}")
    return [list(part) for part in np.array_split(np.arange(n), groups)]


def group_fid_encode(model, demos, test, groups, l_max, fmt="direct"):
    """Encode G demonstration groups independently and concatenate their
    encoder states on the position axis for the decoder's cross-attention.
    Returns (states (1, T, d), key_valid (T,)), the form of `model.encode`.
    FiD is groups=len(demos): one demonstration per prompt."""
    outs = [model.encode(pack_prompt([demos[i] for i in part], test,
                                     k=len(part), l_max=l_max, fmt=fmt))
            for part in split_groups(len(demos), groups)]
    states, key_valid = zip(*outs)
    return concat(states, axis=1), np.concatenate(key_valid)


def fused_logprobs(model, demos, test, candidates, plan, l_max, fmt="direct"):
    """Per-candidate log-probability scores under a fusion plan. Single,
    FiD and Group-FiD encode the demonstrations in 1, len(demos) and G
    groups; ensemble averages the one-group scores of its G groups."""
    if len(demos) == 0:
        raise PackingError("need at least one demonstration")
    if len(candidates) == 0:
        raise ValueError("need at least one candidate")
    if plan.scheme == "ensemble":
        per_group = [_group_logprobs(model, [demos[i] for i in part], test,
                                     candidates, 1, l_max, fmt)
                     for part in split_groups(len(demos), plan.groups)]
        # mean of log-probabilities, fixed summation order
        return np.mean(np.stack(per_group, axis=0), axis=0)
    groups = len(demos) if plan.scheme == "fid" else plan.groups
    return _group_logprobs(model, demos, test, candidates, groups, l_max, fmt)


def _group_logprobs(model, demos, test, candidates, groups, l_max, fmt):
    """Scores with the demonstrations encoded in `groups` groups. Channel
    puts each candidate in y_test's place and scores x_test."""
    if fmt == "direct":
        enc = group_fid_encode(model, demos, test, groups, l_max, fmt)
        return np.array([model.sequence_logprob(*enc, list(c)).item()
                         for c in candidates])
    scores = []
    for c in candidates:
        cand_test = TaskExample(list(test.x), list(c))
        enc = group_fid_encode(model, demos, cand_test, groups, l_max, fmt)
        scores.append(model.sequence_logprob(*enc, list(test.x)).item())
    return np.array(scores)
