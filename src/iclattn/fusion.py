"""Prompt packing, the one candidate scorer, and fusion over groups.

A prompt is built from k demonstrations plus the test input, in direct
order (x_i, y_i, ..., x_test) or channel order (y_i, x_i, ..., y_test).
Packing truncates every sample to a per-sample cap and admits
demonstrations greedily while the count stays within k and the total
token length within 64*k.

Fusion schemes: single prompt, FiD (one demonstration per independently
encoded prompt, encoder states concatenated for the decoder), Group-FiD
(G multi-demonstration prompts, concatenated), and ensemble (per-group
logits averaged). Each is a list of runs of groups (`FusionPlan.runs`),
and every scorer reads the prompt format through `prompts` alone.
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

    def runs(self, n):
        """(demonstration indices, group count) of each encoding whose
        scores the plan averages over n demonstrations: single, FiD and
        Group-FiD are one run of 1, n and G groups; ensemble is G runs of
        one group."""
        if self.scheme == "ensemble":
            return [(part, 1) for part in split_groups(n, self.groups)]
        return [(list(range(n)), n if self.scheme == "fid" else self.groups)]


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


def prompts(test, candidates, fmt="direct"):
    """(test example, continuations) of each prompt that scores
    `candidates`: in direct format one prompt, which scores every
    candidate after x_test; in channel format one prompt per candidate,
    the candidate in y_test's place, which scores x_test."""
    if fmt == "channel":
        return [(TaskExample(test.x, c), [test.x]) for c in candidates]
    return [(test, candidates)]


def batch_scores(model, episodes, candidates, k, l_max, fmt="direct"):
    """(B, C) log-probabilities of each of B episodes' C candidates, from
    one `encode_batch` over the episodes' `prompts` and one
    `batch_logprobs` over their continuations. Raises ValueError, before
    any encoder pass, unless every episode has the same number of
    continuations, all of one length, and the prompts share one layout."""
    per_ep = [(ep.demos, prompts(ep.test, cands, fmt))
              for ep, cands in zip(episodes, candidates)]
    conts = [[c for _, cs in ps for c in cs] for _, ps in per_ep]
    if (len({len(cs) for cs in conts}) != 1
            or len({len(c) for cs in conts for c in cs}) != 1):
        raise ValueError("batch_scores needs the same number of "
                         "continuations, all of one length, in every episode")
    # encode_batch rejects differing layouts before it encodes
    states, key_valid = model.encode_batch(
        [pack_prompt(d, t, k, l_max, fmt) for d, ps in per_ep for t, _ in ps])
    lp = model.batch_logprobs(states, key_valid, [c for cs in conts for c in cs])
    return reshape(lp, (len(conts), len(conts[0])))


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
    """Per-candidate log-probability scores under a fusion plan: the mean,
    over the plan's runs, of the scores with the run's demonstrations
    encoded in its groups, one encoding per prompt of `prompts`."""
    if len(demos) == 0:
        raise PackingError("need at least one demonstration")
    if len(candidates) == 0:
        raise ValueError("need at least one candidate")
    scores = []
    for part, groups in plan.runs(len(demos)):
        for t, conts in prompts(test, candidates, fmt):
            enc = group_fid_encode(model, [demos[i] for i in part], t, groups,
                                   l_max, fmt)
            scores += [model.sequence_logprob(*enc, list(c)).item()
                       for c in conts]
    # mean over the runs in a fixed order; one run divides by 1, exactly
    return np.mean(np.reshape(scores, (-1, len(candidates))), axis=0)
