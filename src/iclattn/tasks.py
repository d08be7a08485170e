"""Synthetic in-context learning tasks.

Three generator families, each exercising a different mechanism:

 * key-value lookup: the answer must be routed from the one
   demonstration whose key matches the test input;
 * linear-label classification: the latent labeling rule has to be
   aggregated across demonstrations;
 * copy-with-offset: solvable from the demonstrations' shared offset,
   a control for degenerate shortcuts.

All token ids live in [2, vocab) because 0/1 are pad/start tokens.
Episodes are sampled on the fly, deterministically in (k, seed); nothing
is read from or written to disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOKEN_BASE = 2  # first usable token id: keys and inputs start here
LABEL_BASE = 40  # first label token of the lookup and linear families


def _require(**bounds):
    """ValueError naming the first argument below its minimum; each
    keyword maps an argument's name to (value, minimum)."""
    for name, (value, low) in bounds.items():
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass
class TaskExample:
    x: list
    y: list
    options: list = None  # candidate continuations (token lists)

    def __post_init__(self):
        if len(self.x) == 0 or len(self.y) == 0:
            raise ValueError("x and y must be non-empty")
        if self.options is not None and list(self.y) not in self.options:
            raise ValueError("y must be among the candidate options")


@dataclass
class Episode:
    demos: list
    test: TaskExample


class TaskFamily:
    """Base class: a family draws a latent task instance per episode and
    i.i.d. examples from it."""

    def sample_episode(self, k, seed):
        """k demonstrations plus one test example sharing a latent task
        instance. Deterministic in (k, seed)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        rng = np.random.default_rng(seed)
        return self._episode(k, rng)

    def _episode(self, k, rng):
        raise NotImplementedError

    @staticmethod
    def _assemble(xs, ys, options):
        """Episode from k+1 rows of token lists; the last row is the test."""
        examples = [TaskExample(*row) for row in zip(xs, ys, options)]
        return Episode(examples[:-1], examples[-1])


class LookupFamily(TaskFamily):
    """Each episode fixes a random key -> label mapping. Demonstrations
    show distinct keys; the test key is one of the demonstrated keys, so
    the answer is always recoverable from the prompt.

    The default pool of two keys keeps the routing problem learnable by
    the dense-attention baseline within the desk-scale training budget;
    repeated keys give the matching signal several anchor positions. The
    pool size is a free parameter for harder variants."""

    def __init__(self, num_keys=2, arity=4):
        _require(num_keys=(num_keys, 2), arity=(arity, 2))
        self.num_keys = num_keys
        self.arity = arity
        self.keys = np.arange(TOKEN_BASE, TOKEN_BASE + num_keys)
        self.labels = list(range(LABEL_BASE, LABEL_BASE + arity))
        self.options = np.array(self.labels)[:, None]  # (arity, 1)

    def _episode(self, k, rng):
        kk = min(k, self.num_keys)
        keys = rng.choice(self.keys, size=kk, replace=False)
        if k > kk:  # repeat keys consistently when k exceeds the pool
            keys = np.concatenate([keys, rng.choice(keys, size=k - kk)])
        keys = keys.tolist()
        mapping = {key: self.labels[rng.integers(self.arity)] for key in set(keys)}
        keys.append(keys[rng.integers(k)])  # the test key
        return self._assemble([[key] for key in keys],
                              [[mapping[key]] for key in keys],
                              self.options[None].repeat(k + 1, 0).tolist())


class LinearLabelFamily(TaskFamily):
    """Label index = (a * t + b) mod arity for input token offset t; the
    episode's latent (a, b) must be inferred from the demonstrations."""

    def __init__(self, input_range=16, arity=4):
        _require(input_range=(input_range, 1), arity=(arity, 2))
        self.input_range = input_range
        self.arity = arity
        self.labels = list(range(LABEL_BASE, LABEL_BASE + arity))
        self.options = np.array(self.labels)[:, None]  # (arity, 1)

    def _label(self, t, a, b):
        return self.labels[(a * t + b) % self.arity]

    def _episode(self, k, rng):
        a = int(rng.integers(1, self.arity))
        b = int(rng.integers(self.arity))
        ts = rng.integers(self.input_range, size=k + 1)
        return self._assemble((TOKEN_BASE + ts)[:, None].tolist(),
                              self.options[(a * ts + b) % self.arity].tolist(),
                              self.options[None].repeat(k + 1, 0).tolist())


class CopyOffsetFamily(TaskFamily):
    """y is x shifted by the episode's latent offset; candidates are the
    test input under every possible offset."""

    def __init__(self, max_offset=4, seq_len=3, input_range=20):
        _require(max_offset=(max_offset, 1), seq_len=(seq_len, 1),
                 input_range=(input_range, 1))
        self.max_offset = max_offset
        self.seq_len = seq_len
        self.input_range = input_range

    def _episode(self, k, rng):
        off = int(rng.integers(1, self.max_offset + 1))
        raw = rng.integers(self.input_range, size=(k + 1, self.seq_len))
        offsets = np.arange(1, self.max_offset + 1)[:, None]
        opts = TOKEN_BASE + (raw[:, None, :] + offsets) % (
            self.input_range + self.max_offset)  # (k+1, max_offset, seq_len)
        return self._assemble((TOKEN_BASE + raw).tolist(),
                              opts[:, off - 1].tolist(), opts.tolist())


FAMILIES = {
    "lookup": LookupFamily,
    "linear": LinearLabelFamily,
    "copy": CopyOffsetFamily,
}


def make_family(name, **kwargs):
    if name not in FAMILIES:
        raise ValueError(f"unknown task family {name!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[name](**kwargs)
