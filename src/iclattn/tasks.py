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

TOKEN_BASE = 2  # first usable token id


@dataclass
class TaskExample:
    x: list
    y: list
    options: list = None  # candidate continuations for classification

    def __post_init__(self):
        if len(self.x) == 0 or len(self.y) == 0:
            raise ValueError("x and y must be non-empty")
        if self.options is not None and list(self.y) not in [list(o) for o in self.options]:
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


class LookupFamily(TaskFamily):
    """Each episode fixes a random key -> label mapping. Demonstrations
    show distinct keys; the test key is one of the demonstrated keys, so
    the answer is always recoverable from the prompt.

    The default pool of two keys keeps the routing problem learnable by
    the dense-attention baseline within the desk-scale training budget;
    repeated keys give the matching signal several anchor positions. The
    pool size is a free parameter for harder variants."""

    def __init__(self, num_keys=2, arity=4, key_base=TOKEN_BASE, label_base=40):
        if num_keys < 2 or arity < 2:
            raise ValueError("need at least 2 keys and 2 labels")
        self.num_keys = num_keys
        self.arity = arity
        self.keys = list(range(key_base, key_base + num_keys))
        self.labels = list(range(label_base, label_base + arity))
        self.options = [[l] for l in self.labels]

    def _episode(self, k, rng):
        kk = min(k, self.num_keys)
        keys = rng.choice(self.keys, size=kk, replace=False)
        if k > kk:  # repeat keys consistently when k exceeds the pool
            keys = np.concatenate([keys, rng.choice(keys, size=k - kk)])
        mapping = {key: self.labels[rng.integers(self.arity)] for key in set(keys)}
        demos = [TaskExample([int(key)], [mapping[key]],
                             [list(o) for o in self.options]) for key in keys]
        test_key = int(keys[rng.integers(len(keys))])
        test = TaskExample([test_key], [mapping[test_key]],
                           [list(o) for o in self.options])
        return Episode(demos, test)


class LinearLabelFamily(TaskFamily):
    """Label index = (a * t + b) mod arity for input token offset t; the
    episode's latent (a, b) must be inferred from the demonstrations."""

    def __init__(self, input_range=16, arity=4, input_base=TOKEN_BASE,
                 label_base=40):
        self.input_range = input_range
        self.arity = arity
        self.input_base = input_base
        self.labels = list(range(label_base, label_base + arity))
        self.options = [[l] for l in self.labels]

    def _label(self, t, a, b):
        return self.labels[(a * t + b) % self.arity]

    def _episode(self, k, rng):
        a = int(rng.integers(1, self.arity))
        b = int(rng.integers(self.arity))
        ts = rng.integers(self.input_range, size=k + 1)
        examples = [
            TaskExample([self.input_base + int(t)], [self._label(int(t), a, b)],
                        [list(o) for o in self.options])
            for t in ts
        ]
        return Episode(examples[:-1], examples[-1])


class CopyOffsetFamily(TaskFamily):
    """y is x shifted by the episode's latent offset; candidates are the
    test input under every possible offset."""

    def __init__(self, max_offset=4, seq_len=3, input_range=20,
                 input_base=TOKEN_BASE):
        self.max_offset = max_offset
        self.seq_len = seq_len
        self.input_range = input_range
        self.input_base = input_base

    def _apply(self, x, off):
        return [self.input_base + (t - self.input_base + off) % (self.input_range + self.max_offset)
                for t in x]

    def _episode(self, k, rng):
        off = int(rng.integers(1, self.max_offset + 1))

        def example():
            x = [self.input_base + int(t)
                 for t in rng.integers(self.input_range, size=self.seq_len)]
            opts = [self._apply(x, o) for o in range(1, self.max_offset + 1)]
            return TaskExample(x, self._apply(x, off), opts)

        demos = [example() for _ in range(k)]
        return Episode(demos, example())


FAMILIES = {
    "lookup": LookupFamily,
    "linear": LinearLabelFamily,
    "copy": CopyOffsetFamily,
}


def make_family(name, **kwargs):
    if name not in FAMILIES:
        raise ValueError(f"unknown task family {name!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[name](**kwargs)
