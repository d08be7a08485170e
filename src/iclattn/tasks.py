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
ARITY = 4  # labels of the lookup and linear families
# The candidates of every lookup and linear example: one shared tuple of
# one-token options, which no example can edit.
OPTIONS = tuple((LABEL_BASE + i,) for i in range(ARITY))
# A pool of two lookup keys keeps the routing problem learnable by the
# dense-attention baseline within the desk-scale training budget;
# repeated keys give the matching signal several anchor positions.
NUM_KEYS = 2  # lookup keys are TOKEN_BASE + [0, 2)
LINEAR_INPUT_RANGE = 16  # linear inputs are TOKEN_BASE + [0, 16)
# The one-token inputs of every lookup and linear example, by raw index:
# INPUTS[i] is (TOKEN_BASE + i,), and lookup keys are its first NUM_KEYS.
INPUTS = tuple((TOKEN_BASE + i,) for i in range(LINEAR_INPUT_RANGE))
MAX_OFFSET = 4  # copy offsets are 1..MAX_OFFSET
COPY_INPUT_RANGE = 20  # copy inputs are TOKEN_BASE + [0, 20)
# x and its option under offset 1..MAX_OFFSET, as shifts of the raw
# input: inputs lie below COPY_INPUT_RANGE, so no shift wraps around.
COPY_SHIFTS = TOKEN_BASE + np.arange(1 + MAX_OFFSET)[:, None]


@dataclass(slots=True)
class TaskExample:
    """x, y and each candidate are token tuples, and `options` a tuple of
    them or None. Other sequences are converted once; a tuple `options` is
    kept as given, so examples can share one. Tuples cannot be edited, so
    sharing lets no edit of one example reach another."""

    x: tuple
    y: tuple
    options: tuple = None  # candidate continuations

    def __post_init__(self):
        self.x, self.y = tuple(self.x), tuple(self.y)
        if len(self.x) == 0 or len(self.y) == 0:
            raise ValueError("x and y must be non-empty")
        if self.options is not None:
            if type(self.options) is not tuple:
                self.options = tuple(map(tuple, self.options))
            if self.y not in self.options:
                raise ValueError("y must be among the candidate options")


@dataclass(slots=True)
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
        """Episode from k+1 rows of token tuples; the last row is the test."""
        examples = [TaskExample(*row) for row in zip(xs, ys, options)]
        return Episode(examples[:-1], examples[-1])


class LookupFamily(TaskFamily):
    """Each episode fixes a random key -> label mapping over the NUM_KEYS
    keys. Demonstrations show distinct keys; the test key is one of the
    demonstrated keys, so the answer is always recoverable from the
    prompt."""

    def _episode(self, k, rng):
        kk = min(k, NUM_KEYS)
        keys = rng.choice(NUM_KEYS, size=kk, replace=False)
        if k > kk:  # repeat keys consistently when k exceeds the pool
            keys = np.concatenate([keys, rng.choice(keys, size=k - kk)])
        keys = keys.tolist()
        mapping = {key: OPTIONS[int(rng.integers(ARITY))]
                   for key in set(keys)}
        keys.append(keys[rng.integers(k)])  # the test key
        return self._assemble([INPUTS[key] for key in keys],
                              [mapping[key] for key in keys],
                              [OPTIONS] * (k + 1))


class LinearLabelFamily(TaskFamily):
    """Label index = (a * t + b) mod ARITY for input token offset t; the
    episode's latent (a, b) must be inferred from the demonstrations."""

    def _episode(self, k, rng):
        a = int(rng.integers(1, ARITY))
        b = int(rng.integers(ARITY))
        ts = rng.integers(LINEAR_INPUT_RANGE, size=k + 1)
        labels = ((a * ts + b) % ARITY).tolist()
        return self._assemble([INPUTS[t] for t in ts.tolist()],
                              [OPTIONS[i] for i in labels],
                              [OPTIONS] * (k + 1))


class CopyOffsetFamily(TaskFamily):
    """y is x shifted by the episode's latent offset; candidates are the
    test input under every possible offset."""

    def __init__(self, seq_len=3):
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        self.seq_len = seq_len

    def _episode(self, k, rng):
        off = int(rng.integers(1, MAX_OFFSET + 1))
        raw = rng.integers(COPY_INPUT_RANGE, size=(k + 1, self.seq_len))
        grid = raw[:, None, :] + COPY_SHIFTS  # (k+1, 1 + MAX_OFFSET, seq_len)
        # one token tuple per row, zipped from the columns; then each
        # example's 1 + MAX_OFFSET rows in turn: x, then its options
        rows = zip(*grid.reshape(-1, self.seq_len).T.tolist())
        examples = list(zip(*[rows] * (1 + MAX_OFFSET)))
        return self._assemble([e[0] for e in examples],
                              [e[off] for e in examples],
                              [e[1:] for e in examples])


FAMILIES = {
    "lookup": LookupFamily,
    "linear": LinearLabelFamily,
    "copy": CopyOffsetFamily,
}


def make_family(name, **kwargs):
    if name not in FAMILIES:
        raise ValueError(f"unknown task family {name!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[name](**kwargs)
