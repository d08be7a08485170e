"""Meta-training over synthetic task families.

Each step samples a batch of episodes, packs them into prompts, and
minimizes `batch_loss`: candidate cross-entropy (direct) or NLL (channel).
The learning rate warms up linearly to its peak over the first fraction
of steps, then decays linearly to zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .fusion import FORMATS, FusionPlan, fused_predict, pack_prompt


class NonFiniteLossError(RuntimeError):
    pass


class NonFiniteGradientError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    train_k: int = 8
    steps: int = 3000
    # At batch 8 the dense-attention baseline's escape from the
    # label-frequency plateau within 3000 steps hinged on float rounding
    # (k=8 accuracy 0.77-1.00 over seeds 0-4). At batch 16 the structured
    # variant reads 1.000 at seeds 0-4, the dense one 1.000 at all but
    # seed 1 (0.914): its margin still rests on rounding. Raising lr to 3e-3
    # or 4e-3 at batch 8 made the dense model worse, not better.
    batch_size: int = 16
    lr: float = 2e-3
    warmup_frac: float = 0.1
    seed: int = 0
    optimizer: str = "adam"
    fmt: str = "direct"
    l_max: int = 8
    grad_clip: float = 1.0  # global-norm ceiling; 0 disables

    def __post_init__(self):
        if not (0.0 <= self.warmup_frac < 1.0):
            raise ValueError("warmup_frac must lie in [0, 1)")
        if min(self.steps, self.train_k, self.batch_size, self.l_max) < 1:
            raise ValueError("steps, train_k, batch_size and l_max must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown prompt format {self.fmt!r}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.grad_clip < 0:
            raise ValueError(f"grad_clip must be >= 0, got {self.grad_clip}")


def lr_schedule(step, cfg):
    """Piecewise-linear: 0 -> peak over the warmup fraction, then back
    to 0 at the final step."""
    if not (0 <= step <= cfg.steps):
        raise ValueError(f"step {step} outside [0, {cfg.steps}]")
    warmup = max(1, round(cfg.warmup_frac * cfg.steps))
    if step <= warmup:
        return cfg.lr * step / warmup
    return cfg.lr * (cfg.steps - step) / (cfg.steps - warmup)


# Elements per Adam update chunk. Gradients are gathered, and the update
# runs, one chunk (or one larger parameter) at a time through three scratch
# arrays: a whole-buffer gradient copy raised the desk-scale benchmark's
# peak RSS by 2.9 MB (4.5%), as each of its set-ups holds a model and
# optimizer. 16384 was the fastest of 4096-32768 for the default model.
_ADAM_CHUNK = 16384


class Adam:
    """Mixed-precision Adam over one flat parameter buffer (Micikevicius
    et al. 2018, arXiv:1710.03740).

    The constructor copies the parameters it is given into one contiguous
    float64 buffer, `flat`: the master weights, which the update and the
    moments `m` and `v` work on. Each `.data` is rebound to a view of a
    float32 copy of that buffer, so the forward and backward passes run in
    float32; a later rebinding of `.data` detaches that parameter from the
    optimizer. Each step walks the runs of consecutive parameters that
    have a gradient and updates them a chunk at a time: the gradient is
    gathered (and cast) into a float64 scratch array, and the updated
    master chunk is cast back into the working buffer. A parameter whose
    `.grad` is None gets neither a moment decay nor an update."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.flat = np.empty(sum(p.data.size for p in params.values()))
        self._work = np.empty(self.flat.size, dtype=np.float32)
        self._spans = []        # (param, start, stop) within `flat`
        start = 0
        for p in params.values():
            stop = start + p.data.size
            self.flat[start:stop] = p.data.reshape(-1)
            p.data = self._work[start:stop].reshape(p.data.shape)
            self._spans.append((p, start, stop))
            start = stop
        self._work[...] = self.flat
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        chunk = max([min(_ADAM_CHUNK, self.flat.size)]
                    + [p.data.size for p in params.values()])
        self._scratch = tuple(np.empty(chunk) for _ in range(3))

    def step(self, lr):
        self.t += 1
        corr = (1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t)
        g = self._scratch[2]
        a = n = 0               # g[:n] holds the gradient of flat[a:a + n]
        for p, start, stop in self._spans:
            size = stop - start
            if n and (p.grad is None or n + size > _ADAM_CHUNK):
                self._update(a, n, lr, *corr)
                n = 0
            if p.grad is None:
                continue
            if not n:
                a = start
            np.copyto(g[n:n + size].reshape(p.data.shape), p.grad)
            n += size
        if n:
            self._update(a, n, lr, *corr)

    def _update(self, a, n, lr, corr1, corr2):
        """Adam on flat[a:a + n], whose gradient is in the scratch array:
        the operations, in their order, of
        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        w -= lr (m / corr1) / (sqrt(v / corr2) + eps),
        then the cast of the updated weights into the working buffer."""
        b1, b2 = self.beta1, self.beta2
        m, v = self.m[a:a + n], self.v[a:a + n]
        s1, s2, g = (s[:n] for s in self._scratch)
        m *= b1
        np.multiply(g, 1 - b1, out=s1)
        m += s1
        v *= b2
        np.multiply(g, 1 - b2, out=s1)
        s1 *= g
        v += s1
        np.divide(v, corr2, out=s1)
        np.sqrt(s1, out=s1)
        s1 += self.eps
        np.divide(m, corr1, out=s2)
        s2 *= lr
        s2 /= s1
        w = self.flat[a:a + n]
        w -= s2
        self._work[a:a + n] = w

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


class Adafactor:
    """Factored adaptive optimizer: matrices keep row/column second-moment
    accumulators instead of a full one."""

    def __init__(self, params, decay=0.8, eps=1e-30):
        self.params = params
        self.decay = decay
        self.eps = eps
        self.t = 0
        self.state = {}
        for n, p in params.items():
            if p.data.ndim == 2:
                self.state[n] = (np.zeros(p.data.shape[0]), np.zeros(p.data.shape[1]))
            else:
                self.state[n] = np.zeros_like(p.data)

    def step(self, lr):
        self.t += 1
        beta = 1 - self.t ** (-self.decay)
        for n, p in self.params.items():
            if p.grad is None:
                continue
            g2 = p.grad * p.grad + self.eps
            if p.data.ndim == 2:
                r, c = self.state[n]
                r = beta * r + (1 - beta) * g2.mean(axis=1)
                c = beta * c + (1 - beta) * g2.mean(axis=0)
                self.state[n] = (r, c)
                v = np.outer(r, c) / max(r.mean(), self.eps)
            else:
                v = self.state[n] = beta * self.state[n] + (1 - beta) * g2
            p.data -= lr * p.grad / np.sqrt(v + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


OPTIMIZERS = {"adam": Adam, "adafactor": Adafactor}


def make_optimizer(kind, params):
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind](params)


def batch_loss(model, episodes, cfg):
    """Mean loss over a batch, from one encoder pass over its B prompts and
    one decoder pass over their continuations: in direct format the
    cross-entropy of the gold answer against the episode's C options (so
    an untrained model scores ~log C, not log(vocab)); in channel format,
    where the candidate is in the encoder, the test input's negative
    log-probability. Raises ValueError, before any encoder pass, unless the
    prompts share one layout and every episode has the same number of
    continuations (none for a direct episode without options), all of one
    length."""
    packs = [pack_prompt(ep.demos, ep.test, k=cfg.train_k, l_max=cfg.l_max,
                         fmt=cfg.fmt) for ep in episodes]
    if cfg.fmt == "channel":
        conts = [[list(p.score_tokens)] for p in packs]
    else:
        conts = [[list(c) for c in ep.test.options or ()] for ep in episodes]
    if (len({len(cs) for cs in conts}) != 1
            or len({len(c) for cs in conts for c in cs}) != 1):
        raise ValueError("batch_loss needs the same number of continuations "
                         "(options, in direct format), all of one length, "
                         "in every episode")
    # encode_batch rejects differing layouts before it encodes
    states, key_valid = model.encode_batch(packs)
    lp = model.batch_logprobs(states, key_valid,
                              [c for cs in conts for c in cs])     # (B*C,)
    B, C = len(conts), len(conts[0])
    if cfg.fmt == "direct":
        gold = np.array([ep.test.options.index(list(ep.test.y))
                         for ep in episodes], dtype=np.int64)
        lp = tz.gather_last(tz.log_softmax_last(tz.reshape(lp, (B, C))), gold)
    return tz.scale(tz.tsum(lp), -1.0 / B)


def grad_norm(params):
    """Global L2 norm over every parameter gradient, accumulated in
    float64 whatever the gradients' dtype."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            g = p.grad.reshape(-1).astype(np.float64, copy=False)
            total += float(np.dot(g, g))
    return np.sqrt(total)


def clip_gradients(params, max_norm):
    """Scale all gradients so their global norm is at most max_norm.
    Returns the norm before scaling; a non-finite norm leaves the
    gradients as they are. Gradients may share arrays, so each one is
    rebound to a scaled copy rather than scaled in place, in its own
    dtype."""
    norm = grad_norm(params)
    if np.isfinite(norm) and norm > max_norm:
        factor = float(max_norm / norm)
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def train_step(model, optimizer, episodes, lr, cfg):
    """One optimizer update; returns the pre-update batch loss.

    Raises NonFiniteLossError or NonFiniteGradientError, before any
    weight changes, when the loss or the global gradient norm is not
    finite."""
    optimizer.zero_grad()
    loss = batch_loss(model, episodes, cfg)
    value = loss.item()
    if not np.isfinite(value):
        raise NonFiniteLossError(f"loss became non-finite: {value}")
    tz.backward(loss)
    params = model.parameters()
    if cfg.grad_clip > 0:
        norm = clip_gradients(params, cfg.grad_clip)
    else:
        norm = grad_norm(params)
    if not np.isfinite(norm):
        raise NonFiniteGradientError(f"gradient norm became non-finite: {norm}")
    optimizer.step(lr)
    return value


def sample_batch(family, k, batch_size, rng):
    return [family.sample_episode(k, int(rng.integers(2 ** 63)))
            for _ in range(batch_size)]


def train(model, family, cfg, log_path=None, progress=None):
    """Full meta-training run. Deterministic in (cfg.seed, cfg)."""
    rng = np.random.default_rng(cfg.seed)
    optimizer = make_optimizer(cfg.optimizer, model.parameters())
    history = []
    writer = fh = None
    if log_path is not None:
        fh = open(log_path, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "lr"])
    try:
        for step in range(1, cfg.steps + 1):
            episodes = sample_batch(family, cfg.train_k, cfg.batch_size, rng)
            lr = lr_schedule(step, cfg)
            loss = train_step(model, optimizer, episodes, lr, cfg)
            history.append(loss)
            if writer is not None:
                writer.writerow([step, f"{loss:.10f}", f"{lr:.10f}"])
            if progress is not None and step % progress == 0:
                print(f"step {step}/{cfg.steps}  loss {loss:.4f}  lr {lr:.2e}")
    finally:
        if fh is not None:
            fh.close()
    return history


@dataclass
class EvalResult:
    per_seed: list
    mean: float
    std: float


def evaluate(model, family, test_k, episodes=100, seeds=(0, 1, 2, 3, 4),
             l_max=8, fmt="direct", plan=FusionPlan()):
    """Accuracy of the fusion plan's prediction (single prompt by
    default) over k = test_k demonstrations, averaged over demonstration
    seeds. Deterministic given (model, family, seeds, plan)."""
    accs = []
    for seed in seeds:
        hits = 0
        for i in range(episodes):
            ep = family.sample_episode(test_k, seed * 1_000_003 + i)
            cands = ep.test.options
            pred = fused_predict(model, ep.demos, ep.test, cands, plan,
                                 l_max, fmt)
            hits += int(list(cands[pred]) == list(ep.test.y))
        accs.append(hits / episodes)
    return EvalResult(accs, float(np.mean(accs)), float(np.std(accs)))
