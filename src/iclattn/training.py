"""Meta-training over synthetic task families.

Each step samples a batch of episodes, packs them into prompts, and
minimizes the cross-entropy of the gold answer against the episode's
candidate options (plain gold log-probability when no options exist).
The learning rate warms up linearly to its peak over the first fraction
of steps, then decays linearly to zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .fusion import pack_prompt


class NonFiniteLossError(RuntimeError):
    pass


class NonFiniteGradientError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    train_k: int = 8
    test_k: tuple = (2, 4, 8)
    steps: int = 3000
    batch_size: int = 8
    # 2e-3 is the highest rate at which the dense-attention baseline
    # reliably escapes the label-frequency plateau within 3000 steps;
    # the structured variant converges across the whole 5e-4..3e-3 range
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
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.optimizer not in ("adam", "adafactor"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def lr_schedule(step, cfg):
    """Piecewise-linear: 0 -> peak over the warmup fraction, then back
    to 0 at the final step."""
    if not (0 <= step <= cfg.steps):
        raise ValueError(f"step {step} outside [0, {cfg.steps}]")
    warmup = max(1, round(cfg.warmup_frac * cfg.steps))
    if step <= warmup:
        return cfg.lr * step / warmup
    return cfg.lr * (cfg.steps - step) / (cfg.steps - warmup)


class Adam:
    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1 - b1 ** self.t
        corr2 = 1 - b2 ** self.t
        for n, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m, v = self.m[n], self.v[n]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mh = m / corr1
            vh = v / corr2
            p.data -= lr * mh / (np.sqrt(vh) + self.eps)

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


def make_optimizer(kind, params):
    return Adam(params) if kind == "adam" else Adafactor(params)


def batch_loss(model, episodes, cfg):
    """Mean cross-entropy of the gold answer against the episode's
    candidate options (so an untrained model scores ~log(num options),
    not log(vocab)). Episodes without options, and channel-format packs
    (whose candidate lives in the encoder rather than the continuation),
    fall back to plain negative log-probability of the gold continuation.

    Same-shape batches take the folded fast path; ragged ones fall back
    to a per-episode loop.
    """
    packs = [pack_prompt(ep.demos, ep.test, k=cfg.train_k, l_max=cfg.l_max,
                         fmt=cfg.fmt) for ep in episodes]
    opts = [ep.test.options for ep in episodes]
    layout = packs[0].layout()
    uniform = (
        cfg.fmt == "direct"
        and all(p.layout() == layout for p in packs[1:])
        and all(o is not None for o in opts)
        and len({len(o) for o in opts}) == 1
        and len({len(c) for o in opts for c in o}) == 1
    )
    B = len(packs)
    if uniform:
        # fold the candidate axis into the batch: one decoder pass over
        # B*C continuations, candidate-major
        C = len(opts[0])
        states, key_valid = model.encode_batch(packs)
        tiled = tz.concat([states] * C, axis=0)
        conts = [list(opts[b][c]) for c in range(C) for b in range(B)]
        lp = model.batch_logprobs(tiled, key_valid, conts)       # (C*B,)
        scores = tz.transpose(tz.reshape(lp, (C, B)), (1, 0))    # (B, C)
        gold = np.array([opts[b].index(list(episodes[b].test.y))
                         for b in range(B)], dtype=np.int64)
        picked = tz.gather_last(tz.log_softmax_last(scores), gold)
        return tz.scale(tz.tsum(picked), -1.0 / B)
    total = None
    for ep, pack in zip(episodes, packs):
        if ep.test.options is None or cfg.fmt != "direct":
            enc = model.encode(pack)
            nll = tz.scale(model.sequence_logprob(enc, pack.score_tokens), -1.0)
        else:
            enc = model.encode(pack)
            cand = [model.sequence_logprob(enc, list(c))
                    for c in ep.test.options]
            scores = tz.reshape(tz.concat(cand, axis=0), (1, len(cand)))
            gold = np.array([ep.test.options.index(list(ep.test.y))])
            nll = tz.scale(
                tz.gather_last(tz.log_softmax_last(scores), gold), -1.0)
        total = nll if total is None else tz.add(total, nll)
    return tz.scale(total, 1.0 / B)


def grad_norm(params):
    """Global L2 norm over every parameter gradient."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return np.sqrt(total)


def clip_gradients(params, max_norm):
    """Scale all gradients so their global norm is at most max_norm.
    Returns the norm before scaling; a non-finite norm leaves the
    gradients as they are. Gradients may share arrays, so each one is
    rebound to a scaled copy rather than scaled in place."""
    norm = grad_norm(params)
    if np.isfinite(norm) and norm > max_norm:
        factor = max_norm / norm
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
             l_max=8, fmt="direct"):
    """Accuracy of single-prompt prediction, averaged over demonstration
    seeds. Deterministic given (model, family, seeds)."""
    accs = []
    for seed in seeds:
        hits = 0
        for i in range(episodes):
            ep = family.sample_episode(test_k, seed * 1_000_003 + i)
            pack = pack_prompt(ep.demos, ep.test, k=test_k, l_max=l_max, fmt=fmt)
            cands = ep.test.options
            pred = model.predict(pack, cands)
            hits += int(list(cands[pred]) == list(ep.test.y))
        accs.append(hits / episodes)
    return EvalResult(accs, float(np.mean(accs)), float(np.std(accs)))
