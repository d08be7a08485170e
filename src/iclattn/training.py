"""Meta-training over synthetic task families.

Each step samples a batch of episodes and minimizes `batch_loss` over
`fusion.batch_scores`: candidate cross-entropy (direct) or NLL (channel).
The learning rate warms up linearly to its peak over the first fraction
of steps, then decays linearly to zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import tensor as tz
from .fusion import FORMATS, FusionPlan, batch_scores, fused_logprobs, prompts


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
    fmt: str = "direct"
    l_max: int = 8
    grad_clip: float = 1.0  # global-norm ceiling; 0 disables

    def __post_init__(self):
        if not (0.0 <= self.warmup_frac < 1.0):
            raise ValueError("warmup_frac must lie in [0, 1)")
        if min(self.steps, self.train_k, self.batch_size, self.l_max) < 1:
            raise ValueError("steps, train_k, batch_size and l_max must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown prompt format {self.fmt!r}")
        if not 0 < self.lr < np.inf:  # nan fails every comparison
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.grad_clip < np.inf:
            raise ValueError(
                f"grad_clip must be finite and >= 0, got {self.grad_clip}")


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
# runs, one chunk (or one larger parameter) at a time through two float64
# scratch arrays: a whole-buffer gradient copy raised the desk-scale
# benchmark's peak RSS by 2.9 MB (4.5%), as each of its set-ups holds a
# model and optimizer. Every update op is elementwise, so any size gives the
# same bits. On the default model, one BLAS thread, `Adam.step` took
# 1.23 / 1.20 / 1.21 ms with train-desk's gradients and 1.40 / 1.32 /
# 1.35 ms with train-long's at 16384 / 32768 / 65536: 32768 was fastest.
# Their scratch is 256 KiB / 512 KiB / 1 MiB per optimizer, against
# train-desk's 54.5 MB peak RSS. 16384 stays: 32768 would save about
# 0.03 ms of a 7-9 ms desk step, well inside that benchmark's spread.
_ADAM_CHUNK = 16384
# Adam's moment decays and denominator term: Kingma & Ba's defaults.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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
    master chunk is cast back into the working buffer. Each `.grad` is set
    to None once gathered; a parameter whose `.grad` is None gets neither
    a moment decay nor an update. `BETA1`, `BETA2` and `EPS` are fixed;
    each `step` takes the learning rate."""

    def __init__(self, params):
        self.params = params
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
        self._scratch = tuple(np.empty(chunk) for _ in range(2))

    def step(self, lr):
        self.t += 1
        corr = (1 - BETA1 ** self.t, 1 - BETA2 ** self.t)
        g = self._scratch[1]
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
            p.grad = None
            n += size
        if n:
            self._update(a, n, lr, *corr)

    def _update(self, a, n, lr, corr1, corr2):
        """Adam on flat[a:a + n], whose gradient is in the second scratch
        array: the operations, in their order, of
        m = BETA1 m + (1 - BETA1) g,  v = BETA2 v + (1 - BETA2) g g,
        w -= lr (m / corr1) / (sqrt(v / corr2) + EPS),
        then the cast of the updated weights into the working buffer. The
        step term reuses the gradient's chunk after its last read; from
        t = 356 on corr1 is exactly 1.0, and m / corr1 is skipped."""
        m, v = self.m[a:a + n], self.v[a:a + n]
        s1, g = (s[:n] for s in self._scratch)
        m *= BETA1
        np.multiply(g, 1 - BETA1, out=s1)
        m += s1
        v *= BETA2
        np.multiply(g, 1 - BETA2, out=s1)
        s1 *= g
        v += s1
        np.divide(v, corr2, out=s1)
        np.sqrt(s1, out=s1)
        s1 += EPS
        mh = m if corr1 == 1.0 else np.divide(m, corr1, out=g)
        np.multiply(mh, lr, out=g)
        g /= s1
        w = self.flat[a:a + n]
        w -= g
        self._work[a:a + n] = w

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def make_optimizer(kind, params):
    """`Adam(params)` for `kind` "adam", the one optimizer; any other kind
    raises ValueError. The benchmark builds its optimizer through this."""
    if kind != "adam":
        raise ValueError(f"unknown optimizer {kind!r}")
    return Adam(params)


def batch_loss(model, episodes, cfg):
    """Mean loss over a batch, on one `batch_scores` call: in direct format
    the cross-entropy of the gold answer against the episode's C options
    (so an untrained model scores ~log C, not log(vocab)); in channel
    format, with the gold answer as the one candidate, the test input's
    negative log-probability. Raises `batch_scores`' ValueError, before
    any encoder pass, on a batch it rejects."""
    lp = batch_scores(model, episodes, [
        [ep.test.y] if cfg.fmt == "channel" else ep.test.options or ()
        for ep in episodes], cfg.train_k, cfg.l_max, cfg.fmt)
    if cfg.fmt == "direct":
        gold = np.array([ep.test.options.index(ep.test.y)
                         for ep in episodes], dtype=np.int64)
        lp = tz.gather_last(tz.log_softmax_last(lp), gold)
    return tz.scale(tz.tsum(lp), -1.0 / len(episodes))


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
    Returns the norm before scaling; max_norm 0 (clipping off) or a
    non-finite norm leaves the gradients as they are. Gradients may share
    arrays, so each one is rebound to a scaled copy rather than scaled in
    place, in its own dtype."""
    norm = grad_norm(params)
    if max_norm > 0 and np.isfinite(norm) and norm > max_norm:
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
    tz.keep_heap()
    optimizer.zero_grad()
    loss = batch_loss(model, episodes, cfg)
    value = loss.item()
    if not np.isfinite(value):
        raise NonFiniteLossError(f"loss became non-finite: {value}")
    tz.backward(loss)
    norm = clip_gradients(model.parameters(), cfg.grad_clip)
    if not np.isfinite(norm):
        raise NonFiniteGradientError(f"gradient norm became non-finite: {norm}")
    optimizer.step(lr)
    return value


def sample_batch(family, k, batch_size, rng):
    return [family.sample_episode(k, int(rng.integers(2 ** 63)))
            for _ in range(batch_size)]


def train(model, family, cfg, log_path=None, progress=None):
    """Full meta-training run with Adam. Deterministic in (cfg.seed, cfg)."""
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.parameters())
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


# Prompts per `batch_scores` call in `evaluate`'s single plan, where an
# episode takes `len(prompts(...))`: the grid is in CHANGES.md.
EVAL_CHUNK = 16


def evaluate(model, family, test_k, episodes=100, seeds=(0, 1, 2, 3, 4),
             l_max=8, fmt="direct", plan=FusionPlan()):
    """Accuracy of the fusion plan's prediction (single prompt by
    default; ties go to the first candidate) over k = test_k
    demonstrations, averaged over demonstration seeds. Episodes are
    sampled one chunk at a time, just before it is scored: the single
    plan scores `EVAL_CHUNK` prompts, of one layout, per `batch_scores`
    call, and the other plans one episode per chunk. No tape is
    recorded: every parameter's `requires_grad` is off until it returns
    or raises. Deterministic given (model, family, seeds, plan)."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    saved = [(p, p.requires_grad) for p in model.parameters().values()]
    for p, _ in saved:
        p.requires_grad = False
    accs = []
    try:
        for seed in seeds:
            stream = (family.sample_episode(test_k, seed * 1_000_003 + i)
                      for i in range(episodes))
            chunk, n = [next(stream)], 1
            if plan.scheme == "single":
                test = chunk[0].test
                n = max(1, EVAL_CHUNK // len(prompts(test, test.options, fmt)))
            chunk += islice(stream, n - 1)
            hits = 0
            while chunk:
                opts = [ep.test.options for ep in chunk]
                if plan.scheme == "single":
                    scores = batch_scores(model, chunk, opts, test_k, l_max,
                                          fmt).data
                else:
                    scores = [fused_logprobs(model, ep.demos, ep.test, o, plan,
                                             l_max, fmt)
                              for ep, o in zip(chunk, opts)]
                hits += sum(list(o[p]) == list(ep.test.y) for ep, o, p
                            in zip(chunk, opts, np.argmax(scores, axis=1)))
                chunk = list(islice(stream, n))
            accs.append(hits / episodes)
    finally:
        for p, flag in saved:
            p.requires_grad = flag
    return EvalResult(accs, float(np.mean(accs)), float(np.std(accs)))
