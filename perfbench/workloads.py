"""The benchmark's workloads, their inputs and their output checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns. Inputs are generated from the workload seed in
set-up; an op only consumes them. `smoke` shrinks every size so the
tests can run each workload end to end in about a second.
"""

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from iclattn import attention, fusion, tasks, training
from iclattn import tensor as tz
from iclattn.model import EncoderDecoder, ModelConfig
from iclattn.segments import SegmentLayout, build_full_mask

# Constant step size for the timed training loop: the number of steps a
# run makes depends on the host's speed, so no schedule can end on it.
LR = 1e-3
ORACLE_TOL = 1e-9
SMOKE_MODEL = ModelConfig(d_model=16, heads=2, enc_layers=1, dec_layers=1,
                          ffn=32)


@dataclass(frozen=True)
class TrainSpec:
    family: str
    family_args: tuple
    k: int
    batch: int
    l_max: int
    warmup: int
    pool: int


# None marks the eval-fusion workload; the reasons for each workload are
# recorded in spec.py.
WORKLOADS = {
    "train-desk": TrainSpec("lookup", (), k=8, batch=8, l_max=8, warmup=5,
                            pool=64),
    "train-long": TrainSpec("copy", (("seq_len", 8),), k=32, batch=2,
                            l_max=16, warmup=2, pool=32),
    "eval-fusion": None,
}

EVAL_K = 8
EVAL_L_MAX = 8
EVAL_GROUPS = 4
EVAL_POOL = 64
EVAL_WARMUP = 2
EVAL_CHECK_EPISODES = 3


def _shrink(spec):
    return TrainSpec(spec.family, spec.family_args, k=min(spec.k, 4),
                     batch=2, l_max=spec.l_max, warmup=1, pool=2)


def _prompt_tokens(demos, test, k, l_max):
    return sum(fusion.pack_prompt(demos, test, k=k, l_max=l_max).layout().valid)


def _finite(values):
    return bool(np.all(np.isfinite(values)))


def digest(episodes):
    """SHA-256 over a list of episodes, to compare generated inputs."""
    rows = [[[d.x, d.y, d.options] for d in ep.demos]
            + [[ep.test.x, ep.test.y, ep.test.options]] for ep in episodes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def kernel_oracle_gap(model, layout, seed):
    """Largest |structured kernel - dense structured oracle| on random
    q, k, v over `layout`, with the model's encoder bias table."""
    rng = np.random.default_rng(seed)
    cfg = model.config
    shape = (cfg.heads, layout.total_length, cfg.head_dim)
    q, k, v = (tz.Tensor(rng.standard_normal(shape)) for _ in range(3))
    table = model.enc_bias
    got = attention.structured_attention(
        q, k, v, layout, bias_block=table.bias_block(layout.segment_length))
    ref = attention.dense_structured_reference(q, k, v, layout, table)
    return float(np.max(np.abs(got.data - ref.data)))


class TrainRun:
    """Adam on `train_step` from freshly initialised weights; each op is
    one step on the next batch of the pool, cycled."""

    def __init__(self, spec, seed, model_config):
        family = tasks.make_family(spec.family, **dict(spec.family_args))
        self.cfg = training.TrainConfig(train_k=spec.k, batch_size=spec.batch,
                                        l_max=spec.l_max, seed=seed)
        rng = np.random.default_rng(seed)
        self.batches = [training.sample_batch(family, spec.k, spec.batch, rng)
                        for _ in range(spec.pool)]
        self.tokens = [sum(_prompt_tokens(ep.demos, ep.test, spec.k,
                                          spec.l_max) for ep in batch)
                       for batch in self.batches]
        self.model = EncoderDecoder(model_config, seed=seed)
        self.optimizer = training.make_optimizer("adam", self.model.parameters())
        self.seed = seed
        self.step = 0
        self.warmup_values = [self.op()[0] for _ in range(spec.warmup)]

    def inputs(self):
        return [ep for batch in self.batches for ep in batch]

    def op(self):
        """One train step. Returns (loss, prompt tokens consumed)."""
        i = self.step % len(self.batches)
        self.step += 1
        loss = training.train_step(self.model, self.optimizer,
                                   self.batches[i], LR, self.cfg)
        return loss, self.tokens[i]

    def check_value(self):
        """Loss of the last warm-up step: fixed step count from fixed
        weights and inputs, so it repeats exactly for a given seed."""
        return self.warmup_values[-1]

    def checks(self):
        ep = self.batches[0][0]
        layout = fusion.pack_prompt(ep.demos, ep.test, k=self.cfg.train_k,
                                    l_max=self.cfg.l_max).layout()
        gap = kernel_oracle_gap(self.model, layout, self.seed)
        return [
            ("warmup_losses_finite", _finite(self.warmup_values),
             self.warmup_values),
            ("kernel_matches_oracle", gap <= ORACLE_TOL,
             {"max_abs_diff": gap, "layout_valid": list(layout.valid)}),
        ]


class EvalRun:
    """Seed-0 weights; each op scores one episode under all four fusion
    schemes. Timing does not depend on weight values."""

    def __init__(self, seed, model_config, pool=EVAL_POOL, warmup=EVAL_WARMUP):
        family = tasks.make_family("lookup")
        rng = np.random.default_rng(seed)
        self.episodes = [family.sample_episode(EVAL_K, int(s))
                         for s in rng.integers(2 ** 63, size=pool)]
        self.tokens = [_prompt_tokens(ep.demos, ep.test, EVAL_K, EVAL_L_MAX)
                       for ep in self.episodes]
        self.model = EncoderDecoder(model_config, seed=0)
        self.plans = [fusion.FusionPlan("single"), fusion.FusionPlan("fid"),
                      fusion.FusionPlan("group_fid", EVAL_GROUPS),
                      fusion.FusionPlan("ensemble", EVAL_GROUPS)]
        self.perm = [int(p) for p in rng.permutation(EVAL_K)]
        self.step = 0
        self.warmup_values = [self.op()[0] for _ in range(warmup)]

    def inputs(self):
        return self.episodes

    def _scores(self, ep, plan, demos=None):
        return fusion.fused_logprobs(
            self.model, ep.demos if demos is None else demos, ep.test,
            ep.test.options, plan, l_max=EVAL_L_MAX)

    def op(self):
        """One episode under every scheme. Returns (scores, tokens)."""
        i = self.step % len(self.episodes)
        self.step += 1
        ep = self.episodes[i]
        scores = np.concatenate([self._scores(ep, plan) for plan in self.plans])
        return scores, self.tokens[i]

    def check_value(self):
        return float(np.sum(self.warmup_values[-1]))

    def checks(self):
        worst = {"group_fid_G=k_vs_fid": 0.0, "ensemble_G=1_vs_single": 0.0,
                 "single_permuted_vs_single": 0.0}
        finite = True
        for ep in self.episodes[:EVAL_CHECK_EPISODES]:
            single = self._scores(ep, self.plans[0])
            pairs = {
                "group_fid_G=k_vs_fid": (
                    self._scores(ep, fusion.FusionPlan("group_fid", EVAL_K)),
                    self._scores(ep, self.plans[1])),
                "ensemble_G=1_vs_single": (
                    self._scores(ep, fusion.FusionPlan("ensemble", 1)), single),
                "single_permuted_vs_single": (
                    self._scores(ep, self.plans[0],
                                 demos=[ep.demos[p] for p in self.perm]),
                    single),
            }
            for key, (a, b) in pairs.items():
                finite = finite and _finite(a) and _finite(b)
                worst[key] = max(worst[key], float(np.max(np.abs(a - b))))
        return [(key, gap <= ORACLE_TOL, {"max_abs_diff": gap})
                for key, gap in worst.items()] + [
            ("check_scores_finite", finite, None),
            ("warmup_scores_finite", _finite(self.warmup_values), None)]


def start(name, seed, smoke=False):
    """Set up a workload from its seed: weights, inputs and warm-up ops."""
    spec = WORKLOADS[name]
    config = SMOKE_MODEL if smoke else ModelConfig()
    if spec is None:
        return EvalRun(seed, config, pool=4 if smoke else EVAL_POOL,
                       warmup=1 if smoke else EVAL_WARMUP)
    return TrainRun(_shrink(spec) if smoke else spec, seed, config)


# ---------------------------------------------------------------------
# Kernel cells: one attention call at L=64, H=4, d=16, forward and the
# tape's backward timed separately, as in the ROADMAP baseline table.
# ---------------------------------------------------------------------

KERNEL_KS = (8, 32)
KERNEL_HEADS = 4
KERNEL_HEAD_DIM = 16
KERNEL_MEM_BUDGET = 1.0e9   # the same byte budget as `iclattn bench`


def _dense_bytes(k, L, heads):
    # score matrix + probability matrix, float64
    return 2 * heads * attention.score_storage(k, L)["full"] * 8


def kernel_cells(seed, smoke=False):
    """{metric name: median ms}, plus the names of cells skipped as over
    the memory budget (reported as 0)."""
    L = 8 if smoke else 64
    rng = np.random.default_rng(seed)
    cells, oom = {}, []
    for variant in ("structured", "full"):
        for k in KERNEL_KS:
            names = [f"attention.{variant}.{phase}_ms.k{k}"
                     for phase in ("fwd", "bwd")]
            if (variant == "full"
                    and _dense_bytes(k, L, KERNEL_HEADS) > KERNEL_MEM_BUDGET):
                cells.update(dict.fromkeys(names, 0.0))
                oom.extend(names)
                continue
            reps = 3 if variant == "full" and k == max(KERNEL_KS) else 7
            fwd, bwd = _time_kernel(variant, k, L, reps, rng)
            cells[names[0]], cells[names[1]] = fwd, bwd
    return cells, oom


def _time_kernel(variant, k, L, reps, rng):
    layout = SegmentLayout(k, L, (L,) * (k + 1))
    shape = (KERNEL_HEADS, layout.total_length, KERNEL_HEAD_DIM)
    mask = build_full_mask(layout) if variant == "full" else None
    qkv = [tz.Tensor(rng.standard_normal(shape), requires_grad=True)
           for _ in range(3)]
    weight = tz.constant(rng.standard_normal(shape))
    fwd, bwd = [], []
    for rep in range(reps + 1):     # the first repetition is warm-up
        for t in qkv:
            t.grad = None
        t0 = time.perf_counter()
        if variant == "full":
            out = attention.full_attention(*qkv, mask)
        else:
            out = attention.structured_attention(*qkv, layout)
        t1 = time.perf_counter()
        loss = tz.tsum(tz.mul(out, weight))
        t2 = time.perf_counter()
        tz.backward(loss)
        t3 = time.perf_counter()
        if rep:
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
    return float(np.median(fwd)) * 1e3, float(np.median(bwd)) * 1e3
