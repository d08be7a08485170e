"""Acceptance gates for the structured-attention package.

Eight criteria, one test each, every one printing a single pass/fail
line to the terminal (bypassing capture). The training-based criteria
share one session-scoped pair of trained models.
"""

import math
import time

import numpy as np
import pytest

from iclattn.attention import score_storage
from iclattn.bench import BenchSpec, loglog_slope, run_bench
from iclattn.fusion import (FusionPlan, fid_encode, fused_logprobs,
                            fused_predict, group_fid_encode)
from iclattn.model import EncoderDecoder, ModelConfig
from iclattn.tasks import TaskExample, make_family
from iclattn.training import TrainConfig, batch_loss, evaluate, sample_batch, train
from iclattn import tensor as tz
from iclattn import verify


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def trained_models():
    """Both attention variants meta-trained on the lookup family with the
    desk-default budget, plus their evaluation results."""
    family = make_family("lookup")
    out = {}
    t0 = time.monotonic()
    for variant in ("structured", "full"):
        model = EncoderDecoder(ModelConfig(variant=variant), seed=0)
        train(model, family, TrainConfig(steps=3000, seed=0))
        evals = {tk: evaluate(model, family, tk, episodes=100)
                 for tk in (2, 4, 8)}
        out[variant] = (model, evals)
    out["runtime"] = time.monotonic() - t0
    return out


def test_criterion_1_oracle_equivalence(capsys):
    t0 = time.monotonic()
    ok, worst = verify.oracle_equivalence(instances=100)
    elapsed = time.monotonic() - t0
    report(capsys, "1 oracle equivalence", ok and elapsed < 30,
           f"max err {worst:.2e} over 100 instances, {elapsed:.1f}s")


def test_criterion_2_permutation_invariance(capsys):
    t0 = time.monotonic()
    ok, worst = verify.permutation_invariance(instances=50)

    # end-to-end: permuting a prompt's demonstrations must not move the
    # argmax prediction (at k=5 every lookup demonstration is admitted)
    family = make_family("lookup")
    model = EncoderDecoder(ModelConfig(variant="structured"), seed=3)
    rng = np.random.default_rng(4)
    same = True
    for i in range(50):
        ep = family.sample_episode(5, 1000 + i)
        perm = tuple(rng.permutation(len(ep.demos)))
        a = fused_predict(model, ep.demos, ep.test, ep.test.options,
                          FusionPlan(), l_max=8)
        b = fused_predict(model, [ep.demos[p] for p in perm], ep.test,
                          ep.test.options, FusionPlan(), l_max=8)
        same = same and a == b
    elapsed = time.monotonic() - t0
    report(capsys, "2 permutation invariance", ok and same and elapsed < 30,
           f"max attn err {worst:.2e}, predict identical={same}, {elapsed:.1f}s")


def test_criterion_3_mask_counts(capsys):
    ok, detail = verify.mask_counts(max_k=6, max_l=5)
    report(capsys, "3 mask accounting", ok,
           "((k+1)L)^2 and (3k+1)L^2 vs brute force, k<=6 L<=5"
           if ok else f"mismatch at {detail}")


def test_criterion_4_scaling_benchmark(capsys):
    t0 = time.monotonic()
    spec = BenchSpec(k_grid=(2, 4, 8, 16, 32, 64, 128), lengths=(64,),
                     repetitions=5, warmup=2)
    records = run_bench(spec)
    s_slope = loglog_slope(records, "structured", 64)
    f_slope = loglog_slope(records, "full", 64)
    by = {(r.variant, r.k): r for r in records}
    mutual = max(k for k in spec.k_grid
                 if not by[("full", k)].oom and not by[("structured", k)].oom)
    speedup = by[("full", mutual)].median_ms / by[("structured", mutual)].median_ms
    elapsed = time.monotonic() - t0
    ok = (0.8 <= s_slope <= 1.3 and f_slope >= 1.6 and speedup >= 2.0
          and elapsed < 600)
    report(capsys, "4 scaling benchmark", ok,
           f"slopes structured {s_slope:.2f} / full {f_slope:.2f}, "
           f"speedup {speedup:.1f}x at k={mutual}, {elapsed:.0f}s")


def test_criterion_5_gradient_checks(capsys):
    t0 = time.monotonic()
    ok_attn, worst_attn = verify.attention_gradients()

    # end-to-end loss on a 2-layer model, spot-checked parameter entries
    cfg = ModelConfig(vocab=48, d_model=8, heads=2, enc_layers=2,
                      dec_layers=2, ffn=16, variant="structured")
    model = EncoderDecoder(cfg, seed=0)
    family = make_family("lookup")
    tcfg = TrainConfig(train_k=2, batch_size=2)
    eps = sample_batch(family, 2, 2, np.random.default_rng(5))
    loss = batch_loss(model, eps, tcfg)
    tz.backward(loss)
    rng = np.random.default_rng(6)
    worst_loss = 0.0
    for name in ("embed", "out", "enc.0.attn.wq", "enc.1.ffn.w1",
                 "dec.0.cross.wk", "dec.1.self.wv", "enc_bias", "dec_bias"):
        p = model.parameters()[name]
        flat = p.data.reshape(-1)
        for _ in range(3):
            i = int(rng.integers(flat.size))
            h, old = 1e-5, flat[i]
            flat[i] = old + h
            hi = batch_loss(model, eps, tcfg).item()
            flat[i] = old - h
            lo = batch_loss(model, eps, tcfg).item()
            flat[i] = old
            num = (hi - lo) / (2 * h)
            ana = p.grad.reshape(-1)[i]
            worst_loss = max(worst_loss,
                             abs(num - ana) / max(abs(num), abs(ana), 1e-6))
    elapsed = time.monotonic() - t0
    ok = ok_attn and worst_loss <= 1e-4 and elapsed < 120
    report(capsys, "5 gradient correctness", ok,
           f"attn rel err {worst_attn:.2e}, loss rel err {worst_loss:.2e}, "
           f"{elapsed:.0f}s")


def test_criterion_6_learning_at_desk_scale(capsys, trained_models):
    s_acc = trained_models["structured"][1][8].mean
    f_acc = trained_models["full"][1][8].mean
    runtime = trained_models["runtime"]
    ok = s_acc >= 0.90 and (s_acc - f_acc) <= 0.05 and runtime < 900
    report(capsys, "6 learning at desk scale", ok,
           f"structured {s_acc:.3f} / full {f_acc:.3f} at k=8 "
           f"(chance 0.25), {runtime:.0f}s for both runs")


def test_criterion_7_fusion_degeneracies(capsys):
    model = EncoderDecoder(
        ModelConfig(vocab=48, d_model=16, heads=2, enc_layers=1,
                    dec_layers=1, ffn=32, variant="structured"), seed=0)
    demos = [TaskExample([2 + i, 3 + i], [10 + i]) for i in range(4)]
    test = TaskExample([40], [41])
    cands = [(41,), (42,), (43,)]

    def scores(plan, ds=demos):
        return fused_logprobs(model, ds, test, cands, plan, l_max=8)

    d1 = np.abs(scores(FusionPlan("ensemble", 1))
                - scores(FusionPlan("single", 1))).max()
    gf = group_fid_encode(model, demos, test, groups=4, l_max=8)
    fid = fid_encode(model, demos, test, l_max=8)
    d2 = np.abs(gf.states.data - fid.states.data).max()
    d3 = np.abs(scores(FusionPlan("fid", 1), ds=demos[:1])
                - scores(FusionPlan("single", 1), ds=demos[:1])).max()
    ok = d1 <= 1e-12 and d2 <= 1e-12 and d3 <= 1e-12
    report(capsys, "7 fusion degeneracies", ok,
           f"ensemble/single {d1:.1e}, groupfid/fid {d2:.1e}, "
           f"fid/single {d3:.1e}")


def test_criterion_8_more_demonstrations_trend(capsys, trained_models):
    evals = trained_models["structured"][1]
    accs = {tk: evals[tk].mean for tk in (2, 4, 8)}
    n = 5 * 100
    ok = True
    for lo, hi in ((2, 4), (4, 8)):
        p = accs[lo]
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        ok = ok and accs[hi] >= accs[lo] - se
    report(capsys, "8 more-demonstrations trend", ok,
           "acc " + " <= ".join(f"{accs[tk]:.3f}@k{tk}" for tk in (2, 4, 8))
           + " within 1 SE")
