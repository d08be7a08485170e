import math
import platform

import numpy as np
import pytest

from iclattn import tensor as tz
from iclattn import training
from iclattn.fusion import (FORMATS, FusionPlan, PackingError, batch_scores,
                            fused_logprobs, pack_prompt)
from iclattn.model import DENSE_MAX_T, EncoderDecoder, ModelConfig
from iclattn.tasks import (ARITY, FAMILIES, CopyOffsetFamily, LookupFamily,
                           make_family)
from iclattn.training import (BETA1, BETA2, EPS, EVAL_CHUNK, Adam,
                              NonFiniteGradientError, NonFiniteLossError,
                              TrainConfig, batch_loss, clip_gradients,
                              evaluate, grad_norm, lr_schedule, make_optimizer,
                              sample_batch, train, train_step)


def tiny_model(seed=0, variant="structured"):
    cfg = ModelConfig(vocab=48, d_model=8, heads=2, enc_layers=2,
                      dec_layers=1, ffn=16, variant=variant)
    return EncoderDecoder(cfg, seed=seed)


def tiny_cfg(**kw):
    kw.setdefault("train_k", 3)
    kw.setdefault("steps", 10)
    kw.setdefault("batch_size", 4)
    return TrainConfig(**kw)


class TestConfig:
    def test_warmup_fraction_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(warmup_frac=1.0)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)

    def test_unknown_optimizer(self):
        with pytest.raises(TypeError):      # Adam is no config choice
            TrainConfig(optimizer="adam")
        with pytest.raises(ValueError, match="sgd"):
            make_optimizer("sgd", tiny_model().parameters())


class TestSchedule:
    def test_endpoints(self):
        cfg = TrainConfig(steps=1000, lr=1e-2, warmup_frac=0.1)
        assert lr_schedule(0, cfg) == 0.0
        assert lr_schedule(100, cfg) == pytest.approx(1e-2)   # 10% of steps
        assert lr_schedule(1000, cfg) == 0.0

    def test_piecewise_linear(self):
        cfg = TrainConfig(steps=1000, lr=1e-2, warmup_frac=0.1)
        assert lr_schedule(50, cfg) == pytest.approx(5e-3)
        assert lr_schedule(550, cfg) == pytest.approx(5e-3)

    def test_step_out_of_range(self):
        cfg = TrainConfig(steps=100)
        with pytest.raises(ValueError):
            lr_schedule(101, cfg)


def assert_grads_match(params, ref_grads):
    """Every gradient within 1e-9 of the reference's, and None on exactly
    the parameters where the reference's is None."""
    for n, p in params.items():
        assert (p.grad is None) == (ref_grads[n] is None), n
        if p.grad is not None:
            np.testing.assert_allclose(p.grad, ref_grads[n], rtol=0,
                                       atol=1e-9, err_msg=n)


def record_step_gradients(opt):
    """Wrap `opt.step` so that each call first appends name -> the
    gradient that parameter holds (or None); the list is returned."""
    seen, real_step = [], opt.step

    def step(lr):
        seen.append({n: p.grad for n, p in opt.params.items()})
        real_step(lr)
    opt.step = step
    return seen


class TestBatchLoss:
    def test_untrained_loss_near_log_arity(self):
        """Balanced ARITY labels with 1-token answers: an untrained
        model scores each candidate almost equally, so the candidate
        cross-entropy sits at ~log ARITY."""
        fam = LookupFamily()
        model = EncoderDecoder(ModelConfig(variant="structured"), seed=0)
        rng = np.random.default_rng(0)
        eps = sample_batch(fam, 4, 64, rng)
        loss = batch_loss(model, eps, tiny_cfg(train_k=4)).item()
        assert loss == pytest.approx(math.log(ARITY), abs=0.1)

    def test_fast_and_slow_paths_agree(self):
        fam = LookupFamily()
        model = tiny_model()
        rng = np.random.default_rng(1)
        eps = sample_batch(fam, 3, 4, rng)
        cfg = tiny_cfg()
        fast = batch_loss(model, eps, cfg).item()
        slow = sum(batch_loss(model, [ep], cfg).item() for ep in eps)
        assert fast == pytest.approx(slow / len(eps), abs=1e-9)

    @pytest.mark.parametrize("family", [LookupFamily(), CopyOffsetFamily()],
                             ids=["lookup", "copy"])
    def test_batched_path_matches_per_candidate_loop(self, family):
        """The batched fast path against a per-episode reference: one
        encoder pass and one decoder pass per candidate. A one-episode
        batch also takes the fast path, so comparing against single-episode
        `batch_loss` calls would not exercise this. The copy family has C=4
        candidates of three tokens each."""
        model = tiny_model()
        cfg = tiny_cfg()
        eps = sample_batch(family, cfg.train_k, cfg.batch_size,
                           np.random.default_rng(4))
        params = model.parameters()

        total = None
        for ep in eps:
            pack = pack_prompt(ep.demos, ep.test, k=cfg.train_k,
                               l_max=cfg.l_max)
            enc = model.encode(pack)
            cand = [model.sequence_logprob(*enc, list(c))
                    for c in ep.test.options]
            scores = tz.reshape(tz.concat(cand, axis=0), (1, len(cand)))
            gold = np.array([ep.test.options.index(tuple(ep.test.y))])
            nll = tz.scale(tz.gather_last(tz.log_softmax_last(scores), gold),
                           -1.0)
            total = nll if total is None else tz.add(total, nll)
        ref = tz.scale(total, 1.0 / len(eps))
        tz.backward(ref)
        ref_grads = {n: p.grad for n, p in params.items()}

        for p in params.values():
            p.grad = None
        batched = batch_loss(model, eps, cfg)
        tz.backward(batched)
        assert batched.item() == pytest.approx(ref.item(), abs=1e-9)
        assert_grads_match(params, ref_grads)

    @pytest.mark.parametrize("family", [LookupFamily(), CopyOffsetFamily()],
                             ids=["lookup", "copy"])
    @pytest.mark.parametrize("variant", ["structured", "full"])
    def test_channel_matches_per_episode_reference(self, variant, family):
        """The channel loss, from one encoder and one decoder pass, against
        the mean over episodes of -log p(x_test | prompt ending in y_test),
        each from its own encoder and decoder pass: loss and gradients."""
        model = tiny_model(variant=variant)
        cfg = tiny_cfg(fmt="channel")
        eps = sample_batch(family, cfg.train_k, cfg.batch_size,
                           np.random.default_rng(5))
        params = model.parameters()

        total = None
        for ep in eps:
            pack = pack_prompt(ep.demos, ep.test, k=cfg.train_k,
                               l_max=cfg.l_max, fmt="channel")
            nll = tz.scale(model.sequence_logprob(*model.encode(pack),
                                                   ep.test.x), -1.0)
            total = nll if total is None else tz.add(total, nll)
        ref = tz.scale(total, 1.0 / len(eps))
        tz.backward(ref)
        ref_grads = {n: p.grad for n, p in params.items()}

        for p in params.values():
            p.grad = None
        batched = batch_loss(model, eps, cfg)
        tz.backward(batched)
        assert batched.item() == pytest.approx(ref.item(), abs=1e-9)
        assert_grads_match(params, ref_grads)

    @pytest.mark.parametrize("case, match", [
        ("layouts", "identical layouts"),
        ("no_options", "same number of continuations"),
        ("no_options_at_all", "same number of continuations"),
        ("option_count", "same number of continuations"),
        ("option_length", "same number of continuations"),
    ], ids=["layouts", "no_options", "no_options_at_all", "option_count",
            "option_length"])
    def test_ragged_batch_raises_before_encoding(self, case, match,
                                                 monkeypatch):
        """Batches that one encoder pass and one decoder pass cannot
        take raise ValueError, and no encoder pass runs."""
        from iclattn.tasks import Episode, TaskExample
        model = tiny_model()
        passes = []
        monkeypatch.setattr(model, "_encoder",
                            lambda *a: passes.append(a))
        opts = [[[7], [8]], [[7], [8]]]
        demo_x = [[2], [3]]
        test_y = [[7], [7]]
        if case == "layouts":
            demo_x[1] = [3, 4]
        elif case == "no_options":
            opts[1] = None
        elif case == "no_options_at_all":
            opts = [None, None]
        elif case == "option_count":
            opts[1] = [[7], [8], [9]]
        else:
            opts[1], test_y[1] = [[7, 7], [8, 8]], [7, 7]
        eps = [Episode([TaskExample(x, [5])], TaskExample([6], y, options=o))
               for x, y, o in zip(demo_x, test_y, opts)]
        with pytest.raises(ValueError, match=match):
            batch_loss(model, eps, tiny_cfg(train_k=1, batch_size=2))
        assert passes == []

    def test_finite_difference_gradient(self):
        fam = LookupFamily()
        model = tiny_model()
        rng = np.random.default_rng(2)
        eps = sample_batch(fam, 2, 2, rng)
        cfg = tiny_cfg(train_k=2, batch_size=2)
        loss = batch_loss(model, eps, cfg)
        tz.backward(loss)
        check = np.random.default_rng(3)
        worst = 0.0
        for name in ("embed", "enc.0.attn.wq", "dec.0.cross.wv",
                     "enc_bias", "dec.0.ffn.w1"):
            p = model.parameters()[name]
            flat = p.data.reshape(-1)
            for _ in range(4):
                i = int(check.integers(flat.size))
                h = 1e-5
                old = flat[i]
                flat[i] = old + h
                up = batch_loss(model, eps, cfg).item()
                flat[i] = old - h
                dn = batch_loss(model, eps, cfg).item()
                flat[i] = old
                num = (up - dn) / (2 * h)
                ana = p.grad.reshape(-1)[i]
                rel = abs(num - ana) / max(abs(num), abs(ana), 1e-6)
                worst = max(worst, rel)
        assert worst <= 1e-4


class TestTrainStep:
    def test_descent_majority(self):
        """Small-lr update should not increase the loss on the same batch
        in most trials."""
        fam = LookupFamily()
        wins = 0
        for trial in range(50):
            model = tiny_model(seed=trial)
            cfg = tiny_cfg(batch_size=2, train_k=2)
            opt = make_optimizer("adam", model.parameters())
            rng = np.random.default_rng(trial)
            eps = sample_batch(fam, 2, 2, rng)
            before = train_step(model, opt, eps, lr=1e-4, cfg=cfg)
            after = batch_loss(model, eps, cfg).item()
            wins += int(after <= before)
        assert wins > 25

    def test_returns_pre_update_loss(self):
        fam = LookupFamily()
        model = tiny_model()
        cfg = tiny_cfg(batch_size=2, train_k=2)
        opt = make_optimizer("adam", model.parameters())
        eps = sample_batch(fam, 2, 2, np.random.default_rng(0))
        before = batch_loss(model, eps, cfg).item()
        assert train_step(model, opt, eps, lr=1e-3, cfg=cfg) == pytest.approx(before)

    def test_one_token_answers_train_only_self_attention_values(self):
        """Lookup's one-token answers give each decoder self-attention row
        one key, so that sublayer runs on `wv` and `wo` alone: `wq`, `wk`
        and `dec_bias` reach Adam with no gradient and keep their weights.
        Copy's three-token answers give all of them gradients."""
        model = EncoderDecoder(ModelConfig(vocab=48, d_model=8, heads=2,
                                           enc_layers=1, dec_layers=2, ffn=16))
        params = model.parameters()
        idle = ["dec_bias"] + [f"dec.{i}.self.{w}" for i in (0, 1)
                               for w in ("wq", "wk")]
        used = [f"dec.{i}.self.{w}" for i in (0, 1) for w in ("wv", "wo")]
        cfg = tiny_cfg(batch_size=2, train_k=2)
        opt = Adam(params)
        seen = record_step_gradients(opt)
        before = {n: params[n].data.copy() for n in idle}
        rng = np.random.default_rng(0)
        train_step(model, opt, sample_batch(LookupFamily(), 2, 2, rng),
                   lr=1e-3, cfg=cfg)
        for n in idle:
            assert seen[-1][n] is None, n
            np.testing.assert_array_equal(params[n].data, before[n], err_msg=n)
        for n in used:
            assert seen[-1][n] is not None and seen[-1][n].any(), n
        train_step(model, opt, sample_batch(CopyOffsetFamily(), 2, 2, rng),
                   lr=1e-3, cfg=cfg)
        for n in idle + used:
            assert seen[-1][n] is not None and seen[-1][n].any(), n

    @pytest.mark.parametrize("family", ["lookup", "copy"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_leaves_no_gradient(self, family, fmt):
        """Adam drops each gradient once it has gathered it: after
        `train_step` no parameter holds one, although every parameter
        that Adam updated held one when it was entered."""
        model = tiny_model()
        params = model.parameters()
        opt = Adam(params)
        seen = record_step_gradients(opt)
        cfg = tiny_cfg(batch_size=2, train_k=2, fmt=fmt)
        train_step(model, opt, sample_batch(
            make_family(family), 2, 2, np.random.default_rng(0)), 1e-3, cfg)
        assert sum(g is not None for g in seen[-1].values()) > len(params) / 2
        assert all(p.grad is None for p in params.values())

    def test_a_warm_step_adds_no_traced_memory(self):
        """At `train-desk`'s shape (default model, lookup, B=8, k=8), a
        step after warm-up frees what it allocates: no gradient is left
        on a parameter (about 0.63 MB when Adam kept them)."""
        import tracemalloc

        model = EncoderDecoder(ModelConfig(), seed=0)
        opt = Adam(model.parameters())
        cfg = TrainConfig(train_k=8, batch_size=8)
        rng = np.random.default_rng(0)
        batches = [sample_batch(LookupFamily(), 8, 8, rng) for _ in range(3)]
        for batch in batches[:2]:
            train_step(model, opt, batch, 1e-3, cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_step(model, opt, batches[2], 1e-3, cfg)
            added = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert added < 0.05e6, f"{added} bytes still traced after one step"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("grad_clip", [1.0, 0.0])
    def test_non_finite_gradient_raises_before_update(self, monkeypatch,
                                                      grad_clip, bad):
        model = tiny_model()
        cfg = tiny_cfg(batch_size=2, train_k=2, grad_clip=grad_clip)
        opt = make_optimizer("adam", model.parameters())
        eps = sample_batch(LookupFamily(), 2, 2, np.random.default_rng(0))
        real_backward = tz.backward

        def poisoned_backward(loss):
            real_backward(loss)
            p = model.parameters()["dec.0.ffn.w1"]
            p.grad = p.grad.copy()
            p.grad.flat[0] = bad
        monkeypatch.setattr(tz, "backward", poisoned_backward)

        before = model.weight_fingerprint()
        with pytest.raises(NonFiniteGradientError):
            train_step(model, opt, eps, lr=1e-3, cfg=cfg)
        assert model.weight_fingerprint() == before
        assert opt.t == 0

    def test_clip_off_returns_norm_and_leaves_gradients(self):
        """`clip_gradients` with max_norm 0 is clipping off: it returns
        the global norm and rebinds no gradient."""
        model = tiny_model()
        cfg = tiny_cfg(batch_size=2, train_k=2)
        eps = sample_batch(LookupFamily(), 2, 2, np.random.default_rng(0))
        tz.backward(batch_loss(model, eps, cfg))
        params = model.parameters()
        grads = {n: p.grad for n, p in params.items()}
        norm = grad_norm(params)
        assert norm > 0  # any ceiling in (0, norm) would rescale
        assert clip_gradients(params, 0.0) == norm
        assert all(params[n].grad is g for n, g in grads.items())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_raises_before_update(self, monkeypatch, bad):
        model = tiny_model()
        cfg = tiny_cfg(batch_size=2, train_k=2)
        opt = Adam(model.parameters())
        eps = sample_batch(LookupFamily(), 2, 2, np.random.default_rng(0))
        real_loss = training.batch_loss
        monkeypatch.setattr(training, "batch_loss", lambda *args: tz.mul(
            real_loss(*args), tz.constant(np.array(bad))))

        flat = opt.flat.copy()
        with pytest.raises(NonFiniteLossError, match="non-finite"):
            train_step(model, opt, eps, lr=1e-3, cfg=cfg)
        np.testing.assert_array_equal(opt.flat, flat)
        assert opt.t == 0


def master_views(opt):
    """Name -> float64 master weights of that parameter within `opt.flat`,
    which Adam packs in the parameters' order."""
    views, start = {}, 0
    for n, p in opt.params.items():
        views[n] = opt.flat[start:start + p.data.size].reshape(p.data.shape)
        start += p.data.size
    return views


def assert_working_copy(opt):
    """Each parameter's `.data` is its master weights cast to float32."""
    for n, master in master_views(opt).items():
        data = opt.params[n].data
        assert data.dtype == np.float32, n
        np.testing.assert_array_equal(data, master.astype(np.float32),
                                      err_msg=n)


class TestOptimizers:
    def test_adam_minimizes_quadratic(self):
        p = tz.Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam({"p": p})
        for _ in range(300):
            opt.zero_grad()
            p.grad = 2 * p.data   # d/dp of sum(p^2)
            opt.step(lr=0.1)
        assert np.abs(p.data).max() < 1e-3

    def test_adam_in_place_moments_match_reference_formula(self):
        """Bit for bit the reference formula, at t = 1-5 and across t = 356,
        where 1 - BETA1 ** t first rounds to 1.0. Adam writes no gradient
        array and drops each one."""
        rng = np.random.default_rng(12)
        params = {"w": tz.Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                  "b": tz.Tensor(rng.standard_normal(4), requires_grad=True)}
        ref = {n: p.data.copy() for n, p in params.items()}
        opt = Adam(params)
        master = master_views(opt)
        b1, b2, eps, lr = BETA1, BETA2, EPS, 1e-2
        assert 1 - b1 ** 355 < 1.0 == 1 - b1 ** 356
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        for t in [*range(1, 6), *range(353, 359)]:
            opt.t = t - 1
            grads = {n: rng.standard_normal(p.data.shape)
                     for n, p in params.items()}
            kept = {n: g.copy() for n, g in grads.items()}
            for n, p in params.items():
                grads[n].flags.writeable = False
                p.grad = grads[n]
            opt.step(lr)
            assert opt.t == t
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                mh = m[n] / (1 - b1 ** t)
                vh = v[n] / (1 - b2 ** t)
                ref[n] -= lr * mh / (np.sqrt(vh) + eps)
            for n, p in params.items():
                np.testing.assert_array_equal(master[n], ref[n])
                np.testing.assert_array_equal(grads[n], kept[n])
                assert p.grad is None, n
            assert_working_copy(opt)

    def test_adam_packs_parameters_into_one_buffer(self):
        model = tiny_model()
        params = model.parameters()
        before = {n: p.data.copy() for n, p in params.items()}
        opt = Adam(params)
        assert opt.flat.ndim == 1 and opt.flat.flags.c_contiguous
        assert opt.flat.dtype == np.float64
        assert opt.flat.size == sum(a.size for a in before.values())
        master = master_views(opt)
        for n, p in params.items():
            assert master[n].base is opt.flat, n
            np.testing.assert_array_equal(master[n], before[n])
        assert_working_copy(opt)
        # every working view shares one buffer
        assert len({id(p.data.base) for p in params.values()}) == 1

    def test_adam_leaves_parameter_without_gradient_untouched(self):
        """A parameter with no gradient keeps its weights and its moments;
        the others follow the reference formula, "d" (30000 entries, more
        than an update chunk) as one run of its own."""
        rng = np.random.default_rng(14)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 3), "d": (3, 10000)}
        params = {n: tz.Tensor(rng.standard_normal(s), requires_grad=True)
                  for n, s in shapes.items()}
        ref = {n: params[n].data.copy() for n in ("a", "c", "d")}
        frozen = params["b"].data.copy()
        opt = Adam(params)
        master = master_views(opt)
        b1, b2, eps, lr = BETA1, BETA2, EPS, 1e-2
        m = {n: np.zeros(shapes[n]) for n in ref}
        v = {n: np.zeros(shapes[n]) for n in ref}
        for t in range(1, 4):
            for n in ref:
                g = params[n].grad = rng.standard_normal(shapes[n])
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                ref[n] -= lr * (m[n] / (1 - b1 ** t)) / (
                    np.sqrt(v[n] / (1 - b2 ** t)) + eps)
            params["b"].grad = None
            opt.step(lr)
        np.testing.assert_array_equal(master["b"], frozen)
        # "b" follows the 12 entries of "a" in the flat buffer
        assert not opt.m[12:17].any() and not opt.v[12:17].any()
        for n in ref:
            np.testing.assert_array_equal(master[n], ref[n], err_msg=n)
        assert_working_copy(opt)


class TestMixedPrecision:
    @pytest.mark.parametrize("fmt", ["direct", "channel"],
                             ids=["folded", "channel"])
    @pytest.mark.parametrize("variant", ["structured", "full"])
    def test_adam_step_tape_is_float32(self, monkeypatch, variant, fmt):
        """Every node the tape records during an Adam step, and every
        gradient the backward hands on, is float32: an op that upcasts to
        float64 shows here. The channel format scores one continuation
        per episode, and the small clip norm makes the clip rescale every
        gradient."""
        model = tiny_model(variant=variant)
        cfg = tiny_cfg(batch_size=2, train_k=2, fmt=fmt, grad_clip=1e-3)
        opt = make_optimizer("adam", model.parameters())
        eps = sample_batch(LookupFamily(), 2, 2, np.random.default_rng(0))
        nodes, grads = [], []
        real_result, real_accumulate = tz._result, tz._accumulate

        def recording_result(data, parents, backward_fn):
            nodes.append(data.dtype)
            return real_result(data, parents, backward_fn)

        def recording_accumulate(t, g):
            grads.append(g.dtype)
            real_accumulate(t, g)
        monkeypatch.setattr(tz, "_result", recording_result)
        monkeypatch.setattr(tz, "_accumulate", recording_accumulate)
        seen = record_step_gradients(opt)
        train_step(model, opt, eps, lr=1e-3, cfg=cfg)
        assert nodes and set(nodes) == {np.dtype(np.float32)}
        assert grads and set(grads) == {np.dtype(np.float32)}
        held = [g for g in seen[-1].values() if g is not None]
        assert held and all(g.dtype == np.float32 for g in held)


class TestTrainLoop:
    def test_deterministic(self):
        fam = LookupFamily()
        hists = []
        for _ in range(2):
            model = tiny_model(seed=1)
            hists.append(train(model, fam, tiny_cfg(steps=5, seed=9)))
        assert hists[0] == hists[1]

    def test_writes_csv_log(self, tmp_path):
        fam = LookupFamily()
        model = tiny_model()
        path = tmp_path / "log.csv"
        train(model, fam, tiny_cfg(steps=3), log_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,lr"
        assert len(lines) == 4

    def test_loss_decreases_over_short_run(self):
        fam = LookupFamily()
        model = tiny_model()
        hist = train(model, fam, tiny_cfg(steps=30, batch_size=4, lr=1e-3))
        assert np.mean(hist[-5:]) < np.mean(hist[:5]) + 0.05


# (family, k) of the batched-evaluation cases. Lookup at k=32 (T=66)
# runs the structured encoder's key-major node; the rest its dense route.
EVAL_CASES = {"lookup-k8": ("lookup", 8), "lookup-k32": ("lookup", 32),
              "linear": ("linear", 8), "copy": ("copy", 4)}


class TestEvaluate:
    def test_deterministic(self):
        fam = LookupFamily()
        model = tiny_model()
        a = evaluate(model, fam, 2, episodes=10, seeds=(0, 1))
        b = evaluate(model, fam, 2, episodes=10, seeds=(0, 1))
        assert a.per_seed == b.per_seed and a.mean == b.mean

    def test_chance_level_untrained(self):
        fam = LookupFamily()
        model = tiny_model(seed=2)
        r = evaluate(model, fam, 4, episodes=50, seeds=(0, 1, 2))
        assert 0.0 <= r.mean <= 0.6  # loose: untrained should be near 1/4

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("variant", ["structured", "full"])
    @pytest.mark.parametrize("case", list(EVAL_CASES))
    def test_single_plan_matches_per_episode_scores(self, case, variant, fmt,
                                                    monkeypatch):
        """The single plan scores chunks of `EVAL_CHUNK` prompts through
        `batch_scores`. On fresh float64 weights its scores agree with
        per-episode `fused_logprobs` within 1e-12, not bit for bit: the
        decoder folds an episode's candidates into one product. Its
        predictions and accuracy are identical. 21 episodes fill no whole
        number of chunks, in either format."""
        name, k = EVAL_CASES[case]
        family = make_family(name)
        model = tiny_model(variant=variant)
        assert model.params["embed"].data.dtype == np.float64
        chunks = []

        def spy(*args, **kwargs):
            scores = batch_scores(*args, **kwargs)
            chunks.append(scores.data)
            return scores

        monkeypatch.setattr(training, "batch_scores", spy)
        result = evaluate(model, family, k, episodes=21, seeds=(3,), fmt=fmt)
        eps = [family.sample_episode(k, 3 * 1_000_003 + i) for i in range(21)]
        T = pack_prompt(eps[0].demos, eps[0].test, k, 8,
                        fmt).layout().total_length
        assert (T > DENSE_MAX_T) == (case == "lookup-k32"), T
        per = len(eps[0].test.options) if fmt == "channel" else 1
        prompts = [len(c) * per for c in chunks]
        assert prompts[:-1] == [EVAL_CHUNK] * (len(chunks) - 1)
        assert 0 < prompts[-1] < EVAL_CHUNK
        got = np.concatenate(chunks)
        ref = np.array([fused_logprobs(model, ep.demos, ep.test,
                                       ep.test.options, FusionPlan(), 8, fmt)
                        for ep in eps])
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12
        preds = np.argmax(got, axis=1)
        np.testing.assert_array_equal(preds, np.argmax(ref, axis=1))
        hits = sum(list(ep.test.options[p]) == list(ep.test.y)
                   for ep, p in zip(eps, preds))
        assert result.per_seed == [hits / 21]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("plan", [FusionPlan(),
                                      FusionPlan("group_fid", 2)])
    def test_samples_each_chunk_just_before_scoring_it(self, plan, fmt,
                                                        monkeypatch):
        """No episode of chunk i+1 is sampled before chunk i is scored.
        The single plan's chunks take `EVAL_CHUNK` prompts (the last
        fewer), the other plans' one episode; the seeds run in order."""
        events = []
        lookup = LookupFamily()

        class Family:
            def sample_episode(self, k, seed):
                events.append(("sample", seed))
                return lookup.sample_episode(k, seed)

        def spy(scorer, count):
            def wrapped(*args, **kwargs):
                events.append(("score", count(args)))
                return scorer(*args, **kwargs)
            return wrapped

        ref = evaluate(tiny_model(), lookup, 4, episodes=21, seeds=(0, 1),
                       fmt=fmt, plan=plan)
        monkeypatch.setattr(training, "batch_scores",
                            spy(batch_scores, lambda a: len(a[1])))
        monkeypatch.setattr(training, "fused_logprobs",
                            spy(fused_logprobs, lambda a: 1))
        result = evaluate(tiny_model(), Family(), 4, episodes=21,
                          seeds=(0, 1), fmt=fmt, plan=plan)
        assert result.per_seed == ref.per_seed
        assert events[-1][0] == "score"
        n = 1
        if plan.scheme == "single":
            n = EVAL_CHUNK // (ARITY if fmt == "channel" else 1)
        pending, sizes = 0, []
        for kind, what in events:
            if kind == "sample":
                pending += 1
                continue
            assert what == pending, events  # the chunk just sampled
            sizes.append(what)
            pending = 0
        per_seed = [n] * (21 // n) + [21 % n] * (21 % n > 0)
        assert sizes == per_seed * 2
        assert [w for kind, w in events if kind == "sample"] == [
            s * 1_000_003 + i for s in (0, 1) for i in range(21)]

    def test_rejects_no_episodes(self):
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            evaluate(tiny_model(), LookupFamily(), 4, episodes=0)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("k", [1, 8, 32])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_every_family_scores_in_one_batch(self, name, k, fmt):
        """`evaluate` hands `batch_scores` chunks of episodes, which must
        pack to one layout with one number of continuations of one
        length. Every family's episodes do, at l_max 8: one call takes
        twelve of them."""
        family = make_family(name)
        eps = [family.sample_episode(k, 1_000_003 * s + i)
               for s in range(3) for i in range(4)]
        C = len(eps[0].test.options)
        scores = batch_scores(tiny_model(), eps,
                              [ep.test.options for ep in eps], k, 8, fmt)
        assert scores.data.shape == (12, C)
        assert np.isfinite(scores.data).all()


class TestEvaluateWithoutTape:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_scores_carry_no_tape(self, fmt, monkeypatch):
        """`evaluate` scores with every parameter's `requires_grad` off,
        so the scores it reads record no tape, and each flag comes back
        afterwards. Forward arithmetic does not read the flag: a run
        that records the tape reads the same `per_seed`."""
        model, family = tiny_model(), LookupFamily()
        model.params["embed"].requires_grad = False  # a flag of its own
        flags = {n: p.requires_grad for n, p in model.parameters().items()}
        seen = []

        def spy(*args, **kwargs):
            scores = batch_scores(*args, **kwargs)
            seen.append(scores)
            return scores

        monkeypatch.setattr(training, "batch_scores", spy)
        free = evaluate(model, family, 4, episodes=10, seeds=(0, 1), fmt=fmt)
        assert seen and all(s._backward is None and s._parents == ()
                            for s in seen)
        assert {n: p.requires_grad
                for n, p in model.parameters().items()} == flags

        def tracked(*args, **kwargs):
            for p in model.parameters().values():
                p.requires_grad = True
            scores = batch_scores(*args, **kwargs)
            assert scores._backward is not None
            return scores

        monkeypatch.setattr(training, "batch_scores", tracked)
        taped = evaluate(model, family, 4, episodes=10, seeds=(0, 1), fmt=fmt)
        assert taped.per_seed == free.per_seed

    @pytest.mark.parametrize("plan", [FusionPlan(), FusionPlan("fid")])
    def test_flags_come_back_after_an_error(self, plan):
        model = tiny_model()
        with pytest.raises(PackingError, match="l_max"):
            evaluate(model, LookupFamily(), 4, episodes=3, seeds=(0,),
                     l_max=0, plan=plan)
        assert all(p.requires_grad for p in model.parameters().values())


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap retention is set only on glibc")
def test_long_prompt_steps_keep_their_heap():
    """At the long-prompt benchmark shape (copy, seq_len 8, k=32, B=2,
    T=528), steps after warm-up reuse the heap they freed instead of
    faulting fresh pages in (about 7000 minor faults per five steps
    when glibc trims and unmaps between steps)."""
    import resource

    from iclattn.tasks import make_family
    cfg = TrainConfig(train_k=32, batch_size=2, l_max=16)
    batch = sample_batch(make_family("copy", seq_len=8), 32, 2,
                         np.random.default_rng(0))
    model = EncoderDecoder(ModelConfig(), seed=0)
    opt = Adam(model.parameters())
    for _ in range(2):
        train_step(model, opt, batch, 1e-3, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        train_step(model, opt, batch, 1e-3, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, f"{faults} minor page faults in five steps"
