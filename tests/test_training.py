import math

import numpy as np
import pytest

from iclattn import tensor as tz
from iclattn.fusion import pack_prompt
from iclattn.model import EncoderDecoder, ModelConfig
from iclattn.tasks import CopyOffsetFamily, LookupFamily
from iclattn.training import (Adafactor, Adam, NonFiniteGradientError,
                              TrainConfig, batch_loss, evaluate, lr_schedule,
                              make_optimizer, sample_batch, train, train_step)


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
        with pytest.raises(ValueError):
            TrainConfig(optimizer="sgd")


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


class TestBatchLoss:
    def test_untrained_loss_near_log_arity(self):
        """Balanced arity-4 labels with 1-token answers: an untrained
        model scores each candidate almost equally, so the candidate
        cross-entropy sits at ~log 4."""
        fam = LookupFamily(arity=4)
        model = EncoderDecoder(ModelConfig(variant="structured"), seed=0)
        rng = np.random.default_rng(0)
        eps = sample_batch(fam, 4, 64, rng)
        loss = batch_loss(model, eps, tiny_cfg(train_k=4)).item()
        assert loss == pytest.approx(math.log(4), abs=0.1)

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
            cand = [model.sequence_logprob(enc, list(c))
                    for c in ep.test.options]
            scores = tz.reshape(tz.concat(cand, axis=0), (1, len(cand)))
            gold = np.array([ep.test.options.index(list(ep.test.y))])
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
        for n, p in params.items():
            np.testing.assert_allclose(p.grad, ref_grads[n], rtol=0,
                                       atol=1e-9, err_msg=n)

    def test_fallback_without_options_is_plain_nll(self):
        from iclattn.tasks import Episode, TaskExample
        model = tiny_model()
        cfg = tiny_cfg(train_k=2, batch_size=2)
        eps = [Episode([TaskExample([2], [3]), TaskExample([4], [5])],
                       TaskExample([6], [7])),
               Episode([TaskExample([8, 9], [10]), TaskExample([11], [12])],
                       TaskExample([13], [14, 15]))]   # ragged on purpose
        loss = batch_loss(model, eps, cfg).item()
        expect = 0.0
        for ep in eps:
            pack = pack_prompt(ep.demos, ep.test, k=2, l_max=cfg.l_max)
            expect -= model.sequence_logprob(model.encode(pack),
                                             pack.score_tokens).item()
        assert loss == pytest.approx(expect / 2, abs=1e-9)

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


class TestOptimizers:
    def _quadratic_steps(self, opt_cls):
        p = tz.Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = opt_cls({"p": p})
        for _ in range(300):
            opt.zero_grad()
            p.grad = 2 * p.data   # d/dp of sum(p^2)
            opt.step(lr=0.1)
        return np.abs(p.data).max()

    def test_adam_minimizes_quadratic(self):
        assert self._quadratic_steps(Adam) < 1e-3

    def test_adafactor_minimizes_quadratic(self):
        assert self._quadratic_steps(Adafactor) < 1e-2

    def test_adam_in_place_moments_match_reference_formula(self):
        rng = np.random.default_rng(12)
        params = {"w": tz.Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                  "b": tz.Tensor(rng.standard_normal(4), requires_grad=True)}
        opt = Adam(params)
        b1, b2, eps, lr = opt.beta1, opt.beta2, opt.eps, 1e-2
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(p.data) for n, p in params.items()}
        v = {n: np.zeros_like(p.data) for n, p in params.items()}
        for t in range(1, 6):
            grads = {n: rng.standard_normal(p.data.shape)
                     for n, p in params.items()}
            for n, p in params.items():
                p.grad = grads[n]
            opt.step(lr)
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                mh = m[n] / (1 - b1 ** t)
                vh = v[n] / (1 - b2 ** t)
                ref[n] -= lr * mh / (np.sqrt(vh) + eps)
            for n, p in params.items():
                np.testing.assert_array_equal(p.data, ref[n])
                np.testing.assert_array_equal(p.grad, grads[n])

    def test_adafactor_factored_state_for_matrices(self):
        p = tz.Tensor(np.ones((4, 6)), requires_grad=True)
        opt = Adafactor({"p": p})
        r, c = opt.state["p"]
        assert r.shape == (4,) and c.shape == (6,)


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
