import collections
import itertools
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

from iclattn import attention as attn
from iclattn import model as model_module
from iclattn.fusion import PromptPack, pack_prompt
from iclattn import tensor as tz
from iclattn.model import (CHECKPOINT_VERSION, PAD_ID, CheckpointError,
                           ContinuationCountError, EncoderDecoder,
                           ModelConfig, VocabularyOverflowError)
from iclattn.tasks import Episode, LookupFamily, TaskExample
from iclattn.training import (Adam, TrainConfig, batch_loss, sample_batch,
                              train_step)


def make_pack(demos, test, cont):
    """The pack of `demos` and `test`, and the continuation `cont` to
    score after it."""
    return PromptPack(tuple(tuple(d) for d in demos), tuple(test)), tuple(cont)


def small_model(variant="structured", seed=0, **kw):
    cfg = ModelConfig(vocab=32, d_model=16, heads=2, enc_layers=2,
                      dec_layers=2, ffn=32, variant=variant, **kw)
    return EncoderDecoder(cfg, seed=seed)


class TestConfig:
    def test_head_dim(self):
        assert ModelConfig(d_model=64, heads=4).head_dim == 16

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=64, heads=5)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="sparse")

    @pytest.mark.parametrize("kw,match", [
        ({"num_buckets": 63}, "even"),
        ({"max_distance": 32}, "max_distance"),
        ({"num_buckets": 2, "max_distance": 2}, "no exact bucket"),
    ], ids=["odd_buckets", "short_distance", "two_buckets"])
    def test_rejects_buckets_the_bias_table_cannot_serve(self, kw, match):
        with pytest.raises(ValueError, match=match):
            ModelConfig(**kw)


class TestEncode:
    def test_output_shape(self):
        m = small_model()
        pack, _ = make_pack([(2, 3), (4, 5)], (6, 7), (8,))
        states, key_valid = m.encode(pack)
        assert states.data.shape == (1, 6, 16)
        assert key_valid.shape == (6,) and key_valid.all()

    def test_vocab_overflow(self):
        m = small_model()
        pack, _ = make_pack([(2, 99)], (3,), (4,))
        with pytest.raises(VocabularyOverflowError):
            m.encode(pack)

    def test_zero_demo_variants_agree(self):
        """With no demonstrations the structured mask is all-allowed and the
        structured bias covers the whole (single) segment, so both variants
        compute the same function."""
        seed = 5
        pack, _ = make_pack([], (2, 3, 4, 5), (6,))
        s = small_model("structured", seed=seed).encode(pack)[0].data
        f = small_model("full", seed=seed).encode(pack)[0].data
        assert np.abs(s - f).max() <= 1e-12

    def test_deterministic(self):
        m = small_model()
        pack, _ = make_pack([(2, 3)], (4, 5), (6,))
        a = m.encode(pack)[0].data
        b = m.encode(pack)[0].data
        np.testing.assert_array_equal(a, b)

    def test_padding_positions_masked_as_keys(self):
        """Perturbing the PAD embedding must not change any score: padded
        positions only matter as keys, and those keys are blocked in both
        encoder self-attention and decoder cross-attention."""
        m = small_model()
        pack, _ = make_pack([(2, 3, 4), (5, 6)], (7, 8, 9), (10,))
        assert pack.padded_tokens()[5] == PAD_ID
        before = m.batch_logprobs(*m.encode_batch([pack]), [(10,), (11,)])
        m.params["embed"].data[PAD_ID] += 100.0
        after = m.batch_logprobs(*m.encode_batch([pack]), [(10,), (11,)])
        np.testing.assert_array_equal(before.data, after.data)


# The four public entries, each fed one token `t` where it reads tokens:
# a demonstration token for the encoders, a continuation token for the
# decoders.
ENTRIES = {
    "encode": lambda m, t: m.encode(make_pack([(2, t)], (4,), (5,))[0]),
    "encode_batch": lambda m, t: m.encode_batch(
        [make_pack([(2, 3)], (4,), (5,))[0],
         make_pack([(2, t)], (4,), (5,))[0]]),
    "sequence_logprob": lambda m, t: m.sequence_logprob(
        *m.encode(make_pack([(2, 3)], (4,), (5,))[0]), [5, t]),
    "batch_logprobs": lambda m, t: m.batch_logprobs(
        *m.encode_batch([make_pack([(2, 3)], (4,), (5,))[0]]),
        [[5, 6], [5, t]]),
}


class TestTokenRange:
    @pytest.mark.parametrize("token", [-1, 32, 99], ids=["negative", "vocab",
                                                         "above_vocab"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_out_of_range_token_raises(self, entry, token):
        with pytest.raises(VocabularyOverflowError, match=f"token id {token}"):
            ENTRIES[entry](small_model(), token)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_in_range_tokens_run(self, entry):
        ENTRIES[entry](small_model(), 31)


class TestDecode:
    def test_empty_continuation_rejected(self):
        m = small_model()
        states, key_valid = m.encode(make_pack([], (2,), (3,))[0])
        with pytest.raises(ValueError, match="non-empty"):
            m.sequence_logprob(states, key_valid, ())
        states, key_valid = m.encode_batch([make_pack([], (2,), (3,))[0]])
        with pytest.raises(ValueError, match="non-empty"):
            m.batch_logprobs(states, key_valid, [[]])

    def test_causality(self):
        """The continuation probabilities sum to one over every sequence
        of a fixed length. That holds only if the decoder's prediction at
        step t reads y_<t alone: a mask that lets step t see y_t breaks
        the chain rule, and the sum moves away from one."""
        cfg = ModelConfig(vocab=6, d_model=16, heads=2, enc_layers=2,
                          dec_layers=2, ffn=32)
        m = EncoderDecoder(cfg, seed=1)
        pack, _ = make_pack([(2, 3)], (4,), (5,))
        states, key_valid = m.encode_batch([pack])
        conts = list(itertools.product(range(6), repeat=3))
        lp = m.batch_logprobs(states, key_valid, conts).data
        assert lp.shape == (216,)
        assert abs(np.exp(lp).sum() - 1.0) <= 1e-12

    def test_uniform_logits_give_log_vocab(self):
        """A zeroed output head makes every step uniform, so the sequence
        log-probability is -|y| * log(vocab)."""
        m = small_model()
        m.params["out"].data[:] = 0.0
        enc = m.encode(make_pack([(2,)], (3,), (4,))[0])
        lp = m.sequence_logprob(*enc, (5, 6, 7)).item()
        assert lp == pytest.approx(-3 * math.log(32), abs=1e-9)


class TestBatchedPath:
    def test_encode_batch_matches_single(self):
        m = small_model()
        packs = [make_pack([(2, 3), (4, 5)], (6, 7), (8,))[0],
                 make_pack([(9, 10), (11, 12)], (13, 14), (15,))[0]]
        states, key_valid = m.encode_batch(packs)
        for i, pack in enumerate(packs):
            single, single_valid = m.encode(pack)
            assert np.abs(states.data[i] - single.data[0]).max() <= 1e-12
            np.testing.assert_array_equal(key_valid, single_valid)

    def test_batch_logprob_matches_single(self):
        """The single-prompt entries and the batched entries run the same
        encoder and decoder bodies, so they agree exactly."""
        for variant in ("structured", "full"):
            m = small_model(variant)
            packs, conts = zip(make_pack([(2, 3)], (4, 5), (6, 7)),
                               make_pack([(8, 9)], (10, 11), (12, 13)))
            states, key_valid = m.encode_batch(packs)
            lp = m.batch_logprobs(states, key_valid, conts)
            singles = [m.sequence_logprob(*m.encode(p), c).item()
                       for p, c in zip(packs, conts)]
            assert lp.data.tolist() == singles, variant
            assert tz.tsum(lp).item() == sum(singles), variant

    def test_batch_logprobs_are_episode_major(self):
        """Continuation i*C + c is scored against episode i: permuting the
        episodes permutes the scores in blocks of C."""
        m = small_model()
        packs = [make_pack([(2, 3)], (4, 5), (6,))[0],
                 make_pack([(8, 9)], (10, 11), (12,))[0]]
        conts = [[6, 7], [12, 13], [14, 15]]
        states, key_valid = m.encode_batch(packs)
        lp = m.batch_logprobs(states, key_valid, conts * 2).data
        states_r, _ = m.encode_batch(packs[::-1])
        lp_r = m.batch_logprobs(states_r, key_valid, conts * 2).data
        assert np.abs(lp[:3] - lp_r[3:]).max() <= 1e-12
        assert np.abs(lp[3:] - lp_r[:3]).max() <= 1e-12
        for i, pack in enumerate(packs):
            for c, cont in enumerate(conts):
                single = m.sequence_logprob(*m.encode(pack), cont).item()
                assert lp[i * 3 + c] == pytest.approx(single, abs=1e-9)

    def test_continuations_must_split_over_episodes(self):
        m = small_model()
        packs = [make_pack([(2, 3)], (4, 5), (6,))[0],
                 make_pack([(8, 9)], (10, 11), (12,))[0]]
        states, key_valid = m.encode_batch(packs)
        with pytest.raises(ContinuationCountError, match="3 continuations"):
            m.batch_logprobs(states, key_valid, [[6], [7], [8]])


def _episode_case(episodes, k):
    """(packs, continuations, loss) for `batch_loss` over `episodes`."""
    cfg = TrainConfig(train_k=k, batch_size=len(episodes))
    packs = [pack_prompt(ep.demos, ep.test, k=k, l_max=cfg.l_max)
             for ep in episodes]
    conts = [c for ep in episodes for c in ep.test.options]
    return packs, conts, lambda m: batch_loss(m, episodes, cfg)


def _ragged_episode(a, b, c, d):
    """Three demonstrations of 4, 2 and 3 tokens and a 2-token test
    input: segments of 4 positions, padded in three of them."""
    opts = [[20], [21]]
    return Episode([TaskExample([a, b, c], [20], opts),
                    TaskExample([d], [21], opts),
                    TaskExample([a, d], [20], opts)],
                   TaskExample([d, c], [21], opts))


def _no_demo_case():
    """k=0 prompts. `batch_loss` needs a demonstration, so the loss is
    the summed scores."""
    packs = [make_pack([], (2, 3, 4, 5), (6,))[0],
             make_pack([], (7, 8, 9, 2), (10,))[0]]
    conts = [[6], [10], [6], [10]]
    return packs, conts, lambda m: tz.tsum(
        m.batch_logprobs(*m.encode_batch(packs), conts))


ROUTE_CASES = {
    "below_bound": lambda: _episode_case(
        sample_batch(LookupFamily(), 4, 2, np.random.default_rng(1)), 4),
    "above_bound": lambda: _episode_case(
        sample_batch(LookupFamily(), 30, 2, np.random.default_rng(2)), 30),
    "ragged": lambda: _episode_case(
        [_ragged_episode(2, 3, 4, 5), _ragged_episode(6, 7, 8, 9)], 3),
    "no_demos": _no_demo_case,
}


class TestStructuredRoutes:
    @pytest.mark.parametrize("case", list(ROUTE_CASES))
    def test_both_routes_compute_one_function(self, case, monkeypatch):
        """The structured encoder runs a prompt of T <= DENSE_MAX_T
        positions through `full_attention` under the structured mask and
        bias, and a longer one through `structured_attention`. Forced one
        way and then the other by moving the bound to T and to T - 1, a
        float64 model gives the same encoder states, scores and parameter
        gradients to 1e-10, and each encoder pass calls the node of its
        route in every layer and never the other's."""
        packs, conts, loss = ROUTE_CASES[case]()
        T = packs[0].layout().total_length
        if case == "below_bound":
            assert T <= model_module.DENSE_MAX_T
        if case == "above_bound":
            assert T > model_module.DENSE_MAX_T
        calls = collections.Counter()
        for name in ("structured_attention", "full_attention"):
            def spy(*args, _node=getattr(attn, name), _name=name, **kwargs):
                calls[_name] += 1
                return _node(*args, **kwargs)
            monkeypatch.setattr(attn, name, spy)
        m = EncoderDecoder(ModelConfig(vocab=48, d_model=16, heads=2,
                                       enc_layers=2, dec_layers=2, ffn=32),
                           seed=3)
        assert m.params["embed"].data.dtype == np.float64
        layers = m.config.enc_layers
        got = {}
        for route, bound in (("dense", T), ("key-major", T - 1)):
            monkeypatch.setattr(model_module, "DENSE_MAX_T", bound)
            calls.clear()
            states, key_valid = m.encode_batch(packs)
            assert (calls["full_attention"], calls["structured_attention"]) \
                == ((layers, 0) if route == "dense" else (0, layers))
            lp = m.batch_logprobs(states, key_valid, conts)
            for p in m.params.values():
                p.grad = None
            tz.backward(loss(m))
            got[route] = (states.data, lp.data,
                          {name: None if p.grad is None else p.grad.copy()
                           for name, p in m.params.items()})
        (s_d, lp_d, g_d), (s_k, lp_k, g_k) = got["dense"], got["key-major"]
        assert np.abs(s_d - s_k).max() <= 1e-10
        assert np.abs(lp_d - lp_k).max() <= 1e-10
        for name, g in g_d.items():
            assert (g is None) == (g_k[name] is None), name
            if g is not None:
                assert np.abs(g - g_k[name]).max() <= 1e-10, name
        assert g_d["enc_bias"] is not None and g_d["enc.0.attn.wq"] is not None


class TestCheckpoint:
    def test_loads_checkpoint_with_dropout_field(self, tmp_path):
        """Checkpoints written while ModelConfig still had a (never
        active) dropout field load unchanged."""
        m = small_model(seed=6)
        header = {"version": CHECKPOINT_VERSION,
                  "config": {**asdict(m.config), "dropout": 0.0}}
        path = os.path.join(tmp_path, "old.npz")
        np.savez(path, __header__=np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8),
            **{name: t.data for name, t in m.parameters().items()})
        m2 = EncoderDecoder.load(path)
        assert m2.config == m.config
        assert m2.weight_fingerprint() == m.weight_fingerprint()

    def test_round_trip_bit_exact(self, tmp_path):
        m = small_model(seed=3)
        path = os.path.join(tmp_path, "ckpt.npz")
        m.save(path)
        m2 = EncoderDecoder.load(path)
        assert m2.config == m.config
        for name, p in m.parameters().items():
            np.testing.assert_array_equal(m2.parameters()[name].data, p.data)
        assert m2.weight_fingerprint() == m.weight_fingerprint()

    def test_round_trip_preserves_predictions(self, tmp_path):
        m = small_model(seed=4)
        path = os.path.join(tmp_path, "ckpt.npz")
        m.save(path)
        m2 = EncoderDecoder.load(path)
        pack, _ = make_pack([(2, 3), (4, 5)], (6,), (7,))
        cands = [(7,), (8,), (9,)]
        np.testing.assert_array_equal(
            m.batch_logprobs(*m.encode_batch([pack]), cands).data,
            m2.batch_logprobs(*m2.encode_batch([pack]), cands).data)

    def test_round_trip_keeps_float32_training_weights(self, tmp_path):
        """After Adam steps the weights are float32; a checkpoint keeps
        them float32 and the loaded model scores bit for bit alike."""
        m = EncoderDecoder(ModelConfig(vocab=48, d_model=16, heads=2,
                                       enc_layers=2, dec_layers=2, ffn=32),
                           seed=5)
        opt = Adam(m.parameters())
        cfg = TrainConfig(train_k=2, batch_size=2)
        rng = np.random.default_rng(0)
        for _ in range(2):
            train_step(m, opt, sample_batch(LookupFamily(), 2, 2, rng),
                       lr=1e-3, cfg=cfg)
        path = m.save(os.path.join(tmp_path, "ckpt"))
        m2 = EncoderDecoder.load(path)
        for name, p in m2.parameters().items():
            assert p.data.dtype == np.float32, name
        assert m2.weight_fingerprint() == m.weight_fingerprint()
        pack, _ = make_pack([(2, 3), (4, 5)], (6,), (7,))
        cands = [(7,), (8,), (9,)]
        np.testing.assert_array_equal(
            m.batch_logprobs(*m.encode_batch([pack]), cands).data,
            m2.batch_logprobs(*m2.encode_batch([pack]), cands).data)

    @staticmethod
    def _drop_array(arrays):
        del arrays["dec.0.ffn.w1"]

    @staticmethod
    def _cut_embed(arrays):
        arrays["embed"] = arrays["embed"][:3]

    @staticmethod
    def _nan_weight(arrays):
        arrays["enc.0.attn.wq"][0, 1] = np.nan

    @staticmethod
    def _add_array(arrays):
        arrays["stray"] = np.zeros(2)

    @staticmethod
    def _edit_header(arrays, edit):
        header = json.loads(arrays["__header__"].tobytes())
        arrays["__header__"] = np.frombuffer(
            json.dumps(edit(header)).encode(), dtype=np.uint8)

    @classmethod
    def _unknown_field(cls, arrays):
        cls._edit_header(arrays, lambda h: {
            **h, "config": {**h["config"], "width": 8}})

    @classmethod
    def _rejected_config(cls, arrays):
        # 16 model dimensions do not split over 3 heads
        cls._edit_header(arrays, lambda h: {
            **h, "config": {**h["config"], "heads": 3}})

    @classmethod
    def _odd_buckets(cls, arrays):
        cls._edit_header(arrays, lambda h: {
            **h, "config": {**h["config"], "num_buckets": 63}})

    @classmethod
    def _short_distance(cls, arrays):
        cls._edit_header(arrays, lambda h: {
            **h, "config": {**h["config"], "max_distance": 32}})

    @classmethod
    def _two_buckets(cls, arrays):
        cls._edit_header(arrays, lambda h: {
            **h, "config": {**h["config"], "num_buckets": 2,
                            "max_distance": 2}})

    @classmethod
    def _float_vocab(cls, arrays):
        cls._edit_header(arrays, lambda h: {
            **h, "config": {**h["config"], "vocab": 32.5}})

    @classmethod
    def _float_enc_layers(cls, arrays):
        # JSON's 1e9 reads back as a float
        cls._edit_header(arrays, lambda h: {
            **h, "config": {**h["config"], "enc_layers": 1e9}})

    @classmethod
    def _no_config(cls, arrays):
        cls._edit_header(arrays, lambda h: {"version": h["version"]})

    @classmethod
    def _list_header(cls, arrays):
        cls._edit_header(arrays, lambda h: [h["version"], h["config"]])

    @staticmethod
    def _no_header(arrays):
        del arrays["__header__"]

    @classmethod
    def _version_2(cls, arrays):
        cls._edit_header(arrays, lambda h: {**h, "version": 2})

    @staticmethod
    def _header_not_json(arrays):
        arrays["__header__"] = np.frombuffer(b"{version: 1", dtype=np.uint8)

    # file edits: take the path, not the arrays
    @staticmethod
    def _file_truncate(path):
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])

    @staticmethod
    def _file_text(path):
        path.write_text("step,loss,lr\n")

    @staticmethod
    def _file_npy(path):
        with open(path, "wb") as fh:     # np.save would append .npy
            np.save(fh, np.zeros(3))

    @pytest.mark.parametrize("edit,match", [
        ("_drop_array", r"missing arrays \['dec.0.ffn.w1'\]"),
        ("_cut_embed", r"'embed' has shape \(3, 16\)"),
        ("_nan_weight", r"'enc.0.attn.wq' holds non-finite"),
        ("_add_array", r"unexpected arrays \['stray'\]"),
        ("_file_truncate", "not a checkpoint archive"),
        ("_file_text", "not a checkpoint archive"),
        ("_file_npy", "not a checkpoint archive"),
        ("_unknown_field", "bad checkpoint config.*width"),
        ("_rejected_config", "bad checkpoint config.*divisible by heads"),
        ("_odd_buckets", "bad checkpoint config.*even"),
        ("_short_distance", "bad checkpoint config.*max_distance"),
        ("_two_buckets", "bad checkpoint config.*no exact bucket"),
        ("_float_vocab", "bad checkpoint config.*integers"),
        ("_float_enc_layers", "bad checkpoint config.*integers"),
        ("_no_config", "bad checkpoint config.*'config'"),
        ("_list_header", "unreadable checkpoint header"),
        ("_header_not_json", "unreadable checkpoint header"),
        ("_no_header", "no checkpoint header"),
        ("_version_2", "unsupported checkpoint version: 2"),
    ], ids=["missing", "wrong_shape", "nan", "extra", "truncated",
            "not_an_archive", "bare_npy", "unknown_config_field",
            "rejected_config", "odd_buckets", "short_distance",
            "two_buckets", "float_vocab", "float_enc_layers",
            "no_config", "list_header", "not_json", "no_header",
            "version_2"])
    def test_untrustworthy_checkpoint_raises(self, tmp_path, edit, match):
        path = tmp_path / "ckpt.npz"
        small_model(seed=7).save(path)
        if edit.startswith("_file_"):
            getattr(self, edit)(path)
        else:
            with np.load(path) as blob:
                arrays = {name: blob[name] for name in blob.files}
            getattr(self, edit)(arrays)
            np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match=match):
            EncoderDecoder.load(path)

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        m = small_model(seed=8)
        path = os.path.join(tmp_path, "ckpt")
        m.save(path)            # named like np.savez: ckpt.npz

        def broken_savez(fh, **arrays):
            fh.write(b"truncated")
            raise OSError("disk full")
        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            small_model(seed=9).save(path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        loaded = EncoderDecoder.load(path + ".npz")
        assert loaded.weight_fingerprint() == m.weight_fingerprint()

    def test_fingerprint_changes_with_weights(self):
        m = small_model(seed=5)
        fp = m.weight_fingerprint()
        m.params["embed"].data[0, 0] += 1.0
        assert m.weight_fingerprint() != fp
