"""Tiny encoder-decoder transformer with pluggable encoder attention.

The encoder runs either dense attention (global relative bias, full
mask) or the block-structured variant (shared within-segment bias,
segmented mask). The decoder is always dense: causal self-attention with
a unidirectional relative bias, plus cross-attention over all encoder
positions with padding keys blocked.

Token id conventions: 0 is padding, 1 is the decoder start token;
synthetic task vocabularies start at 2.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import attention as attn
from . import tensor as tz
from .segments import MASK_VALUE, RelativeBiasTable, build_full_mask
from .tensor import Tensor

PAD_ID = 0
BOS_ID = 1
CHECKPOINT_VERSION = 1


class VocabularyOverflowError(ValueError):
    pass


@dataclass
class ModelConfig:
    vocab: int = 64
    d_model: int = 64
    heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    ffn: int = 128
    variant: str = "structured"
    # 64 buckets keep every relative offset in a desk-scale packed prompt
    # (k=8 two-token demos, 17 positions) in its own exact bucket. At 32,
    # offsets past 7 share log-spaced buckets, which erases the x/y parity
    # the full-attention variant needs to locate far demonstrations.
    num_buckets: int = 64
    max_distance: int = 128
    dropout: float = 0.0

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if min(self.vocab, self.d_model, self.heads, self.enc_layers,
               self.dec_layers, self.ffn) < 1:
            raise ValueError("all config counts must be >= 1")
        if self.variant not in attn.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def head_dim(self):
        return self.d_model // self.heads


@dataclass
class CandidateSet:
    """Tokenized candidate continuations to score against each other."""

    candidates: list

    def __post_init__(self):
        if any(len(c) == 0 for c in self.candidates):
            raise ValueError("candidates must be non-empty token sequences")

    def __len__(self):
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


@dataclass
class EncoderOutput:
    states: Tensor          # (T_enc, d_model)
    key_valid: np.ndarray   # (T_enc,) bool, False at padding positions


def _param(rng, shape, std=None):
    # fan-in scaled by default so attention logits start at O(1)
    if std is None:
        std = shape[0] ** -0.5
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def _ln_params(d):
    return Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True)


class EncoderDecoder:
    def __init__(self, config, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        d, f, V = config.d_model, config.ffn, config.vocab
        self.params = {}
        p = self.params
        p["embed"] = _param(rng, (V, d), std=d ** -0.5)
        # separate output head, started quiet so untrained predictions
        # are near-uniform over candidates
        p["out"] = _param(rng, (V, d), std=0.02)
        # learned flag added to test-segment encoder inputs. The structured
        # mask already tells every token which segment is the query; the
        # dense baseline has no way to recover that from relative positions
        # alone, so both variants get the same explicit cue.
        p["test_marker"] = _param(rng, (d,), std=0.02)

        self.enc_bias = RelativeBiasTable(
            config.heads, config.num_buckets, config.max_distance,
            bidirectional=True, rng=rng)
        self.dec_bias = RelativeBiasTable(
            config.heads, config.num_buckets, config.max_distance,
            bidirectional=False, rng=rng)
        p["enc_bias"] = self.enc_bias.weights
        p["dec_bias"] = self.dec_bias.weights

        def attn_block(prefix):
            for name in ("wq", "wk", "wv", "wo"):
                p[f"{prefix}.{name}"] = _param(rng, (d, d))

        def ffn_block(prefix):
            p[f"{prefix}.w1"] = _param(rng, (d, f))
            p[f"{prefix}.b1"] = Tensor(np.zeros(f), requires_grad=True)
            p[f"{prefix}.w2"] = _param(rng, (f, d))
            p[f"{prefix}.b2"] = Tensor(np.zeros(d), requires_grad=True)

        def ln(prefix):
            p[f"{prefix}.g"], p[f"{prefix}.b"] = _ln_params(d)

        for i in range(config.enc_layers):
            ln(f"enc.{i}.ln1"); attn_block(f"enc.{i}.attn")
            ln(f"enc.{i}.ln2"); ffn_block(f"enc.{i}.ffn")
        ln("enc.final")
        for i in range(config.dec_layers):
            ln(f"dec.{i}.ln1"); attn_block(f"dec.{i}.self")
            ln(f"dec.{i}.ln2"); attn_block(f"dec.{i}.cross")
            ln(f"dec.{i}.ln3"); ffn_block(f"dec.{i}.ffn")
        ln("dec.final")

    # -- helpers -------------------------------------------------------
    def parameters(self):
        return self.params

    def _heads_split(self, x):
        H, dh = self.config.heads, self.config.head_dim
        T = x.data.shape[0]
        return tz.transpose(tz.reshape(x, (T, H, dh)), (1, 0, 2))

    def _heads_merge(self, x):
        H, T, dh = x.data.shape
        return tz.reshape(tz.transpose(x, (1, 0, 2)), (T, H * dh))

    def _project(self, x, prefix):
        p = self.params
        q = self._heads_split(tz.contract("td,de->te", x, p[f"{prefix}.wq"]))
        k = self._heads_split(tz.contract("td,de->te", x, p[f"{prefix}.wk"]))
        v = self._heads_split(tz.contract("td,de->te", x, p[f"{prefix}.wv"]))
        return q, k, v

    def _out(self, z, prefix):
        return tz.contract("td,de->te", self._heads_merge(z),
                           self.params[f"{prefix}.wo"])

    def _ffn(self, x, prefix):
        p = self.params
        h = tz.relu(tz.add(tz.contract("td,df->tf", x, p[f"{prefix}.w1"]),
                           p[f"{prefix}.b1"]))
        return tz.add(tz.contract("tf,fd->td", h, p[f"{prefix}.w2"]),
                      p[f"{prefix}.b2"])

    def _ln(self, x, prefix):
        p = self.params
        return tz.layer_norm(x, p[f"{prefix}.g"], p[f"{prefix}.b"])

    def _mark_test(self, x, layout):
        flag = np.zeros((layout.total_length, 1))
        flag[layout.num_demos * layout.segment_length:] = 1.0
        return tz.add(x, tz.mul(self.params["test_marker"], tz.constant(flag)))

    def _encoder_attention(self, x, layout, rng):
        rate = self.config.dropout if rng is not None else 0.0
        if self.config.variant == "structured":
            bias = self.enc_bias.bias_block(layout.segment_length)
            return attn.structured_attention(
                *x, layout, bias_block=bias, dropout_rate=rate, rng=rng)
        mask = build_full_mask(layout)
        bias = self.enc_bias.bias_global(layout.total_length)
        return attn.full_attention(*x, mask, bias, dropout_rate=rate, rng=rng)

    # -- forward passes ------------------------------------------------
    def encode(self, pack, rng=None):
        """Run the encoder over a packed prompt. Returns EncoderOutput."""
        tokens = pack.padded_tokens()
        layout = pack.layout()
        if tokens.max(initial=0) >= self.config.vocab:
            raise VocabularyOverflowError(
                f"token id {tokens.max()} >= vocab {self.config.vocab}")
        x = self._mark_test(tz.embed(self.params["embed"], tokens), layout)
        for i in range(self.config.enc_layers):
            h = self._ln(x, f"enc.{i}.ln1")
            z = self._encoder_attention(self._project(h, f"enc.{i}.attn"),
                                        layout, rng)
            x = tz.add(x, self._out(z, f"enc.{i}.attn"))
            x = tz.add(x, self._ffn(self._ln(x, f"enc.{i}.ln2"), f"enc.{i}.ffn"))
        states = self._ln(x, "enc.final")
        return EncoderOutput(states, layout.key_valid())

    def decode_logits(self, enc_out, continuation, rng=None):
        """Teacher-forced decoder logits (|y|, vocab) for a continuation."""
        y = list(continuation)
        if not y:
            raise ValueError("continuation must be non-empty")
        if max(y) >= self.config.vocab:
            raise VocabularyOverflowError(
                f"token id {max(y)} >= vocab {self.config.vocab}")
        dec_in = np.array([BOS_ID] + y[:-1], dtype=np.int64)
        T = len(dec_in)
        causal = np.where(np.tril(np.ones((T, T), dtype=bool)), 0.0, MASK_VALUE)
        self_bias = self.dec_bias.bias_block(T)
        cross_mask = np.where(enc_out.key_valid, 0.0, MASK_VALUE)[None, None, :]
        rate = self.config.dropout if rng is not None else 0.0

        x = tz.embed(self.params["embed"], dec_in)
        for i in range(self.config.dec_layers):
            h = self._ln(x, f"dec.{i}.ln1")
            z = attn.full_attention(*self._project(h, f"dec.{i}.self"),
                                    causal[None, :, :], self_bias,
                                    dropout_rate=rate, rng=rng)
            x = tz.add(x, self._out(z, f"dec.{i}.self"))

            h = self._ln(x, f"dec.{i}.ln2")
            p = self.params
            q = self._heads_split(tz.contract("td,de->te", h, p[f"dec.{i}.cross.wq"]))
            kk = self._heads_split(tz.contract("td,de->te", enc_out.states,
                                               p[f"dec.{i}.cross.wk"]))
            vv = self._heads_split(tz.contract("td,de->te", enc_out.states,
                                               p[f"dec.{i}.cross.wv"]))
            z = attn.full_attention(q, kk, vv, cross_mask,
                                    dropout_rate=rate, rng=rng)
            x = tz.add(x, self._out(z, f"dec.{i}.cross"))
            x = tz.add(x, self._ffn(self._ln(x, f"dec.{i}.ln3"), f"dec.{i}.ffn"))
        h = self._ln(x, "dec.final")
        return tz.contract("td,vd->tv", h, self.params["out"])

    def sequence_logprob(self, enc_out, continuation, rng=None):
        """Scalar tensor: sum of log p(y_t | y_<t, encoder states)."""
        logits = self.decode_logits(enc_out, continuation, rng=rng)
        logp = tz.log_softmax_last(logits)
        picked = tz.gather_last(logp, np.asarray(continuation, dtype=np.int64))
        return tz.tsum(picked)

    def candidate_logprobs(self, pack, candidates):
        """Log-probability score per candidate under the pack's format.

        Direct: encode once, score each candidate as the continuation.
        Channel: the candidate becomes the final encoder segment and the
        stored test input is scored as the continuation.
        """
        if pack.format == "direct":
            enc = self.encode(pack)
            return np.array([self.sequence_logprob(enc, c).item()
                             for c in candidates])
        scores = []
        for c in candidates:
            enc = self.encode(pack.with_test_segment(list(c)))
            scores.append(self.sequence_logprob(enc, pack.score_tokens).item())
        return np.array(scores)

    def predict(self, pack, candidates):
        """Index of the argmax candidate; ties go to the lowest index."""
        if len(candidates) == 0:
            raise ValueError("need at least one candidate")
        return int(np.argmax(self.candidate_logprobs(pack, candidates)))

    # -- batched forward (training fast path) --------------------------
    # A batch of same-shape prompts is folded into the head axis, so the
    # attention kernels run once per layer instead of once per episode.

    def _heads_split_b(self, x):
        B, T, _ = x.data.shape
        H, dh = self.config.heads, self.config.head_dim
        return tz.reshape(tz.transpose(tz.reshape(x, (B, T, H, dh)),
                                       (0, 2, 1, 3)), (B * H, T, dh))

    def _heads_merge_b(self, x, B):
        _, T, dh = x.data.shape
        H = self.config.heads
        return tz.reshape(tz.transpose(tz.reshape(x, (B, H, T, dh)),
                                       (0, 2, 1, 3)), (B, T, H * dh))

    def _project_b(self, x, prefix, kv_from=None):
        p = self.params
        kv = x if kv_from is None else kv_from
        q = self._heads_split_b(tz.contract("btd,de->bte", x, p[f"{prefix}.wq"]))
        k = self._heads_split_b(tz.contract("btd,de->bte", kv, p[f"{prefix}.wk"]))
        v = self._heads_split_b(tz.contract("btd,de->bte", kv, p[f"{prefix}.wv"]))
        return q, k, v

    def _out_b(self, z, prefix, B):
        return tz.contract("btd,de->bte", self._heads_merge_b(z, B),
                           self.params[f"{prefix}.wo"])

    def _ffn_b(self, x, prefix):
        p = self.params
        h = tz.relu(tz.add(tz.contract("btd,df->btf", x, p[f"{prefix}.w1"]),
                           p[f"{prefix}.b1"]))
        return tz.add(tz.contract("btf,fd->btd", h, p[f"{prefix}.w2"]),
                      p[f"{prefix}.b2"])

    @staticmethod
    def _tile_heads(bias, batch):
        return bias if batch == 1 else tz.concat([bias] * batch, axis=0)

    def encode_batch(self, packs, rng=None):
        """Encoder over a batch of packs sharing one layout. Returns
        (states (B, T, d), key_valid (T,))."""
        layout = packs[0].layout()
        if any(p.layout() != layout for p in packs[1:]):
            raise ValueError("encode_batch needs identical layouts")
        B = len(packs)
        tokens = np.stack([p.padded_tokens() for p in packs])
        if tokens.max(initial=0) >= self.config.vocab:
            raise VocabularyOverflowError(
                f"token id {tokens.max()} >= vocab {self.config.vocab}")
        rate = self.config.dropout if rng is not None else 0.0
        structured = self.config.variant == "structured"
        if structured:
            bias = self.enc_bias.bias_block(layout.segment_length)
        else:
            mask = build_full_mask(layout)
            bias = self.enc_bias.bias_global(layout.total_length)

        x = self._mark_test(tz.embed(self.params["embed"], tokens), layout)
        for i in range(self.config.enc_layers):
            h = self._ln(x, f"enc.{i}.ln1")
            qkv = self._project_b(h, f"enc.{i}.attn")
            if structured:
                z = attn.structured_attention(
                    *qkv, layout, bias_block=self._tile_heads(bias, B),
                    dropout_rate=rate, rng=rng)
            else:
                z = attn.full_attention(*qkv, mask, self._tile_heads(bias, B),
                                        dropout_rate=rate, rng=rng)
            x = tz.add(x, self._out_b(z, f"enc.{i}.attn", B))
            x = tz.add(x, self._ffn_b(self._ln(x, f"enc.{i}.ln2"), f"enc.{i}.ffn"))
        return self._ln(x, "enc.final"), layout.key_valid()

    def batch_logprob_sum(self, states, key_valid, continuations, rng=None):
        """Summed gold log-probability over a batch of equal-length
        continuations, teacher forced."""
        return tz.tsum(self.batch_logprobs(states, key_valid, continuations,
                                           rng=rng))

    def batch_logprobs(self, states, key_valid, continuations, rng=None):
        """Per-item gold log-probability (N,) over a batch of N
        equal-length continuations, teacher forced.

        `states` is an (N, T, d) encoder output with one row per
        continuation: row i is the prompt that continuation i is scored
        against. `batch_loss` builds it by tiling each episode's states once
        per candidate, candidate-major."""
        B = states.data.shape[0]
        ys = np.asarray(continuations, dtype=np.int64)
        dec_in = np.concatenate(
            [np.full((B, 1), BOS_ID, dtype=np.int64), ys[:, :-1]], axis=1)
        T = dec_in.shape[1]
        causal = np.where(np.tril(np.ones((T, T), dtype=bool)), 0.0, MASK_VALUE)
        self_bias = self._tile_heads(self.dec_bias.bias_block(T), B)
        cross_mask = np.where(key_valid, 0.0, MASK_VALUE)[None, None, :]
        rate = self.config.dropout if rng is not None else 0.0

        x = tz.embed(self.params["embed"], dec_in)
        for i in range(self.config.dec_layers):
            h = self._ln(x, f"dec.{i}.ln1")
            z = attn.full_attention(*self._project_b(h, f"dec.{i}.self"),
                                    causal[None, :, :], self_bias,
                                    dropout_rate=rate, rng=rng)
            x = tz.add(x, self._out_b(z, f"dec.{i}.self", B))
            h = self._ln(x, f"dec.{i}.ln2")
            z = attn.full_attention(
                *self._project_b(h, f"dec.{i}.cross", kv_from=states),
                cross_mask, dropout_rate=rate, rng=rng)
            x = tz.add(x, self._out_b(z, f"dec.{i}.cross", B))
            x = tz.add(x, self._ffn_b(self._ln(x, f"dec.{i}.ln3"), f"dec.{i}.ffn"))
        h = self._ln(x, "dec.final")
        logits = tz.contract("btd,vd->btv", h, self.params["out"])
        picked = tz.gather_last(tz.log_softmax_last(logits), ys)
        return tz.sum_last(picked)

    # -- checkpointing -------------------------------------------------
    def save(self, path):
        """Versioned container: JSON config header + named float64 blobs.
        Round-trips bit-exactly."""
        arrays = {name: t.data for name, t in self.params.items()}
        header = {"version": CHECKPOINT_VERSION, "config": asdict(self.config)}
        np.savez(path, __header__=np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path):
        with np.load(path) as blob:
            header = json.loads(bytes(blob["__header__"].tobytes()).decode())
            if header.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version: {header.get('version')}")
            model = cls(ModelConfig(**header["config"]))
            for name, t in model.params.items():
                t.data = blob[name].astype(np.float64)
        return model

    def weight_fingerprint(self):
        """CRC over all parameter bytes, for cheap equality checks."""
        crc = 0
        for name in sorted(self.params):
            crc = zlib.crc32(self.params[name].data.tobytes(), crc)
        return crc
