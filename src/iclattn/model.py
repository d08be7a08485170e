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
import os
import zipfile
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


class ContinuationCountError(ValueError):
    """A continuation batch that does not split evenly over its episodes."""


class CheckpointError(ValueError):
    """A checkpoint file that `EncoderDecoder.load` cannot trust."""


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


def _checkpoint_path(path):
    """The file a checkpoint named `path` lives in: like `np.savez`,
    `.npz` is appended to a path without it."""
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


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

    # The projection helpers take a batch (B, T, d) and hand the attention
    # nodes (B, H, T, dh) head views, so the kernels run once per layer,
    # not per prompt, and a per-head bias broadcasts over the batch.
    def _project(self, x, prefix, kv_from=None):
        p, H = self.params, self.config.heads
        kv = x if kv_from is None else kv_from
        q = tz.split_heads(tz.linear(x, p[f"{prefix}.wq"]), H)
        k = tz.split_heads(tz.linear(kv, p[f"{prefix}.wk"]), H)
        v = tz.split_heads(tz.linear(kv, p[f"{prefix}.wv"]), H)
        return q, k, v

    def _out(self, z, prefix):
        return tz.linear(tz.merge_heads(z), self.params[f"{prefix}.wo"])

    def _ffn(self, x, prefix):
        p = self.params
        h = tz.relu(tz.linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        return tz.linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _ln(self, x, prefix):
        p = self.params
        return tz.layer_norm(x, p[f"{prefix}.g"], p[f"{prefix}.b"])

    def _mark_test(self, x, layout):
        marker = self.params["test_marker"]
        flag = np.zeros((layout.total_length, 1), dtype=marker.data.dtype)
        flag[layout.num_demos * layout.segment_length:] = 1.0
        return tz.add(x, tz.mul(marker, tz.constant(flag)))

    def _check_tokens(self, tokens):
        """The one token-range check of the encoder and the decoder."""
        lo, hi = tokens.min(initial=0), tokens.max(initial=0)
        if lo < 0 or hi >= self.config.vocab:
            raise VocabularyOverflowError(
                f"token id {lo if lo < 0 else hi} outside [0, "
                f"{self.config.vocab})")

    # -- forward passes ------------------------------------------------
    # One encoder body and one decoder body, on the batched layout. The
    # public entries below each call a body directly, never each other, so
    # each public call is one encoder or decoder pass.
    def _encoder(self, tokens, layout):
        """Encoder layers over (B, T) token ids of B prompts sharing
        `layout`. Returns the states (B, T, d)."""
        self._check_tokens(tokens)
        structured = self.config.variant == "structured"
        if structured:
            bias = self.enc_bias.bias_block(layout.segment_length)
        else:
            mask = build_full_mask(layout)
            bias = self.enc_bias.bias_global(layout.total_length)

        x = self._mark_test(tz.embed(self.params["embed"], tokens), layout)
        for i in range(self.config.enc_layers):
            h = self._ln(x, f"enc.{i}.ln1")
            qkv = self._project(h, f"enc.{i}.attn")
            if structured:
                z = attn.structured_attention(*qkv, layout, bias_block=bias)
            else:
                z = attn.full_attention(*qkv, mask, bias)
            x = tz.add(x, self._out(z, f"enc.{i}.attn"))
            x = tz.add(x, self._ffn(self._ln(x, f"enc.{i}.ln2"), f"enc.{i}.ffn"))
        return self._ln(x, "enc.final")

    def _decoder(self, states, key_valid, ys):
        """Teacher-forced decoder layers over (N, Td) continuations
        against the (E, T, d) encoder states of E episodes. Returns the
        per-continuation gold log-probability (N,).

        Continuations are episode-major: with C = N / E, continuations
        e*C .. e*C + C - 1 are scored against episode e. Self-attention,
        the FFN and the loss run per continuation. Cross-attention folds
        each episode's C continuations into one (C*Td)-row query, so K/V
        are projected once per episode, not once per continuation."""
        if ys.ndim != 2 or ys.shape[1] == 0:
            raise ValueError(
                "continuations must be equal-length non-empty sequences")
        self._check_tokens(ys)
        E, N = states.data.shape[0], ys.shape[0]
        if N % E:
            raise ContinuationCountError(
                f"{N} continuations do not split evenly over {E} episodes")
        dec_in = np.concatenate(
            [np.full((N, 1), BOS_ID, dtype=np.int64), ys[:, :-1]], axis=1)
        T = dec_in.shape[1]
        causal = np.where(np.tril(np.ones((T, T), dtype=bool)), 0.0, MASK_VALUE)
        self_bias = self.dec_bias.bias_block(T)
        cross_mask = np.where(key_valid, 0.0, MASK_VALUE)
        d = self.config.d_model

        x = tz.embed(self.params["embed"], dec_in)
        for i in range(self.config.dec_layers):
            h = self._ln(x, f"dec.{i}.ln1")
            z = attn.full_attention(*self._project(h, f"dec.{i}.self"),
                                    causal, self_bias)
            x = tz.add(x, self._out(z, f"dec.{i}.self"))
            h = tz.reshape(self._ln(x, f"dec.{i}.ln2"), (E, N // E * T, d))
            z = attn.full_attention(
                *self._project(h, f"dec.{i}.cross", kv_from=states),
                cross_mask)
            z = tz.reshape(self._out(z, f"dec.{i}.cross"), (N, T, d))
            x = tz.add(x, z)
            x = tz.add(x, self._ffn(self._ln(x, f"dec.{i}.ln3"), f"dec.{i}.ffn"))
        h = self._ln(x, "dec.final")
        logits = tz.linear(h, tz.transpose(self.params["out"], (1, 0)))
        picked = tz.gather_last(tz.log_softmax_last(logits), ys)
        return tz.sum_last(picked)

    def encode(self, pack):
        """Run the encoder over one packed prompt. Returns EncoderOutput."""
        layout = pack.layout()
        states = self._encoder(pack.padded_tokens()[None], layout)
        return EncoderOutput(tz.reshape(states, states.shape[1:]),
                             layout.key_valid())

    def encode_batch(self, packs):
        """Encoder over a batch of packs sharing one layout. Returns
        (states (B, T, d), key_valid (T,))."""
        layout = packs[0].layout()
        if any(p.layout() != layout for p in packs[1:]):
            raise ValueError("encode_batch needs identical layouts")
        tokens = np.stack([p.padded_tokens() for p in packs])
        return self._encoder(tokens, layout), layout.key_valid()

    def sequence_logprob(self, enc_out, continuation):
        """Scalar tensor (shape [1]): sum of log p(y_t | y_<t, encoder
        states) over one continuation."""
        states = enc_out.states
        return self._decoder(tz.reshape(states, (1,) + states.shape),
                             enc_out.key_valid,
                             np.asarray([continuation], dtype=np.int64))

    def batch_logprobs(self, states, key_valid, continuations):
        """Per-item gold log-probability (N,) over a batch of N
        equal-length continuations, episode-major against the (E, T, d)
        states (see `_decoder`). Raises ContinuationCountError unless N is
        a multiple of E."""
        return self._decoder(states, key_valid,
                             np.asarray(continuations, dtype=np.int64))

    # -- checkpointing -------------------------------------------------
    def save(self, path):
        """Versioned container: JSON config header + one named blob per
        parameter, in the parameter's own dtype (float32 after Adam
        training, float64 for fresh weights). Round-trips bit-exactly.
        Writes to `_checkpoint_path(path)` and returns that path. The file
        is written under a temporary name in the same directory and then
        renamed into place, so a failed save leaves an earlier checkpoint
        there whole."""
        path = _checkpoint_path(path)
        arrays = {name: t.data for name, t in self.params.items()}
        header = {"version": CHECKPOINT_VERSION, "config": asdict(self.config)}
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, __header__=np.frombuffer(
                    json.dumps(header).encode(), dtype=np.uint8), **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return path

    @classmethod
    def load(cls, path):
        """Rebuild a model from a `save` file. Raises CheckpointError when
        the file is no npz archive, the header is missing or of another
        version, or an array is missing, unexpected, of the wrong shape for
        the config, or not finite. Reads `_checkpoint_path(path)`, the file
        `save` wrote. Float32 arrays stay float32, others become float64."""
        path = _checkpoint_path(path)
        try:
            with np.load(path) as blob:
                arrays = {name: blob[name] for name in blob.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as err:
            raise CheckpointError(
                f"{path}: not a checkpoint archive: {err}") from err
        if "__header__" not in arrays:
            raise CheckpointError(f"{path}: no checkpoint header")
        header = json.loads(bytes(arrays.pop("__header__").tobytes()).decode())
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version: {header.get('version')}")
        config = dict(header["config"])
        # older checkpoints record a `dropout` field that was never active
        config.pop("dropout", None)
        model = cls(ModelConfig(**config))
        missing = sorted(model.params.keys() - arrays.keys())
        if missing:
            raise CheckpointError(f"{path}: missing arrays {missing}")
        extra = sorted(arrays.keys() - model.params.keys())
        if extra:
            raise CheckpointError(f"{path}: unexpected arrays {extra}")
        for name, t in model.params.items():
            arr = arrays[name]
            if arr.shape != t.data.shape:
                raise CheckpointError(
                    f"{path}: array {name!r} has shape {arr.shape}, "
                    f"the config needs {t.data.shape}")
            arr = tz.as_data(arr)
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    f"{path}: array {name!r} holds non-finite values")
            t.data = arr
        return model

    def weight_fingerprint(self):
        """CRC over all parameter bytes, for cheap equality checks."""
        crc = 0
        for name in sorted(self.params):
            crc = zlib.crc32(self.params[name].data.tobytes(), crc)
        return crc
