"""Per-layer spans and counters, recorded from outside the package by
wrapping its public functions while a trace is installed.

A span is (name, start, end, parent span, op id). Spans stay in memory
and are written out once, at the end of a run. A layer's self time is
its span's duration minus the part its child spans cover. Counters are
added at the same call boundaries.
"""

import json
import sys
import time
from collections import defaultdict

import numpy as np

from iclattn import attention, fusion, model, segments, tensor, training


def _score_entries_structured(q, k, v, layout, *args, **kwargs):
    return q.data.shape[0] * attention.score_storage(
        layout.num_demos, layout.segment_length)["structured"]


def _score_entries_full(q, k, *args, **kwargs):
    return q.data.shape[0] * q.data.shape[1] * k.data.shape[1]


def _encoder_positions(packs):
    layouts = [p.layout() for p in packs]
    total = sum(lay.total_length for lay in layouts)
    return total, total - sum(sum(lay.valid) for lay in layouts)


class Tracer:
    """Spans and counts of the ops run between `begin_op` and `end_op`
    while installed. Nothing is recorded outside an op."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.counts = defaultdict(int)
        self.ops = 0
        self._op = None
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------
    def begin_op(self, op_id):
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append(None)
        return time.perf_counter()

    def end_op(self, start):
        end = time.perf_counter()
        self.spans[self._stack[0]] = ("op", start, end, -1, self._op)
        self._op = None
        self._stack = []
        self.ops += 1
        return end

    def _wrap(self, fn, name=None, count=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if count is not None:
                for key, n in count(*args, **kwargs):
                    tracer.counts[key] += n
            if name is None:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (label, start, end, parent, tracer._op)

        return traced

    def _patch(self, owner, attr, **how):
        """Replace `owner.attr` with a traced wrapper. For a module, every
        loaded package module that bound the same function by name
        (`from .tensor import contract`) is patched too."""
        original = getattr(owner, attr)
        wrapper = self._wrap(original, **how)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for key, m in list(sys.modules.items())
                       if key.split(".")[0] == "iclattn"
                       and getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapper)
            self._patches.append((target, attr, original))

    def install(self):
        if self._patches:
            return
        self._patch(tensor, "_result", count=lambda data, *a: (
            ("tensor.nodes", 1), ("tensor.node_bytes", data.nbytes)))
        self._patch(tensor, "contract", name="tensor.contract",
                    count=lambda *a: (("tensor.contract_calls", 1),))
        self._patch(tensor, "backward", name="tensor.backward")
        self._patch(attention, "structured_attention",
                    name="attention.structured",
                    count=lambda *a, **k: (
                        ("attention.calls", 1),
                        ("attention.score_entries",
                         _score_entries_structured(*a, **k))))
        self._patch(attention, "full_attention", name="attention.full",
                    count=lambda *a, **k: (
                        ("attention.calls", 1),
                        ("attention.score_entries",
                         _score_entries_full(*a, **k))))
        for attr in ("bias_block", "bias_global"):
            self._patch(segments.RelativeBiasTable, attr, name="segments.bias")
        self._patch(segments, "build_full_mask", name="segments.bias")

        def encoder_counts(packs):
            positions, pads = _encoder_positions(packs)
            return (("model.encoder_passes", 1),
                    ("model.encoder_positions", positions),
                    ("model.encoder_pad", pads))

        enc = model.EncoderDecoder
        self._patch(enc, "encode", name="model.encode",
                    count=lambda m, pack, *a, **k: encoder_counts([pack]))
        self._patch(enc, "encode_batch", name="model.encode",
                    count=lambda m, packs, *a, **k: encoder_counts(packs))
        for attr in ("sequence_logprob", "batch_logprobs"):
            self._patch(enc, attr, name="model.decode",
                        count=lambda *a, **k: (("model.decoder_passes", 1),))
        self._patch(fusion, "pack_prompt", name="fusion.pack")
        self._patch(fusion, "fused_logprobs", name=_scheme_span)
        self._patch(training, "batch_loss", name="training.loss")
        self._patch(training, "clip_gradients", name="training.clip")
        for attr in ("step", "zero_grad"):
            self._patch(training.Adam, attr, name="training.optimizer")

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------
    def layer_times(self):
        """Per-op mean total and self ms for each span name. A span nested
        in a span of the same name adds to self time but not again to
        the name's total."""
        total = defaultdict(float)
        own = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total[name] += dur
        ops = max(self.ops, 1)
        return ({k: v * 1e3 / ops for k, v in total.items()},
                {k: v * 1e3 / ops for k, v in own.items()})

    def op_ms(self):
        return np.array([(end - start) * 1e3 for name, start, end, _, _
                         in self.spans if name == "op"])

    def per_op(self, key):
        return self.counts[key] / max(self.ops, 1)

    def write(self, path):
        """All spans as JSON: start/end in microseconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1),
                 parent, op] for name, s, e, parent, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_us", "end_us", "parent",
                                   "op"], "spans": rows}, fh)


def _scheme_span(model_, demos, test, candidates, plan, *args, **kwargs):
    return f"fusion.{plan.scheme}"
