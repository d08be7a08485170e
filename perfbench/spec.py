"""What the benchmark measures: workloads, metrics, units, bounds, and
for each per-layer metric the layer it belongs to and the end-to-end
metric and workload it should move.

`BENCHMARK.json` at the repository root is generated from this file:

    python3 perfbench/spec.py
"""

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 50

# Gated workloads, listed in BENCHMARK.json.
WORKLOADS = [
    ("train-desk",
     "train_step on lookup, structured, B=8 k=8 T=18, 136 prompt tokens "
     "per op: Python, tape and optimizer overhead dominate; attention "
     "kernels barely show"),
    ("train-long",
     "train_step on copy seq_len=8, structured, B=2 k=32 L=16 T=528, 1040 "
     "prompt tokens per op: the long-prompt regime where attention forward "
     "and backward dominate"),
]

# Runnable with the same command, but not gated: its op time swung by up
# to 1.8x within a minute with the host's load, wider than any bound.
UNGATED_WORKLOADS = [
    ("eval-fusion",
     "one lookup episode at k=8, 17 prompt tokens per op, scored by "
     "single, fid, group_fid G=4 and ensemble G=4: forward only, one "
     "decoder pass per candidate"),
]

# Gated: (name, unit, better, bound). The host has 2 cores shared with
# other tenants and its speed drifts over seconds to minutes, so every
# timing gets the largest bound allowed; memory barely moves.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("tokens_per_s", "tokens/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# Printed with every untraced run, but not gated. The median op time is
# bimodal from run to run when the host flips between fast and slow
# stretches, which the p90 and the throughput average over; failed_frac
# reads 0 on a healthy run, and a failure already fails the run through
# `correct` and the exit code.
REPORTED = [("op_ms_p50", "ms"), ("failed_frac", "fraction")]

TRAIN = "train-desk and train-long"
EVAL = "eval-fusion (ungated)"

# name -> (unit, better, layer, the end-to-end metric and workload it
# should move)
PER_LAYER = {
    "tensor.nodes_per_op": (
        "count", "lower", "tensor", f"op_ms_p90 on train-desk and {EVAL}"),
    "tensor.node_mb_per_op": (
        "MB", "lower", "tensor", "peak_rss_mb on train-long"),
    "tensor.backward_ms": (
        "ms", "lower", "tensor", f"op_ms_p90 on {TRAIN}; 0 on {EVAL}"),
    "tensor.contract_ms": (
        "ms", "lower", "tensor", f"op_ms_p90 on {TRAIN} and {EVAL}"),
    "tensor.contract_calls": (
        "count", "lower", "tensor", f"op_ms_p90 on train-desk and {EVAL}"),
    "attention.structured_ms": (
        "ms", "lower", "attention",
        "op_ms_p90 and peak_rss_mb on train-long; barely train-desk"),
    "attention.full_ms": (
        "ms", "lower", "attention",
        f"op_ms_p90 on train-desk and {EVAL} (decoder self- and "
        "cross-attention)"),
    "attention.calls": (
        "count", "lower", "attention", f"op_ms_p90 on {EVAL}"),
    "attention.score_entries_per_op": (
        "count", "lower", "attention",
        "op_ms_p90 and peak_rss_mb on train-long"),
    "segments.bias_ms": (
        "ms", "lower", "segments", f"op_ms_p90 on train-desk and {EVAL}"),
    "model.encode_ms": (
        "ms", "lower", "model", f"op_ms_p90 on {TRAIN} and {EVAL}"),
    "model.decode_ms": (
        "ms", "lower", "model", f"op_ms_p90 on train-desk and {EVAL}"),
    "model.encoder_passes_per_op": (
        "count", "lower", "model", f"op_ms_p90 on {EVAL} only"),
    "model.decoder_passes_per_op": (
        "count", "lower", "model", f"op_ms_p90 on {EVAL} only"),
    "model.pad_frac": (
        "fraction", "lower", "model", "op_ms_p90 on train-long"),
    "fusion.pack_ms": ("ms", "lower", "fusion", f"op_ms_p90 on {EVAL}"),
    "fusion.single_ms": ("ms", "lower", "fusion", f"op_ms_p90 on {EVAL}"),
    "fusion.fid_ms": ("ms", "lower", "fusion", f"op_ms_p90 on {EVAL}"),
    "fusion.group_fid_ms": ("ms", "lower", "fusion", f"op_ms_p90 on {EVAL}"),
    "fusion.ensemble_ms": ("ms", "lower", "fusion", f"op_ms_p90 on {EVAL}"),
    "training.loss_ms": ("ms", "lower", "training", f"op_ms_p90 on {TRAIN}"),
    "training.clip_ms": ("ms", "lower", "training", "op_ms_p90 on train-desk"),
    "training.optimizer_ms": (
        "ms", "lower", "training", "op_ms_p90 on train-desk"),
}

# Kernel cells: one attention call at L=64, H=4, d=16, outside any workload.
for _variant, _moves in (("structured", "op_ms_p90 on train-long"),
                         ("full", "none: no workload runs the dense "
                                  "encoder kernel")):
    for _k in (8, 32):
        for _phase in ("fwd", "bwd"):
            PER_LAYER[f"attention.{_variant}.{_phase}_ms.k{_k}"] = (
                "ms", "lower", "attention", _moves)

# Every span time gets a self-time twin: the span minus its child spans.
SPANS = [name[:-3] for name, (unit, *_) in PER_LAYER.items()
         if unit == "ms" and name.count(".") == 1]
for _span in SPANS:
    unit, better, layer, moves = PER_LAYER[f"{_span}_ms"]
    PER_LAYER[f"{_span}_self_ms"] = (unit, better, layer, moves)

PER_LAYER.update({
    "trace.op_ms_p50": (
        "ms", "lower", "harness", "none: traced op time, the base of the "
                                  "two fractions below"),
    "trace.overhead_frac": (
        "fraction", "lower", "harness",
        "none: traced op_ms_p50 over untraced op_ms_p50, minus 1"),
    "trace.self_sum_frac": (
        "fraction", "higher", "harness",
        "none: layer self times summed, over trace.op_ms_p50"),
    "host.calib_before_ms": (
        "ms", "lower", "host", "none: flags a run the host disturbed"),
    "host.calib_after_ms": (
        "ms", "lower", "host", "none: flags a run the host disturbed"),
})


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, _, _) in PER_LAYER.items()],
    }


def units(trace):
    if trace:
        return {n: u for n, (u, *_) in PER_LAYER.items()}
    return {n: u for n, u, _, _ in END_TO_END}


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {out}")
