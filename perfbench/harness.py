"""Measure one workload: set it up several times, run the timed closed
loop, check its outputs, and print the metrics.

Imported by run.py after the BLAS thread variables are pinned.
"""

import json
import resource
import sys
import time
import traceback

import numpy as np

import iclattn
import hostenv
import spec
import tracing
import workloads

SETUP_REPEATS = 5
TRACE_BLOCK_S = 1.0     # traced and untraced blocks alternate in a trace run
SMOKE_TRACE_BLOCK_S = 0.1


class Samples:
    """Op latencies and outcomes of one timed loop (or its blocks)."""

    def __init__(self):
        self.ms = []
        self.failed = 0
        self.tokens = 0
        self.wall = 0.0
        self.first_error = None

    @property
    def attempted(self):
        return len(self.ms) + self.failed


def run_ops(run, seconds, samples, tracer=None):
    """Closed loop for `seconds`: one op at a time, each starting when the
    previous returns. An op fails if it raises or returns a non-finite
    value; failed ops add no latency sample."""
    began = time.perf_counter()
    deadline = began + seconds
    while time.perf_counter() < deadline:
        if tracer is not None:
            t0 = tracer.begin_op(samples.attempted)
        else:
            t0 = time.perf_counter()
        try:
            value, tokens = run.op()
            error = None
        except Exception:   # a failed op is counted, and the loop goes on
            error = traceback.format_exc()
        t1 = tracer.end_op(t0) if tracer is not None else time.perf_counter()
        if error is None and not np.all(np.isfinite(value)):
            error = f"non-finite output {value!r}"
        if error is None:
            samples.ms.append((t1 - t0) * 1e3)
            samples.tokens += tokens
        else:
            samples.failed += 1
            samples.first_error = samples.first_error or error
    samples.wall += time.perf_counter() - began


def run_interleaved(run, seconds, tracer, block_s, plain, traced):
    """Alternate untraced and traced blocks, so tracing overhead is
    measured under the same host conditions as the untraced ops."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run_ops(run, block_s, plain)
        tracer.install()
        try:
            run_ops(run, block_s, traced, tracer)
        finally:
            tracer.uninstall()


def _percentile(xs, q):
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def _median(xs):
    return _percentile(xs, 50)


def end_to_end(samples, setup_s, failed_frac):
    return {
        "setup_s": setup_s,
        "op_ms_p50": _percentile(samples.ms, 50),
        "op_ms_p90": _percentile(samples.ms, 90),
        "tokens_per_s": samples.tokens / samples.wall if samples.wall else 0.0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed_frac,
    }


def per_layer(tracer, plain, traced, cells, calib):
    total, own = tracer.layer_times()
    out = {}
    for span in spec.SPANS:
        out[f"{span}_ms"] = total.get(span, 0.0)
        out[f"{span}_self_ms"] = own.get(span, 0.0)
    positions = tracer.counts["model.encoder_positions"]
    op_p50 = _median(traced.ms)
    plain_p50 = _median(plain.ms)
    out.update({
        "tensor.nodes_per_op": tracer.per_op("tensor.nodes"),
        "tensor.node_mb_per_op": tracer.per_op("tensor.node_bytes") / 1e6,
        "tensor.contract_calls": tracer.per_op("tensor.contract_calls"),
        "attention.calls": tracer.per_op("attention.calls"),
        "attention.score_entries_per_op":
            tracer.per_op("attention.score_entries"),
        "model.encoder_passes_per_op": tracer.per_op("model.encoder_passes"),
        "model.decoder_passes_per_op": tracer.per_op("model.decoder_passes"),
        "model.pad_frac": (tracer.counts["model.encoder_pad"] / positions
                           if positions else 0.0),
        "trace.op_ms_p50": op_p50,
        "trace.overhead_frac": op_p50 / plain_p50 - 1 if plain_p50 else 0.0,
        "trace.self_sum_frac": (sum(own.get(s, 0.0) for s in spec.SPANS)
                                / op_p50 if op_p50 else 0.0),
        "host.calib_before_ms": calib[0],
        "host.calib_after_ms": calib[1],
    })
    out.update(cells)
    return out


def run(name, seed, seconds, trace, smoke, start):
    """Measure workload `name`; print the report and the result line.
    Returns the process exit code."""
    threads = hostenv.blas_threads()
    if threads not in (1, None) or not hostenv.blas_env_pinned():
        print(f"refused: BLAS runs {threads} threads; the benchmark needs 1",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    root = hostenv.repo_root()
    env = hostenv.environment(root, seed, threads)
    calib_before = hostenv.calibrate()

    # Set up from scratch before each of SETUP_REPEATS loop segments, so
    # set-up time samples the host over the whole run as the ops do. The
    # first set-up is the one the timed loop runs on.
    tracer = tracing.Tracer() if trace else None
    block = SMOKE_TRACE_BLOCK_S if smoke else TRACE_BLOCK_S
    plain, samples = Samples(), Samples()
    setup_times, check_values, digests, run_ = [], [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh = workloads.start(name, seed, smoke)
        setup_times.append(time.perf_counter() - t0)
        check_values.append(fresh.check_value())
        digests.append(workloads.digest(fresh.inputs()))
        run_ = run_ or fresh
        fresh = None
        if trace:
            run_interleaved(run_, seconds / SETUP_REPEATS, tracer, block,
                            plain, samples)
        else:
            run_ops(run_, seconds / SETUP_REPEATS, samples)
    setup_s = import_s + _median(setup_times)

    checks = run_.checks() + [
        ("setup_repeats_agree",
         len(set(check_values)) == 1 and len(set(digests)) == 1,
         {"check_values": check_values})]
    cells, oom = workloads.kernel_cells(seed, smoke) if trace else ({}, [])
    calib_after = hostenv.calibrate()

    failed_checks = [c for c in checks if not c[1]]
    attempted = samples.attempted + len(checks)
    failed = samples.failed + len(failed_checks)
    if trace:
        metrics = per_layer(tracer, plain, samples, cells,
                            (calib_before, calib_after))
        spans_file = root / ".bench_out" / f"spans-{name}-seed{seed}.json"
        tracer.write(spans_file)
    else:
        metrics = end_to_end(samples, setup_s, failed / attempted)
        spans_file = None

    units = spec.units(trace)
    printed = units if trace else {**units, **dict(spec.REPORTED)}
    report = {
        "workload": name, "trace": trace, "smoke": smoke,
        "seconds": seconds, "environment": env,
        "samples": {"ops": len(samples.ms), "failed_ops": samples.failed,
                    "timed_wall_s": samples.wall},
        "failed_frac": failed / attempted,
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "check_value": check_values[-1],
        "checks": [{"name": c[0], "ok": c[1], "detail": c[2]} for c in checks],
        "host_calib_ms": {"before": calib_before, "after": calib_after},
        "kernel_cells_oom": oom,
        "spans_file": str(spans_file.relative_to(root)) if spans_file else None,
        "first_error": samples.first_error,
    }
    print(f"# {name}  seed={seed}  trace={int(trace)}  ops={len(samples.ms)}  "
          f"failed={failed}/{attempted}  failed_frac={failed / attempted:.4g}")
    for key, unit in printed.items():
        gate = "" if key in units else "  (not gated)"
        print(f"  {key:<34} {metrics[key]:>14.6g} {unit}{gate}")
    for c in failed_checks:
        print(f"  CHECK FAILED: {c[0]}: {c[2]}")
    if samples.first_error:
        print(f"  first op error: {samples.first_error}", file=sys.stderr)
    print("report " + json.dumps(report, default=float))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1
