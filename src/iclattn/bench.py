"""Wall-clock scaling benchmark for the two attention variants.

Times a single attention call on synthetic inputs per (variant, k, L)
cell, with warmup runs discarded. Dense cells whose score matrix would
exceed the memory ceiling are recorded as OOM instead of crashing.
Timing uses the monotonic high-resolution clock; keep BLAS single
threaded (OMP_NUM_THREADS=1 etc.) for a clean asymptotic comparison -
the CLI entry point does this before numpy loads.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .attention import (VARIANTS, full_attention, score_storage,
                        structured_attention)
from .segments import SegmentLayout, build_full_mask
from .tensor import Tensor

CSV_COLUMNS = ["variant", "k", "L", "mean_ms", "median_ms", "std_ms",
               "score_storage", "oom"]
# Every cell times 4 heads of 16 dimensions, the default model's shape.
HEADS, HEAD_DIM = 4, 16


@dataclass
class BenchSpec:
    k_grid: tuple = (2, 4, 8, 16, 32, 64, 128)
    lengths: tuple = (64,)
    repetitions: int = 10
    warmup: int = 2
    variants: tuple = ("structured", "full")
    mem_budget_bytes: float = 1.0e9
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 3 or self.warmup < 0:
            raise ValueError("repetitions must be >= 3 and warmup >= 0")
        if not 0 < self.mem_budget_bytes < np.inf:  # nan fails too
            raise ValueError("mem_budget_bytes must be finite and > 0")
        if list(self.k_grid) != sorted(set(self.k_grid)):
            raise ValueError("k grid must be strictly increasing")
        if not set(self.variants) <= set(VARIANTS):
            raise ValueError(f"unknown variant in {self.variants}")
        if min(self.lengths) < 1 or min(self.k_grid) < 0:
            raise ValueError("lengths must be >= 1 and the k grid >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class BenchRecord:
    variant: str
    k: int
    L: int
    mean_ms: float
    median_ms: float
    std_ms: float
    score_storage: int
    oom: bool = False


def _dense_bytes(k, L):
    # score matrix + probability matrix, float64
    return 2 * HEADS * score_storage(k, L)["full"] * 8


def _time_cell(variant, k, L, spec, rng):
    T = (k + 1) * L
    shape = (HEADS, T, HEAD_DIM)
    q = Tensor(rng.standard_normal(shape))
    kk = Tensor(rng.standard_normal(shape))
    v = Tensor(rng.standard_normal(shape))
    layout = SegmentLayout(k, L, (L,) * (k + 1))
    if variant == "full":
        mask = build_full_mask(layout)
        run = lambda: full_attention(q, kk, v, mask)
    else:
        run = lambda: structured_attention(q, kk, v, layout)
    for _ in range(spec.warmup):
        run()
    times = []
    for _ in range(spec.repetitions):
        t0 = time.perf_counter()
        run()
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def run_bench(spec):
    """Benchmark every (variant, k, L) cell."""
    rng = np.random.default_rng(spec.seed)
    records = []
    for variant in spec.variants:
        for L in spec.lengths:
            for k in spec.k_grid:
                storage = score_storage(k, L)[variant]
                if variant == "full" and _dense_bytes(k, L) > spec.mem_budget_bytes:
                    records.append(BenchRecord(variant, k, L, float("nan"),
                                               float("nan"), float("nan"),
                                               storage, oom=True))
                    continue
                times = _time_cell(variant, k, L, spec, rng)
                records.append(BenchRecord(
                    variant, k, L, float(np.mean(times)),
                    float(np.median(times)), float(np.std(times)), storage))
    return records


def to_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r.variant, r.k, r.L, f"{r.mean_ms:.4f}",
                         f"{r.median_ms:.4f}", f"{r.std_ms:.4f}",
                         r.score_storage, "OOM" if r.oom else ""])
    return buf.getvalue()


def loglog_slope(records, variant, L):
    """Least-squares slope of log median time vs log k for one variant."""
    pts = [(r.k, r.median_ms) for r in records
           if r.variant == variant and r.L == L and not r.oom]
    if len(pts) < 2:
        raise ValueError(f"not enough feasible points for {variant} at L={L}")
    ks, ts = zip(*pts)
    return float(np.polyfit(np.log(ks), np.log(ts), 1)[0])
