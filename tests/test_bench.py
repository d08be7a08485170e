import math

import numpy as np
import pytest

from iclattn.attention import score_storage
from iclattn.bench import (HEADS, BenchRecord, BenchSpec, loglog_slope,
                           run_bench, to_csv)


def tiny_spec(**kw):
    kw.setdefault("k_grid", (1, 2))
    kw.setdefault("lengths", (4,))
    kw.setdefault("repetitions", 3)
    kw.setdefault("warmup", 1)
    return BenchSpec(**kw)


class TestSpec:
    def test_repetitions_floor(self):
        with pytest.raises(ValueError):
            BenchSpec(repetitions=2)

    def test_k_grid_must_increase(self):
        with pytest.raises(ValueError):
            BenchSpec(k_grid=(4, 2))
        with pytest.raises(ValueError):
            BenchSpec(k_grid=(2, 2, 4))


class TestRunBench:
    def test_one_cell_one_record(self):
        records = run_bench(tiny_spec(k_grid=(2,), variants=("structured",)))
        assert len(records) == 1
        r = records[0]
        assert (r.variant, r.k, r.L) == ("structured", 2, 4)
        assert r.median_ms > 0 and not r.oom

    def test_record_count(self):
        records = run_bench(tiny_spec())
        assert len(records) == 2 * 2   # variants x k grid

    def test_score_storage_column_matches_formula(self):
        for r in run_bench(tiny_spec()):
            assert r.score_storage == score_storage(r.k, r.L)[r.variant]

    def test_oom_flagged_not_crashed(self):
        # float64 scores and probabilities of every head at k=1, L=4
        budget = 2 * HEADS * score_storage(1, 4)["full"] * 8
        spec = tiny_spec(k_grid=(1, 2), mem_budget_bytes=budget)
        records = run_bench(spec)
        full = {r.k: r for r in records if r.variant == "full"}
        assert not full[1].oom
        assert full[2].oom and math.isnan(full[2].median_ms)
        structured = [r for r in records if r.variant == "structured"]
        assert not any(r.oom for r in structured)

    def test_csv_output(self):
        records = run_bench(tiny_spec())
        lines = to_csv(records).strip().splitlines()
        assert lines[0] == "variant,k,L,mean_ms,median_ms,std_ms,score_storage,oom"
        assert len(lines) == len(records) + 1


class TestCsv:
    def test_oom_cell_marked(self):
        rec = BenchRecord("full", 8, 64, float("nan"), float("nan"),
                          float("nan"), 1, oom=True)
        line = to_csv([rec]).strip().splitlines()[1]
        assert line.endswith("OOM")

    def test_stable_formatting(self):
        rec = BenchRecord("structured", 2, 4, 1.23456, 1.2, 0.01, 112)
        assert to_csv([rec]).strip().splitlines()[1] == \
            "structured,2,4,1.2346,1.2000,0.0100,112,"


class TestSlope:
    def synthetic(self, exponent):
        return [BenchRecord("structured", k, 64, 0.0, 0.5 * k ** exponent,
                            0.0, 0) for k in (2, 4, 8, 16)]

    def test_recovers_known_exponent(self):
        for e in (1.0, 2.0):
            assert loglog_slope(self.synthetic(e), "structured", 64) == \
                pytest.approx(e, abs=1e-9)

    def test_skips_oom_points(self):
        records = self.synthetic(1.0)
        records.append(BenchRecord("structured", 32, 64, float("nan"),
                                   float("nan"), float("nan"), 0, oom=True))
        assert loglog_slope(records, "structured", 64) == pytest.approx(1.0, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            loglog_slope(self.synthetic(1.0)[:1], "structured", 64)
