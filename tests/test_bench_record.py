"""`tools/bench_record.py` summarizes the two parts of `setup_s`."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _run(pair, side, import_s, repeats):
    return {"workload": "w", "pair": pair, "side": side,
            "metrics": {"setup_s": import_s + sorted(repeats)[1]},
            "setup": {"import_s": import_s, "repeats_s": repeats}}


def test_setup_parts_are_summarized_beside_setup_s():
    runs = []
    for pair in range(4):
        runs.append(_run(pair, "base", 0.10 + 0.01 * pair, [0.2, 0.3, 0.1]))
        runs.append(_run(pair, "change", 0.12, [0.1, 0.05, 0.2]))
    directions = {"setup_s": ("s", "lower"), **bench_record.SETUP_PARTS}
    summary = bench_record.summarize(runs, directions)["w"]
    assert summary["setup_s.import_s"]["base"]["median"] == pytest.approx(0.115)
    assert summary["setup_s.import_s"]["change"]["median"] == pytest.approx(0.12)
    assert summary["setup_s.repeat_median_s"]["base"]["median"] == 0.2
    assert summary["setup_s.repeat_median_s"]["change"]["median"] == 0.1
    assert summary["setup_s.repeat_median_s"]["wins"] == 4
    rows = bench_record.table({"summary": {"w": summary}}).splitlines()
    assert [r.split(" | ")[1] for r in rows[2:]] == [
        "setup_s", "setup_s.import_s", "setup_s.repeat_median_s"]


def test_table_prints_the_base_quartile_spread():
    """The last column is the base side's q3 - q1, absolute and over its
    median, as the recorded tables in `CHANGES.md` quote it."""
    runs = []
    for pair, (b, c) in enumerate([(10.0, 9.0), (12.0, 9.5), (14.0, 10.0),
                                   (16.0, 10.5), (18.0, 11.0)]):
        runs.append({"workload": "w", "pair": pair, "side": "base",
                     "metrics": {"op_ms_p90": b}})
        runs.append({"workload": "w", "pair": pair, "side": "change",
                     "metrics": {"op_ms_p90": c}})
    summary = bench_record.summarize(runs, {"op_ms_p90": ("ms", "lower")})
    header, _, row = bench_record.table({"summary": summary}).splitlines()
    assert header.split(" | ")[-1] == "base quartile spread |"
    # base quartiles 12 and 16 around a median of 14
    assert row.split(" | ")[-1] == "4 (28.6%) |"
    assert row.split(" | ")[4:6] == ["-28.6%", "5/5"]
