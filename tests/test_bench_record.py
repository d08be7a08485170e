"""`tools/bench_record.py` summarizes `setup_s`, its two parts, the
tier-1 wall times and the line count of `src/`."""

import importlib.util
import json
import os
import subprocess
import sys
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


def test_table_prints_whether_the_gap_exceeds_the_spread():
    """The column before the spread is `summarize`'s verdict on whether
    the medians lie further apart than the base side's quartiles: `yes`
    for a median 25% lower against a 10% spread, `no` for one 5% lower."""
    runs = []
    for pair, b in enumerate([9.0, 9.5, 10.0, 10.5, 11.0]):
        runs.append({"workload": "w", "pair": pair, "side": "base",
                     "metrics": {"op_ms_p90": b, "op_ms_p50": b}})
        runs.append({"workload": "w", "pair": pair, "side": "change",
                     "metrics": {"op_ms_p90": b * 0.75,
                                 "op_ms_p50": b * 0.95}})
    summary = bench_record.summarize(runs, {"op_ms_p90": ("ms", "lower"),
                                            "op_ms_p50": ("ms", "lower")})
    header, _, fast, slight = bench_record.table(
        {"summary": summary}).splitlines()
    assert header.split(" | ")[5:7] == ["change wins", "gap above spread"]
    assert fast.split(" | ")[5:] == ["5/5", "yes", "yes", "1 (10.0%) |"]
    assert slight.split(" | ")[5:] == ["5/5", "no", "no", "1 (10.0%) |"]


def test_claim_met_needs_nine_tenths_of_wins_and_a_better_median():
    """`claim met` reads `yes` only when the change wins at least 9 of 10
    pairs and its median is better, in the metric's direction, by more
    than the base quartile spread. A metric that got worse by more than
    the spread reads `yes` under `gap above spread` but `no` here, and so
    does a large gain won in only 8 of 10 pairs."""
    runs = []
    for pair, b in enumerate([9.0, 9.5, 10.0, 10.5, 11.0] * 2):
        lost = pair >= 8
        runs.append({"workload": "w", "pair": pair, "side": "base",
                     "metrics": {"op_ms_p90": b, "tokens_per_s": b,
                                 "peak_rss_mb": b, "setup_s": b}})
        runs.append({"workload": "w", "pair": pair, "side": "change",
                     "metrics": {"op_ms_p90": b * 0.75,
                                 "tokens_per_s": b * 1.25,
                                 "peak_rss_mb": b * 1.25,
                                 "setup_s": b * (1.01 if lost else 0.75)}})
    summary = bench_record.summarize(runs, {
        "op_ms_p90": ("ms", "lower"), "tokens_per_s": ("tokens/s", "higher"),
        "peak_rss_mb": ("MB", "lower"), "setup_s": ("s", "lower")})
    header, _, *rows = bench_record.table({"summary": summary}).splitlines()
    assert header.split(" | ")[6:8] == ["gap above spread", "claim met"]
    verdicts = {r.split(" | ")[1]: r.split(" | ")[5:8] for r in rows}
    assert verdicts == {"op_ms_p90": ["10/10", "yes", "yes"],
                        "tokens_per_s": ["10/10", "yes", "yes"],
                        "peak_rss_mb": ["0/10", "yes", "no"],
                        "setup_s": ["8/10", "yes", "no"]}


def test_recorded_files_print_the_claim_verdict():
    """Every committed `BENCH_*.json` still prints, the new column read
    from the fields it stores. In `BENCH_pr19.json` the `train-desk`
    `op_ms_p90` gain is met, and its `peak_rss_mb`, worse by more than
    the spread, is not."""
    root = _PATH.parent.parent
    for path in sorted(root.glob("BENCH_*.json")):
        bench_record.table(json.loads(path.read_text()))
    rows = bench_record.table(json.loads(
        (root / "BENCH_pr19.json").read_text())).splitlines()
    verdicts = {r.split(" | ")[1]: r.split(" | ")[6:8]
                for r in rows if r.startswith("| train-desk |")}
    assert verdicts["op_ms_p90"] == ["yes", "yes"]
    assert verdicts["peak_rss_mb"] == ["yes", "no"]


def test_table_prints_the_tier1_wall_times():
    """A record with tier-1 runs gets one `tier-1` row after the metric
    rows: each side's wall time and how much slower the change ran. Older
    records without them print no such row."""
    runs = [{"workload": "w", "pair": pair, "side": side,
             "metrics": {"op_ms_p90": 10.0}}
            for pair in range(2) for side in ("base", "change")]
    summary = bench_record.summarize(runs, {"op_ms_p90": ("ms", "lower")})
    record = {"summary": summary,
              "tier1": {"command": "PYTHONPATH=src python -m pytest -q",
                        "base": {"wall_s": 120.0, "exit": 0,
                                 "summary": "378 passed in 119.80s"},
                        "change": {"wall_s": 114.04, "exit": 0,
                                   "summary": "379 passed in 113.90s"}}}
    rows = bench_record.table(record).splitlines()
    assert rows[-1] == "| tier-1 | wall_s | 120.0 | 114.0 | -5.0% | - | - |"
    del record["tier1"]
    assert "tier-1" not in bench_record.table(record)


def test_run_tier1_records_wall_time_exit_and_summary(tmp_path):
    """`run_tier1` runs pytest from the tree's root with `src` on the
    path, and keeps the exit code and the summary line."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe_pkg.py").write_text("VALUE = 3\n")
    (tmp_path / "test_probe.py").write_text(
        "import probe_pkg\n\n\ndef test_value():\n"
        "    assert probe_pkg.VALUE == 3\n")
    got = bench_record.run_tier1(tmp_path)
    assert got["exit"] == 0
    assert got["summary"].startswith("1 passed")
    assert got["wall_s"] > 0


def test_src_lines_are_recorded_and_tabled(tmp_path):
    """`src_lines` counts newlines as `wc -l src/iclattn/*.py` does, and a
    record with both counts gets one `src lines` row; older records
    without them print no such row."""
    pkg = tmp_path / "src" / "iclattn"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not counted\n")
    assert bench_record.src_lines(tmp_path) == 3
    runs = [{"workload": "w", "pair": pair, "side": side,
             "metrics": {"op_ms_p90": 10.0}}
            for pair in range(2) for side in ("base", "change")]
    record = {"summary": bench_record.summarize(
        runs, {"op_ms_p90": ("ms", "lower")}),
        "src_lines": {"base": 2544, "change": 2523}}
    rows = bench_record.table(record).splitlines()
    assert rows[-1] == "| src lines | wc -l | 2544 | 2523 | -0.8% | - | - |"
    del record["src_lines"]
    assert "src lines" not in bench_record.table(record)


def test_sigterm_removes_the_base_tree(tmp_path):
    """After `main` has run, SIGTERM unwinds the process as SystemExit:
    a child that opens the base tree's temporary directory and sends
    itself SIGTERM exits non-zero and leaves no directory behind."""
    record = tmp_path / "BENCH_empty.json"
    record.write_text('{"summary": {}}')
    code = (
        "import importlib.util, os, signal, sys, tempfile, time\n"
        f"spec = importlib.util.spec_from_file_location('br', {str(_PATH)!r})\n"
        "br = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(br)\n"
        "br.main(['--table', sys.argv[1]])\n"
        "with tempfile.TemporaryDirectory(prefix='bench-base-'):\n"
        "    os.kill(os.getpid(), signal.SIGTERM)\n"
        "    time.sleep(30)\n")
    done = subprocess.run([sys.executable, "-c", code, str(record)],
                          env=dict(os.environ, TMPDIR=str(tmp_path)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert list(tmp_path.glob("bench-base-*")) == []
