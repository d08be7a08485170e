"""Tests for the benchmark harness, at tiny sizes. From the repository
root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import hostenv  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = [name for name, _ in spec.WORKLOADS + spec.UNGATED_WORKLOADS]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_generated_from_spec():
    assert _bench_json() == spec.benchmark_json()


def test_benchmark_json_within_contract_limits():
    bench = _bench_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    assert all(NAME_RE.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_inputs(name):
    a = workloads.start(name, 7, smoke=True)
    b = workloads.start(name, 7, smoke=True)
    c = workloads.start(name, 8, smoke=True)
    assert workloads.digest(a.inputs()) == workloads.digest(b.inputs())
    assert workloads.digest(a.inputs()) != workloads.digest(c.inputs())
    assert a.check_value() == b.check_value()


def _traced_counts(name, ops=3):
    run = workloads.start(name, 3, smoke=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(ops):
            start = tracer.begin_op(i)
            run.op()
            tracer.end_op(start)
    finally:
        tracer.uninstall()
    return dict(tracer.counts), tracer


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(name):
    first, _ = _traced_counts(name)
    second, _ = _traced_counts(name)
    assert first == second
    assert first["tensor.nodes"] > 0 and first["attention.calls"] > 0


def test_eval_fusion_pass_counts():
    # per episode at k=8 with 4 candidates: single 1 encoder + 4 decoder
    # passes, fid 8 + 4, group_fid G=4 4 + 4, ensemble G=4 4 x (1 + 4)
    counts, tracer = _traced_counts("eval-fusion", ops=2)
    assert tracer.per_op("model.encoder_passes") == 17
    assert tracer.per_op("model.decoder_passes") == 28


def test_uninstall_restores_the_package():
    from iclattn import attention, model, tensor

    before = (tensor._result, tensor.contract, attention.contract,
              model.EncoderDecoder.encode)
    tracer = tracing.Tracer()
    tracer.install()
    assert attention.contract is not before[2]
    tracer.uninstall()
    assert (tensor._result, tensor.contract, attention.contract,
            model.EncoderDecoder.encode) == before


def test_self_time_subtracts_children_and_skips_nested_repeats():
    tracer = tracing.Tracer()
    tracer.spans = [("op", 0.0, 10.0, -1, 0),
                    ("a", 1.0, 7.0, 0, 0),
                    ("a", 2.0, 4.0, 1, 0),     # nested in a span of its name
                    ("b", 4.0, 5.0, 1, 0)]
    tracer.ops = 1
    total, own = tracer.layer_times()
    assert total["a"] == pytest.approx(6e3) and own["a"] == pytest.approx(5e3)
    assert total["b"] == pytest.approx(1e3) and own["op"] == pytest.approx(4e3)


class _FlakyRun:
    def __init__(self, outcomes):
        self.outcomes = iter(outcomes)

    def op(self):
        out = next(self.outcomes, 1.0)
        if isinstance(out, Exception):
            raise out
        return out, 5


def test_run_ops_counts_raising_and_non_finite_ops_as_failed():
    samples = harness.Samples()
    run = _FlakyRun([1.0, RuntimeError("boom"), float("nan"), 2.0])
    while samples.attempted < 4:
        harness.run_ops(run, 0.0001, samples)
    assert samples.failed == 2
    assert samples.tokens == 5 * len(samples.ms)
    assert "boom" in samples.first_error


def test_blas_env_pin_check(monkeypatch):
    for var in hostenv.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert hostenv.blas_env_pinned()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert not hostenv.blas_env_pinned()


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_named_metric(name, trace):
    done = _run(["--workload", name, "--seed", "2", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _bench_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
