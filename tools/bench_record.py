"""Record paired benchmark runs of HEAD and the uncommitted working tree.

Runs `perfbench/run.py` for ten pairs per workload, alternating which
side runs first, with a fresh seed per pair, and writes
`BENCH_<label>.json` at the repository root: every run's end-to-end
metrics, set-up parts and environment, and per metric each side's median
and quartiles, the change's wins out of ten and how much worse the
change's median is. The table it prints, also from a recorded file
with `--table`, adds whether the medians differ by more than the base
side's quartile spread, whether a claimed gain is met, and that spread.
`setup_s` is the interpreter's import time plus the
median of the run's set-up repeats; both parts are summarized beside it,
since import time alone moves by tens of milliseconds between runs of
unchanged code. After the pairs, it runs the tier-1 test command once in
each tree and records both wall times and pytest's summary lines; the
table adds them as a `tier-1` row. It also records each tree's
`wc -l src/iclattn/*.py` total, which the table adds as a `src lines`
row. A second table lists each side's per-run `peak_rss_mb` in pair
order, so a bimodal reading's mode counts can be read off it. Record
before committing the change.
Run from anywhere:

    python3 tools/bench_record.py --label mychange
    python3 tools/bench_record.py --table BENCH_mychange.json

The base side is `git archive` of HEAD unpacked in a temporary
directory, which leaves no worktree entry in `.git` behind if the
recording is interrupted. The change side is the working tree this
script lives in. `run.py` refuses a package imported from another tree,
so each side runs its own tree's `run.py` from its own root. The run
length, the workloads and the metric directions come from the working
tree's `BENCHMARK.json`.

Runs one benchmark process at a time; on a shared host, keep other work
off the machine while it records. Stopped by SIGTERM, it removes the
base tree and kills the benchmark or test process it was waiting on.
"""

import argparse
import datetime
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
PAIRS = 10
# The two parts of `setup_s`, summarized after it from each run's setup block.
SETUP_PARTS = {"setup_s.import_s": ("s", "lower"),
               "setup_s.repeat_median_s": ("s", "lower")}
# The tier-1 test command, run from a tree's root with `src` on PYTHONPATH.
TIER1_ARGS = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_TIMEOUT_S = 1800


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def unpack(rev, dest):
    """The committed files of `rev` under `dest`."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree, workload, seed, seconds):
    """One untraced `run.py` run in `tree`: (report, result) as parsed
    from its `report {...}` line and its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    reports = [ln for ln in lines if ln.startswith("report ")]
    if not lines or not reports:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(reports[-1][len("report "):]), json.loads(lines[-1])


def run_tier1(tree):
    """The tier-1 command once in `tree`: its wall time, exit code and
    pytest's last line (the pass/fail summary)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1_ARGS], cwd=tree, env=env,
                          capture_output=True, text=True,
                          timeout=TIER1_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit": done.returncode,
            "summary": lines[-1] if lines else ""}


def src_lines(tree):
    """The total of `wc -l src/iclattn/*.py` in `tree`."""
    return sum(p.read_bytes().count(b"\n")
               for p in Path(tree, "src", "iclattn").glob("*.py"))


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def run_value(run, name):
    """A run's end-to-end metric `name`, or one of `SETUP_PARTS`."""
    if name == "setup_s.import_s":
        return run["setup"]["import_s"]
    if name == "setup_s.repeat_median_s":
        return statistics.median(run["setup"]["repeats_s"])
    return run["metrics"][name]


def summarize(runs, directions):
    """Per workload and metric: each side's median and quartiles, wins
    (ties count for neither side) and the change's "worse by"."""
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == wl:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        out[wl] = {}
        for name, (unit, better) in directions.items():
            sign = 1 if better == "lower" else -1
            base = [run_value(p["base"], name) for p in pairs]
            change = [run_value(p["change"], name) for p in pairs]
            wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
            sb, sc = quartiles(base), quartiles(change)
            out[wl][name] = {
                "unit": unit, "better": better, "base": sb, "change": sc,
                "wins": wins, "pairs": len(pairs),
                "worse_by": sign * (sc["median"] - sb["median"]) / sb["median"],
                "gap_exceeds_base_iqr":
                    abs(sc["median"] - sb["median"]) > sb["q3"] - sb["q1"],
            }
    return out


def claim_met(m):
    """Whether one metric's summary `m` supports a claimed gain: the
    change won at least nine tenths of the pairs, and its median is
    better than the base's, in the metric's own direction, by more than
    the base side's quartile spread. Read from the fields every recorded
    summary stores."""
    base, change = m["base"], m["change"]
    sign = 1 if m["better"] == "lower" else -1
    gain = sign * (base["median"] - change["median"])
    return 10 * m["wins"] >= 9 * m["pairs"] and gain > base["q3"] - base["q1"]


def table(record):
    """The markdown table that `CHANGES.md` quotes. The last column is the
    base side's quartile spread, absolute and over its median. The column
    `gap above spread` says whether the medians are further apart than
    that spread in either direction (`gap_exceeds_base_iqr`); `claim met`
    reads `yes` only for a gain, by `claim_met`. The `tier-1` and
    `src lines` rows, one reading per side, put `-` under the wins and
    the gap and leave the rest empty."""
    rows = ["| workload | metric | base | change | worse by | change wins "
            "| gap above spread | claim met | base quartile spread |",
            "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for wl, metrics in record["summary"].items():
        for name, m in metrics.items():
            cell = [f"{m[s]['median']:.5g} [{m[s]['q1']:.5g}-{m[s]['q3']:.5g}]"
                    for s in ("base", "change")]
            base = m["base"]
            spread = base["q3"] - base["q1"]
            rows.append(f"| {wl} | {name} | {cell[0]} | {cell[1]} | "
                        f"{m['worse_by']:+.1%} | {m['wins']}/{m['pairs']} | "
                        f"{'yes' if m['gap_exceeds_base_iqr'] else 'no'} | "
                        f"{'yes' if claim_met(m) else 'no'} | "
                        f"{spread:.4g} ({spread / base['median']:.1%}) |")
    if "tier1" in record:       # one run per side: no wins, no spread
        t = record["tier1"]
        base, change = t["base"]["wall_s"], t["change"]["wall_s"]
        rows.append(f"| tier-1 | wall_s | {base:.1f} | {change:.1f} | "
                    f"{(change - base) / base:+.1%} | - | - |")
    if "src_lines" in record:   # one count per side
        base, change = record["src_lines"]["base"], record["src_lines"]["change"]
        rows.append(f"| src lines | wc -l | {base} | {change} | "
                    f"{(change - base) / base:+.1%} | - | - |")
    return "\n".join(rows)


def rss_by_pair(record):
    """The markdown table of every run's `peak_rss_mb`, one row per
    workload and side, in pair order."""
    rows = ["| workload | side | peak_rss_mb by pair |", "| --- | --- | --- |"]
    for wl in record["summary"]:
        for side in ("base", "change"):
            runs = sorted((r for r in record["runs"]
                           if r["workload"] == wl and r["side"] == side),
                          key=lambda r: r["pair"])
            rows.append(f"| {wl} | {side} | " + ", ".join(
                f"{r['metrics']['peak_rss_mb']:.2f}" for r in runs) + " |")
    return "\n".join(rows)


def record(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {}
    for m in spec["end_to_end"]:
        directions[m["name"]] = (m["unit"], m["better"])
        if m["name"] == "setup_s":
            directions.update(SETUP_PARTS)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    base_commit = git("rev-parse", "HEAD").strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        unpack(base_commit, tmp)
        trees = {"base": tmp, "change": str(ROOT)}
        for tree in trees.values():     # no side pays compilation in setup_s
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                            "perfbench"], cwd=tree, check=True)
        for wl in workloads:
            for i in range(PAIRS):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    report, result = run_once(trees[side], wl, seed, seconds)
                    runs.append({
                        "workload": wl, "pair": i, "seed": seed, "side": side,
                        "first": side == order[0],
                        "correct": result["correct"],
                        "failed": result["failed"],
                        "attempted": result["attempted"],
                        "metrics": {k: v["value"]
                                    for k, v in result["metrics"].items()},
                        "ops": report["samples"]["ops"],
                        "setup": report["setup"],
                        "environment": report["environment"],
                    })
                    print(f"{wl} pair {i} seed {seed} {side}: "
                          f"{runs[-1]['metrics']}", flush=True)
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        tier1 = {"command": "PYTHONPATH=src python " + " ".join(TIER1_ARGS)}
        for side, tree in trees.items():
            tier1[side] = run_tier1(tree)
            print(f"tier-1 {side}: {tier1[side]['wall_s']:.1f} s, "
                  f"{tier1[side]['summary']}", flush=True)
    out = {
        "label": args.label,
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
                               .isoformat(timespec="seconds"),
        "base": {"commit": base_commit},
        "change": {"dirty": bool(git("status", "--porcelain", "--", "src"))},
        "settings": {"pairs": PAIRS, "seconds": seconds,
                     "first_seed": args.seed, "workloads": workloads,
                     "command": spec["command"]},
        "runs": runs,
        "summary": summarize(runs, directions),
        "tier1": tier1,
        "src_lines": lines,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(table(out) + "\n\n" + rss_by_pair(out))
    print(f"wrote {path}")
    return 0 if all(r["correct"] for r in runs) else 1


def exit_on_sigterm(signum, frame):
    """SIGTERM as SystemExit, so that `with` blocks unwind: the base
    tree's temporary directory is removed, and `subprocess.run` kills its
    running child before re-raising."""
    raise SystemExit(128 + signum)


def main(argv):
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", help="names the output file BENCH_<label>.json")
    p.add_argument("--seed", type=int, default=1501, help="first pair's seed")
    p.add_argument("--table", metavar="BENCH_FILE",
                   help="print the table of a recorded file and exit")
    args = p.parse_args(argv)
    if args.table:
        recorded = json.loads(Path(args.table).read_text())
        print(table(recorded) + "\n\n" + rss_by_pair(recorded))
        return 0
    if not args.label:
        p.error("--label or --table is required")
    return record(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
