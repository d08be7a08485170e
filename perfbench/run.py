"""Benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
every workload in its own process, one after another.

Exit codes: 0 when every op and check passed, 1 when one failed, 2 when
the run is refused (BLAS not pinned to one thread, package source
missing).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostenv  # noqa: E402
import spec  # noqa: E402

NAMES = [name for name, _ in spec.WORKLOADS + spec.UNGATED_WORKLOADS]
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def run_all(args):
    """Each workload in a child process, so set-up time and peak memory
    are each workload's own. Prints every child's output, then one
    combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {done.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    hostenv.pin_blas_threads()
    src = hostenv.repo_root() / "src"
    if not (src / "iclattn" / "__init__.py").is_file():
        print(f"refused: package source not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # imports numpy and the package: after pinning BLAS
    loaded = Path(harness.iclattn.__file__).resolve()
    if src.resolve() not in loaded.parents:
        print(f"refused: iclattn imported from {loaded}, not from {src}",
              file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke, START)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
