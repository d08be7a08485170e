"""Run acceptance criterion 6's recipe over several variants and seeds.

Each run trains one variant on the lookup family from model seed s with
`TrainConfig(steps=3000, seed=s)`, then evaluates it at k=2, 4 and 8
over 100 episodes for each of the 5 default demonstration seeds, as
criterion 6 does at s=0. Runs go in fresh processes, two at a time, with
BLAS pinned to one thread, and import the package from this tree's
`src`. Prints a markdown table: per run, the mean accuracy at k=8, the
trained weights' `weight_fingerprint` and the run's wall seconds.

    python3 tools/seed_sweep.py --variants structured --seeds 0 1 2 3 4

The acceptance tests' `trained_models` fixture trains criterion 6's two
models through `sweep`, so the gate and this table share one recipe.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2
STEPS = 3000
# One run: argv is variant, seed, steps and a path to save the trained
# model to ("" saves nothing); prints one JSON object.
RUN = """\
import dataclasses, json, sys, time
from iclattn.model import EncoderDecoder, ModelConfig
from iclattn.tasks import make_family
from iclattn.training import TrainConfig, evaluate, train
variant, seed, steps, path = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
t0 = time.monotonic()
family = make_family("lookup")
model = EncoderDecoder(ModelConfig(variant=variant), seed=seed)
train(model, family, TrainConfig(steps=steps, seed=seed))
if path:
    model.save(path)
evals = {tk: dataclasses.asdict(evaluate(model, family, tk, episodes=100))
         for tk in (2, 4, 8)}
print(json.dumps({"evals": evals, "fingerprint": model.weight_fingerprint(),
                  "seconds": time.monotonic() - t0}))
"""


def run_one(variant, seed, steps, path=""):
    """One run in a fresh process, saving the trained model to `path` if
    one is given; its JSON result, with `evals` keyed by int k."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", RUN, variant, str(seed), str(steps), str(path)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{variant} seed {seed} exited {proc.returncode}:"
                           f"\n{proc.stderr}")
    result = json.loads(proc.stdout)
    result["evals"] = {int(tk): r for tk, r in result["evals"].items()}
    return result


def sweep(variants, seeds, steps=STEPS, save_dir=None):
    """[(variant, seed, result)] for every variant and seed, in that
    order, run JOBS at a time. With `save_dir`, each trained model is
    saved there as `{variant}-{seed}.npz`."""
    cases = [(v, s) for v in variants for s in seeds]

    def run(case):
        v, s = case
        return run_one(v, s, steps, Path(save_dir, f"{v}-{s}.npz")
                       if save_dir else "")

    with ThreadPoolExecutor(JOBS) as pool:
        return [(v, s, r) for (v, s), r in zip(cases, pool.map(run, cases))]


def table(rows):
    lines = ["| variant | seed | accuracy | weight_fingerprint | seconds |",
             "| --- | --- | --- | --- | --- |"]
    lines += [f"| {v} | {s} | {r['evals'][8]['mean']:.3f} | "
              f"{r['fingerprint']} | {r['seconds']:.1f} |" for v, s, r in rows]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variants", nargs="+", default=["structured"],
                        choices=("structured", "full"))
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    args = parser.parse_args(argv)
    print(table(sweep(args.variants, args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
