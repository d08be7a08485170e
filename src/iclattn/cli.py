"""Command-line entry point.

Subcommands: verify (property suites), train (meta-training), eval
(accuracy with a fusion scheme), bench (scaling benchmark, CSV), and
gen-data (synthetic episodes to JSON lines).

Exit codes: 0 success, 1 verification/eval failure, 2 usage error.
A flat key=value config file may supply defaults; flags take precedence.
The ICLATTN_SEED environment variable overrides any seed.
"""

import argparse
import os
import sys

# Timing-sensitive subcommands want single-threaded BLAS; must happen
# before numpy first loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import bench as bench_mod  # noqa: E402
from . import tasks, training, verify  # noqa: E402
from .fusion import FusionPlan  # noqa: E402
from .model import EncoderDecoder, ModelConfig  # noqa: E402

SEED_ENV = "ICLATTN_SEED"


def read_config_file(path):
    """Flat key=value lines; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


def _coerce(val, like):
    if isinstance(like, bool):
        return val.lower() in ("1", "true", "yes")
    if isinstance(like, int):
        return int(val)
    if isinstance(like, float):
        return float(val)
    if isinstance(like, tuple):
        return tuple(int(v) for v in val.split(","))
    return val


def apply_config(obj, values):
    for key, val in values.items():
        if hasattr(obj, key):
            setattr(obj, key, _coerce(val, getattr(obj, key)))


def _seed_override(seed):
    return int(os.environ[SEED_ENV]) if SEED_ENV in os.environ else seed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iclattn",
        description="Structured-attention in-context learner: verify, train, "
                    "evaluate, and benchmark at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    train_defaults = training.TrainConfig()

    p = sub.add_parser("verify", help="run oracle/invariance/gradient suites")
    p.add_argument("--quick", action="store_true", help="reduced instance counts")

    p = sub.add_parser("train", help="meta-train on a synthetic family")
    p.add_argument("--family", default="lookup", choices=sorted(tasks.FAMILIES))
    p.add_argument("--variant", default="structured", choices=("structured", "full"))
    p.add_argument("--steps", type=int, default=train_defaults.steps)
    p.add_argument("--batch-size", type=int, default=train_defaults.batch_size)
    p.add_argument("--lr", type=float, default=train_defaults.lr)
    p.add_argument("--train-k", type=int, default=train_defaults.train_k)
    p.add_argument("--seed", type=int, default=train_defaults.seed)
    p.add_argument("--optimizer", default=train_defaults.optimizer,
                   choices=("adam", "adafactor"))
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--log-csv", help="write step,loss,lr CSV here")
    p.add_argument("--checkpoint", help="save trained weights here (.npz)")

    p = sub.add_parser("eval", help="evaluate a model with a fusion scheme")
    p.add_argument("--family", default="lookup", choices=sorted(tasks.FAMILIES))
    p.add_argument("--checkpoint", help="trained model (.npz); fresh weights if omitted")
    p.add_argument("--variant", default="structured", choices=("structured", "full"))
    p.add_argument("--scheme", default="single",
                   choices=("single", "fid", "group-fid", "ensemble"))
    p.add_argument("--groups", type=int, default=1,
                   help="demonstration groups for group-fid and ensemble")
    p.add_argument("--format", dest="fmt", default="direct",
                   choices=("direct", "channel"))
    p.add_argument("--test-k", type=int, default=8)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l-max", type=int, default=8)

    p = sub.add_parser("bench", help="attention scaling benchmark")
    p.add_argument("--k-grid", default="2,4,8,16,32,64,128")
    p.add_argument("--lengths", default="64")
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--mem-budget-bytes", type=float, default=1.0e9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--csv", help="output CSV path (stdout if omitted)")

    p = sub.add_parser("gen-data", help="generate synthetic episodes as JSON lines")
    p.add_argument("--family", default="lookup", choices=sorted(tasks.FAMILIES))
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    return parser


def cmd_verify(args):
    results = verify.run_suite(quick=args.quick)
    failed = False
    for name, ok, detail in results:
        status = "pass" if ok else f"FAIL ({detail})"
        print(f"{name:28s} {status}")
        failed = failed or not ok
    return 1 if failed else 0


def _model_for(args, variant):
    cfg = ModelConfig(variant=variant)
    return EncoderDecoder(cfg, seed=_seed_override(getattr(args, "seed", 0)))


def cmd_train(args):
    cfg = training.TrainConfig(
        train_k=args.train_k, steps=args.steps, batch_size=args.batch_size,
        lr=args.lr, seed=_seed_override(args.seed), optimizer=args.optimizer)
    if args.config:
        apply_config(cfg, read_config_file(args.config))
    family = tasks.make_family(args.family)
    model = EncoderDecoder(ModelConfig(variant=args.variant), seed=cfg.seed)
    history = training.train(model, family, cfg, log_path=args.log_csv,
                             progress=max(1, cfg.steps // 20))
    print(f"final loss: {history[-1]:.4f}")
    if args.checkpoint:
        print(f"checkpoint written to {model.save(args.checkpoint)}")
    return 0


def _eval_usage_error(scheme, groups, test_k):
    """The usage error in `--test-k` or `--groups` for this scheme, or
    None. FiD always encodes one demonstration per group, so it takes no
    other group count."""
    if test_k < 1:
        return f"--test-k must be >= 1, got {test_k}"
    if groups < 1:
        return f"--groups must be >= 1, got {groups}"
    if scheme in ("single", "fid") and groups != 1:
        return f"--groups {groups} needs --scheme group-fid or ensemble"
    if groups > test_k:
        return f"--groups {groups} exceeds the {test_k} demonstrations (--test-k)"
    return None


def cmd_eval(args):
    scheme = args.scheme.replace("-", "_")
    error = _eval_usage_error(scheme, args.groups, args.test_k)
    if error:
        print(f"iclattn eval: error: {error}", file=sys.stderr)
        return 2
    family = tasks.make_family(args.family)
    if args.checkpoint:
        model = EncoderDecoder.load(args.checkpoint)
    else:
        model = _model_for(args, args.variant)
    plan = FusionPlan(scheme, args.groups)
    seed0 = _seed_override(args.seed)
    result = training.evaluate(model, family, args.test_k,
                               episodes=args.episodes,
                               seeds=tuple(seed0 + s for s in range(args.seeds)),
                               l_max=args.l_max, fmt=args.fmt, plan=plan)
    per_seed = ", ".join(f"{a:.3f}" for a in result.per_seed)
    print(f"accuracy: {result.mean:.3f} +- {result.std:.3f}  (per seed: {per_seed})")
    return 0


def cmd_bench(args):
    spec = bench_mod.BenchSpec(
        k_grid=tuple(int(v) for v in args.k_grid.split(",")),
        lengths=tuple(int(v) for v in args.lengths.split(",")),
        repetitions=args.repetitions, warmup=args.warmup,
        mem_budget_bytes=args.mem_budget_bytes, seed=_seed_override(args.seed))
    if args.config:
        apply_config(spec, read_config_file(args.config))
    records = bench_mod.run_bench(spec, csv_path=args.csv)
    if args.csv:
        print(f"wrote {len(records)} records to {args.csv}")
    else:
        sys.stdout.write(bench_mod.to_csv(records))
    return 0


def cmd_gen_data(args):
    family = tasks.make_family(args.family)
    seed0 = _seed_override(args.seed)
    examples = []
    for i in range(args.episodes):
        ep = family.sample_episode(args.k, seed0 + i)
        examples.extend(ep.demos)
        examples.append(ep.test)
    tasks.write_dataset(args.out, examples)
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "gen-data": cmd_gen_data,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
