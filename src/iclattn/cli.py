"""Command-line entry point.

Subcommands: verify (property suites), train (meta-training), eval
(accuracy with a fusion scheme) and bench (scaling benchmark, CSV).

Exit codes: 0 success, 1 verification/eval failure, 2 usage error.
`train` and `bench` read a flat key=value file (`--config`) of config
fields. Flags given on the command line win over it, ICLATTN_SEED over any
seed; a bad key or value is a usage error, before any model is built.
"""

import argparse
import os
import sys
from dataclasses import fields, replace

# Timing-sensitive subcommands want single-threaded BLAS; must happen
# before numpy first loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import bench as bench_mod  # noqa: E402
from . import tasks, training, verify  # noqa: E402
from .attention import VARIANTS  # noqa: E402
from .fusion import FORMATS, SCHEMES, FusionPlan  # noqa: E402
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
    """The string `val` as the type of the field value `like`; a tuple's
    elements as the type of its first element."""
    if isinstance(like, tuple):
        return tuple(_coerce(v.strip(), like[0]) for v in val.split(","))
    return type(like)(val)


def apply_config(cfg, values):
    """A copy of the config dataclass `cfg` with the string `values` coerced
    to the field types, built through the constructor so that its checks
    run. Raises ValueError on an unknown key or a bad value."""
    unknown = sorted(values.keys() - {f.name for f in fields(cfg)})
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}")
    return replace(cfg, **{key: _coerce(val, getattr(cfg, key))
                           for key, val in values.items()})


def _seed_override(seed):
    return int(os.environ[SEED_ENV]) if SEED_ENV in os.environ else seed


def _build_config(cls, args):
    """`cls` from its defaults, under the `--config` file, under the flags
    given on the command line, under ICLATTN_SEED for the seed."""
    values = read_config_file(args.config) if args.config else {}
    values.update(args.given)
    if SEED_ENV in os.environ:
        values["seed"] = os.environ[SEED_ENV]
    return apply_config(cls(), values)


class _FieldFlag(argparse.Action):
    """A config-field flag. Its string goes into `given`, which wins over
    the `--config` file; the file wins over the flag's default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {**namespace.given, self.dest: values}


def _add_field_flags(p, cfg, names, **extra):
    """`--config`, and a flag per named field of the config dataclass
    `cfg`, with the field's value as its default. `extra` maps a field
    name to more `add_argument` keywords."""
    p.set_defaults(given={})
    p.add_argument("--config", help="flat key=value config file")
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), default=getattr(cfg, name),
                       action=_FieldFlag, **extra.get(name, {}))


def _usage_error(command, message):
    print(f"iclattn {command}: error: {message}", file=sys.stderr)
    return 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iclattn",
        description="Structured-attention in-context learner: verify, train, "
                    "evaluate, and benchmark at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run oracle/invariance/gradient suites")
    p.add_argument("--quick", action="store_true", help="reduced instance counts")

    p = sub.add_parser("train", help="meta-train on a synthetic family")
    p.add_argument("--family", default="lookup", choices=sorted(tasks.FAMILIES))
    p.add_argument("--variant", default="structured", choices=VARIANTS)
    _add_field_flags(p, training.TrainConfig(),
                     ("steps", "batch_size", "lr", "train_k", "seed",
                      "optimizer"),
                     optimizer={"choices": tuple(training.OPTIMIZERS)})
    p.add_argument("--log-csv", help="write step,loss,lr CSV here")
    p.add_argument("--checkpoint", help="save trained weights here (.npz)")

    p = sub.add_parser("eval", help="evaluate a model with a fusion scheme")
    p.add_argument("--family", default="lookup", choices=sorted(tasks.FAMILIES))
    model = p.add_mutually_exclusive_group()
    model.add_argument("--checkpoint",
                       help="trained model (.npz); fresh weights if omitted")
    model.add_argument("--variant", default="structured", choices=VARIANTS)
    p.add_argument("--scheme", default="single",
                   choices=tuple(s.replace("_", "-") for s in SCHEMES))
    p.add_argument("--groups", type=int, default=1,
                   help="demonstration groups for group-fid and ensemble")
    p.add_argument("--format", dest="fmt", default="direct", choices=FORMATS)
    p.add_argument("--test-k", type=int, default=8)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l-max", type=int, default=8)

    p = sub.add_parser("bench", help="attention scaling benchmark")
    _add_field_flags(p, bench_mod.BenchSpec(),
                     ("k_grid", "lengths", "repetitions", "warmup",
                      "mem_budget_bytes", "seed"))
    p.add_argument("--csv", help="output CSV path (stdout if omitted)")
    return parser


def cmd_verify(args):
    results = verify.run_suite(quick=args.quick)
    failed = False
    for name, ok, detail in results:
        status = "pass" if ok else f"FAIL ({detail})"
        print(f"{name:28s} {status}")
        failed = failed or not ok
    return 1 if failed else 0


def cmd_train(args):
    try:
        cfg = _build_config(training.TrainConfig, args)
    except (OSError, ValueError) as err:
        return _usage_error("train", err)
    for flag, path in (("--log-csv", args.log_csv),
                       ("--checkpoint", args.checkpoint)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            return _usage_error("train", f"{flag} {path}: no such directory")
    family = tasks.make_family(args.family)
    model = EncoderDecoder(ModelConfig(variant=args.variant), seed=cfg.seed)
    history = training.train(model, family, cfg, log_path=args.log_csv,
                             progress=max(1, cfg.steps // 20))
    print(f"final loss: {history[-1]:.4f}")
    if args.checkpoint:
        print(f"checkpoint written to {model.save(args.checkpoint)}")
    return 0


def _eval_usage_error(args, scheme):
    """The usage error in the `eval` counts for this scheme, or None. FiD
    always encodes one demonstration per group, so it takes no other group
    count."""
    for name in ("test_k", "groups", "episodes", "seeds", "l_max"):
        value = getattr(args, name)
        if value < 1:
            return f"--{name.replace('_', '-')} must be >= 1, got {value}"
    groups, test_k = args.groups, args.test_k
    if scheme in ("single", "fid") and groups != 1:
        return f"--groups {groups} needs --scheme group-fid or ensemble"
    if groups > test_k:
        return f"--groups {groups} exceeds the {test_k} demonstrations (--test-k)"
    return None


def cmd_eval(args):
    scheme = args.scheme.replace("-", "_")
    error = _eval_usage_error(args, scheme)
    if error:
        return _usage_error("eval", error)
    family = tasks.make_family(args.family)
    seed0 = _seed_override(args.seed)
    try:
        model = (EncoderDecoder.load(args.checkpoint) if args.checkpoint else
                 EncoderDecoder(ModelConfig(variant=args.variant), seed=seed0))
    except (OSError, ValueError) as err:
        return _usage_error("eval", err)
    plan = FusionPlan(scheme, args.groups)
    result = training.evaluate(model, family, args.test_k,
                               episodes=args.episodes,
                               seeds=tuple(seed0 + s for s in range(args.seeds)),
                               l_max=args.l_max, fmt=args.fmt, plan=plan)
    per_seed = ", ".join(f"{a:.3f}" for a in result.per_seed)
    print(f"accuracy: {result.mean:.3f} +- {result.std:.3f}  (per seed: {per_seed})")
    return 0


def cmd_bench(args):
    try:
        spec = _build_config(bench_mod.BenchSpec, args)
    except (OSError, ValueError) as err:
        return _usage_error("bench", err)
    records = bench_mod.run_bench(spec, csv_path=args.csv)
    if args.csv:
        print(f"wrote {len(records)} records to {args.csv}")
    else:
        sys.stdout.write(bench_mod.to_csv(records))
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
