import numpy as np
import pytest

from iclattn import cli
from iclattn.bench import BenchSpec
from iclattn.training import TrainConfig


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("steps = 10   # short run\nlr=0.001\n\nfmt=channel\n")
        assert cli.read_config_file(path) == {
            "steps": "10", "lr": "0.001", "fmt": "channel"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("steps 10\n")
        with pytest.raises(ValueError, match=":1:"):
            cli.read_config_file(path)

    def test_apply_coerces_types(self):
        cfg = cli.apply_config(TrainConfig(), {
            "steps": "7", "lr": "0.5", "optimizer": "adafactor"})
        assert cfg.steps == 7 and cfg.lr == 0.5
        assert cfg.optimizer == "adafactor"
        spec = cli.apply_config(BenchSpec(), {"k_grid": "2, 4",
                                              "variants": "structured"})
        assert spec.k_grid == (2, 4) and spec.variants == ("structured",)
        with pytest.raises(ValueError, match="unknown config key"):
            cli.apply_config(TrainConfig(), {"unknown": "x"})

    def test_apply_to_bench_spec(self):
        spec = cli.apply_config(BenchSpec(), {"repetitions": "5",
                                              "mem_budget_bytes": "1e6"})
        assert spec.repetitions == 5 and spec.mem_budget_bytes == 1e6

    @pytest.mark.parametrize("command, text", [
        ("train", "optimizer = sgd\n"),
        ("train", "steps = 0\n"),
        ("train", "stpes = 5\n"),
        ("train", "lr = fast\n"),
        ("bench", "variants = structured,sparse\n"),
        ("train", None),
    ], ids=["unknown_optimizer", "zero_steps", "unknown_key", "bad_value",
            "unknown_variant", "missing_file"])
    def test_config_error_is_usage_error(self, command, text, tmp_path,
                                         capsys, monkeypatch):
        """A bad config file exits 2 with a usage error, before any model
        is built or any benchmark cell runs."""
        monkeypatch.setattr(cli, "EncoderDecoder", None)
        monkeypatch.setattr(cli.bench_mod, "run_bench", None)
        path = tmp_path / "f.cfg"
        if text is not None:
            path.write_text(text)
        assert cli.main([command, "--config", str(path)]) == 2
        assert f"iclattn {command}: error: " in capsys.readouterr().err

    def test_flag_wins_over_config_file(self, tmp_path, capsys):
        path = tmp_path / "f.cfg"
        path.write_text("steps = 3\nbatch_size = 2\ntrain_k = 2\n")
        log = tmp_path / "log.csv"
        assert cli.main(["train", "--steps", "1", "--config", str(path),
                         "--log-csv", str(log)]) == 0
        assert len(log.read_text().strip().splitlines()) == 1 + 1

    def test_config_file_wins_over_flag_defaults(self, tmp_path,
                                                 monkeypatch):
        """Only flags given on the command line override the file, and
        ICLATTN_SEED overrides both."""
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        path = tmp_path / "f.cfg"
        path.write_text("seed = 5\nrepetitions = 4\nwarmup = 3\n")
        args = cli.build_parser().parse_args(
            ["bench", "--config", str(path), "--warmup", "1"])
        spec = cli._build_config(BenchSpec, args)
        assert (spec.seed, spec.repetitions, spec.warmup) == (5, 4, 1)
        monkeypatch.setenv(cli.SEED_ENV, "9")
        assert cli._build_config(BenchSpec, args).seed == 9


class TestSeedOverride:
    def test_env_wins(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "99")
        assert cli._seed_override(3) == 99

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert cli._seed_override(3) == 3


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args([])
        assert err.value.code == 2

    def test_unknown_choice_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["train", "--family", "mystery"])
        assert err.value.code == 2


class TestCommands:
    def test_verify_quick(self, capsys):
        assert cli.main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "oracle-equivalence" in out and "pass" in out

    def test_train_then_eval_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        log = tmp_path / "log.csv"
        assert cli.main(["train", "--steps", "3", "--batch-size", "2",
                         "--train-k", "2", "--checkpoint", str(ckpt),
                         "--log-csv", str(log)]) == 0
        assert ckpt.exists()
        assert log.read_text().startswith("step,loss,lr")
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--test-k", "2",
                         "--episodes", "4", "--seeds", "2"]) == 0
        assert "accuracy:" in capsys.readouterr().out

    def test_checkpoint_named_without_suffix(self, tmp_path, capsys):
        """`train` and `eval` name the checkpoint file the same way: the
        `.npz` that saving appends is found again when loading."""
        ckpt = tmp_path / "m"
        assert cli.main(["train", "--steps", "1", "--batch-size", "2",
                         "--train-k", "2", "--checkpoint", str(ckpt)]) == 0
        assert f"checkpoint written to {ckpt}.npz" in capsys.readouterr().out
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--test-k", "2",
                         "--episodes", "2", "--seeds", "1"]) == 0

    @pytest.mark.parametrize("flags", [
        ["--scheme", "ensemble", "--groups", "0"],
        ["--scheme", "ensemble", "--groups", "20"],
        ["--scheme", "single", "--groups", "3"],
        ["--scheme", "fid", "--groups", "5"],
    ], ids=["zero", "above_test_k", "single", "fid"])
    def test_eval_groups_usage_error(self, flags, capsys, monkeypatch):
        # any model build would now raise, so exit 2 comes before one
        monkeypatch.setattr(cli, "EncoderDecoder", None)
        assert cli.main(["eval", "--test-k", "8", "--episodes", "1",
                         "--seeds", "1"] + flags) == 2
        assert "iclattn eval: error: --groups" in capsys.readouterr().err

    @pytest.mark.parametrize("test_k", ["0", "-1"])
    def test_eval_test_k_usage_error(self, test_k, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EncoderDecoder", None)
        assert cli.main(["eval", "--test-k", test_k, "--episodes", "1",
                         "--seeds", "1"]) == 2
        assert "iclattn eval: error: --test-k" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--episodes", "--seeds", "--l-max"])
    def test_eval_count_usage_error(self, flag, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EncoderDecoder", None)
        assert cli.main(["eval", "--test-k", "2", "--episodes", "1",
                         "--seeds", "1", flag, "0"]) == 2
        assert f"iclattn eval: error: {flag} must be >= 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags, text", [
        (["--lengths", "0"], None),
        (["--k-grid=-1,2"], None),
        ([], "heads = 0\n"),
        ([], "head_dim = 0\n"),
    ], ids=["zero_length", "negative_k", "zero_heads", "zero_head_dim"])
    def test_bench_spec_usage_error(self, flags, text, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.setattr(cli.bench_mod, "run_bench", None)
        if text is not None:
            path = tmp_path / "f.cfg"
            path.write_text(text)
            flags = flags + ["--config", str(path)]
        assert cli.main(["bench", "--repetitions", "3"] + flags) == 2
        assert "iclattn bench: error: " in capsys.readouterr().err

    @pytest.mark.parametrize("flags, text", [
        (["--lr", "-1"], None),
        (["--lr", "0"], None),
        ([], "grad_clip = -1\n"),
    ], ids=["negative_lr", "zero_lr", "negative_grad_clip"])
    def test_train_config_usage_error(self, flags, text, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.setattr(cli, "EncoderDecoder", None)
        if text is not None:
            path = tmp_path / "f.cfg"
            path.write_text(text)
            flags = flags + ["--config", str(path)]
        assert cli.main(["train", "--steps", "2"] + flags) == 2
        assert "iclattn train: error: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--checkpoint", "--log-csv"])
    def test_train_missing_output_directory(self, flag, tmp_path, capsys,
                                            monkeypatch):
        """A missing output directory is a usage error before any model is
        built, not a failed save after training."""
        monkeypatch.setattr(cli, "EncoderDecoder", None)
        path = tmp_path / "missing" / "out"
        assert cli.main(["train", "--steps", "1", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"iclattn train: error: {flag} {path}: no such directory" in err

    @pytest.mark.parametrize("text", [None, "not a checkpoint\n"],
                             ids=["missing", "untrustworthy"])
    def test_eval_bad_checkpoint_is_usage_error(self, text, tmp_path,
                                                capsys):
        path = tmp_path / "m.npz"
        if text is not None:
            path.write_text(text)
        assert cli.main(["eval", "--checkpoint", str(path), "--test-k", "2",
                         "--episodes", "1", "--seeds", "1"]) == 2
        assert "iclattn eval: error: " in capsys.readouterr().err

    def test_eval_checkpoint_excludes_variant(self, tmp_path, capsys):
        """A checkpoint fixes the variant, so asking for one as well is a
        usage error rather than a flag silently ignored."""
        with pytest.raises(SystemExit) as err:
            cli.main(["eval", "--checkpoint", str(tmp_path / "m"),
                      "--variant", "full"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_eval_fusion_schemes(self, capsys):
        for scheme, groups in (("fid", "1"), ("group-fid", "2"),
                               ("ensemble", "2")):
            rc = cli.main(["eval", "--scheme", scheme, "--groups", groups,
                           "--test-k", "2", "--episodes", "2", "--seeds", "1"])
            assert rc == 0
            assert "accuracy:" in capsys.readouterr().out

    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--k-grid", "1,2", "--lengths", "2",
                       "--repetitions", "3", "--warmup", "1",
                       "--csv", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5   # header + 2 variants x 2 k values

    def test_bench_stdout(self, capsys):
        rc = cli.main(["bench", "--k-grid", "1", "--lengths", "2",
                       "--repetitions", "3", "--warmup", "0"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("variant,k,L")

    def test_train_defaults_follow_train_config(self):
        args = cli.build_parser().parse_args(["train"])
        cfg = TrainConfig()
        assert (args.steps, args.batch_size, args.lr, args.train_k,
                args.seed, args.optimizer) == (
            cfg.steps, cfg.batch_size, cfg.lr, cfg.train_k, cfg.seed,
            cfg.optimizer)

    def test_train_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=2\nbatch_size=2\ntrain_k=2\n")
        assert cli.main(["train", "--config", str(cfg)]) == 0

    def test_bench_config_tuple_of_strings(self, tmp_path, capsys):
        path = tmp_path / "f.cfg"
        path.write_text("variants = structured\nk_grid = 1\nlengths = 2\n"
                        "repetitions = 3\nwarmup = 0\n")
        assert cli.main(["bench", "--config", str(path)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["structured"]
