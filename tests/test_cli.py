"""CLI: every command parses and the cheap ones run end-to-end."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("pretrain", "finetune", "multitask", "explore", "scaling", "datasets"):
            args = parser.parse_args([cmd] if cmd in ("datasets",) else [cmd])
            assert args.command == cmd

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_encoder_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pretrain", "--encoder", "transformer"])

    def test_defaults(self):
        args = build_parser().parse_args(["finetune"])
        assert args.target == "band_gap"
        assert args.world_size == 16
        assert not args.pretrained

    def test_serve_resilience_flags(self):
        args = build_parser().parse_args([
            "serve", "--registry", "/tmp/reg", "--replicas", "3",
            "--chaos-profile", "replica_crash:1,replica_slow:1",
            "--chaos-seed", "7", "--hedge-ms", "2.5",
        ])
        assert args.replicas == 3
        assert args.chaos_profile == "replica_crash:1,replica_slow:1"
        assert args.chaos_seed == 7
        assert args.hedge_ms == 2.5

    @pytest.mark.parametrize("argv", [["--zero"], ["--bucket-mb", "1"]])
    def test_zero_sharding_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["pretrain", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_resilience_defaults_to_single_replica(self):
        args = build_parser().parse_args(["serve", "--registry", "/tmp/reg"])
        assert args.replicas == 1
        assert args.chaos_profile is None
        assert args.hedge_ms == 5.0

    @pytest.mark.parametrize("flag, value", [
        ("--rate", "0"),
        ("--max-batch", "0"),
        ("--max-wait", "-1"),
        ("--deadline", "0"),
        ("--queue-depth", "0"),
        ("--requests", "-1"),
        ("--hedge-ms", "-1"),
        ("--rate", "nan"),
    ])
    def test_serve_bad_values_exit_2_naming_the_flag(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--registry", "/tmp/reg", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("pretrain", "--lr", "nan"),
        ("pretrain", "--lr", "0"),
        ("pretrain", "--epochs", "0"),
        ("pretrain", "--steps", "0"),
        ("pretrain", "--world-size", "0"),
        ("pretrain", "--samples", "0"),
        ("pretrain", "--batch-per-worker", "0"),
        ("pretrain", "--warmup", "0"),
        ("pretrain", "--seed", "-1"),
        ("finetune", "--epochs", "0"),
        ("finetune", "--hidden-dim", "0"),
        ("finetune", "--layers", "0"),
        ("finetune", "--samples", "0"),
        ("finetune", "--world-size", "0"),
        ("multitask", "--samples", "3"),
        ("multitask", "--lr", "-0.001"),
        ("multitask", "--epochs", "0"),
    ])
    def test_training_bad_values_exit_2_naming_the_flag(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["explore", "--samples", "0"], "--samples"),
        (["scaling", "--workers", "0", "8"], "--workers"),
        (["scaling", "--workers", "-4", "8"], "--workers"),
        (["scaling", "--workers", "64", "16"], "--workers"),
        (["scaling", "--rate", "nan"], "--rate"),
        (["scaling", "--rate", "0"], "--rate"),
        (["scaling", "--params", "-1"], "--params"),
        (["scaling", "--dataset-size", "0"], "--dataset-size"),
        (["predict", "--registry", "/tmp/reg", "--samples", "0"], "--samples"),
        (["serve", "--registry", "/tmp/reg", "--samples", "-2"], "--samples"),
        (["serve", "--registry", "/tmp/reg", "--query-seed", "-1"], "--query-seed"),
        (["predict", "--registry", "/tmp/reg", "--seed", "-1"], "--seed"),
        (["serve", "--registry", "/tmp/reg", "--chaos-seed", "-1"], "--chaos-seed"),
        (["screen", "--registry", "/tmp/reg", "--relax-steps", "-1"], "--relax-steps"),
        (["screen", "--registry", "/tmp/reg", "--screen-seed", "-1"], "--screen-seed"),
        (["serve", "--registry", "/tmp/reg", "--chaos-profile", "bogus:1"],
         "--chaos-profile"),
        (["serve", "--registry", "/tmp/reg", "--chaos-profile", "replica_crash"],
         "--chaos-profile"),
        (["serve", "--registry", "/tmp/reg", "--chaos-profile", "replica_crash:-1"],
         "--chaos-profile"),
    ])
    def test_other_bad_values_exit_2_naming_the_flag(self, argv, flag, capsys):
        """Every numeric flag outside training is a bounded type too; before,
        ``scaling --workers 0 8`` looped forever and ``--rate nan`` printed
        a table of NaN."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_pretrained_recipe_is_replaced_not_mutated(self, monkeypatch, capsys):
        """``--pretrained`` builds the recipe with ``dataclasses.replace``,
        so the encoder config is validated; its ``asdict`` (the cache key)
        is the one the old in-place assignment produced."""
        from dataclasses import asdict
        from types import SimpleNamespace

        from repro import cli
        from repro.core import EncoderConfig, transfer_pretrain_recipe

        seen = []
        monkeypatch.setattr(cli, "cached_pretrained_encoder", seen.append)
        encoder = EncoderConfig(name="schnet", hidden_dim=8, num_layers=1, position_dim=4)
        cli._pretrained_state(SimpleNamespace(pretrained=True), encoder)
        assigned = transfer_pretrain_recipe()
        assigned.encoder = encoder
        assert asdict(seen[0]) == asdict(assigned)
        assert transfer_pretrain_recipe().encoder != encoder

    def test_registry_verify_parses(self):
        args = build_parser().parse_args(
            ["registry", "verify", "--registry", "/tmp/reg"]
        )
        assert args.command == "registry"
        assert args.registry_command == "verify"
        assert args.registry == "/tmp/reg"

    def test_registry_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry"])


class TestExecution:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("symmetry", "materials_project", "carolina", "oc20", "oc22", "lips"):
            assert name in out

    def test_scaling_command(self, capsys):
        assert main(["scaling", "--workers", "16", "64"]) == 0
        out = capsys.readouterr().out
        assert "workers" in out
        assert "64" in out

    def test_pretrain_tiny(self, capsys):
        code = main(
            [
                "pretrain",
                "--samples", "24",
                "--epochs", "1",
                "--world-size", "2",
                "--hidden-dim", "8",
                "--layers", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "val CE" in out
        assert "throughput" in out

    def test_finetune_tiny_scratch(self, capsys):
        code = main(
            [
                "finetune",
                "--samples", "24",
                "--epochs", "1",
                "--world-size", "2",
                "--hidden-dim", "8",
                "--layers", "1",
            ]
        )
        assert code == 0
        assert "final" in capsys.readouterr().out

    def test_multitask_tiny_scratch(self, capsys):
        code = main(
            [
                "multitask",
                "--samples", "20",
                "--epochs", "1",
                "--world-size", "2",
                "--hidden-dim", "8",
                "--layers", "1",
            ]
        )
        assert code == 0
        assert "band_gap_mae" in capsys.readouterr().out

    def test_serve_runs_from_a_foreign_cwd(self, tmp_path):
        """``src/`` must not import the repo-root ``benchmarks`` package:
        with only ``src`` on the path and the cwd elsewhere, serve works."""
        from repro.serving import ServableSpec, save_servable

        spec = ServableSpec(
            target="band_gap", encoder_name="egnn", hidden_dim=8, num_layers=1,
            position_dim=2, head_hidden_dim=8, head_blocks=1, normalizer=[0.5, 2.0],
        )
        save_servable(spec.build_task(), spec, str(tmp_path / "reg" / "tiny"))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--registry",
             str(tmp_path / "reg"), "--model", "tiny", "--requests", "16"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "req/s" in proc.stdout
        assert "serve.replica.count" in proc.stdout
