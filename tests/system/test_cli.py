"""Command-line interface."""

import json

import pytest

from repro.cli import _config, build_parser, main
from repro.obs.manifest import code_fingerprint, config_hash
from repro.verify.trace import load_jsonl


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "oltp"
        assert args.model == "TSO"
        assert args.protocol == "directory"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fault_choices(self):
        args = build_parser().parse_args(
            ["inject", "--fault", "lsq-wrong-value", "--at", "100"]
        )
        assert args.fault == "lsq-wrong-value"
        assert args.at == 100

    @pytest.mark.parametrize("command", ["run", "compare", "campaign"])
    def test_result_cache_flags_are_retired(self, command, capsys):
        for flag in ("--cache", "--no-cache"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command, flag])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "inject", "campaign"])
    def test_obs_flags_belong_to_run(self, command, capsys):
        for argv in (["--obs"], ["--obs-dir", "out"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command, *argv])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err


class TestCommands:
    def test_run_clean(self, capsys):
        rc = main(
            ["run", "--workload", "jbb", "--nodes", "2", "--ops", "50"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "violations: 0" in out

    def test_run_unprotected(self, capsys):
        rc = main(
            ["run", "--unprotected", "--workload", "jbb", "--nodes", "2", "--ops", "40"]
        )
        assert rc == 0

    def test_inject_detects(self, capsys):
        rc = main(
            [
                "inject",
                "--fault",
                "lsq-wrong-value",
                "--at",
                "2000",
                "--nodes",
                "2",
                "--ops",
                "120",
            ]
        )
        out = capsys.readouterr().out
        assert "DETECTED" in out or "not detected" in out


class TestObsArtifacts:
    """``run --obs --obs-dir`` writes the artifacts CI's bench job uploads."""

    RUN = ["run", "--workload", "jbb", "--nodes", "2", "--ops", "40", "--seed", "3"]

    def test_writes_manifest_metrics_and_snapshot(self, tmp_path, capsys):
        out_dir = tmp_path / "obs_artifacts"
        assert main(self.RUN + ["--obs", "--obs-dir", str(out_dir)]) == 0
        assert f"obs artifacts written to {out_dir}/" in capsys.readouterr().out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "manifest.json",
            "metrics.prom",
            "snapshot.json",
        ]

        manifest = json.loads((out_dir / "manifest.json").read_text())
        args = build_parser().parse_args(self.RUN)
        assert manifest["config_hash"] == config_hash(_config(args, protected=True))
        assert (manifest["workload"], manifest["ops"], manifest["seed"]) == (
            "jbb",
            40,
            3,
        )
        assert manifest["code_fingerprint"] == code_fingerprint()

        snapshot = json.loads((out_dir / "snapshot.json").read_text())
        assert snapshot["layers"]["scheduler"]["events_processed"] > 0
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE repro_layers_scheduler_events_processed gauge" in prom

    def test_obs_dir_without_obs_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "obs_artifacts"
        assert main(self.RUN + ["--obs-dir", str(out_dir)]) == 0
        assert "obs artifacts" not in capsys.readouterr().out
        assert not out_dir.exists()


class TestOpTrace:
    """``run --op-trace FILE`` records the whole op stream for ``oracle``."""

    RUN = ["run", "--workload", "oltp", "--nodes", "2", "--ops", "40"]

    @staticmethod
    def _result_lines(out):
        return [
            line
            for line in out.splitlines()
            if line.startswith(("cycles:", "completed:", "violations:"))
        ]

    def test_recording_is_transparent(self, tmp_path, capsys):
        assert main(self.RUN) == 0
        plain = self._result_lines(capsys.readouterr().out)
        path = tmp_path / "deep" / "ops.jsonl"
        assert main(self.RUN + ["--op-trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert self._result_lines(out) == plain
        events = len(load_jsonl(str(path)).events)
        assert f"op trace written: {path} ({events} events)" in out

    def test_oracle_decides_what_run_wrote(self, tmp_path, capsys):
        path = tmp_path / "ops.jsonl"
        assert main(self.RUN + ["--op-trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle", str(path), "--model", "TSO"]) == 0
        assert capsys.readouterr().out.startswith("ADMISSIBLE under TSO")
