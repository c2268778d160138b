"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "AES-65"])
        assert args.design == "AES-65"
        assert args.command == "generate"

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize", "AES-65"])
        assert args.grid == 5.0
        assert args.mode == "qcp"
        assert not args.dosepl

    def test_optimize_flags(self):
        args = build_parser().parse_args(
            ["optimize", "AES-90", "--mode", "qp", "--grid", "10",
             "--both-layers", "--dosepl", "--smoothness", "1.5"]
        )
        assert args.both_layers and args.dosepl
        assert args.grid == 10.0
        assert args.smoothness == 1.5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_bad_design_rejected_for_generate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "DES-45"])


class TestEndToEnd:
    def test_generate_analyze_roundtrip(self, tmp_path, capsys):
        v = tmp_path / "design.v"
        d = tmp_path / "design.def"
        rc = main(["generate", "AES-90", "--scale", "0.2",
                   "--verilog", str(v), "--def", str(d)])
        assert rc == 0
        assert v.exists() and d.exists()

        rc = main(["analyze", "--verilog", str(v), "--def", str(d),
                   "--node", "90nm", "--paths", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Timing report" in out
        assert "Leakage power report" in out

    def test_analyze_builtin(self, capsys):
        rc = main(["analyze", "AES-90", "--scale", "0.2", "--paths", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Path 2:" in out

    def test_optimize_builtin(self, capsys):
        rc = main(["optimize", "AES-90", "--scale", "0.2", "--grid", "10",
                   "--mode", "qp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "after DMopt" in out
        assert "Dose map (poly)" in out

    def test_missing_source_errors(self):
        with pytest.raises(SystemExit, match="design name"):
            main(["analyze"])


class TestOptimizeCheckpoint:
    """``optimize --checkpoint/--resume``: the DMopt stage is stored once
    and served on resume, with golden numbers unchanged."""

    ARGS = ["optimize", "AES-65", "--scale", "0.3", "--grid", "20",
            "--mode", "qcp"]

    @staticmethod
    def _golden(out):
        return [line for line in out.splitlines()
                if line.startswith(("baseline", "after DMopt"))]

    def test_resume_serves_the_solve(self, tmp_path, capsys, monkeypatch):
        from repro.core import DesignContext
        from repro.core import flow as flow_mod
        from repro.netlist import make_design
        from repro.resilience.checkpoint import (
            CheckpointStore,
            sweep_point_key,
        )

        ck = tmp_path / "opt.jsonl"
        assert main(self.ARGS + ["--certify", "--checkpoint", str(ck)]) == 0
        first = capsys.readouterr().out
        assert "resumed from" not in first
        (key,) = CheckpointStore(ck).records

        def no_solve(*args, **kwargs):
            raise AssertionError("a checkpointed solve ran again")

        monkeypatch.setattr(flow_mod, "optimize_dose_map", no_solve)
        assert main(self.ARGS + ["--certify", "--checkpoint", str(ck),
                                 "--resume"]) == 0
        second = capsys.readouterr().out
        assert f"dose-map solve resumed from {ck}" in second
        assert "certified (qcp)" in second
        assert len(self._golden(first)) == 2
        assert self._golden(second) == self._golden(first)

        # the record sits under the sweep-point key with the CLI's
        # smoothness/both_layers kwargs, as earlier CLI versions wrote it
        ctx = DesignContext(make_design("AES-65", scale=0.3))
        assert key == sweep_point_key(
            ctx, 20.0, "qcp", 5.0, {"smoothness": 2.0, "both_layers": False}
        )

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
            main(self.ARGS + ["--resume"])

    def test_failed_solve_not_recorded(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        from repro.core import flow as flow_mod
        from repro.resilience.checkpoint import CheckpointStore

        real = flow_mod.optimize_dose_map

        def failing(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(
                res, solve=dataclasses.replace(res.solve, status="diverged")
            )

        ck = tmp_path / "opt.jsonl"
        monkeypatch.setattr(flow_mod, "optimize_dose_map", failing)
        assert main(self.ARGS + ["--checkpoint", str(ck)]) == 0
        assert "dose-map solve failed (diverged)" in capsys.readouterr().out
        assert len(CheckpointStore(ck)) == 0

        # the resume re-solves, and only now is the solve recorded
        monkeypatch.setattr(flow_mod, "optimize_dose_map", real)
        assert main(self.ARGS + ["--checkpoint", str(ck), "--resume"]) == 0
        assert "resumed from" not in capsys.readouterr().out
        assert len(CheckpointStore(ck)) == 1
