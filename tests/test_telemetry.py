"""Tests for the structured run telemetry module (repro.telemetry)."""

import json

import pytest

from repro import obs, telemetry


@pytest.fixture
def manifest(tmp_path, monkeypatch):
    """Telemetry enabled, writing to a per-test manifest; reset after."""
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv(telemetry.ENV_FLAG, "1")
    monkeypatch.setenv(telemetry.ENV_PATH, str(path))
    telemetry.reset()
    yield path
    monkeypatch.undo()  # restore the environment, then re-read it
    telemetry.reset()


def _events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestSink:
    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_FLAG, raising=False)
        monkeypatch.setenv(telemetry.ENV_PATH, str(tmp_path / "off.jsonl"))
        telemetry.reset()
        try:
            assert not telemetry.enabled()
            telemetry.emit("run_end", run="x", seconds=0.0)
            with obs.span("y"):
                pass
            assert not (tmp_path / "off.jsonl").exists()
        finally:
            monkeypatch.undo()
            telemetry.reset()

    def test_emit_writes_base_fields(self, manifest):
        telemetry.emit("run_end", run="unit", seconds=0.0)
        (event,) = _events(manifest)
        assert event["event"] == "run_end"
        assert event["run"] == "unit"
        assert event["v"] == telemetry.SCHEMA_VERSION
        assert isinstance(event["ts"], float)
        assert isinstance(event["pid"], int)

    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        # configure() writes the environment itself: record both
        # variables first, so undo() restores the caller's values
        monkeypatch.delenv(telemetry.ENV_FLAG, raising=False)
        monkeypatch.delenv(telemetry.ENV_PATH, raising=False)
        other = tmp_path / "other.jsonl"
        telemetry.reset()
        try:
            telemetry.configure(enabled=True, path=str(other))
            telemetry.emit("run_end", run="configured", seconds=0.0)
            assert len(_events(other)) == 1
            # configure mirrors to env so worker processes inherit it
            import os

            assert os.environ[telemetry.ENV_FLAG] == "1"
            assert os.environ[telemetry.ENV_PATH] == str(other)
        finally:
            monkeypatch.undo()
            telemetry.reset()

    def test_non_json_payload_stringified(self, manifest):
        telemetry.emit("infeasibility", blocking=["timing"],
                       probes={"timing": "solved"}, extra=object())
        (event,) = _events(manifest)  # must not raise on dump
        assert event["blocking"] == ["timing"]

    def test_pathological_payload_degrades_to_repr(self, manifest):
        """A field the JSON encoder rejects outright (circular structure,
        non-string dict keys) degrades to repr() instead of raising and
        killing the run; the healthy fields survive verbatim."""
        circular = []
        circular.append(circular)
        telemetry.emit("run_end", run="ok", seconds=0.0, loop=circular,
                       weird={(1, 2): "tuple-keyed"})
        (event,) = _events(manifest)
        assert event["run"] == "ok"  # healthy field intact
        assert isinstance(event["loop"], str)  # degraded, not dropped
        assert "tuple-keyed" in str(event["weird"])

    def test_emit_records_monotonic_base_field(self, manifest):
        telemetry.emit("run_end", run="mono", seconds=0.0)
        (event,) = _events(manifest)
        assert isinstance(event["mono"], float)

    def test_stage_duration_immune_to_wall_clock_step(self, manifest,
                                                      monkeypatch):
        """An NTP step (wall clock jumping backwards mid-span) must not
        produce a negative duration: span() times with perf_counter."""
        import time as time_mod

        real_time = time_mod.time
        # wall clock jumps 1 hour backwards on every later call
        monkeypatch.setattr(
            telemetry.time, "time", lambda: real_time() - 3600.0
        )
        with obs.span("ntp_step"):
            pass
        (event,) = _events(manifest)
        assert event["name"] == "ntp_step"
        assert event["seconds"] >= 0.0


class TestValidation:
    def test_valid_manifest_passes(self, manifest):
        telemetry.emit("checkpoint_hit", key="k")
        with obs.span("s"):
            pass
        telemetry.emit("run_end", run="v", seconds=0.2)
        n, errors = telemetry.validate_manifest(manifest)
        assert n == 3
        assert errors == []

    def test_unknown_event_flagged(self, manifest):
        telemetry.emit("not_a_real_event", foo=1)
        _, errors = telemetry.validate_manifest(manifest)
        assert any("unknown event" in e for e in errors)

    def test_missing_fields_flagged(self, manifest):
        telemetry.emit("solve", backend="ipm")  # lacks status/iterations/...
        _, errors = telemetry.validate_manifest(manifest)
        assert any("missing fields" in e for e in errors)

    def test_invalid_json_flagged(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1}\nnot json at all\n')
        n, errors = telemetry.validate_manifest(bad)
        assert n == 2
        assert any("invalid JSON" in e for e in errors)

    def test_cli_validator_exit_codes(self, manifest, capsys):
        telemetry.emit("run_end", run="cli", seconds=0.0)
        telemetry.reset()  # flush/close before reading
        assert telemetry.main([str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "1 events, 0 schema errors" in out

    def test_cli_validator_rejects_empty(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert telemetry.main([str(empty)]) == 1

    def test_every_emitter_event_is_in_schema(self):
        """The schema lists exactly the events the codebase emits: no
        emitter outside it, and no entry without an emitter."""
        import pathlib
        import re

        src = pathlib.Path(__file__).parent.parent / "src"
        emitted = set()
        for path in src.rglob("*.py"):
            emitted.update(
                re.findall(r'telemetry\.emit\(\s*"(\w+)"', path.read_text())
            )
        assert emitted  # the grep found the call sites
        assert emitted == set(telemetry.EVENT_SCHEMA)


class TestEndToEnd:
    def test_dmopt_run_produces_valid_manifest(self, manifest):
        from repro.core import DesignContext, optimize_dose_map
        from repro.netlist import make_design

        ctx = DesignContext(make_design("AES-65", scale=0.3))
        res = optimize_dose_map(ctx, 30.0, mode="qp")
        assert res.ok
        telemetry.reset()  # flush before validating
        n, errors = telemetry.validate_manifest(manifest)
        assert errors == []
        events = _events(manifest)
        kinds = {e["event"] for e in events}
        assert "solve" in kinds
        assert "fallback" in kinds
        # the run's outcome rides on the dmopt span, not an event
        (span,) = [e for e in events
                   if e["event"] == "span" and e["name"] == "dmopt"]
        assert span["status"] == res.status
        assert span["mct"] == res.mct
        assert span["leakage"] == res.leakage
        assert "blocking" not in span
