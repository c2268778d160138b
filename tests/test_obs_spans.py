"""Tests for hierarchical tracing spans (repro.obs.spans)."""

import json
import os

import pytest

from repro import obs, telemetry


@pytest.fixture
def manifest(tmp_path, monkeypatch):
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv(telemetry.ENV_FLAG, "1")
    monkeypatch.setenv(telemetry.ENV_PATH, str(path))
    monkeypatch.delenv(obs.ENV_CTX, raising=False)
    telemetry.reset()
    yield path
    monkeypatch.undo()  # restore the environment, then re-read it
    telemetry.reset()


def _spans(path):
    return [
        e
        for e in (json.loads(l) for l in path.read_text().splitlines())
        if e["event"] == "span"
    ]


class TestSpanBasics:
    def test_noop_when_telemetry_off(self, tmp_path, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_FLAG, raising=False)
        monkeypatch.setenv(telemetry.ENV_PATH, str(tmp_path / "off.jsonl"))
        telemetry.reset()
        try:
            with obs.span("quiet") as sp:
                assert sp is None  # nothing to annotate when off
            assert obs.current_trace_id() is None
            assert not (tmp_path / "off.jsonl").exists()
        finally:
            monkeypatch.undo()
            telemetry.reset()

    def test_root_span_emits_ids_and_duration(self, manifest):
        with obs.span("root", design="AES-65"):
            pass
        (event,) = _spans(manifest)
        assert event["name"] == "root"
        assert event["trace_id"] and event["span_id"]
        assert event["parent_id"] is None
        assert event["seconds"] >= 0.0
        assert event["design"] == "AES-65"

    def test_nesting_links_parent_child(self, manifest):
        with obs.span("parent"):
            with obs.span("child"):
                pass
        child, parent = _spans(manifest)  # inner exits (emits) first
        assert child["name"] == "child"
        assert child["trace_id"] == parent["trace_id"]
        assert child["parent_id"] == parent["span_id"]
        assert parent["parent_id"] is None

    def test_sibling_spans_share_trace_not_parentage(self, manifest):
        with obs.span("root"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        a, b, root = _spans(manifest)
        assert a["trace_id"] == b["trace_id"] == root["trace_id"]
        assert a["parent_id"] == b["parent_id"] == root["span_id"]
        assert a["span_id"] != b["span_id"]

    def test_yielded_dict_annotates_event(self, manifest):
        with obs.span("solve") as sp:
            sp["status"] = "solved"
        (event,) = _spans(manifest)
        assert event["status"] == "solved"

    def test_exception_recorded_and_reraised(self, manifest):
        with pytest.raises(ValueError, match="boom"):
            with obs.span("doomed"):
                raise ValueError("boom")
        (event,) = _spans(manifest)
        assert event["error"] == "ValueError: boom"

    def test_env_context_restored_after_span(self, manifest):
        assert obs.ENV_CTX not in os.environ
        with obs.span("outer"):
            outer_env = os.environ[obs.ENV_CTX]
            with obs.span("inner"):
                assert os.environ[obs.ENV_CTX] != outer_env
            assert os.environ[obs.ENV_CTX] == outer_env
        assert obs.ENV_CTX not in os.environ

    def test_env_inherited_context_parents_new_roots(self, manifest,
                                                     monkeypatch):
        # simulate a worker process: no thread-local spans, but a parent
        # context inherited via the environment
        monkeypatch.setenv(obs.ENV_CTX, "feedc0dedeadbeef:abad1deaabad1dea")
        assert obs.current_context() == (
            "feedc0dedeadbeef", "abad1deaabad1dea"
        )
        with obs.span("worker_root"):
            pass
        (event,) = _spans(manifest)
        assert event["trace_id"] == "feedc0dedeadbeef"
        assert event["parent_id"] == "abad1deaabad1dea"

    def test_spans_validate_against_schema(self, manifest):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        telemetry.reset()
        _, errors = telemetry.validate_manifest(manifest)
        assert errors == []


def _pool_task(i):
    with obs.span("pool_task", index=i):
        pass
    return os.getpid()


class TestCrossProcess:
    def test_pool_worker_spans_nest_under_harness_span(self, manifest):
        """Satellite: trace context survives into ProcessPoolExecutor
        workers via env inheritance, and the merged manifest resolves
        every worker span's parent chain back to the harness root."""
        from concurrent.futures import ProcessPoolExecutor

        with obs.span("harness"):
            with ProcessPoolExecutor(max_workers=2) as ex:
                pids = set(ex.map(_pool_task, range(4)))
        telemetry.reset()
        spans = _spans(manifest)
        roots = [s for s in spans if s["name"] == "harness"]
        tasks = [s for s in spans if s["name"] == "pool_task"]
        assert len(roots) == 1 and len(tasks) == 4
        root = roots[0]
        # one trace across all processes
        assert {s["trace_id"] for s in spans} == {root["trace_id"]}
        # every worker span parents directly under the harness span
        assert {s["parent_id"] for s in tasks} == {root["span_id"]}
        # the spans really came from other processes
        worker_pids = {s["pid"] for s in tasks}
        assert worker_pids <= pids
        assert root["pid"] not in worker_pids

    def test_run_dmopt_cells_produces_one_resolvable_trace(self, manifest):
        """End to end: harness -> cell -> dmopt -> solve spans from a
        2-worker run merge into a single rooted tree."""
        from repro.experiments.harness import DMoptCell, run_dmopt_cells
        from repro.obs.report import build_trees, load_manifest

        cells = [
            DMoptCell(design="AES-65", grid_size=30.0, mode="qp"),
            DMoptCell(design="AES-65", grid_size=25.0, mode="qp"),
        ]
        results = run_dmopt_cells(cells, jobs=2)
        assert [r["status"] for r in results] == ["solved", "solved"]
        telemetry.reset()
        records, bad = load_manifest(manifest)
        assert bad == 0
        traces = build_trees(records)
        assert len(traces) == 1
        (roots,) = traces.values()
        assert [r.name for r in roots] == ["harness.run_dmopt_cells"]
        names = {node.name for _, node in roots[0].walk()}
        assert {"cell", "dmopt", "dmopt.solve"} <= names
