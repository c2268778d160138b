"""Tables IV-VI run through the cell runner; one design-context cache.

Every DMopt table builds :class:`DMoptCell`s and calls
:func:`run_dmopt_cells` at any worker count, and the table drivers and
the cell workers share :func:`repro.experiments.harness.get_context`.
The real-solve tests use AES-65 at G=30 (about a second per table).
"""

import json
from collections import OrderedDict

import pytest

import repro.core
import repro.netlist
from repro import obs, telemetry
from repro.experiments import harness, tables
from repro.experiments.tables import table4, table5, table6, table7

SMALL = dict(designs=("AES-65",), grid_sizes=(30.0,))

#: Table IV's wall-clock columns (indices 6 and 11); everything else is
#: a golden number that must not depend on how the cells ran.
RUNTIME_HEADERS = {"QP s", "QCP s"}


@pytest.fixture(autouse=True)
def _no_env_overrides(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)


def _golden(table):
    keep = [
        i for i, h in enumerate(table.headers) if h not in RUNTIME_HEADERS
    ]
    return [[row[i] for i in keep] for row in table.rows]


class TestOnePath:
    @pytest.mark.parametrize("driver", [table4, table5, table6])
    def test_serial_parallel_resumed_agree(self, driver, tmp_path,
                                           monkeypatch):
        serial = driver(**SMALL, jobs=1)
        parallel = driver(**SMALL, jobs=2)
        ck = str(tmp_path / "ck.jsonl")
        first = driver(**SMALL, jobs=1, checkpoint=ck)

        def no_cell_runs(*args, **kwargs):
            raise AssertionError("a resumed run re-ran a cell")

        monkeypatch.setattr(harness, "supervised_map", no_cell_runs)
        resumed = driver(**SMALL, jobs=1, checkpoint=ck, resume=True)
        assert len(serial.rows) == 1
        assert _golden(serial) == _golden(parallel) == _golden(first)
        assert _golden(first) == _golden(resumed)
        assert resumed.rows == first.rows

    def test_serial_run_emits_harness_and_cell_spans(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "run.jsonl"
        monkeypatch.setenv(telemetry.ENV_FLAG, "1")
        monkeypatch.setenv(telemetry.ENV_PATH, str(path))
        monkeypatch.delenv(obs.ENV_CTX, raising=False)
        telemetry.reset()
        try:
            table4(**SMALL, jobs=1)
        finally:
            monkeypatch.undo()
            telemetry.reset()
        names = [
            e["name"]
            for e in map(json.loads, path.read_text().splitlines())
            if e["event"] == "span"
        ]
        assert names.count("harness.run_dmopt_cells") == 1
        assert names.count("cell") == 2

    def test_cell_timeout_env_reaches_supervised_map(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "600")
        seen = []
        real = harness.supervised_map

        def spy(fn, items, jobs, timeout=None, **kwargs):
            seen.append(timeout)
            return real(fn, items, jobs, timeout=timeout, **kwargs)

        monkeypatch.setattr(harness, "supervised_map", spy)
        table = table4(**SMALL)
        assert seen == [600.0]
        assert len(table.rows) == 1


class TestOneContextCache:
    def test_table4_then_table7_builds_one_context(self, monkeypatch):
        monkeypatch.setattr(harness, "_CONTEXTS", OrderedDict())
        built = []
        real = repro.core.DesignContext

        def counting(*args, **kwargs):
            built.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.core, "DesignContext", counting)
        table4(**SMALL)
        table7(designs=("AES-65",))
        assert built == ["AES-65"]

    @staticmethod
    def _full_run_keys():
        """(design, fit_width) of every get_context call, in order, of
        ``python -m repro.experiments`` with its defaults."""
        keys = [("AES-65", False), ("AES-90", False)]  # tables II, III
        for design in tables.DESIGNS:  # table IV: QP + QCP per grid
            grids = tables.GRID_SIZES[
                repro.netlist.designs.design_node(design)
            ]
            keys += [(design, False)] * 2 * len(grids)
        for _ in ("table5", "table6"):  # poly + both layers per grid
            for design in ("AES-65", "JPEG-65"):
                keys += [(design, True)] * 2 * 3
        keys += [(design, False) for design in tables.DESIGNS]  # VII
        keys += [("AES-65", False), ("JPEG-65", False)]  # table VIII
        keys += [("AES-65", False)]  # fig. 10
        return keys

    def _replay(self, monkeypatch, bound):
        monkeypatch.setattr(harness, "_CONTEXTS", OrderedDict())
        monkeypatch.setattr(harness, "_CONTEXTS_MAX", bound)
        monkeypatch.setattr(repro.netlist, "make_design",
                            lambda name, scale=1.0: name)
        built = []

        class StubContext:
            def __init__(self, bundle, fit_width=False):
                built.append((bundle, fit_width))

        monkeypatch.setattr(repro.core, "DesignContext", StubContext)
        for design, fit_width in self._full_run_keys():
            harness.get_context(design, fit_width=fit_width)
        return built

    def test_full_run_builds_each_context_once(self, monkeypatch):
        built = self._replay(monkeypatch, harness._CONTEXTS_MAX)
        assert len(built) == len(set(built)) == 6

    def test_bound_of_four_would_rebuild_in_table7(self, monkeypatch):
        # why the bound is 8: at 4, table VII rebuilds all four contexts
        assert len(self._replay(monkeypatch, 4)) == 10


def _fake_run(captured):
    def run(cells, **kwargs):
        captured.extend(cells)
        return [
            dict.fromkeys(("mct", "mct_improvement_pct", "leakage",
                           "leakage_improvement_pct", "runtime"), 0.0)
            for _ in cells
        ]

    return run


class TestInputs:
    def test_designs_iterator(self):
        table = table6(designs=iter(["AES-65"]), grid_sizes=(30.0,),
                       certify=True)
        assert [row[:2] for row in table.rows] == [["AES-65", "30x30"]]

    def test_grid_sizes_iterator(self):
        table = table6(designs=("AES-65", "JPEG-65"),
                       grid_sizes=iter([30.0]), certify=True)
        assert [row[:2] for row in table.rows] == [
            ["AES-65", "30x30"], ["JPEG-65", "30x30"],
        ]

    @pytest.mark.parametrize("designs", [("FOO",), ("AES-45",),
                                         ("AES-65", "FOO")])
    def test_unknown_design_fails_before_any_cell(self, designs,
                                                  monkeypatch):
        ran = []
        monkeypatch.setattr(tables, "run_dmopt_cells", _fake_run(ran))
        with pytest.raises(KeyError, match="unknown design .*available"):
            table4(designs=designs)
        assert ran == []

    @pytest.mark.parametrize("driver", [table4, table5, table6])
    def test_empty_grid_sizes_give_no_rows(self, driver, monkeypatch):
        ran = []
        monkeypatch.setattr(tables, "run_dmopt_cells", _fake_run(ran))
        assert driver(designs=("AES-65",), grid_sizes=()).rows == []
        assert ran == []

    def test_default_grids_follow_each_node(self, monkeypatch):
        ran = []
        monkeypatch.setattr(tables, "run_dmopt_cells", _fake_run(ran))
        table = table4(designs=("AES-65", "AES-90"))
        assert [row[1] for row in table.rows] == [
            "5x5", "10x10", "30x30", "5x5", "10x10", "50x50",
        ]
        assert [(c.design, c.grid_size, c.mode) for c in ran[:2]] == [
            ("AES-65", 5.0, "qp"), ("AES-65", 5.0, "qcp"),
        ]
        ran.clear()
        table5(designs=("AES-90",))
        assert sorted({c.grid_size for c in ran}) == [5.0, 10.0, 50.0]
        assert {(c.both_layers, c.fit_width) for c in ran} == {
            (False, True), (True, True),
        }
