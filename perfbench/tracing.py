"""Per-layer tracing for the benchmark's traced repetitions.

The program's own spans stop at the DMopt driver (``dmopt``,
``dmopt.solve``, ``dmopt.signoff``), the dose-range sweep and the
harness.  For a traced repetition the benchmark wraps the public
functions of every other layer in :func:`repro.obs.span`, each at the
attribute its caller looks it up by -- ``repro.core.dmopt.solve_qcp``
rather than ``repro.solver.qcp.solve_qcp``, because ``dmopt`` imported
the name -- and restores every attribute afterwards.  SuperLU
factorizations are reached through ``spla.splu`` in the solver modules,
so ``spla`` is replaced there by a proxy whose ``splu`` also records the
factor fill.

Self times per span name come from :func:`repro.obs.report.summarize`
over the repetition's manifest; :func:`layer_metrics` turns them into
the per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager

#: ``(module, attribute path, span name)``: what a traced repetition
#: wraps.  The first component of a span name names its layer (see
#: :data:`LAYER_OF`).
TARGETS = (
    # core.model: design context build and golden signoff
    ("repro.core.model", "DesignContext.__init__", "model.context"),
    ("repro.core.model", "DesignContext.golden_eval", "model.golden_eval"),
    ("repro.netlist.designs", "make_design", "netlist.generate"),
    ("repro.netlist", "make_design", "netlist.generate"),
    ("repro.core.model", "place_design", "placement.place"),
    ("repro.core.model", "make_analyzer", "sta.compile"),
    # core.formulate
    ("repro.core.model", "DesignContext.formulation_for", "formulate.lookup"),
    ("repro.core.formulate", "build_formulation", "formulate.build"),
    # solver
    ("repro.core.dmopt", "solve_qcp", "solver.qcp"),
    ("repro.core.dmopt", "solve_qp_robust", "solver.robust"),
    ("repro.core.dmopt", "diagnose_infeasibility", "solver.diagnose"),
    ("repro.solver.qcp", "solve_qp_robust", "solver.robust"),
    ("repro.solver.robust", "solve_qp_ipm", "solver.ipm"),
    ("repro.solver.robust", "solve_qp", "solver.admm"),
    ("repro.solver.ipm", "spla", "solver.lu"),
    ("repro.solver.qp", "spla", "solver.lu"),
    ("repro.solver.guards", "spla", "solver.lu"),
    # core.snap
    ("repro.core.dmopt", "snap_dose_map", "snap"),
    # sta
    ("repro.sta.compiled", "VectorTimingAnalyzer.analyze", "sta.full"),
    ("repro.sta.compiled", "VectorTimingAnalyzer.mct", "sta.trial"),
    ("repro.sta.compiled", "VectorTimingAnalyzer.trial_mct", "sta.trial"),
    ("repro.sta.compiled", "VectorTimingAnalyzer.update_placement",
     "sta.update"),
    ("repro.sta.compiled", "VectorTimingAnalyzer.rebind", "sta.update"),
    ("repro.core.dosepl", "top_k_paths", "sta.paths"),
    # power
    ("repro.core.model", "total_leakage", "power.leakage"),
    ("repro.core.sweep", "total_leakage", "power.leakage"),
    # core.certify
    ("repro.core.certify", "certify_result", "certify"),
    ("repro.core", "certify_result", "certify"),
    # core.dosepl + placement
    ("repro.core.dosepl", "run_dosepl", "dosepl.run"),
    ("repro.core.dosepl", "_try_round", "dosepl.round"),
    ("repro.core.dosepl", "legalize", "placement.legalize"),
    # core.sweep (the dose-range sweep has spans of its own)
    ("repro.core.sweep", "uniform_dose_sweep", "sweep.uniform"),
    # variation
    ("repro.variation.montecarlo", "TimingMonteCarlo.__init__",
     "variation.mc_build"),
    ("repro.variation.montecarlo", "TimingMonteCarlo.sample_dl",
     "variation.mc_sample"),
    ("repro.variation.montecarlo", "TimingMonteCarlo.mct_samples",
     "variation.mc_eval"),
    ("repro.variation.ssta", "SSTA.__init__", "variation.ssta"),
    ("repro.variation.ssta", "SSTA.analyze", "variation.ssta"),
    # experiments.harness + resilience
    ("repro.experiments.harness", "supervised_map", "harness.pool"),
    ("repro.resilience.checkpoint", "CheckpointStore.__init__",
     "checkpoint.load"),
    ("repro.resilience.checkpoint", "CheckpointStore.put", "checkpoint.put"),
)

#: Span-name prefix -> layer, for the self-time table.  ``dmopt*``,
#: ``sweep.dose_range``/``sweep.point``, ``harness.run_dmopt_cells`` and
#: ``cell`` are the program's own spans; ``bench.rep`` is the
#: repetition's root, whose self time is the untimed remainder.
LAYER_OF = {
    "model": "core.model",
    "netlist": "netlist",
    "placement": "placement",
    "formulate": "core.formulate",
    "solver": "solver",
    "snap": "core.snap",
    "sta": "sta",
    "power": "power",
    "certify": "core.certify",
    "dosepl": "core.dosepl",
    "sweep": "core.sweep",
    "dmopt": "core.dmopt",
    "variation": "variation",
    "harness": "experiments.harness",
    "cell": "experiments.harness",
    "checkpoint": "resilience",
    "bench": "obs.other_s",
}

REP_SPAN = "bench.rep"

#: Per-layer values that count work: they must repeat exactly from one
#: traced repetition to the next.
TRACED_COUNTERS = (
    "formulate.builds",
    "formulate.cache_hits",
    "solver.lu_count",
    "solver.lu_nnz",
    "sta.full_passes",
    "sta.trial_calls",
    "power.leakage_calls",
    "placement.legalize_calls",
    "checkpoint.hits",
)


def layer_of(span_name: str) -> str:
    return LAYER_OF.get(span_name.split(".")[0], "unmapped")


class _SplaProxy:
    """``scipy.sparse.linalg`` stand-in whose ``splu`` is spanned."""

    def __init__(self, module, span_name):
        self._module = module
        self._span_name = span_name

    def splu(self, A, *args, **kwargs):
        from repro import obs

        with obs.span(self._span_name, n=int(A.shape[0])) as sp:
            lu = self._module.splu(A, *args, **kwargs)
            if sp is not None:
                sp["nnz"] = int(lu.nnz)  # fill of L + U
            return lu

    def __getattr__(self, name):
        return getattr(self._module, name)


def _spanned(fn, span_name):
    from repro import obs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(span_name):
            return fn(*args, **kwargs)

    return wrapper


def _lookup(owner, attr):
    # a class attribute comes from __dict__, so a restore puts back
    # exactly the object that was there rather than a bound method
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


@contextmanager
def installed(targets=TARGETS):
    """Wrap every target for the duration of the block, then restore.

    Yields the targets that no longer exist (a refactor moved them):
    they are skipped, and the traced run fails on them, since the
    layer would read 0 while its time went to its caller.
    Raises ``RuntimeError`` on exit if an attribute does not read back
    as its original, since the next untraced repetition would otherwise
    be measured with tracing in it.
    """
    saved, missing = [], []
    try:
        for module_name, path, span_name in targets:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = _lookup(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
                continue
            if attr == "spla":
                wrapper = _SplaProxy(original, span_name)
            else:
                wrapper = _spanned(original, span_name)
            setattr(owner, attr, wrapper)
            saved.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in saved
            if _lookup(owner, attr) is not original
        ]
        if leftover:
            raise RuntimeError(f"tracing wrappers not restored: {leftover}")


# ----------------------------------------------------------------------
# per-layer metrics from one traced repetition's manifest
# ----------------------------------------------------------------------
def _in_context(records) -> dict:
    """``{span name: [self seconds, calls]}`` inside ``model.context``.

    A context's baseline STA pass and leakage sum are the same calls as
    signoff's; they are split out so that ``sta.full_s`` and the
    leakage calls move with signoff and dosePl work, and
    ``sta.baseline_s`` with set-up.  (On ``cells_jobs2`` the number of
    context builds also depends on which worker serves which cell.)
    """
    from repro.obs import report

    found = {}
    for roots in report.build_trees(records).values():
        stack = [(root, False) for root in roots]
        while stack:
            node, in_ctx = stack.pop()
            if in_ctx:
                entry = found.setdefault(node.name, [0.0, 0])
                entry[0] += node.self_seconds
                entry[1] += 1
            inside = in_ctx or node.name == "model.context"
            stack.extend((child, inside) for child in node.children)
    return found


def layer_metrics(path) -> dict:
    """Per-layer self times and work counts of one traced repetition.

    ``*_s`` values are self times (a span's duration minus its child
    spans), so they add up: with ``obs.other_s`` they sum to the
    repetition's wall time in the benchmark process.  ``table`` lists
    ``(span name, layer, self seconds, calls)``.
    """
    from repro.obs import report

    summary = report.summarize(path)
    spans = summary["spans"]
    records, _ = report.load_manifest(path)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_total", 0.0) for n in names)

    def count(name):
        return spans.get(name, {}).get("count", 0)

    def span_records(name):
        return [r for r in records
                if r.get("event") == "span" and r.get("name") == name]

    in_ctx = _in_context(records)
    base_s, base_passes = in_ctx.get("sta.full", (0.0, 0))
    rep = spans.get(REP_SPAN, {"total": 0.0, "self_total": 0.0})
    run_end = [r for r in records if r.get("event") == "run_end"
               and r.get("run") == "dmopt_cells"]
    wall = rep["total"]
    solver_other = [n for n in spans
                    if n.startswith("solver.") and n != "solver.lu"]
    return {
        "metrics": {
            "model.context_s": self_s("model.context"),
            "netlist.generate_s": self_s("netlist.generate"),
            "placement.place_s": self_s("placement.place"),
            "sta.baseline_s": self_s("sta.compile") + base_s,
            "formulate.build_s": self_s("formulate.build"),
            "formulate.builds": count("formulate.build"),
            "formulate.cache_hits": count("formulate.lookup")
            - count("formulate.build"),
            "solver.lu_s": self_s("solver.lu"),
            "solver.lu_count": count("solver.lu"),
            "solver.lu_nnz": sum(
                int(r.get("nnz", 0)) for r in span_records("solver.lu")
            ),
            "solver.ipm_other_s": self_s(*solver_other),
            "snap.s": self_s("snap"),
            "sta.full_s": self_s("sta.full") - base_s,
            "sta.full_passes": count("sta.full") - base_passes,
            "sta.trial_s": self_s("sta.trial"),
            "sta.trial_calls": count("sta.trial"),
            "sta.update_s": self_s("sta.update"),
            "sta.paths_s": self_s("sta.paths"),
            "power.leakage_s": self_s("power.leakage"),
            "power.leakage_calls": count("power.leakage")
            - in_ctx.get("power.leakage", (0.0, 0))[1],
            "certify.s": self_s("certify"),
            "placement.legalize_s": self_s("placement.legalize"),
            "placement.legalize_calls": count("placement.legalize"),
            "variation.mc_build_s": self_s("variation.mc_build"),
            "variation.mc_eval_s": self_s("variation.mc_eval"),
            "variation.ssta_s": self_s("variation.ssta"),
            "harness.cell_s_sum": sum(
                float(r.get("seconds", 0.0)) for r in span_records("cell")
            ),
            "harness.retries": sum(int(r.get("retries", 0)) for r in run_end),
            "harness.pool_restarts": sum(
                int(r.get("pool_restarts", 0)) for r in run_end
            ),
            "harness.timeouts": sum(
                int(r.get("timeouts", 0)) for r in run_end
            ),
            "checkpoint.hits": sum(
                1 for r in records if r.get("event") == "checkpoint_hit"
            ),
            "obs.other_s": rep["self_total"],
            "obs.coverage_pct": (
                100.0 * (1.0 - rep["self_total"] / wall) if wall > 0 else 0.0
            ),
        },
        "wall_s": wall,
        "table": [
            (name, layer_of(name), entry["self_total"], entry["count"])
            for name, entry in spans.items()
        ],
    }
