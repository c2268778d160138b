"""Runtime scaling study (the paper's Table IV reports solver runtimes).

Measures DMopt QP runtime as the dose grid refines on one design:
the variable count grows with grid count while the timing constraints
stay fixed, so runtime should grow modestly -- the practical property
that makes fine grids (and their better results) affordable.  The
variable and constraint counts are those of the pruned program the
solver sees (``DesignContext.formulation_for``), not of the full
assembly.
"""

from repro.core import optimize_dose_map
from repro.experiments import get_context
from repro.experiments.harness import TableResult

GRIDS = (30.0, 15.0, 10.0, 7.5, 5.0)


def _run():
    ctx = get_context("AES-65")
    rows = []
    for g in GRIDS:
        res = optimize_dose_map(ctx, g, mode="qp")
        form = res.formulation
        rows.append(
            [
                f"{g:g}",
                form.partition.n_grids,
                form.n_vars,
                form.A.shape[0],
                res.solve.iterations,
                res.runtime,
                res.leakage_improvement_pct,
            ]
        )
    return TableResult(
        exp_id="Scaling",
        title="DMopt QP runtime vs grid refinement (AES-65)",
        headers=["G um", "grids", "vars", "constraints", "iters",
                 "runtime s", "leak imp %"],
        rows=rows,
    )


def _check(table):
    grids = table.column("grids")
    runtimes = table.column("runtime s")
    imps = table.column("leak imp %")
    # refinement helps quality (paper's granularity claim)
    assert imps[-1] > imps[0]
    # and stays affordable: even a 30x grid-count growth costs well
    # under 100x runtime (interior-point iteration counts are flat)
    assert grids[-1] > 10 * grids[0]
    assert runtimes[-1] < 100 * max(runtimes[0], 0.05)
    iters = table.column("iters")
    assert max(iters) < 80, "IPM iteration counts must stay flat"


def test_runtime_scaling(benchmark, save_result):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_result(table, "runtime_scaling")
    _check(table)
