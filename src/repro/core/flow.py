"""End-to-end optimization flow (paper Fig. 7 / Fig. 8).

``run_flow`` chains the full pipeline on one design:

1. generate/accept the placed design, run golden STA and leakage analysis,
2. fit delay/leakage coefficients from the characterized libraries,
3. run DMopt (QP or QCP, poly or both layers) on the chosen grid,
4. snap doses to characterized variants, golden re-analysis,
5. optionally run dosePl cell swapping with legalization and golden
   accept/rollback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.dmopt import DEFAULT_DOSE_RANGE, DMoptResult, optimize_dose_map
from repro.core.dosepl import DoseplConfig, DoseplResult, run_dosepl
from repro.core.model import DesignContext
from repro.resilience.checkpoint import (
    CheckpointStore,
    checkpointed_dmopt,
    sweep_point_key,
)


@dataclass
class FlowResult:
    """Everything produced by one end-to-end run."""

    ctx: DesignContext
    dmopt: DMoptResult
    dosepl: DoseplResult
    runtime: float

    @property
    def final_mct(self) -> float:
        return self.dosepl.mct if self.dosepl is not None else self.dmopt.mct

    @property
    def final_leakage(self) -> float:
        return (
            self.dosepl.leakage if self.dosepl is not None else self.dmopt.leakage
        )

    def summary(self) -> str:
        base_mct = self.ctx.baseline.mct
        base_leak = self.ctx.baseline_leakage
        lines = [
            f"design          : {self.ctx.bundle.name}",
            f"baseline        : MCT {base_mct:.3f} ns, leakage {base_leak:.1f} uW",
            f"after DMopt     : MCT {self.dmopt.mct:.3f} ns "
            f"({self.dmopt.mct_improvement_pct:+.2f}%), leakage "
            f"{self.dmopt.leakage:.1f} uW "
            f"({self.dmopt.leakage_improvement_pct:+.2f}%)",
        ]
        if self.dosepl is not None:
            imp = (base_mct - self.dosepl.mct) / base_mct * 100.0
            lines.append(
                f"after dosePl    : MCT {self.dosepl.mct:.3f} ns ({imp:+.2f}%), "
                f"{self.dosepl.swaps_accepted} swap round(s) accepted"
            )
        lines.append(f"total runtime   : {self.runtime:.1f} s")
        return "\n".join(lines)


def run_flow(
    design,
    grid_size: float = 5.0,
    mode: str = "qcp",
    both_layers: bool = False,
    with_dosepl: bool = False,
    dosepl_config: DoseplConfig = None,
    checkpoint=None,
    resume: bool = True,
    **dmopt_kwargs,
) -> FlowResult:
    """Run the full timing/leakage optimization flow on a design.

    Parameters
    ----------
    design:
        Design name (``"AES-65"``...), :class:`DesignBundle`, or an
        existing :class:`DesignContext`.
    grid_size, mode, both_layers, **dmopt_kwargs:
        Forwarded to :func:`~repro.core.dmopt.optimize_dose_map`.
    with_dosepl:
        Run the cell-swapping placement pass after DMopt (the paper runs
        it after the QCP timing optimization, Table VIII).
    checkpoint:
        Optional path to a JSONL checkpoint file.  A converged DMopt
        solve -- the expensive stage -- is appended (fsync'd) under a
        content hash of the design fingerprint and the settings; with
        ``resume`` (default) a stored solve is served from the file
        instead (``dmopt.solve.info["resumed"]`` is set).  dosePl
        golden-verifies its own swaps and always runs live.
    resume:
        When False an existing checkpoint file is truncated first.
    """
    t_start = time.perf_counter()
    if isinstance(design, DesignContext):
        ctx = design
    else:
        ctx = DesignContext(design, fit_width=both_layers)
    store = key = None
    if checkpoint is not None:
        store = CheckpointStore(checkpoint, resume=resume)
        key_kwargs = {k: v for k, v in dmopt_kwargs.items()
                      if k != "dose_range"}
        key_kwargs["both_layers"] = both_layers
        key = sweep_point_key(
            ctx, grid_size, mode,
            dmopt_kwargs.get("dose_range", DEFAULT_DOSE_RANGE), key_kwargs,
        )
    try:
        dmopt = checkpointed_dmopt(
            store, key,
            lambda: optimize_dose_map(
                ctx, grid_size, mode=mode, both_layers=both_layers,
                **dmopt_kwargs,
            ),
            kind="flow",
        )
    finally:
        if store is not None:
            store.close()
    dosepl = None
    if with_dosepl:
        dosepl = run_dosepl(
            ctx, dmopt.dose_map_poly, config=dosepl_config
        )
    return FlowResult(
        ctx=ctx,
        dmopt=dmopt,
        dosepl=dosepl,
        runtime=time.perf_counter() - t_start,
    )
