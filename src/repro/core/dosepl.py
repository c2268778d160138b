"""dosePl: dose-map-aware placement optimization (paper Appendix).

Cell-swapping heuristic (Algorithm 1): swap timing-critical cells into
high-dose regions (where printed gates are shorter and faster) and
non-critical cells into low-dose regions, subject to:

* mutual bounding-box containment (Fig. 9) -- each cell must lie inside
  the other's fanin/fanout bounding box,
* a distance threshold proportional to the gate pitch,
* an HPWL-increase threshold on all incident nets (gamma_3, default 20 %),
* a combined leakage-increase threshold (gamma_4, default 10 %),
* at most gamma_1 swaps per critical path and gamma_5 swaps per round.

After each round the placement is legalized, "ECO routed" (wire parasitics
recomputed from the new geometry) and golden STA decides accept/rollback;
rolled-back cells are marked fixed.  Default 10 rounds, as in the paper.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.placement import incident_hpwl, legalize
from repro.sta import top_k_paths


@dataclass
class DoseplConfig:
    """Tunables of Algorithm 1 (names follow the paper's gammas)."""

    top_k: int = 1000
    rounds: int = 10
    swaps_per_path: int = 1  # gamma_1
    distance_factor: float = 10.0  # gamma_2 in units of gate pitch
    hpwl_increase_limit: float = 0.20  # gamma_3
    leakage_increase_limit: float = 0.10  # gamma_4
    swaps_per_round: int = 1  # gamma_5
    #: Max trial-STA evaluations per round: each candidate swap is gated
    #: on an incremental trial-STA pass (the dirty fanout cone only) and
    #: kept only if the trial MCT strictly improves.  Once spent, remaining
    #: candidates fall back to the static (HPWL/leakage) filters only,
    #: bounding the extra work the filter may do in a round.
    trial_budget: int = 32

    def __post_init__(self):
        """Reject a setting that would silently disable a filter.

        A NaN limit makes every comparison against it False (the filter
        never fires), and a negative count runs zero rounds or swaps
        while reporting a negative count; each raises ``ValueError``
        naming the field instead.
        """
        if not self.top_k >= 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k!r}")
        for name in ("rounds", "swaps_per_path", "swaps_per_round",
                     "trial_budget"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name in ("distance_factor", "hpwl_increase_limit",
                     "leakage_increase_limit"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )

    @classmethod
    def aggressive(cls) -> "DoseplConfig":
        """The TCAD version's "improved cell swapping strategy": more
        swaps per round and per path, more rounds.  The golden
        accept/rollback discipline makes extra aggression safe (a bad
        round is discarded wholesale); it simply explores more moves.
        """
        return cls(
            top_k=1500,
            rounds=14,
            swaps_per_path=2,
            swaps_per_round=4,
        )


@dataclass
class DoseplResult:
    """Outcome of the dosePl pass."""

    placement: object
    mct: float
    leakage: float
    baseline_mct: float
    swaps_accepted: int
    swaps_attempted: int
    rounds_run: int
    runtime: float
    history: list = field(default_factory=list)
    #: Candidate swaps discarded by the incremental trial-STA filter.
    swaps_trial_rejected: int = 0

    @property
    def mct_improvement_pct(self) -> float:
        return (self.baseline_mct - self.mct) / self.baseline_mct * 100.0


def _path_weights(paths, period: float) -> dict:
    """W(cell) = sum over critical paths through it of exp(-slack), eq. (13)."""
    weights: dict = {}
    for p in paths:
        w = math.exp(-(period - p.delay))
        for gate in p.gates:
            weights[gate] = weights.get(gate, 0.0) + w
    return weights


def _cell_leakage(ctx, gate_name: str, dose: float) -> float:
    master = ctx.netlist.gate(gate_name).master
    return ctx.library.characterized(
        master, ctx.library.snap_dose(dose), 0.0
    ).leakage_uw


def _try_round(ctx, dose_map, trial, ranked, cfg, fixed, stats, timer,
               trial_best):
    """One round of cell swapping, applied to ``trial`` in place.

    ``ranked`` is ``(paths, weights)``: the top-K critical paths of the
    accepted golden result, most-critical first, and their cell weights.

    ``timer``/``trial_best`` are the persistent incremental
    trial-STA state owned by :func:`run_dosepl` (hoisted out of the
    round so the engine's compiled geometry survives across rounds):
    after each candidate swap only the dirty fanout cone is re-timed,
    and the move is kept only if the trial MCT strictly improves --
    O(cone) per candidate instead of a full golden pass per round spent
    on a doomed swap.

    Returns ``(swaps_done, trial_best)``; rejected candidates are undone
    in place, so ``trial`` holds exactly the accepted swaps, and the
    timer reverts its pass over a rejected swap (``revert_trial``)
    instead of re-timing the cone.
    """
    nl = ctx.netlist
    partition = dose_map.partition
    paths, weights = ranked
    if not paths:
        return 0, trial_best
    critical_cells = set(weights)
    pitch = trial.gate_pitch()
    max_dist = cfg.distance_factor * pitch

    swaps_done = 0
    n_swapped_on_path: dict = {}
    trials_left = cfg.trial_budget

    # paths arrive most-critical first from top_k_paths
    for p_idx, path in enumerate(paths):
        if swaps_done >= cfg.swaps_per_round:
            break
        if n_swapped_on_path.get(p_idx, 0) >= cfg.swaps_per_path:
            continue
        cells = sorted(path.gates, key=lambda g: -weights.get(g, 0.0))
        for cell in cells:
            if cell in fixed or swaps_done >= cfg.swaps_per_round:
                continue
            dose_cell = dose_map.dose_of_gate(trial, cell)
            box = trial.neighborhood_bbox(cell, nl)
            # grids intersecting the bbox, sorted by dose descending
            i0, j0 = partition.grid_of(box[0], box[1])
            i1, j1 = partition.grid_of(box[2], box[3])
            grids = [
                (float(dose_map.values[i, j]), i, j)
                for i in range(i0, i1 + 1)
                for j in range(j0, j1 + 1)
            ]
            grids.sort(reverse=True)
            swapped = False
            for g_dose, gi, gj in grids:
                if g_dose <= dose_cell:
                    break  # no higher-dose grid available in the bbox
                x0 = gj * partition.cell_width
                y0 = gi * partition.cell_height
                candidates = [
                    c
                    for c in trial.cells_in_region(
                        x0, y0, x0 + partition.cell_width,
                        y0 + partition.cell_height,
                    )
                    if c not in critical_cells and c not in fixed and c != cell
                ]
                candidates.sort(key=lambda c: trial.distance(cell, c))
                for cand in candidates:
                    stats["attempted"] += 1
                    if trial.distance(cell, cand) > max_dist:
                        break  # sorted by distance: the rest are farther
                    box_cand = trial.neighborhood_bbox(cand, nl)
                    if not (
                        trial.in_box(cand, box) and trial.in_box(cell, box_cand)
                    ):
                        continue
                    # HPWL filter on both cells' incident nets
                    h_cell = incident_hpwl(nl, trial, cell)
                    h_cand = incident_hpwl(nl, trial, cand)
                    trial.swap(cell, cand)
                    h_cell_new = incident_hpwl(nl, trial, cell)
                    h_cand_new = incident_hpwl(nl, trial, cand)
                    limit = 1.0 + cfg.hpwl_increase_limit
                    if (
                        h_cell_new > limit * max(h_cell, 1e-9)
                        or h_cand_new > limit * max(h_cand, 1e-9)
                    ):
                        trial.swap(cell, cand)  # undo
                        continue
                    # leakage filter: combined leakage at the new doses
                    d_cell_new = dose_map.dose_of_gate(trial, cell)
                    d_cand_new = dose_map.dose_of_gate(trial, cand)
                    leak_before = _cell_leakage(ctx, cell, dose_cell)
                    leak_before += _cell_leakage(
                        ctx, cand, d_cell_new  # cand previously sat there
                    )
                    leak_after = _cell_leakage(ctx, cell, d_cell_new)
                    leak_after += _cell_leakage(ctx, cand, d_cand_new)
                    if (
                        leak_after - leak_before
                        > cfg.leakage_increase_limit * leak_before
                    ):
                        trial.swap(cell, cand)  # undo
                        continue
                    # incremental trial-STA filter
                    if trials_left > 0:
                        trials_left -= 1
                        upd = {
                            cell: (ctx.library.snap_dose(d_cell_new), 0.0),
                            cand: (ctx.library.snap_dose(d_cand_new), 0.0),
                        }
                        timer.update_placement((cell, cand))
                        m = timer.trial_mct(upd)
                        if m >= trial_best - 1e-12:
                            trial.swap(cell, cand)  # undo
                            timer.update_placement((cell, cand))
                            timer.revert_trial()
                            stats["trial_rejected"] += 1
                            # The closest statically-feasible partner in
                            # this grid doesn't improve MCT; move on to
                            # the next grid rather than burning trials
                            # on farther siblings.
                            break
                        trial_best = m
                    swaps_done += 1
                    n_swapped_on_path[p_idx] = n_swapped_on_path.get(p_idx, 0) + 1
                    stats["swapped_cells"].update((cell, cand))
                    swapped = True
                    break
                if swapped:
                    break
            if swapped:
                break

    return swaps_done, trial_best


def _resync_trial_state(ctx, dose_map, work, target, timer):
    """Make ``work`` (and the hoisted trial timer) match ``target``.

    Used after every round: on accept, ``target`` is the legalized
    placement (cells shifted by legalization); on rollback it is the
    previous accepted placement (the round's swaps must be undone).
    Only cells whose position differs are moved and re-timed, so the
    incremental engine state stays warm across rounds.

    Returns the trial MCT at the resynced state.
    """
    moved = [
        name
        for name, loc in target.items()
        if work.location(name) != loc
    ]
    for name in moved:
        x, y = target.location(name)
        work.place(name, x, y)
    if not moved:
        return timer.trial_mct({})
    timer.update_placement(moved)
    upd = {}
    for name in moved:
        dp = ctx.library.snap_dose(dose_map.dose_of_gate(work, name))
        upd[name] = (dp, 0.0)
    return timer.trial_mct(upd)


def run_dosepl(ctx, dose_map, placement=None, config: DoseplConfig = None):
    """Run the dosePl pass on top of an optimized dose map.

    Parameters
    ----------
    ctx:
        The design context (provides netlist, library, golden analysis).
    dose_map:
        The poly-layer :class:`~repro.dosemap.DoseMap` from DMopt.
    placement:
        Starting placement; defaults to the context's placement.
    config:
        :class:`DoseplConfig` overrides.

    Returns
    -------
    DoseplResult
    """
    cfg = config or DoseplConfig()
    t_start = time.perf_counter()
    place = (placement or ctx.placement).copy()

    golden, leak = ctx.golden_eval(dose_map, placement=place)
    best_mct, best_leak = golden.mct, leak
    baseline_mct = best_mct
    fixed: set = set()
    stats = {"attempted": 0, "trial_rejected": 0, "swapped_cells": set()}
    accepted = 0
    history = [(0, best_mct, best_leak)]

    # Persistent work placement + incremental trial timer, hoisted out
    # of the per-round loop: the engine's compiled geometry and timing
    # state survive across rounds and are resynced by position diff on
    # accept/rollback instead of being rebuilt from scratch.
    work = place.copy()
    timer = ctx.analyzer_for(work)
    work_mct = timer.mct(ctx.gate_dose_array(dose_map, placement=work))

    # the golden result changes only when a round is accepted: rounds
    # after a rollback or a zero-swap round reuse its ranked paths
    ranked = None
    for rnd in range(1, cfg.rounds + 1):
        if ranked is None:
            paths = top_k_paths(ctx.timing_graph, golden, cfg.top_k)
            ranked = paths, _path_weights(paths, golden.mct)
        swaps_done, work_mct = _try_round(
            ctx, dose_map, work, ranked, cfg, fixed, stats, timer, work_mct
        )
        if swaps_done == 0:
            history.append((rnd, best_mct, best_leak))
            continue
        # legalize + "ECO route": parasitics recomputed from new geometry
        trial = legalize(work, ctx.netlist, ctx.library)
        trial_res, trial_leak = ctx.golden_eval(
            dose_map, placement=trial
        )
        if trial_res.mct < best_mct - 1e-12:
            place, golden, ranked = trial, trial_res, None
            best_mct, best_leak = trial_res.mct, trial_leak
            accepted += 1
        else:
            # rollback: mark the cells involved as fixed
            fixed.update(stats["swapped_cells"])
        stats["swapped_cells"] = set()
        work_mct = _resync_trial_state(
            ctx, dose_map, work, place, timer
        )
        history.append((rnd, best_mct, best_leak))

    telemetry.emit(
        "dosepl",
        rounds_run=cfg.rounds,
        swaps_accepted=accepted,
        swaps_attempted=stats["attempted"],
        trial_rejected=stats["trial_rejected"],
        sta_full_passes=timer.full_passes,
        sta_cone_passes=timer.cone_passes,
        mct=best_mct,
        baseline_mct=baseline_mct,
        history=history,
        seconds=time.perf_counter() - t_start,
    )
    return DoseplResult(
        placement=place,
        mct=best_mct,
        leakage=best_leak,
        baseline_mct=baseline_mct,
        swaps_accepted=accepted,
        swaps_attempted=stats["attempted"],
        rounds_run=cfg.rounds,
        runtime=time.perf_counter() - t_start,
        history=history,
        swaps_trial_rejected=stats["trial_rejected"],
    )
