"""Design context: everything DMopt needs about one placed design.

Bundles the netlist, library, placement, golden STA baseline, leakage
baseline, and the delay/leakage coefficient fitters -- i.e. the "input"
box of the paper's Fig. 8: original dose maps, characterized libraries,
and the input slews / output capacitances of all cells.
"""

from __future__ import annotations

import numpy as np

from repro.fitting import DelayFitter, LeakageFitter
from repro.netlist.designs import DesignBundle, make_design
from repro.placement import place_design
from repro.power import total_leakage
from repro.sta import make_analyzer


class DesignContext:
    """An analyzed, placed design ready for dose-map optimization.

    Parameters
    ----------
    bundle:
        A :class:`~repro.netlist.designs.DesignBundle` (or a design name,
        which is generated on the fly).
    placement:
        Optional pre-made placement; by default the design is placed with
        the standard placer.
    fit_width:
        When True, delay/leakage coefficients are fitted over the 2-D
        (dL, dW) variant space (needed for both-layer optimization).
    """

    def __init__(self, bundle, placement=None, fit_width: bool = False,
                 seed: int = 7):
        if isinstance(bundle, str):
            bundle = make_design(bundle)
        if not isinstance(bundle, DesignBundle):
            raise TypeError("bundle must be a DesignBundle or design name")
        self.bundle = bundle
        self.netlist = bundle.netlist
        self.library = bundle.library
        if not self.netlist.gates:
            # fail here with a clear message instead of deep inside the
            # STA engine's array assembly
            raise ValueError(
                f"netlist {self.netlist.name!r} has no gates: nothing to "
                "analyze or optimize"
            )
        self.placement = placement if placement is not None else place_design(
            bundle, seed=seed
        )
        self.analyzer = make_analyzer(
            self.netlist, self.library, self.placement
        )
        #: The compiled timing DAG every analysis reads.
        self.timing_graph = self.analyzer.graph
        #: Golden STA at nominal dose.
        self.baseline = self.analyzer.analyze()
        #: Golden total leakage (uW) at nominal dose.
        self.baseline_leakage = total_leakage(self.netlist, self.library)
        self.delay_fitter = DelayFitter(self.library, fit_width=fit_width)
        self.leakage_fitter = LeakageFitter(self.library, fit_width=fit_width)
        self.fit_width = fit_width
        #: Pruned-formulation cache keyed by (grid_size, both_layers,
        #: seam_smoothness, prune range); see formulation_for.
        self._formulation_cache: dict = {}
        #: Formulations assembled so far (cache misses of formulation_for).
        self.formulation_builds = 0

    # ------------------------------------------------------------------
    def formulation_for(self, grid_size: float, both_layers: bool = False,
                        dose_range: float = None, smoothness: float = None,
                        seam_smoothness: bool = False):
        """The pruned DMopt program for this design, cached per structure.

        This is the program every DMopt solve sees: the full assembly
        of :func:`repro.core.formulate.build_formulation` without the
        timing rows that cannot bind at any dose within ``+-R``, ``R =
        max(5, dose_range)`` (:func:`repro.core.formulate.prune_formulation`).
        The constraint matrix ``A`` and leakage quadratic depend only on
        ``(grid_size, both_layers, seam_smoothness, R)`` -- dose-range
        and smoothness limits live purely in the ``l``/``u`` bound
        vectors -- so the key depends on the call's own arguments, never
        on which ranges were asked for before.  The first call per key
        assembles and prunes; later calls -- e.g. the points of a
        dose-range sweep within +-5 % -- reuse the cached matrices and
        only retarget bounds, so a sweep point costs O(rows) instead of
        a full reassembly.  Retargeted siblings share their ``shared``
        scratch dict, which lets solvers reuse pattern-dependent
        workspaces across the sweep.
        """
        from repro.constants import DEFAULT_DOSE_RANGE, DEFAULT_SMOOTHNESS
        from repro.core.formulate import (
            build_formulation,
            prune_formulation,
            prune_range_for,
        )

        if dose_range is None:
            dose_range = DEFAULT_DOSE_RANGE
        if smoothness is None:
            smoothness = DEFAULT_SMOOTHNESS
        prune_range = prune_range_for(dose_range)
        key = (float(grid_size), bool(both_layers), bool(seam_smoothness),
               prune_range)
        form = self._formulation_cache.get(key)
        if form is not None and self._formulation_stale(form, grid_size,
                                                        both_layers):
            form = None
        if form is None:
            self.formulation_builds += 1
            full = build_formulation(
                self,
                grid_size,
                both_layers=both_layers,
                dose_range=dose_range,
                smoothness=smoothness,
                seam_smoothness=seam_smoothness,
            )
            form = prune_formulation(self, full)
            self._formulation_cache[key] = form
        return form.retarget(dose_range=dose_range, smoothness=smoothness)

    def _formulation_stale(self, form, grid_size: float,
                           both_layers: bool) -> bool:
        """Whether a cached formulation no longer matches this design.

        The cache key carries ``grid_size``, but the grid's M x N counts
        derive from the *die* dimensions too: if the placement (and with
        it the die outline) was swapped or resized after the formulation
        was assembled, the cached ``A`` indexes a grid that no longer
        exists.  Same for the layer set (``both_layers`` doubles the
        dose variables).
        """
        from repro.dosemap.grid import GridPartition

        if bool(form.both_layers) != bool(both_layers):
            return True
        die = self.placement.die
        fresh = GridPartition(die.width, die.height, grid_size)
        part = form.partition
        return (part.m, part.n) != (fresh.m, fresh.n) or (
            part.width,
            part.height,
        ) != (fresh.width, fresh.height)

    # ------------------------------------------------------------------
    def delay_fit_for(self, gate_name: str):
        """A_p/B_p fit at the gate's analyzed (slew, load) operating point."""
        master = self.netlist.gate(gate_name).master
        return self.delay_fitter.fit_for(
            master,
            self.baseline.input_slew[gate_name],
            self.baseline.load[gate_name],
        )

    def leakage_fit_for(self, gate_name: str):
        """alpha/beta/gamma fit for the gate's master."""
        return self.leakage_fitter.fit(self.netlist.gate(gate_name).master)

    # ------------------------------------------------------------------
    def gate_dose_array(self, dose_map_poly, dose_map_active=None,
                        placement=None, snap: bool = True) -> np.ndarray:
        """Per-gate (poly %, active %) doses from dose maps, as an (n, 2)
        array in netlist gate order.

        Doses are snapped to the characterized variant grid by default --
        the paper's rounding step before golden signoff.
        """
        place = placement if placement is not None else self.placement
        names = list(self.netlist.gates)
        doses = np.zeros((len(names), 2))
        for layer, dose_map in enumerate((dose_map_poly, dose_map_active)):
            if dose_map is None:
                continue
            dose = dose_map.doses_of_gates(place, names)
            doses[:, layer] = self.library.snap_dose(dose) if snap else dose
        return doses

    def gate_doses(self, dose_map_poly, dose_map_active=None, placement=None,
                   snap: bool = True) -> dict:
        """:meth:`gate_dose_array` as a gate name -> (poly %, active %) dict."""
        doses = self.gate_dose_array(dose_map_poly, dose_map_active,
                                     placement, snap)
        return dict(zip(
            self.netlist.gates,
            zip(doses[:, 0].tolist(), doses[:, 1].tolist()),
        ))

    def golden_eval(self, dose_map_poly, dose_map_active=None, placement=None,
                    snap: bool = True):
        """Golden (MCT, total leakage) under dose maps, after snapping.

        Mirrors the paper's signoff: timing from the full STA with
        dose-variant characterized cells, leakage from the exact
        (exponential) device model -- *not* from the optimizer's local
        linear/quadratic approximations.
        """
        doses = self.gate_dose_array(dose_map_poly, dose_map_active,
                                     placement, snap)
        analyzer = self.analyzer_for(placement)
        result = analyzer.analyze(doses=doses)
        leak = total_leakage(self.netlist, self.library, doses)
        return result, leak

    def analyzer_for(self, placement=None):
        """An STA engine bound to ``placement`` (the context's by default).

        The compiled timing graph is shared, so binding another placement
        costs only a geometry rebuild.  The engine re-times a mutable
        placement incrementally (``update_placement`` + ``trial_mct``).
        """
        if placement is None or placement is self.placement:
            return self.analyzer
        return self.analyzer.rebind(placement)

    def __repr__(self):
        return (
            f"DesignContext({self.bundle.name!r}, "
            f"MCT={self.baseline.mct:.3f} ns, "
            f"leakage={self.baseline_leakage:.1f} uW)"
        )
