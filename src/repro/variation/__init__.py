"""Timing yield under CD variation: Monte Carlo and first-order SSTA.

Both engines time the linearized model of
:func:`~repro.variation.montecarlo.first_order_timing` over the design
context's compiled timing graph and its per-level fan-in slot layout
(``CompiledTimingGraph.fanin_slots``).  :class:`TimingMonteCarlo` draws
and times its samples in fixed column blocks; :class:`SSTA` runs
Clark's max over a whole level per arc slot.
"""

from repro.variation.ssta import (
    SSTA,
    CanonicalDelay,
    clark_max,
    ssta_timing_yield,
)
from repro.variation.montecarlo import (
    TimingMonteCarlo,
    VariationModel,
    timing_yield,
    yield_curve,
)

__all__ = [
    "VariationModel",
    "TimingMonteCarlo",
    "timing_yield",
    "yield_curve",
    "SSTA",
    "CanonicalDelay",
    "clark_max",
    "ssta_timing_yield",
]
