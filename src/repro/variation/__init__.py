"""Monte Carlo timing-yield estimation under CD variation."""

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
