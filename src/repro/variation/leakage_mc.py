"""Monte Carlo leakage distribution under CD variation.

Chip leakage under gate-length variation is the classic heavy-tailed
(lognormal-like) distribution: the exponential leakage-vs-L relation
turns symmetric CD noise into asymmetric leakage noise, so *mean* chip
leakage exceeds the leakage of the mean chip.  This estimator samples the
exact exponential device model (not the optimizer's quadratic), fully
vectorized across samples and gates, and quantifies how a dose map shifts
the distribution.  Sample columns are the gates in the compiled timing
graph's ``names`` order, the same as :mod:`repro.variation.montecarlo`.
"""

from __future__ import annotations

import numpy as np

from repro.tech import device
from repro.variation.montecarlo import check_dl, gate_dose_shift_nm


class LeakageMonteCarlo:
    """Vectorized exact-model leakage sampler for one design.

    Parameters
    ----------
    ctx:
        A :class:`~repro.core.model.DesignContext`.  Per-gate device
        parameters (widths, stacks, state factors) are captured once; the
        per-sample evaluation is pure numpy.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        lib = ctx.library
        self.node = lib.node
        self.graph = ctx.timing_graph
        masters = [lib.cell(m) for m in self.graph.masters]
        self._w_n = np.array([m.w_n for m in masters])
        self._w_p = np.array([m.w_p for m in masters])
        self._stack_n = np.array([float(m.stack_n) for m in masters])
        self._stack_p = np.array([float(m.stack_p) for m in masters])
        self._leak_states = np.array([m.leak_states for m in masters])

    def leakage_samples(self, dl_nm: np.ndarray, dose_map=None) -> np.ndarray:
        """Total chip leakage (uW) per sample.

        ``dl_nm`` has shape (n_samples, n_gates) with gate columns in
        ``graph.names`` order (compatible with
        :meth:`TimingMonteCarlo.sample_dl`) and must be finite.
        """
        dl_nm = check_dl(dl_nm, self.graph.n)
        node = self.node
        shift = gate_dose_shift_nm(self.ctx, dose_map)
        lengths = np.maximum(node.l_nominal + dl_nm + shift, 1.0)
        i_n = device.leakage_current(node, lengths, self._w_n) / self._stack_n
        i_p = device.leakage_current(node, lengths, self._w_p) / self._stack_p
        per_gate = self._leak_states * 0.5 * (i_n + i_p) * node.vdd
        return per_gate.sum(axis=1)

    def nominal_leakage(self) -> float:
        """Zero-variation total (sanity anchor to the golden analysis)."""
        return float(self.leakage_samples(np.zeros((1, self.graph.n)))[0])


def leakage_statistics(samples: np.ndarray) -> dict:
    """Summary statistics of a leakage sample set.

    Returns mean, std, p50/p95/p99 and the mean/median ratio (a
    tail-heaviness indicator; > 1 for the lognormal-like chip leakage).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples")
    p50, p95, p99 = np.percentile(samples, [50, 95, 99])
    return {
        "mean": float(samples.mean()),
        "std": float(samples.std()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean_over_median": float(samples.mean() / p50),
    }
