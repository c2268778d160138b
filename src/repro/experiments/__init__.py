"""Experiments: regeneration of every paper table and figure."""

from repro.experiments import paper_data
from repro.experiments.figures import (
    ascii_plot,
    fig1_dose_profiles,
    fig2_dose_sensitivity,
    fig3_delay_vs_length,
    fig4_delay_vs_width,
    fig5_leakage_vs_length,
    fig6_leakage_vs_width,
    fig10_slack_profiles,
)
from repro.experiments.harness import TableResult, get_context
from repro.experiments.tables import (
    GRID_SIZES,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)

__all__ = [
    "TableResult",
    "paper_data",
    "get_context",
    "GRID_SIZES",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "fig1_dose_profiles",
    "fig2_dose_sensitivity",
    "fig3_delay_vs_length",
    "fig4_delay_vs_width",
    "fig5_leakage_vs_length",
    "fig6_leakage_vs_width",
    "fig10_slack_profiles",
    "ascii_plot",
]
