"""Standard-cell library substrate: masters, NLDM tables, characterization."""

from repro.library.cell import CellMaster, build_masters
from repro.library.characterize import (
    CharacterizedCell,
    VariantRow,
    cell_leakage,
    characterize_cell,
    characterize_variants,
    input_capacitance,
)
from repro.library.library import DOSE_STEP, CellLibrary, VariantTable
from repro.library.nldm import NLDMTable, default_load_axis, default_slew_axis

__all__ = [
    "CellMaster",
    "build_masters",
    "CharacterizedCell",
    "characterize_cell",
    "characterize_variants",
    "VariantRow",
    "VariantTable",
    "cell_leakage",
    "input_capacitance",
    "CellLibrary",
    "DOSE_STEP",
    "NLDMTable",
    "default_slew_axis",
    "default_load_axis",
]
