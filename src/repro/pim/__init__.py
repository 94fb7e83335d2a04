"""Cycle-level digital PIM substrate.

Models the Wave-PIM hardware bottom-up from the paper's Table 3/4
parameters: memristor device energies and the NOR latency, MAGIC-style
NOR-only bit-serial arithmetic (gate-level simulated in :mod:`magic` to
*derive* the per-operation NOR counts), 1K x 1K memory blocks with
row-parallel execution, tiles of 256 blocks joined by an H-tree or Bus,
chips of 512 MB - 16 GB, a 900 GB/s HBM2 off-chip path, an ISA with the
paper's LUT instruction (Fig. 4 / Alg. 1), and an executor that provides
both functional semantics (numpy row math, float32) and timing/energy
accounting from the same cost tables.
"""

from repro.pim.params import (
    DeviceParams,
    ComponentPower,
    ChipConfig,
    ProcessScaling,
    CHIP_CONFIGS,
    DEFAULT_DEVICE,
    DEFAULT_POWER,
    DEFAULT_SCALING,
)
from repro.pim.magic import NorMachine, nor_add, nor_multiply
from repro.pim.arithmetic import OpCosts, default_op_costs
from repro.pim.isa import Opcode, Instruction, LutInstructionFormat
from repro.pim.block import MemoryBlock
from repro.pim.lut import LookupTable
from repro.pim.hbm import HbmModel
from repro.pim.tile import Tile
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor, TimingReport
from repro.pim.energy import EnergyAccount, chip_power_table

__all__ = [
    "DeviceParams",
    "ComponentPower",
    "ChipConfig",
    "ProcessScaling",
    "CHIP_CONFIGS",
    "DEFAULT_DEVICE",
    "DEFAULT_POWER",
    "DEFAULT_SCALING",
    "NorMachine",
    "nor_add",
    "nor_multiply",
    "OpCosts",
    "default_op_costs",
    "Opcode",
    "Instruction",
    "LutInstructionFormat",
    "MemoryBlock",
    "LookupTable",
    "HbmModel",
    "Tile",
    "PimChip",
    "ChipExecutor",
    "TimingReport",
    "EnergyAccount",
    "chip_power_table",
]
