"""Instruction-stream generators for the Wave-PIM kernels.

Each generator turns one dG kernel (Fig. 2: Volume, Flux, Integration)
into the PIM instruction sequence of Fig. 5's execution timeline:
constant gathers, row-parallel float32 arithmetic, inter-block transfers
for neighbor data, and the per-stage RK update.  The same streams serve
three purposes: functional execution (verified against the numpy dG
solver), timing/energy estimation, and operation counting (Table 6).
"""

from repro.core.kernels.acoustic import AcousticOneBlockKernels, AcousticFourBlockKernels
from repro.core.kernels.elastic import ElasticFourBlockKernels
from repro.core.kernels.maxwell import MaxwellOneBlockKernels

__all__ = [
    "AcousticOneBlockKernels",
    "AcousticFourBlockKernels",
    "ElasticFourBlockKernels",
    "MaxwellOneBlockKernels",
]
