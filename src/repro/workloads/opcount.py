"""Operation counting: the single source of truth behind Table 6.

Counts come from walking the *same instruction streams* the Wave-PIM
compiler emits (one representative interior element), so the PIM timing
model, the GPU roofline and the Table 6 reproduction cannot drift apart
(DESIGN.md §5.3).  Arithmetic instructions execute row-parallel, so one
ADD over ``r`` rows is ``r`` scalar flops.

GPU thread-level instruction counts (the paper's ``inst_executed * 32``)
are estimated as ``alpha * flops + beta * words_accessed`` — flops plus
address arithmetic, loads/stores and control; ``alpha``/``beta`` are
calibrated once against the acoustic benchmark and held fixed, so the
cross-benchmark *shape* is a genuine prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernels.acoustic import AcousticOneBlockKernels
from repro.core.kernels.elastic import ElasticFourBlockKernels
from repro.core.mapper import ElementMapper
from repro.dg.materials import AcousticMaterial, ElasticMaterial
from repro.dg.mesh import HexMesh
from repro.dg.reference_element import ReferenceElement
from repro.pim.isa import Opcode
from repro.pim.params import CHIP_CONFIGS
from repro.workloads.benchmarks import BenchmarkSpec

__all__ = ["OpCount", "count_benchmark", "INSTR_ALPHA", "INSTR_BETA"]

#: GPU thread-instructions per flop and per word moved (calibrated once).
INSTR_ALPHA = 4.0
INSTR_BETA = 12.0


@dataclass(frozen=True)
class OpCount:
    """Per-launch operation counts for one benchmark (all elements)."""

    benchmark: str
    n_elements: int
    #: scalar fp operations per kernel-launch set (Volume+Flux+Integration
    #: each launched once, as in Table 6)
    fp_ops: int
    fp_ops_volume: int
    fp_ops_flux: int
    fp_ops_integration: int
    #: 32-bit words moved per launch set (gathers, transfers, broadcasts)
    words_moved: int
    #: PIM instructions per launch set
    pim_instructions: int
    #: estimated GPU thread-level instructions per launch set
    gpu_instructions_est: int

    @property
    def arithmetic_intensity(self) -> float:
        """flops per byte of data movement."""
        return self.fp_ops / (4.0 * self.words_moved) if self.words_moved else float("inf")


_FLOP_OPS = (Opcode.ADD, Opcode.SUB, Opcode.MUL)
_MOVE_OPS = (Opcode.GATHER, Opcode.BROADCAST, Opcode.COPY, Opcode.TRANSFER)


def _stream_counts(insts) -> tuple[int, int]:
    """(scalar flops, words moved) of an instruction stream."""
    flops = sum(i.n_rows for i in insts if i.op in _FLOP_OPS)
    words = sum(i.n_rows * i.words for i in insts if i.op in _MOVE_OPS)
    return flops, words


def count_benchmark(spec: BenchmarkSpec, order: int | None = None) -> OpCount:
    """Count one benchmark's per-launch operations from its kernel streams."""
    order = spec.order if order is None else order
    mesh = HexMesh.from_refinement_level(spec.refinement_level)
    element = ReferenceElement(order)
    chip = CHIP_CONFIGS["16GB"]

    if spec.physics == "acoustic":
        mapper = ElementMapper(mesh.m, chip, 1)
        material = AcousticMaterial.homogeneous(mesh.n_elements)
        kern = AcousticOneBlockKernels(mesh, element, material, mapper, spec.flux_kind)
    else:
        mapper = ElementMapper(mesh.m, chip, 4)
        material = ElasticMaterial.homogeneous(mesh.n_elements)
        kern = ElasticFourBlockKernels(mesh, element, material, mapper, spec.flux_kind)

    rep = [int(mapper.elements[mapper.n_elements // 2])]
    vol = kern.volume(elements=rep)
    flux = kern.flux(elements=rep)
    integ = kern.integration(0, 1e-4, elements=rep)
    vol_f, vol_w = _stream_counts(vol)
    flux_f, flux_w = _stream_counts(flux)
    integ_f, integ_w = _stream_counts(integ)
    n_insts = len(vol) + len(flux) + len(integ)

    K = spec.n_elements
    fp_volume = vol_f * K
    fp_flux = flux_f * K
    fp_integration = integ_f * K
    fp_total = fp_volume + fp_flux + fp_integration
    words = (vol_w + flux_w + integ_w) * K
    gpu_inst = int(INSTR_ALPHA * fp_total + INSTR_BETA * words)

    return OpCount(
        benchmark=spec.name,
        n_elements=K,
        fp_ops=fp_total,
        fp_ops_volume=fp_volume,
        fp_ops_flux=fp_flux,
        fp_ops_integration=fp_integration,
        words_moved=words,
        pim_instructions=n_insts * K,
        gpu_instructions_est=gpu_inst,
    )
