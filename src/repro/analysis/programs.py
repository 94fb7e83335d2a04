"""Representative check programs for the paper benchmarks.

A full benchmark batch compiles to millions of instructions; checking all
of them would dwarf the costing pass itself.  The checker instead audits
the same *representative streams* the compiler prices (one interior
element plus its six mapped neighbors): every kernel generator emits
identical per-element instruction shapes, so one element's stream
exercises every opcode, address pattern, transfer route and tag the full
batch would.

:func:`build_check_program` assembles ``setup + load | volume | flux |
integration`` with BARRIERs between the phases (the same delimiting
``rk_stage`` uses), and derives the :class:`CheckContext` from the
benchmark's Table 5 plan — occupancy bound from the mapper, storage-region
boundary from the element layout.

:func:`check_benchmark` is the ``repro check`` CLI entry;
:func:`verify_benchmark` the compiler's ``verify=True`` hook (raises
:class:`~repro.analysis.checker.ProgramCheckError` on error findings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.checker import (
    CheckContext,
    CheckOptions,
    check_program,
    raise_on_errors,
)
from repro.analysis.findings import Finding
from repro.obs import get_tracer
from repro.pim.chip import PimChip
from repro.pim.isa import Instruction, barrier
from repro.pim.params import CHIP_CONFIGS, ChipConfig
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkSpec

__all__ = [
    "CheckedProgram",
    "build_check_program",
    "check_benchmark",
    "verify_benchmark",
]


@dataclass
class CheckedProgram:
    """A representative instruction stream plus its machine context."""

    physics: str
    refinement_level: int
    flux_kind: str
    order: int
    plan_label: str
    program: List[Instruction]
    context: CheckContext


def _resolve_chip(chip: Union[str, ChipConfig], interconnect: Optional[str]) -> ChipConfig:
    if isinstance(chip, str):
        chip = CHIP_CONFIGS[chip]
    if interconnect is not None and chip.interconnect != interconnect:
        chip = chip.with_interconnect(interconnect)
    return chip


def build_check_program(
    physics: str,
    refinement_level: int,
    chip: Union[str, ChipConfig] = "2GB",
    flux_kind: str = "riemann",
    order: int = 7,
    interconnect: Optional[str] = None,
    compiler: Any = None,
    parity_rows: int = 0,
) -> CheckedProgram:
    """One BARRIER-delimited RK stage for a representative element set."""
    from repro.core.compiler import WavePimCompiler

    chip = _resolve_chip(chip, interconnect)
    compiler = compiler or WavePimCompiler(order=order)
    with get_tracer().span(
        f"check/build/{physics}_{refinement_level}", chip=chip.name,
        flux=flux_kind, interconnect=chip.interconnect,
    ):
        plan, mesh, element, _mapper, kern = compiler._prepare(
            physics, refinement_level, chip, flux_kind, order
        )
        rep, _interior, _true_interior = compiler.representative_elements(
            kern.mapper, mesh
        )
        e = int(rep[0])
        elems = {e}
        for face in range(6):
            nbr = kern.neighbor(e, face)
            if nbr is not None:
                elems.add(int(nbr))
        members = sorted(elems)

        state = np.zeros(
            (kern.n_vars, mesh.n_elements, element.n_nodes), dtype=np.float32
        )
        program: List[Instruction] = []
        program += kern.setup(elements=members)
        program += kern.load_state(state, elements=members)
        program.append(barrier())
        program += kern.volume(elements=[e])
        program.append(barrier())
        program += kern.flux(elements=[e])
        program.append(barrier())
        program += kern.integration(0, 1e-4, elements=[e])
        program.append(barrier())

        context = CheckContext.for_chip(
            PimChip(chip),
            allowed_blocks=kern.mapper.n_blocks_needed,
            storage0=kern.layout.storage0,
            parity_rows=parity_rows,
        )
    return CheckedProgram(
        physics=physics,
        refinement_level=refinement_level,
        flux_kind=flux_kind,
        order=order,
        plan_label=plan.label,
        program=program,
        context=context,
    )


def check_benchmark(
    benchmark: Union[str, BenchmarkSpec],
    chip: Union[str, ChipConfig] = "2GB",
    interconnect: Optional[str] = None,
    options: Optional[CheckOptions] = None,
    order: Optional[int] = None,
    compiler: Any = None,
    parity_rows: int = 0,
) -> Tuple[CheckedProgram, List[Finding]]:
    """Run every checker pass over one benchmark's representative stream."""
    spec = BENCHMARKS[benchmark] if isinstance(benchmark, str) else benchmark
    checked = build_check_program(
        spec.physics,
        spec.refinement_level,
        chip=chip,
        flux_kind=spec.flux_kind,
        order=spec.order if order is None else order,
        interconnect=interconnect,
        compiler=compiler,
        parity_rows=parity_rows,
    )
    if options is not None:
        checked.context.options = options
    with get_tracer().span(
        f"check/passes/{spec.key}", instructions=len(checked.program)
    ) as sp:
        findings = check_program(checked.program, checked.context)
        sp.set(findings=len(findings))
    return checked, findings


def verify_benchmark(
    physics: str,
    refinement_level: int,
    chip: Union[str, ChipConfig],
    flux_kind: str = "riemann",
    order: int = 7,
    compiler: Any = None,
) -> List[Finding]:
    """Compiler hook: check the stream, raise on any error finding."""
    checked = build_check_program(
        physics, refinement_level, chip=chip, flux_kind=flux_kind,
        order=order, compiler=compiler,
    )
    findings = check_program(checked.program, checked.context)
    name = chip if isinstance(chip, str) else chip.name
    return raise_on_errors(
        findings, what=f"{physics}_{refinement_level} on {name}"
    )
