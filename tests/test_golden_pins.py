"""Golden pins: both execution walkers reproduce fixed reference outputs.

``tests/test_pim_plan.py`` proves serial == plan on the six paper
benchmarks, but under a fault model both modes walk the plan one
instruction at a time, so that sweep compares a walker with itself.  The
constants below pin what the executor produced before the serial audit
was folded into plan replay: for every benchmark in analytic, functional
and faulty mode, a sha256 over the :class:`TimingReport` fields (floats
via ``float.hex``, dicts in insertion order), the block-state digest and
the fault-event digest.  The paper programs never issue LUT, HOSTOP or
DRAM_STORE, so a hand-built ``mixed`` stream pins those coupling opcodes
too.  Both ``run(..., serial=True)`` and plan replay must hit every pin
exactly.

Regenerate only for an intentional change to the cost model or the fault
draws: ``PYTHONPATH=src python tests/test_golden_pins.py`` prints the table.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.programs import build_check_program
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Instruction, Opcode, barrier
from repro.pim.params import CHIP_CONFIGS
from repro.workloads.benchmarks import BENCHMARKS

MODES = ("analytic", "functional", "faulty")
CASES = (*sorted(BENCHMARKS), "mixed")

#: (benchmark, mode) -> (report sha256, block-state sha256, fault-event
#: sha256), each truncated to 16 hex digits; "-" when no fault model ran.
PINS = {
    ('acoustic_4', 'analytic'): ('c870f518878cadeb', 'e3b0c44298fc1c14', '-'),
    ('acoustic_4', 'functional'): ('c870f518878cadeb', '3eb5e68f43a12318', '-'),
    ('acoustic_4', 'faulty'): ('34528538cfc5b2eb', '449841e3c6596254', '391fbb304f9a0ab5'),
    ('acoustic_5', 'analytic'): ('dc77b6a022a7cb46', 'e3b0c44298fc1c14', '-'),
    ('acoustic_5', 'functional'): ('dc77b6a022a7cb46', '17cdd7dc36edd908', '-'),
    ('acoustic_5', 'faulty'): ('7beee3ad7343f574', '8805b02e49c7ff12', '23eecaefbf6f0c06'),
    ('elastic_central_4', 'analytic'): ('0f81dca238675cf8', 'e3b0c44298fc1c14', '-'),
    ('elastic_central_4', 'functional'): ('0f81dca238675cf8', 'ab3dd3189c843fb2', '-'),
    ('elastic_central_4', 'faulty'): ('dd3a181d3a24069d', '440fa17329f98fe1', 'c37f88706a87df59'),
    ('elastic_central_5', 'analytic'): ('582e9c4c5e6a2b29', 'e3b0c44298fc1c14', '-'),
    ('elastic_central_5', 'functional'): ('582e9c4c5e6a2b29', '893615360c0292c0', '-'),
    ('elastic_central_5', 'faulty'): ('569c443cba2cc1f9', '77eec4c6dabfe4e6', 'a7ffd1ad12d3a58d'),
    ('elastic_riemann_4', 'analytic'): ('6614e49087d8da6c', 'e3b0c44298fc1c14', '-'),
    ('elastic_riemann_4', 'functional'): ('6614e49087d8da6c', '588dd2bdc8d7d46b', '-'),
    ('elastic_riemann_4', 'faulty'): ('627c5411e3e4b737', '1076cb5031270667', '3e0fab92edb7a69a'),
    ('elastic_riemann_5', 'analytic'): ('f5c506393133317c', 'e3b0c44298fc1c14', '-'),
    ('elastic_riemann_5', 'functional'): ('f5c506393133317c', '31b9da95dd3f4175', '-'),
    ('elastic_riemann_5', 'faulty'): ('be4a70f1ceee788b', 'eb24fbbb5f876aa1', 'eb540a4d86b8388e'),
    ('mixed', 'analytic'): ('8ba862a4db252dfd', 'e3b0c44298fc1c14', '-'),
    ('mixed', 'functional'): ('8ba862a4db252dfd', 'a4f17bf28749a5d2', '-'),
    ('mixed', 'faulty'): ('ccb8d10fc27bfddf', '2e58a07abf9f4e8d', '5f18d58f426e53d6'),
}


def _canon(v) -> str:
    """Type-stable text of one report value; floats exact via hex."""
    if isinstance(v, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(x)}" for k, x in v.items()) + "}"
    if isinstance(v, str):
        return repr(v)
    if isinstance(v, (bool, int)) or type(v).__name__.startswith("int"):
        return str(int(v))
    return float(v).hex()


def _report_sha(rep) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(rep):
        h.update(f"{f.name}={_canon(getattr(rep, f.name))};".encode())
    return h.hexdigest()[:16]


def _state_sha(chip) -> str:
    h = hashlib.sha256()
    for tid in sorted(chip._tiles):
        tile = chip._tiles[tid]
        for lid in sorted(tile._blocks):
            h.update(tile._blocks[lid].data.tobytes())
    return h.hexdigest()[:16]


def _mixed_program():
    """Every opcode, incl. the coupling ones the paper programs never emit."""
    rows = (0, 16)
    return [
        Instruction(Opcode.BROADCAST, block=0, rows=rows, dst=1, value=1.5),
        Instruction(Opcode.BROADCAST, block=0, rows=rows, dst=2,
                    value=np.arange(16, dtype=np.float32)),
        Instruction(Opcode.BROADCAST, block=3, rows=(0, 4), dst=0,
                    value=np.arange(4, dtype=np.float32) + 10.0),
        Instruction(Opcode.ADD, block=0, rows=rows, dst=3, src1=1, src2=2),
        Instruction(Opcode.MUL, block=0, rows=rows, dst=4, src1=3, src2=1),
        Instruction(Opcode.SUB, block=0, rows=rows, dst=5, src1=4, src2=2),
        Instruction(Opcode.COPY, block=0, rows=rows, dst=6, src1=5),
        Instruction(Opcode.GATHER, block=0, rows=rows, dst=7, src1=6,
                    row_map=np.arange(16)[::-1] // 2),
        Instruction(Opcode.LUT, block=0, src_block=3, rows=(0, 8), src1=8,
                    dst=9, tag="lut"),
        Instruction(Opcode.TRANSFER, block=5, src_block=0, rows=(0, 16),
                    dst=1, src1=7, words=3, tag="flux:fetch"),
        Instruction(Opcode.HOSTOP, count=1000, tag="host"),
        Instruction(Opcode.DRAM_LOAD, block=2, meta={"bytes": 4096},
                    tag="load"),
        Instruction(Opcode.DRAM_STORE, block=5, rows=rows, words=4),
        barrier(),
        Instruction(Opcode.HOSTOP, count=7),
        Instruction(Opcode.ADD, block=5, rows=rows, dst=4, src1=1, src2=2),
        Instruction(Opcode.TRANSFER, block=1, src_block=5, rows=(0, 8),
                    src_rows=(8, 16), dst=0, src1=4, words=1, tag="halo"),
        Instruction(Opcode.LUT, block=1, src_block=3, rows=(0, 8), src1=0,
                    dst=2),
    ]


def _program(key):
    if key == "mixed":
        return _mixed_program()
    spec = BENCHMARKS[key]
    return build_check_program(
        spec.physics, spec.refinement_level, chip="2GB",
        flux_kind=spec.flux_kind, order=2,
    ).program


def _digests(key, program, mode, serial):
    faults = None
    if mode == "faulty":
        from repro.faults.model import FaultConfig, FaultModel

        # the short mixed stream needs a far higher rate to draw any fault
        rate = 0.05 if key == "mixed" else 1e-4
        faults = FaultModel(FaultConfig.at_rate(rate, seed=11))
    chip = PimChip(CHIP_CONFIGS["2GB"])
    ex = ChipExecutor(chip, faults=faults)
    rep = ex.run(program, functional=mode != "analytic", serial=serial)
    events = faults.event_digest()[:16] if faults is not None else "-"
    return _report_sha(rep), _state_sha(chip), events


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key", CASES)
def test_walkers_hit_golden_pins(key, mode):
    program = _program(key)
    want = PINS[(key, mode)]
    assert _digests(key, program, mode, serial=True) == want, "serial walker"
    assert _digests(key, program, mode, serial=False) == want, "plan replay"


if __name__ == "__main__":  # pragma: no cover - pin regeneration
    for key in CASES:
        prog = _program(key)
        for mode in MODES:
            print(f"    ({key!r}, {mode!r}): "
                  f"{_digests(key, prog, mode, False)!r},")
