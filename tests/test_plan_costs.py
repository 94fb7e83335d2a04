"""The one cost model: ``lower_program`` prices every opcode from Table 4.

Each test lowers one hand-built instruction and checks its plan row
(``dur``/``energy``/``nors``/``flits``/``hops``) against the paper's
formula evaluated here straight from :class:`DeviceParams` (Table 4), the
Alg. 1 LUT micro-sequence, the host CPU model and the HBM model — not
through :class:`~repro.pim.arithmetic.OpCosts`, so a drifted cost
expression cannot hide behind the helper it drifted in.
"""

import math

import numpy as np
import pytest

from repro.interconnect import HTree
from repro.interconnect.bus import Bus
from repro.pim.arithmetic import (
    MANTISSA_BITS,
    HostOpModel,
    default_op_costs,
    float32_add_nors,
    float32_mul_nors,
)
from repro.pim.chip import PimChip
from repro.pim.hbm import HbmModel
from repro.pim.isa import Instruction, Opcode, barrier
from repro.pim.params import CHIP_CONFIGS, DeviceParams
from repro.pim.plan import lower_program

CFG = CHIP_CONFIGS["512MB"]
DEV = DeviceParams()  # Table 4
ROWS = (0, 48)
N = 48
#: a written 32-bit word: one SET or RESET per bit, each equally likely.
WORD_E = 32 * 0.5 * (DEV.e_set_j + DEV.e_reset_j)


def _row(inst, cfg=CFG, host=None):
    """Lower ``[inst]`` on a fresh chip; return its plan row as a dict."""
    chip = PimChip(cfg)
    assert chip.config.device == DEV
    plan = lower_program(chip, default_op_costs(chip.config.device), [inst], host)
    row = plan.array[0]
    return {k: row[k].item() for k in ("dur", "energy", "nors", "flits", "hops")}


def _arith(op):
    return Instruction(op, block=0, rows=ROWS, dst=3, src1=1, src2=2)


@pytest.mark.parametrize("op,nors", [
    (Opcode.ADD, float32_add_nors()),
    # subtraction negates the operand (mantissa + sign) then adds
    (Opcode.SUB, float32_add_nors() + MANTISSA_BITS + 1),
    (Opcode.MUL, float32_mul_nors()),
])
def test_arithmetic_rows(op, nors):
    row = _row(_arith(op))
    # latency is row-count independent; every active row RESETs and
    # evaluates one output cell per NOR.
    assert row == {
        "dur": nors * DEV.t_nor_s,
        "energy": nors * (DEV.e_reset_j + DEV.e_nor_j) * N,
        "nors": nors, "flits": 0, "hops": 0,
    }


def test_copy_row():
    row = _row(Instruction(Opcode.COPY, block=0, rows=ROWS, dst=3, src1=1))
    # two cascaded NOTs over the 32 bit lines of every active row
    assert row == {
        "dur": 2 * DEV.t_nor_s,
        "energy": 2 * 32 * DEV.e_nor_j * N,
        "nors": 2, "flits": 0, "hops": 0,
    }


def test_gather_row():
    row_map = np.arange(N) % 6  # six distinct source rows
    row = _row(Instruction(Opcode.GATHER, block=0, rows=ROWS, dst=3, src1=1,
                           row_map=row_map))
    # each unique source row is read once into the column buffer, then one
    # column-parallel write; energy is one search + one word write per row.
    assert row == {
        "dur": 6 * DEV.t_search_s + DEV.t_row_write_s,
        "energy": N * (DEV.e_search_j + WORD_E),
        "nors": 0, "flits": 0, "hops": 0,
    }


def test_scalar_broadcast_row():
    row = _row(Instruction(Opcode.BROADCAST, block=0, rows=ROWS, dst=3,
                           value=2.5))
    # fill the column buffer once, then one column-parallel write
    assert row == {
        "dur": 2 * DEV.t_row_write_s,
        "energy": N * (DEV.e_search_j + WORD_E),
        "nors": 0, "flits": 0, "hops": 0,
    }


def test_vector_broadcast_row():
    row = _row(Instruction(Opcode.BROADCAST, block=0, rows=ROWS, dst=3,
                           value=np.arange(N, dtype=np.float32)))
    # per-row data streams in one row write at a time
    assert row == {
        "dur": N * DEV.t_row_write_s,
        "energy": N * (DEV.e_search_j + WORD_E),
        "nors": 0, "flits": 0, "hops": 0,
    }


@pytest.mark.parametrize("kind,ic", [
    ("htree", HTree(CFG.blocks_per_tile)),
    ("bus", Bus(CFG.blocks_per_tile)),
])
def test_transfer_rows(kind, ic):
    src, dst, words = 2, 37, 3
    hops = len(ic.path(src, dst))
    assert hops >= 1
    flits = math.ceil(N * words / ic.flit_words)
    row = _row(Instruction(Opcode.TRANSFER, block=dst, src_block=src,
                           rows=ROWS, dst=0, src1=4, words=words),
               cfg=CFG.with_interconnect(kind))
    # row reads, the flit train over every hop, row writes; energy is the
    # row reads + written words plus one search per word per switch.
    assert row == {
        "dur": (N * DEV.t_search_s
                + hops * ic.hop_latency_per_flit * flits
                + N * DEV.t_row_write_s),
        "energy": (N * (DEV.e_search_j + 32 * words * 0.5
                        * (DEV.e_set_j + DEV.e_reset_j))
                   + hops * N * words * DEV.e_search_j),
        "nors": 0, "flits": flits, "hops": hops,
    }


def test_lut_row():
    requester, lut_block = 5, 40
    ic = HTree(CFG.blocks_per_tile)
    hops = len(ic.path(lut_block, requester))
    row = _row(Instruction(Opcode.LUT, block=requester, src_block=lut_block,
                           rows=ROWS, src1=1, dst=2))
    # Alg. 1 per served row: R_1 index fetch and R_2 content fetch (one
    # search each), W_1 write back; the index travels to the LUT block and
    # the entry back, one single-word flit each way.
    assert row == {
        "dur": N * (2 * DEV.t_search_s + DEV.t_row_write_s
                    + 2 * (hops * ic.hop_latency_per_flit)),
        "energy": N * (2 * DEV.e_search_j + WORD_E),
        "nors": 0, "flits": 2 * N, "hops": hops,
    }


def test_hostop_row_default_and_custom_host():
    inst = Instruction(Opcode.HOSTOP, count=1000, tag="host")
    # default host: 1.5 ns per scalar op at the Table 3 host power
    assert _row(inst) == {
        "dur": 1000 * 1.5e-9,
        "energy": 1000 * 1.5e-9 * CFG.power.cpu_host_w,
        "nors": 0, "flits": 0, "hops": 0,
    }
    custom = HostOpModel(time_per_op_s=4e-9, power_w=10.0)
    assert _row(inst, host=custom)["dur"] == 1000 * 4e-9
    assert _row(inst, host=custom)["energy"] == 1000 * 4e-9 * 10.0


@pytest.mark.parametrize("inst,n_bytes", [
    (Instruction(Opcode.DRAM_LOAD, block=0, meta={"bytes": 1 << 20}), 1 << 20),
    # no explicit size: the addressed rows x words
    (Instruction(Opcode.DRAM_STORE, block=0, rows=ROWS, words=4), N * 4 * 4),
])
def test_dram_rows(inst, n_bytes):
    hbm = HbmModel()
    t = hbm.latency_s + n_bytes / hbm.bandwidth_bytes_per_s
    assert _row(inst) == {
        "dur": t, "energy": t * hbm.power_w,
        "nors": 0, "flits": 0, "hops": 0,
    }


def test_barrier_row_is_free():
    assert _row(barrier()) == {
        "dur": 0.0, "energy": 0.0, "nors": 0, "flits": 0, "hops": 0,
    }
