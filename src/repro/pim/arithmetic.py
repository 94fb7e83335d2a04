"""Bit-serial float32 operation costs, derived from the MAGIC NOR netlists.

The paper chooses 32-bit floating point for both PIM and GPU (§7.1) and
prices PIM arithmetic from FloatPIM-style bit-serial NOR sequences.  We
build the same pricing bottom-up: the measured full-adder cycle count from
:mod:`repro.pim.magic` plus standard datapath decompositions for the float
pipeline stages (exponent handling, alignment/normalization barrel shifts,
mantissa add/multiply).  The decomposition is written out in
:func:`float32_add_nors` / :func:`float32_mul_nors` so every term is
auditable; tests pin the mantissa-core terms to the *measured* NOR counts.

Complicated operations — square root and inverse — are **not** priced here:
the paper offloads them to the host CPU and serves results through look-up
tables (§4.3, §5.1); see :class:`HostOpModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pim.magic import int_add_steps, int_multiply_steps
from repro.pim.params import DEFAULT_DEVICE, DeviceParams

__all__ = [
    "float32_add_nors",
    "float32_mul_nors",
    "float32_mul_nors_serial",
    "OpCosts",
    "HostOpModel",
    "default_host_model",
    "default_op_costs",
    "MANTISSA_BITS",
    "EXPONENT_BITS",
]

MANTISSA_BITS = 24  # incl. the implicit leading 1
EXPONENT_BITS = 8

#: NOR cycles of a 2:1 bit multiplexer (select + two masked terms + merge).
_MUX_STEPS = 4


def _barrel_shift_nors(bits: int) -> int:
    """Barrel shifter: log2 stages of per-bit 2:1 muxes."""
    stages = max(1, (bits - 1).bit_length())
    return stages * bits * _MUX_STEPS


def float32_add_nors() -> int:
    """NOR cycles of one float32 addition (per row, all rows in parallel).

    exponent difference + operand swap + mantissa alignment + 25-bit add +
    leading-zero detect + normalization + exponent adjust.
    """
    exp_diff = int_add_steps(EXPONENT_BITS) + EXPONENT_BITS + 1  # sub = invert + add + 1
    swap = 32 * _MUX_STEPS
    align = _barrel_shift_nors(MANTISSA_BITS)
    mantissa_add = int_add_steps(MANTISSA_BITS + 1)
    lzd = MANTISSA_BITS * 3
    normalize = _barrel_shift_nors(MANTISSA_BITS)
    exp_adjust = int_add_steps(EXPONENT_BITS)
    return exp_diff + swap + align + mantissa_add + lzd + normalize + exp_adjust


def float32_mul_nors_serial() -> int:
    """NOR cycles of a fully bit-serial float32 multiplication.

    exponent add (+bias fix) + 24x24 shift-add mantissa multiply + 1-bit
    normalize.  This is the naive in-row algorithm; kept for the ablation
    benchmark against the FloatPIM-style multiplier below.
    """
    exp_add = 2 * int_add_steps(EXPONENT_BITS)
    mantissa_mul = int_multiply_steps(MANTISSA_BITS)
    normalize = MANTISSA_BITS * _MUX_STEPS + int_add_steps(EXPONENT_BITS)
    return exp_add + mantissa_mul + normalize


def float32_mul_nors() -> int:
    """NOR cycles of the FloatPIM-style float32 multiplication.

    FloatPIM (the paper's cost source, [26]) forms the 24 partial products
    *in parallel across spare rows* (operand replication is a broadcast)
    and reduces them with a log-depth adder tree, turning the O(N^2)
    serial shift-add into ~log2(N) row-parallel additions:

    * partial products: one NOR per bit column           = 24
    * reduction tree: ceil(log2 24) = 5 levels of ~36-bit adds
    * exponent add + bias fix, 1-bit normalize + exponent adjust

    The mantissa core still dominates — the reason compute-intense
    Elastic-Riemann gains least from PIM (§7.3) — but is ~3x cheaper than
    the serial form.
    """
    exp_add = 2 * int_add_steps(EXPONENT_BITS)
    partial_products = MANTISSA_BITS
    tree_levels = (MANTISSA_BITS - 1).bit_length()
    reduction = tree_levels * int_add_steps(36)
    normalize = MANTISSA_BITS * _MUX_STEPS + int_add_steps(EXPONENT_BITS)
    return exp_add + partial_products + reduction + normalize


@dataclass(frozen=True)
class OpCosts:
    """Latency/energy of row-parallel PIM operations.

    An arithmetic instruction executes simultaneously in every active row
    of every participating block; its *latency* is the NOR-cycle count
    times ``T_NOR`` regardless of row count, while its *energy* scales
    with the number of active rows.
    """

    device: DeviceParams = field(default_factory=lambda: DEFAULT_DEVICE)
    nors: dict = field(
        default_factory=lambda: {
            "add": float32_add_nors(),
            "sub": float32_add_nors() + MANTISSA_BITS + 1,  # negate then add
            "mul": float32_mul_nors(),
            "mul_serial": float32_mul_nors_serial(),
            "cmp": int_add_steps(32),
            "iadd32": int_add_steps(32),
            "imul16": int_multiply_steps(16),
        }
    )

    def nor_count(self, op: str) -> int:
        try:
            return self.nors[op]
        except KeyError:
            raise KeyError(f"unknown PIM arithmetic op {op!r}") from None

    def time_s(self, op: str) -> float:
        """Latency of one row-parallel instruction."""
        return self.nor_count(op) * self.device.t_nor_s

    def energy_j(self, op: str, active_rows: int = 1) -> float:
        """Switching energy of a row-parallel arithmetic instruction.

        Each NOR RESET-initializes its output cell and then evaluates
        (conditionally switching it), so we charge ``E_reset + E_NOR`` per
        NOR per active row; SET events belong to data writes, which are
        priced separately in :meth:`row_move_energy_j`.
        """
        per_row = self.nor_count(op) * (self.device.e_reset_j + self.device.e_nor_j)
        return per_row * active_rows

    # -- row data movement ---------------------------------------------- #

    def row_move_time_s(self, n_rows: int) -> float:
        """Serial row-by-row move: one read + one write per row."""
        return n_rows * (self.device.t_row_read_s + self.device.t_row_write_s)

    def gather_time_s(self, n_unique_sources: int) -> float:
        """Intra-block gather through the column buffer.

        The block has row *and column* drivers (§4.1): the decoder reads
        each *unique* source row once into the column buffer and then
        writes the whole destination column in one column-parallel write.
        Derivative-tap gathers touch one source row per GLL line (64 for
        the 512-node element) and coefficient gathers only N+1 storage
        rows, so staging stops dominating the Volume kernel.
        """
        return n_unique_sources * self.device.t_row_read_s + self.device.t_row_write_s

    def row_move_energy_j(self, n_rows: int, words: int = 1) -> float:
        """One search per row read plus set/reset of the written word bits."""
        bits = 32 * words
        per_row = self.device.e_search_j + bits * 0.5 * (
            self.device.e_set_j + self.device.e_reset_j
        )
        return n_rows * per_row

    def broadcast_time_s(self, n_rows: int) -> float:
        """Writing one constant column into ``n_rows`` rows (serial writes)."""
        return n_rows * self.device.t_row_write_s

    @property
    def mean_flop_time_s(self) -> float:
        """§7.1 throughput workload: 50% additions, 50% multiplications."""
        return 0.5 * (self.time_s("add") + self.time_s("mul"))


@dataclass(frozen=True)
class HostOpModel:
    """The host CPU that pre-processes sqrt/inverse for the LUTs (§4.3).

    An ARM Cortex-A72 at ~1.5 GHz with NEON: 4-wide vsqrt/vrecpe pipelines
    sustain roughly one scalar result per 2-3 cycles when streaming, so we
    charge 1.5 ns per scalar op; the Table 3 host power is 3.06 W while
    busy.  (The Fig. 13 pipeline hides this lane under Volume.)
    """

    time_per_op_s: float = 1.5e-9
    power_w: float = 3.06

    def time_s(self, n_ops: int) -> float:
        return n_ops * self.time_per_op_s

    def energy_j(self, n_ops: int) -> float:
        return self.time_s(n_ops) * self.power_w


def default_op_costs(device: DeviceParams | None = None) -> OpCosts:
    """The cost table used throughout unless a config overrides the device."""
    return OpCosts(device=device or DEFAULT_DEVICE)


def default_host_model(chip_config) -> HostOpModel:
    """The host CPU of ``chip_config``, drawing its Table 3 host power."""
    return HostOpModel(power_w=chip_config.power.cpu_host_w)
