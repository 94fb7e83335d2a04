"""Execution plans: lower an instruction stream once, replay it cheaply.

Wave simulation replays the same per-element instruction streams every
RK stage of every time-step (§4–§5), yet per-instruction dispatch pays the
full Python interpretation cost on every replay.  :func:`lower_program`
compiles a stream *once* into an :class:`ExecutionPlan` — numpy structured
arrays of ``(opcode, block, tag id, duration, energy, flits, hops, NOR
cycles, row count)`` with every TRANSFER's route resolved per unique
``(src, dst)`` pair up front — so
:meth:`repro.pim.executor.ChipExecutor.run` on a plan becomes a few
vectorized segment reductions plus a per-block prefix-max clock advance
instead of thousands of Python dispatches.

Plan replay is the *universal* execution path (DESIGN.md §13): analytic,
functional, fault-injecting and serial-audit runs all go through it.
:func:`lower_program` is the one cost model — every opcode's duration,
energy, flit and hop footprint is priced here from the device table
(Table 4 NOR/search/row figures, Alg. 1 for LUT, the host and HBM
models), and the executor only reads those columns back.  Two walkers
consume a plan:

* the *segment fold* (fault-free ``ChipExecutor.run``): each compute
  segment advances a block clock by one left-fold of its durations and,
  when functional, executes a batched word-level program against
  :class:`~repro.pim.block.MemoryBlock` state (built lazily by
  :meth:`_VecSegment.build_apply`, hazard-split so column batching never
  reorders a read past a write);
* the *per-instruction walk* (``run(..., serial=True)`` and every
  fault-injecting run): one ``_compute_start`` and one ``report.add`` per
  instruction, with the flip stream pre-drawn vectorized
  (:meth:`~repro.faults.model.FaultModel.draw_flips` consumes the seeded
  generator bit-identically to per-instruction draws).

Bit-identity contract
---------------------
The two walkers must produce *bit-identical* reports
(:class:`~repro.pim.executor.TimingReport`), block states and fault-event
digests.  Three invariants make that possible:

1. Compute opcodes (ADD/SUB/MUL/COPY/GATHER/BROADCAST) only read the
   block clock, the block's two transfer ports and the barrier floor —
   and only write the block clock.  Ports/barrier change exclusively at
   *coupling* opcodes (TRANSFER/LUT/HOSTOP/DRAM/BARRIER), so inside a
   maximal run of compute ops (a *segment*) each block's clock advances
   by a pure left-fold of durations from ``max(clock, port_r, port_w,
   barrier)`` — exactly what the per-instruction walk computes (after
   the first op the clock already dominates the unchanged port values).
2. Report accumulators (per-tag time/energy, total dynamic energy) are
   independent left-folds over the same addend sequence in stream order;
   :func:`fold_array` replays the exact sequential addition order (a
   Python loop for short runs, a strict ``np.add.accumulate`` — never
   pairwise ``np.sum`` — beyond that).
3. Every per-instruction float is priced once, here, and both walkers
   read the same plan row — so they can differ only in how they derive
   compute clocks (segment fold versus per-instruction ``max``), which is
   exactly what the serial == plan sweeps cross-check.

Coupling opcodes are never folded: a TRANSFER becomes a precomputed step
(route, flit count, phase latencies *and* the functional row selectors
resolved at lower time); LUT/HOSTOP/DRAM/BARRIER rows are handed to the
executor's clock-and-port handlers, which read their priced row.

A plan records the chip's ``routing_epoch`` at lower time; if spare-block
remapping has invalidated the routes since, the executor re-lowers
instead of replaying stale paths.  The scheduler knob ``REPRO_SCHED``
lives in :mod:`repro.pim.schedule`.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.pim.arithmetic import default_host_model
from repro.pim.isa import ARITHMETIC_OPS, Instruction, Opcode

if TYPE_CHECKING:
    from repro.pim.arithmetic import HostOpModel, OpCosts
    from repro.pim.chip import PimChip
    from repro.pim.params import DeviceParams

__all__ = [
    "COPY_NORS",
    "ExecutionPlan",
    "PLAN_DTYPE",
    "OP_IDS",
    "STEP_DISPATCH",
    "STEP_SEGMENT",
    "STEP_TRANSFER",
    "copy_cost",
    "fold_array",
    "lower_program",
    "VECTORIZABLE_OPS",
]

#: NOR cycles of a row-parallel column-to-column copy (two cascaded NOTs).
COPY_NORS = 2

#: Opcodes whose timing touches only the owning block's clock — the ones a
#: segment may vectorize.  Everything else couples clocks (ports, switches,
#: host, DRAM, barrier) and ends the segment.
VECTORIZABLE_OPS = frozenset(ARITHMETIC_OPS) | {
    Opcode.COPY, Opcode.GATHER, Opcode.BROADCAST,
}

#: One row per instruction: opcode id, owning block (-1 when None), interned
#: tag id, modeled duration/energy (zero for BARRIER), the TRANSFER/LUT
#: interconnect footprint, and the fault-hook inputs (NOR cycles of the
#: op — nonzero only for arithmetic/COPY — plus the active row count the
#: flip/parity models scale with).
PLAN_DTYPE = np.dtype([
    ("op", np.uint8),
    ("block", np.int32),
    ("tag", np.int16),
    ("dur", np.float64),
    ("energy", np.float64),
    ("flits", np.int32),
    ("hops", np.int32),
    ("nors", np.int32),
    ("n_rows", np.int32),
])

#: stable opcode -> small-int encoding for the structured array.
OP_IDS = {op: i for i, op in enumerate(Opcode)}
OP_LIST = tuple(Opcode)

#: plan step kinds (first element of each ``ExecutionPlan.steps`` entry).
STEP_SEGMENT = 0
STEP_TRANSFER = 1
STEP_DISPATCH = 2

#: functional-apply op kinds (first element of a ``_VecSegment.apply`` row).
APPLY_ARITH = 0
APPLY_ARITH_BATCH = 1
APPLY_COPY = 2
APPLY_COPY_BATCH = 3
APPLY_GATHER = 4
APPLY_BROADCAST = 5

#: ufunc per arithmetic opcode: the batched apply computes the exact same
#: float32 elementwise operation as ``MemoryBlock.add``/``sub``/``mul``.
_APPLY_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def copy_cost(device: "DeviceParams", n_rows: int) -> Tuple[float, float]:
    """``(duration, energy)`` of one row-parallel column copy of ``n_rows``.

    Two cascaded NOTs on every active row's 32 bit lines.  Priced here for
    COPY instructions and reused by the executor's fault hooks for parity
    upkeep (one checksum-column copy per protected compute op).
    """
    return COPY_NORS * device.t_nor_s, COPY_NORS * 32 * device.e_nor_j * n_rows


def fold_array(base: float, values: np.ndarray) -> float:
    """Left-fold the additions of ``values`` (in order) onto ``base``.

    Bit-identical to ``for v in values: base += v``.  ``np.add.accumulate``
    is a strict sequential fold (it must produce every prefix), unlike
    ``np.sum``/``np.add.reduce`` whose pairwise re-association would break
    the bit-identity contract.
    """
    n = values.shape[0]
    if n <= 64:
        for v in values:
            base += v
        return float(base)
    acc = np.empty(n + 1)
    acc[0] = base
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


class _VecSegment:
    """A maximal run of compute ops, pre-grouped for vectorized replay."""

    __slots__ = (
        "n", "start", "stop", "op_counts", "energies", "tag_groups",
        "block_groups", "apply",
    )

    def __init__(self, array: np.ndarray, indices: range,
                 insts: Sequence[Instruction]) -> None:
        self.n = len(indices)
        self.start = indices.start
        self.stop = indices.stop
        durs = array["dur"][indices.start:indices.stop]
        ens = array["energy"][indices.start:indices.stop]
        nors = array["nors"][indices.start:indices.stop]
        #: whole-segment energies in stream order (global dynamic-energy fold)
        self.energies = ens
        self.op_counts = Counter(
            insts[i].op.value for i in indices
        )
        # group positions by tag / block, preserving first-seen order so the
        # report dicts are populated in the same key order as the
        # per-instruction walk
        by_tag: Dict[str, List[int]] = {}
        by_block: Dict[Any, List[int]] = {}
        for pos, i in enumerate(indices):
            by_tag.setdefault(insts[i].tag, []).append(pos)
            by_block.setdefault(insts[i].block, []).append(pos)
        self.tag_groups = [
            (tag, durs[np.asarray(p, dtype=np.intp)], ens[np.asarray(p, dtype=np.intp)])
            for tag, p in by_tag.items()
        ]
        # per-block duration runs plus the hardware-counter aggregates
        # (NOR cycles issued / ops retired) precomputed at lower time, so
        # counters-enabled replay costs one dict update per group.
        self.block_groups = [
            (block, durs[sel], int(nors[sel].sum()), len(p))
            for block, p in by_block.items()
            for sel in (np.asarray(p, dtype=np.intp),)
        ]
        #: functional apply program, built lazily on the first functional
        #: replay (analytic replays never pay for it).
        self.apply: Optional[List[Tuple[Any, ...]]] = None

    def build_apply(self, insts: Sequence[Instruction],
                    chip: "PimChip") -> List[Tuple[Any, ...]]:
        """Compile this segment's functional effects into a batched program.

        Validation (row/column bounds, row-map shape) runs *once* here with
        the exact :class:`~repro.pim.block.MemoryBlock` checks, so replay
        applies raw numpy ops.  Consecutive same-opcode/-block/-row-range
        arithmetic/COPY ops collapse into one fancy-indexed column batch
        (``data[sel, dsts] = data[sel, s1s] op data[sel, s2s]``); a batch
        is flushed before any op that reads or rewrites a column the batch
        already writes, so RAW/WAW hazards keep serial semantics (WAR is
        safe: numpy materializes the whole right-hand side first).
        """
        prog: List[Tuple[Any, ...]] = []
        b_op: Optional[Opcode] = None
        b_block: Any = None
        b_rows: Optional[Tuple[int, int]] = None
        b_sel: Any = None
        b_dst: List[int] = []
        b_s1: List[int] = []
        b_s2: List[int] = []
        b_written: Set[int] = set()

        def flush() -> None:
            nonlocal b_op
            if b_op is None:
                return
            if len(b_dst) == 1:
                if b_op is Opcode.COPY:
                    prog.append((APPLY_COPY, b_block, b_sel, b_dst[0], b_s1[0]))
                else:
                    prog.append((APPLY_ARITH, b_block, b_sel,
                                 _APPLY_UFUNCS[b_op.value],
                                 b_dst[0], b_s1[0], b_s2[0]))
            elif b_op is Opcode.COPY:
                prog.append((APPLY_COPY_BATCH, b_block, b_sel,
                             np.asarray(b_dst), np.asarray(b_s1)))
            else:
                prog.append((APPLY_ARITH_BATCH, b_block, b_sel,
                             _APPLY_UFUNCS[b_op.value],
                             np.asarray(b_dst), np.asarray(b_s1),
                             np.asarray(b_s2)))
            b_op = None
            b_dst.clear()
            b_s1.clear()
            b_s2.clear()
            b_written.clear()

        for i in range(self.start, self.stop):
            inst = insts[i]
            op = inst.op
            blk = chip.block(inst.block)
            if op is Opcode.GATHER:
                flush()
                sel, n_sel = blk._rows(inst.rows)
                blk._check(inst.rows, inst.dst, inst.src1)
                row_map = np.asarray(inst.row_map, dtype=np.int64)
                if row_map.shape != (n_sel,):
                    raise ValueError(
                        f"row_map must have {n_sel} entries, got {row_map.shape}"
                    )
                if row_map.size and (
                    np.any(row_map < 0) or np.any(row_map >= blk.rows)
                ):
                    raise IndexError("row_map entry outside block")
                prog.append((APPLY_GATHER, inst.block, sel, inst.dst,
                             inst.src1, row_map))
                continue
            if op is Opcode.BROADCAST:
                flush()
                sel, n_sel = blk._rows(inst.rows)
                blk._check(inst.rows, inst.dst)
                value = np.asarray(inst.value, dtype=np.float32)
                if value.ndim not in (0, 1):
                    raise ValueError("broadcast value must be scalar or 1-D")
                if value.ndim == 1 and value.shape != (n_sel,):
                    raise ValueError(f"broadcast vector must have {n_sel} entries")
                prog.append((APPLY_BROADCAST, inst.block, sel, inst.dst, value))
                continue
            # arithmetic / COPY
            if op is Opcode.COPY:
                sel = blk._check(inst.rows, inst.dst, inst.src1)
                reads = (inst.src1,)
            else:
                sel = blk._check(inst.rows, inst.dst, inst.src1, inst.src2)
                reads = (inst.src1, inst.src2)
            rows_key = inst.rows if isinstance(inst.rows, tuple) else None
            if (b_op is not op or b_block != inst.block or rows_key is None
                    or b_rows != rows_key or inst.dst in b_written
                    or any(r in b_written for r in reads)):
                flush()
            if rows_key is None:
                # index-array row selector: apply singly (rare in practice)
                if op is Opcode.COPY:
                    prog.append((APPLY_COPY, inst.block, sel, inst.dst, inst.src1))
                else:
                    prog.append((APPLY_ARITH, inst.block, sel,
                                 _APPLY_UFUNCS[op.value],
                                 inst.dst, inst.src1, inst.src2))
                continue
            if b_op is None:
                b_op, b_block, b_rows, b_sel = op, inst.block, rows_key, sel
            b_dst.append(inst.dst)
            b_s1.append(inst.src1)
            if op is not Opcode.COPY:
                b_s2.append(inst.src2)
            b_written.add(inst.dst)
        flush()
        self.apply = prog
        return prog


class _TransferStep:
    """A TRANSFER with its route and phase latencies resolved at lower time.

    Every float here is priced once by :func:`_transfer_cost_template`;
    replay re-runs only the readiness ``max``, the switch/port updates and
    (fault mode) the retry arithmetic.  The functional row selectors are
    precomputed too, so functional replay indexes block state directly.
    """

    __slots__ = (
        "src", "dst", "keys", "hops", "flits", "read_t", "write_t", "wire",
        "flit_train", "dur", "energy", "n_bytes", "exclusive", "tag", "op",
        "n_rows", "words", "src1", "dst_col", "s_sel", "d_sel", "d_rows",
        "where", "n_switches",
    )

    def __init__(self, inst: Instruction, chip: "PimChip",
                 costs: "OpCosts",
                 template: Optional[Tuple[Any, ...]] = None) -> None:
        src, dst = inst.src_block, inst.block
        if src is None:
            raise ValueError("TRANSFER needs src_block")
        n_rows = inst.n_rows
        if template is None:
            template = _transfer_cost_template(chip, costs, src, dst,
                                               n_rows, inst.words)
        (self.keys, self.hops, self.flits, self.read_t, self.write_t,
         self.wire, self.flit_train, self.dur, self.energy, self.n_bytes,
         self.exclusive, self.n_switches) = template
        self.src = src
        self.dst = dst
        self.tag = inst.tag
        self.op = inst.op
        # functional / fault-mode inputs
        self.n_rows = n_rows
        self.words = inst.words
        self.src1 = inst.src1
        self.dst_col = inst.dst
        sr = inst.src_rows if inst.src_rows is not None else inst.rows
        self.s_sel = slice(sr[0], sr[1]) if isinstance(sr, tuple) else np.asarray(sr)
        self.d_sel = (
            slice(inst.rows[0], inst.rows[1])
            if isinstance(inst.rows, tuple)
            else np.asarray(inst.rows)
        )
        self.d_rows = inst.rows
        self.where = f"transfer:{src}->{dst}"


def _transfer_cost_template(chip: "PimChip", costs: "OpCosts", src: int,
                            dst: int, n_rows: int,
                            words: int) -> Tuple[Any, ...]:
    """Route + cost fields of a TRANSFER, keyed by ``(src, dst, n_rows, words)``.

    Factored out of :class:`_TransferStep` so :func:`lower_program` can
    memoize it per shape: a halo-heavy lowering emits thousands of
    TRANSFERs that differ only in row selectors, and re-deriving the same
    floats dominated the compile path.  Memoized and direct construction
    evaluate the same expressions, so they are bit-identical.
    """
    dev = costs.device
    keys, hops, extra, ic = chip.transfer_path(src, dst)
    flits = -(-(n_rows * words) // ic.flit_words)
    read_t = n_rows * dev.t_row_read_s
    write_t = n_rows * dev.t_row_write_s
    wire = hops * ic.hop_latency_per_flit * flits + extra
    flit_train = ic.hop_latency_per_flit * flits
    dur = read_t + wire + write_t
    energy = costs.row_move_energy_j(n_rows, words=words)
    energy += hops * n_rows * words * dev.e_search_j
    return (tuple(keys), hops, flits, read_t, write_t, wire, flit_train,
            dur, energy, n_rows * words * 4, ic.exclusive, ic.n_switches)


class ExecutionPlan:
    """A lowered instruction stream, replayable by ``ChipExecutor.run``.

    Keeps the original ``instructions`` (the per-instruction walk and the
    re-lowering after a routing-epoch bump both need them) next to the
    structured accounting ``array`` and the ordered ``steps`` the replay
    engine walks.
    """

    __slots__ = (
        "instructions", "array", "tags", "steps", "routing_epoch",
        "chip_name", "replays", "schedule_stats", "flip_cache",
    )

    def __init__(self, instructions: List[Instruction], array: np.ndarray,
                 tags: List[str], steps: List[Tuple[int, Any]],
                 routing_epoch: int, chip_name: str) -> None:
        self.instructions: List[Instruction] = instructions
        self.array: np.ndarray = array
        self.tags: List[str] = tags
        self.steps: List[Tuple[int, Any]] = steps
        #: ``PimChip.routing_epoch`` at lower time; a mismatch at run time
        #: means spare-block remapping moved a block and the resolved routes
        #: may be stale — the executor re-lowers instead of replaying them.
        self.routing_epoch: int = routing_epoch
        self.chip_name: str = chip_name
        #: number of times this plan has been replayed (plan-reuse metric).
        self.replays: int = 0
        #: makespan bookkeeping attached by :func:`repro.pim.schedule.
        #: schedule_plan` (None for emission-order plans).
        self.schedule_stats: Optional[Dict[str, Any]] = None
        #: memoized flip-draw inputs: ``(flip_rate, eligible indices,
        #: per-instruction hit probabilities, eligible row counts)``.
        self.flip_cache: Optional[Tuple[Any, ...]] = None

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    @property
    def n_segments(self) -> int:
        return sum(1 for kind, _ in self.steps if kind == STEP_SEGMENT)

    @property
    def n_transfers(self) -> int:
        return sum(1 for kind, _ in self.steps if kind == STEP_TRANSFER)

    @property
    def n_dispatch(self) -> int:
        """LUT/HOSTOP/DRAM/BARRIER rows handed to the executor's handlers."""
        return sum(1 for kind, _ in self.steps if kind == STEP_DISPATCH)

    @property
    def vectorized_fraction(self) -> float:
        n = self.n_instructions
        if not n:
            return 0.0
        return 1.0 - (self.n_dispatch + self.n_transfers) / n

    def footprint(self) -> Dict[str, Any]:
        """Resource totals of one replay, derived from the plan alone.

        An executor-independent cross-check for the hardware counters:
        per-block compute busy seconds (left-fold of segment durations, the
        same order replay folds them), per-block NOR cycles and compute-op
        counts, and the interconnect totals of the TRANSFER steps —
        including the per-switch occupancy the counters charge (the flit
        train on an h-tree route, the exclusive read+wire hold on a bus)
        under ``link_busy_s``/``link_flits``, the serial transfer time
        ``transfer_time_s`` (left-fold of TRANSFER durations, a ceiling on
        any one link's occupancy) and the vectorization profile
        ``segment_widths`` (instructions per segment, stream order).  LUT/
        HOSTOP/DRAM/BARRIER go through the executor's coupling handlers, so
        their footprint is reported separately as ``dispatch_ops`` — the
        perf analyzer
        (:mod:`repro.analysis.perf`) folds their link/channel occupancy in
        from the scheduler's resource items.
        """
        block_busy: Dict[Any, float] = {}
        block_nors: Dict[Any, int] = {}
        block_ops: Dict[Any, int] = {}
        link_busy: Dict[Hashable, float] = {}
        link_flits: Dict[Hashable, int] = {}
        segment_widths: List[int] = []
        transfers = flits = hops = n_bytes = 0
        transfer_time = 0.0
        dispatch_ops = 0
        for kind, payload in self.steps:
            if kind == STEP_SEGMENT:
                segment_widths.append(payload.n)
                for block, durs, nors, ops in payload.block_groups:
                    block_busy[block] = fold_array(block_busy.get(block, 0.0), durs)
                    block_nors[block] = block_nors.get(block, 0) + nors
                    block_ops[block] = block_ops.get(block, 0) + ops
            elif kind == STEP_TRANSFER:
                transfers += 1
                flits += payload.flits
                hops += payload.hops
                n_bytes += payload.n_bytes
                transfer_time += payload.dur
                # per-link occupancy, exactly as the counters charge it
                # (executor._transfer_step's link_busy).
                occ = (payload.read_t + payload.wire if payload.exclusive
                       else payload.flit_train)
                for k in payload.keys:
                    link_busy[k] = link_busy.get(k, 0.0) + occ
                    link_flits[k] = link_flits.get(k, 0) + payload.flits
            else:
                dispatch_ops += 1
        return {
            "block_busy_s": block_busy,
            "block_nors": block_nors,
            "block_ops": block_ops,
            "link_busy_s": link_busy,
            "link_flits": link_flits,
            "segment_widths": segment_widths,
            "transfers": transfers,
            "flits": flits,
            "hops": hops,
            "bytes_moved": n_bytes,
            "transfer_time_s": transfer_time,
            "dispatch_ops": dispatch_ops,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionPlan({self.n_instructions} insts, "
            f"{self.n_segments} segments, {self.n_transfers} transfers, "
            f"{self.n_dispatch} dispatched, epoch={self.routing_epoch})"
        )


def lower_program(
    chip: "PimChip", costs: "OpCosts", instructions: Iterable[Instruction],
    host: "Optional[HostOpModel]" = None,
) -> ExecutionPlan:
    """Lower ``instructions`` into an :class:`ExecutionPlan` for ``chip``.

    One O(n) Python pass that prices every instruction — the only place
    the cost model is evaluated: compute ops from ``costs`` (Table 4 NOR,
    search and row figures), TRANSFER and LUT from the routed path
    (resolved through the chip's memoized path table, once per unique
    ``(src, dst)`` pair), HOSTOP from ``host`` (default: the chip's
    :func:`~repro.pim.arithmetic.default_host_model`) and DRAM from the
    chip's HBM model.  Maximal compute runs become :class:`_VecSegment`
    groups.
    """
    if host is None:
        host = default_host_model(chip.config)
    insts = list(instructions)
    n = len(insts)
    array = np.zeros(n, dtype=PLAN_DTYPE)
    tag_ids: Dict[str, int] = {}
    xfer_templates: Dict[Tuple[int, Optional[int], int, int], Tuple[Any, ...]] = {}
    steps: List[Tuple[int, Any]] = []
    seg_start = -1  # start index of the open vec segment, -1 when closed
    dev = costs.device
    op_col = array["op"]
    block_col = array["block"]
    tag_col = array["tag"]
    dur_col = array["dur"]
    energy_col = array["energy"]
    flits_col = array["flits"]
    hops_col = array["hops"]
    nors_col = array["nors"]
    n_rows_col = array["n_rows"]
    # per-opcode constants, resolved once per lowering
    arith_dur = {op: costs.time_s(op.value) for op in ARITHMETIC_OPS}
    arith_nors = {op: costs.nor_count(op.value) for op in ARITHMETIC_OPS}
    # Alg. 1 per served row: index read + LUT content read (two searches)
    # and one write back.
    lut_row_t = 2 * dev.t_row_read_s + dev.t_row_write_s
    lut_row_e = 2 * dev.e_search_j + 32 * 0.5 * (dev.e_set_j + dev.e_reset_j)

    def flush(end: int) -> None:
        nonlocal seg_start
        if seg_start >= 0:
            steps.append((STEP_SEGMENT, _VecSegment(array, range(seg_start, end), insts)))
            seg_start = -1

    for i, inst in enumerate(insts):
        op = inst.op
        op_col[i] = OP_IDS[op]
        block_col[i] = -1 if inst.block is None else inst.block
        tid = tag_ids.get(inst.tag)
        if tid is None:
            tid = tag_ids[inst.tag] = len(tag_ids)
        tag_col[i] = tid
        if op in VECTORIZABLE_OPS:
            n_rows = inst.n_rows
            if op in ARITHMETIC_OPS:
                dur = arith_dur[op]
                energy = costs.energy_j(op.value, active_rows=n_rows)
                nors_col[i] = arith_nors[op]
            elif op is Opcode.COPY:
                dur, energy = copy_cost(dev, n_rows)
                nors_col[i] = COPY_NORS
            elif op is Opcode.GATHER:
                n_unique = inst.n_unique_rows
                if n_unique is None:
                    n_unique = len(np.unique(np.asarray(inst.row_map)))
                dur = costs.gather_time_s(n_unique)
                energy = costs.row_move_energy_j(n_rows, words=inst.words)
            else:  # BROADCAST
                if np.asarray(inst.value).ndim == 0:
                    # scalar constant: fill the column buffer once, one
                    # column-parallel write through the column drivers.
                    dur = 2 * dev.t_row_write_s
                else:
                    # per-row data streams in from outside the block row by
                    # row — the cost Fig. 6 hoists out of the batch loop by
                    # broadcasting constants only once.
                    dur = costs.broadcast_time_s(n_rows)
                energy = costs.row_move_energy_j(n_rows, words=inst.words)
            dur_col[i] = dur
            energy_col[i] = energy
            n_rows_col[i] = n_rows
            if seg_start < 0:
                seg_start = i
            continue
        flush(i)
        if op is Opcode.TRANSFER:
            tpl = None
            if inst.src_block is not None:
                key = (inst.src_block, inst.block, inst.n_rows, inst.words)
                tpl = xfer_templates.get(key)
                if tpl is None:
                    tpl = xfer_templates[key] = _transfer_cost_template(
                        chip, costs, inst.src_block, inst.block,
                        inst.n_rows, inst.words)
            t = _TransferStep(inst, chip, costs, template=tpl)
            dur_col[i] = t.dur
            energy_col[i] = t.energy
            flits_col[i] = t.flits
            hops_col[i] = t.hops
            n_rows_col[i] = t.n_rows
            steps.append((STEP_TRANSFER, t))
            continue
        # LUT/HOSTOP/DRAM_*/BARRIER couple multiple clocks: the executor's
        # handlers replay their clock and port semantics from this row.
        if op is Opcode.LUT:
            _keys, hops, extra, ic = chip.transfer_path(inst.src_block, inst.block)
            n_rows = inst.n_rows
            dur_col[i] = n_rows * (
                lut_row_t + 2 * (hops * ic.hop_latency_per_flit + extra)
            )
            energy_col[i] = n_rows * lut_row_e
            flits_col[i] = 2 * n_rows  # index out + entry back, one word each
            hops_col[i] = hops
        elif op is Opcode.HOSTOP:
            dur_col[i] = host.time_s(inst.count)
            energy_col[i] = host.energy_j(inst.count)
        elif op in (Opcode.DRAM_LOAD, Opcode.DRAM_STORE):
            n_bytes = inst.meta.get("bytes", inst.words * 4 * max(inst.n_rows, 1))
            dur_col[i] = chip.hbm.transfer_time_s(n_bytes)
            energy_col[i] = chip.hbm.transfer_energy_j(n_bytes)
        steps.append((STEP_DISPATCH, i))
    flush(n)

    tags = list(tag_ids)
    return ExecutionPlan(
        instructions=insts,
        array=array,
        tags=tags,
        steps=steps,
        routing_epoch=chip.routing_epoch,
        chip_name=chip.config.name,
    )
