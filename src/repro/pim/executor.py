"""Instruction-stream execution: functional semantics + timing + energy.

The executor consumes a flat list of :class:`~repro.pim.isa.Instruction`
in program order and maintains:

* per-block clocks (a block executes its own instructions serially — there
  is one set of drivers per crossbar);
* per-switch availability inside each tile (the H-tree/Bus contention
  model of §4.2: disjoint H-tree paths overlap, the bus serializes);
* a host-CPU clock (sqrt/inverse pre-processing, §4.3) and a DRAM channel
  clock (batching traffic, §6.1);
* dynamic-energy and busy-time accounting per attribution tag — the raw
  data behind the Fig. 13 pipeline breakdown and the Fig. 14 intra/inter
  split.

With ``functional=True`` instructions also update the blocks' word
contents, which is how the tests prove the PIM-mapped wave kernels compute
the same numbers as the numpy dG reference.

Every run executes through an :class:`~repro.pim.plan.ExecutionPlan` —
raw streams are lowered on entry, so every cost comes from
:func:`~repro.pim.plan.lower_program`.  Fault-free runs replay the plan by
vectorized segment folds; ``serial=True`` and fault-injecting runs walk
the same plan one instruction at a time (DESIGN.md §13).  The two walks
derive compute clocks independently, which is what the serial == plan
bit-identity sweeps cross-check.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.obs import (
    HardwareCounters,
    attribute_makespan,
    counter_track_events,
    counters_enabled,
    get_metrics,
    get_tracer,
)
from repro.pim.arithmetic import (
    HostOpModel,
    OpCosts,
    default_host_model,
    default_op_costs,
)
from repro.pim.chip import PimChip
from repro.pim.isa import ARITHMETIC_OPS, Instruction, Opcode
from repro.pim.plan import (
    APPLY_ARITH,
    APPLY_ARITH_BATCH,
    APPLY_COPY,
    APPLY_COPY_BATCH,
    APPLY_GATHER,
    OP_IDS,
    STEP_SEGMENT,
    STEP_TRANSFER,
    ExecutionPlan,
    copy_cost,
    fold_array,
    lower_program,
)

__all__ = [
    "TimingReport", "ChipExecutor", "ExecutionPlan", "tag_phase", "PHASES",
]

#: plan-array opcode ids of the flip-eligible (NOR-based) compute ops.
_FLIP_OP_IDS = np.array(
    sorted(OP_IDS[op] for op in (*ARITHMETIC_OPS, Opcode.COPY)), dtype=np.uint8
)


def _float_dict() -> defaultdict:
    """Picklable ``defaultdict(float)`` factory for report accumulators."""
    return defaultdict(float)


#: the Fig. 13-style phases a tag attributes time to (DESIGN.md
#: "Observability": ``executor.cycles.<phase>``).
PHASES = ("volume", "flux", "integration", "lut", "transfer", "dram", "host", "sync", "other")

_PHASE_CACHE: dict = {}


def tag_phase(tag: str) -> str:
    """Map an instruction tag onto its pipeline phase.

    The kernel generators use a small tag vocabulary (``volume``,
    ``flux:compute``, ``flux:fetch``, ``integration``, ``setup``/``load``,
    ``sync``, ``host``, ``dram``); fetches are interconnect time, so they
    land in ``transfer``, and DRAM staging in ``dram``.
    """
    phase = _PHASE_CACHE.get(tag)
    if phase is None:
        if not tag:
            phase = "other"
        elif tag.startswith("volume"):
            phase = "volume"
        elif tag.startswith("flux:fetch"):
            phase = "transfer"
        elif tag.startswith("flux"):
            phase = "flux"
        elif tag.startswith("integration"):
            phase = "integration"
        elif "lut" in tag:
            phase = "lut"
        elif tag in ("setup", "load") or tag.startswith("dram"):
            phase = "dram"
        elif tag.startswith("host"):
            phase = "host"
        elif tag.startswith("halo"):
            # inter-chip halo exchange (repro.pim.multichip): wire time on
            # the chip-to-chip links, accounted alongside on-chip routing.
            phase = "transfer"
        elif tag == "sync":
            phase = "sync"
        else:
            phase = "other"
        _PHASE_CACHE[tag] = phase
    return phase


@dataclass
class TimingReport:
    """Aggregated outcome of one executed instruction stream."""

    total_time_s: float = 0.0
    dynamic_energy_j: float = 0.0
    time_by_tag: dict = field(default_factory=_float_dict)
    energy_by_tag: dict = field(default_factory=_float_dict)
    op_counts: Counter = field(default_factory=Counter)
    block_busy_s: dict = field(default_factory=_float_dict)
    host_busy_s: float = 0.0
    dram_busy_s: float = 0.0
    n_instructions: int = 0
    #: interconnect accounting (TRANSFER + LUT): transfer count, switch
    #: hops traversed, flits moved, payload bytes — the raw numbers behind
    #: the ``interconnect.<kind>.*`` metrics and the Fig. 14 H-tree/Bus gap.
    transfers: int = 0
    hops: int = 0
    flits: int = 0
    bytes_moved: int = 0
    #: fault-tolerance accounting (all zero unless a
    #: :class:`~repro.faults.model.FaultModel` was attached): injected /
    #: detected / corrected fault occurrences, unrecovered outcomes, and
    #: TRANSFER retransmissions priced into the tag times above.
    retries: int = 0
    faults_injected: int = 0
    faults_detected: int = 0
    faults_corrected: int = 0
    faults_uncorrected: int = 0
    #: modeled makespan in chip clock cycles (``total_time_s`` scaled by
    #: the chip clock); for scheduler-reordered plans
    #: ``emission_makespan_cycles`` additionally records the modeled
    #: emission-order baseline the scheduler improved on (0.0 otherwise).
    makespan_cycles: float = 0.0
    emission_makespan_cycles: float = 0.0

    def __post_init__(self) -> None:
        # accept plain dicts from callers; the accumulators below rely on
        # defaultdict/Counter semantics.
        if not isinstance(self.time_by_tag, defaultdict):
            self.time_by_tag = defaultdict(float, self.time_by_tag)
        if not isinstance(self.energy_by_tag, defaultdict):
            self.energy_by_tag = defaultdict(float, self.energy_by_tag)
        if not isinstance(self.op_counts, Counter):
            self.op_counts = Counter(self.op_counts)
        if not isinstance(self.block_busy_s, defaultdict):
            self.block_busy_s = defaultdict(float, self.block_busy_s)

    def add(self, tag: str, op: Opcode, duration: float, energy: float) -> None:
        self.time_by_tag[tag] += duration
        self.energy_by_tag[tag] += energy
        self.op_counts[op.value] += 1
        self.dynamic_energy_j += energy
        self.n_instructions += 1

    def add_overhead(self, tag: str, duration: float, energy: float) -> None:
        """Account recovery work (recomputes, retransmissions, parity upkeep)
        under ``tag`` without counting an extra instruction."""
        self.time_by_tag[tag] += duration
        self.energy_by_tag[tag] += energy
        self.dynamic_energy_j += energy

    def phase_times(self) -> dict:
        """Busy seconds per pipeline phase (see :func:`tag_phase`).

        Partitions ``time_by_tag`` completely: the values sum to
        ``sum(self.time_by_tag.values())`` exactly (each tag lands in one
        phase, plain left-to-right addition per phase).
        """
        out: dict = {}
        for tag, t in self.time_by_tag.items():
            phase = tag_phase(tag)
            out[phase] = out.get(phase, 0.0) + t
        return out

    def phase_cycles(self, clock_hz: float) -> dict:
        """Per-phase busy time expressed in chip clock cycles."""
        return {phase: t * clock_hz for phase, t in self.phase_times().items()}

    def merge(self, other: "TimingReport") -> None:
        """Fold another report's accounting into this one (sequential join)."""
        self.total_time_s += other.total_time_s
        self.dynamic_energy_j += other.dynamic_energy_j
        self.host_busy_s += other.host_busy_s
        self.dram_busy_s += other.dram_busy_s
        self.n_instructions += other.n_instructions
        self.transfers += other.transfers
        self.hops += other.hops
        self.flits += other.flits
        self.bytes_moved += other.bytes_moved
        self.retries += other.retries
        self.faults_injected += other.faults_injected
        self.faults_detected += other.faults_detected
        self.faults_corrected += other.faults_corrected
        self.faults_uncorrected += other.faults_uncorrected
        self.makespan_cycles += other.makespan_cycles
        self.emission_makespan_cycles += other.emission_makespan_cycles
        for k, v in other.time_by_tag.items():
            self.time_by_tag[k] += v
        for k, v in other.energy_by_tag.items():
            self.energy_by_tag[k] += v
        self.op_counts.update(other.op_counts)
        for k, v in other.block_busy_s.items():
            self.block_busy_s[k] += v


class ChipExecutor:
    """Executes instruction streams on a :class:`PimChip`."""

    def __init__(
        self,
        chip: PimChip,
        op_costs: OpCosts | None = None,
        host: HostOpModel | None = None,
        verify: bool = False,
        faults=None,
        counters: "HardwareCounters | bool | None" = None,
    ):
        self.chip = chip
        #: optional :class:`~repro.obs.counters.HardwareCounters` recorder.
        #: ``None`` defers to the ``REPRO_COUNTERS`` knob (default off),
        #: ``True`` attaches a fresh recorder, ``False`` forces off.  The
        #: recorder is a pure observer of values the replay already
        #: computes: reports and block state are bit-identical either way.
        if counters is None:
            counters = counters_enabled()
        if counters is True:
            counters = HardwareCounters()
        self.counters: HardwareCounters | None = counters or None
        #: opt-in static checking: every :meth:`run` audits the stream with
        #: the :mod:`repro.analysis` passes before executing it (and raises
        #: :class:`~repro.analysis.checker.ProgramCheckError` on errors).
        self.verify = verify
        #: optional :class:`~repro.faults.model.FaultModel`.  With no model
        #: (or a model whose rates are all zero) every fault hook
        #: short-circuits before touching a float, so the default
        #: accounting stays bit-identical to the fault-free executor.
        self.faults = faults
        self.costs = op_costs or default_op_costs(chip.config.device)
        self.host = host or default_host_model(chip.config)
        self._block_clock: dict = defaultdict(float)
        self._switch_free: dict = defaultdict(float)  # (tile, switch) -> time
        #: separate transfer ports: blocks have row *and* column buffers
        #: (§4.1), so an outbound read and an inbound write can overlap.
        self._port_free: dict = defaultdict(float)  # ("r"/"w", block) -> time
        self._host_clock = 0.0
        self._dram_clock = 0.0
        #: floor applied to every lane after a BARRIER (covers blocks that
        #: have not executed anything yet).
        self._barrier_time = 0.0

    # ------------------------------------------------------------------ #

    def reset_clocks(self) -> None:
        self._block_clock.clear()
        self._switch_free.clear()
        self._port_free.clear()
        self._host_clock = 0.0
        self._dram_clock = 0.0
        self._barrier_time = 0.0
        if self.counters is not None:
            # counter intervals live on the executor's modeled clock; a
            # clock reset would fold new intervals onto old ones, so the
            # recorder restarts with the clocks.
            self.counters = HardwareCounters(timeline=self.counters.timeline)

    def _now(self) -> float:
        clocks = (
            list(self._block_clock.values())
            + list(self._port_free.values())
            + [self._host_clock, self._dram_clock]
        )
        return max(clocks) if clocks else 0.0

    def now(self) -> float:
        """Current modeled time: the max over every clock this chip owns.

        Clocks persist across :meth:`run` calls (until
        :meth:`reset_clocks`), so replaying a step's substreams one at a
        time lands on the same final clock as replaying the whole step —
        the property the multi-chip layer's per-phase loop relies on.
        """
        return self._now()

    def sync_at(self, t: float) -> None:
        """Gate future work on an external event at modeled time ``t``.

        Raises the barrier floor so every lane (blocks, transfer ports,
        host, DRAM) starts no earlier than ``t`` — a BARRIER whose release
        time is supplied from outside the chip.  The multi-chip layer uses
        it to stall a shard's flux replay until its halo exchange arrives;
        work already on the clocks is unaffected, so compute that was
        issued before the sync (the overlap window) still runs under the
        in-flight exchange.
        """
        if t > self._barrier_time:
            self._barrier_time = t

    def _compute_start(self, block) -> float:
        """Compute must wait for pending transfers and the last barrier."""
        return max(
            self._block_clock[block],
            self._port_free[("r", block)],
            self._port_free[("w", block)],
            self._barrier_time,
        )

    # ------------------------------------------------------------------ #

    def lower(self, instructions, verify: bool = False) -> ExecutionPlan:
        """Compile ``instructions`` once into a reusable :class:`ExecutionPlan`.

        The plan prices every instruction and resolves every TRANSFER
        route (once per unique ``(src, dst)`` pair), so replaying it through
        :meth:`run` costs a few vectorized segment reductions plus a
        per-block prefix-max clock advance instead of one Python dispatch
        per instruction — with a bit-identical :class:`TimingReport`
        (see :mod:`repro.pim.plan` for the invariants).
        """
        if verify:
            # imported lazily: the analysis package depends on this module.
            from repro.analysis.checker import check_program, raise_on_errors

            instructions = (
                instructions
                if isinstance(instructions, (list, tuple))
                else list(instructions)
            )
            raise_on_errors(
                check_program(instructions, self.chip), what="lowered stream"
            )
        with get_tracer().span("pim/lower", chip=self.chip.config.name) as sp:
            plan = lower_program(self.chip, self.costs, instructions, self.host)
            if sp.name:
                sp.set(
                    n_instructions=plan.n_instructions,
                    n_segments=plan.n_segments,
                    n_transfers=plan.n_transfers,
                    vectorized_fraction=plan.vectorized_fraction,
                )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("executor.plan.lowered")
            metrics.inc("executor.plan.instructions_lowered", plan.n_instructions)
        return plan

    def run(self, instructions, functional: bool = True,
            verify: bool | None = None, serial: bool = False) -> TimingReport:
        """Execute ``instructions`` in program order; returns the report.

        ``instructions`` may be a plain stream or an :class:`ExecutionPlan`
        from :meth:`lower`.  Plan replay is the universal path: raw streams
        are lowered on entry, and analytic, functional *and* fault-injecting
        runs all replay the plan.  A plan lowered before the chip's routes
        changed (``routing_epoch`` mismatch after spare-block remapping) is
        transparently re-lowered, never replayed stale.

        ``serial=True`` walks the plan one instruction at a time (the walk
        fault-injecting runs always take) instead of folding compute
        segments — the audit reference the fast path is checked against
        (block state, fault event digests and :class:`TimingReport` match
        float for float); it is not a performance mode.  Functional errors
        surface per instruction: earlier instructions have executed.

        ``verify`` overrides the executor-level flag for this run: when
        true, the static checker passes audit the stream first and a
        ``ProgramCheckError`` aborts execution on any error finding.
        """
        plan = instructions if isinstance(instructions, ExecutionPlan) else None
        if plan is not None:
            instructions = plan.instructions
        if self.verify if verify is None else verify:
            # imported lazily: the analysis package depends on this module.
            from repro.analysis.checker import check_program, raise_on_errors

            instructions = (
                instructions
                if isinstance(instructions, (list, tuple))
                else list(instructions)
            )
            raise_on_errors(
                check_program(instructions, self.chip), what="executor stream"
            )
        report = TimingReport()
        faults = self.faults
        faults_on = faults is not None and faults.config.enabled
        if plan is None:
            plan = self.lower(instructions)
        elif plan.routing_epoch != self.chip.routing_epoch:
            # spare-block remapping moved a block since this plan was
            # lowered: its resolved routes may be stale.  Re-lower
            # against the current topology rather than replaying them.
            plan = self.lower(plan.instructions)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("executor.plan.relowered")
        mode = "serial" if serial else "plan"
        counts_before = dict(faults.counts) if faults_on else None
        with get_tracer().span("pim/run", chip=self.chip.config.name,
                               functional=functional, mode=mode) as sp:
            plan.replays += 1
            if serial or faults_on:
                self._walk_plan(plan, functional, faults_on, report)
            else:
                self._run_plan(plan, functional, report)
            report.total_time_s = self._now()
            report.host_busy_s = self._host_clock
            report.dram_busy_s = self._dram_clock
            report.makespan_cycles = report.total_time_s * self.chip.config.clock_hz
            if plan.schedule_stats is not None:
                report.emission_makespan_cycles = (
                    plan.schedule_stats["emission_makespan_s"]
                    * self.chip.config.clock_hz
                )
            for b, t in self._block_clock.items():
                report.block_busy_s[b] = t
            if counts_before is not None:
                c = faults.counts
                report.faults_injected = c["injected"] - counts_before["injected"]
                report.faults_detected = c["detected"] - counts_before["detected"]
                report.faults_corrected = c["corrected"] - counts_before["corrected"]
                report.faults_uncorrected = (
                    c["uncorrected"] - counts_before["uncorrected"]
                )
                report.retries = c["retries"] - counts_before["retries"]
            self._publish(report, sp, mode)
        return report

    def _publish(self, report: TimingReport, span, mode: str = "serial") -> None:
        """Once-per-run aggregation into the metrics registry and span.

        Deliberately the *only* observability cost of an instruction
        stream: nothing above touches metrics per instruction, so the
        tracing-disabled overhead stays within the BENCH_perf.json guard's
        noise floor.
        """
        cnt = self.counters
        metrics = get_metrics()
        if metrics.enabled:
            clock = self.chip.config.clock_hz
            metrics.inc("executor.runs")
            if mode == "plan":
                metrics.inc("executor.plan.runs")
            else:
                # serial runs are explicit audit-reference requests; the
                # bench's plan-coverage guard excludes them.
                metrics.inc("executor.serial.runs")
            metrics.inc("executor.instructions", report.n_instructions)
            metrics.observe("executor.instructions_per_run", report.n_instructions)
            for op, n in report.op_counts.items():
                metrics.inc(f"executor.ops.{op}", n)
            for phase, t in report.phase_times().items():
                metrics.inc(f"executor.cycles.{phase}", t * clock)
            if report.transfers:
                kind = self.chip.config.interconnect
                metrics.inc(f"interconnect.{kind}.transfers", report.transfers)
                metrics.inc(f"interconnect.{kind}.hops", report.hops)
                metrics.inc(f"interconnect.{kind}.flits", report.flits)
                metrics.inc(f"interconnect.{kind}.bytes", report.bytes_moved)
            if cnt is not None and span.name:
                # per-resource utilization (busy / cumulative makespan) as
                # mergeable histograms: one observation per active block /
                # link per run, so --jobs workers and batched runs fold
                # into one fleet-wide distribution.  Published on *traced*
                # runs only: reading any counter aggregate drains the raw
                # logs (HardwareCounters._finalize), and paying that every
                # bare replay would blow the ≤2% enabled-overhead budget —
                # untraced callers read executor.counters / attribution()
                # when they want the numbers.
                span_s = self._now()
                if span_s > 0.0:
                    for t in cnt.block_busy_s.values():
                        metrics.observe("counters.block_util", t / span_s)
                    for t in cnt.link_busy_s.values():
                        metrics.observe("counters.link_util", t / span_s)
                metrics.inc("counters.runs")
                metrics.inc("counters.transfers_queued", cnt.transfers_queued)
                metrics.inc("counters.transfer_queue_cycles",
                            cnt.transfer_queue_s * clock)
                metrics.inc("counters.host_stall_cycles",
                            cnt.host_stall_s * clock)
                metrics.inc("counters.dram_stall_cycles",
                            cnt.dram_stall_s * clock)
        if span.name:  # live span (tracing enabled)
            clock = self.chip.config.clock_hz
            phases = report.phase_times()
            span.set(
                n_instructions=report.n_instructions,
                total_time_s=report.total_time_s,
                dynamic_energy_j=report.dynamic_energy_j,
                transfers=report.transfers,
                hops=report.hops,
                makespan_cycles=report.makespan_cycles,
                emission_makespan_cycles=report.emission_makespan_cycles,
                phase_times_s=phases,
                phase_cycles={p: t * clock for p, t in phases.items()},
            )
            if cnt is not None:
                # attribution + the per-resource Gantt only on profiled
                # runs: the sweep is O(events log events), far too big a
                # bill for the counters-only fast path.
                attrib = self.attribution()
                span.set(
                    binding_resource=attrib.binding_resource,
                    binding_share=attrib.binding_share,
                    idle_fraction=attrib.idle_fraction,
                    block_util=attrib.block_util,
                    link_util=attrib.link_util,
                    chrome_events=counter_track_events(
                        cnt, origin_s=span.start_s,
                        link_label=self.chip.link_label,
                    ),
                )

    def attribution(self):
        """Makespan attribution of everything recorded since the last
        :meth:`reset_clocks`, in chip clock cycles with chip-aware link
        labels.  Requires an attached counters recorder."""
        if self.counters is None:
            raise ValueError(
                "no counters attached: construct with counters=True or set "
                "REPRO_COUNTERS=1"
            )
        return attribute_makespan(
            self.counters,
            total_time_s=self._now(),
            clock_hz=self.chip.config.clock_hz,
            link_label=self.chip.link_label,
        )

    # -- plan replay ------------------------------------------------------- #

    def _run_plan(self, plan: ExecutionPlan, functional: bool,
                  report: TimingReport) -> None:
        """Fault-free fast path: vectorized accounting, serial semantics.

        Walks the plan's step list instead of the instruction stream.
        Compute segments advance each block's clock by an exact left-fold
        of the plan's durations from the per-instruction walk's starting
        point (``_compute_start`` dominates after the first op, see
        :mod:`repro.pim.plan`), fold the report accumulators in stream
        order and — when ``functional`` — execute the segment's batched
        word-level apply program; TRANSFERs run their precomputed step and
        LUT/HOSTOP/DRAM/BARRIER their clock-coupling handler.
        Bit-identical to :meth:`_walk_plan` (``run(..., serial=True)``).
        """
        insts = plan.instructions
        bc = self._block_clock
        pf = self._port_free
        cnt = self.counters
        # deferred counter recording: the whole plan is logged once up
        # front and the hot loop appends only one float per (segment,
        # block) through a bound list.append — the ≤2% enabled-overhead
        # budget lives or dies here (aggregation re-walks plan.steps at
        # the counters' first read, recomputing ends from the same fold).
        if cnt is not None:
            cnt._fold = fold_array
            cnt._seg_kind = STEP_SEGMENT
            cnt.plan_log.append(plan)
            s_app = cnt.start_log.append
        else:
            s_app = None
        time_by_tag = report.time_by_tag
        energy_by_tag = report.energy_by_tag
        for kind, payload in plan.steps:
            if kind == STEP_SEGMENT:
                for tag, durs, ens in payload.tag_groups:
                    time_by_tag[tag] = fold_array(time_by_tag[tag], durs)
                    energy_by_tag[tag] = fold_array(energy_by_tag[tag], ens)
                report.dynamic_energy_j = fold_array(
                    report.dynamic_energy_j, payload.energies
                )
                report.op_counts.update(payload.op_counts)
                report.n_instructions += payload.n
                barrier = self._barrier_time
                for block, durs, _nors, _ops in payload.block_groups:
                    # defaultdict lookups deliberately mirror
                    # _compute_start (they insert missing keys, which
                    # _now() later reads).
                    start = max(
                        bc[block], pf[("r", block)], pf[("w", block)], barrier,
                    )
                    bc[block] = fold_array(start, durs)
                    if s_app is not None:
                        s_app(start)
                if functional:
                    self._segment_apply(payload, insts)
            elif kind == STEP_TRANSFER:
                self._transfer_step(payload, functional, report)
            else:  # STEP_DISPATCH
                self._dispatch(plan, payload, functional, report)

    def _walk_plan(self, plan: ExecutionPlan, functional: bool,
                   faults_on: bool, report: TimingReport) -> None:
        """Per-instruction plan walk: the serial audit and fault-mode replay.

        Fault overheads advance block clocks mid-segment, so fault-injecting
        runs walk segments one instruction at a time — as does
        ``run(..., serial=True)``, the audit reference for the segment
        fold.  Durations/energies/NOR counts come from the plan array, each
        compute op starts at its own :meth:`_compute_start`, and the
        transient-flip stream is pre-drawn vectorized
        (:meth:`~repro.faults.model.FaultModel.draw_flips`).
        """
        insts = plan.instructions
        arr = plan.array
        durs = arr["dur"]
        energies = arr["energy"]
        nors_col = arr["nors"]
        flips = self._predraw_flips(plan) if faults_on else None
        cnt = self.counters
        for kind, payload in plan.steps:
            if kind == STEP_SEGMENT:
                for i in range(payload.start, payload.stop):
                    inst = insts[i]
                    dur = float(durs[i])
                    energy = float(energies[i])
                    nors = int(nors_col[i])
                    start = self._compute_start(inst.block)
                    self._block_clock[inst.block] = start + dur
                    if cnt is not None:
                        cnt.compute(inst.block, start, start + dur, nors)
                    if functional:
                        self._apply_functional(inst)
                    report.add(inst.tag, inst.op, dur, energy)
                    if faults_on and nors:
                        self._apply_compute_faults(
                            inst, functional, report, dur, energy, nors,
                            flips.get(i) if flips is not None else None,
                        )
            elif kind == STEP_TRANSFER:
                self._transfer_step(payload, functional, report)
            else:  # STEP_DISPATCH
                self._dispatch(plan, payload, functional, report)

    def _predraw_flips(self, plan: ExecutionPlan):
        """Vector-draw the whole plan's transient flips up front.

        Flip draws come from their own sequential substream, independent
        of the transfer and stuck-cell streams, so consuming the entire
        run's draws before replay leaves every other draw unchanged.  The
        per-instruction hit probabilities (a handful of unique
        ``(nors, n_rows)`` exposures) are memoized on the plan.
        """
        f = self.faults
        rate = f.config.flip_rate
        if rate <= 0.0:
            return None
        cache = plan.flip_cache
        if cache is None or cache[0] != rate:
            arr = plan.array
            elig = np.flatnonzero(
                np.isin(arr["op"], _FLIP_OP_IDS) & (arr["n_rows"] > 0)
            )
            nors = arr["nors"][elig]
            n_rows = arr["n_rows"][elig]
            base = math.log1p(-min(rate, 0.5))
            memo: dict = {}
            ps = np.empty(elig.shape[0])
            for k in range(elig.shape[0]):
                key = (int(nors[k]), int(n_rows[k]))
                p = memo.get(key)
                if p is None:
                    # the exact draw_flip expression (association included)
                    p = memo[key] = -math.expm1(base * key[0] * key[1])
                ps[k] = p
            cache = plan.flip_cache = (rate, elig, ps, n_rows)
        _, elig, ps, n_rows = cache
        hits = f.draw_flips(ps, n_rows)
        return {int(elig[k]): v for k, v in hits.items()}

    def _segment_apply(self, seg, insts) -> None:
        """Execute one segment's functional effects (fault-free fast path).

        The batched program is built lazily on the first functional replay
        (see :meth:`~repro.pim.plan._VecSegment.build_apply`); bounds were
        validated at build time, so replay is raw float32 column math —
        elementwise identical to the serial :class:`MemoryBlock` calls.
        """
        prog = seg.apply
        if prog is None:
            prog = seg.build_apply(insts, self.chip)
        block = self.chip.block
        for step in prog:
            kind = step[0]
            if kind == APPLY_ARITH_BATCH:
                _, b, sel, fn, dsts, s1s, s2s = step
                d = block(b).data
                d[sel, dsts] = fn(d[sel, s1s], d[sel, s2s])
            elif kind == APPLY_ARITH:
                _, b, sel, fn, dst, s1, s2 = step
                d = block(b).data
                d[sel, dst] = fn(d[sel, s1], d[sel, s2])
            elif kind == APPLY_GATHER:
                _, b, sel, dst, src, row_map = step
                d = block(b).data
                d[sel, dst] = d[row_map, src]
            elif kind == APPLY_COPY_BATCH:
                _, b, sel, dsts, s1s = step
                d = block(b).data
                d[sel, dsts] = d[sel, s1s]
            elif kind == APPLY_COPY:
                _, b, sel, dst, s1 = step
                d = block(b).data
                d[sel, dst] = d[sel, s1]
            else:  # APPLY_BROADCAST
                _, b, sel, dst, value = step
                block(b).data[sel, dst] = value

    def _apply_functional(self, inst: Instruction) -> None:
        """Functional semantics of one compute op (per-instruction walk).

        Goes through the validating :class:`MemoryBlock` methods, so a bad
        instruction raises after every earlier one has executed.
        """
        op = inst.op
        blk = self.chip.block(inst.block)
        if op in ARITHMETIC_OPS:
            getattr(blk, op.value)(inst.rows, inst.dst, inst.src1, inst.src2)
        elif op is Opcode.COPY:
            blk.copy_column(inst.rows, inst.dst, inst.src1)
        elif op is Opcode.GATHER:
            blk.gather(inst.rows, inst.dst, inst.src1, inst.row_map)
        else:  # BROADCAST
            blk.broadcast(inst.rows, inst.dst, inst.value)

    def _transfer_step(self, t, functional: bool, report: TimingReport) -> None:
        """TRANSFER with route and latencies precomputed at lower time.

        Only the data-dependent readiness ``max``, the switch/port updates,
        the retry/backoff arithmetic over the precomputed phase latencies
        and the seeded fault draws happen at run time; functional delivery
        indexes block state through the precomputed row selectors.

        The source/destination ports are busy for the whole transfer.  On
        the H-tree, switches behave as pipelined FIFO servers: each serves
        a transfer for one flit train (wormhole cut-through), so disjoint
        sub-trees — and back-to-back transfers through one switch — overlap
        (§4.2.1); the gate is a switch's cumulative service load, so a
        transfer blocked on a port does not head-of-line-block unrelated
        traffic.  The exclusive Bus holds its switch for the row read and
        the wire traversal ("only one data path can be enabled", §4.2.2);
        the destination's write-back overlaps the next arbitration.
        """
        f = self.faults
        fplan = None
        if f is not None and f.config.any_transfer_faults:
            n_sw = t.n_switches
            fplan = f.transfer_plan(
                t.keys, lambda _tile: n_sw, where=t.where
            )
        dur = t.dur
        attempts = 1
        backoff = 0.0
        delivered = True
        if fplan is not None:
            attempts, backoff, delivered = (
                fplan.attempts, fplan.backoff_s, fplan.delivered
            )
            # every attempt re-reads the row buffer and re-traverses the
            # wire; only a successful final attempt pays the write-back.
            dur = (
                attempts * (t.read_t + t.wire) + backoff
                + (t.write_t if delivered else 0.0)
            )
        sw = self._switch_free
        pf = self._port_free
        ready = max(
            pf[("r", t.src)],
            pf[("w", t.dst)],
            self._block_clock[t.src],
            self._block_clock[t.dst],
            self._barrier_time,
        )
        ready0 = ready  # port-ready time, before queueing behind switches
        keys = t.keys
        for k in keys:
            ready = max(ready, sw[k])
        finish = ready + dur
        if t.exclusive:
            if fplan is None:
                held = ready + t.read_t + t.wire
            else:
                held = ready + attempts * (t.read_t + t.wire) + backoff
            for k in keys:
                sw[k] = held
        else:
            add = t.flit_train if fplan is None else attempts * t.flit_train
            for k in keys:
                sw[k] += add
        if fplan is None:
            pf[("r", t.src)] = ready + t.read_t + t.flit_train
        else:
            pf[("r", t.src)] = (
                ready + attempts * (t.read_t + t.flit_train) + backoff
            )
        pf[("w", t.dst)] = finish
        energy = t.energy
        if fplan is not None and attempts > 1:
            # retransmissions repeat the row reads and switch traversals.
            energy = attempts * energy
        hops = t.hops if fplan is None else t.hops * attempts
        flits = t.flits if fplan is None else t.flits * attempts
        report.transfers += 1
        report.hops += hops
        report.flits += flits
        report.bytes_moved += t.n_bytes
        cnt = self.counters
        if cnt is not None:
            if fplan is None:
                # deferred record (see HardwareCounters hot-path contract):
                # occupancy/flits/hops all derive from the stable step
                # object at finalize time, so the replay pays one 3-tuple.
                cnt.xfer_log.append((t, ready, ready0))
            else:
                link_busy = (
                    attempts * (t.read_t + t.wire) + backoff
                    if t.exclusive else attempts * t.flit_train
                )
                cnt.transfer(keys, ready, link_busy, flits, hops,
                             t.n_bytes, ready - ready0)
        if fplan is not None and not delivered:
            # undeliverable payload: the destination keeps its stale rows.
            report.add(t.tag, t.op, dur, energy)
            return
        if functional:
            src_vals = self.chip.block(t.src).data[
                t.s_sel, t.src1:t.src1 + t.words
            ]
            if src_vals.shape[0] != t.n_rows:
                raise ValueError("TRANSFER src/dst row selections must match in size")
            dblk = self.chip.block(t.dst)
            dblk.data[t.d_sel, t.dst_col:t.dst_col + t.words] = src_vals
            if fplan is not None and fplan.corrupt_payload:
                # undetected corruption (protection off): one flipped bit
                # lands in the delivered payload.
                off, word, bit = f.draw_corrupt_bit(t.n_rows, t.words)
                row = self._abs_row(t.d_rows, off)
                dblk.flip_bit(row, t.dst_col + word, bit)
        report.add(t.tag, t.op, dur, energy)

    # ------------------------------------------------------------------ #

    def _dispatch(self, plan: ExecutionPlan, i: int, functional: bool,
                  report: TimingReport) -> None:
        """Replay one clock-coupling row (LUT/HOSTOP/DRAM/BARRIER).

        The row's cost was priced by :func:`~repro.pim.plan.lower_program`;
        the handlers below own only the clock and port semantics.
        """
        inst = plan.instructions[i]
        op = inst.op
        if op is Opcode.BARRIER:
            self._barrier()
            return
        row = plan.array[i]
        dur = float(row["dur"])
        energy = float(row["energy"])
        if op is Opcode.LUT:
            self._lut(inst, dur, energy, int(row["flits"]), int(row["hops"]),
                      functional, report)
        elif op is Opcode.HOSTOP:
            self._hostop(inst, dur, energy, report)
        else:  # DRAM_LOAD / DRAM_STORE
            self._dram(inst, dur, energy, report)

    # -- fault hooks ------------------------------------------------------- #

    @staticmethod
    def _abs_row(rows, offset: int) -> int:
        """Absolute row index of the ``offset``-th row of a selection."""
        if isinstance(rows, tuple):
            return rows[0] + offset
        return int(np.asarray(rows)[offset])

    def _apply_compute_faults(self, inst: Instruction, functional: bool,
                              report: TimingReport, dur: float, energy: float,
                              nors: int, flip) -> None:
        """Apply one compute op's fault outcomes (flip pre-drawn by
        :meth:`_predraw_flips`).

        Recovery work (parity upkeep, detect-and-recompute) is charged as
        overhead under the instruction's tag and advances the block clock,
        so mitigation shows up in the timing report, not just the counters.
        """
        f = self.faults
        cfg = f.config
        f.record_nor(inst.block, nors)
        if cfg.protect:
            # parity-row upkeep: one row-parallel copy updates the
            # checksum column after every protected compute op.
            overhead, o_energy = copy_cost(self.costs.device, inst.n_rows)
        else:
            overhead = o_energy = 0.0

        if flip is not None:
            off, bit = flip
            f.count("injected")
            if cfg.protect:
                # parity mismatch on the written column: recompute once.
                f.count("detected")
                f.count("corrected")
                f.record("flip", f"block:{inst.block}", corrected=True,
                         detail=f"{inst.op.value} bit {bit}")
                with get_tracer().span("faults/recompute", block=inst.block,
                                       op=inst.op.value):
                    overhead += dur
                    o_energy += energy
                # the recompute restores the correct result, so the
                # functional state needs no mutation.
            else:
                f.count("uncorrected")
                f.record("flip", f"block:{inst.block}", corrected=False,
                         detail=f"{inst.op.value} bit {bit}")
                if functional and inst.dst is not None:
                    row = self._abs_row(inst.rows, off)
                    self.chip.block(inst.block).flip_bit(row, inst.dst, bit)

        if cfg.stuck_cell_rate > 0.0 and inst.dst is not None:
            cc = self.chip.config
            stuck = f.stuck_cells(inst.block, cc.block_rows, cc.row_words).get(inst.dst)
            if stuck is not None:
                s_rows, s_bits, s_vals = stuck
                if isinstance(inst.rows, tuple):
                    hit = (s_rows >= inst.rows[0]) & (s_rows < inst.rows[1])
                else:
                    hit = np.isin(s_rows, np.asarray(inst.rows))
                n_hit = int(hit.sum())
                if n_hit:
                    f.count("injected", n_hit)
                    if cfg.protect:
                        # the parity check flags the column, but a stuck
                        # cell survives the recompute: detected, charged,
                        # still wrong — the mapper's remap is the real fix.
                        f.count("detected", n_hit)
                        with get_tracer().span("faults/recompute",
                                               block=inst.block,
                                               op=inst.op.value):
                            overhead += dur
                            o_energy += energy
                    f.count("uncorrected", n_hit)
                    f.record("stuck", f"block:{inst.block}", corrected=False,
                             detail=f"col {inst.dst}, {n_hit} cells")
                    if functional:
                        self.chip.block(inst.block).force_bits(
                            s_rows[hit], inst.dst, s_bits[hit], s_vals[hit]
                        )
        if overhead:
            start = self._block_clock[inst.block]
            self._block_clock[inst.block] = start + overhead
            if self.counters is not None:
                # recovery work occupies the block but retires no op
                self.counters.compute(inst.block, start, start + overhead,
                                      ops=0)
            report.add_overhead(inst.tag, overhead, o_energy)

    # -- clock-coupling opcodes ------------------------------------------- #

    def _lut(self, inst: Instruction, dur: float, energy: float, flits: int,
             hops: int, functional: bool, report: TimingReport) -> None:
        """Alg. 1: R_1 (index fetch), R_2 (content fetch), W_1 (write back).

        ``inst.block`` is the requester, ``inst.src_block`` the LUT block,
        ``inst.rows`` the row range served (vectorized micro-sequence),
        ``src1``/``dst`` the Offset_S / Offset_D word columns.  The
        micro-sequence holds both blocks' ports and its switches end to end.
        """
        keys = self.chip.transfer_path(inst.src_block, inst.block)[0]
        ready = max(
            self._compute_start(inst.block), self._compute_start(inst.src_block)
        )
        ready0 = ready  # block-ready time, before queueing behind switches
        for k in keys:
            ready = max(ready, self._switch_free[k])
        finish = ready + dur
        self._port_free[("w", inst.block)] = finish
        self._port_free[("r", inst.src_block)] = finish
        for k in keys:
            self._switch_free[k] = finish

        report.transfers += 1
        report.hops += hops
        report.flits += flits
        report.bytes_moved += 4 * flits  # one word per flit
        if self.counters is not None:
            self.counters.transfer(
                keys, ready, dur, flits, hops, 4 * flits, ready - ready0
            )

        if functional:
            req = self.chip.block(inst.block)
            lut = self.chip.block(inst.src_block)
            for r in range(inst.rows[0], inst.rows[1]):
                index = int(req.data[r, inst.src1])
                lr, lc = divmod(index, lut.row_words)
                req.data[r, inst.dst] = lut.data[lr, lc]
        report.add(inst.tag, inst.op, dur, energy)

    def _hostop(self, inst: Instruction, dur: float, energy: float,
                report: TimingReport) -> None:
        start = max(self._host_clock, self._barrier_time)
        if self.counters is not None:
            self.counters.host(start, start + dur, start - self._host_clock)
        self._host_clock = start + dur
        report.add(inst.tag or "host", inst.op, dur, energy)

    def _dram(self, inst: Instruction, dur: float, energy: float,
              report: TimingReport) -> None:
        start = max(self._dram_clock, self._barrier_time)
        if inst.block is not None:
            start = max(start, self._block_clock[inst.block])
        finish = start + dur
        if self.counters is not None:
            self.counters.dram(start, finish, start - self._dram_clock,
                               block=inst.block)
        self._dram_clock = finish
        if inst.block is not None:
            self._block_clock[inst.block] = finish
        report.add(inst.tag or "dram", inst.op, dur, energy)

    def _barrier(self) -> None:
        now = self._now()
        for b in list(self._block_clock):
            self._block_clock[b] = now
        for k in list(self._port_free):
            self._port_free[k] = now
        self._host_clock = now
        self._dram_clock = now
        self._barrier_time = now
