"""MASIM-style multi-array makespan scheduler for execution plans.

Emission order is execution order: the executor updates shared clocks
(block transfer ports, interconnect switches, the host/DRAM channels) in
the order instructions are dispatched, so a TRANSFER emitted before an
independent compute op can gate that op on the destination's write port
even though no data flows between them.  MASIM's multi-array scheduling
observation (PAPERS.md) applies directly: with the dependency DAG in hand,
a list scheduler can reorder the stream so independent work overlaps —
compute slides ahead of transfers it does not consume, transfers on
disjoint routes interleave, and the modeled makespan (the executor's own
``total_time_s``) drops while every data dependency still holds.

Pipeline:

1. :func:`dependency_edges` builds the inter-instruction DAG from the
   same word-region model the dataflow checker uses
   (:func:`repro.analysis.checker.accesses`): RAW/WAW/WAR edges over
   per-``(block, column)`` access histories (row-interval overlap,
   covered-writer pruning), serial chains for the host and DRAM channels,
   and BARRIER as a full fence.  :func:`dependency_graph` wraps the same
   edges with successor lists and topological bookkeeping for consumers
   that walk the DAG both ways (the perf analyzer, PL004).
2. :func:`schedule_order` runs greedy critical-path list scheduling over
   a resource model that mirrors the executor's timing semantics (block
   clocks, transfer ports, switch occupancy, host/DRAM channels): among
   ready instructions, earliest modeled start wins, critical-path length
   breaks ties, emission index makes it deterministic.
3. :func:`schedule_plan` re-lowers the reordered stream, measures both
   orders by *real replay* (fresh clocks, analytic mode) and keeps the
   scheduled plan only if it strictly improves — the emission-order plan
   is the fallback, so a scheduled plan never loses to its baseline.

Legality is auditable: PL004 (:mod:`repro.analysis.lowering`) recomputes
the DAG and verifies the scheduler's permutation respects every edge.

Cost bounds (the static half of the predict-then-measure loop,
DESIGN.md §15): :func:`earliest_starts` computes a per-instruction
earliest-start bound and :func:`critical_path_span` the dependency span —
both *sound* lower bounds valid for **any** legal order, because edges
carry only the latency the executor actually enforces.  A dependency
edge ``i -> j`` constrains ``j``'s start only through the clock entries
``i`` publishes **and** ``j`` consults (a TRANSFER frees its source read
port after ``read_t + flit_train``, long before its write-back; a
transfer chained through a block the predecessor only wrote via its
*write* port is not gated at all).  The edge latency is therefore the
maximum published latency over the intersection of ``i``'s published and
``j``'s consulted entries — zero-intersection edges are ordering-only
and propagate nothing.  ``repro.analysis.perf`` builds the full
work/span/occupancy bound family on top of these primitives.

Scheduling changes the *order* of clock updates, so a scheduled plan's
TimingReport legitimately differs from emission order — that is the
point.  Fault-injecting runs consume seeded RNG streams in instruction
order, so the compiler only schedules fault-free pipelines (digests stay
comparable across runs); a scheduled plan replayed under a fault model is
still *correct*, it just draws in the new order.

The ``REPRO_SCHED`` knob (default **off**; ``on``/``1``/``true``/``yes``
enables) gates the compiler's use of the scheduler; ``repro bench
--schedule`` and the perf-guard flip it per run.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.pim.isa import Instruction, Opcode
from repro.pim.plan import (
    ExecutionPlan,
    STEP_TRANSFER,
    lower_program,
)

if TYPE_CHECKING:
    from repro.pim.executor import ChipExecutor

__all__ = [
    "DependencyGraph",
    "audit_reorder",
    "critical_path_span",
    "dependency_edges",
    "dependency_graph",
    "earliest_starts",
    "plan_slack",
    "schedule_enabled",
    "schedule_order",
    "schedule_plan",
    "sim_items",
    "verify_order",
    "verify_resource_model",
]

_INF = float("inf")

#: one resource-model item per instruction; heterogeneous tuples tagged by
#: their first element ("c"/"t"/"l"/"h"/"d"/"b") — see :func:`sim_items`.
Item = Tuple[Any, ...]

#: a clock-entry key: ``("b", block)`` block clock, ``("r"/"w", block)``
#: transfer port, ``("s", switch_key)`` switch, ``"host"``/``"dram"``.
ClockKey = Hashable


def schedule_enabled() -> bool:
    """The ``REPRO_SCHED`` knob: default off, ``on``/``1``/``true``/``yes`` enables."""
    return os.environ.get("REPRO_SCHED", "off").strip().lower() in (
        "on", "1", "true", "yes",
    )


# --------------------------------------------------------------------- #
# dependency DAG
# --------------------------------------------------------------------- #

def _row_bounds(rows: Any) -> Tuple[float, float]:
    """Conservative ``[lo, hi)`` row-interval of a selector (None = whole block)."""
    if rows is None:
        return (0.0, _INF)
    if isinstance(rows, tuple):
        return (float(rows[0]), float(rows[1]))
    arr = np.asarray(rows)
    if arr.size == 0:
        return (0.0, 0.0)
    return (float(arr.min()), float(arr.max()) + 1.0)


def dependency_edges(instructions: Sequence[Instruction]) -> List[List[int]]:
    """Predecessor lists of the inter-instruction dependency DAG.

    ``preds[j]`` holds every ``i < j`` that must execute before ``j``:

    * RAW/WAW/WAR over the word regions of :func:`~repro.analysis.checker.
      accesses`, tracked per ``(block, column)`` with row-interval overlap
      (index-array selectors widen to their ``[min, max]`` hull — a
      conservative over-approximation that can only add edges);
    * serial chains on the host channel (HOSTOP order) and the DRAM
      channel (DRAM_LOAD/STORE order) — DRAM staging additionally pins the
      whole target block, mirroring the executor's clock coupling;
    * BARRIER as a full fence: it follows everything since the previous
      fence and precedes everything after it.

    A write that fully covers an earlier access prunes it from the
    history (its ordering survives transitively through the covering
    write), which keeps histories short on kernel streams that overwrite
    the same working columns every stage.
    """
    # imported lazily: repro.analysis imports the executor package.
    from repro.analysis.checker import accesses

    n = len(instructions)
    preds: List[List[int]] = [[] for _ in range(n)]
    writers: Dict[Hashable, List[Tuple[int, float, float]]] = {}
    readers: Dict[Hashable, List[Tuple[int, float, float]]] = {}
    block_keys: Dict[Any, Set[Hashable]] = {}  # block -> history keys seen
    fence: Optional[int] = None
    region: List[int] = []
    host_chain: Optional[int] = None
    dram_chain: Optional[int] = None

    def keys_for(block: Any, col: Optional[int], words: int) -> List[Hashable]:
        ks: List[Hashable] = [(block, "*")] if col is None else [
            (block, c) for c in range(col, col + words)
        ]
        seen = block_keys.setdefault(block, set())
        for k in ks:
            seen.add(k)
        if col is None:
            # a whole-block access conflicts with every column touched so far
            return sorted(seen, key=str)
        if (block, "*") in seen:
            ks.append((block, "*"))
        return ks

    for j, inst in enumerate(instructions):
        op = inst.op
        dep: Set[int] = set()
        if fence is not None:
            dep.add(fence)
        if op is Opcode.BARRIER:
            dep.update(region)
            preds[j] = sorted(dep)
            fence = j
            region = []
            writers.clear()
            readers.clear()
            block_keys.clear()
            host_chain = None
            dram_chain = None
            continue
        region.append(j)
        if op is Opcode.HOSTOP:
            if host_chain is not None:
                dep.add(host_chain)
            host_chain = j
            preds[j] = sorted(dep)
            continue
        reads, writes = accesses(inst)
        if op in (Opcode.DRAM_LOAD, Opcode.DRAM_STORE):
            if dram_chain is not None:
                dep.add(dram_chain)
            dram_chain = j
            if inst.block is not None:
                # DRAM staging couples the whole block clock in the
                # executor: model it as a whole-block read+write.
                from repro.analysis.checker import Access

                whole = Access(inst.block, None, 1, None)
                reads = list(reads) + [whole]
                writes = list(writes) + [whole]
        for acc in reads:
            if acc.block is None:
                continue
            lo, hi = _row_bounds(acc.rows)
            for k in keys_for(acc.block, acc.col, acc.words):
                for i, wlo, whi in writers.get(k, ()):
                    if wlo < hi and lo < whi:
                        dep.add(i)
                readers.setdefault(k, []).append((j, lo, hi))
        for acc in writes:
            if acc.block is None:
                continue
            lo, hi = _row_bounds(acc.rows)
            for k in keys_for(acc.block, acc.col, acc.words):
                wh = writers.setdefault(k, [])
                rh = readers.setdefault(k, [])
                for i, wlo, whi in wh:
                    if wlo < hi and lo < whi:
                        dep.add(i)
                for i, rlo, rhi in rh:
                    if i != j and rlo < hi and lo < rhi:
                        dep.add(i)
                # covered-pruning: this write now transitively orders
                # everything it spans.
                wh[:] = [e for e in wh if not (lo <= e[1] and e[2] <= hi)]
                rh[:] = [e for e in rh if e[0] == j or not (lo <= e[1] and e[2] <= hi)]
                wh.append((j, lo, hi))
        preds[j] = sorted(dep)
    return preds


@dataclass
class DependencyGraph:
    """The inter-instruction dependency DAG, walkable both ways.

    ``preds[j]`` lists the instructions that must execute before ``j``
    (exactly :func:`dependency_edges`); ``succs`` is the transpose, built
    lazily.  Edges always point forward in emission order, so emission
    order *is* a topological order — consumers may walk ``range(n)``
    forward for earliest-start propagation and backward for
    critical-path/liveness sweeps without sorting.
    """

    preds: List[List[int]]
    _succs: Optional[List[List[int]]] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.preds)

    @property
    def succs(self) -> List[List[int]]:
        if self._succs is None:
            succs: List[List[int]] = [[] for _ in range(len(self.preds))]
            for j, ps in enumerate(self.preds):
                for i in ps:
                    succs[i].append(j)
            self._succs = succs
        return self._succs

    @property
    def n_edges(self) -> int:
        return sum(len(ps) for ps in self.preds)


def dependency_graph(instructions: Sequence[Instruction]) -> DependencyGraph:
    """Build the :class:`DependencyGraph` of ``instructions``."""
    return DependencyGraph(preds=dependency_edges(instructions))


def verify_order(preds: Sequence[Sequence[int]], order: Sequence[int]) -> List[str]:
    """Violations of ``order`` against the DAG (empty list = legal).

    Checks that ``order`` is a permutation of ``range(len(preds))`` and
    that every predecessor is placed before its dependent.
    """
    n = len(preds)
    out: List[str] = []
    if sorted(order) != list(range(n)):
        return [f"order is not a permutation of {n} instructions"]
    pos = [0] * n
    for p, i in enumerate(order):
        pos[i] = p
    for j in range(n):
        for i in preds[j]:
            if pos[i] >= pos[j]:
                out.append(
                    f"instruction {j} scheduled at slot {pos[j]} before its "
                    f"dependency {i} at slot {pos[i]}"
                )
    return out


# --------------------------------------------------------------------- #
# resource model (mirrors ChipExecutor timing semantics)
# --------------------------------------------------------------------- #

class _Sim:
    """Executor-faithful clock model used to guide the greedy choice.

    Mirrors ``ChipExecutor``'s per-block clocks, transfer ports, switch
    occupancy and host/DRAM channels (including BARRIER *not* resetting
    switch load).  Only guides the scheduler — final makespans come from
    real replay in :func:`schedule_plan`.
    """

    def __init__(self) -> None:
        self.block: Dict[Any, float] = {}
        self.sw: Dict[Hashable, float] = {}
        self.port: Dict[Tuple[str, Any], float] = {}
        self.host = 0.0
        self.dram = 0.0
        self.barrier = 0.0

    def _g(self, d: Dict[Any, float], k: Any) -> float:
        return d.get(k, 0.0)

    def now(self) -> float:
        vals = list(self.block.values()) + list(self.port.values())
        vals += [self.host, self.dram]
        return max(vals) if vals else 0.0

    def compute_start(self, b: Any) -> float:
        return max(
            self._g(self.block, b),
            self._g(self.port, ("r", b)),
            self._g(self.port, ("w", b)),
            self.barrier,
        )

    def est(self, item: Item) -> float:
        kind = item[0]
        if kind == "c":  # block-local compute
            return self.compute_start(item[1])
        if kind == "t":  # TRANSFER (payload is the plan's _TransferStep)
            t = item[1]
            ready = max(
                self._g(self.port, ("r", t.src)),
                self._g(self.port, ("w", t.dst)),
                self._g(self.block, t.src),
                self._g(self.block, t.dst),
                self.barrier,
            )
            for k in t.keys:
                ready = max(ready, self._g(self.sw, k))
            return ready
        if kind == "l":  # LUT micro-sequence
            _, _dur, req, lut, keys = item
            ready = max(self.compute_start(req), self.compute_start(lut))
            for k in keys:
                ready = max(ready, self._g(self.sw, k))
            return ready
        if kind == "h":
            return max(self.host, self.barrier)
        if kind == "d":
            start = max(self.dram, self.barrier)
            if item[2] is not None:
                start = max(start, self._g(self.block, item[2]))
            return start
        return self.now()  # barrier

    def commit(self, item: Item) -> None:
        kind = item[0]
        if kind == "c":
            _, b, dur = item
            self.block[b] = self.compute_start(b) + dur
        elif kind == "t":
            t = item[1]
            ready = self.est(item)
            finish = ready + t.dur
            if t.exclusive:
                held = ready + t.read_t + t.wire
                for k in t.keys:
                    self.sw[k] = held
            else:
                for k in t.keys:
                    self.sw[k] = self._g(self.sw, k) + t.flit_train
            self.port[("r", t.src)] = ready + t.read_t + t.flit_train
            self.port[("w", t.dst)] = finish
        elif kind == "l":
            _, dur, req, lut, keys = item
            finish = self.est(item) + dur
            self.port[("w", req)] = finish
            self.port[("r", lut)] = finish
            for k in keys:
                self.sw[k] = finish
        elif kind == "h":
            self.host = max(self.host, self.barrier) + item[1]
        elif kind == "d":
            _, dur, b = item
            finish = self.est(item) + dur
            self.dram = finish
            if b is not None:
                self.block[b] = finish
        else:  # barrier
            now = self.now()
            for b in self.block:
                self.block[b] = now
            for k2 in self.port:
                self.port[k2] = now
            self.host = now
            self.dram = now
            self.barrier = now


def sim_items(ex: "ChipExecutor", plan: ExecutionPlan) -> List[Item]:
    """One resource-model item per instruction, costs from the plan.

    The shared cost vocabulary of the scheduler, the slack/span bounds and
    the perf analyzer (:mod:`repro.analysis.perf`): ``("c", block, dur)``
    compute, ``("t", transfer_step)``, ``("l", dur, requester, lut_block,
    switch_keys)``, ``("h", dur)`` host, ``("d", dur, block)`` DRAM,
    ``("b",)`` barrier.
    """
    insts = plan.instructions
    durs = plan.array["dur"]
    transfers = iter(p for k, p in plan.steps if k == STEP_TRANSFER)
    items: List[Item] = []
    for i, inst in enumerate(insts):
        op = inst.op
        if op is Opcode.TRANSFER:
            items.append(("t", next(transfers)))
        elif op is Opcode.BARRIER:
            items.append(("b",))
        elif op is Opcode.HOSTOP:
            items.append(("h", float(durs[i])))
        elif op in (Opcode.DRAM_LOAD, Opcode.DRAM_STORE):
            items.append(("d", float(durs[i]), inst.block))
        elif op is Opcode.LUT:
            keys = ex.chip.transfer_path(inst.src_block, inst.block)[0]
            items.append(("l", float(durs[i]), inst.block, inst.src_block,
                          tuple(keys)))
        else:
            items.append(("c", inst.block, float(durs[i])))
    return items


def _item_durations(items: Sequence[Item]) -> List[float]:
    """Modeled duration of each resource-model item (barrier: 0)."""
    return [
        float(it[2]) if it[0] == "c" else (float(it[1].dur) if it[0] == "t" else
                                           (0.0 if it[0] == "b" else float(it[1])))
        for it in items
    ]


# --------------------------------------------------------------------- #
# typed-latency earliest starts: the sound dependency span bound
# --------------------------------------------------------------------- #

def _publishes(item: Item, dur: float) -> List[Tuple[ClockKey, float]]:
    """Clock entries ``item`` writes, with latency relative to its start.

    Mirrors the executor's commit semantics exactly.  H-tree switch loads
    accumulate (``+= flit_train``) and carry no start-relative guarantee,
    so non-exclusive transfers publish nothing through their switches.
    """
    kind = item[0]
    if kind == "c":
        return [(("b", item[1]), dur)]
    if kind == "t":
        t = item[1]
        out: List[Tuple[ClockKey, float]] = [
            (("r", t.src), t.read_t + t.flit_train),
            (("w", t.dst), t.dur),
        ]
        if t.exclusive:
            out.extend((("s", k), t.read_t + t.wire) for k in t.keys)
        return out
    if kind == "l":
        _, d, req, lut, keys = item
        out = [(("w", req), d), (("r", lut), d)]
        out.extend((("s", k), d) for k in keys)
        return out
    if kind == "h":
        return [("host", dur)]
    if kind == "d":
        out = [("dram", dur)]
        if item[2] is not None:
            out.append((("b", item[2]), dur))
        return out
    return []  # barrier: handled via the fence special case


def _consults(item: Item) -> Set[ClockKey]:
    """Clock entries ``item``'s ready condition reads (executor semantics)."""
    kind = item[0]
    if kind == "c":
        b = item[1]
        return {("b", b), ("r", b), ("w", b)}
    if kind == "t":
        t = item[1]
        keys: Set[ClockKey] = {("r", t.src), ("w", t.dst),
                               ("b", t.src), ("b", t.dst)}
        keys.update(("s", k) for k in t.keys)
        return keys
    if kind == "l":
        _, _d, req, lut, lkeys = item
        keys = set()
        for b in (req, lut):
            keys.update({("b", b), ("r", b), ("w", b)})
        keys.update(("s", k) for k in lkeys)
        return keys
    if kind == "h":
        return {"host"}
    if kind == "d":
        keys = {"dram"}
        if item[2] is not None:
            keys.add(("b", item[2]))
        return keys
    return set()  # barrier: consults everything (special-cased)


def earliest_starts(
    ex: "ChipExecutor", plan: ExecutionPlan,
    preds: Optional[Sequence[Sequence[int]]] = None,
) -> np.ndarray:
    """Sound per-instruction earliest-start lower bounds (seconds).

    ``est[j]`` lower-bounds instruction ``j``'s modeled start under *any*
    execution order that respects the dependency DAG.  An edge ``i -> j``
    propagates ``est[i] + latency`` only through the clock entries ``i``
    publishes and ``j`` consults (the wait the executor actually
    enforces); edges whose entry sets do not intersect are ordering-only
    and propagate nothing — the executor never makes ``j`` wait for such
    an ``i``, so assuming it would could overshoot the measured run.

    BARRIER is exact both ways: its own start is ``max(est[i] + dur[i])``
    over its region (it waits on ``now()``, which sees every completed
    duration through a now-visible clock), and every later instruction
    consults the floor it raises.
    """
    insts = plan.instructions
    n = len(insts)
    if preds is None:
        preds = dependency_edges(insts)
    items = sim_items(ex, plan)
    dur_of = _item_durations(items)
    pubs = [_publishes(it, d) for it, d in zip(items, dur_of)]
    cons = [_consults(it) for it in items]
    est = np.zeros(n)
    for j in range(n):
        e = 0.0
        if items[j][0] == "b":
            for i in preds[j]:
                c = est[i] + dur_of[i]
                if c > e:
                    e = c
        else:
            cj = cons[j]
            for i in preds[j]:
                if items[i][0] == "b":
                    # the fence raised the barrier floor, which j consults.
                    if est[i] > e:
                        e = float(est[i])
                    continue
                best = -1.0
                for key, lat in pubs[i]:
                    if key in cj and lat > best:
                        best = lat
                if best >= 0.0:
                    c = est[i] + best
                    if c > e:
                        e = c
        est[j] = e
    return est


def critical_path_span(
    ex: "ChipExecutor", plan: ExecutionPlan,
    preds: Optional[Sequence[Sequence[int]]] = None,
) -> float:
    """Dependency-span lower bound on the plan's makespan, in seconds.

    ``max_j(est[j] + dur[j])`` over the typed earliest starts of
    :func:`earliest_starts`.  Sound for any legal order: every completed
    instruction leaves ``start + dur`` on a clock the executor's final
    ``now()`` reads (block clock for compute/DRAM-coupled ops, the write
    port for TRANSFER/LUT, the host/DRAM channel clocks), so the measured
    makespan can never fall below it.
    """
    items = sim_items(ex, plan)
    dur_of = _item_durations(items)
    est = earliest_starts(ex, plan, preds)
    if not len(est):
        return 0.0
    return float(np.max(est + np.asarray(dur_of)))


# --------------------------------------------------------------------- #
# cross-checks: the resource model vs the measured executor/counters
# --------------------------------------------------------------------- #

def verify_resource_model(ex: "ChipExecutor", plan: ExecutionPlan) -> List[str]:
    """Prove the scheduler's ``_Sim`` agrees with the measured executor.

    Walks the resource model over ``plan`` in emission order, then replays
    the same plan on a fresh hardware-counting executor and compares:
    every final clock (blocks, ports, switches, host, DRAM) and the
    makespan must match *exactly* — the scheduler prices instructions with
    the very semantics the executor charges — and the counters' totals
    must equal the TimingReport's interconnect aggregates with per-block
    busy time never exceeding the block's final clock.  Returns mismatch
    messages (empty list = the model, the executor and the counters agree).
    """
    from repro.pim.executor import ChipExecutor

    sim = _Sim()
    for item in sim_items(ex, plan):
        sim.commit(item)
    fresh = ChipExecutor(ex.chip, op_costs=ex.costs, host=ex.host, counters=True)
    report = fresh.run(plan, functional=False)
    out: List[str] = []

    def compare(what: str, modeled: Dict[Any, float], measured: Dict[Any, float],
                floor: float = 0.0) -> None:
        # The executor's clock dicts materialize entries on *read*
        # (defaultdict) and BARRIER then sweeps those entries up to `now`;
        # _Sim reads with .get and never creates them.  Both agree on the
        # *effective* value max(entry, barrier) every consumer observes, so
        # block/port entries compare through that floor — exactly, not
        # approximately.  Switches are not swept (floor stays 0).
        for key in sorted({*modeled, *measured}, key=str):
            a = max(modeled.get(key, 0.0), floor)
            b = max(measured.get(key, 0.0), floor)
            if a != b:
                out.append(
                    f"{what}[{key}]: resource model {a!r} != executor {b!r}"
                )

    if sim.barrier != fresh._barrier_time:
        out.append(
            f"barrier: model {sim.barrier!r} != executor {fresh._barrier_time!r}"
        )
    compare("block_clock", sim.block, dict(fresh._block_clock),
            floor=sim.barrier)
    compare("port_free", dict(sim.port), dict(fresh._port_free),
            floor=sim.barrier)
    compare("switch_free", sim.sw, dict(fresh._switch_free))
    if sim.host != fresh._host_clock:
        out.append(f"host clock: model {sim.host!r} != executor {fresh._host_clock!r}")
    if sim.dram != fresh._dram_clock:
        out.append(f"dram clock: model {sim.dram!r} != executor {fresh._dram_clock!r}")
    if sim.now() != report.total_time_s:
        out.append(
            f"makespan: model {sim.now()!r} != measured {report.total_time_s!r}"
        )

    cnt = fresh.counters
    assert cnt is not None
    for name, measured_n, reported_n in (
        ("transfers", cnt.transfers, report.transfers),
        ("flits", cnt.flits, report.flits),
        ("hops", cnt.hops, report.hops),
        ("bytes_moved", cnt.bytes_moved, report.bytes_moved),
    ):
        if measured_n != reported_n:
            out.append(
                f"counters.{name} {measured_n} != report.{name} {reported_n}"
            )
    for b, busy in cnt.block_busy_s.items():
        occupied = busy + cnt.block_stage_s.get(b, 0.0)
        clock = fresh._block_clock.get(b, 0.0)
        if occupied > clock * (1.0 + 1e-9) + 1e-15:
            out.append(
                f"block {b} occupancy {occupied!r} exceeds its clock {clock!r}"
            )
    return out


def plan_slack(
    ex: "ChipExecutor", plan: ExecutionPlan,
    preds: Optional[Sequence[Sequence[int]]] = None,
) -> np.ndarray:
    """Per-instruction scheduler slack, in seconds (emission order).

    ``slack[j]`` is the instruction's modeled start under the emission
    order (the ``_Sim`` walk) minus its critical-path earliest start (the
    resource-free DAG bound ``est[j] = max over preds(est[i] + dur[i])``).
    Zero means the instruction sits on the critical path as emitted; large
    values mark work the scheduler (or a future multi-chip sharding) could
    pull earlier.  Always >= 0 up to float rounding: resources only ever
    delay an instruction past its dependency bound.
    """
    insts = plan.instructions
    n = len(insts)
    if preds is None:
        preds = dependency_edges(insts)
    items = sim_items(ex, plan)
    dur_of = _item_durations(items)
    sim = _Sim()
    starts = np.empty(n)
    for j, item in enumerate(items):
        starts[j] = sim.est(item)
        sim.commit(item)
    earliest = np.zeros(n)
    for j in range(n):
        ps = preds[j]
        if ps:
            earliest[j] = max(earliest[i] + dur_of[i] for i in ps)
    return starts - earliest


# --------------------------------------------------------------------- #
# greedy critical-path list scheduling
# --------------------------------------------------------------------- #

def schedule_order(
    ex: "ChipExecutor", plan: ExecutionPlan,
    preds: Optional[Sequence[Sequence[int]]] = None,
) -> List[int]:
    """Greedy list-scheduled instruction order (indices into the stream).

    Ready instructions compete on ``(modeled earliest start, critical-path
    length, emission index)`` — earliest start first, longer critical path
    breaks ties, emission index keeps it deterministic.  The heap uses
    lazy deletion: a popped candidate whose start estimate went stale
    (resources moved since it was pushed) is re-pushed with the fresh
    estimate instead of being committed.
    """
    insts = plan.instructions
    n = len(insts)
    if preds is None:
        preds = dependency_edges(insts)
    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for j, ps in enumerate(preds):
        indeg[j] = len(ps)
        for i in ps:
            succs[i].append(j)

    items = sim_items(ex, plan)
    # critical-path length: edges always point forward in emission order,
    # so a reverse index walk is a reverse topological order.
    dur_of = _item_durations(items)
    cp = [0.0] * n
    for i in range(n - 1, -1, -1):
        tail = max((cp[j] for j in succs[i]), default=0.0)
        cp[i] = dur_of[i] + tail

    sim = _Sim()
    order: List[int] = []
    heap: List[Tuple[float, float, int]] = []
    for j in range(n):
        if indeg[j] == 0:
            heapq.heappush(heap, (sim.est(items[j]), -cp[j], j))
    while heap:
        est0, negcp, j = heapq.heappop(heap)
        est = sim.est(items[j])
        if est > est0 and heap and heap[0][0] < est:
            heapq.heappush(heap, (est, negcp, j))
            continue
        sim.commit(items[j])
        order.append(j)
        for s in succs[j]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(heap, (sim.est(items[s]), -cp[s], s))
    if len(order) != n:  # pragma: no cover - DAG is forward-only by construction
        raise RuntimeError("scheduler deadlock: dependency graph has a cycle")
    return order


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #

def _replay_makespan(ex: "ChipExecutor", plan: ExecutionPlan) -> float:
    """Modeled makespan of a plan: real analytic replay from cold clocks."""
    from repro.pim.executor import ChipExecutor

    fresh = ChipExecutor(ex.chip, op_costs=ex.costs, host=ex.host)
    return float(fresh.run(plan, functional=False).total_time_s)


def schedule_plan(ex: "ChipExecutor", plan: ExecutionPlan) -> ExecutionPlan:
    """Makespan-schedule ``plan``; returns the better of the two orders.

    Builds the dependency DAG, list-schedules, re-lowers the reordered
    stream and measures both plans by real replay.  The scheduled plan is
    kept only if it strictly beats emission order (best-of fallback:
    the result's modeled makespan is never worse than the input's).  The
    returned plan carries ``schedule_stats``::

        {"emission_makespan_s", "scheduled_makespan_s", "improvement",
         "kept", "n_reordered", "permutation"}
    """
    insts = plan.instructions
    preds = dependency_edges(insts)
    order = schedule_order(ex, plan, preds)
    emission_s = _replay_makespan(ex, plan)
    identity = order == list(range(len(insts)))
    stats: Dict[str, Any] = {
        "emission_makespan_s": emission_s,
        "scheduled_makespan_s": emission_s,
        "improvement": 1.0,
        "kept": False,
        "n_reordered": sum(1 for p, i in enumerate(order) if p != i),
        "permutation": order,
    }
    if not identity:
        violations = verify_order(preds, order)
        if violations:  # pragma: no cover - scheduler invariant
            raise RuntimeError(
                "illegal schedule: " + "; ".join(violations[:3])
            )
        sched = lower_program(ex.chip, ex.costs, [insts[i] for i in order],
                              ex.host)
        sched_s = _replay_makespan(ex, sched)
        if sched_s < emission_s:
            stats["scheduled_makespan_s"] = sched_s
            stats["improvement"] = emission_s / sched_s if sched_s > 0.0 else 1.0
            stats["kept"] = True
            sched.schedule_stats = stats
            return sched
    plan.schedule_stats = stats
    return plan


def audit_reorder(program: Sequence[Instruction], plan: ExecutionPlan,
                  chip: Any) -> List[str]:
    """PL004 helper: prove the scheduler's reordering of ``program`` is legal.

    Recomputes the dependency DAG, runs the list scheduler and verifies
    the resulting permutation respects every edge; any violation message
    becomes a PL004 finding.  An identity order is trivially legal.
    """
    from repro.pim.executor import ChipExecutor

    ex = ChipExecutor(chip)
    preds = dependency_edges(plan.instructions)
    order = schedule_order(ex, plan, preds)
    return verify_order(preds, order)
