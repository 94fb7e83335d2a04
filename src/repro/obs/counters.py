"""Hardware counters: per-resource occupancy recording + makespan attribution.

:class:`HardwareCounters` is the recorder the executor (and the batched
transfer scheduler) feed while a plan replays: per-block busy seconds and
NOR-op counts, per-interconnect-link flit/occupancy accounting, host/DRAM
channel busy and stall time, and transfer queueing delay.  It is a passive
side-channel — recording only *reads* values the executor already computed,
so a counters-on run produces bit-identical
:class:`~repro.pim.executor.TimingReport` and block state to a counters-off
run (asserted across the six paper benchmarks in ``tests/test_counters.py``).

Counters are **off by default** (``REPRO_COUNTERS=1`` or the CLI
``--counters`` flag enables them) and deliberately cheap when on: the
replay-side record is a *single tuple append to a raw log* per
segment/transfer — never per instruction on the vectorized path, and never
a dict update — with all aggregation deferred to the first read
(:meth:`HardwareCounters._finalize`).  That keeps enabled-replay overhead
small; the bench's ``counters_overhead`` field records the measured ratio,
which run-to-run noise of several percent keeps from being gated.

:func:`attribute_makespan` rolls a recording up into a
:class:`MakespanAttribution`: an interval sweep partitions the makespan
among the busy resources (each elementary slice of the timeline is
attributed to the busiest resource active during it, idle gaps to
``"idle"``), so the shares *sum to the makespan exactly* and the binding
resource — the one holding the largest share — names what actually bounds
the run.  :mod:`repro.obs.timeline` renders the same intervals as a
per-resource Gantt chart through the Chrome-trace exporter.

Like everything in ``repro.obs``, this module imports nothing from the
rest of ``repro``: resources are opaque keys (the executor uses block ids
and ``(tile, switch)`` link tuples) plus the two channel singletons
``"host"`` and ``"dram"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

__all__ = [
    "HardwareCounters",
    "MakespanAttribution",
    "attribute_makespan",
    "counters_enabled",
    "default_link_label",
]

_ENV_COUNTERS = "REPRO_COUNTERS"

_TRUTHY = ("1", "true", "yes", "on")


def counters_enabled() -> bool:
    """The ``REPRO_COUNTERS`` knob: default off, ``1``/``true``/``on`` enables."""
    return os.environ.get(_ENV_COUNTERS, "").strip().lower() in _TRUTHY


def default_link_label(key: Hashable) -> str:
    """``(tile, switch) -> "link:t0.s5"`` (fallback when no chip labeler)."""
    if isinstance(key, tuple) and len(key) == 2:
        return f"link:t{key[0]}.s{key[1]}"
    return f"link:{key}"


class HardwareCounters:
    """One replay's per-resource occupancy recording.

    Scalar totals mirror the :class:`~repro.pim.executor.TimingReport`
    interconnect fields exactly (``transfers``/``flits``/``hops``/
    ``bytes_moved`` — the cross-check in ``tests/test_counters.py``), and
    the per-resource dicts add what the report cannot see: *which* block,
    link or channel the time went to.

    ``events`` keeps the raw busy intervals for the Gantt timeline; set
    ``timeline=False`` to keep only the aggregates (long campaign runs).

    **Hot-path contract.**  The recording methods do nothing but append one
    tuple to a raw log (``compute_log``/``xfer_log``/``chan_log``); every
    aggregate attribute is a property that drains the logs on first read
    (:meth:`_finalize`, incremental — repeated reads are free).  The
    executor's replay loop appends through bound ``log.append`` references
    directly, skipping even the method call: it records each counted plan
    *once* (``plan_log``) plus one start clock per ``(segment, block)``
    into the flat ``start_log`` — no per-segment tuple is built at all;
    :meth:`_finalize` re-walks the plan's own step list to recover the
    intervals.  Records are stored by reference and must not be mutated by
    the caller afterwards (plan steps and memoized chip routes are stable;
    the batched scheduler passes fresh lists).
    """

    __slots__ = (
        "timeline",
        "compute_log", "xfer_log", "chan_log", "start_log", "plan_log",
        "_fold", "_seg_kind",
        "_done_compute", "_done_xfer", "_done_chan", "_done_starts",
        "_done_plan",
        "_block_busy_s", "_block_nors", "_block_ops", "_block_stage_s",
        "_link_busy_s", "_link_flits", "_link_transfers",
        "_host_busy_s", "_host_stall_s", "_host_ops",
        "_dram_busy_s", "_dram_stall_s", "_dram_ops",
        "_transfers", "_flits", "_hops", "_bytes_moved",
        "_transfer_queue_s", "_transfers_queued",
        "_events",
    )

    def __init__(self, timeline: bool = True):
        self.timeline = timeline
        #: raw compute records ``(block, start_s, end_s, nors, ops)``
        #: (serial / fault-mode paths).
        self.compute_log: List[tuple] = []
        #: raw transfer records
        #: ``(keys, ready_s, per_link_busy_s, flits, hops, n_bytes, queue_s)``,
        #: or deferred ``(step, ready_s, ready0_s)`` records.
        self.xfer_log: List[tuple] = []
        #: raw channel records ``("host"|"dram", block, start_s, end_s, stall_s)``.
        self.chan_log: List[tuple] = []
        #: replayed plan objects, one per counted replay; :meth:`_finalize`
        #: re-walks each plan's segment steps, so the replay loop itself
        #: records nothing per segment.
        self.plan_log: List[object] = []
        #: flat stream of segment start clocks, one per ``(segment, block)``
        #: in replay order — the only per-block record the hot loop appends.
        self.start_log: List[float] = []
        #: the replay's left-fold (set by the executor before recording);
        #: recomputes each deferred segment's end clocks bit-identically.
        self._fold: Optional[Callable[..., float]] = None
        #: the executor's segment step-kind sentinel (set alongside ``_fold``).
        self._seg_kind: object = None
        self._done_compute = 0
        self._done_xfer = 0
        self._done_chan = 0
        self._done_starts = 0
        self._done_plan = 0
        self._block_busy_s: Dict[int, float] = {}
        self._block_nors: Dict[int, int] = {}
        self._block_ops: Dict[int, int] = {}
        self._block_stage_s: Dict[int, float] = {}
        self._link_busy_s: Dict[Hashable, float] = {}
        self._link_flits: Dict[Hashable, int] = {}
        self._link_transfers: Dict[Hashable, int] = {}
        self._host_busy_s = 0.0
        self._host_stall_s = 0.0
        self._host_ops = 0
        self._dram_busy_s = 0.0
        self._dram_stall_s = 0.0
        self._dram_ops = 0
        self._transfers = 0
        self._flits = 0
        self._hops = 0
        self._bytes_moved = 0
        self._transfer_queue_s = 0.0
        self._transfers_queued = 0
        self._events: List[Tuple[str, Hashable, float, float]] = []

    # -- recording (called by the executor's replay/dispatch paths) ------- #

    def compute(self, block: int, start: float, end: float,
                nors: int = 0, ops: int = 1) -> None:
        """One compute segment (or serial op) on ``block``'s clock."""
        self.compute_log.append((block, start, end, nors, ops))

    def transfer(self, keys, ready: float, per_link_busy: float,
                 flits: int, hops: int, n_bytes: int,
                 queue_s: float) -> None:
        """One routed TRANSFER/LUT: occupancy on every switch of its path."""
        self.xfer_log.append(
            (keys, ready, per_link_busy, flits, hops, n_bytes, queue_s)
        )

    def host(self, start: float, end: float, stall: float) -> None:
        self.chan_log.append(("host", None, start, end, stall))

    def dram(self, start: float, end: float, stall: float,
             block: Optional[int] = None) -> None:
        """One DRAM channel op; ``block`` marks staging coupled to a block."""
        self.chan_log.append(("dram", block, start, end, stall))

    # -- lazy aggregation -------------------------------------------------- #

    def _finalize(self) -> None:
        """Drain the raw logs into the aggregates (incremental, idempotent).

        Eager tuples come from the :meth:`compute`/:meth:`transfer` methods
        (serial, fault and scheduler paths); *deferred* records come from
        the executor's replay loop, which keeps its hot path at one bare
        append per site:

        * compute: the replay appends each counted plan to ``plan_log``
          once and one start clock per ``(segment, block)`` to the flat
          ``start_log``; this method re-walks the plan's segment steps
          consuming the starts in order, recomputing each end clock as
          ``fold(start, durs)`` — the very left-fold the replay used — so
          intervals stay bit-identical;
        * transfer: ``(step, ready, ready0)`` 3-tuples — fault-free
          transfers only; the step object carries ``keys``/``exclusive``/
          ``read_t``/``wire``/``flit_train``/``flits``/``hops``/``n_bytes``.
        """
        plog = self.plan_log
        if self._done_plan < len(plog):
            bb, bn, bo = self._block_busy_s, self._block_nors, self._block_ops
            ev = self._events if self.timeline else None
            starts = self.start_log
            si = self._done_starts
            fold = self._fold
            seg = self._seg_kind
            assert fold is not None
            for plan in plog[self._done_plan:]:
                for kind, payload in plan.steps:  # type: ignore[attr-defined]
                    if kind != seg:
                        continue
                    for block, durs, nors, ops in payload.block_groups:
                        start = starts[si]
                        si += 1
                        end = fold(start, durs)
                        busy = end - start
                        bb[block] = bb.get(block, 0.0) + busy
                        if nors:
                            bn[block] = bn.get(block, 0) + nors
                        bo[block] = bo.get(block, 0) + ops
                        if ev is not None and busy > 0.0:
                            ev.append(("block", block, start, end))
            self._done_starts = si
            self._done_plan = len(plog)

        log = self.compute_log
        if self._done_compute < len(log):
            bb, bn, bo = self._block_busy_s, self._block_nors, self._block_ops
            ev = self._events if self.timeline else None
            for block, start, end, nors, ops in log[self._done_compute:]:
                busy = end - start
                bb[block] = bb.get(block, 0.0) + busy
                if nors:
                    bn[block] = bn.get(block, 0) + nors
                bo[block] = bo.get(block, 0) + ops
                if ev is not None and busy > 0.0:
                    ev.append(("block", block, start, end))
            self._done_compute = len(log)

        log = self.xfer_log
        if self._done_xfer < len(log):
            lb, lf = self._link_busy_s, self._link_flits
            lt = self._link_transfers
            ev = self._events if self.timeline else None
            n_tr = n_fl = n_hop = n_by = n_q = 0
            q_s = 0.0
            for rec in log[self._done_xfer:]:
                if len(rec) == 3:  # deferred fault-free transfer record
                    t, ready, ready0 = rec
                    keys = t.keys
                    busy = (t.read_t + t.wire) if t.exclusive \
                        else t.flit_train
                    flits, hops, n_bytes = t.flits, t.hops, t.n_bytes
                    queue_s = ready - ready0
                else:
                    keys, ready, busy, flits, hops, n_bytes, queue_s = rec
                n_tr += 1
                n_fl += flits
                n_hop += hops
                n_by += n_bytes
                if queue_s > 0.0:
                    q_s += queue_s
                    n_q += 1
                for k in keys:
                    lb[k] = lb.get(k, 0.0) + busy
                    lf[k] = lf.get(k, 0) + flits
                    lt[k] = lt.get(k, 0) + 1
                if ev is not None and keys and busy > 0.0:
                    end = ready + busy
                    for k in keys:
                        ev.append(("link", k, ready, end))
            self._transfers += n_tr
            self._flits += n_fl
            self._hops += n_hop
            self._bytes_moved += n_by
            self._transfer_queue_s += q_s
            self._transfers_queued += n_q
            self._done_xfer = len(log)

        log = self.chan_log
        if self._done_chan < len(log):
            ev = self._events if self.timeline else None
            for chan, block, start, end, stall in log[self._done_chan:]:
                busy = end - start
                if chan == "host":
                    self._host_busy_s += busy
                    self._host_stall_s += stall
                    self._host_ops += 1
                    if ev is not None:
                        ev.append(("host", "host", start, end))
                else:
                    self._dram_busy_s += busy
                    self._dram_stall_s += stall
                    self._dram_ops += 1
                    if block is not None:
                        self._block_stage_s[block] = (
                            self._block_stage_s.get(block, 0.0) + busy
                        )
                    if ev is not None:
                        ev.append(("dram", "dram", start, end))
                        if block is not None:
                            ev.append(("stage", block, start, end))
            self._done_chan = len(log)

    @property
    def block_busy_s(self) -> Dict[int, float]:
        """Compute occupancy (arith/COPY/GATHER/BROADCAST + fault-recovery
        overhead) per block, in seconds of that block's clock."""
        self._finalize()
        return self._block_busy_s

    @property
    def block_nors(self) -> Dict[int, int]:
        """NOR cycles issued per block (arith + COPY; the wear-out currency)."""
        self._finalize()
        return self._block_nors

    @property
    def block_ops(self) -> Dict[int, int]:
        """Compute instructions retired per block."""
        self._finalize()
        return self._block_ops

    @property
    def block_stage_s(self) -> Dict[int, float]:
        """DRAM-staging time coupled onto a block's clock (kept separate
        from ``block_busy_s`` so compute busy == plan-array dur sums)."""
        self._finalize()
        return self._block_stage_s

    @property
    def link_busy_s(self) -> Dict[Hashable, float]:
        """Switch occupancy per link key: seconds each switch served."""
        self._finalize()
        return self._link_busy_s

    @property
    def link_flits(self) -> Dict[Hashable, int]:
        """Flits forwarded per link key."""
        self._finalize()
        return self._link_flits

    @property
    def link_transfers(self) -> Dict[Hashable, int]:
        """Transfers (TRANSFER + LUT micro-sequences) routed per link key."""
        self._finalize()
        return self._link_transfers

    @property
    def host_busy_s(self) -> float:
        self._finalize()
        return self._host_busy_s

    @property
    def host_stall_s(self) -> float:
        """Host time lost waiting on a BARRIER floor before starting."""
        self._finalize()
        return self._host_stall_s

    @property
    def host_ops(self) -> int:
        self._finalize()
        return self._host_ops

    @property
    def dram_busy_s(self) -> float:
        self._finalize()
        return self._dram_busy_s

    @property
    def dram_stall_s(self) -> float:
        """DRAM-channel time lost waiting on barriers / the staged block."""
        self._finalize()
        return self._dram_stall_s

    @property
    def dram_ops(self) -> int:
        self._finalize()
        return self._dram_ops

    @property
    def transfers(self) -> int:
        self._finalize()
        return self._transfers

    @property
    def flits(self) -> int:
        self._finalize()
        return self._flits

    @property
    def hops(self) -> int:
        self._finalize()
        return self._hops

    @property
    def bytes_moved(self) -> int:
        self._finalize()
        return self._bytes_moved

    @property
    def transfer_queue_s(self) -> float:
        """Total switch/port queueing delay: time transfers spent ready on
        their ports but blocked behind earlier traffic on their route."""
        self._finalize()
        return self._transfer_queue_s

    @property
    def transfers_queued(self) -> int:
        """Transfers that experienced any queueing delay at all."""
        self._finalize()
        return self._transfers_queued

    @property
    def events(self) -> List[Tuple[str, Hashable, float, float]]:
        """Raw busy intervals ``(kind, key, start_s, end_s)`` with kind in
        ``{"block", "link", "host", "dram", "stage"}`` — the Gantt feed."""
        self._finalize()
        return self._events

    # -- aggregation ------------------------------------------------------ #

    def merge(self, other: "HardwareCounters") -> None:
        """Fold another recording into this one (``--jobs`` / batch merges).

        Interval events are concatenated verbatim: merged recordings come
        from sequentially-joined runs whose clocks each start at zero, so
        the aggregate dicts stay exact while the timeline becomes a
        superposition (fine for utilization, not for Gantt rendering —
        render per run when absolute placement matters).
        """
        self._finalize()
        other._finalize()
        for mine, theirs in (
            (self._block_busy_s, other._block_busy_s),
            (self._block_stage_s, other._block_stage_s),
            (self._link_busy_s, other._link_busy_s),
        ):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0.0) + v
        for mine_i, theirs_i in (
            (self._block_nors, other._block_nors),
            (self._block_ops, other._block_ops),
            (self._link_flits, other._link_flits),
            (self._link_transfers, other._link_transfers),
        ):
            for k, v in theirs_i.items():
                mine_i[k] = mine_i.get(k, 0) + v
        self._host_busy_s += other._host_busy_s
        self._host_stall_s += other._host_stall_s
        self._host_ops += other._host_ops
        self._dram_busy_s += other._dram_busy_s
        self._dram_stall_s += other._dram_stall_s
        self._dram_ops += other._dram_ops
        self._transfers += other._transfers
        self._flits += other._flits
        self._hops += other._hops
        self._bytes_moved += other._bytes_moved
        self._transfer_queue_s += other._transfer_queue_s
        self._transfers_queued += other._transfers_queued
        if self.timeline and other.timeline:
            self._events.extend(other._events)

    def busy_by_resource(
        self, link_label: Optional[Callable[[Hashable], str]] = None
    ) -> Dict[str, float]:
        """``{resource name: busy seconds}`` over every recorded resource."""
        label = link_label or default_link_label
        out: Dict[str, float] = {}
        for b, t in self.block_busy_s.items():
            out[f"block:{b}"] = out.get(f"block:{b}", 0.0) + t
        for b, t in self.block_stage_s.items():
            out[f"block:{b}"] = out.get(f"block:{b}", 0.0) + t
        for k, t in self.link_busy_s.items():
            out[label(k)] = out.get(label(k), 0.0) + t
        if self.host_busy_s:
            out["host"] = self.host_busy_s
        if self.dram_busy_s:
            out["dram"] = self.dram_busy_s
        return out

    def compare_occupancy(
        self,
        predicted: Dict[str, float],
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-15,
        link_label: Optional[Callable[[Hashable], str]] = None,
    ) -> List[str]:
        """Check a static occupancy prediction against this recording.

        ``predicted`` maps resource names (the :meth:`busy_by_resource`
        vocabulary: ``"block:N"``, link labels, ``"host"``, ``"dram"``) to
        predicted busy seconds.  Every resource present on either side must
        agree within ``max(abs_tol, rel_tol * max(|predicted|, |measured|))``
        — the epsilon absorbs fold-order/ulp drift only, not modeling error.
        Returns one message per disagreement (empty list = the static model
        and the measured hardware agree).  The predict-then-measure
        cross-validation contract of DESIGN.md §15: the caller supplies the
        prediction, this recorder supplies the measurement, and neither side
        imports the other's model.
        """
        measured = self.busy_by_resource(link_label=link_label)
        out: List[str] = []
        for name in sorted({*predicted, *measured}):
            p = predicted.get(name, 0.0)
            m = measured.get(name, 0.0)
            tol = max(abs_tol, rel_tol * max(abs(p), abs(m)))
            if abs(p - m) > tol:
                out.append(
                    f"{name}: predicted occupancy {p!r} s, measured {m!r} s "
                    f"(delta {p - m:+.3e} beyond tolerance {tol:.3e})"
                )
        return out

    def as_dict(self, link_label: Optional[Callable[[Hashable], str]] = None
                ) -> dict:
        """Plain-dict snapshot (JSON-able, intervals excluded)."""
        label = link_label or default_link_label
        return {
            "block_busy_s": {str(k): v for k, v in sorted(self.block_busy_s.items())},
            "block_nors": {str(k): v for k, v in sorted(self.block_nors.items())},
            "block_ops": {str(k): v for k, v in sorted(self.block_ops.items())},
            "block_stage_s": {str(k): v for k, v in sorted(self.block_stage_s.items())},
            "link_busy_s": {label(k): v for k, v in self.link_busy_s.items()},
            "link_flits": {label(k): v for k, v in self.link_flits.items()},
            "link_transfers": {label(k): v for k, v in self.link_transfers.items()},
            "host_busy_s": self.host_busy_s,
            "host_stall_s": self.host_stall_s,
            "host_ops": self.host_ops,
            "dram_busy_s": self.dram_busy_s,
            "dram_stall_s": self.dram_stall_s,
            "dram_ops": self.dram_ops,
            "transfers": self.transfers,
            "flits": self.flits,
            "hops": self.hops,
            "bytes_moved": self.bytes_moved,
            "transfer_queue_s": self.transfer_queue_s,
            "transfers_queued": self.transfers_queued,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HardwareCounters({len(self.block_busy_s)} blocks, "
            f"{len(self.link_busy_s)} links, {self.transfers} transfers, "
            f"{len(self.events)} events)"
        )


# --------------------------------------------------------------------- #
# makespan attribution
# --------------------------------------------------------------------- #


@dataclass
class MakespanAttribution:
    """Which resource bound the makespan, and by how much.

    ``shares`` partitions the makespan exactly: every elementary slice of
    the timeline is attributed to exactly one resource (the busiest active
    one, ties to the first by total busy), idle gaps to ``"idle"`` —
    ``sum(shares.values()) == makespan_cycles`` up to float rounding.
    ``utilization`` is the plain busy/makespan ratio per resource (these
    legitimately sum past 1.0 when resources overlap).
    """

    makespan_cycles: float
    #: per-resource attributed share of the makespan, in cycles
    #: (includes an ``"idle"`` entry for uncovered time).
    shares: Dict[str, float] = field(default_factory=dict)
    #: per-resource busy/makespan occupancy ratio.
    utilization: Dict[str, float] = field(default_factory=dict)
    binding_resource: str = "idle"
    #: the binding resource's fraction of the makespan (0..1).
    binding_share: float = 0.0
    idle_cycles: float = 0.0

    @property
    def idle_fraction(self) -> float:
        if self.makespan_cycles <= 0.0:
            return 0.0
        return self.idle_cycles / self.makespan_cycles

    def _class_util(self, prefix: str) -> Optional[float]:
        vals = [u for r, u in self.utilization.items() if r.startswith(prefix)]
        if not vals:
            return None
        return sum(vals) / len(vals)

    @property
    def block_util(self) -> Optional[float]:
        """Mean utilization of the blocks that did any work (None: no blocks)."""
        return self._class_util("block:")

    @property
    def link_util(self) -> Optional[float]:
        """Mean utilization of the links that carried any traffic."""
        return self._class_util("link:")

    def top(self, n: int = 8) -> List[Tuple[str, float]]:
        """The ``n`` largest shares ``(resource, cycles)``, idle excluded."""
        ranked = sorted(
            ((r, c) for r, c in self.shares.items() if r != "idle"),
            key=lambda rc: rc[1], reverse=True,
        )
        return ranked[:n]

    def render(self, top: int = 8) -> str:
        """Human trend table: binding resource first, then the top shares."""
        lines = [
            f"makespan {self.makespan_cycles:,.0f} cycles; binding resource "
            f"{self.binding_resource} ({self.binding_share:.1%} of makespan, "
            f"idle {self.idle_fraction:.1%})"
        ]
        for resource, cycles in self.top(top):
            util = self.utilization.get(resource, 0.0)
            lines.append(
                f"  {resource:<20} {cycles:>14,.0f} cycles attributed  "
                f"util {util:6.1%}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "makespan_cycles": self.makespan_cycles,
            "binding_resource": self.binding_resource,
            "binding_share": self.binding_share,
            "idle_cycles": self.idle_cycles,
            "shares": dict(self.shares),
            "utilization": dict(self.utilization),
            "block_util": self.block_util,
            "link_util": self.link_util,
        }


def attribute_makespan(
    counters: HardwareCounters,
    total_time_s: float,
    clock_hz: float = 1.0,
    link_label: Optional[Callable[[Hashable], str]] = None,
) -> MakespanAttribution:
    """Sweep the recorded intervals into a :class:`MakespanAttribution`.

    Interval-sweep partition: sort every busy interval boundary, and for
    each elementary slice of ``[0, total_time_s]`` attribute the slice to
    the active resource with the greatest *total* busy time over the whole
    run (a stable proxy for "most likely to be the bottleneck here"); a
    slice during which nothing recorded is ``"idle"``.  Shares therefore
    sum to the makespan exactly — the acceptance invariant the tests and
    the CI trace check both assert.
    """
    label = link_label or default_link_label
    busy = counters.busy_by_resource(link_label=link_label)
    makespan = max(total_time_s, 0.0)

    # resource name per event
    def name_of(kind: str, key: Hashable) -> str:
        if kind in ("block", "stage"):
            return f"block:{key}"
        if kind == "link":
            return label(key)
        return str(key)  # "host" / "dram"

    # boundary sweep: +1 at start, -1 at end, per resource
    boundaries: Dict[float, List[Tuple[str, int]]] = {}
    for kind, key, start, end in counters.events:
        if end <= start:
            continue
        start = min(max(start, 0.0), makespan)
        end = min(end, makespan) if makespan else end
        if end <= start:
            continue
        r = name_of(kind, key)
        boundaries.setdefault(start, []).append((r, 1))
        boundaries.setdefault(end, []).append((r, -1))

    shares: Dict[str, float] = {}
    active: Dict[str, int] = {}
    prev = 0.0
    for t in sorted(boundaries):
        if t > prev:
            if active:
                winner = max(active, key=lambda r: (busy.get(r, 0.0), r))
            else:
                winner = "idle"
            shares[winner] = shares.get(winner, 0.0) + (t - prev)
            prev = t
        for r, delta in boundaries[t]:
            n = active.get(r, 0) + delta
            if n:
                active[r] = n
            else:
                active.pop(r, None)
    if makespan > prev:
        shares["idle"] = shares.get("idle", 0.0) + (makespan - prev)

    shares_cycles = {r: t * clock_hz for r, t in shares.items()}
    utilization = {
        r: (t / makespan if makespan else 0.0) for r, t in busy.items()
    }
    idle = shares_cycles.get("idle", 0.0)
    ranked = sorted(
        ((r, c) for r, c in shares_cycles.items() if r != "idle"),
        key=lambda rc: rc[1], reverse=True,
    )
    binding, binding_cycles = ranked[0] if ranked else ("idle", idle)
    makespan_cycles = makespan * clock_hz
    return MakespanAttribution(
        makespan_cycles=makespan_cycles,
        shares=shares_cycles,
        utilization=utilization,
        binding_resource=binding,
        binding_share=(binding_cycles / makespan_cycles) if makespan_cycles else 0.0,
        idle_cycles=idle,
    )
