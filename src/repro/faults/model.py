"""Seeded, deterministic fault model for the Wave-PIM simulator.

Fault taxonomy (DESIGN.md §11):

========== ============================ ==============================
kind       physical cause               model hook
========== ============================ ==============================
stuck      stuck-at-0/1 memristor cell  forced bit on every write to
                                        the cell's column
flip       transient bit flip during a  one flipped bit in the freshly
           bit-serial NOR sequence      written destination column
wearout    endurance exhaustion         per-block NOR-cycle budget
switch     permanent switch failure     every TRANSFER routed through
                                        it fails
drop       lost TRANSFER payload        retried with backoff
corrupt    corrupted TRANSFER payload   detected by checksum (protect)
                                        or silently delivered
========== ============================ ==============================

Determinism: every random decision comes from a
:class:`numpy.random.Generator` seeded with ``(seed, stream, key)``.
Per-block draws (stuck cells, switch failures) use keyed substreams and
are order-independent; per-instruction draws (flips, transfer outcomes)
use one sequential stream each, so replaying the same instruction stream
replays the same faults bit-for-bit.

Recovery counting convention: ``injected`` counts fault occurrences,
``detected``/``corrected`` count occurrences the mitigation layer caught
and repaired, and ``uncorrected`` counts *unrecovered outcomes* — a
transfer that was never delivered (or delivered corrupted), or a write
that a permanent stuck-at cell keeps corrupting.  ``--strict`` campaigns
gate on ``uncorrected == 0``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.obs import get_metrics

__all__ = ["FaultConfig", "FaultEvent", "FaultModel", "TransferPlan"]

#: substream discriminators (mixed into the RNG seed sequence).
_STREAM_STUCK = 0xA1
_STREAM_FLIP = 0xB2
_STREAM_TRANSFER = 0xC3
_STREAM_SWITCH = 0xD4

#: counters every model tracks (mirrored to the ``faults.*`` metrics).
COUNTER_KEYS = (
    "injected",
    "detected",
    "corrected",
    "uncorrected",
    "retries",
    "remaps",
    "wearouts",
)


@dataclass(frozen=True)
class FaultConfig:
    """Rates and mitigation knobs of one fault scenario.

    All rates default to zero — an attached model with the default config
    injects nothing and adds nothing to the timing accounting (proven by
    the serial==faultless tests).
    """

    seed: int = 0
    # -- device faults ------------------------------------------------- #
    #: probability that any given memristor cell is permanently stuck.
    stuck_cell_rate: float = 0.0
    #: transient flip probability per NOR cycle per active row.
    flip_rate: float = 0.0
    #: NOR cycles a block endures before it is flagged worn out.
    wearout_nor_cycles: float = math.inf
    # -- interconnect faults ------------------------------------------- #
    #: probability that any given tile switch has permanently failed.
    switch_fail_rate: float = 0.0
    #: per-TRANSFER-attempt probability of a lost payload.
    transfer_drop_rate: float = 0.0
    #: per-TRANSFER-attempt probability of a corrupted payload.
    transfer_corrupt_rate: float = 0.0
    # -- mitigation ----------------------------------------------------- #
    #: parity/checksum protection: detect-and-recompute for flips and
    #: corrupted transfers, parity-row upkeep charged per compute op.
    protect: bool = True
    #: TRANSFER retry attempts after the first failure.
    max_retries: int = 3
    #: base retry backoff (doubles per attempt), charged as wire time.
    retry_backoff_s: float = 100e-9
    #: stuck cells at which a block is excluded by the spare-block remap.
    remap_threshold: int = 1
    #: spare rows a protected block must reserve for parity (FT001).
    parity_rows: int = 1

    @classmethod
    def at_rate(
        cls,
        rate: float,
        seed: int = 0,
        protect: bool = True,
        switch_fail_rate: float = 0.0,
    ) -> "FaultConfig":
        """One-knob scenario: cell, flip and transfer faults all at ``rate``."""
        return cls(
            seed=seed,
            stuck_cell_rate=rate,
            flip_rate=rate,
            transfer_drop_rate=rate,
            transfer_corrupt_rate=rate,
            switch_fail_rate=switch_fail_rate,
            protect=protect,
        )

    @property
    def any_transfer_faults(self) -> bool:
        return (
            self.transfer_drop_rate > 0.0
            or self.transfer_corrupt_rate > 0.0
            or self.switch_fail_rate > 0.0
        )

    @property
    def enabled(self) -> bool:
        """True when the config can inject anything at all."""
        return (
            self.stuck_cell_rate > 0.0
            or self.flip_rate > 0.0
            or self.any_transfer_faults
            or math.isfinite(self.wearout_nor_cycles)
        )

    def as_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(self.wearout_nor_cycles):
            d["wearout_nor_cycles"] = None
        return d


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or recovery action) in the deterministic log."""

    kind: str  # stuck | flip | drop | corrupt | switch | wearout | remap
    where: str  # "block:12", "switch:3/7", "transfer:5->9"
    corrected: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TransferPlan:
    """Outcome of one TRANSFER under the fault model.

    ``attempts`` send attempts were made (``failed`` of them failed);
    ``delivered`` says whether the payload arrived, ``corrupt_payload``
    whether it arrived with a flipped bit (undetected corruption —
    ``protect=False`` only).  ``backoff_s`` is the total exponential
    backoff to charge on top of the repeated wire time.
    """

    attempts: int
    failed: int
    delivered: bool
    corrupt_payload: bool
    backoff_s: float


class FaultModel:
    """Deterministic fault injection + recovery bookkeeping.

    One model instance represents one fault scenario applied to one chip:
    share it between the :class:`~repro.core.mapper.ElementMapper` (which
    excludes its bad blocks) and the
    :class:`~repro.pim.executor.ChipExecutor` (which injects per-op
    faults and prices the recovery work).
    """

    def __init__(self, config: Optional[FaultConfig] = None, max_events: int = 10_000):
        self.config = config or FaultConfig()
        self.events: List[FaultEvent] = []
        self.counts: Dict[str, int] = {k: 0 for k in COUNTER_KEYS}
        self._max_events = max_events
        self.dropped_events = 0
        self._flip_rng = np.random.default_rng([self.config.seed, _STREAM_FLIP])
        self._transfer_rng = np.random.default_rng([self.config.seed, _STREAM_TRANSFER])
        #: block -> {column -> (rows, bits, values)} of stuck cells.
        self._stuck: Dict[int, Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        self._wear: Dict[int, float] = {}
        self._worn: Set[int] = set()
        self._switch_fail: Dict[int, FrozenSet[int]] = {}

    # -- bookkeeping ---------------------------------------------------- #

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n
        get_metrics().inc(f"faults.{key}", n)

    def record(self, kind: str, where: str, corrected: bool, detail: str = "") -> None:
        if len(self.events) < self._max_events:
            self.events.append(FaultEvent(kind, where, corrected, detail))
        else:
            self.dropped_events += 1

    def event_digest(self) -> str:
        """Stable hash of the full event log (reproducibility checks)."""
        h = hashlib.sha256()
        for e in self.events:
            h.update(f"{e.kind}|{e.where}|{e.corrected}|{e.detail}\n".encode())
        h.update(str(self.dropped_events).encode())
        return h.hexdigest()

    def summary(self) -> dict:
        return {
            **dict(self.counts),
            "events": len(self.events) + self.dropped_events,
            "event_digest": self.event_digest(),
        }

    # -- device faults --------------------------------------------------- #

    def _stuck_count(
        self, block: int, rows: int, row_words: int
    ) -> Tuple[np.random.Generator, int, int]:
        """Open ``block``'s keyed stuck-cell substream and take its first
        draw, the stuck-cell count: ``(rng, n_cells, count)``.

        The cell positions and values are the draws that follow on the
        same ``rng``, so counting alone never touches them.
        """
        n_cells = rows * row_words * 32
        rng = np.random.default_rng([self.config.seed, _STREAM_STUCK, block])
        return rng, n_cells, int(rng.binomial(n_cells, min(self.config.stuck_cell_rate, 1.0)))

    def stuck_cells(
        self, block: int, rows: int = 1024, row_words: int = 32
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-column stuck cells of ``block``: ``col -> (rows, bits, values)``.

        Drawn lazily from the block's keyed substream, so the result is
        independent of the order blocks are first touched in.
        """
        got = self._stuck.get(block)
        if got is None:
            got = {}
            if self.config.stuck_cell_rate > 0.0:
                rng, n_cells, n = self._stuck_count(block, rows, row_words)
                if n:
                    cells = rng.choice(n_cells, size=n, replace=False)
                    vals = rng.integers(0, 2, size=n, dtype=np.uint32)
                    cols = (cells // 32) % row_words
                    for c in np.unique(cols):
                        m = cols == c
                        got[int(c)] = (
                            (cells[m] // (row_words * 32)).astype(np.int64),
                            (cells[m] % 32).astype(np.uint32),
                            vals[m],
                        )
            self._stuck[block] = got
        return got

    def n_stuck(self, block: int, rows: int = 1024, row_words: int = 32) -> int:
        """Stuck-cell count of ``block`` without drawing the cells.

        A block whose cells were already drawn reuses them; otherwise only
        the first draw of its keyed substream is taken, which is the same
        count :meth:`stuck_cells` would draw.
        """
        got = self._stuck.get(block)
        if got is not None:
            return sum(len(v[0]) for v in got.values())
        return self._stuck_count(block, rows, row_words)[2]

    def bad_blocks(self, n_blocks: int, rows: int = 1024, row_words: int = 32) -> Set[int]:
        """Blocks the spare-block remap must avoid: too many stuck cells,
        or worn out by a previous run on this model.

        Reads only the per-block counts (:meth:`n_stuck`); cell positions
        are drawn later, and only for the blocks a program writes.
        """
        thr = self.config.remap_threshold
        bad = set(self._worn)
        if self.config.stuck_cell_rate > 0.0:
            for b in range(n_blocks):
                if self.n_stuck(b, rows, row_words) >= thr:
                    bad.add(b)
        return bad

    def record_remaps(self, n: int, detail: str = "") -> None:
        if n:
            self.count("remaps", n)
            self.record("remap", "mapper", corrected=True, detail=detail)

    def record_nor(self, block: int, cycles: int) -> None:
        """Accumulate executed NOR cycles; flag wear-out past the budget."""
        budget = self.config.wearout_nor_cycles
        if not math.isfinite(budget):
            return
        w = self._wear.get(block, 0.0) + cycles
        self._wear[block] = w
        if w > budget and block not in self._worn:
            self._worn.add(block)
            self.count("wearouts")
            self.record(
                "wearout", f"block:{block}", corrected=False,
                detail=f"{w:.0f} NOR cycles > budget {budget:.0f}",
            )

    def wear(self, block: int) -> float:
        return self._wear.get(block, 0.0)

    @property
    def worn_blocks(self) -> Set[int]:
        return set(self._worn)

    def draw_flip(self, nor_cycles: int, n_rows: int) -> Optional[Tuple[int, int]]:
        """At most one transient flip per instruction.

        Returns ``(row offset within the selection, bit)`` or None.  The
        per-instruction event probability is ``1 - (1-r)^(cycles*rows)``
        evaluated as ``-expm1(...)`` for small-rate stability.
        """
        rate = self.config.flip_rate
        if rate <= 0.0 or nor_cycles <= 0 or n_rows <= 0:
            return None
        p = -math.expm1(math.log1p(-min(rate, 0.5)) * nor_cycles * n_rows)
        if self._flip_rng.random() >= p:
            return None
        off = int(self._flip_rng.integers(0, n_rows))
        bit = int(self._flip_rng.integers(0, 32))
        return off, bit

    def draw_flips(self, ps: np.ndarray, n_rows: np.ndarray) -> Dict[int, Tuple[int, int]]:
        """Batch :meth:`draw_flip` over a whole instruction stream.

        ``ps[k]`` is the per-instruction hit probability (the exact float
        :meth:`draw_flip` would compute) and ``n_rows[k]`` the row count of
        the ``k``-th flip-eligible instruction, in stream order.  Returns
        ``{k: (row offset, bit)}`` for the instructions that drew a flip.

        Bit-identical to ``k`` sequential scalar draws: PCG64 vector draws
        consume the identical stream as repeated scalar calls, so misses
        are drawn in one chunked ``random(m)``; on a hit the generator
        state is rewound to the chunk start, replayed up to the hit (so the
        two ``integers`` draws see the exact post-hit state), and drawing
        resumes after it.
        """
        out: Dict[int, Tuple[int, int]] = {}
        n = len(ps)
        if n == 0 or self.config.flip_rate <= 0.0:
            return out
        rng = self._flip_rng
        i = 0
        while i < n:
            state = rng.bit_generator.state
            u = rng.random(n - i)
            hits = np.flatnonzero(u < ps[i:])
            if hits.size == 0:
                break
            j = int(hits[0])
            # rewind and re-consume up to (and including) the hit draw, so
            # the integers() calls below read the same stream position the
            # scalar path would.
            rng.bit_generator.state = state
            rng.random(j + 1)
            k = i + j
            off = int(rng.integers(0, int(n_rows[k])))
            bit = int(rng.integers(0, 32))
            out[k] = (off, bit)
            i = k + 1
        return out

    # -- interconnect faults --------------------------------------------- #

    def failed_switches(self, tile: int, n_switches: int) -> FrozenSet[int]:
        """Permanently failed switch ids of ``tile`` (keyed substream)."""
        got = self._switch_fail.get(tile)
        if got is None:
            rate = self.config.switch_fail_rate
            if rate <= 0.0:
                got = frozenset()
            else:
                rng = np.random.default_rng([self.config.seed, _STREAM_SWITCH, tile])
                mask = rng.random(n_switches) < rate
                got = frozenset(int(i) for i in np.flatnonzero(mask))
            self._switch_fail[tile] = got
        return got

    def transfer_plan(
        self,
        keys: List[Tuple[int, int]],
        n_switches_of: Callable[[int], int],
        where: str = "",
    ) -> Optional[TransferPlan]:
        """Decide the fate of one TRANSFER occupying switch ``keys``.

        Returns None when no interconnect faults are configured (the
        executor then takes the exact fault-free accounting path).
        """
        cfg = self.config
        if not cfg.any_transfer_faults:
            return None
        budget = 1 + (cfg.max_retries if cfg.protect else 0)

        dead = None
        for tile, sw in keys:
            if sw in self.failed_switches(tile, n_switches_of(tile)):
                dead = (tile, sw)
                break
        if dead is not None:
            # no alternate route exists on a tree/bus: every attempt fails.
            self.count("injected", budget)
            self.count("detected", budget)  # timeouts are always detected
            self.count("retries", budget - 1)
            self.count("uncorrected")
            self.record(
                "switch", f"switch:{dead[0]}/{dead[1]}", corrected=False,
                detail=f"{where}: undeliverable, {budget} attempts",
            )
            backoff = cfg.retry_backoff_s * ((1 << (budget - 1)) - 1)
            return TransferPlan(
                attempts=budget, failed=budget, delivered=False,
                corrupt_payload=False, backoff_s=backoff,
            )

        p_drop = cfg.transfer_drop_rate
        p_corrupt = cfg.transfer_corrupt_rate
        failed = 0
        kinds: List[str] = []
        while failed < budget:
            u = float(self._transfer_rng.random())
            if u < p_drop:
                kinds.append("drop")
                failed += 1
                continue
            if u < p_drop + p_corrupt:
                if cfg.protect:
                    # checksum mismatch: detected, retransmit.
                    kinds.append("corrupt")
                    failed += 1
                    continue
                # undetected corruption: delivered with a flipped bit.
                self.count("injected")
                self.count("uncorrected")
                self.record("corrupt", where or "transfer", corrected=False,
                            detail="undetected (protection off)")
                return TransferPlan(
                    attempts=failed + 1, failed=failed, delivered=True,
                    corrupt_payload=True, backoff_s=0.0,
                )
            break
        if not failed:
            return None
        delivered = failed < budget
        attempts = failed + (1 if delivered else 0)
        self.count("injected", failed)
        self.count("detected", failed)
        self.count("retries", min(failed, budget - 1))
        if delivered:
            self.count("corrected", failed)
        else:
            self.count("uncorrected")
        for k in kinds:
            self.record(k, where or "transfer", corrected=delivered)
        backoff = cfg.retry_backoff_s * ((1 << failed) - 1)
        return TransferPlan(
            attempts=attempts, failed=failed, delivered=delivered,
            corrupt_payload=False, backoff_s=backoff,
        )

    def draw_corrupt_bit(self, n_rows: int, words: int) -> Tuple[int, int, int]:
        """Victim (row offset, word offset, bit) of a corrupted payload."""
        return (
            int(self._transfer_rng.integers(0, max(n_rows, 1))),
            int(self._transfer_rng.integers(0, max(words, 1))),
            int(self._transfer_rng.integers(0, 32)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.counts
        return (
            f"FaultModel(seed={self.config.seed}, injected={c['injected']}, "
            f"corrected={c['corrected']}, uncorrected={c['uncorrected']})"
        )
