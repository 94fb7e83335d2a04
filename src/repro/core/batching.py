"""Batching: fitting big problems on small chips (paper §6.1, Figs. 6/7).

*Volume/Integration* batching is trivial — "executing our initial solution
multiple times, since there is no inter-element data dependency" — with
two extra off-chip transactions per additional batch (store outputs, load
inputs) and constants broadcast only for the first batch (Fig. 6).

*Flux* batching is the interesting part (Fig. 7): when only half the
y-slices fit on chip, x- and z-axis flux is purely intra-slice, and the
y-axis (-1) normal pairs slices (0,1),(2,3),... while the (+1) normal
pairs (1,2),(3,4),... — the (+1) pass needs one extra slice streamed in
before the resident window is written back.  :func:`flux_slice_schedule`
generates the paper's 12-step schedule for the 32-slice / 16-resident
example and generalizes it to any batch count; tests verify that every
y-interface is computed exactly once with both operands resident.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatchStep", "flux_slice_schedule", "batch_dram_traffic", "volume_batch_steps"]


@dataclass(frozen=True)
class BatchStep:
    """One step of a batched schedule (matches Fig. 7's numbered steps)."""

    action: str  # "load" | "store" | "flux" | "compute"
    slices: tuple
    axis: str = ""  # "x" | "y" | "z" for flux steps
    normals: tuple = ()
    note: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        core = f"{self.action} slices {self.slices[0]}..{self.slices[-1]}"
        if self.axis:
            core += f" axis {self.axis} normals {self.normals}"
        return core


def _rng(a: int, b: int) -> tuple:
    return tuple(range(a, b))


def flux_slice_schedule(n_slices: int, resident_slices: int) -> list:
    """The Fig. 7 sliding-window Flux schedule.

    Parameters
    ----------
    n_slices:
        Total y-slices in the model (``2^level`` for the paper meshes).
    resident_slices:
        How many slices fit on chip at once.  Must be even so that the
        (-1)-normal pairs never straddle the window edge.

    Returns the ordered step list; with ``resident_slices >= n_slices``
    the schedule degenerates to the unbatched one (single load, all axes,
    single store).
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    if resident_slices < 2:
        raise ValueError("need at least 2 resident slices for y-flux pairs")
    if resident_slices % 2:
        raise ValueError("resident_slices must be even (y-pairs must not straddle)")

    steps: list = []
    if resident_slices >= n_slices:
        steps.append(BatchStep("load", _rng(0, n_slices)))
        steps.append(BatchStep("flux", _rng(0, n_slices), "x", (-1, +1)))
        steps.append(BatchStep("flux", _rng(0, n_slices), "z", (-1, +1)))
        steps.append(BatchStep("flux", _rng(0, n_slices), "y", (-1,)))
        steps.append(BatchStep("flux", _rng(0, n_slices), "y", (+1,)))
        steps.append(BatchStep("store", _rng(0, n_slices)))
        return steps

    w = resident_slices
    lo = 0
    steps.append(BatchStep("load", _rng(0, w), note="initial window"))
    while True:
        hi = min(lo + w, n_slices)  # resident window is [lo, hi)
        window = _rng(lo, hi)
        # intra-slice axes: no inter-slice dependence (Fig. 7 steps 2-3, 8-9)
        steps.append(BatchStep("flux", window, "x", (-1, +1)))
        steps.append(BatchStep("flux", window, "z", (-1, +1)))
        # y-axis, -1 normal: pairs (lo,lo+1),(lo+2,lo+3),... stay in-window
        steps.append(BatchStep("flux", window, "y", (-1,)))
        last_window = hi >= n_slices
        if last_window:
            # +1 normal pairs (lo+1,lo+2).. ; at the model boundary the top
            # slice has no +1 partner inside (or wraps — handled by caller).
            steps.append(BatchStep("flux", _rng(lo + 1, n_slices - 1 + 1), "y", (+1,)))
            steps.append(BatchStep("store", window, note="final window"))
            break
        # stream one slice: store the lowest, load slice `hi` (Fig. 7 step 5)
        steps.append(BatchStep("store", (lo,), note="evict lowest slice"))
        steps.append(BatchStep("load", (hi,), note="prefetch next slice"))
        # +1 normal for pairs (lo+1,lo+2) ... (hi-1,hi) — all resident now
        steps.append(BatchStep("flux", _rng(lo + 1, hi), "y", (+1,)))
        # write back the rest of the old window, load the next one
        steps.append(BatchStep("store", _rng(lo + 1, hi), note="evict window"))
        nxt = min(hi + w, n_slices)
        if hi + 1 < nxt:
            steps.append(BatchStep("load", _rng(hi + 1, nxt), note="next window"))
        lo = hi
    return steps


def covered_y_interfaces(steps, n_slices: int, periodic: bool = False) -> list:
    """Which y-interfaces (s, s+1) a schedule computes (for validation)."""
    covered = []
    for st in steps:
        if st.action != "flux" or st.axis != "y":
            continue
        for normal in st.normals:
            for s in st.slices:
                if normal == -1 and s % 2 == 0 and (s + 1) in st.slices:
                    covered.append((s, s + 1))
                if normal == +1 and s % 2 == 1:
                    if s + 1 < n_slices or periodic:
                        covered.append((s, (s + 1) % n_slices))
    return covered


def volume_batch_steps(n_batches: int) -> list:
    """Fig. 6: the folded Volume/Integration flow.

    Constants broadcast happens only in batch 0 ("for the second batch,
    step 1, i.e. broadcasting constants, can be removed").
    """
    steps = []
    for b in range(n_batches):
        if b == 0:
            steps.append(BatchStep("broadcast", (b,), note="constants (first batch only)"))
        steps.append(BatchStep("load", (b,), note="inputs"))
        steps.append(BatchStep("compute", (b,)))
        steps.append(BatchStep("store", (b,), note="outputs"))
    return steps


@dataclass
class DramTraffic:
    """Per-time-step off-chip traffic induced by batching."""

    bytes_per_step: float
    transactions_per_step: int
    setup_bytes: float = 0.0


def batch_dram_traffic(
    n_elements: int,
    n_nodes: int,
    n_vars: int,
    n_batches: int,
    stages_per_step: int = 5,
    word_bytes: int = 4,
    constants_words_per_node: int = 4,
) -> DramTraffic:
    """Off-chip bytes per time-step caused by folding into batches.

    With one batch everything stays resident: zero steady-state traffic
    ("zero overhead DRAM data transfer since batching is not needed",
    §7.4).  With ``n_batches > 1``, every kernel stage must stream each
    element's state in and out once per stage.
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    state_bytes = n_elements * n_nodes * n_vars * word_bytes
    setup = n_elements * n_nodes * constants_words_per_node * word_bytes
    if n_batches == 1:
        return DramTraffic(bytes_per_step=0.0, transactions_per_step=0, setup_bytes=setup)
    # per stage: load inputs + store outputs for the whole model, plus the
    # auxiliaries that integration needs (2x state in practice).
    per_stage = 2.0 * state_bytes
    return DramTraffic(
        bytes_per_step=stages_per_step * per_stage,
        transactions_per_step=stages_per_step * 2 * n_batches,
        setup_bytes=setup,
    )
