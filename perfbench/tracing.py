"""Out-of-process-boundary tracing: spans recorded around calls into each
layer's public functions, by wrapping them for the traced pass only.

Nothing inside ``src/`` is instrumented.  A span is ``(name, start, end,
parent)``, kept in memory and written out when the run ends.  A layer's
self time is its spans' durations minus the part their child spans cover;
the traced pass's wall time minus its top-level spans is the unattributed
remainder.  The names below are the per-layer metric stems of
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Recorder:
    """In-memory span store for one single-threaded traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent]
        self._child_s: List[float] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._child_s.append(0.0)
        self._stack.append(i)
        return i

    def exit(self, i: int) -> None:
        end = time.perf_counter()
        span = self.spans[i]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self._child_s[span[3]] += end - span[1]

    def parent_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, self._child_s):
            out[name] += (end - start) - child
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                "counts": dict(self.counts),
            }, fh)


class Patches:
    """Install span wrappers; :meth:`restore` puts every original back."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: List[tuple] = []

    def _wrap(self, orig: Callable, name, before=None, after=None) -> Callable:
        rec = self.rec

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            i = rec.enter(name(args, kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec.exit(i)
            if after:
                after(rec, result, args, kwargs, token)
            return result

        return wrapper

    def method(self, cls, attr: str, name, before=None, after=None) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(orig, name, before, after))
        self._undo.append((cls, attr, orig))

    def function(self, orig: Callable, name, before=None, after=None) -> None:
        """Wrap ``orig`` under every module attribute bound to it, so
        re-exports and ``from x import f`` call sites see the wrapper."""
        wrapper = self._wrap(orig, name, before, after)
        attr = orig.__name__
        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get(attr) is orig:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def _arg(args, kwargs, pos: int, key: str, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def install_layer_spans(p: Patches) -> None:
    """Wrap the public entry points of every layer the workloads touch."""
    from repro.core.cache import CompileCache
    from repro.core.compiler import WavePimCompiler
    from repro.core.kernels.acoustic import (
        AcousticFourBlockKernels,
        AcousticOneBlockKernels,
    )
    from repro.core.kernels.elastic import ElasticFourBlockKernels
    from repro.core.mapper import ElementMapper
    from repro.core.runtime import estimate_benchmark
    from repro.eval.experiments import sec7_summary
    from repro.faults.campaign import run_campaign
    from repro.faults.model import FaultModel
    from repro.pim.chip import PimChip
    from repro.pim.executor import ChipExecutor
    from repro.pim.multichip import ShardedExecutor

    def count_emitted(rec, result, args, kwargs, token):
        # nested kernel calls (time_step -> rk_stage -> volume) return
        # sub-streams of the outer one: count the outermost call only.
        if rec.parent_name() != "core.kernels.emit":
            rec.count("core.kernels.instructions_emitted", len(result))

    for cls in (AcousticOneBlockKernels, AcousticFourBlockKernels,
                ElasticFourBlockKernels):
        for attr in ("time_step", "rk_stage", "volume", "flux", "integration",
                     "setup", "load_state"):
            if attr in cls.__dict__:
                p.method(cls, attr, "core.kernels.emit", after=count_emitted)

    p.method(WavePimCompiler, "compile", "core.compiler.compile")
    p.method(ElementMapper, "__init__", "core.mapper.build")
    p.function(estimate_benchmark, "core.runtime.estimate")
    p.function(sec7_summary, "eval.sec7_summary")

    def cache_bytes(args, kwargs):
        st = args[0].stats
        return st.bytes_read + st.bytes_written

    def cache_get(rec, result, args, kwargs, before):
        rec.count("core.cache.hits" if result is not None else "core.cache.misses")
        rec.count("core.cache.bytes", cache_bytes(args, kwargs) - before)

    def cache_put(rec, result, args, kwargs, before):
        rec.count("core.cache.bytes", cache_bytes(args, kwargs) - before)

    p.method(CompileCache, "get", "core.cache.get", before=cache_bytes, after=cache_get)
    p.method(CompileCache, "put", "core.cache.put", before=cache_bytes, after=cache_put)

    p.method(ChipExecutor, "lower", "pim.plan.lower",
             after=lambda rec, plan, *_: rec.count(
                 "pim.plan.instructions_lowered", plan.n_instructions))

    def run_kind(args, kwargs):
        ex = args[0]
        if ex.faults is not None and ex.faults.config.enabled:
            return "pim.executor.faulty"
        if _arg(args, kwargs, 2, "functional", True):
            return "pim.executor.functional"
        return "pim.executor.analytic"

    def count_replayed(rec, report, args, kwargs, token):
        rec.count(f"{run_kind(args, kwargs)}.instructions", report.n_instructions)

    p.method(ChipExecutor, "run", run_kind, after=count_replayed)
    p.method(PimChip, "transfer_path", "pim.chip.transfer_path",
             after=lambda rec, *_: rec.count("pim.chip.transfer_path_calls"))
    p.method(ShardedExecutor, "run_steps", "pim.multichip.run_steps")

    p.function(run_campaign, "faults.campaign")
    p.method(FaultModel, "bad_blocks", "faults.model.bad_blocks",
             after=lambda rec, result, args, kwargs, token: rec.count(
                 "faults.model.blocks_drawn", _arg(args, kwargs, 1, "n_blocks", 0)))


#: per-layer self-time metrics and the span each one reads.
SELF_TIME_METRICS = {
    "core.kernels.emit_s": "core.kernels.emit",
    "core.compiler.self_s": "core.compiler.compile",
    "core.mapper.build_s": "core.mapper.build",
    "core.runtime.estimate_s": "core.runtime.estimate",
    "core.cache.get_s": "core.cache.get",
    "core.cache.put_s": "core.cache.put",
    "pim.plan.lower_s": "pim.plan.lower",
    "pim.chip.transfer_path_s": "pim.chip.transfer_path",
    "pim.executor.analytic_s": "pim.executor.analytic",
    "pim.executor.functional_s": "pim.executor.functional",
    "pim.executor.faulty_s": "pim.executor.faulty",
    "pim.multichip.run_steps_s": "pim.multichip.run_steps",
    "faults.campaign.self_s": "faults.campaign",
    "faults.model.bad_blocks_s": "faults.model.bad_blocks",
    "eval.sec7_summary.self_s": "eval.sec7_summary",
}

COUNT_METRICS = {
    "core.kernels.instructions_emitted": "core.kernels.instructions_emitted",
    "pim.plan.instructions_lowered": "pim.plan.instructions_lowered",
    "pim.executor.instructions_replayed": "pim.executor.analytic.instructions",
    "pim.chip.transfer_path_calls": "pim.chip.transfer_path_calls",
    "core.cache.hits": "core.cache.hits",
    "core.cache.misses": "core.cache.misses",
    "core.cache.bytes": "core.cache.bytes",
    "faults.model.blocks_drawn": "faults.model.blocks_drawn",
}


class Window:
    """Context manager around the timed part of one pass: wraps the layer
    entry points on entry and restores them on exit when tracing, does
    nothing otherwise.  Installing the wrappers happens before the pass
    starts its clock."""

    def __init__(self, rec: Optional[Recorder] = None) -> None:
        self.rec = rec
        self._patches: Optional[Patches] = None

    def __enter__(self) -> "Window":
        if self.rec is not None:
            self._patches = Patches(self.rec)
            install_layer_spans(self._patches)
        return self

    def __exit__(self, *exc) -> None:
        if self._patches is not None:
            self._patches.restore()


def _span_cost_s(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call, measured here."""
    def plain():
        return None

    wrapped = Patches(Recorder())._wrap(plain, "calibration")
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def traced_passes(run_pass: Callable[[Window], float],
                  trace_path: Path) -> Dict[str, float]:
    """Run the workload's fixed-size pass untraced, traced, untraced.

    Returns the per-layer metrics of the traced pass: self times, counts,
    the unattributed remainder, ``obs.trace_overhead`` (traced wall over
    the mean of the two untraced walls around it, which cancels the warm-up
    drift of the first pass but not host speed drift between passes) and
    ``obs.span_cost_s`` (spans recorded x the measured cost of one wrapped
    call: the instrumentation's own share of the traced wall).  ``run_pass(window)`` times its work inside
    ``with window:`` and returns those wall seconds; checks go outside.
    """
    rec = Recorder()
    untraced = [run_pass(Window())]
    traced_wall = run_pass(Window(rec))
    untraced.append(run_pass(Window()))
    rec.dump(trace_path)

    self_s = rec.self_seconds()
    out = {m: self_s.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
    out.update({m: float(rec.counts.get(c, 0.0)) for m, c in COUNT_METRICS.items()})
    emitted = out["core.kernels.instructions_emitted"]
    out["core.compiler.kept_ratio"] = (
        out["pim.plan.instructions_lowered"] / emitted if emitted else 0.0)
    out["unattributed_s"] = traced_wall - rec.top_level_seconds()
    out["obs.traced_wall_s"] = traced_wall
    out["obs.trace_overhead"] = traced_wall / (sum(untraced) / len(untraced))
    out["obs.span_cost_s"] = len(rec.spans) * _span_cost_s()
    return out
