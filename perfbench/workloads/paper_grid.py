"""paper_grid: cold compile + estimate of the Fig. 11/12/§7 matrix.

Six benchmarks x four chips at order 7 on the H-tree (24 cells), then the
§7 summary table read back from the compile cache.  Every pass starts
cold: a fresh compile-cache directory, a cleared in-process memo and a new
compiler.  The seed only orders the cells.  An operation is one cell; its
latency is the cell's median over the run's passes.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from harness import Budget, Context, WorkloadResult, percentile
from tracing import Window, traced_passes

IMPORTS = ["repro", "repro.eval.experiments"]

ORDER = 7
N_STEPS = 1024
#: accepted factor between the reproduced §7 headline and the paper's.
SEC7_BAND = 3.0


def _cells():
    from repro import CHIP_CONFIGS, benchmark_list

    return [(spec, cname) for spec in benchmark_list() for cname in CHIP_CONFIGS]


def _sec7_reference(estimates) -> dict:
    """Per-GPU mean speedup / energy saving of PIM-16GB-12nm, computed from
    this pass's fresh estimates the way the §7 table defines them."""
    from repro.gpu import GPU_SPECS, gpu_benchmark_energy, gpu_benchmark_time
    from repro.workloads import benchmark_list, count_benchmark

    out = {}
    for g in GPU_SPECS.values():
        sps, ens = [], []
        for spec in benchmark_list():
            timing = gpu_benchmark_time(spec, count_benchmark(spec, order=ORDER), g, True)
            pim = estimates[(spec.key, "16GB")][1]
            sps.append(timing.total_time_s(N_STEPS) / pim.time_s)
            ens.append(gpu_benchmark_energy(timing, g, N_STEPS).energy_j / pim.energy_j)
        out[g.name] = (float(np.mean(sps)), float(np.mean(ens)))
    return out


class Grid:
    def __init__(self, ctx: Context, res: WorkloadResult):
        self.ctx = ctx
        self.res = res
        self.cells = _cells()
        self.rng = np.random.default_rng(ctx.seed)
        self.passes = 0
        self.modeled = None
        self.cell_ms: dict = {}  # cell index -> latency of every pass

    def _compile_cells(self, order, cache):
        """Compile + estimate every cell cold; ``(latencies, fresh, estimates)``."""
        from repro import CHIP_CONFIGS, WavePimCompiler
        from repro.core import runtime

        compiler = WavePimCompiler(order=ORDER)
        fresh, estimates, lat = {}, {}, []
        for i in order:
            spec, cname = self.cells[i]
            c0 = time.perf_counter()
            ok = False
            try:
                chip = CHIP_CONFIGS[cname].with_interconnect("htree")
                cb = compiler.compile(spec.physics, spec.refinement_level, chip,
                                      spec.flux_kind, cache=cache)
                ests = tuple(runtime.estimate_benchmark(cb, n_steps=N_STEPS, scale_to_12nm=s)
                             for s in (False, True))
                ok = all(math.isfinite(v) and v > 0.0
                         for e in ests for v in (e.time_s, e.energy_j))
                fresh[(spec.key, cname)] = (cb, chip, spec)
                estimates[(spec.key, cname)] = ests
            except Exception:
                traceback.print_exc(file=sys.stderr)
            lat.append(((time.perf_counter() - c0) * 1e3, ok))
        return lat, fresh, estimates

    def run_pass(self, window: Window) -> float:
        """One cold grid + §7 readback; checks run after the timed part."""
        from repro.core.cache import CompileCache, compile_fingerprint, default_cache
        from repro.eval import experiments

        res = self.res
        self.passes += 1
        cache_dir = self.ctx.fresh_dir(f"grid-{self.passes}")
        order = self.rng.permutation(len(self.cells))

        with window:
            t0 = time.perf_counter()
            experiments.clear_compiled_cache()
            lat, fresh, estimates = self._compile_cells(
                order, CompileCache(root=cache_dir, enabled=True))
            # the §7 table, read back through the experiment's own cache path.
            os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
            readback = default_cache(refresh=True)
            experiments.clear_compiled_cache()
            table = None
            try:
                table = experiments.sec7_summary(order=ORDER, n_steps=N_STEPS)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0

        # -- checks, outside the timed region ------------------------------
        cells_ok = all(ok for _, ok in lat)
        res.check(f"pass{self.passes}.estimates_finite_positive", cells_ok)
        sec7_ok = table is not None and cells_ok
        if sec7_ok:
            ref = _sec7_reference(estimates)
            rows = {r["gpu"]: r for r in table.rows}
            sec7_ok = set(rows) == set(ref) and all(
                rows[g]["avg_speedup"] == round(sp, 2)
                and rows[g]["avg_energy_saving"] == round(en, 2)
                for g, (sp, en) in ref.items())
            paper = experiments.PAPER_HEADLINE
            ratios = (np.mean([sp for sp, _ in ref.values()]) / paper["speedup"],
                      np.mean([en for _, en in ref.values()]) / paper["energy"])
            modeled = tuple(abs(r - 1.0) for r in ratios)
            if self.modeled is None:
                self.modeled = modeled
            res.check(f"pass{self.passes}.sec7_modeled_repeats", modeled == self.modeled)
            # a grossly wrong cost model (e.g. lanes priced at zero) lands
            # far outside the paper's headline; the reproduction sits at
            # 0.92x (speedup) and 0.52x (energy saving) of it.
            res.check(f"pass{self.passes}.sec7_within_3x_of_paper",
                      all(1 / SEC7_BAND <= r <= SEC7_BAND for r in ratios),
                      f"ratios={ratios}")
        res.check(f"pass{self.passes}.sec7_table_equals_fresh", sec7_ok)
        st = readback.stats
        res.check(f"pass{self.passes}.sec7_read_from_cache",
                  st.hits == len(self.cells) and st.misses == 0,
                  f"hits={st.hits} misses={st.misses}")
        disk = CompileCache(root=cache_dir, enabled=True)
        same = all(
            disk.get(compile_fingerprint(spec.physics, spec.refinement_level, chip,
                                         spec.flux_kind, ORDER)) == cb
            for cb, chip, spec in fresh.values())
        res.check(f"pass{self.passes}.cache_roundtrip_equal", same and cells_ok)
        shutil.rmtree(cache_dir, ignore_errors=True)

        pass_ok = sec7_ok and same
        for i, (ms, ok) in zip(order, lat):
            res.op(ms, ok and pass_ok)
            self.cell_ms.setdefault(int(i), []).append(ms if ok and pass_ok else math.inf)
        return wall


def run(ctx: Context) -> WorkloadResult:
    res = WorkloadResult()
    grid = Grid(ctx, res)
    if ctx.trace:
        res.per_layer = traced_passes(grid.run_pass, ctx.trace_path)
    else:
        budget = Budget(ctx.seconds)
        while budget.more():
            budget.record(grid.run_pass(Window()))
        # 24 cells of very different cost: pooled over passes, the median
        # falls between the slowest sample of one cell and the fastest of
        # the next, so it follows single outliers.  The per-cell median
        # over passes does not.
        res.latencies_ms = [statistics.median(v) for v in grid.cell_ms.values()]
        # the first pass also fills process-wide memos; the median pass
        # keeps the throughput independent of how many passes fit.
        res.ops_per_s = (len(grid.cells) * res.completed / res.attempted
                         / statistics.median(budget.durations))
        res.named["grid_cells_per_s"] = (res.ops_per_s, "1/s")
        res.named["grid_cell_ms_p50"] = (percentile(res.latencies_ms, 50), "ms")
        res.named["grid_pass_s_p50"] = (statistics.median(budget.durations), "s")
    if grid.modeled is not None:
        res.named["sec7_speedup_err"] = (float(grid.modeled[0]), "ratio")
        res.named["sec7_energy_err"] = (float(grid.modeled[1]), "ratio")
        res.per_layer["modeled.sec7_speedup_err"] = float(grid.modeled[0])
        res.per_layer["modeled.sec7_energy_err"] = float(grid.modeled[1])
    return res
