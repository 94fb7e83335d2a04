"""fault_campaign: the ``fault_sweep`` campaign with the seed as the
``FaultConfig`` seed.

``run_campaign(["acoustic_4", "elastic_central_4"], rates=(1e-6, 1e-3))``
on the H-tree at order 2 for 2 steps: fault-aware block allocation, then
the faulty functional walk with parity recompute.  The 1e-3 runs run out
of healthy spare blocks and degrade by design; they count as completed.
An operation is one campaign.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback

from harness import Budget, Context, WorkloadResult
from tracing import Window, traced_passes

IMPORTS = ["repro", "repro.faults.campaign"]

BENCHMARKS = ["acoustic_4", "elastic_central_4"]
RATES = (1e-6, 1e-3)
COUNTS = ("injected", "corrected", "uncorrected", "remaps")


class Campaigns:
    def __init__(self, ctx: Context, res: WorkloadResult):
        self.ctx = ctx
        self.res = res
        self.digests = None
        self.counts = None
        self.n = 0

    def run_pass(self, window: Window) -> float:
        from repro.faults import campaign

        self.n += 1
        report = None
        with window:
            t0 = time.perf_counter()
            try:
                report = campaign.run_campaign(
                    BENCHMARKS, rates=RATES, interconnects=("htree",),
                    seed=self.ctx.seed, steps=2, order=2)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
        self.res.op(wall * 1e3, report is not None and self._check(report))
        return wall

    def _check(self, report: dict) -> bool:
        from repro.faults.campaign import strict_violations

        res = self.res
        violations = strict_violations(report)
        ok = res.check(f"campaign{self.n}.strict", not violations, "; ".join(violations))
        statuses = sorted({r["status"] for r in report["runs"]})
        ok &= res.check(f"campaign{self.n}.statuses", len(report["runs"]) == 4
                        and set(statuses) <= {"ok", "degraded"}, str(statuses))
        digests = {(r["benchmark"], r["rate"]): r.get("event_digest") for r in report["runs"]}
        if self.digests is None:
            self.digests = digests
            self.counts = {k: sum(r["counts"].get(k, 0) for r in report["runs"])
                           for k in COUNTS}
        ok &= res.check(f"campaign{self.n}.event_digests_repeat", digests == self.digests)
        return ok


def run(ctx: Context) -> WorkloadResult:
    res = WorkloadResult()
    runs = Campaigns(ctx, res)
    if ctx.trace:
        res.per_layer = traced_passes(runs.run_pass, ctx.trace_path)
        if runs.counts is not None:
            for k, v in runs.counts.items():
                res.per_layer[f"faults.{k}"] = v
            injected = runs.counts["injected"]
            res.per_layer["faults.corrected_ratio"] = (
                runs.counts["corrected"] / injected if injected else 0.0)
    else:
        budget = Budget(ctx.seconds)
        while budget.more():
            budget.record(runs.run_pass(Window()))
        res.ops_per_s = res.completed / sum(budget.durations)
        res.named["campaign_s"] = (statistics.median(budget.durations), "s")
    return res
