"""Fault-injection campaigns: sweep fault rates x benchmarks x interconnects.

A campaign runs each benchmark as a small *functional proxy* — the real
acoustic/elastic PIM kernels on a coarse mesh (default level 1, order 2) so
every instruction executes functionally — once fault-free and once per
fault rate, and reports:

* injected / detected / corrected / uncorrected counts and the seeded
  event-log digest (two runs with the same seed must match exactly);
* the solution error against the fault-free baseline state;
* the time/energy overhead of the mitigation machinery.

``strict_violations`` is the CI gate: at the lowest swept rate every
benchmark must finish with ``uncorrected == 0`` and a solution within
fault-free tolerance.  Runs where the spare-block remap runs out of
healthy blocks are reported as ``status: "degraded"`` instead of
crashing — graceful degradation is the contract.

Exposed on the CLI as ``python -m repro faults``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.faults.model import FaultConfig, FaultModel
from repro.obs import get_logger, get_tracer

__all__ = [
    "REPORT_KIND",
    "REPORT_SCHEMA",
    "DEFAULT_RATES",
    "STRICT_REL_TOL",
    "run_campaign",
    "strict_violations",
]

REPORT_KIND = "repro-faults"
REPORT_SCHEMA = 1

#: default sweep: one "production" rate where mitigation must win, one
#: stress rate that exercises degradation.
DEFAULT_RATES = (1e-6, 1e-3)

#: solution tolerance vs. the fault-free baseline at the lowest swept rate.
#: Corrected faults recompute the exact result, so any drift means an
#: uncorrected escape; float32 noise alone stays far below this.
STRICT_REL_TOL = 1e-6

log = get_logger("faults")


class _Proxy:
    """One functional benchmark proxy: kernels + initial state + program."""

    def __init__(self, spec, interconnect: str, level: int, order: int,
                 chip_name: str, steps: int, fault_model=None):
        from repro.core.kernels.acoustic import AcousticOneBlockKernels
        from repro.core.kernels.elastic import ElasticFourBlockKernels
        from repro.core.mapper import ElementMapper
        from repro.dg import (
            AcousticMaterial,
            ElasticMaterial,
            HexMesh,
            ReferenceElement,
            cfl_timestep,
        )
        from repro.pim.chip import PimChip
        from repro.pim.params import CHIP_CONFIGS

        cfg = CHIP_CONFIGS[chip_name].with_interconnect(interconnect)
        mesh = HexMesh.from_refinement_level(level)
        elem = ReferenceElement(order)
        rng = np.random.default_rng(1234)
        self.chip = PimChip(cfg)
        if spec.physics == "acoustic":
            mat = AcousticMaterial(
                kappa=rng.uniform(1.0, 2.0, mesh.n_elements),
                rho=rng.uniform(0.5, 1.5, mesh.n_elements),
            )
            mapper = ElementMapper(
                mesh.m, cfg, 1, fault_model=fault_model, chip_model=self.chip
            )
            self.kern = AcousticOneBlockKernels(
                mesh, elem, mat, mapper, flux_kind=spec.flux_kind
            )
        else:
            mat = ElasticMaterial(
                lam=rng.uniform(1.0, 2.0, mesh.n_elements),
                mu=rng.uniform(0.5, 1.5, mesh.n_elements),
                rho=rng.uniform(0.8, 1.2, mesh.n_elements),
            )
            mapper = ElementMapper(
                mesh.m, cfg, 4, fault_model=fault_model, chip_model=self.chip
            )
            self.kern = ElasticFourBlockKernels(
                mesh, elem, mat, mapper, flux_kind=spec.flux_kind
            )
        self.state = (
            (0.1 * rng.standard_normal((self.kern.n_vars, mesh.n_elements, elem.n_nodes)))
            .astype(np.float32)
            .astype(np.float64)
        )
        dt = cfl_timestep(mesh.h, mat.max_speed, order, cfl=0.3)
        self.program = self.kern.setup() + self.kern.load_state(
            self.state.astype(np.float32)
        )
        for _ in range(steps):
            self.program += self.kern.time_step(dt)

    def execute(self, fault_model=None):
        from repro.pim.executor import ChipExecutor

        ex = ChipExecutor(self.chip, faults=fault_model)
        report = ex.run(self.program, functional=True)
        return report, self.kern.read_state(self.chip)


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    denom = float(np.max(np.abs(ref)))
    if denom == 0.0:
        return float(np.max(np.abs(got - ref)))
    return float(np.max(np.abs(got - ref)) / denom)


def run_campaign(
    benchmarks: Sequence[str],
    rates: Iterable[float] = DEFAULT_RATES,
    interconnects: Sequence[str] = ("htree",),
    seed: int = 0,
    steps: int = 2,
    level: int = 1,
    order: int = 2,
    chip: str = "512MB",
    protect: bool = True,
    switch_fail_rate: float = 0.0,
) -> dict:
    """Run the sweep and return the JSON-ready campaign report."""
    from repro.workloads.benchmarks import BENCHMARKS

    rates = sorted(float(r) for r in rates)
    runs: List[dict] = []
    for key in benchmarks:
        spec = BENCHMARKS[key]
        for ic in interconnects:
            base_proxy = _Proxy(spec, ic, level, order, chip, steps)
            base_report, base_state = base_proxy.execute()
            for rate in rates:
                entry = {
                    "benchmark": key,
                    "interconnect": ic,
                    "rate": rate,
                    "seed": seed,
                    "baseline_time_s": base_report.total_time_s,
                    "baseline_energy_j": base_report.dynamic_energy_j,
                }
                fm = FaultModel(
                    FaultConfig.at_rate(
                        rate, seed=seed, protect=protect,
                        switch_fail_rate=switch_fail_rate,
                    )
                )
                with get_tracer().span(
                    "faults/campaign-run", benchmark=key, interconnect=ic, rate=rate
                ) as sp:
                    try:
                        proxy = _Proxy(
                            spec, ic, level, order, chip, steps, fault_model=fm
                        )
                    except ValueError as exc:
                        # spare-block remap ran out of healthy blocks:
                        # graceful degradation, reported not raised.
                        log.warning("%s @ %s rate=%g degraded: %s", key, ic, rate, exc)
                        entry.update(status="degraded", error=str(exc),
                                     **{"counts": dict(fm.counts)})
                        sp.set(status="degraded")
                        runs.append(entry)
                        continue
                    report, state = proxy.execute(fault_model=fm)
                    summary = fm.summary()
                    entry.update(
                        status="ok",
                        counts={k: fm.counts[k] for k in fm.counts},
                        events=summary["events"],
                        event_digest=summary["event_digest"],
                        retries=report.retries,
                        solution_rel_err=_rel_err(state, base_state),
                        time_s=report.total_time_s,
                        energy_j=report.dynamic_energy_j,
                        time_overhead=(
                            report.total_time_s / base_report.total_time_s
                            if base_report.total_time_s else 1.0
                        ),
                        energy_overhead=(
                            report.dynamic_energy_j / base_report.dynamic_energy_j
                            if base_report.dynamic_energy_j else 1.0
                        ),
                    )
                    sp.set(status="ok", uncorrected=fm.counts["uncorrected"])
                log.info(
                    "%s @ %s rate=%g: injected=%d corrected=%d uncorrected=%d "
                    "err=%.2e overhead=%.3fx",
                    key, ic, rate, fm.counts["injected"], fm.counts["corrected"],
                    fm.counts["uncorrected"], entry.get("solution_rel_err", -1.0),
                    entry.get("time_overhead", 1.0),
                )
                runs.append(entry)
    return {
        "kind": REPORT_KIND,
        "schema": REPORT_SCHEMA,
        "config": {
            "benchmarks": list(benchmarks),
            "rates": rates,
            "interconnects": list(interconnects),
            "seed": seed,
            "steps": steps,
            "level": level,
            "order": order,
            "chip": chip,
            "protect": protect,
            "switch_fail_rate": switch_fail_rate,
        },
        "runs": runs,
    }


def strict_violations(report: dict, tol: Optional[float] = None) -> List[str]:
    """The ``--strict`` gate: failures at the lowest swept rate.

    At the lowest rate the mitigation machinery must fully win: the run
    completes (no degradation), ``uncorrected == 0``, and the solution is
    bit-close to the fault-free baseline.  Higher rates are diagnostic.
    """
    tol = STRICT_REL_TOL if tol is None else tol
    rates = report["config"]["rates"]
    if not rates:
        return []
    low = min(rates)
    out: List[str] = []
    for run in report["runs"]:
        if run["rate"] != low:
            continue
        who = f"{run['benchmark']}@{run['interconnect']} rate={low:g}"
        if run.get("status") != "ok":
            out.append(f"{who}: degraded — {run.get('error', 'unknown')}")
            continue
        unc = run["counts"]["uncorrected"]
        if unc:
            out.append(f"{who}: {unc} uncorrected faults")
        if run["solution_rel_err"] > tol:
            out.append(
                f"{who}: solution error {run['solution_rel_err']:.3e} > {tol:g}"
            )
    return out
