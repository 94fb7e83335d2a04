"""step_replay: warm time steps replayed from plans lowered once.

Three programs share the timed loop, each advancing one analytic step per
round: acoustic level-2 order-2 one block per element on the 512MB chip,
elastic-Riemann level-1 order-2 four blocks per element, and the 4-shard
``shard_step_workload`` replayed sequentially.  A shorter loop of
functional steps of the two single-chip programs follows.  Emission and
lowering happen only in set-up.  Material fields and initial states are
drawn from the seed.  An operation is one round (one step of each program).
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback

import numpy as np

from harness import SETUP_REPEATS, Budget, Context, WorkloadResult, percentile
from tracing import Window, traced_passes

IMPORTS = ["repro", "repro.pim.multichip", "repro.workloads.sharding"]

#: share of ``--seconds`` given to the analytic loop; functional steps get
#: the rest (at least one round).
ANALYTIC_SHARE = 0.75
#: size of the fixed traced pass.
TRACE_ROUNDS = 20
TRACE_FUNCTIONAL_ROUNDS = 1
#: float32 PIM vs float64 dG reference, as in the repo's
#: functional-equivalence tests.
TOL = 5e-6


class Program:
    """One single-chip program: kernels, booted chip, step stream and plan."""

    def __init__(self, name, mesh, element, material, operator, kern_cls,
                 g, n_vars, rng):
        from repro import CHIP_CONFIGS, ChipExecutor, ElementMapper, PimChip, cfl_timestep

        self.name = name
        self.chip = PimChip(CHIP_CONFIGS["512MB"])
        mapper = ElementMapper(mesh.m, self.chip.config, g)
        self.kern = kern_cls(mesh, element, material, mapper, "riemann")
        self.operator = operator
        self.dt = cfl_timestep(mesh.h, material.max_speed, element.order, cfl=0.3)
        self.state0 = (0.1 * rng.standard_normal((n_vars, mesh.n_elements, element.n_nodes))
                       ).astype(np.float32).astype(np.float64)
        self.ex = ChipExecutor(self.chip)
        self.ex.run(self.kern.setup() + self.kern.load_state(self.state0.astype(np.float32)),
                    functional=True)
        self.step = self.kern.time_step(self.dt)
        self.plan = self.ex.lower(self.step)
        self.functional_steps = 0

    def reference_error(self) -> float:
        """Relative error of the chip state vs the dG reference advanced the
        same number of LSRK45 steps."""
        from repro import LSRK45

        ref = self.state0.copy()
        stepper = LSRK45(lambda s: self.operator.rhs(s))
        aux = np.zeros_like(ref)
        for _ in range(self.functional_steps):
            stepper.step(ref, 0.0, self.dt, aux)
        got = self.kern.read_state(self.chip)
        return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _acoustic(rng) -> Program:
    from repro import AcousticMaterial, AcousticOperator, HexMesh, ReferenceElement
    from repro.core.kernels.acoustic import AcousticOneBlockKernels

    mesh, elem = HexMesh.from_refinement_level(2), ReferenceElement(2)
    mat = AcousticMaterial(kappa=rng.uniform(1.0, 2.0, mesh.n_elements),
                           rho=rng.uniform(0.5, 1.5, mesh.n_elements))
    op = AcousticOperator(mesh, mat, elem, flux="riemann")
    return Program("acoustic_l2_g1", mesh, elem, mat, op, AcousticOneBlockKernels, 1, 4, rng)


def _elastic(rng) -> Program:
    from repro import ElasticMaterial, ElasticOperator, HexMesh, ReferenceElement
    from repro.core.kernels.elastic import ElasticFourBlockKernels

    mesh, elem = HexMesh.from_refinement_level(1), ReferenceElement(2)
    mat = ElasticMaterial(lam=rng.uniform(1.0, 2.0, mesh.n_elements),
                          mu=rng.uniform(0.5, 1.5, mesh.n_elements),
                          rho=rng.uniform(0.8, 1.2, mesh.n_elements))
    op = ElasticOperator(mesh, mat, elem, flux="riemann")
    return Program("elastic_riemann_l1_g4", mesh, elem, mat, op, ElasticFourBlockKernels,
                   4, 9, rng)


def _sharded(rng, counters: bool = False):
    """The 4-shard step workload, lowered, with a seeded initial state."""
    from repro.pim.multichip import ShardedExecutor
    from repro.workloads.sharding import shard_step_workload

    w = shard_step_workload()
    sx = ShardedExecutor(w["mesh"], w["chip"], w["kernel_factory"], n_shards=4,
                         blocks_per_element=w["blocks_per_element"], counters=counters)
    state = (0.1 * rng.standard_normal((4, w["mesh"].n_elements, w["element"].n_nodes))
             ).astype(np.float32)
    sx.setup(state)
    sx.lower_step(w["dt"])
    return sx, w["dt"]


class Replay:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.progs = [_acoustic(rng), _elastic(rng)]
        self.sharded, self.shard_dt = _sharded(rng)
        self.seed = seed

    def round(self) -> int:
        """One analytic step of each program; instructions replayed."""
        n = 0
        for p in self.progs:
            n += p.ex.run(p.plan, functional=False).n_instructions
        return n + self.sharded.run_steps(self.shard_dt, 1, functional=False).report.n_instructions

    def functional_round(self) -> int:
        n = 0
        for p in self.progs:
            n += p.ex.run(p.plan, functional=True).n_instructions
            p.functional_steps += 1
        return n


def _check_first_step(rep: Replay, res: WorkloadResult) -> tuple:
    """Plan replay == serial audit on each single-chip program, the first
    functional step vs the dG reference, and the modeled cost of one step
    (summed over the three programs).  Returns the instructions of one
    analytic and one functional round and the modeled cycles and joules of
    one step."""
    insts = cycles = joules = 0.0
    for p in rep.progs:
        p.ex.reset_clocks()
        plan_report = p.ex.run(p.plan, functional=False)
        p.ex.reset_clocks()
        serial_report = p.ex.run(p.step, functional=False, serial=True)
        p.ex.reset_clocks()
        res.check(f"{p.name}.plan_equals_serial_audit", plan_report == serial_report)
        insts += plan_report.n_instructions
        cycles += plan_report.makespan_cycles
        joules += plan_report.dynamic_energy_j
    f_insts = insts
    sr = rep.sharded.run_steps(rep.shard_dt, 1, functional=False)
    insts += sr.report.n_instructions
    cycles += sr.report.makespan_cycles
    joules += sr.report.dynamic_energy_j
    rep.functional_round()
    for p in rep.progs:
        err = p.reference_error()
        res.check(f"{p.name}.first_functional_step_vs_dg", err < TOL, f"rel_err={err:.3e}")
    return int(insts), int(f_insts), cycles, joules


def _counters(rep: Replay) -> dict:
    """Modeled utilization and makespan attribution of one step of each
    single-chip program (pooled by makespan), plus the 4-shard pipeline's
    halo wait and measured exchange overlap, each replayed on fresh chips
    with hardware counters attached."""
    from repro import ChipExecutor, PimChip

    total = block_util = link_util = 0.0
    shares = dict.fromkeys(("block", "link", "host", "dram", "idle"), 0.0)
    for p in rep.progs:
        ex = ChipExecutor(PimChip(p.chip.config), counters=True)
        ex.run(p.plan, functional=False)
        a = ex.attribution()
        total += a.makespan_cycles
        block_util += (a.block_util or 0.0) * a.makespan_cycles
        link_util += (a.link_util or 0.0) * a.makespan_cycles
        for resource, cyc in a.shares.items():
            shares[resource.split(":", 1)[0]] += cyc
    sx, dt = _sharded(np.random.default_rng(rep.seed), counters=True)
    sr = sx.run_steps(dt, 1, functional=False)
    out = {f"pim.makespan_share.{k}": v / total for k, v in shares.items()}
    out["pim.counters.block_util"] = block_util / total
    out["pim.counters.link_util"] = link_util / total
    out["pim.multichip.halo_wait_cycles"] = sr.halo_wait_s * sx.config.clock_hz
    out["pim.multichip.overlap_fraction"] = sr.overlap_fraction or 0.0
    return out


def _functional_ok(rep: Replay, res: WorkloadResult) -> bool:
    """Chip state of each single-chip program vs the dG reference advanced
    the same number of steps."""
    ok = True
    for p in rep.progs:
        err = p.reference_error()
        ok &= res.check(f"{p.name}.functional_after_{p.functional_steps}_steps_vs_dg",
                        err < TOL, f"rel_err={err:.3e}")
    return ok


def run(ctx: Context) -> WorkloadResult:
    res = WorkloadResult()
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        rep = Replay(ctx.seed)
        res.setup_samples_s.append(time.perf_counter() - t0)
    insts, f_insts, cycles, joules = _check_first_step(rep, res)
    audit_ok = all(c.ok for c in res.checks)
    res.named["modeled_step_s"] = (cycles / rep.progs[0].chip.config.clock_hz, "s")
    res.named["modeled_step_j"] = (joules, "J")
    functional = []  # (seconds, instruction count ok) per functional round

    def timed(step) -> tuple:
        t0 = time.perf_counter()
        try:
            n = step()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            n = None
        return time.perf_counter() - t0, n

    def analytic_round() -> float:
        s, n = timed(rep.round)
        res.op(s * 1e3, audit_ok and n == insts)
        return s

    def functional_round() -> float:
        s, n = timed(rep.functional_round)
        functional.append((s, n == f_insts))
        return s

    if ctx.trace:
        def run_pass(window: Window) -> float:
            with window:
                t0 = time.perf_counter()
                for _ in range(TRACE_ROUNDS):
                    analytic_round()
                for _ in range(TRACE_FUNCTIONAL_ROUNDS):
                    functional_round()
                return time.perf_counter() - t0

        res.per_layer = traced_passes(run_pass, ctx.trace_path)
        res.per_layer.update(_counters(rep))
        res.per_layer["modeled.step_cycles"] = cycles
        res.per_layer["modeled.step_j"] = joules
    else:
        budget = Budget(ANALYTIC_SHARE * ctx.seconds)
        while budget.more():
            budget.record(analytic_round())
        # the median round keeps a transient host slowdown out of the rate.
        res.ops_per_s = res.completed / res.attempted / statistics.median(budget.durations)
        fbudget = Budget(ctx.seconds - budget.elapsed())
        while fbudget.more():
            fbudget.record(functional_round())
        res.named["replay_insts_per_s"] = (insts * res.ops_per_s, "1/s")
        res.named["replay_step_ms_p50"] = (percentile(res.latencies_ms, 50), "ms")
        res.named["replay_step_ms_p90"] = (percentile(res.latencies_ms, 90), "ms")
        res.named["functional_insts_per_s"] = (
            f_insts * len(functional) / sum(s for s, _ in functional), "1/s")
    # the functional rounds are accounted once their end state is checked.
    final_ok = _functional_ok(rep, res)
    for s, ok in functional:
        res.op(s * 1e3, audit_ok and final_ok and ok, timed=False)
    return res
