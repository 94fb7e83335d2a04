"""End-to-end runtime and energy estimation for compiled benchmarks.

Composes the compiler's per-stage lane times with the §6.3 pipeline
overlap, the §6.1 batching traffic, static power (Table 3), per-op
switching energy, HBM and host energy — producing the numbers behind
Figs. 11 and 12.  The §7.3 28 nm -> 12 nm process scaling is applied on
request ("3.81x performance improvement and 2.0x energy savings").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiler import CompiledBenchmark
from repro.core.pipeline import pipelined_stage_time, serial_stage_time
from repro.obs import get_metrics, get_tracer
from repro.pim.chip import PimChip
from repro.pim.energy import EnergyAccount
from repro.pim.hbm import HbmModel
from repro.pim.params import DEFAULT_SCALING, ProcessScaling

__all__ = ["PimRunEstimate", "estimate_benchmark", "RK_STAGES_PER_STEP"]

#: "In each time-step, each kernel is launched five times." (Table 6 note)
RK_STAGES_PER_STEP = 5


@dataclass
class PimRunEstimate:
    """Timing/energy of one benchmark run on one PIM configuration."""

    compiled: CompiledBenchmark
    n_steps: int
    pipelined: bool
    scaled_to_12nm: bool
    time_s: float
    energy_j: float
    stage_time_s: float
    dram_time_per_step_s: float
    #: modeled seconds of one full time-step (all RK stages of every batch
    #: plus the DRAM traffic) — ``time_s / n_steps`` before the fault and
    #: checkpoint overheads; the unit the plan-replay benchmarks compare
    #: wall-clock against.
    step_time_s: float
    dynamic_energy_j: float
    static_energy_j: float
    hbm_energy_j: float
    host_energy_j: float
    #: expected fault-mitigation time (retries + parity + recomputes);
    #: zero unless a fault model was supplied to the estimate.
    fault_overhead_s: float = 0.0
    #: time spent writing periodic restart checkpoints to HBM.
    checkpoint_overhead_s: float = 0.0

    @property
    def name(self) -> str:
        node = "12nm" if self.scaled_to_12nm else "28nm"
        return f"PIM-{self.compiled.chip.name}-{node}"

    @property
    def power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s else 0.0


def estimate_benchmark(
    compiled: CompiledBenchmark,
    n_steps: int = 1024,
    pipelined: bool = True,
    scale_to_12nm: bool = False,
    scaling: ProcessScaling = DEFAULT_SCALING,
    faults=None,
    checkpoint_every: int | None = None,
) -> PimRunEstimate:
    """Turn a compiled benchmark into wall-clock time and energy.

    With a :class:`~repro.faults.model.FaultModel` the estimate includes
    the *expected* mitigation overhead (transfer retries on the fetch
    lanes, parity upkeep and flip recomputes on the compute lanes); with
    ``checkpoint_every`` it adds the HBM time of periodic restart
    snapshots.  Both default off and leave the numbers bit-identical.
    """
    with get_tracer().span(
        "execute/estimate", benchmark=compiled.name, chip=compiled.chip.name,
        n_steps=n_steps, pipelined=pipelined, scaled_12nm=scale_to_12nm,
    ) as sp:
        est = _estimate(
            compiled, n_steps, pipelined, scale_to_12nm, scaling,
            faults, checkpoint_every,
        )
        sp.set(time_s=est.time_s, energy_j=est.energy_j)
    return est


#: state variables per physics (checkpoint sizing).
_N_VARS = {"acoustic": 4, "elastic": 9}


def _fault_overhead_per_stage(compiled, faults) -> float:
    """Expected mitigation seconds added to one RK stage of one batch."""
    from repro.pim.arithmetic import default_op_costs
    from repro.pim.plan import COPY_NORS

    cfg = faults.config
    st = compiled.stage_times
    costs = default_op_costs(compiled.chip.device)
    overhead = 0.0
    # transfer retries stretch the fetch lanes by p/(1-p) on expectation.
    p_retry = cfg.transfer_drop_rate + (cfg.transfer_corrupt_rate if cfg.protect else 0.0)
    if p_retry > 0.0:
        p_retry = min(p_retry, 0.99)
        overhead += (st.flux_fetch_minus + st.flux_fetch_plus) * p_retry / (1.0 - p_retry)
    compute = st.volume + st.flux_compute_minus + st.flux_compute_plus + st.integration
    if cfg.protect:
        # parity upkeep: one 2-NOR copy per compute op, vs ~add-sized ops.
        overhead += compute * COPY_NORS / costs.nor_count("add")
    if cfg.flip_rate > 0.0:
        # each detected flip recomputes one op: expected redo fraction is
        # flip_rate x NORs x active rows per op (first order, small rates).
        n_rows = (compiled.order + 1) ** 3
        redo = min(cfg.flip_rate * costs.nor_count("add") * n_rows, 1.0)
        if cfg.protect:
            overhead += compute * redo
    return overhead


def _estimate(compiled, n_steps, pipelined, scale_to_12nm, scaling,
              faults=None, checkpoint_every=None) -> PimRunEstimate:
    st = compiled.stage_times
    stage = pipelined_stage_time(st) if pipelined else serial_stage_time(st)

    hbm = HbmModel()
    plan = compiled.plan
    dram_per_step = hbm.transfer_time_s(compiled.dram_bytes_per_step)
    # per time-step: all batches run serially (batching), stages pipelined
    step_time = stage * RK_STAGES_PER_STEP * plan.n_batches + dram_per_step
    total_time = step_time * n_steps

    fault_overhead = 0.0
    if faults is not None and faults.config.enabled:
        fault_overhead = (
            _fault_overhead_per_stage(compiled, faults)
            * RK_STAGES_PER_STEP * plan.n_batches * n_steps
        )
        total_time += fault_overhead
    checkpoint_overhead = 0.0
    if checkpoint_every:
        n_vars = _N_VARS.get(compiled.physics, 4)
        state_bytes = compiled.n_elements * (compiled.order + 1) ** 3 * n_vars * 4
        n_ckpts = n_steps // int(checkpoint_every)
        checkpoint_overhead = n_ckpts * hbm.transfer_time_s(state_bytes)
        total_time += checkpoint_overhead

    # -- energy --------------------------------------------------------- #
    chip_model = PimChip(compiled.chip)
    # dynamic: per-element per-stage energy (all tags) x elements x stages
    per_elem_stage = sum(compiled.stage_energy_per_element.values())
    dynamic = per_elem_stage * compiled.n_elements * RK_STAGES_PER_STEP * n_steps
    static = chip_model.static_power_w(include_host=False) * total_time
    hbm_energy = hbm.transfer_energy_j(compiled.dram_bytes_per_step) * n_steps
    host_power = compiled.chip.power.cpu_host_w
    host_energy = host_power * total_time

    time_s = total_time
    energy_j = dynamic + static + hbm_energy + host_energy
    if scale_to_12nm:
        time_s /= scaling.performance
        energy_j /= scaling.energy

    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("runtime.estimates")
        account = EnergyAccount()
        account.add("dynamic", dynamic)
        account.add("static", static)
        account.add("hbm", hbm_energy)
        account.add("host", host_energy)
        account.publish(metrics, prefix="runtime.energy_j")

    return PimRunEstimate(
        compiled=compiled,
        n_steps=n_steps,
        pipelined=pipelined,
        scaled_to_12nm=scale_to_12nm,
        time_s=time_s,
        energy_j=energy_j,
        stage_time_s=stage,
        dram_time_per_step_s=dram_per_step,
        step_time_s=step_time,
        dynamic_energy_j=dynamic,
        static_energy_j=static,
        hbm_energy_j=hbm_energy,
        host_energy_j=host_energy,
        fault_overhead_s=fault_overhead,
        checkpoint_overhead_s=checkpoint_overhead,
    )
