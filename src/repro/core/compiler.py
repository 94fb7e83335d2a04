"""The Wave-PIM compiler: benchmark + chip -> costed deployment.

``WavePimCompiler.compile`` resolves the Table 5 plan, builds the mapper
and kernel generators, and measures per-RK-stage lane times by executing
representative instruction streams on the chip model:

* Volume / Flux-compute / Integration are row-parallel and identical for
  every element, so one interior element's stream gives the lane time;
* Flux *fetch* contends for the tile interconnect, so the transfer
  streams of every element in one tile are scheduled together (all tiles
  are statistically identical for a uniform mesh) — this is where the
  H-tree/Bus gap of Fig. 14 comes from;
* host sqrt/inverse pre-processing and batching DRAM traffic are priced
  by their models.

The result feeds :mod:`repro.core.runtime` for end-to-end time/energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batching import batch_dram_traffic
from repro.core.cache import compile_fingerprint
from repro.obs import get_logger, get_metrics, get_tracer
from repro.core.kernels.acoustic import AcousticFourBlockKernels, AcousticOneBlockKernels
from repro.core.kernels.base import is_fetch
from repro.core.kernels.elastic import ElasticFourBlockKernels
from repro.core.mapper import ElementMapper
from repro.core.pipeline import StageTimes
from repro.core.planner import Plan, plan_configuration
from repro.dg.materials import AcousticMaterial, ElasticMaterial
from repro.dg.mesh import HexMesh
from repro.dg.reference_element import ReferenceElement
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.schedule import schedule_enabled, schedule_plan
from repro.pim.params import ChipConfig

__all__ = ["WavePimCompiler", "CompiledBenchmark"]

log = get_logger(__name__)

#: Host pre-processing per element per RK stage (sqrt + inverse refresh
#: for the flux coefficients; materials are per-element constants).
HOST_OPS_PER_ELEMENT_STAGE = 2

#: Fig. 13's fetch split: faces with -1 normals, then +1 normals.
MINUS_FACES = (0, 2, 4)
PLUS_FACES = (1, 3, 5)


@dataclass
class CompiledBenchmark:
    """A fully costed benchmark deployment."""

    physics: str
    refinement_level: int
    flux_kind: str
    order: int
    plan: Plan
    chip: ChipConfig
    stage_times: StageTimes
    #: dynamic energy per element per RK stage (J), by kernel tag
    stage_energy_per_element: dict
    #: per-element instruction counts per RK stage, by opcode
    op_counts_per_element: dict
    #: off-chip traffic per time-step (bytes) from batching
    dram_bytes_per_step: float
    n_elements: int = 0
    elements_per_batch: int = 0

    @property
    def name(self) -> str:
        flux = {"central": "Central", "riemann": "Riemann"}[self.flux_kind]
        if self.physics == "acoustic":
            return f"Acoustic_{self.refinement_level}"
        return f"Elastic-{flux}_{self.refinement_level}"


class WavePimCompiler:
    """Compiles the paper's six benchmarks onto a chip configuration."""

    def __init__(self, order: int = 7):
        self.order = order
        self._element_cache: dict = {}

    def _ref_element(self, order: int) -> ReferenceElement:
        if order not in self._element_cache:
            self._element_cache[order] = ReferenceElement(order)
        return self._element_cache[order]

    # ------------------------------------------------------------------ #

    def _build_kernels(self, physics, flux_kind, mesh, element, mapper):
        if physics == "acoustic":
            material = AcousticMaterial.homogeneous(mesh.n_elements)
            if mapper.g == 1:
                return AcousticOneBlockKernels(mesh, element, material, mapper, flux_kind)
            return AcousticFourBlockKernels(mesh, element, material, mapper, flux_kind)
        material = ElasticMaterial.homogeneous(mesh.n_elements)
        return ElasticFourBlockKernels(mesh, element, material, mapper, flux_kind)

    @staticmethod
    def _interior_elements(mapper, mesh):
        """Elements whose six neighbors are all present in the mapper.

        Vectorized: one ``np.isin`` over the batch's neighbor table instead
        of ~57k per-element membership probes.
        """
        elems = np.asarray(mapper.elements)
        nbrs = mesh.neighbors[elems]  # (B, 6)
        ok = np.isin(nbrs, elems).all(axis=1)
        return [int(e) for e in elems[ok]]

    @classmethod
    def representative_elements(cls, mapper, mesh):
        """``(rep, interior, true_interior)`` of one batch.

        ``true_interior`` are the fully-interior elements (all six
        neighbors mapped); ``interior`` falls back to the best-connected
        elements for thin batch slabs that have none; ``rep`` is the
        single element whose stream stands in for the whole batch (every
        element's stream has the same shape).  Shared by the costing pass
        and the static checker's program builder.
        """
        interior = true_interior = cls._interior_elements(mapper, mesh)
        if not interior:
            # thin batch slabs (e.g. one y-slice, elastic_5 on 512MB) have
            # no fully-interior element; use the best-connected one — its
            # off-batch faces are priced by the Fig. 7 streamed passes.
            def connectivity(e):
                return sum(int(n) in mapper for n in mesh.neighbors[e])

            interior = sorted(map(int, mapper.elements), key=connectivity)[-64:]
        rep = [interior[len(interior) // 2]]
        return rep, interior, true_interior

    def _prepare(self, physics, refinement_level, chip, flux_kind, order):
        """Resolve the plan and build mesh/element/mapper/kernels.

        The front half of a compile, shared with the static checker
        (:mod:`repro.analysis.programs`), which audits the same streams the
        costing pass prices.
        """
        tracer = get_tracer()
        with tracer.span("compile/plan"):
            plan = plan_configuration(physics, refinement_level, chip)
        mesh = HexMesh.from_refinement_level(refinement_level)
        element = self._ref_element(order)
        batch_elements = (
            None
            if not plan.batched
            else np.arange(plan.elements_per_batch)
        )
        # E_r&E_p (g=12: nine variable blocks + three buffers) reuses the
        # 4-block elastic streams; compile() divides their arithmetic lanes
        # by a parallelism factor rather than emitting a third generator.
        g = 4 if plan.blocks_per_element == 12 else plan.blocks_per_element
        with tracer.span("compile/kernels", plan=plan.label):
            mapper = ElementMapper(mesh.m, chip, g, elements=batch_elements)
            kern = self._build_kernels(physics, flux_kind, mesh, element, mapper)
        return plan, mesh, element, mapper, kern

    def compile(
        self,
        physics: str,
        refinement_level: int,
        chip: ChipConfig,
        flux_kind: str = "riemann",
        order: int | None = None,
        cache=None,
        verify: bool = False,
    ) -> CompiledBenchmark:
        """Cost one benchmark on one chip configuration.

        ``cache`` is an optional :class:`~repro.core.cache.CompileCache`;
        when given, a fingerprint hit skips the whole costing pass and a
        miss stores the fresh result for future processes.

        With ``verify=True`` the static checker audits the benchmark's
        representative streams first — *before* the cache lookup, so a
        stale-but-cached deployment of a since-broken kernel still fails —
        raising :class:`~repro.analysis.checker.ProgramCheckError` on any
        error finding.
        """
        order = self.order if order is None else order
        if verify:
            # imported lazily: repro.analysis depends on this module.
            from repro.analysis.programs import verify_benchmark

            verify_benchmark(
                physics, refinement_level, chip,
                flux_kind=flux_kind, order=order, compiler=self,
            )
        with get_tracer().span(
            f"compile/{physics}_{refinement_level}",
            chip=chip.name, flux=flux_kind, order=order,
            interconnect=chip.interconnect,
        ) as sp:
            if cache is not None:
                key = compile_fingerprint(physics, refinement_level, chip, flux_kind, order)
                hit = cache.get(key)
                if hit is not None:
                    sp.set(cache="hit")
                    return hit
                result = self._compile_uncached(physics, refinement_level, chip, flux_kind, order)
                cache.put(key, result)
                sp.set(cache="miss")
                return result
            sp.set(cache="off")
            return self._compile_uncached(physics, refinement_level, chip, flux_kind, order)

    def _compile_uncached(
        self,
        physics: str,
        refinement_level: int,
        chip: ChipConfig,
        flux_kind: str,
        order: int,
    ) -> CompiledBenchmark:
        tracer = get_tracer()
        log.debug("compiling %s_%d on %s (%s flux, order %d)",
                  physics, refinement_level, chip.name, flux_kind, order)
        plan, mesh, element, mapper, kern = self._prepare(
            physics, refinement_level, chip, flux_kind, order
        )
        rep, interior, true_interior = self.representative_elements(mapper, mesh)

        chip_model = PimChip(chip)
        emitted = 0

        use_sched = schedule_enabled()

        def run(insts, label):
            nonlocal emitted
            emitted += len(insts)
            with tracer.span(f"compile/{label}", instructions=len(insts)):
                ex = ChipExecutor(chip_model)
                lowered = ex.lower(insts)
                if use_sched:
                    # REPRO_SCHED: makespan-schedule the lowered plan
                    # (best-of: never worse than emission order).
                    lowered = schedule_plan(ex, lowered)
                    ex.reset_clocks()
                return ex.run(lowered, functional=False)

        # -- lane times from representative streams ----------------------- #
        vol = run(kern.volume(elements=rep), "volume_kernel")
        integ = run(kern.integration(0, 1e-4, elements=rep), "integration_kernel")

        def sans_fetch(insts):
            """Compute lane: the flux stream with its fetches stripped
            (they are scheduled on their own Fig. 13 lane)."""
            return [i for i in insts if not is_fetch(i)]

        flux_m_c = run(sans_fetch(kern.flux(faces=MINUS_FACES, elements=rep)),
                       "flux_minus_kernel")
        flux_p_c = run(sans_fetch(kern.flux(faces=PLUS_FACES, elements=rep)),
                       "flux_plus_kernel")

        # -- tile-level fetch contention ---------------------------------- #
        # the fetch stream covers fully-interior elements only (thin-batch
        # fallbacks have their off-batch faces priced by the Fig. 7 passes),
        # so filter the *true* interior set, reused instead of recomputed.
        rep_tile = mapper.tile_of(interior[0])
        tile_elems = [e for e in true_interior if mapper.tile_of(e) == rep_tile]
        fetch_m = run(self._fetch_only(kern, MINUS_FACES, tile_elems),
                      "fetch_minus_kernel").total_time_s
        fetch_p = run(self._fetch_only(kern, PLUS_FACES, tile_elems),
                      "fetch_plus_kernel").total_time_s

        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("compiler.compiles")
            metrics.inc("compiler.instructions_emitted", emitted)
            metrics.inc(f"compiler.instructions_emitted.{type(kern).__name__}", emitted)

        host_t = ChipExecutor(chip_model).host.time_s(
            HOST_OPS_PER_ELEMENT_STAGE * mapper.n_elements
        )

        parallel_boost = 3.0 if plan.blocks_per_element == 12 else 1.0
        st = StageTimes(
            volume=vol.total_time_s / parallel_boost,
            flux_fetch_minus=fetch_m,
            flux_compute_minus=flux_m_c.total_time_s / parallel_boost,
            flux_fetch_plus=fetch_p,
            flux_compute_plus=flux_p_c.total_time_s / parallel_boost,
            integration=integ.total_time_s,
            host=host_t,
        )

        # -- per-element per-stage dynamic energy and op counts ----------- #
        energy = {}
        ops = {}
        for rep_report in (vol, integ, flux_m_c, flux_p_c):
            for tag, e_j in rep_report.energy_by_tag.items():
                energy[tag] = energy.get(tag, 0.0) + e_j
            for op, n in rep_report.op_counts.items():
                ops[op] = ops.get(op, 0) + n

        n_vars = kern.n_vars
        traffic = batch_dram_traffic(
            n_elements=mesh.n_elements,
            n_nodes=element.n_nodes,
            n_vars=n_vars,
            n_batches=plan.n_batches,
        )

        return CompiledBenchmark(
            physics=physics,
            refinement_level=refinement_level,
            flux_kind=flux_kind,
            order=order,
            plan=plan,
            chip=chip,
            stage_times=st,
            stage_energy_per_element=energy,
            op_counts_per_element=ops,
            dram_bytes_per_step=traffic.bytes_per_step,
            n_elements=mesh.n_elements,
            elements_per_batch=plan.elements_per_batch,
        )

    @staticmethod
    def _fetch_only(kern, faces, elements):
        """The TRANSFER sub-stream of the flux kernel for a set of elements."""
        insts = kern.flux(faces=faces, elements=elements)
        return [i for i in insts if is_fetch(i)]
