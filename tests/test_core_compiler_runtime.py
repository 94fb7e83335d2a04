"""Compiler + runtime: plans execute, costs compose, shapes hold.

All compilations here use small element orders so the suite stays fast;
the order-7 paper geometry is exercised by the benchmark harness.
"""

import pytest

from repro.core.compiler import WavePimCompiler
from repro.core.runtime import estimate_benchmark
from repro.pim.params import CHIP_CONFIGS

ORDER = 3


@pytest.fixture(scope="module")
def compiler():
    return WavePimCompiler(order=ORDER)


class TestCompile:
    def test_acoustic_naive(self, compiler):
        cb = compiler.compile("acoustic", 4, CHIP_CONFIGS["512MB"], "riemann")
        assert cb.plan.label == "N"
        st = cb.stage_times
        assert st.volume > 0 and st.integration > 0
        assert st.flux_fetch_minus > 0 and st.flux_compute_minus > 0

    def test_acoustic_expanded_volume_faster(self, compiler):
        naive = compiler.compile("acoustic", 4, CHIP_CONFIGS["512MB"], "riemann")
        expanded = compiler.compile("acoustic", 4, CHIP_CONFIGS["2GB"], "riemann")
        assert expanded.plan.expansion_parallel
        assert expanded.stage_times.volume < naive.stage_times.volume

    def test_elastic_heavier_than_acoustic(self, compiler):
        ac = compiler.compile("acoustic", 4, CHIP_CONFIGS["2GB"], "riemann")
        el = compiler.compile("elastic", 4, CHIP_CONFIGS["2GB"], "riemann")
        assert el.stage_times.volume > ac.stage_times.volume

    def test_riemann_flux_heavier_than_central(self, compiler):
        c = compiler.compile("elastic", 4, CHIP_CONFIGS["2GB"], "central")
        r = compiler.compile("elastic", 4, CHIP_CONFIGS["2GB"], "riemann")
        assert r.stage_times.flux_compute_minus > c.stage_times.flux_compute_minus

    def test_bus_fetch_slower_than_htree(self, compiler):
        h = compiler.compile("acoustic", 4, CHIP_CONFIGS["512MB"], "riemann")
        b = compiler.compile(
            "acoustic", 4, CHIP_CONFIGS["512MB"].with_interconnect("bus"), "riemann"
        )
        assert b.stage_times.flux_fetch_minus > h.stage_times.flux_fetch_minus
        # compute lanes are interconnect-independent
        assert b.stage_times.flux_compute_minus == pytest.approx(
            h.stage_times.flux_compute_minus
        )

    def test_batched_benchmark_compiles(self, compiler):
        cb = compiler.compile("elastic", 5, CHIP_CONFIGS["512MB"], "central")
        assert cb.plan.n_batches == 32
        assert cb.dram_bytes_per_step > 0

    def test_unbatched_no_dram(self, compiler):
        cb = compiler.compile("acoustic", 4, CHIP_CONFIGS["2GB"], "riemann")
        assert cb.dram_bytes_per_step == 0.0

    def test_names(self, compiler):
        cb = compiler.compile("elastic", 4, CHIP_CONFIGS["2GB"], "riemann")
        assert cb.name == "Elastic-Riemann_4"

    def test_energy_and_opcounts_recorded(self, compiler):
        cb = compiler.compile("acoustic", 4, CHIP_CONFIGS["512MB"], "riemann")
        assert sum(cb.stage_energy_per_element.values()) > 0
        assert cb.op_counts_per_element.get("mul", 0) > 0


class TestEstimate:
    def test_time_scales_with_steps(self, compiler):
        cb = compiler.compile("acoustic", 4, CHIP_CONFIGS["2GB"], "riemann")
        e1 = estimate_benchmark(cb, n_steps=100)
        e2 = estimate_benchmark(cb, n_steps=200)
        assert e2.time_s == pytest.approx(2 * e1.time_s)

    def test_pipelining_helps(self, compiler):
        cb = compiler.compile("acoustic", 4, CHIP_CONFIGS["2GB"], "riemann")
        piped = estimate_benchmark(cb, n_steps=64, pipelined=True)
        serial = estimate_benchmark(cb, n_steps=64, pipelined=False)
        ratio = piped.time_s / serial.time_s
        assert 0.4 < ratio < 1.0  # §7.5 regime (paper: 0.77)

    def test_process_scaling(self, compiler):
        cb = compiler.compile("acoustic", 4, CHIP_CONFIGS["2GB"], "riemann")
        base = estimate_benchmark(cb, n_steps=64, scale_to_12nm=False)
        scaled = estimate_benchmark(cb, n_steps=64, scale_to_12nm=True)
        assert scaled.time_s == pytest.approx(base.time_s / 3.81)
        assert scaled.energy_j == pytest.approx(base.energy_j / 2.0)

    def test_batching_adds_dram_time(self, compiler):
        cb = compiler.compile("acoustic", 5, CHIP_CONFIGS["2GB"], "riemann")
        est = estimate_benchmark(cb, n_steps=16)
        assert est.dram_time_per_step_s > 0
        assert est.hbm_energy_j > 0

    def test_bigger_chip_same_problem_more_energy(self, compiler):
        """§7.4: small problems on large chips waste static power."""
        small = estimate_benchmark(
            compiler.compile("acoustic", 4, CHIP_CONFIGS["2GB"], "riemann"), n_steps=64
        )
        big = estimate_benchmark(
            compiler.compile("acoustic", 4, CHIP_CONFIGS["16GB"], "riemann"), n_steps=64
        )
        assert big.time_s <= small.time_s * 1.01  # no slower...
        assert big.energy_j > small.energy_j  # ...but hungrier

    def test_energy_components_sum(self, compiler):
        cb = compiler.compile("elastic", 5, CHIP_CONFIGS["512MB"], "central")
        est = estimate_benchmark(cb, n_steps=16)
        total = (
            est.dynamic_energy_j + est.static_energy_j + est.hbm_energy_j + est.host_energy_j
        )
        assert est.energy_j == pytest.approx(total)

    def test_name_and_power(self, compiler):
        cb = compiler.compile("acoustic", 4, CHIP_CONFIGS["2GB"], "riemann")
        est = estimate_benchmark(cb, n_steps=16, scale_to_12nm=True)
        assert est.name == "PIM-2GB-12nm"
        assert est.power_w > 0


#: (physics, level, chip) covering every generator the compiler builds
LANE_CASES = [
    ("acoustic", 4, "512MB"),  # N: AcousticOneBlockKernels
    ("acoustic", 3, "512MB"),  # E_p: AcousticFourBlockKernels
    ("elastic", 3, "512MB"),  # E_r: ElasticFourBlockKernels
    ("elastic", 2, "512MB"),  # E_r&E_p: the 4-block elastic streams again
]


class TestFetchLane:
    """``is_fetch`` splits flux into the Fig. 13 compute and fetch lanes."""

    @pytest.mark.parametrize("flux", ["central", "riemann"])
    @pytest.mark.parametrize("physics,level,chip", LANE_CASES)
    def test_lanes_partition_the_flux_stream(self, compiler, physics, level, chip, flux):
        from repro.core.compiler import MINUS_FACES, PLUS_FACES
        from repro.core.kernels.base import is_fetch
        from repro.pim.isa import Opcode

        _plan, mesh, _element, mapper, kern = compiler._prepare(
            physics, level, CHIP_CONFIGS[chip], flux, ORDER)
        _rep, interior, true_interior = compiler.representative_elements(mapper, mesh)
        tile = mapper.tile_of(interior[0])
        tile_elems = [e for e in true_interior if mapper.tile_of(e) == tile]
        assert tile_elems
        for faces in (MINUS_FACES, PLUS_FACES):
            insts = kern.flux(faces=faces, elements=tile_elems)
            compute = [i for i in insts if not is_fetch(i)]
            fetch = [i for i in insts if is_fetch(i)]
            assert compute and fetch
            # nothing lost, nothing duplicated
            assert len(compute) + len(fetch) == len(insts)
            assert {id(i) for i in compute} | {id(i) for i in fetch} == {id(i) for i in insts}
            assert all(i.op is Opcode.TRANSFER and i.tag.startswith("flux:fetch")
                       for i in fetch)
            # every flux data move rides the fetch lane
            assert not any(i.op is Opcode.TRANSFER for i in compute)
