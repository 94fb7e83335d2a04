"""GPU/CPU baseline models and the Table 6 workload counts."""

import pytest

from repro.gpu import (
    CPU_BASELINE,
    GPU_SPECS,
    benchmark_traffic,
    cpu_benchmark_time,
    gpu_benchmark_energy,
    gpu_benchmark_time,
)
from repro.gpu.cpu import cpu_benchmark_energy, cpu_stage_time
from repro.workloads import BENCHMARKS, PAPER_TABLE6, benchmark_list, count_benchmark

ORDER = 3  # keep counting fast; order-7 runs live in the bench harness


@pytest.fixture(scope="module")
def acoustic4_ops():
    return count_benchmark(BENCHMARKS["acoustic_4"], order=ORDER)


class TestBenchmarkSpecs:
    def test_six_benchmarks(self):
        specs = benchmark_list()
        assert len(specs) == 6
        assert [s.name for s in specs] == [
            "Acoustic_4",
            "Elastic-Central_4",
            "Elastic-Riemann_4",
            "Acoustic_5",
            "Elastic-Central_5",
            "Elastic-Riemann_5",
        ]

    def test_element_counts_match_paper(self):
        for spec in benchmark_list():
            assert spec.n_elements == PAPER_TABLE6[spec.key]["elements"]

    def test_paper_geometry(self):
        s = BENCHMARKS["acoustic_4"]
        assert s.n_nodes == 512 and s.n_vars == 4
        assert BENCHMARKS["elastic_central_4"].n_vars == 9

    def test_state_bytes(self):
        s = BENCHMARKS["acoustic_4"]
        assert s.state_bytes == 4096 * 512 * 4 * 4


class TestOpCount:
    def test_positive_components(self, acoustic4_ops):
        oc = acoustic4_ops
        assert oc.fp_ops_volume > 0
        assert oc.fp_ops_flux > 0
        assert oc.fp_ops_integration > 0
        assert oc.fp_ops == oc.fp_ops_volume + oc.fp_ops_flux + oc.fp_ops_integration

    def test_level5_is_8x_level4(self):
        l4 = count_benchmark(BENCHMARKS["acoustic_4"], order=ORDER)
        l5 = count_benchmark(BENCHMARKS["acoustic_5"], order=ORDER)
        assert l5.fp_ops == 8 * l4.fp_ops

    def test_riemann_heavier_than_central(self):
        c = count_benchmark(BENCHMARKS["elastic_central_4"], order=ORDER)
        r = count_benchmark(BENCHMARKS["elastic_riemann_4"], order=ORDER)
        assert r.fp_ops > c.fp_ops
        assert r.fp_ops_flux > c.fp_ops_flux

    def test_elastic_heavier_than_acoustic(self):
        a = count_benchmark(BENCHMARKS["acoustic_4"], order=ORDER)
        e = count_benchmark(BENCHMARKS["elastic_central_4"], order=ORDER)
        assert e.fp_ops > a.fp_ops

    def test_paper_ordering_preserved(self):
        """Our fp-op ordering across benchmarks matches Table 6's."""
        ours = {s.key: count_benchmark(s, order=ORDER).fp_ops for s in benchmark_list()}
        paper = {k: v["fp_ops"] for k, v in PAPER_TABLE6.items()}
        our_rank = sorted(ours, key=ours.get)
        paper_rank = sorted(paper, key=paper.get)
        assert our_rank == paper_rank

    def test_order7_fp_ops_within_2x_of_paper(self):
        """At the paper's element order the counts land in [0.4x, 2.5x]."""
        oc = count_benchmark(BENCHMARKS["acoustic_4"], order=7)
        ratio = oc.fp_ops / PAPER_TABLE6["acoustic_4"]["fp_ops"]
        assert 0.4 < ratio < 2.5


class TestTraffic:
    def test_fused_moves_less(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        unfused = sum(k.bytes_moved for k in benchmark_traffic(spec, acoustic4_ops, False))
        fused = sum(k.bytes_moved for k in benchmark_traffic(spec, acoustic4_ops, True))
        assert fused < unfused

    def test_flops_conserved_by_fusion(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        unfused = sum(k.flops for k in benchmark_traffic(spec, acoustic4_ops, False))
        fused = sum(k.flops for k in benchmark_traffic(spec, acoustic4_ops, True))
        assert fused == pytest.approx(unfused)

    def test_kernel_kinds(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        kinds = [k.kind for k in benchmark_traffic(spec, acoustic4_ops, False)]
        assert kinds == ["volume", "flux", "integration"]


class TestRoofline:
    def test_memory_bound_regime(self, acoustic4_ops):
        """§3.1: the GPU implementation is memory-bandwidth bound."""
        spec = BENCHMARKS["acoustic_4"]
        t = gpu_benchmark_time(spec, acoustic4_ops, GPU_SPECS["V100"], fused=False)
        assert t.bound["volume"] == "memory"
        assert t.bound["integration"] == "memory"

    def test_gpu_ordering(self, acoustic4_ops):
        """V100 < P100 < 1080Ti runtime (bandwidth ordering)."""
        spec = BENCHMARKS["acoustic_4"]
        times = {
            k: gpu_benchmark_time(spec, acoustic4_ops, g, False).stage_time_s
            for k, g in GPU_SPECS.items()
        }
        assert times["V100"] < times["P100"] < times["1080Ti"]

    def test_fused_faster(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        for g in GPU_SPECS.values():
            uf = gpu_benchmark_time(spec, acoustic4_ops, g, False).stage_time_s
            f = gpu_benchmark_time(spec, acoustic4_ops, g, True).stage_time_s
            assert f < uf

    def test_total_time_scales(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        t = gpu_benchmark_time(spec, acoustic4_ops, GPU_SPECS["V100"], False)
        assert t.total_time_s(200) == pytest.approx(2 * t.total_time_s(100))


class TestGpuEnergy:
    def test_power_below_tdp_plus_host(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        g = GPU_SPECS["V100"]
        timing = gpu_benchmark_time(spec, acoustic4_ops, g, False)
        e = gpu_benchmark_energy(timing, g, 100)
        assert 0 < e.gpu_energy_j
        gpu_power = e.gpu_energy_j / e.time_s
        assert gpu_power < g.tdp_w

    def test_energy_additive(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        g = GPU_SPECS["1080Ti"]
        timing = gpu_benchmark_time(spec, acoustic4_ops, g, False)
        e = gpu_benchmark_energy(timing, g, 100)
        assert e.energy_j == pytest.approx(e.gpu_energy_j + e.host_energy_j)


class TestCpuBaseline:
    def test_cpu_much_slower_than_gpu(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        cpu_t = cpu_benchmark_time(spec, acoustic4_ops, 64)
        gpu_t = gpu_benchmark_time(spec, acoustic4_ops, GPU_SPECS["1080Ti"], False)
        assert cpu_t / gpu_t.total_time_s(64) > 20

    def test_cache_cliff_level5(self):
        """Level 5 exceeds the LLC: CPU degrades superlinearly (§3.1's
        widening GPU speedups at level 5)."""
        l4 = count_benchmark(BENCHMARKS["acoustic_4"], order=ORDER)
        l5 = count_benchmark(BENCHMARKS["acoustic_5"], order=ORDER)
        t4 = cpu_stage_time(BENCHMARKS["acoustic_4"], l4)
        t5 = cpu_stage_time(BENCHMARKS["acoustic_5"], l5)
        assert t5 > 8 * t4 * 1.5  # more than the pure size ratio

    def test_cpu_energy(self, acoustic4_ops):
        spec = BENCHMARKS["acoustic_4"]
        e = cpu_benchmark_energy(spec, acoustic4_ops, 16)
        t = cpu_benchmark_time(spec, acoustic4_ops, 16)
        assert e == pytest.approx(0.85 * CPU_BASELINE.tdp_w * t)

    def test_spec_properties(self):
        assert CPU_BASELINE.peak_flops > 1e12
        assert CPU_BASELINE.effective_flops < CPU_BASELINE.peak_flops
