"""Chip geometry, executor timing/energy semantics, HBM, power tables."""

import numpy as np
import pytest

from repro.pim.chip import PimChip
from repro.pim.energy import EnergyAccount, chip_power_table
from repro.pim.executor import ChipExecutor
from repro.pim.hbm import HbmModel
from repro.pim.isa import Instruction, Opcode
from repro.pim.params import CHIP_CONFIGS, ChipConfig, GB, MB


class TestChipConfig:
    def test_geometry_2gb(self):
        cfg = CHIP_CONFIGS["2GB"]
        assert cfg.block_bytes == 128 * 1024
        assert cfg.tile_bytes == 32 * MB
        assert cfg.n_tiles == 64
        assert cfg.n_blocks == 16384
        assert cfg.row_words == 32

    def test_max_parallelism_paper(self):
        """§7.1: 2GB / 1024b = 16M parallel operations."""
        assert CHIP_CONFIGS["2GB"].max_parallel_ops == 16 * 1024 * 1024

    def test_all_sizes(self):
        for name, blocks in (("512MB", 4096), ("2GB", 16384), ("8GB", 65536), ("16GB", 131072)):
            assert CHIP_CONFIGS[name].n_blocks == blocks

    def test_rejects_partial_tile(self):
        with pytest.raises(ValueError):
            ChipConfig(name="odd", capacity_bytes=33 * MB)

    def test_rejects_bad_interconnect(self):
        with pytest.raises(ValueError):
            ChipConfig(name="x", capacity_bytes=GB, interconnect="mesh")

    def test_with_interconnect(self):
        cfg = CHIP_CONFIGS["2GB"].with_interconnect("bus")
        assert cfg.interconnect == "bus"
        assert CHIP_CONFIGS["2GB"].interconnect == "htree"  # original untouched


class TestChip:
    def test_locate_roundtrip(self):
        chip = PimChip(CHIP_CONFIGS["512MB"])
        for g in (0, 255, 256, 4095):
            tile, local = chip.locate(g)
            assert tile * 256 + local == g

    def test_locate_bounds(self):
        chip = PimChip(CHIP_CONFIGS["512MB"])
        with pytest.raises(IndexError):
            chip.locate(4096)

    def test_lazy_blocks(self):
        chip = PimChip(CHIP_CONFIGS["512MB"])
        chip.block(0)
        chip.block(300)
        assert chip.tile(0).materialized_blocks == 1
        assert chip.tile(1).materialized_blocks == 1

    def test_static_power_recomputes_table3(self):
        chip = PimChip(CHIP_CONFIGS["2GB"])
        total = chip.static_power_w()
        # paper prints 115.02 W; component re-derivation lands within 2%
        assert total == pytest.approx(115.02, rel=0.02)
        bus = PimChip(CHIP_CONFIGS["2GB"].with_interconnect("bus")).static_power_w()
        assert bus == pytest.approx(109.25, rel=0.02)
        assert bus < total


class TestPowerTable:
    def test_block_power_sums(self):
        rows = chip_power_table(CHIP_CONFIGS["2GB"])
        assert rows["memory_block_w"] == pytest.approx(8.83e-3)
        assert rows["tile_memory_w"] == pytest.approx(1.57, rel=0.01)
        assert rows["htree_switch_count"] == 85

    def test_htree_vs_bus_delta(self):
        """The paper's 115.02 - 109.25 = 5.77 W gap is 64 tiles' switch
        power difference — exactly reproduced."""
        rows = chip_power_table(CHIP_CONFIGS["2GB"])
        delta = rows["total_w_htree"] - rows["total_w_bus"]
        expect = 64 * (rows["htree_switches_w"] - rows["bus_switch_w"])
        assert delta == pytest.approx(expect)
        assert delta == pytest.approx(115.02 - 109.25, rel=0.01)


class TestEnergyAccount:
    def test_accumulates(self):
        acc = EnergyAccount()
        acc.add("static", 1.0)
        acc.add("dynamic", 2.0)
        acc.add("static", 0.5)
        assert acc.total_j == pytest.approx(3.5)
        assert acc.breakdown()["static"] == pytest.approx(1.5 / 3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyAccount().add("x", -1.0)

    def test_merge(self):
        a, b = EnergyAccount(), EnergyAccount()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.components == {"x": 3.0, "y": 3.0}


class TestHbm:
    def test_bandwidth(self):
        h = HbmModel()
        t = h.transfer_time_s(900e9)
        assert t == pytest.approx(1.0 + h.latency_s)

    def test_zero_bytes_free(self):
        assert HbmModel().transfer_time_s(0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            HbmModel().transfer_time_s(-1)

    def test_energy(self):
        h = HbmModel()
        assert h.transfer_energy_j(1e9) == pytest.approx(h.transfer_time_s(1e9) * h.power_w)


class TestExecutor:
    def _chip(self):
        return PimChip(CHIP_CONFIGS["512MB"])

    def test_arith_functional_and_timing(self):
        chip = self._chip()
        ex = ChipExecutor(chip)
        blk = chip.block(0)
        blk.broadcast((0, 4), 1, np.array([1, 2, 3, 4], dtype=np.float32))
        blk.broadcast((0, 4), 2, 10.0)
        rep = ex.run([Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=3, src1=1, src2=2)])
        assert np.allclose(chip.block(0).data[0:4, 3], [11, 12, 13, 14])
        assert rep.total_time_s == pytest.approx(ex.costs.time_s("add"))
        assert rep.dynamic_energy_j > 0

    def test_latency_independent_of_rows(self):
        chip = self._chip()
        ex = ChipExecutor(chip)
        r1 = ex.run([Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=3, src1=1, src2=2)],
                    functional=False)
        ex2 = ChipExecutor(self._chip())
        r2 = ex2.run([Instruction(Opcode.ADD, block=0, rows=(0, 512), dst=3, src1=1, src2=2)],
                     functional=False)
        assert r1.total_time_s == pytest.approx(r2.total_time_s)

    def test_energy_scales_with_rows(self):
        ex = ChipExecutor(self._chip())
        r1 = ex.run([Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=3, src1=1, src2=2)],
                    functional=False)
        ex2 = ChipExecutor(self._chip())
        r2 = ex2.run([Instruction(Opcode.ADD, block=0, rows=(0, 8), dst=3, src1=1, src2=2)],
                     functional=False)
        assert r2.dynamic_energy_j == pytest.approx(2 * r1.dynamic_energy_j)

    def test_blocks_run_in_parallel(self):
        ex = ChipExecutor(self._chip())
        insts = [
            Instruction(Opcode.ADD, block=b, rows=(0, 4), dst=3, src1=1, src2=2)
            for b in range(8)
        ]
        rep = ex.run(insts, functional=False)
        assert rep.total_time_s == pytest.approx(ex.costs.time_s("add"))

    def test_same_block_serializes(self):
        ex = ChipExecutor(self._chip())
        insts = [
            Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=3, src1=1, src2=2)
            for _ in range(3)
        ]
        rep = ex.run(insts, functional=False)
        assert rep.total_time_s == pytest.approx(3 * ex.costs.time_s("add"))

    def test_transfer_moves_data(self):
        chip = self._chip()
        ex = ChipExecutor(chip)
        chip.block(2).broadcast((0, 4), 5, np.array([1, 2, 3, 4], dtype=np.float32))
        rep = ex.run([
            Instruction(Opcode.TRANSFER, block=7, src_block=2, rows=(0, 4),
                        src_rows=(0, 4), dst=1, src1=5, words=1)
        ])
        assert np.allclose(chip.block(7).data[0:4, 1], [1, 2, 3, 4])
        assert rep.total_time_s > 0

    def test_transfer_row_maps(self):
        chip = self._chip()
        ex = ChipExecutor(chip)
        chip.block(0).broadcast((0, 8), 2, np.arange(8, dtype=np.float32))
        src_rows = np.array([7, 5, 3])
        dst_rows = np.array([0, 1, 2])
        ex.run([
            Instruction(Opcode.TRANSFER, block=1, src_block=0, rows=dst_rows,
                        src_rows=src_rows, dst=0, src1=2, words=1)
        ])
        assert np.allclose(chip.block(1).data[0:3, 0], [7, 5, 3])

    def test_transfer_requires_src(self):
        ex = ChipExecutor(self._chip())
        with pytest.raises(ValueError):
            ex.run([Instruction(Opcode.TRANSFER, block=1, rows=(0, 4), dst=0, src1=0)])

    def test_barrier_synchronizes(self):
        ex = ChipExecutor(self._chip())
        insts = [
            Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=3, src1=1, src2=2),
            Instruction(Opcode.BARRIER),
            Instruction(Opcode.ADD, block=1, rows=(0, 4), dst=3, src1=1, src2=2),
        ]
        rep = ex.run(insts, functional=False)
        assert rep.total_time_s == pytest.approx(2 * ex.costs.time_s("add"))

    def test_gather_cost_uses_unique_sources(self):
        ex = ChipExecutor(self._chip())
        same = np.zeros(64, dtype=np.int64)
        spread = np.arange(64, dtype=np.int64)
        r1 = ex.run([Instruction(Opcode.GATHER, block=0, rows=(0, 64), dst=1, src1=0,
                                 row_map=same)], functional=False)
        ex2 = ChipExecutor(self._chip())
        r2 = ex2.run([Instruction(Opcode.GATHER, block=0, rows=(0, 64), dst=1, src1=0,
                                  row_map=spread)], functional=False)
        assert r1.total_time_s < r2.total_time_s

    def test_hostop_and_dram_lanes(self):
        ex = ChipExecutor(self._chip())
        rep = ex.run([
            Instruction(Opcode.HOSTOP, count=1000, tag="host"),
            Instruction(Opcode.DRAM_LOAD, block=0, meta={"bytes": 1e6}, tag="dram"),
        ], functional=False)
        assert rep.host_busy_s > 0
        assert rep.dram_busy_s > 0

    def test_lut_instruction_functional(self):
        chip = self._chip()
        ex = ChipExecutor(chip)
        lut_block = chip.block(3)
        lut_block.data[0, :4] = [10.0, 11.0, 12.0, 13.0]
        req = chip.block(0)
        req.data[5, 2] = 3  # index
        rep = ex.run([
            Instruction(Opcode.LUT, block=0, src_block=3, rows=(5, 6), src1=2, dst=4)
        ])
        assert req.data[5, 4] == 13.0
        assert rep.total_time_s > 0

    def test_report_merge(self):
        ex = ChipExecutor(self._chip())
        r1 = ex.run([Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=3, src1=1, src2=2)],
                    functional=False)
        n1 = r1.n_instructions
        r1.merge(r1)
        assert r1.n_instructions == 2 * n1


class TestTimingReportMerge:
    def _report(self, seed: int):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
        insts = [
            Instruction(Opcode.ADD, block=seed % 4, rows=(0, 4), dst=3, src1=1,
                        src2=2, tag="volume"),
            Instruction(Opcode.MUL, block=(seed + 1) % 4, rows=(0, 8), dst=4,
                        src1=3, src2=2, tag="flux"),
            Instruction(Opcode.COPY, block=seed % 4, rows=(0, 4), dst=5, src1=3,
                        tag="volume"),
        ]
        return ex.run(insts, functional=False)

    def test_merge_covers_all_accounting_dicts(self):
        a, b = self._report(0), self._report(1)
        expect_time = {t: a.time_by_tag.get(t, 0.0) + b.time_by_tag.get(t, 0.0)
                       for t in set(a.time_by_tag) | set(b.time_by_tag)}
        expect_energy = {t: a.energy_by_tag.get(t, 0.0) + b.energy_by_tag.get(t, 0.0)
                         for t in set(a.energy_by_tag) | set(b.energy_by_tag)}
        expect_ops = {o: a.op_counts.get(o, 0) + b.op_counts.get(o, 0)
                      for o in set(a.op_counts) | set(b.op_counts)}
        expect_busy = {k: a.block_busy_s.get(k, 0.0) + b.block_busy_s.get(k, 0.0)
                       for k in set(a.block_busy_s) | set(b.block_busy_s)}
        total = a.total_time_s + b.total_time_s
        energy = a.dynamic_energy_j + b.dynamic_energy_j
        n = a.n_instructions + b.n_instructions

        a.merge(b)
        assert dict(a.time_by_tag) == expect_time
        assert dict(a.energy_by_tag) == expect_energy
        assert dict(a.op_counts) == expect_ops
        assert dict(a.block_busy_s) == expect_busy
        assert a.total_time_s == total
        assert a.dynamic_energy_j == energy
        assert a.n_instructions == n

    def test_merge_accepts_plain_dict_report(self):
        from repro.pim.executor import TimingReport

        a = TimingReport(time_by_tag={"x": 1.0}, energy_by_tag={"x": 2.0},
                         op_counts={"add": 1}, block_busy_s={0: 1.0})
        b = TimingReport(time_by_tag={"y": 3.0}, energy_by_tag={"x": 1.0},
                         op_counts={"mul": 2}, block_busy_s={1: 2.0})
        a.merge(b)
        assert dict(a.time_by_tag) == {"x": 1.0, "y": 3.0}
        assert dict(a.energy_by_tag) == {"x": 3.0}
        assert dict(a.op_counts) == {"add": 1, "mul": 2}
        assert dict(a.block_busy_s) == {0: 1.0, 1: 2.0}


class TestPlanVsSerialExecutor:
    """Plan replay must be float-identical to the serial audit dispatcher."""

    def _stream(self):
        insts = []
        # long same-shape runs (the batchable case) ...
        for _ in range(100):
            insts.append(Instruction(Opcode.ADD, block=0, rows=(0, 64), dst=3,
                                     src1=1, src2=2, tag="volume"))
        for _ in range(70):
            insts.append(Instruction(Opcode.COPY, block=1, rows=(0, 32), dst=2,
                                     src1=1, tag="flux"))
        # ... interrupted by non-batchable / shape-changing instructions
        insts.append(Instruction(Opcode.BARRIER))
        for b in range(4):
            insts.append(Instruction(Opcode.SUB, block=b, rows=(0, 16), dst=4,
                                     src1=3, src2=1, tag="volume"))
        insts.append(Instruction(Opcode.TRANSFER, block=5, src_block=0,
                                 rows=(0, 8), src_rows=(0, 8), dst=1, src1=3,
                                 words=1, tag="fetch"))
        for _ in range(33):
            insts.append(Instruction(Opcode.MUL, block=2, rows=(0, 64), dst=5,
                                     src1=3, src2=1, tag="integration"))
        insts.append(Instruction(Opcode.HOSTOP, count=100, tag="host"))
        return insts

    def _boot(self, chip):
        rng = np.random.default_rng(7)
        for b in range(6):
            blk = chip.block(b)
            blk.data[0:64, 1:4] = rng.standard_normal((64, 3)).astype(np.float32)
        return ChipExecutor(chip)

    @pytest.mark.parametrize("functional", [False, True])
    def test_plan_matches_serial_exactly(self, functional):
        chip_s = PimChip(CHIP_CONFIGS["512MB"])
        chip_b = PimChip(CHIP_CONFIGS["512MB"])
        ex_s, ex_b = self._boot(chip_s), self._boot(chip_b)
        serial = ex_s.run(self._stream(), functional=functional, serial=True)
        plan = ex_b.run(self._stream(), functional=functional)

        assert plan.total_time_s == serial.total_time_s
        assert plan.dynamic_energy_j == serial.dynamic_energy_j
        assert dict(plan.time_by_tag) == dict(serial.time_by_tag)
        assert dict(plan.energy_by_tag) == dict(serial.energy_by_tag)
        assert dict(plan.op_counts) == dict(serial.op_counts)
        assert dict(plan.block_busy_s) == dict(serial.block_busy_s)
        assert plan.host_busy_s == serial.host_busy_s
        assert plan.n_instructions == serial.n_instructions
        if functional:
            for b in range(6):
                assert np.array_equal(chip_s.block(b).data, chip_b.block(b).data)

    def test_plan_compile_stream_identical(self):
        """A real kernel stream (the compiler's hot path) prices identically."""
        from repro.core.kernels.acoustic import AcousticOneBlockKernels
        from repro.core.mapper import ElementMapper
        from repro.dg import AcousticMaterial, HexMesh, ReferenceElement

        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(2)
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        chip_cfg = CHIP_CONFIGS["512MB"]
        mapper = ElementMapper(mesh.m, chip_cfg, 1)
        kern = AcousticOneBlockKernels(mesh, elem, mat, mapper, "riemann")
        insts = kern.volume() + kern.flux() + kern.integration(0, 1e-4)

        serial = ChipExecutor(PimChip(chip_cfg)).run(insts, functional=False,
                                                     serial=True)
        plan = ChipExecutor(PimChip(chip_cfg)).run(insts, functional=False)
        assert plan.total_time_s == serial.total_time_s
        assert plan.dynamic_energy_j == serial.dynamic_energy_j
        assert dict(plan.time_by_tag) == dict(serial.time_by_tag)
        assert dict(plan.energy_by_tag) == dict(serial.energy_by_tag)
        assert dict(plan.op_counts) == dict(serial.op_counts)
        assert dict(plan.block_busy_s) == dict(serial.block_busy_s)
