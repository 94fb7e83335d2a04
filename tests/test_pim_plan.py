"""Execution plans as the universal execution path: bit-identity everywhere.

The contract under test (DESIGN.md §13): *every* ``ChipExecutor.run`` —
analytic, functional, and fault-injecting — replays a lowered
:class:`~repro.pim.plan.ExecutionPlan`; ``run(..., serial=True)`` walks
the same plan one instruction at a time as the audit reference.  The
vectorized segment fold must be *bit-identical* to that reference on
every paper benchmark: same :class:`TimingReport` (totals,
phase split, interconnect accounting, dict key order), same block states
after functional execution, same fault-event digests under a seeded fault
model.  Plans transparently re-lower when the chip's routing epoch moves,
and the MASIM-style makespan scheduler (:mod:`repro.pim.schedule`) may
only emit permutations the dependency DAG proves legal (PL004).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.programs import build_check_program
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor, ExecutionPlan
from repro.pim.isa import Opcode
from repro.pim.params import CHIP_CONFIGS
from repro.pim.plan import fold_array, lower_program
from repro.workloads.benchmarks import BENCHMARKS


def _run_mode(program, mode, chip_name="2GB", functional=False, fault_cfg=None):
    """One fresh executor per mode: clocks all start at t=0.

    Returns ``(chip, executor, report)`` so callers can compare block
    states and fault-event digests, not just reports.
    """
    chip = PimChip(CHIP_CONFIGS[chip_name])
    faults = None
    if fault_cfg is not None:
        from repro.faults.model import FaultModel

        faults = FaultModel(fault_cfg)
    ex = ChipExecutor(chip, faults=faults)
    rep = ex.run(program, functional=functional, serial=(mode == "serial"))
    return chip, ex, rep


def _state_digest(chip):
    """sha256 over every materialized block's data, in (tile, block) order."""
    h = hashlib.sha256()
    for tid in sorted(chip._tiles):
        tile = chip._tiles[tid]
        for lid in sorted(tile._blocks):
            h.update(tile._blocks[lid].data.tobytes())
    return h.hexdigest()


def _assert_reports_identical(a, b, what):
    """Field-by-field bit-identity, incl. dict key order (fold order)."""
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert va == vb, f"{what}: TimingReport.{f.name} diverged"
        if isinstance(va, dict):
            assert list(va) == list(vb), f"{what}: {f.name} key order diverged"
    assert a.phase_times() == b.phase_times(), f"{what}: phase_times diverged"
    assert list(a.phase_times()) == list(b.phase_times())


def _benchmark_program(key):
    spec = BENCHMARKS[key]
    return build_check_program(
        spec.physics, spec.refinement_level, chip="2GB",
        flux_kind=spec.flux_kind, order=2,
    ).program


class TestBenchmarkBitIdentity:
    """All six paper benchmarks: serial audit == plan replay, bit for bit —
    analytic, functional, and under a seeded fault model (the satellite
    sweep that proves plan replay is safe as the only execution path)."""

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_analytic_plan_matches_serial(self, key):
        program = _benchmark_program(key)
        _, _, serial = _run_mode(program, "serial")
        _, _, plan = _run_mode(program, "plan")
        _assert_reports_identical(serial, plan, f"{key} plan")
        # the headline fields the acceptance criteria name, explicitly:
        assert plan.total_time_s == serial.total_time_s
        assert plan.dynamic_energy_j == serial.dynamic_energy_j
        assert plan.transfers == serial.transfers
        assert plan.flits == serial.flits
        assert plan.hops == serial.hops

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_functional_plan_matches_serial(self, key):
        program = _benchmark_program(key)
        chip_s, _, serial = _run_mode(program, "serial", functional=True)
        chip_p, _, plan = _run_mode(program, "plan", functional=True)
        _assert_reports_identical(serial, plan, f"{key} functional")
        assert _state_digest(chip_p) == _state_digest(chip_s)

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_faulty_plan_matches_serial(self, key):
        from repro.faults.model import FaultConfig

        program = _benchmark_program(key)
        cfg = FaultConfig.at_rate(1e-4, seed=11)
        chip_s, ex_s, serial = _run_mode(program, "serial", functional=True,
                                         fault_cfg=cfg)
        chip_p, ex_p, plan = _run_mode(program, "plan", functional=True,
                                       fault_cfg=cfg)
        _assert_reports_identical(serial, plan, f"{key} faulty")
        assert ex_p.faults.event_digest() == ex_s.faults.event_digest()
        assert _state_digest(chip_p) == _state_digest(chip_s)


@pytest.fixture
def acoustic_program():
    checked = build_check_program("acoustic", 4, chip="2GB", order=2)
    return checked.program


class TestLowering:
    def test_plan_shape(self, acoustic_program):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        assert isinstance(plan, ExecutionPlan)
        assert plan.n_instructions == len(acoustic_program)
        n_xfer = sum(1 for i in acoustic_program if i.op is Opcode.TRANSFER)
        assert plan.n_transfers == n_xfer
        # every instruction lands in exactly one step
        covered = plan.n_dispatch + plan.n_transfers + sum(
            p.n for kind, p in plan.steps if kind == 0
        )
        assert covered == len(acoustic_program)
        assert 0.0 < plan.vectorized_fraction <= 1.0
        assert plan.chip_name == "2GB"

    def test_opcode_rows_match_stream(self, acoustic_program):
        from repro.pim.plan import OP_IDS

        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        for row, inst in zip(plan.array, acoustic_program):
            assert int(row["op"]) == OP_IDS[inst.op]

    def test_plan_reuse_counts(self, acoustic_program):
        from repro.obs import get_metrics

        m = get_metrics()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        runs0 = m.value("executor.plan.runs")
        lowered0 = m.value("executor.plan.lowered")
        plan = ex.lower(acoustic_program)
        ex.run(plan, functional=False)
        ex.run(plan, functional=False)
        ex.run(plan, functional=False)
        assert plan.replays == 3
        assert m.value("executor.plan.runs") - runs0 == 3
        assert m.value("executor.plan.lowered") - lowered0 == 1

    def test_replays_are_self_identical(self, acoustic_program):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        first = ex.run(plan, functional=False)
        ex.reset_clocks()
        second = ex.run(plan, functional=False)
        _assert_reports_identical(first, second, "replay")

    def test_lower_verify_runs_checker(self, acoustic_program):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program, verify=True)
        assert plan.n_instructions == len(acoustic_program)


class TestUniversalPath:
    """Plan replay is the only execution path; ``serial=True`` is the audit."""

    def test_functional_run_takes_plan_path(self, acoustic_program):
        from repro.obs import get_metrics

        m = get_metrics()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        runs0 = m.value("executor.plan.runs")
        rep = ex.run(plan, functional=True)
        assert m.value("executor.plan.runs") == runs0 + 1
        # ...and it matches the serial audit reference exactly.
        chip2 = PimChip(CHIP_CONFIGS["2GB"])
        ex2 = ChipExecutor(chip2)
        raw = ex2.run(acoustic_program, functional=True, serial=True)
        _assert_reports_identical(rep, raw, "functional plan")
        assert _state_digest(ex.chip) == _state_digest(chip2)

    def test_fault_model_stays_on_plan_path(self, acoustic_program):
        from repro.faults.model import FaultConfig, FaultModel
        from repro.obs import get_metrics

        m = get_metrics()
        # an *enabled* fault model (nonzero rate) also replays the plan
        cfg = FaultConfig(seed=7, flip_rate=1e-5)
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]),
                          faults=FaultModel(cfg))
        plan = ex.lower(acoustic_program)
        runs0 = m.value("executor.plan.runs")
        rep = ex.run(plan, functional=False)
        assert m.value("executor.plan.runs") == runs0 + 1
        # bit-identical to the serial audit: same seed, same report
        ex2 = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]),
                           faults=FaultModel(FaultConfig(seed=7, flip_rate=1e-5)))
        raw = ex2.run(acoustic_program, functional=False, serial=True)
        _assert_reports_identical(rep, raw, "fault plan")
        assert ex.faults.event_digest() == ex2.faults.event_digest()

    def test_serial_runs_are_counted(self, acoustic_program):
        from repro.obs import get_metrics

        m = get_metrics()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        serial0 = m.value("executor.serial.runs")
        plan0 = m.value("executor.plan.runs")
        ex.run(acoustic_program, functional=False, serial=True)
        assert m.value("executor.serial.runs") == serial0 + 1
        assert m.value("executor.plan.runs") == plan0


class TestStaleRoutes:
    """Satellite 1: a routing-epoch bump must never replay stale paths."""

    def test_invalidate_routes_bumps_epoch(self):
        chip = PimChip(CHIP_CONFIGS["512MB"])
        e0 = chip.routing_epoch
        chip.transfer_path(0, 5)  # populate the memo
        chip.invalidate_routes()
        assert chip.routing_epoch == e0 + 1

    def test_stale_plan_relowers_transparently(self, acoustic_program):
        from repro.obs import get_metrics

        m = get_metrics()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        fresh = ex.run(plan, functional=False)
        ex.chip.invalidate_routes()
        relowered0 = m.value("executor.plan.relowered")
        ex.reset_clocks()
        after = ex.run(plan, functional=False)
        assert m.value("executor.plan.relowered") == relowered0 + 1
        # same topology, so the re-lowered schedule is the same schedule
        _assert_reports_identical(fresh, after, "re-lowered")

    def test_mapper_remap_invalidates_chip_routes(self):
        """An ElementMapper spare-block remap bumps the live chip's epoch."""
        from repro.core.mapper import ElementMapper

        class _RemapFaults:
            """Stub: block 0 is bad, so every mapped block shifts by one."""

            def __init__(self):
                self.recorded = []

            def bad_blocks(self, n_blocks, block_rows, row_words):
                return {0}

            def record_remaps(self, n, detail=""):
                self.recorded.append((n, detail))

        cfg = CHIP_CONFIGS["512MB"]
        chip = PimChip(cfg)
        e0 = chip.routing_epoch
        faults = _RemapFaults()
        mapper = ElementMapper(2, cfg, 1, fault_model=faults,
                               chip_model=chip)
        assert faults.recorded, "stub never saw the remap"
        assert chip.routing_epoch == e0 + 1
        assert mapper.block_of(int(mapper.elements[0])) != 0

    def test_plan_records_lowering_epoch(self, acoustic_program):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        ex.chip.invalidate_routes()
        plan = ex.lower(acoustic_program)
        assert plan.routing_epoch == ex.chip.routing_epoch >= 1


class TestScheduler:
    """MASIM-style makespan scheduling: legal, deterministic, never worse."""

    @staticmethod
    def _lowered(program, chip_name="2GB"):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS[chip_name]))
        return ex, ex.lower(program)

    def test_dependency_edges_raw_waw_war(self):
        from repro.pim.isa import Instruction
        from repro.pim.schedule import dependency_edges

        prog = [
            Instruction(Opcode.BROADCAST, block=0, rows=(0, 8), dst=1, value=1.0),
            Instruction(Opcode.BROADCAST, block=0, rows=(0, 8), dst=2, value=2.0),
            Instruction(Opcode.ADD, block=0, rows=(0, 8), dst=3, src1=1, src2=2),
            Instruction(Opcode.BROADCAST, block=0, rows=(0, 8), dst=1, value=9.0),
            Instruction(Opcode.BROADCAST, block=1, rows=(0, 8), dst=1, value=5.0),
        ]
        preds = dependency_edges(prog)
        assert preds[0] == [] and preds[1] == []
        assert preds[2] == [0, 1]           # RAW on cols 1 and 2
        assert 2 in preds[3]                # WAR: rewrite col 1 after the read
        assert preds[4] == []               # different block: independent

    def test_barrier_is_a_full_fence(self):
        from repro.pim.isa import Instruction, barrier
        from repro.pim.schedule import dependency_edges

        prog = [
            Instruction(Opcode.BROADCAST, block=0, rows=(0, 4), dst=1, value=1.0),
            barrier(),
            Instruction(Opcode.BROADCAST, block=7, rows=(0, 4), dst=1, value=2.0),
        ]
        preds = dependency_edges(prog)
        assert preds[1] == [0]
        assert preds[2] == [1]  # fenced even though the blocks are disjoint

    def test_verify_order_rejects_violations(self):
        from repro.pim.schedule import verify_order

        preds = [[], [0], [1]]
        assert verify_order(preds, [0, 1, 2]) == []
        assert verify_order(preds, [1, 0, 2])  # 1 before its dep 0
        assert verify_order(preds, [0, 0, 2])  # not a permutation

    def test_schedule_order_is_legal_and_deterministic(self, acoustic_program):
        from repro.pim.schedule import dependency_edges, schedule_order, verify_order

        ex, plan = self._lowered(acoustic_program)
        preds = dependency_edges(plan.instructions)
        order = schedule_order(ex, plan, preds)
        assert verify_order(preds, order) == []
        assert order == schedule_order(ex, plan, preds)

    def test_schedule_plan_never_worse_and_reports_stats(self, acoustic_program):
        from repro.pim.schedule import schedule_plan

        ex, plan = self._lowered(acoustic_program)
        sched = schedule_plan(ex, plan)
        stats = sched.schedule_stats
        assert stats is not None
        assert stats["scheduled_makespan_s"] <= stats["emission_makespan_s"]
        assert stats["improvement"] >= 1.0
        assert stats["kept"] == (stats["improvement"] > 1.0)
        assert len(stats["permutation"]) == plan.n_instructions
        # the scheduled plan replays like any other plan
        ex.reset_clocks()
        rep = ex.run(sched, functional=False)
        clock = ex.chip.config.clock_hz
        assert rep.total_time_s == pytest.approx(
            stats["scheduled_makespan_s"], rel=1e-12)
        assert rep.makespan_cycles == pytest.approx(
            rep.total_time_s * clock, rel=1e-12)
        assert rep.emission_makespan_cycles == pytest.approx(
            stats["emission_makespan_s"] * clock, rel=1e-12)

    def test_scheduled_functional_state_matches_serial(self, acoustic_program):
        from repro.pim.schedule import schedule_plan

        chip_s, _, _ = _run_mode(acoustic_program, "serial", functional=True)
        chip_p = PimChip(CHIP_CONFIGS["2GB"])
        ex = ChipExecutor(chip_p)
        sched = schedule_plan(ex, ex.lower(acoustic_program))
        ex.reset_clocks()
        ex.run(sched, functional=True)
        assert _state_digest(chip_p) == _state_digest(chip_s)

    def test_repro_sched_knob(self, monkeypatch):
        from repro.pim.schedule import schedule_enabled

        monkeypatch.delenv("REPRO_SCHED", raising=False)
        assert not schedule_enabled()  # default off
        for on in ("on", "1", "true", "yes", " ON "):
            monkeypatch.setenv("REPRO_SCHED", on)
            assert schedule_enabled()
        monkeypatch.setenv("REPRO_SCHED", "off")
        assert not schedule_enabled()

    @pytest.mark.parametrize("key", sorted(BENCHMARKS)[:2])
    def test_pl004_clean_on_benchmarks(self, key):
        from repro.analysis.checker import CheckContext
        from repro.analysis.lowering import LoweringPass

        program = _benchmark_program(key)
        chip = PimChip(CHIP_CONFIGS["2GB"])
        findings = LoweringPass().run(program, CheckContext.for_chip(chip))
        assert [f for f in findings if f.code == "PL004"] == []


class TestFoldArray:
    """fold_array is a strict sequential left-fold, bit for bit."""

    def test_matches_sequential_left_fold(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 64, 65, 500):
            vals = rng.standard_normal(n) * 1e-6
            base = 0.125
            acc = base
            for v in vals:
                acc = acc + v
            assert fold_array(base, vals) == acc  # bitwise, not approx

    def test_empty_values(self):
        assert fold_array(1.5, np.array([])) == 1.5


class TestLintRules:
    """The repo lint rejects dispatch loops (RL004), _dispatch leaks (RL005)
    and plan-walker call sites outside the executors (RL008)."""

    @staticmethod
    def _lint(tmp_path, rel, source):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "lint_repo", Path(__file__).resolve().parents[1] / "scripts" / "lint_repo.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return [v[2] for v in mod._lint_file(path, tmp_path)]

    def test_flags_dispatch_loop(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f(insts):\n"
                           "    for i in insts:\n"
                           "        if i.op == 1:\n"
                           "            pass\n")
        assert "RL004" in codes

    def test_allows_executor_and_comprehensions(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/pim/executor.py",
                           "def f(insts):\n"
                           "    for i in insts:\n"
                           "        x = i.op\n")
        assert "RL004" not in codes
        codes = self._lint(tmp_path, "src/repro/core/ok.py",
                           "def f(insts):\n"
                           "    return [i for i in insts if i.op == 1]\n")
        assert "RL004" not in codes

    def test_scheduler_may_walk_streams(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/pim/schedule.py",
                           "def f(insts):\n"
                           "    for i in insts:\n"
                           "        x = i.op\n")
        assert "RL004" not in codes

    def test_flags_dispatch_reference_outside_executor(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f(ex, inst):\n"
                           "    return ex._dispatch(inst, True, None)\n")
        assert "RL005" in codes

    def test_allows_dispatch_inside_executor(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/pim/executor.py",
                           "def f(ex, inst):\n"
                           "    return ex._dispatch(inst, True, None)\n")
        assert "RL005" not in codes

    @pytest.mark.parametrize("attr", ["_run_plan", "_walk_plan"])
    def test_flags_plan_walker_reference_outside_executors(self, tmp_path, attr):
        src = f"def f(ex, plan, rep):\n    ex.{attr}(plan, False, rep)\n"
        assert "RL008" in self._lint(tmp_path, "src/repro/core/bad.py", src)
        assert "RL008" not in self._lint(tmp_path, "src/repro/pim/executor.py", src)
        assert "RL008" not in self._lint(tmp_path, "src/repro/pim/multichip.py", src)

    def test_flags_silent_broad_except(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f():\n"
                           "    try:\n"
                           "        g()\n"
                           "    except Exception:\n"
                           "        pass\n")
        assert "RL007" in codes

    def test_flags_bare_except_and_tuple(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f():\n"
                           "    try:\n"
                           "        g()\n"
                           "    except:\n"
                           "        ...\n")
        assert "RL007" in codes
        codes = self._lint(tmp_path, "src/repro/core/bad2.py",
                           "def f():\n"
                           "    try:\n"
                           "        g()\n"
                           "    except (ValueError, Exception):\n"
                           "        pass\n")
        assert "RL007" in codes

    def test_allows_narrow_or_logging_except(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/ok.py",
                           "def f():\n"
                           "    try:\n"
                           "        g()\n"
                           "    except ValueError:\n"
                           "        pass\n")
        assert "RL007" not in codes
        codes = self._lint(tmp_path, "src/repro/core/ok2.py",
                           "def f(log):\n"
                           "    try:\n"
                           "        g()\n"
                           "    except Exception:\n"
                           "        log.warning('g failed')\n")
        assert "RL007" not in codes


class TestRouteTable:
    def test_matches_inline_resolution(self):
        from repro.interconnect import HTree, Transfer, schedule_transfers
        from repro.interconnect.routing import RouteTable

        h = HTree(64)
        transfers = [Transfer(i, (i * 7 + 3) % 64, 32) for i in range(50)]
        plain = schedule_transfers(h, transfers)
        routes = RouteTable(h)
        memo = schedule_transfers(h, transfers, routes=routes)
        assert plain.makespan == memo.makespan
        assert plain.switch_busy_time == memo.switch_busy_time
        assert plain.n_transfers == memo.n_transfers
        assert len(routes._paths) > 0

    def test_invalidate_clears_and_bumps(self):
        from repro.interconnect import HTree
        from repro.interconnect.routing import RouteTable

        routes = RouteTable(HTree(64))
        routes.path(0, 9)
        assert routes._paths
        e0 = routes.epoch
        routes.invalidate()
        assert not routes._paths
        assert routes.epoch == e0 + 1

    def test_rejects_foreign_interconnect(self):
        from repro.interconnect import HTree, Transfer, schedule_transfers
        from repro.interconnect.routing import RouteTable

        with pytest.raises(ValueError):
            schedule_transfers(HTree(64), [Transfer(0, 1, 32)],
                               routes=RouteTable(HTree(16)))


class TestLowerProgramDirect:
    def test_rejects_transfer_without_source(self):
        from repro.pim.isa import Instruction

        chip = PimChip(CHIP_CONFIGS["512MB"])
        ex = ChipExecutor(chip)
        bad = [Instruction(op=Opcode.TRANSFER, block=1, dst=0, src1=0,
                           rows=(0, 4), words=1)]
        with pytest.raises(ValueError):
            lower_program(chip, ex.costs, bad)
