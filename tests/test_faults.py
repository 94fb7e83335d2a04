"""Fault injection & fault-tolerant execution (``repro.faults``).

The contract under test, in order of importance:

1. **zero-overhead default** — with no fault model (or an all-zero
   config) every report and every block is bit-identical to the
   fault-free build;
2. **determinism** — same seed, same instruction stream => identical
   fault events, counts and digests;
3. **mitigation wins** — protected runs recover (``uncorrected == 0``,
   bit-exact solutions), unprotected runs visibly corrupt state;
4. **graceful degradation** — the spare-block remap shrinks capacity
   and eventually refuses with a clear error, never wrong answers;
5. **checkpoint/restart** — resuming from any step boundary reproduces
   the uninterrupted run bit-identically.
"""

import math

import numpy as np
import pytest

from repro.core.mapper import ElementMapper
from repro.dg.solver import SolverConfig, WaveSolver
from repro.faults import (
    Checkpoint,
    FaultConfig,
    FaultModel,
    read_checkpoint,
    write_checkpoint,
)
from repro.faults.campaign import (
    DEFAULT_RATES,
    STRICT_REL_TOL,
    run_campaign,
    strict_violations,
)
from repro.interconnect import HTree, Transfer, schedule_transfers
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Instruction, Opcode
from repro.pim.magic import NorMachine
from repro.pim.params import CHIP_CONFIGS
from repro.workloads.benchmarks import BENCHMARKS

CFG = CHIP_CONFIGS["512MB"]


def bcast(block=0, rows=(0, 8), dst=0, value=1.0, tag="setup"):
    return Instruction(Opcode.BROADCAST, block=block, rows=rows, dst=dst,
                       value=value, tag=tag)


def arith(block=0, rows=(0, 8), dst=2, src1=0, src2=1, op=Opcode.ADD,
          tag="volume"):
    return Instruction(op, block=block, rows=rows, dst=dst, src1=src1,
                       src2=src2, tag=tag)


def transfer(block=1, src_block=0, rows=(0, 8), dst=4, src1=2, words=1,
             tag="flux:fetch"):
    return Instruction(Opcode.TRANSFER, block=block, src_block=src_block,
                       rows=rows, src_rows=rows, dst=dst, src1=src1,
                       words=words, tag=tag)


def small_program(n_ops=10, distinct_dst=False):
    """BROADCAST two operands, then ``n_ops`` ADDs (+ one cross-block
    TRANSFER so the interconnect path is exercised too)."""
    prog = [bcast(dst=0, value=1.5), bcast(dst=1, value=2.25)]
    for i in range(n_ops):
        prog.append(arith(dst=2 + i if distinct_dst else 2))
    prog.append(transfer(src1=2, dst=4))
    return prog


def run_prog(prog, model=None, serial=False):
    chip = PimChip(CFG)
    ex = ChipExecutor(chip, faults=model)
    rep = ex.run(prog, functional=True, serial=serial)
    return chip, rep


def _same_cells(sa, sb):
    """Two ``stuck_cells`` results hold the same cells, dtypes included."""
    assert sa.keys() == sb.keys()
    for c in sa:
        for x, y in zip(sa[c], sb[c]):
            assert x.dtype == y.dtype and np.array_equal(x, y)


# --------------------------------------------------------------------- #
# config + model basics
# --------------------------------------------------------------------- #


class TestFaultConfig:
    def test_default_is_disabled(self):
        assert not FaultConfig().enabled

    def test_at_rate_enables_everything(self):
        cfg = FaultConfig.at_rate(1e-6, seed=3)
        assert cfg.enabled and cfg.any_transfer_faults
        assert cfg.stuck_cell_rate == cfg.flip_rate == 1e-6
        assert cfg.seed == 3 and cfg.protect

    def test_wearout_alone_enables(self):
        assert FaultConfig(wearout_nor_cycles=1e6).enabled

    def test_as_dict_serializes_infinite_budget(self):
        d = FaultConfig().as_dict()
        assert d["wearout_nor_cycles"] is None
        assert FaultConfig(wearout_nor_cycles=5.0).as_dict()["wearout_nor_cycles"] == 5.0


class TestDeterminism:
    def test_stuck_cells_reproducible_and_order_independent(self):
        a = FaultModel(FaultConfig(stuck_cell_rate=1e-5, seed=7))
        b = FaultModel(FaultConfig(stuck_cell_rate=1e-5, seed=7))
        # query in different orders: keyed substreams must not care
        blocks = [3, 0, 11]
        for blk in blocks:
            a.stuck_cells(blk, CFG.block_rows, CFG.row_words)
        for blk in reversed(blocks):
            b.stuck_cells(blk, CFG.block_rows, CFG.row_words)
        for blk in blocks:
            _same_cells(a.stuck_cells(blk, CFG.block_rows, CFG.row_words),
                        b.stuck_cells(blk, CFG.block_rows, CFG.row_words))

    def test_different_seeds_differ(self):
        a = FaultModel(FaultConfig(stuck_cell_rate=1e-4, seed=0))
        b = FaultModel(FaultConfig(stuck_cell_rate=1e-4, seed=1))
        def pattern(m):
            return {
                blk: {c: tuple(map(tuple, v)) for c, v in
                      m.stuck_cells(blk, CFG.block_rows, CFG.row_words).items()}
                for blk in range(4)
            }
        assert pattern(a) != pattern(b)

    def test_executor_run_digest_reproducible(self):
        prog = small_program(n_ops=30)
        digests, counts = [], []
        for _ in range(2):
            m = FaultModel(FaultConfig.at_rate(1e-3, seed=5))
            run_prog(prog, model=m)
            digests.append(m.event_digest())
            counts.append(dict(m.counts))
        assert digests[0] == digests[1]
        assert counts[0] == counts[1]

    def test_wearout_flags_blocks(self):
        m = FaultModel(FaultConfig(wearout_nor_cycles=100))
        m.record_nor(4, 60)
        assert m.worn_blocks == set()
        m.record_nor(4, 60)
        assert m.worn_blocks == {4}
        assert m.counts["wearouts"] == 1
        # flagged once, even with more wear
        m.record_nor(4, 60)
        assert m.counts["wearouts"] == 1


class TestBlockBitOps:
    def test_flip_bit_is_involutive(self):
        chip = PimChip(CFG)
        blk = chip.block(0)
        blk.data[3, 2] = 1.0
        before = blk.data[3, 2].copy()
        blk.flip_bit(3, 2, 31)
        assert blk.data[3, 2] != before  # sign bit flipped
        blk.flip_bit(3, 2, 31)
        assert blk.data[3, 2] == before

    def test_force_bits_sets_and_clears(self):
        chip = PimChip(CFG)
        blk = chip.block(0)
        rows = np.array([0, 1])
        bits = np.array([0, 0], dtype=np.uint32)
        blk.force_bits(rows, 5, bits, np.array([1, 0], dtype=np.uint32))
        u = blk.data.view(np.uint32)
        assert u[0, 5] & 1 == 1
        assert u[1, 5] & 1 == 0


# --------------------------------------------------------------------- #
# zero-overhead default
# --------------------------------------------------------------------- #


class TestZeroOverheadDefault:
    def test_disabled_model_is_bit_identical(self):
        prog = small_program(n_ops=20)
        chip0, rep0 = run_prog(prog, model=None)
        chip1, rep1 = run_prog(prog, model=FaultModel(FaultConfig()))
        assert rep1.total_time_s == rep0.total_time_s
        assert rep1.dynamic_energy_j == rep0.dynamic_energy_j
        assert rep1.time_by_tag == rep0.time_by_tag
        assert rep1.retries == 0 and rep1.faults_injected == 0
        for b in (0, 1):
            assert np.array_equal(chip1.block(b).data, chip0.block(b).data)

    def test_disabled_model_keeps_plan_mode(self):
        prog = small_program(n_ops=20)
        _, rep0 = run_prog(prog, model=None)
        _, rep1 = run_prog(prog, model=FaultModel(FaultConfig()))
        assert rep1.total_time_s == rep0.total_time_s

    def test_benchmark_proxy_bit_identical(self):
        # a real kernel program end to end, not just the micro stream
        from repro.faults.campaign import _Proxy

        spec = BENCHMARKS["acoustic_4"]
        base = _Proxy(spec, "htree", 1, 2, "512MB", 1)
        rep0, state0 = base.execute()
        withm = _Proxy(spec, "htree", 1, 2, "512MB", 1)
        rep1, state1 = withm.execute(fault_model=FaultModel(FaultConfig()))
        assert rep1.total_time_s == rep0.total_time_s
        assert rep1.dynamic_energy_j == rep0.dynamic_energy_j
        assert np.array_equal(state1, state0)


# --------------------------------------------------------------------- #
# transient flips
# --------------------------------------------------------------------- #


class TestFlips:
    def test_protected_flips_recompute_exactly(self):
        prog = small_program(n_ops=40)
        chip0, rep0 = run_prog(prog)
        m = FaultModel(FaultConfig(flip_rate=1e-5, seed=2, protect=True))
        chip1, rep1 = run_prog(prog, model=m)
        assert m.counts["injected"] > 0
        assert m.counts["corrected"] == m.counts["injected"]
        assert m.counts["uncorrected"] == 0
        # recompute + parity upkeep cost time, never correctness
        assert rep1.total_time_s > rep0.total_time_s
        for b in (0, 1):
            assert np.array_equal(chip1.block(b).data, chip0.block(b).data)

    def test_unprotected_flips_corrupt_state(self):
        # distinct destination columns so corrupted outputs survive to the
        # end instead of being overwritten by the next op
        prog = small_program(n_ops=20, distinct_dst=True)
        chip0, _ = run_prog(prog)
        m = FaultModel(FaultConfig(flip_rate=1e-4, seed=0, protect=False))
        chip1, rep1 = run_prog(prog, model=m)
        assert m.counts["uncorrected"] == m.counts["injected"] > 0
        assert rep1.faults_uncorrected == m.counts["uncorrected"]
        assert not np.array_equal(chip1.block(0).data, chip0.block(0).data)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_draw_flips_equals_sequential_draw_flip(self, seed):
        """The vectorized batch draw consumes the flip stream exactly like
        one scalar ``draw_flip`` per instruction, its reference."""
        rate = 2e-5
        rng = np.random.default_rng(seed + 100)
        nors = rng.integers(2, 400, size=300)
        n_rows = rng.integers(1, 513, size=300)
        batch = FaultModel(FaultConfig(flip_rate=rate, seed=seed))
        scalar = FaultModel(FaultConfig(flip_rate=rate, seed=seed))
        # the exact per-instruction probability draw_flip evaluates
        base = math.log1p(-min(rate, 0.5))
        ps = np.array([-math.expm1(base * int(c) * int(r))
                       for c, r in zip(nors, n_rows)])
        got = batch.draw_flips(ps, n_rows)
        want = {}
        for k, (c, r) in enumerate(zip(nors, n_rows)):
            flip = scalar.draw_flip(int(c), int(r))
            if flip is not None:
                want[k] = flip
        assert 0 < len(want) < len(nors)  # both hits and misses exercised
        assert got == want
        # both generators end at the same stream position
        assert batch.draw_flip(100, 64) == scalar.draw_flip(100, 64)
        assert batch._flip_rng.random() == scalar._flip_rng.random()


# --------------------------------------------------------------------- #
# stuck cells + spare-block remap
# --------------------------------------------------------------------- #


class TestStuckCells:
    def _stuck_target(self, model):
        """(block, column) with at least one stuck cell."""
        for blk in range(64):
            stuck = model.stuck_cells(blk, CFG.block_rows, CFG.row_words)
            for col in stuck:
                return blk, col
        pytest.fail("no stuck cells drawn at this rate/seed")

    def test_stuck_cells_corrupt_writes(self):
        m = FaultModel(FaultConfig(stuck_cell_rate=1e-5, seed=1))
        blk, col = self._stuck_target(m)
        prog = [bcast(block=blk, rows=(0, CFG.block_rows), dst=0, value=1.5),
                bcast(block=blk, rows=(0, CFG.block_rows), dst=1, value=2.0),
                arith(block=blk, rows=(0, CFG.block_rows), dst=col,
                      src1=0, src2=1)]
        chip0, _ = run_prog(prog)
        chip1, _ = run_prog(prog, model=m)
        assert m.counts["uncorrected"] > 0
        assert not np.array_equal(chip1.block(blk).data, chip0.block(blk).data)

    def test_mapper_avoids_bad_blocks(self):
        # ~0.1 expected stuck cells per 1M-cell block: ~10% of blocks bad,
        # plenty of healthy spares left for 64 elements
        m = FaultModel(FaultConfig(stuck_cell_rate=1e-7, seed=4))
        bad = m.bad_blocks(CFG.n_blocks, CFG.block_rows, CFG.row_words)
        assert bad  # at this rate some blocks have a stuck cell
        mapper = ElementMapper(4, CFG, 1, fault_model=m)
        used = {mapper.block_of(int(e)) for e in mapper.elements}
        assert used.isdisjoint(bad)
        if m.counts["remaps"]:
            assert any(e.kind == "remap" for e in m.events)

    def test_identity_fast_path_without_faults(self):
        mapper = ElementMapper(8, CFG, 1)
        assert mapper._phys is None

    def test_graceful_degradation_raises_with_context(self):
        # at 1e-3 per cell every block has stuck cells: nothing is healthy
        m = FaultModel(FaultConfig(stuck_cell_rate=1e-3, seed=0))
        with pytest.raises(ValueError, match="healthy blocks"):
            ElementMapper(8, CFG, 1, fault_model=m)

    def test_worn_blocks_join_bad_set(self):
        m = FaultModel(FaultConfig(wearout_nor_cycles=10))
        m.record_nor(2, 100)
        assert 2 in m.bad_blocks(CFG.n_blocks, CFG.block_rows, CFG.row_words)


class _NoChoiceGenerator(np.random.Generator):
    """A generator that refuses to draw cell positions."""

    def choice(self, *args, **kwargs):
        raise AssertionError("cell positions drawn while only counting")


def _drawn_counts(model, blocks):
    """Per-block stuck-cell totals from the full cell draw."""
    return {
        b: sum(len(v[0]) for v in
               model.stuck_cells(b, CFG.block_rows, CFG.row_words).values())
        for b in blocks
    }


class TestCountOnlyAllocation:
    """``bad_blocks`` reads only the first draw of each block's keyed
    substream; the cells themselves stay lazy and bit-identical."""

    # a full draw of all 4,096 blocks at 1e-3 takes seconds: the first
    # 256 blocks cover every rate's mix of clean and stuck blocks.
    N_BLOCKS = 256

    @pytest.mark.parametrize("rate", [1e-7, 1e-6, 1e-4, 1e-3])
    def test_bad_blocks_equal_full_draw(self, rate):
        drawn = _drawn_counts(FaultModel(FaultConfig(stuck_cell_rate=rate, seed=3)),
                              range(self.N_BLOCKS))
        for thr in (1, 2, 5):
            m = FaultModel(FaultConfig(stuck_cell_rate=rate, seed=3, remap_threshold=thr))
            want = {b for b, n in drawn.items() if n >= thr}
            assert m.bad_blocks(self.N_BLOCKS, CFG.block_rows, CFG.row_words) == want

    @pytest.mark.parametrize("rate", [1.0, 1.5])
    def test_clamped_rate_marks_every_block(self, rate):
        # every cell stuck: each full draw holds 1M cells, so 2 blocks only
        drawn = _drawn_counts(FaultModel(FaultConfig(stuck_cell_rate=rate)), range(2))
        assert set(drawn.values()) == {CFG.block_rows * CFG.row_words * 32}
        m = FaultModel(FaultConfig(stuck_cell_rate=rate, remap_threshold=5))
        assert m.bad_blocks(2, CFG.block_rows, CFG.row_words) == {0, 1}
        assert {b: m.n_stuck(b, CFG.block_rows, CFG.row_words) for b in range(2)} == drawn

    def test_n_stuck_matches_drawn_cells(self):
        m = FaultModel(FaultConfig(stuck_cell_rate=1e-4, seed=9))
        counted = {b: m.n_stuck(b, CFG.block_rows, CFG.row_words) for b in range(16)}
        assert not m._stuck  # counting drew no cells
        assert counted == _drawn_counts(m, range(16))
        # once drawn, the stored cells give the same count
        assert counted == {b: m.n_stuck(b, CFG.block_rows, CFG.row_words)
                           for b in range(16)}

    def test_bad_blocks_draws_no_cell_positions(self, monkeypatch):
        want = FaultModel(FaultConfig(stuck_cell_rate=1e-6, seed=2)).bad_blocks(
            CFG.n_blocks, CFG.block_rows, CFG.row_words)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _NoChoiceGenerator(np.random.PCG64(seed)))
        m = FaultModel(FaultConfig(stuck_cell_rate=1e-6, seed=2))
        assert m.bad_blocks(CFG.n_blocks, CFG.block_rows, CFG.row_words) == want
        assert want  # the rate leaves some blocks with a stuck cell
        with pytest.raises(AssertionError, match="cell positions"):
            m.stuck_cells(min(want), CFG.block_rows, CFG.row_words)

    def test_stuck_cells_unchanged_by_prior_bad_blocks(self):
        a = FaultModel(FaultConfig(stuck_cell_rate=1e-5, seed=5))
        b = FaultModel(FaultConfig(stuck_cell_rate=1e-5, seed=5))
        a.bad_blocks(self.N_BLOCKS, CFG.block_rows, CFG.row_words)
        for blk in range(8):
            _same_cells(a.stuck_cells(blk, CFG.block_rows, CFG.row_words),
                        b.stuck_cells(blk, CFG.block_rows, CFG.row_words))


# --------------------------------------------------------------------- #
# interconnect faults: retry, backoff, dead switches
# --------------------------------------------------------------------- #


class TestTransferFaults:
    def test_drops_are_retried_and_charged(self):
        prog = [bcast(dst=2, value=1.0)] + [
            transfer(block=1 + i, src1=2, dst=4) for i in range(20)
        ]
        _, rep0 = run_prog(prog)
        m = FaultModel(FaultConfig(transfer_drop_rate=0.3, seed=0, protect=True))
        chip1, rep1 = run_prog(prog, model=m)
        assert rep1.retries > 0
        assert m.counts["corrected"] > 0
        assert rep1.total_time_s > rep0.total_time_s
        # every payload still arrived (drop 0.3, 4 attempts: ~1% residual
        # per transfer; this seed delivers all of them)
        if m.counts["uncorrected"] == 0:
            for i in range(20):
                assert np.array_equal(
                    chip1.block(1 + i).data[0:8, 4],
                    np.full(8, 1.0, dtype=np.float32),
                )

    def test_dead_switch_leaves_destination_stale(self):
        prog = [bcast(dst=2, value=3.0), transfer(src1=2, dst=4)]
        m = FaultModel(FaultConfig(switch_fail_rate=1.0, seed=0))
        chip1, rep1 = run_prog(prog, model=m)
        assert rep1.faults_uncorrected >= 1
        # undelivered: the destination column was never written
        assert np.all(chip1.block(1).data[:, 4] == 0.0)

    def test_unprotected_corruption_is_delivered_wrong(self):
        prog = [bcast(dst=2, value=3.0), transfer(src1=2, dst=4)]
        m = FaultModel(FaultConfig(transfer_corrupt_rate=1.0, seed=0,
                                   protect=False))
        chip1, _ = run_prog(prog, model=m)
        assert m.counts["uncorrected"] == 1
        got = chip1.block(1).data[0:8, 4]
        assert not np.array_equal(got, np.full(8, 3.0, dtype=np.float32))

    def test_plan_run_matches_serial_faults(self):
        prog = small_program(n_ops=30)
        ms = FaultModel(FaultConfig.at_rate(1e-3, seed=9))
        _, rep_serial = run_prog(prog, model=ms, serial=True)
        mp = FaultModel(FaultConfig.at_rate(1e-3, seed=9))
        _, rep_plan = run_prog(prog, model=mp)
        assert rep_plan.total_time_s == rep_serial.total_time_s
        assert mp.event_digest() == ms.event_digest()

    def test_scheduler_accounts_retries(self):
        h = HTree(256)
        transfers = [Transfer(i, 128 + i, 32) for i in range(50)]
        res0 = schedule_transfers(h, transfers)
        m = FaultModel(FaultConfig(transfer_drop_rate=0.4, seed=0))
        res1 = schedule_transfers(h, transfers, fault_model=m)
        assert res1.retries > 0
        assert res1.makespan > res0.makespan

    def test_scheduler_counts_undelivered_on_dead_fabric(self):
        h = HTree(256)
        m = FaultModel(FaultConfig(switch_fail_rate=1.0, seed=0))
        res = schedule_transfers(h, [Transfer(0, 9, 32)], fault_model=m)
        assert res.undelivered == 1

    def test_switch_level_api(self):
        from repro.interconnect.bus import Bus

        h = HTree(256)
        assert set(h.switch_ids()) == set(range(h.n_switches))
        assert all(h.switch_level(s) >= 0 for s in h.switch_ids())
        b = Bus(256)
        assert b.switch_level(0) == 0
        with pytest.raises(IndexError):
            b.switch_level(1)


# --------------------------------------------------------------------- #
# gate-level flips
# --------------------------------------------------------------------- #


class TestNorMachineFlips:
    def test_flip_prob_one_inverts_every_gate(self):
        nm = NorMachine(flip_prob=1.0, rng=np.random.default_rng(0))
        assert nm.nor(0, 0) == 0  # NOR(0,0)=1, flipped
        assert nm.nor(1, 0) == 1  # NOR(1,0)=0, flipped
        assert nm.flips == 2 and nm.steps == 2

    def test_default_machine_never_flips(self):
        nm = NorMachine()
        assert nm.nor(0, 0) == 1 and nm.flips == 0


# --------------------------------------------------------------------- #
# checkpoint / restart
# --------------------------------------------------------------------- #


def _tiny_solver(seed=0):
    solver = WaveSolver(SolverConfig(physics="acoustic", refinement_level=1,
                                     order=2, flux="riemann"))
    rng = np.random.default_rng(seed)
    solver.set_state(0.1 * rng.standard_normal(solver.state.shape))
    return solver


class TestCheckpoint:
    def test_roundtrip_preserves_bits_and_meta(self, tmp_path):
        state = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
        p = tmp_path / "c.npz"
        write_checkpoint(p, Checkpoint(state=state, time=1.25, steps=7,
                                       meta={"order": 2}))
        got = read_checkpoint(p)
        assert np.array_equal(got.state, state) and got.state.dtype == state.dtype
        assert got.time == 1.25 and got.steps == 7
        got.validate_against({"order": 2})
        with pytest.raises(ValueError, match="incompatible"):
            got.validate_against({"order": 3})

    def test_resume_is_bit_identical(self, tmp_path):
        p = tmp_path / "solver.npz"
        straight = _tiny_solver()
        straight.run(10)

        interrupted = _tiny_solver()
        interrupted.run(6, checkpoint_every=3, checkpoint_path=p)
        resumed = _tiny_solver(seed=99)  # wrong state on purpose
        assert resumed.restore_checkpoint(p) == 6
        resumed.run(10 - resumed.steps_taken)
        assert resumed.steps_taken == 10
        assert np.array_equal(resumed.state, straight.state)
        assert resumed.time == straight.time

    def test_resume_from_mid_run_kill(self, tmp_path):
        # the checkpoint at step 3 survives a "crash" during steps 4-5:
        # restart from the file alone reproduces the full run
        p = tmp_path / "solver.npz"
        victim = _tiny_solver()
        victim.run(5, checkpoint_every=3, checkpoint_path=p)
        assert read_checkpoint(p).steps == 3

        resumed = _tiny_solver()
        resumed.restore_checkpoint(p)
        resumed.run(7)
        straight = _tiny_solver()
        straight.run(10)
        assert np.array_equal(resumed.state, straight.state)

    def test_restore_rejects_mismatched_solver(self, tmp_path):
        p = tmp_path / "solver.npz"
        _tiny_solver().save_checkpoint(p)
        other = WaveSolver(SolverConfig(physics="acoustic",
                                        refinement_level=1, order=3))
        with pytest.raises(ValueError, match="incompatible"):
            other.restore_checkpoint(p)


class TestCheckpointCorruption:
    """Torn/truncated checkpoint files raise ``CheckpointCorrupt`` and the
    ``.prev`` rotation recovers to the previous complete checkpoint."""

    def _write(self, path, steps, keep_previous=False):
        state = np.full((2, 3), float(steps), dtype=np.float32)
        write_checkpoint(path, Checkpoint(state=state, time=0.5 * steps,
                                          steps=steps, meta={"order": 2}),
                         keep_previous=keep_previous)

    def test_truncated_file_raises_corrupt(self, tmp_path):
        from repro.faults import CheckpointCorrupt

        p = tmp_path / "c.npz"
        self._write(p, steps=3)
        raw = p.read_bytes()
        # chop the archive at every quartile: all of them must surface as
        # CheckpointCorrupt, never a bare zipfile/KeyError leak.
        for frac in (0.25, 0.5, 0.75):
            p.write_bytes(raw[: int(len(raw) * frac)])
            with pytest.raises(CheckpointCorrupt):
                read_checkpoint(p)

    def test_garbage_and_missing_keys_raise_corrupt(self, tmp_path):
        from repro.faults import CheckpointCorrupt

        p = tmp_path / "c.npz"
        p.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(p)
        np.savez(p, state=np.zeros(3))  # valid zip, wrong schema
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(p)

    def test_keep_previous_rotates(self, tmp_path):
        from repro.faults.checkpoint import previous_path

        p = tmp_path / "c.npz"
        self._write(p, steps=3)
        self._write(p, steps=6, keep_previous=True)
        assert read_checkpoint(p).steps == 6
        assert read_checkpoint(previous_path(p)).steps == 3

    def test_recovery_falls_back_to_previous(self, tmp_path):
        from repro.faults import CheckpointCorrupt, read_checkpoint_with_recovery
        from repro.faults.checkpoint import previous_path

        p = tmp_path / "c.npz"
        self._write(p, steps=3)
        self._write(p, steps=6, keep_previous=True)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])  # torn newest checkpoint
        got = read_checkpoint_with_recovery(p)
        assert got.steps == 3  # the rotated .prev survives

        # with the previous copy also gone, corruption is terminal
        previous_path(p).unlink()
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint_with_recovery(p)

    def test_recovery_missing_file_raises_filenotfound(self, tmp_path):
        from repro.faults import read_checkpoint_with_recovery

        with pytest.raises(FileNotFoundError):
            read_checkpoint_with_recovery(tmp_path / "absent.npz")


# --------------------------------------------------------------------- #
# runtime estimation overhead
# --------------------------------------------------------------------- #


class TestEstimateOverhead:
    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.core.compiler import WavePimCompiler

        return WavePimCompiler(order=2).compile("acoustic", 2, CFG)

    def test_no_faults_means_zero_overhead(self, compiled):
        from repro.core.runtime import estimate_benchmark

        est = estimate_benchmark(compiled, n_steps=8)
        assert est.fault_overhead_s == 0.0
        assert est.checkpoint_overhead_s == 0.0

    def test_fault_model_adds_expected_overhead(self, compiled):
        from repro.core.runtime import estimate_benchmark

        base = estimate_benchmark(compiled, n_steps=8)
        est = estimate_benchmark(
            compiled, n_steps=8,
            faults=FaultModel(FaultConfig.at_rate(1e-4)),
        )
        assert est.fault_overhead_s > 0.0
        assert est.time_s == pytest.approx(base.time_s + est.fault_overhead_s)

    def test_checkpoints_add_hbm_time(self, compiled):
        from repro.core.runtime import estimate_benchmark

        base = estimate_benchmark(compiled, n_steps=8)
        est = estimate_benchmark(compiled, n_steps=8, checkpoint_every=2)
        assert est.checkpoint_overhead_s > 0.0
        assert est.time_s == pytest.approx(base.time_s + est.checkpoint_overhead_s)


# --------------------------------------------------------------------- #
# campaigns
# --------------------------------------------------------------------- #


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(["acoustic_4"], rates=[1e-6], steps=1)

    def test_reproducible(self, report):
        again = run_campaign(["acoustic_4"], rates=[1e-6], steps=1)
        r0, r1 = report["runs"][0], again["runs"][0]
        assert r0["event_digest"] == r1["event_digest"]
        assert r0["counts"] == r1["counts"]
        assert r0["solution_rel_err"] == r1["solution_rel_err"]

    def test_low_rate_fully_recovers(self, report):
        run = report["runs"][0]
        assert run["status"] == "ok"
        assert run["counts"]["uncorrected"] == 0
        assert run["solution_rel_err"] <= STRICT_REL_TOL
        assert run["time_overhead"] >= 1.0
        assert strict_violations(report) == []

    def test_stress_rate_degrades_gracefully(self):
        report = run_campaign(["acoustic_4"], rates=[1e-3], steps=1)
        run = report["runs"][0]
        assert run["status"] == "degraded"
        assert "healthy blocks" in run["error"]
        assert strict_violations(report) == [
            f"acoustic_4@htree rate=0.001: degraded — {run['error']}"
        ]

    def test_strict_flags_uncorrected(self):
        fake = {
            "config": {"rates": [1e-6]},
            "runs": [{"benchmark": "b", "interconnect": "htree",
                      "rate": 1e-6, "status": "ok",
                      "counts": {"uncorrected": 2},
                      "solution_rel_err": 0.0}],
        }
        out = strict_violations(fake)
        assert out == ["b@htree rate=1e-06: 2 uncorrected faults"]

    def test_default_rates_span_recovery_and_stress(self):
        assert min(DEFAULT_RATES) <= 1e-6 and max(DEFAULT_RATES) >= 1e-3

    def test_all_six_benchmarks_recover_at_low_rate(self):
        # the acceptance sweep: every paper benchmark, production rate
        report = run_campaign(list(BENCHMARKS), rates=[1e-6], steps=1)
        assert strict_violations(report) == []
        for run in report["runs"]:
            assert run["status"] == "ok"
            assert run["counts"]["uncorrected"] == 0
            assert run["solution_rel_err"] <= STRICT_REL_TOL
