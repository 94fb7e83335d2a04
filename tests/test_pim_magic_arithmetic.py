"""MAGIC NOR netlists and the derived float32 op-cost tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pim.arithmetic import (
    HostOpModel,
    default_op_costs,
    float32_add_nors,
    float32_mul_nors,
    float32_mul_nors_serial,
)
from repro.pim.magic import (
    FULL_ADDER_STEPS,
    LANES,
    NorMachine,
    VectorNorMachine,
    int_add_steps,
    int_multiply_steps,
    nor_add,
    nor_add_vec,
    nor_multiply,
    nor_multiply_vec,
    pack_lanes,
    unpack_lanes,
)

u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
u16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
u8 = st.integers(min_value=0, max_value=255)


class TestNorMachine:
    def test_nor_truth_table(self):
        m = NorMachine()
        assert m.nor(0, 0) == 1
        assert m.nor(0, 1) == 0
        assert m.nor(1, 0) == 0
        assert m.nor(1, 1) == 0
        assert m.steps == 4

    def test_multi_input(self):
        m = NorMachine()
        assert m.nor(0, 0, 0, 0) == 1
        assert m.nor(0, 0, 1, 0) == 0

    def test_nor_rejects_empty(self):
        with pytest.raises(ValueError):
            NorMachine().nor()

    def test_derived_gates(self):
        m = NorMachine()
        assert m.not_(0) == 1 and m.not_(1) == 0
        assert m.or_(0, 1) == 1 and m.or_(0, 0) == 0
        assert m.and_(1, 1) == 1 and m.and_(1, 0) == 0
        assert m.xor_(1, 0) == 1 and m.xor_(1, 1) == 0 and m.xor_(0, 0) == 0

    def test_full_adder_exhaustive(self):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    m = NorMachine()
                    s, cout = m.full_adder(a, b, c)
                    assert s == (a + b + c) % 2
                    assert cout == (a + b + c) // 2
                    assert m.steps == FULL_ADDER_STEPS


class TestNorAdd:
    @given(u32, u32)
    @settings(max_examples=200, deadline=None)
    def test_correct(self, a, b):
        r, carry, steps = nor_add(a, b, 32)
        assert r == (a + b) & 0xFFFFFFFF
        assert carry == (a + b) >> 32
        assert steps == int_add_steps(32)

    @given(u8, u8)
    @settings(max_examples=50, deadline=None)
    def test_width8(self, a, b):
        r, carry, steps = nor_add(a, b, 8)
        assert r == (a + b) & 0xFF
        assert steps == int_add_steps(8)

    def test_rejects_overflowing_operand(self):
        with pytest.raises(ValueError):
            nor_add(256, 0, 8)


class TestNorMultiply:
    @given(u16, u16)
    @settings(max_examples=100, deadline=None)
    def test_correct_16(self, a, b):
        p, steps = nor_multiply(a, b, 16)
        assert p == a * b
        assert steps == int_multiply_steps(16)

    @given(u8, u8)
    @settings(max_examples=50, deadline=None)
    def test_correct_8(self, a, b):
        p, steps = nor_multiply(a, b, 8)
        assert p == a * b

    def test_24bit_measured_matches_closed_form(self):
        p, steps = nor_multiply(0xABCDEF, 0x123456, 24)
        assert p == 0xABCDEF * 0x123456
        assert steps == int_multiply_steps(24)


class TestVectorNor:
    """Word-packed NOR: 64 lanes per Python op, cycle counts unchanged."""

    def test_pack_unpack_roundtrip(self):
        vals = [0, 1, 0xDEADBEEF, (1 << 32) - 1, 12345]
        assert unpack_lanes(pack_lanes(vals, 32), len(vals)) == vals

    def test_pack_rejects_overwide(self):
        with pytest.raises(ValueError):
            pack_lanes([256], 8)
        with pytest.raises(ValueError):
            pack_lanes(list(range(LANES + 1)), 32)

    def test_vector_full_adder_cycles_match_scalar(self):
        m = VectorNorMachine()
        m.full_adder(0, 0, 0)
        assert m.steps == FULL_ADDER_STEPS

    def test_add_vec_matches_scalar_lanes(self):
        import random

        rng = random.Random(11)
        avals = [rng.getrandbits(32) for _ in range(LANES)]
        bvals = [rng.getrandbits(32) for _ in range(LANES)]
        sums, carries, cycles = nor_add_vec(avals, bvals, 32)
        assert cycles == int_add_steps(32)  # 64 lanes, one machine's cycles
        for a, b, s, c in zip(avals, bvals, sums, carries):
            rs, rc, rcyc = nor_add(a, b, 32)
            assert (s, c) == (rs, rc)
            assert rcyc == cycles

    def test_multiply_vec_matches_scalar_lanes(self):
        import random

        rng = random.Random(13)
        avals = [rng.getrandbits(16) for _ in range(7)]
        bvals = [rng.getrandbits(16) for _ in range(7)]
        prods, cycles = nor_multiply_vec(avals, bvals, 16)
        assert cycles == int_multiply_steps(16)
        for a, b, p in zip(avals, bvals, prods):
            rp, rcyc = nor_multiply(a, b, 16)
            assert p == rp
            assert rcyc == cycles

    def test_scalar_machine_rejected(self):
        with pytest.raises(TypeError):
            nor_add_vec([1], [2], 8, machine=NorMachine())

    @given(u16, u16)
    @settings(max_examples=10, deadline=None)
    def test_multiply_vec_property(self, a, b):
        prods, _ = nor_multiply_vec([a], [b], 16)
        assert prods[0] == (a * b) & 0xFFFFFFFF


class TestOpCosts:
    def test_derived_counts_positive_and_ordered(self):
        costs = default_op_costs()
        assert 0 < costs.nor_count("add") < costs.nor_count("mul")
        assert costs.nor_count("mul") < costs.nor_count("mul_serial")

    def test_add_closed_form_stability(self):
        # the auditable decomposition should not silently change
        assert float32_add_nors() == default_op_costs().nor_count("add")
        assert float32_mul_nors() == default_op_costs().nor_count("mul")
        assert float32_mul_nors_serial() > 2 * float32_mul_nors()

    def test_time_scales_with_nor_count(self):
        costs = default_op_costs()
        t_ratio = costs.time_s("mul") / costs.time_s("add")
        n_ratio = costs.nor_count("mul") / costs.nor_count("add")
        assert t_ratio == pytest.approx(n_ratio)

    def test_energy_scales_with_rows(self):
        costs = default_op_costs()
        assert costs.energy_j("add", 100) == pytest.approx(100 * costs.energy_j("add", 1))

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            default_op_costs().time_s("div")

    def test_row_move_linear(self):
        costs = default_op_costs()
        assert costs.row_move_time_s(10) == pytest.approx(10 * costs.row_move_time_s(1))

    def test_gather_scales_with_unique_sources(self):
        costs = default_op_costs()
        assert costs.gather_time_s(64) < costs.row_move_time_s(512)
        assert costs.gather_time_s(8) < costs.gather_time_s(64)

    def test_mean_flop_time(self):
        costs = default_op_costs()
        expect = 0.5 * (costs.time_s("add") + costs.time_s("mul"))
        assert costs.mean_flop_time_s == pytest.approx(expect)

    def test_latency_row_independent_by_design(self):
        """Row-parallelism: latency comes from NOR count only."""
        costs = default_op_costs()
        assert costs.time_s("add") == costs.nor_count("add") * costs.device.t_nor_s


class TestHostModel:
    def test_linear(self):
        h = HostOpModel()
        assert h.time_s(1000) == pytest.approx(1000 * h.time_per_op_s)
        assert h.energy_j(1000) == pytest.approx(h.time_s(1000) * h.power_w)
