"""Elastic four-block kernel streams: structure, placement, op counts."""

import numpy as np
import pytest

from repro.core.kernels.elastic import (
    DIV_SIGMA,
    S1_VARS,
    S2_VARS,
    V_VARS,
    ElasticFourBlockKernels,
)
from repro.core.mapper import ElementMapper
from repro.dg import ElasticMaterial, HexMesh, ReferenceElement
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Opcode
from repro.pim.params import CHIP_CONFIGS

ORDER = 2


@pytest.fixture(scope="module")
def kernels():
    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(ORDER)
    mat = ElasticMaterial.homogeneous(mesh.n_elements, lam=2.0, mu=1.0, rho=1.0)
    mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 4)
    return ElasticFourBlockKernels(mesh, elem, mat, mapper, flux_kind="central")


@pytest.fixture(scope="module")
def kernels_riemann():
    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(ORDER)
    mat = ElasticMaterial.homogeneous(mesh.n_elements, lam=2.0, mu=1.0, rho=1.0)
    mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 4)
    return ElasticFourBlockKernels(mesh, elem, mat, mapper, flux_kind="riemann")


class TestPlacement:
    def test_requires_four_blocks(self):
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(ORDER)
        mat = ElasticMaterial.homogeneous(mesh.n_elements)
        mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 1)
        with pytest.raises(ValueError):
            ElasticFourBlockKernels(mesh, elem, mat, mapper)

    def test_variable_groups_cover_all_nine(self):
        assert set(S1_VARS) | set(S2_VARS) | set(V_VARS) == {
            "sxx", "syy", "szz", "syz", "sxz", "sxy", "vx", "vy", "vz",
        }
        assert not (set(S1_VARS) & set(S2_VARS))

    def test_part_of(self, kernels):
        part, col = kernels.part_of("sxx")
        assert part == kernels.S1 and col >= 1
        part, _ = kernels.part_of("vz")
        assert part == kernels.V
        with pytest.raises(KeyError):
            kernels.part_of("pressure")

    def test_div_sigma_uses_symmetric_components(self):
        """div(sigma) rows only reference the six Voigt components."""
        used = {v for terms in DIV_SIGMA.values() for v, _ in terms}
        assert used <= set(S1_VARS) | set(S2_VARS)


class TestStreams:
    def test_volume_has_cross_block_syncs(self, kernels):
        insts = kernels.volume(elements=[0])
        syncs = [i for i in insts if i.op is Opcode.TRANSFER]
        assert len(syncs) >= 9  # 6 stress contribs + 3 velocity partials

    def test_volume_nine_derivative_chains_on_v_block(self, kernels):
        insts = kernels.volume(elements=[0])
        vb = kernels.mapper.block_of(0, kernels.V)
        muls = [i for i in insts if i.op is Opcode.MUL and i.block == vb]
        # 9 chains x (order+1) taps, plus the per-Voigt combinations
        assert len(muls) >= 9 * (ORDER + 1)

    def test_flux_riemann_heavier(self, kernels, kernels_riemann):
        """The Riemann star states add the impedance cross terms: ~40%
        more flux arithmetic (Table 6's Riemann/Central flop gap)."""
        c = kernels.flux(elements=[0])
        r = kernels_riemann.flux(elements=[0])
        c_arith = sum(i.op in (Opcode.ADD, Opcode.SUB, Opcode.MUL) for i in c)
        r_arith = sum(i.op in (Opcode.ADD, Opcode.SUB, Opcode.MUL) for i in r)
        assert r_arith > 1.3 * c_arith

    def test_flux_fetches_through_buffer_block(self, kernels):
        insts = kernels.flux(elements=[0], faces=[0])
        bb = kernels.mapper.block_of(0, kernels.B)
        fetches = [i for i in insts if i.op is Opcode.TRANSFER and "intra" not in i.tag]
        assert fetches and all(i.block == bb for i in fetches)

    def test_integration_updates_all_nine(self, kernels):
        insts = kernels.integration(0, 1e-3, elements=[0])
        blocks = {i.block for i in insts}
        expected = {kernels.mapper.block_of(0, p) for p in (0, 1, 2)}
        assert blocks == expected

    def test_time_step_is_five_stages(self, kernels):
        one = len(kernels.rk_stage(0, 1e-3))
        # stages differ only in constants; a full step is five stages
        assert len(kernels.time_step(1e-3)) == pytest.approx(5 * one, abs=5)

    def test_streams_execute_functionally_without_error(self, kernels):
        """The streams are well-formed: every index in range, transfers
        size-consistent (executor validates everything)."""
        chip = PimChip(CHIP_CONFIGS["512MB"])
        ex = ChipExecutor(chip)
        state = np.zeros((9, kernels.mesh.n_elements, kernels.layout.n_nodes), dtype=np.float32)
        ex.run(kernels.setup() + kernels.load_state(state), functional=True)
        rep = ex.run(kernels.time_step(1e-3), functional=True)
        assert rep.total_time_s > 0
        assert np.all(np.isfinite(kernels.read_state(chip)))

    def test_state_roundtrip(self, kernels):
        chip = PimChip(CHIP_CONFIGS["512MB"])
        ex = ChipExecutor(chip)
        rng = np.random.default_rng(0)
        state = rng.standard_normal(
            (9, kernels.mesh.n_elements, kernels.layout.n_nodes)
        ).astype(np.float32)
        ex.run(kernels.setup() + kernels.load_state(state), functional=True)
        assert np.allclose(kernels.read_state(chip), state)
