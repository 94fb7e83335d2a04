"""Maxwell kernels on PIM: the §1 generalization taken down to hardware.

"Successful strategies for efficient computation of the acoustic wave
motion can also be applied to the elastic and electromagnetic waves"
(§2.1).  This module proves it constructively: the six Maxwell unknowns
``Ex Ey Ez Hx Hy Hz`` fit a single 32-word block row (unlike the elastic
nine), so the electromagnetic element maps exactly like the acoustic
one-block case — same Fig. 5 layout, same gather/derivative chains, same
face-row flux corrections — and the streams are functionally exact
against :class:`~repro.dg.maxwell.MaxwellOperator` (tested for central
and upwind fluxes).

Per-face componentwise form for face axis ``a`` with outward sign ``s``
(``eps_ijk`` the Levi-Civita symbol, ``d* = exterior - interior``)::

    corr_E_i = lift/(2 eps) * ( s eps_iak dH_k + (alpha/Z) dE_i )   i != a
    corr_H_i = lift/(2 mu)  * ( -s eps_iak dE_k + (alpha*Z) dH_i )  i != a
    corr_E_a = corr_H_a = 0

so each face touches two E and two H components, each a two-term
multiply-accumulate with host-precomputed constants — structurally the
acoustic flux with twice the variables.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    COMPUTE_TAG,
    FETCH_TAG,
    VOLUME_TAG,
    KernelBase,
    face_sign_axis,
)
from repro.core.layout import ElementLayout
from repro.core.mapper import ElementMapper
from repro.dg.maxwell import ElectromagneticMaterial
from repro.dg.mesh import HexMesh
from repro.dg.reference_element import ReferenceElement
from repro.pim.isa import Opcode

__all__ = ["MaxwellOneBlockKernels"]

_VARS = ("Ex", "Ey", "Ez", "Hx", "Hy", "Hz")

#: curl taps: curl(F)_i = dF_k/dx_j - dF_j/dx_k for (i, j, k) cyclic
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class MaxwellOneBlockKernels(KernelBase):
    """One electromagnetic element per memory block (6-variable Fig. 5)."""

    n_vars = 6

    def __init__(
        self,
        mesh: HexMesh,
        element: ReferenceElement,
        material: ElectromagneticMaterial,
        mapper: ElementMapper,
        flux_kind: str = "upwind",
        alpha: float = 1.0,
    ):
        super().__init__(mesh, element, mapper, flux_kind)
        if flux_kind not in ("central", "upwind"):
            raise ValueError(f"flux must be 'central' or 'upwind', got {flux_kind!r}")
        self.material = material
        self.alpha = float(alpha) if flux_kind == "upwind" else 0.0
        self.layout = ElementLayout(element.order, variables=_VARS)
        lay = self.layout
        s = lay.scratch
        s.free_all()
        self.r_tap = s.alloc()
        self.r_coeff = s.alloc()
        self.r_tmp = s.alloc()
        self.r_acc = s.alloc()
        self.r_nb = s.alloc(2)  # the two fetched neighbor values per corr
        self.r_d = s.alloc(2)  # jumps
        self.r_c = s.alloc(2)  # face constants
        self.r_t = s.alloc()
        # integration constants reuse the face regs
        self.r_lsrk = (self.r_c, self.r_c + 1, self.r_t)

    # -- helpers ----------------------------------------------------------- #

    def _var_col(self, i: int, field: str) -> int:
        """Column of E_i / H_i."""
        return self.layout.col_var[f"{field}{'xyz'[i]}"]

    def _face_constants(self, e: int, face: int):
        """(cE, cPenE, cH, cPenH) for one face of one element."""
        sign, _ = face_sign_axis(face)
        eps = self.material.eps[e]
        mu = self.material.mu[e]
        z = float(np.sqrt(mu / eps))
        c_e = 0.5 * self.lift / eps * sign
        c_pe = 0.5 * self.lift / eps * self.alpha / z
        c_h = -0.5 * self.lift / mu * sign
        c_ph = 0.5 * self.lift / mu * self.alpha * z
        return c_e, c_pe, c_h, c_ph

    # -- setup ----------------------------------------------------------- #

    def setup(self, elements=None) -> list:
        lay = self.layout
        insts = []
        for e in self._elements(elements):
            b = self.mapper.block_of(e)
            insts += self._setup_preamble(b, lay)
            inv_eps = self.dscale / self.material.eps[e]
            inv_mu = self.dscale / self.material.mu[e]
            insts.append(self._bcast(
                b, lay.compute_rows, lay.col_econst[0], float(inv_eps), "setup"))
            insts.append(self._bcast(
                b, lay.compute_rows, lay.col_econst[1], float(inv_mu), "setup"))
            for face in range(6):
                insts += self._flux_row_constants(b, lay, face, self._face_constants(e, face))
        return insts

    # -- Volume: the two curls --------------------------------------------- #

    def volume(self, elements=None) -> list:
        """contrib_E = (ds/eps) curl H ; contrib_H = -(ds/mu) curl E."""
        lay = self.layout
        rows = lay.compute_rows
        tag = VOLUME_TAG
        insts = []
        for e in self._elements(elements):
            b = self.mapper.block_of(e)
            for field, econst, negate in (("H", lay.col_econst[0], False),
                                          ("E", lay.col_econst[1], True)):
                target = "E" if field == "H" else "H"
                for i, j, k in _CYCLIC:
                    # curl(F)_i = dF_k/dx_j - dF_j/dx_k
                    insts += self._derivative_chain(
                        b, lay, j, self._var_col(k, field), self.r_acc, tag)
                    insts += self._derivative_chain(
                        b, lay, k, self._var_col(j, field), self.r_d + 0, tag)
                    first, second = (self.r_d + 0, self.r_acc) if negate else (
                        self.r_acc, self.r_d + 0)
                    insts.append(self._arith(
                        Opcode.SUB, b, rows, self.r_acc, first, second, tag))
                    insts.append(self._arith(
                        Opcode.MUL, b, rows,
                        self.layout.col_contrib[f"{target}{'xyz'[i]}"],
                        self.r_acc, econst, tag))
        return insts

    # -- Flux -------------------------------------------------------------- #

    def flux(self, faces=range(6), elements=None) -> list:
        lay = self.layout
        upwind = self.alpha != 0.0
        insts = []
        for e in self._elements(elements):
            b = self.mapper.block_of(e)
            for face in faces:
                fr = self.face_rows(face)
                nfr = self.neighbor_face_rows(face)
                _, axis = face_sign_axis(face)
                nbr = self.neighbor(e, face)
                if nbr is None:
                    continue
                nb = self.mapper.block_of(nbr)
                cmap = lay.face_row_map(fr, lay.row_flux0 + face)
                # only two scratch columns are free in the 6-variable
                # layout, so neighbor operands are fetched pairwise per
                # correction (one row-buffer transfer each)
                for i, j, k in _CYCLIC:
                    if i == axis:
                        continue  # corr_*_a = 0
                    # the cross-product partner index: eps_iak dX_k with
                    # a = axis fixed; the only k with eps_{i,axis,k} != 0:
                    k_idx = 3 - i - axis  # the remaining axis
                    parity = 1.0 if (i, axis, k_idx) in (
                        (0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
                    for field, target_const, pen_const in (("H", 0, 1), ("E", 2, 3)):
                        # corr for target field (E when sourcing H, and
                        # vice versa) at component i
                        target = "E" if field == "H" else "H"
                        partner = self._var_col(k_idx, field)
                        same = self._var_col(i, target)
                        # jumps: d_partner, d_same
                        insts.append(self._transfer(
                            b, nb, fr, nfr, self.r_nb + 0, partner, 1, FETCH_TAG))
                        insts.append(self._arith(
                            Opcode.SUB, b, fr, self.r_d + 0, self.r_nb + 0, partner,
                            COMPUTE_TAG))
                        insts.append(self._gather(
                            b, fr, self.r_c + 0, target_const, cmap, COMPUTE_TAG))
                        insts.append(self._arith(
                            Opcode.MUL, b, fr, self.r_t, self.r_c + 0, self.r_d + 0,
                            COMPUTE_TAG))
                        if parity < 0:
                            # negate via 0 - x: reuse SUB with a zeroed reg
                            insts.append(self._bcast(b, fr, self.r_d + 1, 0.0,
                                                     COMPUTE_TAG))
                            insts.append(self._arith(
                                Opcode.SUB, b, fr, self.r_t, self.r_d + 1, self.r_t,
                                COMPUTE_TAG))
                        if upwind:
                            insts.append(self._transfer(
                                b, nb, fr, nfr, self.r_nb + 1, same, 1, FETCH_TAG))
                            insts.append(self._arith(
                                Opcode.SUB, b, fr, self.r_d + 1, self.r_nb + 1, same,
                                COMPUTE_TAG))
                            insts.append(self._gather(
                                b, fr, self.r_c + 1, pen_const, cmap, COMPUTE_TAG))
                            insts.append(self._arith(
                                Opcode.MUL, b, fr, self.r_d + 1, self.r_c + 1,
                                self.r_d + 1, COMPUTE_TAG))
                            insts.append(self._arith(
                                Opcode.ADD, b, fr, self.r_t, self.r_t, self.r_d + 1,
                                COMPUTE_TAG))
                        cc = lay.col_contrib[f"{target}{'xyz'[i]}"]
                        insts.append(self._arith(
                            Opcode.ADD, b, fr, cc, cc, self.r_t, COMPUTE_TAG))
        return insts

    # -- Integration -------------------------------------------------------- #

    def integration(self, stage: int, dt: float, elements=None) -> list:
        insts = []
        for e in self._elements(elements):
            insts += self._lsrk_update(
                self.mapper.block_of(e), self.layout, _VARS, stage, dt, self.r_lsrk)
        return insts
