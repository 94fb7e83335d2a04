"""Acoustic wave kernels on PIM: one-block and expanded four-block forms.

One-block (naive): the whole 4-variable element lives in a single memory
block (Fig. 5); Volume, Flux and Integration execute serially inside it.

Four-block (E_p, Figs. 8/9): pressure lives in the *part-3* block — which
doubles as the Fig. 9 neighbor-data buffer — and each velocity component
in its own *axis block*.  Volume distributes the three directional
derivative chains across the axis blocks (div-v partial sums travel to
the p block); Flux fetches neighbor data into the buffer block, spreads
it over the short intra-quad H-tree paths, computes per-axis corrections
locally and returns the pressure corrections.  "With more dynamic power
consumption, the four-block implementation can achieve a better
performance than the one-block naive solution." (§6.2.1)

Both generators emit real :class:`~repro.pim.isa.Instruction` streams that
execute functionally — the test-suite proves them equal to the numpy dG
solver — and carry the cost tags behind Figs. 13/14.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    COMPUTE_TAG,
    FETCH_TAG,
    INTRA_TAG,
    VOLUME_SYNC_TAG,
    VOLUME_TAG,
    KernelBase,
    face_sign_axis,
)
from repro.core.layout import ElementLayout
from repro.core.mapper import ElementMapper
from repro.dg.materials import AcousticMaterial
from repro.dg.mesh import HexMesh
from repro.dg.reference_element import ReferenceElement
from repro.pim.isa import Instruction, Opcode

__all__ = ["AcousticOneBlockKernels", "AcousticFourBlockKernels"]

_VARS = ("p", "vx", "vy", "vz")


def acoustic_flux_coefficients(
    material: AcousticMaterial, mesh: HexMesh, lift: float, flux_kind: str
) -> np.ndarray:
    """Host-precomputed per-(element, face) flux coefficients ``c1..c4``.

    The correction applied at face nodes is::

        contrib_p   += c1 * (vax- - vax+) + c2 * (p- - p+)
        contrib_vax += c3 * (p-  - p+ ) + c4 * (vax- - vax+)

    These fold the impedances (sqrt) and the ``1/(Z- + Z+)`` inverse — the
    exact computations the paper offloads to the host CPU and serves from
    LUTs (§4.3/§5.1).  Returns shape ``(K, 6, 4)``.
    """
    z = material.impedance
    kappa = material.kappa
    rho = material.rho
    K = material.n_elements
    out = np.zeros((K, 6, 4), dtype=np.float64)
    for face in range(6):
        sign, _ = face_sign_axis(face)
        nbr = mesh.neighbors[:, face]
        interior = nbr >= 0
        zp = np.where(interior, z[np.where(interior, nbr, 0)], z)
        if flux_kind == "central":
            out[:, face, 0] = 0.5 * lift * kappa * sign
            out[:, face, 2] = 0.5 * lift * sign / rho
        else:
            zsum = z + zp
            out[:, face, 0] = lift * kappa * zp * sign / zsum
            out[:, face, 1] = -lift * kappa / zsum
            out[:, face, 2] = lift * sign * z / (rho * zsum)
            out[:, face, 3] = -lift * z * zp / (rho * zsum)
    return out


def _correction(k: KernelBase, b, fr, riemann, main, other) -> list:
    """``r_t1 = c[main] * d_main (+ c[other] * d_other)`` on face rows; each
    operand is a ``(coefficient index, jump register)`` pair."""
    insts = [k._arith(Opcode.MUL, b, fr, k.r_t1, k.r_c + main[0], main[1], COMPUTE_TAG)]
    if riemann:
        insts.append(k._arith(Opcode.MUL, b, fr, k.r_t2, k.r_c + other[0], other[1], COMPUTE_TAG))
        insts.append(k._arith(Opcode.ADD, b, fr, k.r_t1, k.r_t1, k.r_t2, COMPUTE_TAG))
    return insts


class AcousticOneBlockKernels(KernelBase):
    """Naive mapping: one element per memory block."""

    n_vars = 4

    def __init__(
        self,
        mesh: HexMesh,
        element: ReferenceElement,
        material: AcousticMaterial,
        mapper: ElementMapper,
        flux_kind: str = "riemann",
    ):
        super().__init__(mesh, element, mapper, flux_kind)
        self.material = material
        self.layout = ElementLayout(element.order, variables=_VARS)
        self.flux_coeffs = acoustic_flux_coefficients(material, mesh, self.lift, flux_kind)
        lay = self.layout
        s = lay.scratch
        s.free_all()
        # persistent scratch register file for the kernels
        self.r_tap = s.alloc()
        self.r_coeff = s.alloc()
        self.r_tmp = s.alloc()
        self.r_acc = s.alloc()
        self.r_nb = s.alloc(4)  # neighbor p, vx, vy, vz
        self.r_dp = s.alloc()
        self.r_dv = s.alloc()
        self.r_c = s.alloc(4)  # flux coefficients c1..c4
        self.r_t1 = s.alloc()
        self.r_t2 = s.alloc()
        # integration constants A_s, dt, B_s reuse the flux-coefficient
        # registers -- Integration and Flux never overlap inside a block.
        self.r_lsrk = (self.r_c, self.r_c + 1, self.r_c + 2)

    # ------------------------------------------------------------------ #
    # setup: constants  (Fig. 6 step 1 / Fig. 5 storage space); state
    # load and read-back are KernelBase's one-block defaults
    # ------------------------------------------------------------------ #

    def setup(self, elements=None) -> list:
        """Broadcast constants into every element block (executed once)."""
        lay = self.layout
        # mass inverse (used by source injection / diagnostics)
        minv = 1.0 / (self.element.node_weights * (self.mesh.h / 2.0) ** 3)
        insts = []
        for e in self._elements(elements):
            b = self.mapper.block_of(e)
            insts += self._setup_preamble(b, lay)
            # per-element Volume constants, broadcast to the compute rows
            ck = -self.material.kappa[e] * self.dscale
            cr = -self.dscale / self.material.rho[e]
            insts.append(self._bcast(b, lay.compute_rows, lay.col_econst[0], float(ck), "setup"))
            insts.append(self._bcast(b, lay.compute_rows, lay.col_econst[1], float(cr), "setup"))
            insts.append(self._bcast(b, lay.compute_rows, lay.col_mass, minv, "setup"))
            # host-precomputed flux coefficients into the six storage rows
            for face in range(6):
                insts += self._flux_row_constants(b, lay, face, self.flux_coeffs[e, face])
        return insts

    # ------------------------------------------------------------------ #
    # Volume (Fig. 5 left timeline)
    # ------------------------------------------------------------------ #

    def volume(self, elements=None) -> list:
        """contrib_p = c_kappa * div(v); contrib_v = c_invrho * grad(p)."""
        lay = self.layout
        rows = lay.compute_rows
        tag = VOLUME_TAG
        insts = []
        for e in self._elements(elements):
            b = self.mapper.block_of(e)
            # div v into r_acc (accumulates across the three axes)
            for axis, v in enumerate(("vx", "vy", "vz")):
                insts += self._derivative_chain(
                    b, lay, axis, lay.col_var[v], self.r_acc, tag, accumulate=axis > 0
                )
            insts.append(self._arith(
                Opcode.MUL, b, rows, lay.col_contrib["p"], self.r_acc, lay.col_econst[0], tag))
            # grad p, one axis at a time, straight into the contributions
            for axis, v in enumerate(("vx", "vy", "vz")):
                insts += self._derivative_chain(b, lay, axis, lay.col_var["p"], self.r_acc, tag)
                insts.append(self._arith(
                    Opcode.MUL, b, rows, lay.col_contrib[v], self.r_acc, lay.col_econst[1], tag))
        return insts

    # ------------------------------------------------------------------ #
    # Flux
    # ------------------------------------------------------------------ #

    def flux(self, faces=range(6), elements=None) -> list:
        """Neighbor reconciliation for the given faces (default all six)."""
        lay = self.layout
        riemann = self.flux_kind != "central"
        tag = COMPUTE_TAG
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
                # 1. fetch the neighbor's 4 variables at its matching face
                insts.append(self._transfer(
                    b, nb, fr, nfr, self.r_nb, lay.col_var["p"], 4, FETCH_TAG))
                # 2. flux coefficients from the face's storage row
                cmap = lay.face_row_map(fr, lay.row_flux0 + face)
                used = (0, 1, 2, 3) if riemann else (0, 2)
                for c in used:
                    insts.append(self._gather(b, fr, self.r_c + c, c, cmap, tag))
                # 3. differences
                insts.append(self._arith(
                    Opcode.SUB, b, fr, self.r_dp, lay.col_var["p"], self.r_nb, tag))
                vax = lay.col_var[_VARS[1 + axis]]
                insts.append(self._arith(
                    Opcode.SUB, b, fr, self.r_dv, vax, self.r_nb + 1 + axis, tag))
                # 4. pressure correction: c1*dv (+ c2*dp)
                insts += _correction(self, b, fr, riemann, (0, self.r_dv), (1, self.r_dp))
                cp = lay.col_contrib["p"]
                insts.append(self._arith(Opcode.ADD, b, fr, cp, cp, self.r_t1, tag))
                # 5. axis-velocity correction: c3*dp (+ c4*dv)
                insts += _correction(self, b, fr, riemann, (2, self.r_dp), (3, self.r_dv))
                cv = lay.col_contrib[_VARS[1 + axis]]
                insts.append(self._arith(Opcode.ADD, b, fr, cv, cv, self.r_t1, tag))
        return insts

    # ------------------------------------------------------------------ #
    # Integration (one LSRK stage)
    # ------------------------------------------------------------------ #

    def integration(self, stage: int, dt: float, elements=None) -> list:
        """aux = A_s aux + dt*contrib ; var += B_s aux — for all variables."""
        insts = []
        for e in self._elements(elements):
            insts += self._lsrk_update(
                self.mapper.block_of(e), self.layout, _VARS, stage, dt, self.r_lsrk)
        return insts


class AcousticFourBlockKernels(KernelBase):
    """Expanded mapping (E_p): p + one block per velocity axis (Figs. 8/9).

    Part assignment: parts 0..2 host ``vx, vy, vz``; part 3 hosts ``p``
    and doubles as the neighbor-data buffer of Fig. 9.  ``layout`` is the
    axis blocks' single-variable layout, ``lay_p`` the pressure block's.
    """

    n_vars = 4
    P_PART = 3

    def __init__(
        self,
        mesh: HexMesh,
        element: ReferenceElement,
        material: AcousticMaterial,
        mapper: ElementMapper,
        flux_kind: str = "riemann",
    ):
        super().__init__(mesh, element, mapper, flux_kind)
        if mapper.g != 4:
            raise ValueError(f"four-block kernels need blocks_per_element=4, got {mapper.g}")
        self.material = material
        self.layout = ElementLayout(element.order, variables=("v",))
        self.lay_p = ElementLayout(element.order, variables=("p",))
        self.flux_coeffs = acoustic_flux_coefficients(material, mesh, self.lift, flux_kind)
        # scratch registers (same offsets valid in both layouts: the single-
        # variable layouts are identical column-wise)
        for lay in (self.layout, self.lay_p):
            lay.scratch.free_all()
        s = self.layout.scratch
        self.r_tap = s.alloc()
        self.r_coeff = s.alloc()
        self.r_tmp = s.alloc()
        self.r_acc = s.alloc()
        self.r_pcopy = s.alloc()  # axis blocks' copy of p
        self.r_div = s.alloc(3)  # p block: incoming div partial sums
        self.r_nb_p = s.alloc()
        self.r_nb_v = s.alloc()
        self.r_my_v = s.alloc()  # p-block copy of own face velocities
        self.r_dp = s.alloc()
        self.r_dv = s.alloc()
        self.r_c = s.alloc(4)
        self.r_t1 = s.alloc()
        self.r_t2 = s.alloc()
        r_ic = s.alloc(3)
        self.r_lsrk = (r_ic, r_ic + 1, r_ic + 2)

    # -- placement helpers -------------------------------------------------- #

    def vblock(self, e: int, axis: int) -> int:
        return self.mapper.block_of(e, axis)

    def pblock(self, e: int) -> int:
        return self.mapper.block_of(e, self.P_PART)

    def _part(self, part: int) -> tuple[ElementLayout, str]:
        """(layout, variable name) of one part block."""
        return (self.lay_p, "p") if part == self.P_PART else (self.layout, "v")

    # ------------------------------------------------------------------ #

    def setup(self, elements=None) -> list:
        insts = []
        minv = 1.0 / (self.element.node_weights * (self.mesh.h / 2.0) ** 3)
        for e in self._elements(elements):
            ck = -self.material.kappa[e] * self.dscale
            cr = -self.dscale / self.material.rho[e]
            for part in range(4):
                lay, _ = self._part(part)
                b = self.mapper.block_of(e, part)
                insts += self._setup_preamble(b, lay)
                const = ck if part == self.P_PART else cr
                insts.append(self._bcast(b, lay.compute_rows, lay.col_econst[0], float(const), "setup"))
                insts.append(self._bcast(b, lay.compute_rows, lay.col_mass, minv, "setup"))
                for face in range(6):
                    insts += self._flux_row_constants(b, lay, face, self.flux_coeffs[e, face])
        return insts

    def load_state(self, state: np.ndarray, elements=None) -> list:
        insts = []
        for e in self._elements(elements):
            for part in range(4):
                lay, v = self._part(part)
                b = self.mapper.block_of(e, part)
                var = state[0, e] if part == self.P_PART else state[1 + part, e]
                insts.append(Instruction(Opcode.DRAM_LOAD, block=b, tag="load",
                                         meta={"bytes": lay.n_nodes * 4}))
                insts.append(self._bcast(
                    b, lay.compute_rows, lay.col_var[v], var.astype(np.float32), "load"))
        return insts

    def var_slots(self, e: int) -> list:
        lv, lp = self.layout, self.lay_p
        return [(self.pblock(e), lp.col_var["p"], lp.col_contrib["p"])] + [
            (self.vblock(e, axis), lv.col_var["v"], lv.col_contrib["v"]) for axis in range(3)
        ]

    # ------------------------------------------------------------------ #

    def volume(self, elements=None) -> list:
        """Fig. 8: per-axis derivative chains + div partial-sum exchange."""
        lv, lp = self.layout, self.lay_p
        rows = lv.compute_rows
        tag = VOLUME_TAG
        insts = []
        for e in self._elements(elements):
            pb = self.pblock(e)
            # broadcast p to the axis blocks (the Fig. 8 data duplication)
            for axis in range(3):
                vb = self.vblock(e, axis)
                insts.append(self._transfer(
                    vb, pb, rows, rows, self.r_pcopy, lp.col_var["p"], 1, VOLUME_SYNC_TAG))
            for axis in range(3):
                vb = self.vblock(e, axis)
                # grad p along my axis -> my contribution
                insts += self._derivative_chain(vb, lv, axis, self.r_pcopy, self.r_acc, tag)
                insts.append(self._arith(
                    Opcode.MUL, vb, rows, lv.col_contrib["v"], self.r_acc, lv.col_econst[0], tag))
                # div v partial: derivative of my own velocity component
                insts += self._derivative_chain(vb, lv, axis, lv.col_var["v"], self.r_acc, tag)
                # ship the partial sum to the p block (Fig. 8 inter-block memcpy)
                insts.append(self._transfer(
                    pb, vb, rows, rows, self.r_div + axis, self.r_acc, 1, VOLUME_SYNC_TAG))
            # p block: combine the three partials
            insts.append(self._arith(
                Opcode.ADD, pb, rows, self.r_acc, self.r_div + 0, self.r_div + 1, tag))
            insts.append(self._arith(
                Opcode.ADD, pb, rows, self.r_acc, self.r_acc, self.r_div + 2, tag))
            insts.append(self._arith(
                Opcode.MUL, pb, rows, lp.col_contrib["p"], self.r_acc, lp.col_econst[0], tag))
        return insts

    def flux(self, faces=range(6), elements=None) -> list:
        """Fig. 9: buffer in part 3, compute per axis, return p corrections."""
        lv, lp = self.layout, self.lay_p
        riemann = self.flux_kind != "central"
        tag = COMPUTE_TAG
        insts = []
        for e in self._elements(elements):
            pb = self.pblock(e)
            for face in faces:
                fr = self.face_rows(face)
                nfr = self.neighbor_face_rows(face)
                _, axis = face_sign_axis(face)
                nbr = self.neighbor(e, face)
                if nbr is None:
                    continue
                vb = self.vblock(e, axis)
                # 1. inter-element fetches into the buffer block (part 3)
                insts.append(self._transfer(
                    pb, self.pblock(nbr), fr, nfr, self.r_nb_p, lp.col_var["p"], 1, FETCH_TAG))
                insts.append(self._transfer(
                    pb, self.vblock(nbr, axis), fr, nfr, self.r_nb_v, lv.col_var["v"], 1,
                    FETCH_TAG))
                # 2. short intra-quad distribution to the axis block
                insts.append(self._transfer(
                    vb, pb, fr, fr, self.r_nb_p, self.r_nb_p, 1, INTRA_TAG))
                insts.append(self._transfer(
                    vb, pb, fr, fr, self.r_nb_v, self.r_nb_v, 1, INTRA_TAG))
                insts.append(self._transfer(
                    vb, pb, fr, fr, self.r_pcopy, lp.col_var["p"], 1, INTRA_TAG))
                # 3. axis block computes both corrections
                cmap = lv.face_row_map(fr, lv.row_flux0 + face)
                used = (0, 1, 2, 3) if riemann else (0, 2)
                for c in used:
                    insts.append(self._gather(vb, fr, self.r_c + c, c, cmap, tag))
                insts.append(self._arith(
                    Opcode.SUB, vb, fr, self.r_dp, self.r_pcopy, self.r_nb_p, tag))
                insts.append(self._arith(
                    Opcode.SUB, vb, fr, self.r_dv, lv.col_var["v"], self.r_nb_v, tag))
                # velocity correction (kept local)
                insts += _correction(self, vb, fr, riemann, (2, self.r_dp), (3, self.r_dv))
                cv = lv.col_contrib["v"]
                insts.append(self._arith(Opcode.ADD, vb, fr, cv, cv, self.r_t1, tag))
                # pressure correction, then returned to the p block
                insts += _correction(self, vb, fr, riemann, (0, self.r_dv), (1, self.r_dp))
                insts.append(self._transfer(
                    pb, vb, fr, fr, self.r_t1, self.r_t1, 1, INTRA_TAG))
                cp = lp.col_contrib["p"]
                insts.append(self._arith(Opcode.ADD, pb, fr, cp, cp, self.r_t1, tag))
        return insts

    def integration(self, stage: int, dt: float, elements=None) -> list:
        insts = []
        for e in self._elements(elements):
            for part in range(4):
                lay, v = self._part(part)
                insts += self._lsrk_update(
                    self.mapper.block_of(e, part), lay, (v,), stage, dt, self.r_lsrk)
        return insts
