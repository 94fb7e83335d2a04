"""Shared emission for the kernel generators.

Every mapping follows the same Fig. 5 timeline — Volume, a BARRIER, Flux,
a BARRIER, Integration, five LSRK stages per time-step — and differs only
in where variables live and in its flux arithmetic.  :class:`KernelBase`
therefore owns everything else, once: the stage skeleton
(:meth:`~KernelBase.rk_stage`/:meth:`~KernelBase.time_step`), the
tap/coefficient derivative chain, the LSRK ``aux``/``var`` update, the
setup preamble, state load and read-back, and the cost-attribution tags,
including :func:`is_fetch`, the one definition of the Fig. 13 fetch lane.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.layout import ElementLayout
from repro.core.mapper import ElementMapper
from repro.dg.mesh import HexMesh
from repro.dg.reference_element import FACE_NORMALS, ReferenceElement, opposite_face
from repro.dg.timestepping import LSRK45
from repro.pim.isa import Instruction, Opcode, barrier

__all__ = [
    "KernelBase", "face_sign_axis", "is_fetch",
    "VOLUME_TAG", "VOLUME_SYNC_TAG", "FETCH_TAG", "INTRA_TAG", "COMPUTE_TAG",
    "INTEGRATION_TAG",
]

#: cost-attribution tags of the Fig. 5 phases (Figs. 13/14 group by prefix)
VOLUME_TAG = "volume"
VOLUME_SYNC_TAG = "volume:sync"  # inter-block copies inside Volume (Fig. 8)
FETCH_TAG = "flux:fetch"  # neighbor data into the element (Fig. 13 fetch lane)
INTRA_TAG = "flux:fetch:intra"  # short intra-quad moves of a multi-block element
COMPUTE_TAG = "flux:compute"
INTEGRATION_TAG = "integration"


def is_fetch(inst: Instruction) -> bool:
    """True for the flux TRANSFERs scheduled on the Fig. 13 fetch lane."""
    return inst.op is Opcode.TRANSFER and inst.tag.startswith(FETCH_TAG)


_FACE_SIGN_AXIS: dict = {}


def face_sign_axis(face: int) -> tuple[float, int]:
    """(outward-normal sign, axis index) of a reference face (memoized —
    six faces, requested once per emitted flux instruction)."""
    out = _FACE_SIGN_AXIS.get(face)
    if out is None:
        normal = FACE_NORMALS[face]
        axis = int(np.argmax(np.abs(normal)))
        out = _FACE_SIGN_AXIS[face] = (float(normal[axis]), axis)
    return out


class KernelBase:
    """Common state and emission for the per-physics kernel builders.

    Subclasses set ``layout`` (their canonical :class:`ElementLayout`),
    ``n_vars`` and the scratch registers ``r_tap``/``r_coeff``/``r_tmp``,
    and implement ``setup`` plus ``volume``/``flux``/``integration`` from
    the helpers below.  :meth:`load_state` and :meth:`var_slots` default to
    one element per block; multi-block mappings override both.
    """

    layout: ElementLayout
    n_vars: int

    def __init__(
        self,
        mesh: HexMesh,
        element: ReferenceElement,
        mapper: ElementMapper,
        flux_kind: str = "riemann",
    ):
        self.mesh = mesh
        self.element = element
        self.mapper = mapper
        self.flux_kind = flux_kind
        self.order = element.order
        self.dscale = 2.0 / mesh.h
        self.lift = self.dscale / element.w_end
        self.rk = LSRK45(rhs=None)

    def _elements(self, elements: Iterable | None) -> Iterator[int]:
        """The requested elements (default: every mapped one) as ints."""
        for e in (self.mapper.elements if elements is None else elements):
            yield int(e)

    # -- the Fig. 5 stage skeleton ------------------------------------------ #

    def rk_stage(self, stage: int, dt: float) -> list:
        """One LSRK stage: Volume, Flux, Integration, each closed by a BARRIER."""
        insts = self.volume()
        insts.append(barrier())
        insts += self.flux()
        insts.append(barrier())
        insts += self.integration(stage, dt)
        insts.append(barrier())
        return insts

    def time_step(self, dt: float) -> list:
        """The paper's five integration steps per time-step."""
        insts = []
        for s in range(5):
            insts += self.rk_stage(s, dt)
        return insts

    # -- shared kernel pieces ------------------------------------------------ #

    def _setup_preamble(self, b: int, lay: ElementLayout) -> list:
        """The constants' DRAM load and the dshape broadcast into the
        storage rows (column ``a`` holds ``D[:, a]``)."""
        d = self.element.diff_1d
        insts = [Instruction(Opcode.DRAM_LOAD, block=b, tag="setup",
                             meta={"bytes": lay.n_nodes * 4 * 8})]
        rows = (lay.row_dshape0, lay.row_dshape0 + lay.npts)
        for a in range(lay.npts):
            insts.append(self._bcast(b, rows, a, d[:, a], "setup"))
        return insts

    def _flux_row_constants(self, b: int, lay: ElementLayout, face: int, values) -> list:
        """Host-precomputed per-face constants into the face's storage row."""
        row = (lay.row_flux0 + face, lay.row_flux0 + face + 1)
        return [self._bcast(b, row, c, float(v), "setup") for c, v in enumerate(values)]

    def _derivative_chain(self, b, lay, axis, var_col, acc_col, tag, accumulate=False):
        """Tap/coefficient gathers + multiply-accumulate dot product:
        ``acc = D_axis var`` (``acc += D_axis var`` when ``accumulate``)."""
        rows = lay.compute_rows
        insts = []
        dmap = lay.dshape_row_map(axis)
        for a in range(lay.npts):
            insts.append(self._gather(b, rows, self.r_tap, var_col, lay.tap_row_map(axis, a), tag))
            insts.append(self._gather(b, rows, self.r_coeff, a, dmap, tag))
            first = a == 0 and not accumulate
            dst = acc_col if first else self.r_tmp
            insts.append(self._arith(Opcode.MUL, b, rows, dst, self.r_tap, self.r_coeff, tag))
            if not first:
                insts.append(self._arith(Opcode.ADD, b, rows, acc_col, acc_col, self.r_tmp, tag))
        return insts

    def _lsrk_update(self, b, lay, names, stage, dt, regs):
        """``aux = A_s aux + dt*contrib ; var += B_s aux`` for the ``names``
        variables of one block; ``regs`` holds ``(A_s, dt, B_s)``."""
        rows = lay.compute_rows
        tag = INTEGRATION_TAG
        r_a, r_dt, r_b = regs
        insts = [
            self._bcast(b, rows, r_a, float(self.rk.A[stage]), tag),
            self._bcast(b, rows, r_dt, float(dt), tag),
            self._bcast(b, rows, r_b, float(self.rk.B[stage]), tag),
        ]
        for v in names:
            aux, contrib, var = lay.col_aux[v], lay.col_contrib[v], lay.col_var[v]
            insts.append(self._arith(Opcode.MUL, b, rows, aux, aux, r_a, tag))
            insts.append(self._arith(Opcode.MUL, b, rows, self.r_tmp, contrib, r_dt, tag))
            insts.append(self._arith(Opcode.ADD, b, rows, aux, aux, self.r_tmp, tag))
            insts.append(self._arith(Opcode.MUL, b, rows, self.r_tmp, aux, r_b, tag))
            insts.append(self._arith(Opcode.ADD, b, rows, var, var, self.r_tmp, tag))
        return insts

    # -- state in and out ---------------------------------------------------- #

    def load_state(self, state: np.ndarray, elements=None) -> list:
        """Write a ``(n_vars, K, n_nodes)`` state into the variable columns:
        one DRAM load per element block, then a broadcast per variable."""
        lay = self.layout
        insts = []
        for e in self._elements(elements):
            insts.append(Instruction(Opcode.DRAM_LOAD, block=self.mapper.block_of(e), tag="load",
                                     meta={"bytes": lay.n_nodes * 4 * self.n_vars}))
            for i, (b, col, _) in enumerate(self.var_slots(e)):
                insts.append(self._bcast(
                    b, lay.compute_rows, col, state[i, e].astype(np.float32), "load"))
        return insts

    def var_slots(self, e: int) -> list[tuple[int, int, int]]:
        """``(block, variable column, contribution column)`` of each of
        element ``e``'s state variables, in state order (one-block default)."""
        lay, b = self.layout, self.mapper.block_of(e)
        return [(b, lay.col_var[v], lay.col_contrib[v]) for v in lay.variables]

    def _read_back(self, chip, elements, which: int) -> np.ndarray:
        nn = self.layout.n_nodes
        out = np.zeros((self.n_vars, self.mesh.n_elements, nn), dtype=np.float32)
        for e in self._elements(elements):
            for i, slot in enumerate(self.var_slots(e)):
                out[i, e] = chip.block(slot[0]).data[:nn, slot[which]]
        return out

    def read_state(self, chip, elements=None) -> np.ndarray:
        """Host-side read-back of the ``(n_vars, K, n_nodes)`` state."""
        return self._read_back(chip, elements, 1)

    def read_contributions(self, chip, elements=None) -> np.ndarray:
        """Host-side read-back of the right-hand-side contributions."""
        return self._read_back(chip, elements, 2)

    # -- emit helpers ---------------------------------------------------- #

    @staticmethod
    def _bcast(block, rows, dst, value, tag) -> Instruction:
        return Instruction(
            Opcode.BROADCAST, block=block, rows=rows, dst=dst, value=value, tag=tag
        )

    #: row-map distinct-row counts keyed by array identity; the value holds
    #: the array itself so the id stays pinned.  Row maps come from the
    #: (memoized) ElementLayout producers, so the same handful of arrays
    #: recur for every element of every compile; the size cap only guards
    #: against a caller streaming fresh arrays.
    _GATHER_STATS: dict = {}

    @staticmethod
    def _gather(block, rows, dst, src, row_map, tag) -> Instruction:
        cache = KernelBase._GATHER_STATS
        hit = cache.get(id(row_map))
        if hit is not None and hit[0] is row_map:
            n_unique = hit[1]
        else:
            # row maps are small non-negative row indices: a boolean
            # occupancy mask counts the distinct rows without np.unique's
            # sort.
            rm = np.asarray(row_map)
            seen = np.zeros(int(rm.max()) + 1 if rm.size else 0, dtype=bool)
            seen[rm] = True
            n_unique = int(np.count_nonzero(seen))
            if len(cache) > 4096:
                cache.clear()
            cache[id(row_map)] = (row_map, n_unique)
        return Instruction(
            Opcode.GATHER, block=block, rows=rows, dst=dst, src1=src, row_map=row_map,
            n_unique_rows=n_unique, tag=tag,
        )

    @staticmethod
    def _arith(op, block, rows, dst, src1, src2, tag) -> Instruction:
        return Instruction(op, block=block, rows=rows, dst=dst, src1=src1, src2=src2, tag=tag)

    @staticmethod
    def _transfer(dst_block, src_block, dst_rows, src_rows, dst_col, src_col, words, tag):
        return Instruction(
            Opcode.TRANSFER,
            block=dst_block,
            src_block=src_block,
            rows=dst_rows,
            src_rows=src_rows,
            dst=dst_col,
            src1=src_col,
            words=words,
            tag=tag,
        )

    # -- geometry helpers -------------------------------------------------- #

    def face_rows(self, face: int) -> np.ndarray:
        """Compute-row ids of a face's nodes (= face node ids)."""
        return self.element.face_nodes[face]

    def neighbor_face_rows(self, face: int) -> np.ndarray:
        """Matching rows in the neighbor block (its opposite face)."""
        return self.element.face_nodes[opposite_face(face)]

    def neighbor(self, e: int, face: int) -> int | None:
        """Mapped neighbor across ``face``, or None when it is off-batch.

        Off-batch faces are reconciled by the Fig. 7 sliced-flux schedule
        (an extra streamed pass), so per-stage kernels simply skip them.
        """
        nbr = int(self.mesh.neighbors[e, face])
        if nbr < 0:
            raise NotImplementedError(
                "PIM kernel generation currently assumes periodic meshes; "
                "physical boundaries are handled by the numpy reference solver"
            )
        return nbr if nbr in self.mapper else None
