"""Single-element memory-block data layout (paper Fig. 5).

A 512-node element occupies the first 512 rows of a 1K x 1K block — one
row per node — with each row holding, in order: the node's mass inverse,
its unknown *variables*, the *auxiliaries* (the low-storage RK register),
the *contributions* (Volume + Flux increments), per-element material
constants, and scratchpad words.  The remaining rows are *storage space*
for constants: the ``dshape`` differentiation matrix, GLL weights/points,
per-element Volume constants and the host-precomputed Flux coefficients
("constants need to be copied to the scratchpad and broadcast to the
first 512 rows before the computation begins", §5.1).

The layout is parametric in element order so the functional tests can run
order-1/2 elements quickly; ``order=7`` reproduces the paper's geometry.
It also supports hosting a *subset* of the variables, which is how the
expanded (Fig. 8/9) and elastic (§6.2.2) layouts place 1 or 3 variables
per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ElementLayout", "AXIS_NAMES", "ScratchAllocator"]

AXIS_NAMES = ("x", "y", "z")


class ScratchAllocator:
    """Stack allocator over the layout's scratchpad columns."""

    def __init__(self, start: int, stop: int):
        self.start = start
        self.stop = stop
        self._next = start

    def alloc(self, n: int = 1) -> int:
        """Reserve ``n`` consecutive scratch columns; returns the first."""
        if self._next + n > self.stop:
            raise RuntimeError(
                f"scratchpad exhausted: need {n} more columns beyond "
                f"[{self.start}, {self.stop})"
            )
        col = self._next
        self._next += n
        return col

    def free_all(self) -> None:
        self._next = self.start

    @property
    def in_use(self) -> int:
        return self._next - self.start


@dataclass
class ElementLayout:
    """Column/row map of (part of) one dG element in one memory block.

    Parameters
    ----------
    order:
        Element polynomial order ``N``; ``(N+1)^3`` compute rows.
    variables:
        Names of the unknowns hosted in this block, in column order.
        The full acoustic element hosts ``("p","vx","vy","vz")``; an
        expanded block hosts one of them; elastic blocks host triples.
    row_words:
        32-bit words per row (32 for the 1 KiB row).
    block_rows:
        Total rows (1024).
    """

    order: int
    variables: tuple = ("p", "vx", "vy", "vz")
    row_words: int = 32
    block_rows: int = 1024

    def __post_init__(self):
        self.npts = self.order + 1
        self.n_nodes = self.npts**3
        if self.n_nodes > self.block_rows // 2:
            raise ValueError(
                f"order {self.order} needs {self.n_nodes} compute rows; a "
                f"{self.block_rows}-row block reserves half for storage "
                "(use expansion for bigger elements)"
            )
        n_vars = len(self.variables)
        # column map: mass | vars | aux | contrib | elem consts | scratch
        self.col_mass = 0
        self.col_var = {v: 1 + i for i, v in enumerate(self.variables)}
        self.col_aux = {v: 1 + n_vars + i for i, v in enumerate(self.variables)}
        self.col_contrib = {v: 1 + 2 * n_vars + i for i, v in enumerate(self.variables)}
        self.col_const0 = 1 + 3 * n_vars
        #: two persistent per-element constant columns (e.g. -kappa*2/h and
        #: -(2/h)/rho for acoustic Volume), broadcast at setup.
        self.col_econst = (self.col_const0, self.col_const0 + 1)
        self.scratch0 = self.col_const0 + 2
        if self.scratch0 + 4 > self.row_words:
            raise ValueError(
                f"{n_vars} variables leave no scratchpad in a {self.row_words}-"
                "word row — the elastic case that forces row-size expansion (§5.1)"
            )
        self.scratch = ScratchAllocator(self.scratch0, self.row_words)

        # storage region rows
        self.storage0 = max(self.n_nodes, self.block_rows // 2)
        #: rows storage0 .. storage0+N hold dshape: D[i, a] at column a.
        self.row_dshape0 = self.storage0
        #: one row of misc per-element constants (GLL weights live here too).
        self.row_econst = self.storage0 + self.npts
        #: six rows of host-precomputed flux coefficients, one per face,
        #: columns 0..3 (filled through the LUT path at setup).
        self.row_flux0 = self.row_econst + 1
        if self.row_flux0 + 6 > self.block_rows:
            raise ValueError("storage region overflow")
        #: memoized row-map arrays: the producers below are pure functions
        #: of the layout geometry, and the kernel generators request the
        #: same handful of maps for every element of every compile — the
        #: memo also keeps the returned arrays id-stable, which downstream
        #: per-array caches (gather stats) key on.  Callers must treat the
        #: returned arrays as read-only.
        self._rowmap_cache: dict = {}

    # ------------------------------------------------------------------ #
    # node index helpers (flat node id n = i + (N+1) j + (N+1)^2 k)
    # ------------------------------------------------------------------ #

    @property
    def compute_rows(self) -> tuple:
        return (0, self.n_nodes)

    def axis_index(self, axis: int) -> np.ndarray:
        """Per-node coordinate index along ``axis`` (0=x,1=y,2=z)."""
        out = self._rowmap_cache.get(("axis", axis))
        if out is None:
            n = np.arange(self.n_nodes)
            p = self.npts
            out = (n % p, (n // p) % p, n // (p * p))[axis]
            self._rowmap_cache[("axis", axis)] = out
        return out

    def tap_row_map(self, axis: int, tap: int) -> np.ndarray:
        """Row of the ``tap``-th derivative stencil point along ``axis``.

        For node ``(i,j,k)`` and axis x this is node ``(tap,j,k)`` — the
        "subset of the element's nodes" whose dot product with a
        derivative vector forms the Volume computation (§1 fn. 2).
        """
        if not 0 <= tap < self.npts:
            raise IndexError(f"tap {tap} outside [0, {self.npts})")
        key = ("tap", axis, tap)
        out = self._rowmap_cache.get(key)
        if out is None:
            n = np.arange(self.n_nodes)
            p = self.npts
            stride = p**axis
            out = n + (tap - self.axis_index(axis)) * stride
            self._rowmap_cache[key] = out
        return out

    def dshape_row_map(self, axis: int) -> np.ndarray:
        """Storage row holding each node's derivative coefficient.

        Node ``n`` needs ``D[idx_axis(n), tap]``, stored at storage row
        ``row_dshape0 + idx_axis(n)``, column ``tap``.
        """
        key = ("dshape", axis)
        out = self._rowmap_cache.get(key)
        if out is None:
            out = self.row_dshape0 + self.axis_index(axis)
            self._rowmap_cache[key] = out
        return out

    def const_row_map(self, storage_row: int) -> np.ndarray:
        """Gather map that broadcasts one storage row to all compute rows."""
        key = ("const", storage_row)
        out = self._rowmap_cache.get(key)
        if out is None:
            out = np.full(self.n_nodes, storage_row, dtype=np.int64)
            self._rowmap_cache[key] = out
        return out

    def face_row_map(self, face_nodes: np.ndarray, storage_row: int) -> np.ndarray:
        """Gather map broadcasting one storage row to a face's rows."""
        key = ("face", len(face_nodes), storage_row)
        out = self._rowmap_cache.get(key)
        if out is None:
            out = np.full(len(face_nodes), storage_row, dtype=np.int64)
            self._rowmap_cache[key] = out
        return out

    # ------------------------------------------------------------------ #

    def describe(self) -> dict:
        """Human-readable summary (used by docs/tests)."""
        return {
            "order": self.order,
            "n_nodes": self.n_nodes,
            "variables": self.variables,
            "col_var": dict(self.col_var),
            "col_aux": dict(self.col_aux),
            "col_contrib": dict(self.col_contrib),
            "col_econst": self.col_econst,
            "scratch_cols": (self.scratch0, self.row_words),
            "storage_rows": (self.storage0, self.block_rows),
        }
