"""The mixed-dimensional grid: subdomains and their stacked view.

Assembly, set-up and output work on per-dimension stacks: ``grids[dim]``
stacks the subdomains of dimension 1 and 0 in subdomain order into one grid,
made whole like every subdomain by one :class:`SubdomainGrid` call
(:func:`mdthm.mdmesh.stack_grids`); ``grids[2]`` is the matrix itself, with
no second copy. ``mortars[dim]`` holds the interfaces whose high side has
dimension 2 (the fracture walls) or 1 (the branches at intersection points),
stacked in interface order with per-interface offsets
(:class:`mdthm.mdmesh.mortar.MortarGroup`). The interfaces exist only in
these groups, which the grid's builder (:func:`mdthm.mdmesh.fracturize`)
fills. The jump operator, the fracture bases and the inherited apertures of
the intersection points are read from these stacks, for all cells at once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError, SubdomainGrid, stack_grids
from mdthm.mdmesh.mortar import MortarGroup


class MixedDimGrid:
    """Hierarchy of subdomain grids joined by mortar interfaces.

    Subdomains are ordered by descending dimension: the single 2d matrix
    first, then the 1d fractures in input order, then 0d intersection
    points. ``grids`` stacks each dimension, ``grids[2]`` being the matrix
    itself; ``mortars`` maps the high-side dimensions 2 and 1 to their mortar
    groups, numbered in the stacked grids. Immutable after construction.
    """

    nd = 2

    def __init__(self, subdomains: list[SubdomainGrid], mortars: dict[int, MortarGroup]):
        dims = [sd.dim for sd in subdomains]
        if dims != sorted(dims, reverse=True):
            raise MeshError("subdomains must be ordered by descending dimension")
        if [sd.id for sd in subdomains] != list(range(len(subdomains))):
            raise MeshError("subdomain ids must equal their positions")
        self.subdomains = subdomains
        self.grids = {2: self.matrix, **{dim: stack_grids(dim, self.subdomains_of_dim(dim))
                                         for dim in (1, 0)}}
        self.mortars = mortars

    def subdomains_of_dim(self, dim: int) -> list[SubdomainGrid]:
        return [sd for sd in self.subdomains if sd.dim == dim]

    @property
    def matrix(self) -> SubdomainGrid:
        return self.subdomains[0]

    # ------------------------------------------------------------------
    def fracture_basis(self) -> np.ndarray:
        """Rotation of every fracture cell to its (tangential, normal) basis,
        shape (n, 2, 2): row 0 is the unit tangent, row 1 the unit normal.

        The normal equals the outward matrix normal on the j side; the
        tangent is the normal rotated a quarter turn counterclockwise. Both
        are fixed by the geometry at construction time.
        """
        walls = self.mortars[2]
        j = walls.sides < 0
        n = walls.normals[:, j]
        rotation = np.zeros((self.grids[1].num_cells, 2, 2))
        rotation[walls.lo[j], 0] = np.stack([-n[1], n[0]], axis=1)
        rotation[walls.lo[j], 1] = n.T
        return rotation

    def jump_operator(self) -> sps.csr_matrix:
        """Displacement jump of every fracture cell, k side minus j side.

        Columns are the mortar displacements of ``mortars[2]``, interleaved
        (u_x, u_y) per mortar cell. Rows are the stacked fracture cells,
        with the jump in global coordinates, interleaved (x, y) per cell.
        """
        walls = self.mortars[2]
        comp = np.arange(2)
        rows = (2 * walls.lo[:, None] + comp).ravel()
        cols = (2 * np.arange(walls.size)[:, None] + comp).ravel()
        return sps.csr_matrix((np.repeat(walls.sides, 2), (rows, cols)),
                              shape=(2 * self.grids[1].num_cells, 2 * walls.size))

    def inherit_aperture(self, a: np.ndarray) -> np.ndarray:
        """Aperture of every intersection point, the mean over the fracture
        cells of its incident branches; ``a`` holds the apertures of the
        stacked fracture cells."""
        tips, n = self.mortars[1], self.grids[0].num_cells
        return np.bincount(tips.lo, a[tips.hi], n) / np.bincount(tips.lo, minlength=n)

    def __repr__(self):
        dims = [sd.dim for sd in self.subdomains]
        intfs = sum(len(group.ids) for group in self.mortars.values())
        return f"MixedDimGrid(subdomains={dims}, interfaces={intfs})"
