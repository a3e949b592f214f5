"""Mortar interfaces between subdomains of codimension one.

With matching grids every projection is a permutation: each mortar cell is
paired with exactly one boundary face of the higher-dimensional neighbour
and one cell of the lower-dimensional neighbour.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError

SIDE_J = 0
SIDE_K = 1


class MortarInterface:
    """Coupling grid between a higher- and a lower-dimensional subdomain.

    Attributes:
        high_id / low_id: subdomain ids of the coupled neighbours.
        high_faces: boundary faces of the high subdomain, one per mortar cell.
        low_cells: cells of the low subdomain, one per mortar cell.
        side: SIDE_J or SIDE_K for the two walls of a fracture; SIDE_J for
            interfaces to intersection points.
        cell_volumes / cell_centers: copied from the coupled entities.
    """

    def __init__(self, intf_id, high_id, low_id, high_faces, low_cells, side,
                 cell_volumes, cell_centers):
        self.id = intf_id
        self.high_id = high_id
        self.low_id = low_id
        self.high_faces = np.asarray(high_faces, dtype=int)
        self.low_cells = np.asarray(low_cells, dtype=int)
        self.side = side
        self.cell_volumes = np.asarray(cell_volumes, dtype=float)
        self.cell_centers = np.asarray(cell_centers, dtype=float)
        self.num_cells = self.high_faces.size
        if self.low_cells.size != self.num_cells:
            raise MeshError("mortar cells must biject onto low-dim cells")

    def from_mortar_low(self, n_low_cells: int, nd: int = 1) -> sps.csr_matrix:
        """Extend a mortar field (nd components per cell, interleaved) to the
        low subdomain's cells, zero elsewhere."""
        cells = self.low_cells
        rows = np.repeat(cells, nd) * nd + np.tile(np.arange(nd), cells.size)
        shape = (n_low_cells * nd, self.num_cells * nd)
        return sps.csr_matrix((np.ones(rows.size), (rows, np.arange(rows.size))), shape=shape)

    def __repr__(self):
        return (
            f"MortarInterface(id={self.id}, high={self.high_id}, low={self.low_id}, "
            f"cells={self.num_cells}, side={'jk'[self.side]})"
        )

