"""Mortar interfaces between subdomains of codimension one, one by one and
stacked per codimension.

With matching grids every projection is a permutation: each mortar cell is
paired with exactly one boundary face of the higher-dimensional neighbour
and one cell of the lower-dimensional neighbour. A :class:`MortarGroup`
holds all mortars whose high side has one dimension, with their pairing
expressed in the stacked grids of the two dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError, SubdomainGrid

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

    def __repr__(self):
        return (
            f"MortarInterface(id={self.id}, high={self.high_id}, low={self.low_id}, "
            f"cells={self.num_cells}, side={'jk'[self.side]})"
        )


@dataclass
class MortarGroup:
    """All mortars whose high side has dimension ``dim``, in interface order.

    Per mortar cell, ``hi`` / ``lo`` index the adjacent high-side and the
    coupled low-side cell in the stacked grids of the two dimensions.
    ``lift`` restricts stacked high-side face fields to the mortar cells;
    ``ids`` are the ids of the stacked interfaces.
    """

    dim: int
    hi: np.ndarray
    lo: np.ndarray
    lift: sps.csr_matrix
    areas: np.ndarray
    normals: np.ndarray  # unit outward normals of the high-side faces
    sides: np.ndarray  # -1 on the j wall of a fracture, +1 on the k wall
    ids: list

    @property
    def size(self) -> int:
        return self.areas.size


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=int)


def mortar_group(interfaces: list, high: SubdomainGrid, low: SubdomainGrid) -> MortarGroup:
    """Stack the mortars of ``interfaces`` whose high side is part of the
    stacked grid ``high``; their low sides are parts of ``low``."""
    intfs = [i for i in interfaces if i.high_id in high.face_start]
    faces = _cat([high.face_start[i.high_id] + i.high_faces for i in intfs])
    n = faces.size
    return MortarGroup(
        dim=high.dim,
        hi=high.face_cells[0, faces],
        lo=_cat([low.cell_start[i.low_id] + i.low_cells for i in intfs]),
        lift=sps.csr_matrix((np.ones(n), (np.arange(n), faces)), shape=(n, high.num_faces)),
        areas=_cat([i.cell_volumes for i in intfs]).astype(float),
        normals=high.face_normals[:, faces] / high.face_areas[faces],
        sides=_cat([np.full(i.num_cells, 1.0 if i.side == SIDE_K else -1.0)
                    for i in intfs]).astype(float),
        ids=[i.id for i in intfs],
    )
