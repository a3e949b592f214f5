"""The mixed-dimensional grid: subdomains, interfaces and jump geometry."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError, SubdomainGrid
from mdthm.mdmesh.mortar import SIDE_J, SIDE_K, MortarInterface


class MixedDimGrid:
    """Hierarchy of subdomain grids joined by mortar interfaces.

    Subdomains are ordered by descending dimension: the single 2d matrix
    first, then the 1d fractures in input order, then 0d intersection
    points. Immutable after construction.
    """

    nd = 2

    def __init__(self, subdomains: list[SubdomainGrid], interfaces: list[MortarInterface]):
        dims = [sd.dim for sd in subdomains]
        if dims != sorted(dims, reverse=True):
            raise MeshError("subdomains must be ordered by descending dimension")
        if [sd.id for sd in subdomains] != list(range(len(subdomains))):
            raise MeshError("subdomain ids must equal their positions")
        self.subdomains = subdomains
        self.interfaces = interfaces
        self._by_id = {sd.id: sd for sd in subdomains}

    def subdomain(self, sd_id: int) -> SubdomainGrid:
        return self._by_id[sd_id]

    def subdomains_of_dim(self, dim: int) -> list[SubdomainGrid]:
        return [sd for sd in self.subdomains if sd.dim == dim]

    @property
    def matrix(self) -> SubdomainGrid:
        return self.subdomains[0]

    def fracture_interfaces(self, frac_sd_id: int) -> tuple[MortarInterface, MortarInterface]:
        """The j- and k-side interfaces of a fracture subdomain."""
        pair = [i for i in self.interfaces if i.low_id == frac_sd_id and i.high_id == 0]
        if len(pair) != 2:
            raise MeshError(f"subdomain {frac_sd_id} is not a matrix-coupled fracture")
        j = next(i for i in pair if i.side == SIDE_J)
        k = next(i for i in pair if i.side == SIDE_K)
        return j, k

    def interfaces_of_low(self, low_id: int) -> list[MortarInterface]:
        return [i for i in self.interfaces if i.low_id == low_id]

    # ------------------------------------------------------------------
    def fracture_basis(self, frac_sd_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit normal and tangent per fracture cell.

        The normal equals the outward matrix normal on the j side; the
        tangent is the normal rotated a quarter turn counterclockwise. Both
        are fixed by the geometry at construction time.
        """
        intf_j, _ = self.fracture_interfaces(frac_sd_id)
        high = self.subdomain(intf_j.high_id)
        n = high.face_normals[:, intf_j.high_faces] / high.face_areas[intf_j.high_faces]
        tau = np.vstack([-n[1], n[0]])
        return n, tau

    def jump_operator(self) -> sps.csr_matrix:
        """Displacement jump of every fracture cell, k side minus j side.

        Columns are the mortar displacements of all matrix-fracture
        interfaces in interface order, interleaved (u_x, u_y) per mortar
        cell. Rows are the fracture cells in subdomain order, with the jump
        in global coordinates, interleaved (x, y) per cell.
        """
        fracs = self.subdomains_of_dim(1)
        row = {f.id: k for k, f in enumerate(fracs)}
        walls = [i for i in self.interfaces if i.high_id == self.matrix.id]
        if not walls:
            return sps.csr_matrix((2 * sum(f.num_cells for f in fracs), 0))
        blocks = [[None] * len(walls) for _ in fracs]
        for col, intf in enumerate(walls):
            sign = 1.0 if intf.side == SIDE_K else -1.0
            n_cells = self.subdomain(intf.low_id).num_cells
            blocks[row[intf.low_id]][col] = sign * intf.from_mortar_low(n_cells, nd=2)
        return sps.bmat(blocks, format="csr")

    def inherit_aperture(self, point_sd_id: int, fracture_apertures: dict[int, np.ndarray]) -> np.ndarray:
        """Aperture of an intersection point: mean over incident branches."""
        incident = self.interfaces_of_low(point_sd_id)
        if not incident:
            raise MeshError(f"subdomain {point_sd_id} has no incident interfaces")
        vals = []
        for intf in incident:
            high = self.subdomain(intf.high_id)
            a_h = np.asarray(fracture_apertures[intf.high_id], dtype=float)
            # project the aperture of the adjacent high-dim cell to the point
            a_face = a_h[high.face_cells[0, intf.high_faces]]
            vals.append(a_face)
        return np.mean(np.concatenate(vals)) * np.ones(1)

    def __repr__(self):
        dims = [sd.dim for sd in self.subdomains]
        return f"MixedDimGrid(subdomains={dims}, interfaces={len(self.interfaces)})"
