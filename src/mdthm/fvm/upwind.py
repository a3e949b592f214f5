"""First-order upwind advection on a subdomain grid.

Face fluxes are signed along the stored (owner-out) face normals. The
advected quantity is supplied cellwise (e.g. rho_f c_f T); boundary inflow
carries the boundary value, boundary outflow the interior one. Faces
flagged as excluded (fracture walls coupled through interface unknowns)
carry nothing.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh.grids import SubdomainGrid


def upwind(grid: SubdomainGrid, face_flux, exclude=None):
    """The upstream side of each face, as (cells, inflow).

    ``cells`` holds the upstream cell of each face, the owner where the
    face flux is nonnegative and the neighbour where it is negative, and -1
    where no cell is upstream: on inflow boundary faces, which ``inflow``
    marks and which carry the boundary value, and on excluded faces. The
    carried value of face f is w[cells[f]] or, on inflow, w_bc[f]; the
    advective face flux is the face flux times it.
    """
    q = np.asarray(face_flux, dtype=float)
    owner, nbr = grid.face_cells
    use = np.ones(grid.num_faces, dtype=bool) if exclude is None else ~np.asarray(exclude, bool)
    cells = np.where(q >= 0.0, owner, nbr)
    cells[~use] = -1
    return cells, use & (q < 0.0) & (nbr < 0)


def carried(cells, inflow, w, w_bc):
    """The value each face carries: w of its upstream cell, w_bc on inflow
    faces, zero elsewhere."""
    return np.where(cells >= 0, w[cells], 0.0) + np.where(inflow, w_bc, 0.0)
