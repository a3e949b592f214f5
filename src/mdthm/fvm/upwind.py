"""First-order upwind advection on a subdomain grid.

Face fluxes are signed along the stored (owner-out) face normals. The
advected quantity is supplied cellwise (e.g. rho_f c_f T); boundary inflow
carries the boundary value, boundary outflow the interior one. Faces
flagged as excluded (fracture walls coupled through interface unknowns)
carry nothing.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import SubdomainGrid


def upwind_matrices(grid: SubdomainGrid, face_flux, exclude=None):
    """Unweighted upwind selectors: the carried value of each face is
    S_cell @ w + S_face @ w_bc.

    S_cell picks the upstream cell, the owner where the face flux is
    nonnegative; S_face picks the boundary value on inflow boundary faces.
    The advective face flux is the face flux times the carried value.
    """
    nf, nc = grid.num_faces, grid.num_cells
    q = np.asarray(face_flux, dtype=float)
    owner, nbr = grid.face_cells
    use = np.ones(nf, dtype=bool) if exclude is None else ~np.asarray(exclude, bool)
    from_owner = use & (q >= 0.0)
    from_nbr = use & (q < 0.0) & (nbr >= 0)
    inflow = np.flatnonzero(use & (q < 0.0) & (nbr < 0))

    faces = np.flatnonzero(from_owner | from_nbr)
    cells = np.where(from_owner, owner, nbr)[faces]
    s_cell = sps.csr_matrix((np.ones(faces.size), (faces, cells)), shape=(nf, nc))
    s_face = sps.csr_matrix((np.ones(inflow.size), (inflow, inflow)), shape=(nf, nf))
    return s_cell, s_face
