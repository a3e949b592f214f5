"""Scalar diffusion operators on 1d (fracture) grids.

On a line the multi-point construction collapses to two-point fluxes with
half-cell distances, so the operators are assembled directly. The interface
contract matches the 2d scheme: integrated fluxes along owner-out normals,
Neumann data as total outward flux, traces evaluated at faces.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.fvm.local import csr_from_parts
from mdthm.fvm.mpfa import BoundaryCondition, ScalarDiffusionOps
from mdthm.mdmesh.grids import MeshError, SubdomainGrid


def onedim_discretize(grid: SubdomainGrid, diffusivity,
                      bc: BoundaryCondition) -> ScalarDiffusionOps:
    if grid.dim != 1:
        raise MeshError("onedim_discretize expects a 1d grid")
    nc, nf = grid.num_cells, grid.num_faces
    D = np.broadcast_to(np.asarray(diffusivity, dtype=float), (nc,))
    if np.any(D <= 0):
        raise MeshError("diffusivity must be positive")

    owner, nbr = grid.face_cells
    interior = nbr >= 0
    d_own = np.linalg.norm(
        grid.face_centers - grid.cell_centers[:, owner], axis=0
    )
    d_nbr = np.zeros(nf)
    d_nbr[interior] = np.linalg.norm(
        grid.face_centers[:, interior] - grid.cell_centers[:, nbr[interior]], axis=0
    )
    n_unit = grid.face_normals  # unit, owner-out

    # interior: q = t [(pK - pL) + rK dK + rL dL], t harmonic
    fi = np.where(interior)[0]
    t = 1.0 / (d_own[fi] / D[owner[fi]] + d_nbr[fi] / D[nbr[fi]])
    # boundary
    fb = np.where(~interior)[0]
    dir_b = fb[bc.is_dir[fb]]
    neu_b = fb[~bc.is_dir[fb]]
    tb = D[owner[dir_b]] / d_own[dir_b]

    flux = csr_from_parts([(fi, owner[fi], t), (fi, nbr[fi], -t), (dir_b, owner[dir_b], tb)],
                          (nf, nc))
    bound_flux = csr_from_parts([(dir_b, dir_b, -tb), (neu_b, neu_b, np.ones(neu_b.size))],
                                (nf, nf))
    vector_source = csr_from_parts(
        [(fi, 2 * cells[fi] + comp, t * d[fi] * n_unit[comp, fi])
         for comp in range(2) for cells, d in ((owner, d_own), (nbr, d_nbr))]
        + [(dir_b, 2 * owner[dir_b] + comp, tb * d_own[dir_b] * n_unit[comp, dir_b])
           for comp in range(2)],
        (nf, 2 * nc))

    # trace p_f = pK - (dK/DK) q + dK (r . n)
    inv_t_own = sps.csr_matrix(
        (d_own / D[owner], (np.arange(nf), np.arange(nf))), shape=(nf, nf)
    )
    pick_owner = sps.csr_matrix(
        (np.ones(nf), (np.arange(nf), owner)), shape=(nf, nc)
    )
    direct_src = sps.csr_matrix(
        (
            np.concatenate([d_own * n_unit[0], d_own * n_unit[1]]),
            (np.tile(np.arange(nf), 2),
             np.concatenate([2 * owner, 2 * owner + 1])),
        ),
        shape=(nf, 2 * nc),
    )
    trace_cell = pick_owner - inv_t_own @ flux
    trace_face = -inv_t_own @ bound_flux
    trace_src = direct_src - inv_t_own @ vector_source

    for m in (flux, bound_flux, vector_source, trace_cell, trace_face, trace_src):
        m.eliminate_zeros()
    return ScalarDiffusionOps(flux, bound_flux, trace_cell, trace_face,
                              vector_source, trace_src)
