"""Multi-point flux approximation for scalar diffusion on 2d grids.

Per interaction region (grid node), subcell gradients solve flux continuity
across interior subfaces and potential continuity at the continuity points;
boundary subfaces contribute the boundary condition instead. This module
states those conditions and reads the face fluxes and face-potential
reconstructions off the gradients. :class:`mdthm.fvm.local.LocalSystems`
gathers the square local systems, two gradient components per subcell,
inverts them and expresses the gradients in cell-centre potentials, boundary
values and cellwise vector sources.

Fluxes are integrated over faces and oriented along the stored face normal
(out of the owner cell). Neumann boundary data is the total outward flux
through the face; Dirichlet data is the boundary potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from mdthm.fvm.local import LocalSystems, invert_block_diagonal
from mdthm.mdmesh.grids import MeshError, SubdomainGrid

DIRICHLET, NEUMANN = 0, 1


@dataclass
class BoundaryCondition:
    """Per-face condition type; only boundary faces are consulted."""

    is_dir: np.ndarray

    @classmethod
    def dirichlet(cls, grid, faces=None):
        is_dir = np.zeros(grid.num_faces, dtype=bool)
        is_dir[grid.boundary_faces() if faces is None else faces] = True
        return cls(is_dir)


@dataclass
class ScalarDiffusionOps:
    """Face-based operators of one scalar diffusion discretisation.

    flux:          faces x cells
    bound_flux:    faces x faces, action of boundary data on face fluxes
    trace_cell:    faces x cells, face-potential reconstruction
    trace_face:    faces x faces, boundary-data part of the reconstruction
    vector_source: faces x (2 cells), flux from a cellwise vector source
                   (e.g. rho g), raveled cellwise
    """

    flux: sps.csr_matrix
    bound_flux: sps.csr_matrix
    trace_cell: sps.csr_matrix
    trace_face: sps.csr_matrix
    vector_source: sps.csr_matrix
    trace_vector_source: sps.csr_matrix

    def parts(self, name):
        """The operator ``name`` as (coefficient key, static matrix) parts,
        as :class:`mdthm.fvm.onedim.TwoPointOps` splits its own: here one
        part, scaled by no coefficient."""
        return ((None, getattr(self, name)),)

    def apply(self, name, v):
        return getattr(self, name) @ v


def _expand_tensor(diffusivity, n_cells):
    d = np.asarray(diffusivity, dtype=float)
    if d.ndim == 0:
        d = np.repeat(d[None], n_cells)
    if d.ndim == 1:
        out = np.zeros((n_cells, 2, 2))
        out[:, 0, 0] = d
        out[:, 1, 1] = d
        return out
    if d.shape == (n_cells, 2, 2):
        if not np.allclose(d, np.swapaxes(d, 1, 2)):
            raise MeshError("diffusivity tensor must be symmetric")
        return d
    raise MeshError("diffusivity must be scalar, cellwise or cellwise 2x2")


def default_eta(grid: SubdomainGrid) -> float:
    """Continuity-point offset: 1/3 on simplices, 0 on quadrilateral grids.

    The face-centre placement makes the scheme collapse to the two-point
    flux stencil on orthogonal quads with isotropic coefficients.
    """
    if np.all(np.diff(grid.cell_nodes_csr()[0]) == 4):
        return 0.0
    return 1.0 / 3.0


def mpfa_discretize(grid: SubdomainGrid, diffusivity,
                    bc: BoundaryCondition) -> ScalarDiffusionOps:
    """Discretise scalar diffusion with the O-variant multi-point scheme,
    continuity points placed by :func:`default_eta`."""
    if grid.dim != 2:
        raise MeshError("mpfa_discretize expects a 2d grid; use onedim for 1d")
    top = grid.subcell_topology()
    D = _expand_tensor(diffusivity, grid.num_cells)
    if np.any(np.linalg.eigvalsh(D) <= 0):
        raise MeshError("diffusivity must be positive definite")

    row_primary, row_secondary, eq_ptr = top.equation_layout()
    nc, nf = grid.num_cells, grid.num_faces

    # subface quantities; owner-out orientation matches the face normal
    n_sf = top.sf_normal  # (2, n_subfaces)
    nK = np.einsum("si,sij->sj", n_sf.T, D[top.sf_owner])
    nL = np.einsum("si,sij->sj", n_sf.T, D[np.maximum(top.sf_nbr, 0)])
    cont_pt = top.continuity_points(default_eta(grid))
    dK = (cont_pt - grid.cell_centers[:, top.sf_owner]).T
    dL = (cont_pt - grid.cell_centers[:, np.maximum(top.sf_nbr, 0)]).T
    # per-face boundary data lives at the face centre, both for imposing
    # Dirichlet values and for reconstructing face potentials
    dK_fc = (grid.face_centers[:, top.sf_face] - grid.cell_centers[:, top.sf_owner]).T
    w_flux = top.node_scaling(np.abs(D).max(axis=(1, 2)))
    interior, dirichlet, neumann = top.subfaces_by_condition(bc.is_dir)

    # right-hand sides: cell potentials N, boundary data R, vector sources S
    local = LocalSystems(top, eq_ptr, 2, {"N": nc, "R": nf, "S": 2 * nc})

    # flux continuity on interior subfaces: -nK gK + nL gL = -nK rK + nL rL
    sel = interior
    local.add_matrix(sel, row_primary, top.sc_of_owner, -nK[sel] * w_flux[sel, None])
    local.add_matrix(sel, row_primary, top.sc_of_nbr, nL[sel] * w_flux[sel, None])
    for comp in range(2):
        local.add_rhs("S", sel, row_primary, 2 * top.sf_owner[sel] + comp,
                      -nK[sel, comp] * w_flux[sel])
        local.add_rhs("S", sel, row_primary, 2 * top.sf_nbr[sel] + comp,
                      nL[sel, comp] * w_flux[sel])

    # potential continuity: gK.dK - gL.dL = pL - pK
    local.add_matrix(sel, row_secondary, top.sc_of_owner, dK[sel])
    local.add_matrix(sel, row_secondary, top.sc_of_nbr, -dL[sel])
    local.add_rhs("N", sel, row_secondary, top.sf_nbr[sel], np.ones(sel.size))
    local.add_rhs("N", sel, row_secondary, top.sf_owner[sel], -np.ones(sel.size))

    # Dirichlet: gK.(x_fc - x_K) = b - pK
    sel = dirichlet
    local.add_matrix(sel, row_primary, top.sc_of_owner, dK_fc[sel])
    local.add_rhs("R", sel, row_primary, top.sf_face[sel], np.ones(sel.size))
    local.add_rhs("N", sel, row_primary, top.sf_owner[sel], -np.ones(sel.size))

    # Neumann: -nK gK + nK rK = b/2  (outward flux, half per subface)
    sel = neumann
    local.add_matrix(sel, row_primary, top.sc_of_owner, -nK[sel] * w_flux[sel, None])
    local.add_rhs("R", sel, row_primary, top.sf_face[sel], 0.5 * w_flux[sel])
    for comp in range(2):
        local.add_rhs("S", sel, row_primary, 2 * top.sf_owner[sel] + comp,
                      -nK[sel, comp] * w_flux[sel])

    grad = local.solve(invert_block_diagonal)
    grad_cell, grad_face, grad_src = grad["N"], grad["R"], grad["S"]

    # subface flux = -nK gK (+ nK rK), accumulated onto faces
    sc_cols = np.stack([2 * top.sc_of_owner, 2 * top.sc_of_owner + 1], axis=1)
    sf_rows = np.repeat(np.arange(top.num_subfaces), 2)
    t_grad = sps.csr_matrix(
        (-nK.ravel(), (sf_rows, sc_cols.ravel())),
        shape=(top.num_subfaces, 2 * top.num_subcells),
    )
    t_src = sps.csr_matrix(
        (nK.ravel(), (sf_rows, np.stack(
            [2 * top.sf_owner, 2 * top.sf_owner + 1], axis=1).ravel())),
        shape=(top.num_subfaces, 2 * nc),
    )
    sf_to_face = sps.csr_matrix(
        (np.ones(top.num_subfaces), (top.sf_face, np.arange(top.num_subfaces))),
        shape=(nf, top.num_subfaces),
    )
    flux_of = sf_to_face @ t_grad
    flux = flux_of @ grad_cell
    bound_flux = flux_of @ grad_face
    vector_source = flux_of @ grad_src + sf_to_face @ t_src

    # face-centre potential: average of the owner-side reconstructions
    x_mat = sps.csr_matrix(
        (dK_fc.ravel(), (sf_rows, sc_cols.ravel())),
        shape=(top.num_subfaces, 2 * top.num_subcells),
    )
    p_owner = sps.csr_matrix(
        (np.ones(top.num_subfaces), (np.arange(top.num_subfaces), top.sf_owner)),
        shape=(top.num_subfaces, nc),
    )
    sf_avg = sps.csr_matrix(
        (np.full(top.num_subfaces, 0.5), (top.sf_face, np.arange(top.num_subfaces))),
        shape=(nf, top.num_subfaces),
    )
    trace_cell = sf_avg @ (p_owner + x_mat @ grad_cell)
    trace_face = sf_avg @ (x_mat @ grad_face)
    trace_src = sf_avg @ (x_mat @ grad_src)

    for mat in (flux, bound_flux, vector_source, trace_cell, trace_face, trace_src):
        mat.eliminate_zeros()
    return ScalarDiffusionOps(flux, bound_flux, trace_cell, trace_face,
                              vector_source, trace_src)
