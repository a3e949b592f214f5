"""Multi-point flux approximation for scalar diffusion on 2d grids.

Per interaction region (grid node), subcell gradients solve flux continuity
across interior subfaces and potential continuity at the continuity points;
boundary subfaces contribute the boundary condition instead. Partial
inversion expresses the gradients in cell-centre potentials, boundary values
and cellwise vector sources, from which face fluxes and face-potential
reconstructions follow.

Fluxes are integrated over faces and oriented along the stored face normal
(out of the owner cell). Neumann boundary data is the total outward flux
through the face; Dirichlet data is the boundary potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from mdthm.fvm.local import invert_block_diagonal
from mdthm.fvm.subcell import SubcellTopology
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
    bc: BoundaryCondition


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
    top = SubcellTopology(grid)
    D = _expand_tensor(diffusivity, grid.num_cells)
    if np.any(np.linalg.eigvalsh(D) <= 0):
        raise MeshError("diffusivity must be positive definite")

    row_primary, row_secondary, eq_ptr = top.equation_layout()
    npos_sf = top.node_pos[top.sf_node]

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

    # per-node scaling of flux rows for conditioning
    d_char = np.abs(D).max(axis=(1, 2))
    node_dchar = np.zeros(top.node_ids.size)
    np.maximum.at(node_dchar, top.node_pos[top.sc_node], d_char[top.sc_cell])
    w_flux = 1.0 / node_dchar[npos_sf]

    interior = ~top.sf_boundary
    is_dir_sf = bc.is_dir[top.sf_face] & top.sf_boundary
    is_neu_sf = ~bc.is_dir[top.sf_face] & top.sf_boundary

    m_n, m_r, m_c, m_v = [], [], [], []  # node, local row, local col, value
    lin_rows, lin_cols, lin_vals, lin_kind = [], [], [], []

    def add_m(sel, rows, sc, comp_vals):
        # comp_vals: (n_sel, 2) coefficients of the two gradient components
        for comp in range(2):
            m_n.append(npos_sf[sel])
            m_r.append(rows[sel])
            m_c.append(2 * top.sc_local[sc[sel]] + comp)
            m_v.append(comp_vals[:, comp])

    def add_rhs(kind, sel, rows, cols, vals):
        lin_kind.append(kind)
        lin_rows.append(eq_ptr[npos_sf[sel]] + rows[sel])
        lin_cols.append(cols)
        lin_vals.append(vals)

    # flux continuity on interior subfaces: -nK gK + nL gL = -nK rK + nL rL
    sel = np.where(interior)[0]
    add_m(sel, row_primary, top.sc_of_owner, -nK[sel] * w_flux[sel, None])
    add_m(sel, row_primary, top.sc_of_nbr, nL[sel] * w_flux[sel, None])
    for comp in range(2):
        add_rhs("S", sel, row_primary, 2 * top.sf_owner[sel] + comp,
                -nK[sel, comp] * w_flux[sel])
        add_rhs("S", sel, row_primary, 2 * top.sf_nbr[sel] + comp,
                nL[sel, comp] * w_flux[sel])

    # potential continuity: gK.dK - gL.dL = pL - pK
    add_m(sel, row_secondary, top.sc_of_owner, dK[sel])
    add_m(sel, row_secondary, top.sc_of_nbr, -dL[sel])
    add_rhs("N", sel, row_secondary, top.sf_nbr[sel], np.ones(sel.size))
    add_rhs("N", sel, row_secondary, top.sf_owner[sel], -np.ones(sel.size))

    # Dirichlet: gK.(x_fc - x_K) = b - pK
    sel = np.where(is_dir_sf)[0]
    add_m(sel, row_primary, top.sc_of_owner, dK_fc[sel])
    add_rhs("R", sel, row_primary, top.sf_face[sel], np.ones(sel.size))
    add_rhs("N", sel, row_primary, top.sf_owner[sel], -np.ones(sel.size))

    # Neumann: -nK gK + nK rK = b/2  (outward flux, half per subface)
    sel = np.where(is_neu_sf)[0]
    add_m(sel, row_primary, top.sc_of_owner, -nK[sel] * w_flux[sel, None])
    add_rhs("R", sel, row_primary, top.sf_face[sel], 0.5 * w_flux[sel])
    for comp in range(2):
        add_rhs("S", sel, row_primary, 2 * top.sf_owner[sel] + comp,
                -nK[sel, comp] * w_flux[sel])

    # assemble and invert the local systems
    col_ptr = 2 * top.sc_node_ptr
    triplets = (
        np.concatenate(m_n),
        np.concatenate(m_r),
        np.concatenate(m_c),
        np.concatenate(m_v),
    )
    m_inv = invert_block_diagonal(top.node_ids, eq_ptr, col_ptr, triplets)

    n_eq = eq_ptr[-1]
    nc, nf = grid.num_cells, grid.num_faces
    mats = {}
    for kind, shape in (("N", (n_eq, nc)), ("R", (n_eq, nf)), ("S", (n_eq, 2 * nc))):
        rows = [r for k, r in zip(lin_kind, lin_rows) if k == kind]
        cols = [c for k, c in zip(lin_kind, lin_cols) if k == kind]
        vals = [v for k, v in zip(lin_kind, lin_vals) if k == kind]
        if rows:
            mats[kind] = sps.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=shape,
            )
        else:
            mats[kind] = sps.csr_matrix(shape)

    grad_cell = m_inv @ mats["N"]
    grad_face = m_inv @ mats["R"]
    grad_src = m_inv @ mats["S"]

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
    # gradients are indexed per subcell in local-system column order
    sc_to_col = sps.csr_matrix(
        (np.ones(2 * top.num_subcells),
         (np.arange(2 * top.num_subcells),
          np.repeat(col_ptr[top.node_pos[top.sc_node]] + 2 * top.sc_local, 2)
          + np.tile([0, 1], top.num_subcells))),
        shape=(2 * top.num_subcells, col_ptr[-1]),
    )
    sf_to_face = sps.csr_matrix(
        (np.ones(top.num_subfaces), (top.sf_face, np.arange(top.num_subfaces))),
        shape=(nf, top.num_subfaces),
    )
    flux_of = sf_to_face @ t_grad @ sc_to_col
    flux = flux_of @ grad_cell
    bound_flux = flux_of @ grad_face
    vector_source = flux_of @ grad_src + sf_to_face @ t_src

    # face-centre potential: average of the owner-side reconstructions
    x_rows = np.repeat(np.arange(top.num_subfaces), 2)
    x_mat = sps.csr_matrix(
        (dK_fc.ravel(), (x_rows, sc_cols.ravel())),
        shape=(top.num_subfaces, 2 * top.num_subcells),
    ) @ sc_to_col
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
                              vector_source, trace_src, bc)
