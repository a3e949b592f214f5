"""Multi-point stress approximation for 2d elasticity with scalar coupling.

Same interaction regions as the scalar scheme, gathered and solved by the
same :class:`mdthm.fvm.local.LocalSystems`, with one full displacement
gradient (four components) per subcell. This module states the local
conditions: traction continuity over subfaces and displacement continuity at
two points per subface, which makes the local systems overdetermined, so
they are solved by least squares. The thermo-poroelastic stress enters the
traction balances, so the partial inversion also yields the
pressure/temperature coupling blocks and the consistent discrete divergence
of displacement with its stabilisation matrices.

Stress convention (volumetric/deviatoric split in the ambient dimension):
sigma = 2 G eps + (K - 2 G / nd) tr(eps) I - alpha (p - p0) I - beta_s K (T - T0) I,
so a uniaxial stretch u = (x, 0) carries sigma_xx = 2 G + K - 2 G / nd.
Face stress matrices return integrated elastic tractions oriented along the
stored face normal; grad_p / grad_T return the full pressure/temperature
contribution to the face traction including the direct -alpha p n term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from mdthm.fvm.local import LocalSystems, least_squares_block_solve
from mdthm.fvm.mpfa import BoundaryCondition
from mdthm.fvm.subcell import SubcellTopology, subcell_volumes
from mdthm.mdmesh.grids import MeshError, SubdomainGrid


@dataclass
class VectorMechanicsOps:
    """Operators of one mechanics discretisation.

    stress:        (2 faces) x (2 cells), elastic face tractions
    bound_stress:  (2 faces) x (2 faces), boundary-data tractions
    grad_p/grad_T: (2 faces) x cells, scalar contributions to face tractions
    div_u:         cells x (2 cells), discrete integrated divergence
    bound_div_u:   cells x (2 faces)
    stab_p/stab_T: cells x cells, divergence response to the scalars
    """

    stress: sps.csr_matrix
    bound_stress: sps.csr_matrix
    grad_p: sps.csr_matrix
    grad_T: sps.csr_matrix
    div_u: sps.csr_matrix
    bound_div_u: sps.csr_matrix
    stab_p: sps.csr_matrix
    stab_T: sps.csr_matrix


def _traction_coeffs(mu, lam, normals):
    """(n, 2, 4) coefficients of t = sigma(G) . N on [Gxx, Gxy, Gyx, Gyy]."""
    nx, ny = normals
    out = np.zeros((nx.size, 2, 4))
    out[:, 0, 0] = (2 * mu + lam) * nx
    out[:, 0, 1] = mu * ny
    out[:, 0, 2] = mu * ny
    out[:, 0, 3] = lam * nx
    out[:, 1, 0] = lam * ny
    out[:, 1, 1] = mu * nx
    out[:, 1, 2] = mu * nx
    out[:, 1, 3] = (2 * mu + lam) * ny
    return out


def _displacement_coeffs(d, comp):
    """(n, 4) coefficients of component ``comp`` of G d on [Gxx, Gxy, Gyx, Gyy]."""
    out = np.zeros((d.shape[0], 4))
    out[:, 2 * comp:2 * comp + 2] = d
    return out


def mpsa_discretize(grid: SubdomainGrid, mu, lam, alpha, beta_ks,
                    bc: BoundaryCondition) -> VectorMechanicsOps:
    """Discretise quasi-static elasticity with pressure/temperature coupling.

    ``mu``/``lam`` are cellwise Lame coefficients, ``alpha`` the Biot
    coefficient and ``beta_ks`` the thermal stress coefficient (both cellwise
    or scalar). Neumann data is the total (thermo-poroelastic) integrated
    outward traction per face; Dirichlet data is the face displacement.

    Displacement continuity is enforced at two points per interior subface
    (offsets 1/3 and 2/3 from the face centre towards the node) and the
    overdetermined local systems are solved by least squares; a single
    continuity point admits spurious rotation modes on repetitive lattices,
    quadrilateral ones included.
    """
    if grid.dim != 2:
        raise MeshError("mpsa_discretize expects a 2d grid")
    nc, nf = grid.num_cells, grid.num_faces
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (nc,))
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (nc,))
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (nc,))
    beta_ks = np.broadcast_to(np.asarray(beta_ks, dtype=float), (nc,))
    if np.any(mu <= 0) or np.any(2 * mu + 2 * lam <= 0):
        raise MeshError("stiffness must be positive definite")

    top = SubcellTopology(grid)
    rows_cond, cond_ptr = top.overdetermined_layout(3)
    # two rows per condition, one per vector component
    row_cond = [2 * rows_cond[:, 0] + comp for comp in range(2)]
    row_cont = [[2 * rows_cond[:, point] + comp for comp in range(2)] for point in (1, 2)]

    n_sf = top.sf_normal
    t_owner = _traction_coeffs(mu[top.sf_owner], lam[top.sf_owner], n_sf)
    t_nbr = _traction_coeffs(
        mu[np.maximum(top.sf_nbr, 0)], lam[np.maximum(top.sf_nbr, 0)], n_sf
    )
    cont_pts = [top.continuity_points(e) for e in (1.0 / 3.0, 2.0 / 3.0)]
    dK = [(pt - grid.cell_centers[:, top.sf_owner]).T for pt in cont_pts]
    dL = [(pt - grid.cell_centers[:, np.maximum(top.sf_nbr, 0)]).T for pt in cont_pts]
    dK_fc = (grid.face_centers[:, top.sf_face] - grid.cell_centers[:, top.sf_owner]).T
    w_t = top.node_scaling(2 * mu + np.abs(lam))
    interior, dirichlet, neumann = top.subfaces_by_condition(bc.is_dir)

    # right-hand sides: cell displacements U, boundary data R, pressure P,
    # temperature T
    local = LocalSystems(top, 2 * cond_ptr, 4, {"U": 2 * nc, "R": 2 * nf, "P": nc, "T": nc})

    # traction continuity: tK - tL = alpha_K pK N - alpha_L pL N + (bK)_K TK N - ...
    sel = interior
    for comp, rows in enumerate(row_cond):
        local.add_matrix(sel, rows, top.sc_of_owner, t_owner[sel, comp] * w_t[sel, None])
        local.add_matrix(sel, rows, top.sc_of_nbr, -t_nbr[sel, comp] * w_t[sel, None])
        ncomp = n_sf[comp, sel] * w_t[sel]
        local.add_rhs("P", sel, rows, top.sf_owner[sel], alpha[top.sf_owner[sel]] * ncomp)
        local.add_rhs("P", sel, rows, top.sf_nbr[sel], -alpha[top.sf_nbr[sel]] * ncomp)
        local.add_rhs("T", sel, rows, top.sf_owner[sel], beta_ks[top.sf_owner[sel]] * ncomp)
        local.add_rhs("T", sel, rows, top.sf_nbr[sel], -beta_ks[top.sf_nbr[sel]] * ncomp)

    # displacement continuity at the two continuity points
    for dK_pt, dL_pt, rows_pt in zip(dK, dL, row_cont):
        for comp, rows in enumerate(rows_pt):
            local.add_matrix(sel, rows, top.sc_of_owner, _displacement_coeffs(dK_pt[sel], comp))
            local.add_matrix(sel, rows, top.sc_of_nbr, -_displacement_coeffs(dL_pt[sel], comp))
            local.add_rhs("U", sel, rows, 2 * top.sf_nbr[sel] + comp, np.ones(sel.size))
            local.add_rhs("U", sel, rows, 2 * top.sf_owner[sel] + comp, -np.ones(sel.size))

    # Dirichlet: u_K + G_K (x_fc - x_K) = b
    sel = dirichlet
    for comp, rows in enumerate(row_cond):
        local.add_matrix(sel, rows, top.sc_of_owner, _displacement_coeffs(dK_fc[sel], comp))
        local.add_rhs("R", sel, rows, 2 * top.sf_face[sel] + comp, np.ones(sel.size))
        local.add_rhs("U", sel, rows, 2 * top.sf_owner[sel] + comp, -np.ones(sel.size))

    # Neumann: elastic traction = b/2 + alpha pK N + betaK TK N
    sel = neumann
    for comp, rows in enumerate(row_cond):
        local.add_matrix(sel, rows, top.sc_of_owner, t_owner[sel, comp] * w_t[sel, None])
        local.add_rhs("R", sel, rows, 2 * top.sf_face[sel] + comp, 0.5 * w_t[sel])
        ncomp = n_sf[comp, sel] * w_t[sel]
        local.add_rhs("P", sel, rows, top.sf_owner[sel], alpha[top.sf_owner[sel]] * ncomp)
        local.add_rhs("T", sel, rows, top.sf_owner[sel], beta_ks[top.sf_owner[sel]] * ncomp)

    grad = local.solve(least_squares_block_solve)
    grad_u, grad_b, grad_p, grad_t = grad["U"], grad["R"], grad["P"], grad["T"]
    sc_to_col = local.subcell_columns()

    # elastic traction of the owner subcell per subface, summed over faces
    rows = np.repeat(2 * np.arange(top.num_subfaces), 4)
    rows = np.concatenate([rows, rows + 1])
    cols = np.tile(
        (4 * top.sc_of_owner[:, None] + np.arange(4)[None]).ravel(), 2
    )
    vals = np.concatenate([t_owner[:, 0, :].ravel(), t_owner[:, 1, :].ravel()])
    t_full = sps.csr_matrix(
        (vals, (rows, cols)), shape=(2 * top.num_subfaces, 4 * top.num_subcells)
    ) @ sc_to_col
    sf_to_face = sps.csr_matrix(
        (np.ones(2 * top.num_subfaces),
         (np.repeat(2 * top.sf_face, 2) + np.tile([0, 1], top.num_subfaces),
          np.arange(2 * top.num_subfaces))),
        shape=(2 * nf, 2 * top.num_subfaces),
    )
    stress = sf_to_face @ t_full @ grad_u
    bound_stress = sf_to_face @ t_full @ grad_b

    # direct -alpha p N / -beta K T N face terms plus the consistent response
    rows_d = np.concatenate(
        [2 * np.arange(top.num_subfaces), 2 * np.arange(top.num_subfaces) + 1]
    )
    cols_d = np.tile(top.sf_owner, 2)
    nvals = np.concatenate([n_sf[0], n_sf[1]])

    def direct(coeff):
        return sps.csr_matrix((-np.tile(coeff[top.sf_owner], 2) * nvals, (rows_d, cols_d)),
                              shape=(2 * top.num_subfaces, nc))

    grad_p_op = sf_to_face @ (t_full @ grad_p + direct(alpha))
    grad_t_op = sf_to_face @ (t_full @ grad_t + direct(beta_ks))

    # integrated divergence: sum of subcell volumes times gradient traces
    dg_cols = np.concatenate([4 * np.arange(top.num_subcells),
                              4 * np.arange(top.num_subcells) + 3])
    d_g = sps.csr_matrix(
        (np.tile(subcell_volumes(top), 2), (np.tile(top.sc_cell, 2), dg_cols)),
        shape=(nc, 4 * top.num_subcells),
    ) @ sc_to_col
    div_u = d_g @ grad_u
    bound_div_u = d_g @ grad_b
    stab_p = d_g @ grad_p
    stab_t = d_g @ grad_t

    ops = VectorMechanicsOps(stress, bound_stress, grad_p_op, grad_t_op,
                             div_u, bound_div_u, stab_p, stab_t)
    for mat in vars(ops).values():
        mat.eliminate_zeros()
    return ops
