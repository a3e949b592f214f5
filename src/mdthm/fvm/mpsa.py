"""Multi-point stress approximation for 2d elasticity with scalar coupling.

Same interaction-region construction as the scalar scheme, with one full
displacement gradient per subcell. Local conditions are traction continuity
over subfaces and displacement continuity at the continuity points; the
thermo-poroelastic stress enters the traction balances, so the partial
inversion also yields the pressure/temperature coupling blocks and the
consistent discrete divergence of displacement with its stabilisation
matrices.

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

from mdthm.fvm.local import least_squares_block_solve
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
    bc: BoundaryCondition


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
    row_cond = rows_cond[:, 0]
    row_cont = (rows_cond[:, 1], rows_cond[:, 2])
    eq_ptr = 2 * cond_ptr
    col_ptr = 4 * top.sc_node_ptr
    npos_sf = top.node_pos[top.sf_node]

    n_sf = top.sf_normal
    t_owner = _traction_coeffs(mu[top.sf_owner], lam[top.sf_owner], n_sf)
    t_nbr = _traction_coeffs(
        mu[np.maximum(top.sf_nbr, 0)], lam[np.maximum(top.sf_nbr, 0)], n_sf
    )
    cont_pts = [top.continuity_points(e) for e in (1.0 / 3.0, 2.0 / 3.0)]
    dK = [(pt - grid.cell_centers[:, top.sf_owner]).T for pt in cont_pts]
    dL = [(pt - grid.cell_centers[:, np.maximum(top.sf_nbr, 0)]).T for pt in cont_pts]
    dK_fc = (grid.face_centers[:, top.sf_face] - grid.cell_centers[:, top.sf_owner]).T

    stiff_char = 2 * mu + np.abs(lam)
    node_schar = np.zeros(top.node_ids.size)
    np.maximum.at(node_schar, top.node_pos[top.sc_node], stiff_char[top.sc_cell])
    w_t = 1.0 / node_schar[npos_sf]

    interior = ~top.sf_boundary
    is_dir_sf = bc.is_dir[top.sf_face] & top.sf_boundary
    is_neu_sf = ~bc.is_dir[top.sf_face] & top.sf_boundary

    m_n, m_r, m_c, m_v = [], [], [], []
    lin = {"U": ([], [], []), "R": ([], [], []), "P": ([], [], []), "T": ([], [], [])}

    def add_m(sel, cond_rows, comp, sc, coeffs):
        # coeffs: (n_sel, 4) on the subcell's four gradient components
        for k in range(4):
            m_n.append(npos_sf[sel])
            m_r.append(2 * cond_rows[sel] + comp)
            m_c.append(4 * top.sc_local[sc[sel]] + k)
            m_v.append(coeffs[:, k])

    def add_rhs(kind, sel, cond_rows, comp, cols, vals):
        rows, cs, vs = lin[kind]
        rows.append(eq_ptr[npos_sf[sel]] + 2 * cond_rows[sel] + comp)
        cs.append(cols)
        vs.append(vals)

    # traction continuity: tK - tL = alpha_K pK N - alpha_L pL N + (bK)_K TK N - ...
    sel = np.where(interior)[0]
    for comp in range(2):
        add_m(sel, row_cond, comp, top.sc_of_owner, t_owner[sel, comp] * w_t[sel, None])
        add_m(sel, row_cond, comp, top.sc_of_nbr, -t_nbr[sel, comp] * w_t[sel, None])
        ncomp = n_sf[comp, sel] * w_t[sel]
        add_rhs("P", sel, row_cond, comp, top.sf_owner[sel], alpha[top.sf_owner[sel]] * ncomp)
        add_rhs("P", sel, row_cond, comp, top.sf_nbr[sel], -alpha[top.sf_nbr[sel]] * ncomp)
        add_rhs("T", sel, row_cond, comp, top.sf_owner[sel], beta_ks[top.sf_owner[sel]] * ncomp)
        add_rhs("T", sel, row_cond, comp, top.sf_nbr[sel], -beta_ks[top.sf_nbr[sel]] * ncomp)

    # displacement continuity at the two continuity points
    for point, rows_point in enumerate(row_cont):
        for comp in range(2):
            coeffs_K = np.zeros((sel.size, 4))
            coeffs_K[:, 2 * comp] = dK[point][sel, 0]
            coeffs_K[:, 2 * comp + 1] = dK[point][sel, 1]
            coeffs_L = np.zeros((sel.size, 4))
            coeffs_L[:, 2 * comp] = dL[point][sel, 0]
            coeffs_L[:, 2 * comp + 1] = dL[point][sel, 1]
            add_m(sel, rows_point, comp, top.sc_of_owner, coeffs_K)
            add_m(sel, rows_point, comp, top.sc_of_nbr, -coeffs_L)
            add_rhs("U", sel, rows_point, comp, 2 * top.sf_nbr[sel] + comp,
                    np.ones(sel.size))
            add_rhs("U", sel, rows_point, comp, 2 * top.sf_owner[sel] + comp,
                    -np.ones(sel.size))

    # Dirichlet: u_K + G_K (x_fc - x_K) = b
    sel = np.where(is_dir_sf)[0]
    for comp in range(2):
        coeffs = np.zeros((sel.size, 4))
        coeffs[:, 2 * comp] = dK_fc[sel, 0]
        coeffs[:, 2 * comp + 1] = dK_fc[sel, 1]
        add_m(sel, row_cond, comp, top.sc_of_owner, coeffs)
        add_rhs("R", sel, row_cond, comp, 2 * top.sf_face[sel] + comp, np.ones(sel.size))
        add_rhs("U", sel, row_cond, comp, 2 * top.sf_owner[sel] + comp, -np.ones(sel.size))

    # Neumann: elastic traction = b/2 + alpha pK N + betaK TK N
    sel = np.where(is_neu_sf)[0]
    for comp in range(2):
        add_m(sel, row_cond, comp, top.sc_of_owner, t_owner[sel, comp] * w_t[sel, None])
        add_rhs("R", sel, row_cond, comp, 2 * top.sf_face[sel] + comp, 0.5 * w_t[sel])
        ncomp = n_sf[comp, sel] * w_t[sel]
        add_rhs("P", sel, row_cond, comp, top.sf_owner[sel], alpha[top.sf_owner[sel]] * ncomp)
        add_rhs("T", sel, row_cond, comp, top.sf_owner[sel], beta_ks[top.sf_owner[sel]] * ncomp)

    triplets = (
        np.concatenate(m_n),
        np.concatenate(m_r),
        np.concatenate(m_c),
        np.concatenate(m_v),
    )
    m_inv = least_squares_block_solve(top.node_ids, eq_ptr, col_ptr, triplets)

    n_eq = eq_ptr[-1]
    shapes = {"U": (n_eq, 2 * nc), "R": (n_eq, 2 * nf), "P": (n_eq, nc), "T": (n_eq, nc)}
    mats = {}
    for kind, (rows, cols, vals) in lin.items():
        if rows:
            mats[kind] = sps.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=shapes[kind],
            )
        else:
            mats[kind] = sps.csr_matrix(shapes[kind])

    grad_u = m_inv @ mats["U"]
    grad_b = m_inv @ mats["R"]
    grad_p = m_inv @ mats["P"]
    grad_t = m_inv @ mats["T"]

    # subcell gradient layout in local-system column order
    sc_cols_global = (
        np.repeat(col_ptr[top.node_pos[top.sc_node]] + 4 * top.sc_local, 4)
        + np.tile(np.arange(4), top.num_subcells)
    )
    sc_to_col = sps.csr_matrix(
        (np.ones(4 * top.num_subcells), (np.arange(4 * top.num_subcells), sc_cols_global)),
        shape=(4 * top.num_subcells, col_ptr[-1]),
    )

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
    direct_p = sps.csr_matrix(
        (-np.tile(alpha[top.sf_owner], 2) * nvals, (rows_d, cols_d)),
        shape=(2 * top.num_subfaces, nc),
    )
    direct_t = sps.csr_matrix(
        (-np.tile(beta_ks[top.sf_owner], 2) * nvals, (rows_d, cols_d)),
        shape=(2 * top.num_subfaces, nc),
    )
    grad_p_op = sf_to_face @ (t_full @ grad_p + direct_p)
    grad_t_op = sf_to_face @ (t_full @ grad_t + direct_t)

    # integrated divergence: sum of subcell volumes times gradient traces
    dg_rows = np.concatenate([top.sc_cell, top.sc_cell])
    dg_cols = np.concatenate([4 * np.arange(top.num_subcells),
                              4 * np.arange(top.num_subcells) + 3])
    sc_volume = subcell_volumes(top)
    dg_vals = np.concatenate([sc_volume, sc_volume])
    d_g = sps.csr_matrix(
        (dg_vals, (dg_rows, dg_cols)), shape=(nc, 4 * top.num_subcells)
    ) @ sc_to_col
    div_u = d_g @ grad_u
    bound_div_u = d_g @ grad_b
    stab_p = d_g @ grad_p
    stab_t = d_g @ grad_t

    out = VectorMechanicsOps(stress, bound_stress, grad_p_op, grad_t_op,
                             div_u, bound_div_u, stab_p, stab_t, bc)
    for mat in (out.stress, out.bound_stress, out.grad_p, out.grad_T,
                out.div_u, out.bound_div_u, out.stab_p, out.stab_T):
        mat.eliminate_zeros()
    return out
