"""The system assembled block by block in coordinate format, as an
independent reference.

The package assembles by filling the slots of one sparsity pattern per run
(``mdthm.system.assembly._Slots``); the tests check that it builds the
matrix and right-hand side that this code builds. Here every block is
composed as a sparse product at the iterate, with the fracture operators
formed at the iterate's diffusivities and the upwind choices as selection
matrices, and the entries of all blocks are summed by one COO-to-CSR
conversion. The laws themselves (storage coefficients, heat carried by
wells, contact rows) are the assembler's.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm import contact as ct
from mdthm.constitutive import carried_heat, cubic_law
from mdthm.fvm import upwind
from mdthm.system.assembly import FLOW, HEAT
from mdthm.system.dofs import LAM, NU, NU_ADV, NU_COND, P, T, U, U_MORTAR


class _Coo:
    """Coordinate-format accumulator of the system matrix: lists of rows,
    columns and values, whose entries at equal positions add up."""

    def __init__(self, n):
        self.n = n
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rows, cols, vals):
        rows = np.asarray(rows, dtype=int)
        self.rows.append(rows)
        self.cols.append(np.asarray(cols, dtype=int))
        self.vals.append(np.broadcast_to(np.asarray(vals, dtype=float), rows.shape))

    def add_mat(self, rows, cols, mat):
        """Add a sparse block whose columns are the global dofs ``cols``, or
        all dofs in order where ``cols`` is None."""
        m = mat.tocoo()
        if m.nnz == 0:
            return
        self.add(np.asarray(rows)[m.row], m.col if cols is None else cols[m.col], m.data)

    def matrix(self):
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        return sps.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))


def _add_to(b, rows, vals):
    np.add.at(b, rows, vals)


def _newton(acc, b, rows, x, blocks):
    """Add derivative blocks D of the rows' residual at the iterate x, as
    (global columns, block) pairs: A += D and b += D x."""
    for cols, block in blocks:
        acc.add_mat(rows, cols, block)
        _add_to(b, rows, block @ x[cols])


def _block_diag(blocks):
    n = 2 * blocks.shape[0]
    cols = np.repeat(np.arange(n).reshape(-1, 2), 2, axis=0).ravel()
    return sps.csr_matrix((np.ravel(blocks), cols, np.arange(0, 2 * n + 1, 2)), shape=(n, n))


def _upwind_matrices(grid, face_flux, exclude):
    """The upwind choice as selectors: the carried value of each face is
    S_cell @ w + S_face @ w_bc."""
    cells, inflow = upwind(grid, face_flux, exclude)
    faces, bnd = np.flatnonzero(cells >= 0), np.flatnonzero(inflow)
    nf, nc = grid.num_faces, grid.num_cells
    return (sps.csr_matrix((np.ones(faces.size), (faces, cells[faces])), shape=(nf, nc)),
            sps.csr_matrix((np.ones(bnd.size), (bnd, bnd)), shape=(nf, nf)))


def _scalar_terms(asm, dim, ops) -> dict:
    div, lift = asm.div[dim], asm.mdg.mortars[dim].lift
    div_bound = (div @ ops.bound_flux).tocsr()
    trace_face = (lift @ ops.trace_face).tocsr()
    return {
        "div_flux": (div @ ops.flux).tocsr(),
        "div_bound": div_bound,
        "div_vsrc": (div @ ops.vector_source).tocsr(),
        "div_bound_mortar": (div_bound @ asm.to_faces[dim]).tocsr(),
        "trace_cell": (lift @ ops.trace_cell).tocsr(),
        "trace_face": trace_face,
        "trace_mortar": (trace_face @ lift.T).tocsr(),
        "trace_vsrc": (lift @ ops.trace_vector_source).tocsr(),
    }


def _tractions(asm, rowmap):
    ops = asm.mech_ops
    bound = (rowmap @ ops.bound_stress).tocsr()
    return {
        "stress": (rowmap @ ops.stress).tocsr(),
        "bound": bound,
        "grad_p": (rowmap @ ops.grad_p).tocsr(),
        "grad_T": (rowmap @ ops.grad_T).tocsr(),
        "bound_mortar": (bound @ asm.to_faces_vec).tocsr(),
    }


def coo_assemble(asm, state, cache, dt, steady, loads):
    """The matrix and right-hand side of ``asm.assemble`` with the same
    arguments."""
    n = asm.dofs.num_dofs
    acc = _Coo(n)
    b = np.zeros(n)
    mf = asm.mdg.mortars[2]
    walls = _tractions(asm, sps.diags(np.repeat(mf.sides, 2)) @ asm.to_faces_vec.T)
    ops = {2: {FLOW: asm.flow_ops, HEAT: asm.heat_ops}, 1: cache.fracture_ops}
    terms = {dim: {var: _scalar_terms(asm, dim, o) for var, o in ops[dim].items()}
             for dim in (2, 1)}
    _matrix_momentum(asm, acc, b, _tractions(asm, asm.div2_vec), loads)
    _balances(asm, acc, b, state, cache, ops, terms, dt, steady, loads)
    _contact_rows(asm, acc, b, cache)
    _traction_balance(asm, acc, b, walls, loads)
    for dim, group in asm.mdg.mortars.items():
        if group.size:
            _mortar_flux_rows(asm, acc, b, group, terms[dim], state, cache, loads)
    return acc.matrix(), b


def _momentum_traction_terms(asm, acc, b, rows, bundle, loads):
    dofs, mat = asm.dofs, asm.mat
    acc.add_mat(rows, dofs.cells(2, U), bundle["stress"])
    acc.add_mat(rows, dofs.cells(2, P), bundle["grad_p"])
    acc.add_mat(rows, dofs.cells(2, T), bundle["grad_T"])
    acc.add_mat(rows, dofs.mortar(2, U_MORTAR), bundle["bound_mortar"])
    ext = asm._ext_mech(loads.bc_mech)
    ones = np.ones(asm.matrix.num_cells)
    b_contrib = -(bundle["bound"] @ ext)
    b_contrib += bundle["grad_p"] @ (mat.reference_pressure * ones)
    b_contrib += bundle["grad_T"] @ (mat.reference_temperature * ones)
    _add_to(b, rows, b_contrib)


def _matrix_momentum(asm, acc, b, mom, loads):
    rows = asm.dofs.cells(2, U)
    _momentum_traction_terms(asm, acc, b, rows, mom, loads)
    _add_to(b, rows, -asm._rho_g(asm.mat.density_solid * asm.matrix.cell_volumes))


def _balances(asm, acc, b, state, cache, ops, terms, dt, steady, loads):
    accumulation = None if steady else asm.accumulation(state, cache, dt)
    for var, svar in ((P, FLOW), (T, HEAT)):
        for dim in asm.mdg.grids:
            if not steady:
                _storage(asm, acc, b, dim, var, accumulation[dim][var], state, loads)
            if dim > 0:
                _scalar_flux_divergence(asm, acc, b, dim, svar, terms[dim][svar], cache, loads)
                if var == T:
                    _advective_divergence(asm, acc, b, dim, ops[dim][FLOW], cache, loads,
                                          state)
            if dim < 2:
                _mortar_sources(asm, acc, dim, var, (NU,) if var == P else (NU_ADV, NU_COND))
            if var == P:
                _add_to(b, asm.dofs.cells(dim, P), asm._wells(dim, loads)[0])
            else:
                _well_energy(asm, acc, b, dim, loads, state)


def _storage(asm, acc, b, dim, var, a, state, loads):
    dofs, xp = asm.dofs, state.prev_step
    other = T if var == P else P
    rows, cols = dofs.cells(dim, var), dofs.cells(dim, other)
    acc.add(rows, rows, a.coef[var])
    acc.add(rows, cols, a.coef[other])
    _add_to(b, rows, a.coef[var] * xp[rows] + a.coef[other] * xp[cols])
    if dim == 2:
        ops = asm.mech_ops
        w = sps.diags(a.weight)
        acc.add_mat(rows, dofs.cells(2, U), w @ ops.div_u)
        acc.add_mat(rows, dofs.mortar(2, U_MORTAR), w @ ops.bound_div_u @ asm.to_faces_vec)
        acc.add_mat(rows, dofs.cells(2, P), w @ ops.stab_p)
        acc.add_mat(rows, dofs.cells(2, T), w @ ops.stab_T)
        _add_to(b, rows, a.weight * asm.div_u(xp, loads.bc_mech_prev))
        _add_to(b, rows, -((w @ ops.bound_div_u) @ asm._ext_mech(loads.bc_mech)))
        return
    if dim == 1:
        acc.add_mat(rows, None, sps.diags(a.weight) @ asm.J[1::2])
    _add_to(b, rows, a.weight * a.lagged)
    _newton(acc, b, rows, state.current,
            [(dofs.cells(dim, v), sps.diags(d)) for v, d in a.dweight.items()])


def _scalar_flux_divergence(asm, acc, b, dim, var, terms, cache, loads):
    cells = asm.dofs.cells(dim, P if var == FLOW else T)
    acc.add_mat(cells, cells, terms["div_flux"])
    acc.add_mat(cells, asm.dofs.mortar(dim, NU if var == FLOW else NU_COND),
                terms["div_bound_mortar"])
    _add_to(b, cells, -(terms["div_bound"] @ asm._ext_scalar(dim, var, loads)))
    if var == FLOW and np.any(np.asarray(asm.mat.gravity)):
        _add_to(b, cells, -(terms["div_vsrc"] @ asm._rho_g(cache.density[dim])))


def _advective_divergence(asm, acc, b, dim, ops, cache, loads, state):
    div, dofs, x = asm.div[dim], asm.dofs, state.current
    grid = asm.mdg.grids[dim]
    p, t = dofs.cells(dim, P), dofs.cells(dim, T)
    q = cache.face_flux[dim]
    s_cell, s_face = _upwind_matrices(grid, q, grid.tags["internal"])
    h_cell, dh_dT, dh_dp = carried_heat(cache.density[dim], x[t], asm.mat)
    h = s_cell @ h_cell + s_face @ asm.boundary_heat_weight(dim, loads, x)
    div_q_up, div_h = div @ sps.diags(q) @ s_cell, div @ sps.diags(h)
    _newton(acc, b, t, x, (
        (t, div_q_up @ sps.diags(dh_dT)),
        (p, div_q_up @ sps.diags(dh_dp) + div_h @ ops.flux),
        (dofs.mortar(dim, NU), div_h @ ops.bound_flux @ asm.to_faces[dim]),
    ))
    _add_to(b, t, -(div @ (q * h)))
    acc.add_mat(t, dofs.mortar(dim, NU_ADV), div @ asm.to_faces[dim])


def _mortar_sources(asm, acc, dim, var, keys):
    group = asm.mdg.mortars[dim + 1]
    rows = np.tile(asm.dofs.cells(dim, var)[group.lo], len(keys))
    cols = np.concatenate([asm.dofs.mortar(dim + 1, key) for key in keys])
    acc.add(rows, cols, -np.ones(rows.size))


def _well_energy(asm, acc, b, dim, loads, state):
    x = state.current
    rates, h, dh_dT, dh_dp = asm.well_heat(dim, loads, x)
    wells = np.flatnonzero(rates)
    if wells.size == 0:
        return
    t, p = asm.dofs.cells(dim, T)[wells], asm.dofs.cells(dim, P)[wells]
    q = rates[wells]
    _newton(acc, b, t, x, ((t, sps.diags(-q * dh_dT[wells])),
                           (p, sps.diags(-q * dh_dp[wells]))))
    _add_to(b, t, q * h[wells])


def _contact_rows(asm, acc, b, cache):
    if not asm.fractures:
        return
    rows = asm.dofs.cells(1, LAM)
    frac = cache.fracture
    lam = frac.lam
    a_lam, a_jump, rhs = ct.contact_rows(
        frac.contact, lam[0::2], lam[1::2], frac.jumps[0::2], frac.jumps[1::2],
        frac.jumps_ref[0::2], frac.gaps, frac.dgaps, asm.c_num, asm.mat.friction_coefficient,
    )
    acc.add_mat(rows, rows, _block_diag(a_lam))
    acc.add_mat(rows, None, _block_diag(a_jump) @ asm.J)
    _add_to(b, rows, rhs.ravel())


def _traction_balance(asm, acc, b, walls, loads):
    rows = asm.dofs.mortar(2, U_MORTAR)
    mf = asm.mdg.mortars[2]
    wall_lam = (sps.diags(np.repeat(mf.areas * mf.sides, 2))
                @ asm.J.T.tocsr()[rows]).tocsr()
    acc.add_mat(rows, asm.dofs.cells(1, LAM), wall_lam)
    acc.add_mat(rows, asm.dofs.cells(1, P), -wall_lam[:, 1::2])
    _momentum_traction_terms(asm, acc, b, rows, walls, loads)


def _mortar_flux_rows(asm, acc, b, group, terms, state, cache, loads):
    mat, dofs, dim, hi, lo = asm.mat, asm.dofs, group.dim, group.hi, group.lo
    ones = np.ones(group.size)
    v_high = cache.spec_vol[dim][hi]
    a_low = cache.apertures[dim - 1][lo]
    k_low = cubic_law(a_low)
    areas = group.areas
    w_flow = areas * v_high * (k_low / mat.viscosity) * 2.0 / a_low
    w_heat = areas * v_high * mat.conductivity_fluid * 2.0 / a_low

    for var, svar, key, w in ((P, FLOW, NU, w_flow), (T, HEAT, NU_COND, w_heat)):
        rows = dofs.mortar(dim, key)
        acc.add(rows, rows, ones)
        acc.add(rows, dofs.cells(dim - 1, var)[lo], w)
        wd = sps.diags(w)
        tr = terms[svar]
        acc.add_mat(rows, dofs.cells(dim, var), -(wd @ tr["trace_cell"]))
        acc.add_mat(rows, rows, -(wd @ tr["trace_mortar"]))
        _add_to(b, rows, w * (tr["trace_face"] @ asm._ext_scalar(dim, svar, loads)))
        if var == P and np.any(np.asarray(mat.gravity)):
            grav = np.asarray(mat.gravity, float)
            _add_to(b, rows, w * (tr["trace_vsrc"] @ asm._rho_g(cache.density[dim])))
            rho_l = cache.density[dim - 1][lo]
            gn = (grav[:, None] * group.normals).sum(axis=0)
            _add_to(b, rows, areas * v_high * (k_low / mat.viscosity) * rho_l * gn)

    rows, x = dofs.mortar(dim, NU_ADV), state.current
    nu_dofs = dofs.mortar(dim, NU)
    nu = x[nu_dofs]
    high = nu > 0

    def upstream(var):
        return np.where(high, dofs.cells(dim, var)[hi], dofs.cells(dim - 1, var)[lo])

    t_up, p_up = upstream(T), upstream(P)
    rho = np.where(high, cache.density[dim][hi], cache.density[dim - 1][lo])
    h, dh_dT, dh_dp = carried_heat(rho, x[t_up], mat)
    acc.add(rows, rows, ones)
    _newton(acc, b, rows, x, ((nu_dofs, sps.diags(-h)),
                              (t_up, sps.diags(-nu * dh_dT)),
                              (p_up, sps.diags(-nu * dh_dp))))
    _add_to(b, rows, nu * h)
