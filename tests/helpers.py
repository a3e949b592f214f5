"""Shared problem-construction helpers for the system-level tests, and
the checks that only tests make: the complementarity report of a converged
contact state and the closure defect of a grid."""

import numpy as np

from mdthm.constitutive import DilationModel, MaterialSet
from mdthm.contact import ContactState, classify, residuals
from mdthm.mdmesh import SIDE_CODE, build_lattice
from mdthm.system import Assembler, DirectSolver, Loads, NewtonParams, State


def default_bc_types(grid):
    side = grid.tags["domain_side"]
    return {
        "mech": np.isin(side, (SIDE_CODE["bottom"], SIDE_CODE["top"])),
        "flow": np.isin(side, (SIDE_CODE["left"], SIDE_CODE["right"])),
        "heat": np.isin(side, (SIDE_CODE["left"], SIDE_CODE["right"])),
    }


def make_problem(fractures=(), nx=8, ny=8, mat=None, model=DilationModel.TWO_WAY,
                 perturb=0.0, seed=0, bc_types=None, transient=True):
    mat = mat or MaterialSet()
    mdg = build_lattice("triangular", nx, ny, fractures, perturb=perturb, seed=seed)
    bc = bc_types or default_bc_types(mdg.matrix)
    asm = Assembler(mdg, mat, model, bc, transient=transient)
    state = State(asm.dofs)
    init = {(dim, "T"): mat.reference_temperature for dim in mdg.grids}
    init[(1, "lam")] = np.tile([0.0, -1e6], mdg.grids[1].num_cells)
    state.set_initial(init)
    return mdg, asm, state


def make_loads(asm, mat=None, top_displacement=(0.0, 0.0), p_left=0.0,
               T_left=None, prev_top_displacement=None, wells=None):
    mat = mat or asm.mat
    g = asm.matrix
    side = g.tags["domain_side"]
    nf = g.num_faces
    bc_mech = np.zeros(2 * nf)
    top = np.where(side == SIDE_CODE["top"])[0]
    bc_mech[2 * top] = top_displacement[0]
    bc_mech[2 * top + 1] = top_displacement[1]
    bc_mech_prev = np.zeros(2 * nf)
    if prev_top_displacement is not None:
        bc_mech_prev[2 * top] = prev_top_displacement[0]
        bc_mech_prev[2 * top + 1] = prev_top_displacement[1]
    else:
        bc_mech_prev = bc_mech.copy()
    dir_flow = asm.bc["flow"].is_dir
    bc_flow = {2: np.where(dir_flow & (side == SIDE_CODE["left"]), p_left, 0.0)}
    T0 = mat.reference_temperature
    t_left = T0 if T_left is None else T_left
    vals = np.where(dir_flow, T0, 0.0)
    vals[dir_flow & (side == SIDE_CODE["left"])] = t_left
    bc_heat = {2: vals}
    loads = Loads(bc_mech, bc_mech_prev, bc_flow, bc_heat)
    if wells:
        loads.well_rates = wells.get("rates", {})
        loads.well_T_injection = wells.get("T_inj", {})
    return loads


def column_scales(asm, scales):
    """Each dof's characteristic magnitude, as Newton scales its column."""
    return np.array([scales.get(var, 1.0) for var in asm.dofs.variable])


def default_params(mat=None, **kw):
    mat = mat or MaterialSet()
    k_u = kw.pop("k_u", 5.4e-4)
    k_p = kw.pop("k_p", 4e7)
    k_T = kw.pop("k_T", 15.0)
    scales = {
        "u": k_u, "u_m": k_u, "p": k_p, "T": k_T,
        "lam": mat.youngs_modulus * k_u,
        "nu": 1e-6, "nu_adv": 1e3, "nu_cond": 1.0,
    }
    scales.update(kw.pop("scales", {}))
    return NewtonParams(scales=scales, **kw)


def run_solver(asm):
    """The block solver of a run on ``asm``, as a scenario builds it."""
    return DirectSolver(asm.dofs.mechanics, asm.dofs.contact)


def plain_solve(A, b):
    """x with A x = b by a DirectSolver with no mechanics unknown, unit
    column scales and a zero start: GMRES on the whole system."""
    n = A.shape[0]
    none = np.zeros(n, dtype=bool)
    return DirectSolver(none, none).solve(A, b, np.ones(n), np.zeros(n))


def complementarity_report(lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap,
                           c_num, friction):
    """Worst scaled violation of the contact conditions at a converged state.

    Checks nonpenetration (jump_n >= g, lam_n <= 0, complementarity), the
    Coulomb bound, and that gliding cells slip parallel to the tangential
    traction, where their scaled slip exceeds 1e-8. The scale is
    max(1, |lam|) per cell.
    """
    lam_t = np.asarray(lam_t, float)
    lam_n = np.asarray(lam_n, float)
    scale = np.maximum(1.0, np.hypot(lam_t, lam_n))
    viol = np.zeros_like(scale)
    viol = np.maximum(viol, (gap - jump_n) / 1.0)  # penetration [m]
    viol = np.maximum(viol, lam_n / scale)  # tension
    viol = np.maximum(viol, np.abs(lam_n * (jump_n - gap)) / scale)
    viol = np.maximum(viol, (np.hypot(lam_t, 0.0) + friction * lam_n) / scale)
    c_n, c_t = residuals(lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap, c_num, friction)
    viol = np.maximum(viol, np.abs(c_n) / scale)
    viol = np.maximum(viol, np.abs(c_t) / scale**2)
    # slip alignment on gliding cells
    state = classify(lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap, c_num, friction)
    gliding = state == ContactState.GLIDING
    d_t = jump_t - jump_t_prev
    active = gliding & (np.abs(d_t) * c_num > 1e-8 * scale)
    align = np.zeros_like(scale)
    align[active] = np.where(
        np.sign(d_t[active]) == np.sign(lam_t[active]), 0.0, 1.0
    )
    viol = np.maximum(viol, align)
    return float(viol.max()) if viol.size else 0.0


def check_closure(grid) -> float:
    """Max relative defect of the per-cell sum of outward area normals."""
    signed = grid.cell_faces_csr()
    if grid.num_faces == 0:
        return 0.0
    defect = np.abs(signed @ grid.face_normals.T)
    scale = np.maximum((np.abs(signed) @ grid.face_areas)[:, None], 1e-300)
    return float((defect / scale).max())
