"""Shared problem-construction helpers for the system-level tests."""

import numpy as np

from mdthm.constitutive import DilationModel, MaterialSet
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
