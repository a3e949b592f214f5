"""Monolithic semismooth Newton iteration and the direct linear solver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from mdthm import contact as ct
from mdthm.constitutive import aperture_unchecked
from mdthm.mdmesh import split_cells
from mdthm.system.assembly import Assembler, IterationCache, Loads
from mdthm.system.dofs import State

# Convergence needs the scaled contact residual at most CONTACT_TOL, and
# either a scaled increment at most NewtonParams.increment_tol or a scaled
# residual at most RESIDUAL_FLOOR (a start at the solution).
CONTACT_TOL = 1e-8
RESIDUAL_FLOOR = 1e-11


class SolverFailure(RuntimeError):
    pass


class DirectSolver:
    """Sparse LU with row/column equilibration and a verified residual bound.

    Column scales carry the characteristic magnitude of each unknown
    (displacements in metres against tractions in pascals differ by many
    orders); without them the traction columns are numerically invisible
    after row equilibration.
    """

    def __init__(self, tol: float = 1e-10):
        self.tol = tol

    def solve(self, A: sps.spmatrix, b: np.ndarray,
              col_scale: np.ndarray | None = None) -> np.ndarray:
        b_norm = np.linalg.norm(b)
        if b_norm == 0.0:
            return np.zeros_like(b)
        A = A.tocsr()
        cs = np.ones(A.shape[1]) if col_scale is None else np.asarray(col_scale)
        ac = A @ sps.diags(cs)
        row_max = np.maximum(np.abs(ac).max(axis=1).toarray().ravel(), 1e-300)
        scaled = (sps.diags(1.0 / row_max) @ ac).tocsc()
        try:
            lu = spla.splu(scaled)
            bs = b / row_max
            y = lu.solve(bs)
            # two rounds of iterative refinement push the componentwise
            # error towards the roundoff of the equilibrated system
            for _ in range(2):
                y += lu.solve(bs - scaled @ y)
        except RuntimeError as err:
            raise SolverFailure(f"sparse factorisation failed: {err}") from err
        x = cs * y
        rel = np.linalg.norm(A @ x - b) / b_norm
        if not np.isfinite(rel) or rel > self.tol:
            raise SolverFailure(
                f"linear solve residual {rel:.3e} exceeds {self.tol:.1e}"
            )
        return x


@dataclass
class NewtonParams:
    max_iterations: int = 50
    increment_tol: float = 1e-10
    scales: dict = field(default_factory=dict)
    damping: float = 1.0
    damping_threshold: float = 0.1


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    increment_history: list
    residual_history: list
    contact_residual: float
    failure: str = ""


def contact_residual_norm(assembler: Assembler, cache: IterationCache) -> float:
    """Worst scaled complementarity residual over all fracture cells, at
    the state the cache was built at."""
    frac = cache.fracture
    if frac.lam.size == 0:
        return 0.0
    lam_t, lam_n = frac.lam[0::2], frac.lam[1::2]
    c_n, c_t = ct.residuals(
        lam_t, lam_n, frac.jumps[0::2], frac.jumps[1::2], frac.jumps_ref[0::2],
        frac.gaps, assembler.c_num, assembler.mat.friction_coefficient,
    )
    scale = np.maximum(1.0, np.hypot(lam_t, lam_n))
    return max(float(np.max(np.abs(c_n) / scale)),
               float(np.max(np.abs(c_t) / scale**2)))


PRIMARY_VARIABLES = ("u", "u_m", "p", "T", "lam")


def scaled_increment(assembler: Assembler, dx: np.ndarray,
                     scales: dict) -> float:
    """Scaled infinity norm of the primary-variable update.

    The convergence weights cover displacement, pressure, temperature and
    contact traction; the interface fluxes are linear consequences of those
    fields and follow them to the solver's precision floor.
    """
    worst = 0.0
    for (kind, ident, var), sl in assembler.dofs.blocks():
        if var not in PRIMARY_VARIABLES:
            continue
        k = scales.get(var, 1.0)
        if sl.stop > sl.start:
            worst = max(worst, float(np.abs(dx[sl]).max()) / k)
    return worst


def newton_solve(assembler: Assembler, state: State, dt: float, steady: bool,
                 loads: Loads, params: NewtonParams,
                 solver: DirectSolver | None = None) -> NewtonReport:
    """Iterate the lagged-coefficient linearisation to a fixed point.

    Each iteration reclassifies the contact sets, refreshes apertures,
    specific volumes, densities, fracture permeabilities and advective
    fluxes from the previous iterate, reassembles and solves the monolithic
    system for the full next iterate.
    """
    solver = solver or DirectSolver()
    cache: IterationCache | None = None
    inc_hist, res_hist = [], []
    last_inc = np.inf
    col_scale = _scale_vector(assembler, params.scales)

    for it in range(params.max_iterations + 1):
        state.start_iteration()
        cache = assembler.build_cache(
            state, loads, prev_cache=cache, damping=params.damping,
            damping_threshold=params.damping_threshold,
        )
        A, b = assembler.assemble(state, cache, dt, steady, loads)
        residual = A @ state.current - b
        row_scale = np.abs(A) @ col_scale + 1e-300
        res_scaled = float(np.max(np.abs(residual) / row_scale))
        res_hist.append(res_scaled)
        # the cache is built at prev_iter, which start_iteration set to current
        contact_res = contact_residual_norm(assembler, cache)

        contact_ok = contact_res <= CONTACT_TOL
        converged = (it > 0 and last_inc <= params.increment_tol and contact_ok) or (
            res_scaled <= RESIDUAL_FLOOR and contact_ok
        )
        if converged:
            _check_apertures(assembler, state.current)
            return NewtonReport(True, it, inc_hist, res_hist, contact_res)
        if it == params.max_iterations:
            return NewtonReport(
                False, it, inc_hist, res_hist, contact_res,
                failure="iteration cap exceeded",
            )
        try:
            x_new = solver.solve(A, b, col_scale)
        except SolverFailure as err:
            return NewtonReport(
                False, it, inc_hist, res_hist, contact_res, failure=str(err)
            )
        dx = x_new - state.current
        last_inc = scaled_increment(assembler, dx, params.scales)
        inc_hist.append(last_inc)
        state.current[:] = x_new
    return NewtonReport(False, params.max_iterations, inc_hist, res_hist,
                        np.inf, failure="unreachable")


def _scale_vector(assembler: Assembler, scales: dict) -> np.ndarray:
    out = np.ones(assembler.dofs.num_dofs)
    for (kind, ident, var), sl in assembler.dofs.blocks():
        out[sl] = scales.get(var, 1.0)
    return out


def _check_apertures(assembler: Assembler, x: np.ndarray):
    """Converged states must satisfy nonpenetration strictly: a positive
    aperture in every fracture cell."""
    jump = assembler.jumps(x)
    a = aperture_unchecked(jump[1::2], jump[0::2], assembler.model, assembler.mat)
    closed = [k for k, part in split_cells(assembler.grids[1], a).items() if np.any(part <= 0.0)]
    if closed:
        raise ct.ContactError(
            f"nonpositive aperture on fracture subdomain {closed[0]} at a "
            "converged state: nonpenetration is violated"
        )
