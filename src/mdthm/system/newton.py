"""Semismooth Newton iteration and its block linear solver.

Each Newton step is one coupled linear system in all unknowns. It is not
factored as a whole: :class:`DirectSolver` eliminates the mechanics
directly, with the elastic factor kept for the whole run, and solves the
flow and heat unknowns by preconditioned GMRES.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from mdthm import contact as ct
from mdthm.constitutive import aperture_unchecked
from mdthm.mdmesh import split_cells
from mdthm.system.assembly import Assembler, IterationCache, Loads
from mdthm.system.dofs import State

# Convergence needs the scaled contact residual at most CONTACT_TOL, and
# either a scaled increment at most NewtonParams.increment_tol or a scaled
# residual at most RESIDUAL_FLOOR times increment_tol (a start at the
# solution). The floor follows the requested tolerance, so that a tighter
# tolerance is not cut short by a residual that is small but not small
# enough for it.
CONTACT_TOL = 1e-8
RESIDUAL_FLOOR = 1e-4
# A linear solve fails when its relative residual exceeds SOLVE_TOL.
SOLVE_TOL = 1e-10
# GMRES on the scalar unknowns stops at GMRES_RTOL times its initial
# residual, or at the roundoff floor GMRES_FLOOR (about 13 ulps) times the
# norm of the equilibrated scalar right-hand side; a residual at the floor
# is not solved at all. A floor of 1e-14 left residuals above Newton's
# residual floor at increment_tol 1e-10, and Newton stalled on roundoff. A
# preconditioner reused from an earlier iteration gets REUSE_ITERATIONS
# iterations before it is refactored; a fresh one gets FRESH_CYCLES restart
# cycles of FRESH_RESTART iterations.
GMRES_RTOL = 1e-10
GMRES_FLOOR = 3e-15
REUSE_ITERATIONS = 10
FRESH_RESTART, FRESH_CYCLES = 30, 3


class SolverFailure(RuntimeError):
    pass


class DirectSolver:
    """Block solve of one Newton system, with row/column equilibration and a
    verified residual bound.

    Column scales carry the characteristic magnitude of each unknown
    (displacements in metres against tractions in pascals differ by many
    orders); without them the traction columns are numerically invisible
    after row equilibration. The rows are then scaled by their maxima.

    The unknowns split into E, the elastic ones (u, u_m: ``mechanics`` and
    not ``contact``); C, the contact tractions (lam: ``contact``); and S,
    the scalar ones (p, T, nu, nu_adv, nu_cond); M is E with C.

    - K = A_EE, the MPSA stress and the wall traction balance, does not
      depend on the state. It is factored once, with W = K^-1 A_EC, and
      refactored only when the equilibrated E rows differ from the factored
      ones.
    - A_MM^-1 is one K solve and one solve with the small dense Schur
      complement A_CC - A_CE W, which is factored on each call.
    - The correction of the scalar unknowns from the starting point x0
      solves A_SS, when no scalar row has an entry in a mechanics column
      (every steady system), or else the Schur complement
      A_SS - A_SM A_MM^-1 A_MS, applied matrix-free, by GMRES. Its
      preconditioner is an LU of A_SS, reused until :meth:`start_step` or
      until GMRES needs more than REUSE_ITERATIONS iterations with it. A
      solve of A_SS with its own fresh LU is refined twice. A scalar
      residual at the roundoff floor is taken as solved, with no
      factorisation.
    - The mechanics follow by x_M = A_MM^-1 (b_M - A_MS x_S), with two
      rounds of iterative refinement.

    Without ``mechanics`` M is empty and GMRES solves the whole system. The
    residual of the whole system is checked against SOLVE_TOL.
    """

    def __init__(self, mechanics: np.ndarray | None = None,
                 contact: np.ndarray | None = None):
        self.mechanics = mechanics
        self.contact = contact
        self._elastic = None  # (equilibrated E rows, LU of K, W) as factored
        self._precond = None  # LU of the equilibrated A_SS

    def start_step(self):
        """Drop the scalar preconditioner: a new time step factors A_SS
        afresh."""
        self._precond = None

    def solve(self, A: sps.spmatrix, b: np.ndarray,
              col_scale: np.ndarray | None = None,
              x0: np.ndarray | None = None) -> np.ndarray:
        b_norm = np.linalg.norm(b)
        if b_norm == 0.0:
            return np.zeros_like(b)
        A = A.tocsr()
        n = A.shape[0]
        cs = np.ones(n) if col_scale is None else np.asarray(col_scale)
        perm, n_e, n_m = self._ordering(n)
        # the equilibrated system, ordered E, C, S
        scaled = A[perm][:, perm] @ sps.diags(cs[perm])
        row_max = np.maximum(np.abs(scaled).max(axis=1).toarray().ravel(), 1e-300)
        scaled = (sps.diags(1.0 / row_max) @ scaled).tocsr()
        bs = b[perm] / row_max
        y = np.zeros(n) if x0 is None else x0[perm] / cs[perm]

        mech = self._mechanics_inverse(scaled, n_e, n_m)
        r = bs - scaled @ y
        floor = GMRES_FLOOR * np.linalg.norm(bs[n_m:])
        y[n_m:] += self._scalar_correction(scaled, n_m, mech, r, floor)
        # back-substitution, refined towards the roundoff of the M block
        a_mm = scaled[:n_m, :n_m]
        rhs = bs[:n_m] - scaled[:n_m, n_m:] @ y[n_m:]
        y_m = mech(rhs)
        for _ in range(2):
            y_m += mech(rhs - a_mm @ y_m)
        y[:n_m] = y_m

        x = np.empty(n)
        x[perm] = cs[perm] * y
        rel = np.linalg.norm(A @ x - b) / b_norm
        if not np.isfinite(rel) or rel > SOLVE_TOL:
            raise SolverFailure(f"linear solve residual {rel:.3e} exceeds {SOLVE_TOL:.1e}")
        return x

    def _ordering(self, n: int):
        """The permutation to the order E, C, S, and the sizes of E and M."""
        mech = np.zeros(n, dtype=bool) if self.mechanics is None else self.mechanics
        contact = np.zeros(n, dtype=bool) if self.contact is None else self.contact
        e, c = np.flatnonzero(mech & ~contact), np.flatnonzero(contact)
        perm = np.concatenate([e, c, np.flatnonzero(~mech)])
        return perm, e.size, e.size + c.size

    def _mechanics_inverse(self, scaled: sps.csr_matrix, n_e: int, n_m: int):
        """r -> A_MM^-1 r, through the kept factor of K, refactored when the
        E rows changed, and this call's dense Schur complement on C."""
        rows = scaled[:n_e]
        kept = self._elastic
        if kept is None or not all(
                np.array_equal(getattr(rows, a), getattr(kept[0], a))
                for a in ("indptr", "indices", "data")):
            lu = _factor(rows[:, :n_e])
            self._elastic = kept = (rows, lu, lu.solve(rows[:, n_e:n_m].toarray()))
        _, lu, w = kept
        contact = scaled[n_e:n_m]
        a_ce = contact[:, :n_e]
        schur = sla.lu_factor(contact[:, n_e:n_m].toarray() - a_ce @ w)

        def solve(r):
            y_e = lu.solve(r[:n_e])
            y_c = sla.lu_solve(schur, r[n_e:] - a_ce @ y_e)
            return np.concatenate([y_e - w @ y_c, y_c])

        return solve

    def _scalar_correction(self, scaled: sps.csr_matrix, n_m: int, mech,
                           r: np.ndarray, floor: float) -> np.ndarray:
        """The correction of the scalar unknowns for the residual r of the
        whole system, by preconditioned GMRES; a residual at most ``floor``
        is roundoff."""
        a_s = scaled[n_m:]
        a_ss, a_sm = a_s[:, n_m:], a_s[:, :n_m]
        g = r[n_m:]
        if a_sm.data.any():
            a_ms = scaled[:n_m, n_m:]
            g = g - a_sm @ mech(r[:n_m])
            op = spla.LinearOperator(a_ss.shape, dtype=float,
                                     matvec=lambda v: a_ss @ v - a_sm @ mech(a_ms @ v))
        else:
            op = a_ss
        g_norm = np.linalg.norm(g)
        if g_norm <= floor:
            return np.zeros_like(g)
        atol = max(GMRES_RTOL * g_norm, floor)
        if self._precond is not None:
            dy, info = _gmres(op, g, self._precond, atol, REUSE_ITERATIONS, 1)
            if info == 0:
                return dy
        self._precond = _factor(a_ss)
        dy, info = _gmres(op, g, self._precond, atol, FRESH_RESTART, FRESH_CYCLES)
        if info != 0:
            raise SolverFailure(
                f"GMRES on the scalar unknowns did not reach {atol:.3e} in "
                f"{FRESH_CYCLES} cycles of {FRESH_RESTART}")
        if op is a_ss:
            # GMRES tests the 2-norm of the residual. With the operator's own
            # factor, two rounds of refinement bring each component to the
            # accuracy of a refined direct solve, as for the mechanics.
            for _ in range(2):
                dy += self._precond.solve(g - a_ss @ dy)
        return dy


def _factor(block: sps.spmatrix):
    try:
        return spla.splu(block.tocsc())
    except RuntimeError as err:
        raise SolverFailure(f"sparse factorisation failed: {err}") from err


def _gmres(op, g, lu, atol, restart, cycles):
    """GMRES from zero, preconditioned from the right by the LU ``lu``, so
    that its stopping test and its minimised residual are those of op
    itself."""
    right = spla.LinearOperator(op.shape, matvec=lambda z: op @ lu.solve(z), dtype=float)
    z, info = spla.gmres(right, g, rtol=0.0, atol=atol, restart=restart, maxiter=cycles)
    return lu.solve(z), info


@dataclass
class NewtonParams:
    max_iterations: int = 50
    increment_tol: float = 1e-10
    scales: dict = field(default_factory=dict)


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


def scaled_increment(dx: np.ndarray, col_scale: np.ndarray, primary: np.ndarray) -> float:
    """Scaled infinity norm of the update of the ``primary`` dofs, each
    divided by its column scale.

    The convergence weights cover displacement, pressure, temperature and
    contact traction; the interface fluxes are linear consequences of those
    fields and follow them to the solver's precision floor.
    """
    return float(np.max(np.abs(dx[primary]) / col_scale[primary], initial=0.0))


def newton_solve(assembler: Assembler, state: State, dt: float, steady: bool,
                 loads: Loads, params: NewtonParams,
                 solver: DirectSolver | None = None) -> NewtonReport:
    """Semismooth Newton iteration on the coupled system of one step.

    Each iteration reclassifies the contact sets, evaluates apertures,
    specific volumes, densities, fracture permeabilities and fluid fluxes
    at the current iterate, and assembles the system linearised there: by
    Newton in the advected heat and the contact conditions, with the
    coefficients that :mod:`mdthm.system.assembly` names lagged. Solving it
    from the current iterate gives the next iterate. A converged state with
    a nonpositive aperture fails, with the fracture named in the report.

    ``solver`` keeps its factors from one call to the next: pass the one
    solver of a run, so that the elastic block is factored once per run.
    Without it a fresh :class:`DirectSolver` serves this step alone.
    """
    if solver is None:
        solver = DirectSolver(assembler.dofs.mechanics, assembler.dofs.contact)
    solver.start_step()
    cache: IterationCache | None = None
    inc_hist, res_hist = [], []
    last_inc = np.inf
    variable = assembler.dofs.variable
    names, of_dof = np.unique(variable, return_inverse=True)
    col_scale = np.array([params.scales.get(var, 1.0) for var in names], dtype=float)[of_dof]
    primary = np.isin(variable, PRIMARY_VARIABLES)

    for it in itertools.count():
        cache = assembler.build_cache(state, loads, prev_cache=cache)
        A, b = assembler.assemble(state, cache, dt, steady, loads)
        residual = A @ state.current - b
        row_scale = np.abs(A) @ col_scale + 1e-300
        res_scaled = float(np.max(np.abs(residual) / row_scale))
        res_hist.append(res_scaled)
        contact_res = contact_residual_norm(assembler, cache)

        contact_ok = contact_res <= CONTACT_TOL
        converged = (it > 0 and last_inc <= params.increment_tol and contact_ok) or (
            res_scaled <= RESIDUAL_FLOOR * params.increment_tol and contact_ok
        )
        if converged:
            try:
                _check_apertures(assembler, state.current)
            except ct.ContactError as err:
                return NewtonReport(False, it, inc_hist, res_hist, contact_res,
                                    failure=str(err))
            return NewtonReport(True, it, inc_hist, res_hist, contact_res)
        if it >= params.max_iterations:
            return NewtonReport(
                False, it, inc_hist, res_hist, contact_res,
                failure="iteration cap exceeded",
            )
        try:
            x_new = solver.solve(A, b, col_scale, state.current)
        except SolverFailure as err:
            return NewtonReport(
                False, it, inc_hist, res_hist, contact_res, failure=str(err)
            )
        dx = x_new - state.current
        last_inc = scaled_increment(dx, col_scale, primary)
        inc_hist.append(last_inc)
        state.current[:] = x_new


def _check_apertures(assembler: Assembler, x: np.ndarray):
    """Converged states must satisfy nonpenetration strictly: a positive
    aperture in every fracture cell."""
    jump = assembler.jumps(x)
    a = aperture_unchecked(jump[1::2], jump[0::2], assembler.model, assembler.mat)
    parts = split_cells(assembler.mdg.grids[1], a)
    closed = [k for k, part in parts.items() if np.any(part <= 0.0)]
    if closed:
        raise ct.ContactError(
            f"nonpositive aperture on fracture subdomain {closed[0]} at a "
            "converged state: nonpenetration is violated"
        )
