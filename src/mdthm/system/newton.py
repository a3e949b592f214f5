"""Semismooth Newton iteration and its block linear solver.

Each Newton step is one coupled linear system in all unknowns. It is not
factored as a whole: :class:`DirectSolver` eliminates the mechanics
directly, with the elastic factor kept for the whole run, and solves the
flow and heat unknowns by preconditioned GMRES. No dense array of the size
of the elastic unknowns times the contact unknowns is formed: the elastic
solve keeps only the wall rows of K^-1 A_EC, and pays for that with one
more solve of K each time it is applied. Each block has at most one live
LU at a time.
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
# norm of the equilibrated scalar right-hand side b_S. A floor of 1e-14 left
# residuals above Newton's residual floor at increment_tol 1e-10, and Newton
# stalled on roundoff. A residual within GMRES_FLOOR ‖|b_S| + |A_S||y|‖, the
# roundoff of evaluating it at the start point y (Arioli, Demmel & Duff,
# SIAM J. Matrix Anal. Appl. 10, 1989), is not solved, as in a steady step
# that only compresses; as GMRES's tolerance, that bound cost the interface
# laws their precision. A preconditioner reused from an earlier iteration
# gets REUSE_ITERATIONS iterations before it is refactored; a fresh one gets
# FRESH_CYCLES restart cycles of FRESH_RESTART iterations, and its last
# iterate is kept even if it misses the tolerance. The Schur operator's own
# roundoff reaches about that tolerance: on the stimulation config's first
# coupled step GMRES stalls at 0.56 to 1.01 times it, depending on how the
# mechanics are ordered and solved. Whether a solve is good enough is
# decided by SOLVE_TOL alone.
GMRES_RTOL = 1e-10
GMRES_FLOOR = 3e-15
REUSE_ITERATIONS = 10
FRESH_RESTART, FRESH_CYCLES = 30, 3
# W = K^-1 A_EC is solved this many columns at a time.
COUPLING_BLOCK = 32
# The orderings that SuperLU factors each block in, at its default pivot
# threshold. K's pattern is structurally symmetric, and minimum degree on
# the pattern of K + K^T fills it less than the default COLAMD: by a third
# at refinement level 2, and its factor time halves. A_SS's pattern is not
# symmetric, and minimum degree on A + A^T fills it more, so it keeps COLAMD.
ELASTIC_ORDERING = "MMD_AT_PLUS_A"
SCALAR_ORDERING = "COLAMD"


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
      depend on the state. Its pattern is structurally symmetric, so it is
      ordered by minimum degree on K + K^T (ELASTIC_ORDERING), which fills
      it less than COLAMD; A_SS's pattern is not, and it keeps COLAMD. K is
      factored once, and refactored only when the equilibrated E rows
      differ from the factored ones. A_CE has entries only in the wall
      columns, so of W = K^-1 A_EC only the rows W[walls] are needed. They
      are solved with the factor, from the sparse A_EC COUPLING_BLOCK
      columns at a time, and kept; W itself, the elastic unknowns times the
      contact unknowns (763 MB at refinement level 3), is never formed.
    - A_MM^-1 is two K solves and one solve with the small dense Schur
      complement A_CC - A_CE[:, walls] W[walls], which is factored on each
      call: y_C from the Schur complement and the first K solve, then
      y_E = K^-1 (r_E - A_EC y_C) by the second K solve, which replaces
      the dense product W y_C.
    - The correction of the scalar unknowns from the starting point x0
      solves A_SS, when no scalar row has a nonzero in a mechanics column
      (every steady system), or else the Schur complement
      A_SS - A_SM A_MM^-1 A_MS, applied matrix-free, by GMRES. Its
      preconditioner is an LU of A_SS, ordered by SCALAR_ORDERING (COLAMD),
      reused until :meth:`start_step` or until GMRES needs more than
      REUSE_ITERATIONS iterations with it. A solve of A_SS with its own
      fresh LU is refined twice. A scalar residual at the roundoff of its
      own evaluation (GMRES_FLOOR) is taken as solved, with no
      factorisation: a steady step that only compresses never factors A_SS.
    - The mechanics follow by x_M = A_MM^-1 (b_M - A_MS x_S), with two
      rounds of iterative refinement.
    - At most one LU per block, K or A_SS, is alive: a refactorisation drops
      the block's stale factor before it forms the new one.

    Assembly gives every matrix of a run the same sparsity pattern. For a
    pattern, :class:`_Blocks` fixes once the gather from A's data to the
    equilibrated matrix in the order E, C, S and to each block; each call
    refills the blocks' data in place, so that a solve builds no sparse
    matrix but the ones it factors. A new pattern gets new gathers.

    With no ``mechanics`` unknown M is empty and GMRES solves the whole
    system. A system with a non-finite entry in A or b fails at once. The
    residual of the whole system is checked against SOLVE_TOL; besides a
    factorisation that fails, that is the only test a solve must pass.
    """

    def __init__(self, mechanics: np.ndarray, contact: np.ndarray):
        self.mechanics = mechanics
        self.contact = contact
        self._blocks = None  # the gathers of the pattern last solved
        self._elastic = None  # (equilibrated E rows' data, LU of K, W[walls]) as factored
        self._precond = None  # LU of the equilibrated A_SS

    def start_step(self):
        """Drop the scalar preconditioner: a new time step factors A_SS
        afresh."""
        self._precond = None

    def solve(self, A: sps.spmatrix, b: np.ndarray, col_scale: np.ndarray,
              x0: np.ndarray) -> np.ndarray:
        A = A.tocsr()
        if not (np.isfinite(A.data).all() and np.isfinite(b).all()):
            raise SolverFailure("the linear system has a non-finite entry")
        b_norm = np.linalg.norm(b)
        if b_norm == 0.0:
            return np.zeros_like(b)
        n = A.shape[0]
        cs = np.asarray(col_scale)
        if self._blocks is None or not self._blocks.fits(A):
            self._blocks = _Blocks(A, *self._ordering())
            self._elastic = None
        blk = self._blocks
        perm, n_m = blk.perm, blk.n_m
        # the equilibrated system, ordered E, C, S
        row_max = blk.equilibrate(A, cs[perm])
        bs = b[perm] / row_max
        y = x0[perm] / cs[perm]

        mech = self._mechanics_inverse(blk)
        r = bs - blk.full @ y
        floor = GMRES_FLOOR * np.linalg.norm(bs[n_m:])
        np.abs(blk.s_rows.data, out=blk.s_abs.data)
        noise = GMRES_FLOOR * np.linalg.norm(np.abs(bs[n_m:]) + blk.s_abs @ np.abs(y))
        y[n_m:] += self._scalar_correction(blk, mech, r, floor, noise)
        # back-substitution, refined towards the roundoff of the M block
        y_m = np.zeros(n_m)
        for _ in range(3):
            y[:n_m] = y_m
            y_m = y_m + mech(bs[:n_m] - blk.m_rows @ y)
        y[:n_m] = y_m

        x = np.empty(n)
        x[perm] = cs[perm] * y
        rel = np.linalg.norm(A @ x - b) / b_norm
        if not np.isfinite(rel) or rel > SOLVE_TOL:
            raise SolverFailure(f"linear solve residual {rel:.3e} exceeds {SOLVE_TOL:.1e}")
        return x

    def _ordering(self):
        """The permutation to the order E, C, S, and the sizes of E and M."""
        mech, contact = self.mechanics, self.contact
        e, c = np.flatnonzero(mech & ~contact), np.flatnonzero(contact)
        perm = np.concatenate([e, c, np.flatnonzero(~mech)])
        return perm, e.size, e.size + c.size

    def _mechanics_inverse(self, blk: _Blocks):
        """r -> A_MM^-1 r, through the kept factor of K, refactored when the
        E rows changed, and this call's dense Schur complement on C."""
        n_e, n_m, walls = blk.n_e, blk.n_m, blk.walls
        rows = blk.full.data[:blk.full.indptr[n_e]]
        a_ec, a_ce = blk.fill("ec"), blk.fill("ce")
        kept = self._elastic
        if kept is None or not np.array_equal(rows, kept[0]):
            # the stale factor goes before the new one is formed
            self._elastic = None
            lu = _factor(blk.full, slice(0, n_e), ELASTIC_ORDERING)
            self._elastic = (rows.copy(), lu, _coupling(lu, a_ec, walls))
        _, lu, w_walls = self._elastic
        schur = sla.lu_factor(blk.fill("cc").toarray() - a_ce @ w_walls)

        def solve(r):
            r_e = r[:n_e]
            y_c = sla.lu_solve(schur, r[n_e:n_m] - a_ce @ lu.solve(r_e)[walls])
            return np.concatenate([lu.solve(r_e - a_ec @ y_c), y_c])

        return solve

    def _scalar_correction(self, blk: _Blocks, mech, r: np.ndarray,
                           floor: float, noise: float) -> np.ndarray:
        """The correction of the scalar unknowns for the residual r of the
        whole system, by preconditioned GMRES to the absolute tolerance
        ``floor``; a residual at most ``noise`` is roundoff and gets none. A
        fresh GMRES that misses its tolerance returns its last iterate."""
        n_m, s_rows = blk.n_m, blk.s_rows
        g = r[n_m:]
        padded = np.zeros(s_rows.shape[1])

        def a_ss(v):
            padded[:n_m], padded[n_m:] = 0.0, v
            return s_rows @ padded

        coupled = s_rows.data[blk.coupled].any()
        if coupled:
            def schur(v):
                padded[:n_m], padded[n_m:] = 0.0, v
                padded[:n_m] = -mech(blk.m_rows @ padded)
                return s_rows @ padded

            padded[:n_m], padded[n_m:] = mech(r[:n_m]), 0.0
            g = g - s_rows @ padded
            op = spla.LinearOperator((g.size, g.size), dtype=float, matvec=schur)
        else:
            op = spla.LinearOperator((g.size, g.size), dtype=float, matvec=a_ss)
        g_norm = np.linalg.norm(g)
        if g_norm <= noise:
            return np.zeros_like(g)
        atol = max(GMRES_RTOL * g_norm, floor)
        if self._precond is not None:
            dy, info = _gmres(op, g, self._precond, atol, REUSE_ITERATIONS, 1)
            if info == 0:
                return dy
        self._precond = None  # the stale factor goes before the new one is formed
        self._precond = _factor(blk.full, slice(n_m, None), SCALAR_ORDERING)
        dy, _ = _gmres(op, g, self._precond, atol, FRESH_RESTART, FRESH_CYCLES)
        if not coupled:
            # GMRES tests the 2-norm of the residual. With the operator's own
            # factor, two rounds of refinement bring each component to the
            # accuracy of a refined direct solve, as for the mechanics.
            for _ in range(2):
                dy += self._precond.solve(g - a_ss(dy))
        return dy


class _Blocks:
    """The equilibrated matrix of one sparsity pattern in the order E, C, S,
    and its blocks, refilled in place by each call.

    ``full`` keeps each row's columns sorted; ``m_rows`` and ``s_rows`` are
    its M and S rows, sharing its arrays. The small blocks have their own
    gathers from ``full``, and :meth:`fill` refills one: "ec", the E rows
    against C, by columns, from which W[walls] is solved and with which the
    elastic back-substitution multiplies; "cc", the contact rows
    against C; and "ce", the contact rows against the E columns in
    ``walls``. Those are the wall displacements, the only E columns in
    which the contact rows have entries (180 of 2228 at refinement level
    0), so "ce" holds every entry of the contact rows in E, in the same
    order. ``coupled`` marks the entries of the S rows in M columns;
    ``s_abs``, sharing ``s_rows``' index arrays, is refilled with |A_S|.
    """

    def __init__(self, A: sps.csr_matrix, perm, n_e: int, n_m: int):
        n = A.shape[0]
        self.perm, self.n_e, self.n_m = perm, n_e, n_m
        # the assembler's index arrays are read-only and shared by all its
        # matrices; others may change after a solve
        self.indptr, self.indices = (a if not a.flags.writeable else a.copy()
                                     for a in (A.indptr, A.indices))
        # the positions of A's entries, permuted
        at = sps.csr_matrix((np.arange(A.nnz, dtype=float), A.indices, A.indptr), shape=A.shape)
        at = at[perm][:, perm]
        at.sort_indices()
        self.gather = at.data.astype(np.int32)
        indptr = at.indptr
        self.full = sps.csr_matrix((np.zeros(A.nnz), at.indices, indptr), shape=A.shape)
        self.row_sizes = np.diff(indptr)
        self.nonempty = np.flatnonzero(self.row_sizes)
        k = indptr[n_m]
        self.m_rows = sps.csr_matrix((np.zeros(k), at.indices[:k], indptr[:n_m + 1]),
                                     shape=(n_m, n))
        self.s_rows = sps.csr_matrix((np.zeros(A.nnz - k), at.indices[k:], indptr[n_m:] - k),
                                     shape=(n - n_m, n))
        # views of full's arrays; the constructor copies a small view
        for rows, part in ((self.m_rows, slice(0, k)), (self.s_rows, slice(k, None))):
            rows.data, rows.indices = self.full.data[part], self.full.indices[part]
        self.s_abs = sps.csr_matrix((np.zeros(A.nnz - k), self.s_rows.indices,
                                     self.s_rows.indptr), shape=self.s_rows.shape)
        self.coupled = at.indices[k:] < n_m
        at.data = np.arange(A.nnz, dtype=float)
        e, c = slice(0, n_e), slice(n_e, n_m)
        ce = at[c, e]
        # the contact rows reach E only in the wall displacements' columns
        self.walls = np.unique(ce.indices)
        self._blocks = {}
        for name, block in (("ec", at[e, c].tocsc()), ("ce", ce[:, self.walls]),
                            ("cc", at[c, c])):
            self._blocks[name] = (block, block.data.astype(np.int32))
            block.data = np.zeros(block.nnz)

    def fits(self, A) -> bool:
        return (A.shape == self.full.shape
                and (A.indptr is self.indptr or np.array_equal(A.indptr, self.indptr))
                and (A.indices is self.indices or np.array_equal(A.indices, self.indices)))

    def equilibrate(self, A: sps.csr_matrix, col_scale: np.ndarray) -> np.ndarray:
        """Fill ``full`` with A, permuted, times the permuted column scales
        and divided by the row maxima; returns the row maxima. A's data is
        taken into ``full`` and scaled there, so that at most one temporary
        of A's size exists at a time."""
        data = self.full.data
        # the gather is in range; with mode "raise" np.take would buffer
        # its output in a temporary of A's size
        np.take(A.data, self.gather, out=data, mode="clip")
        data *= col_scale[self.full.indices]
        starts = self.full.indptr[self.nonempty]
        row_max = np.zeros(A.shape[0])
        # the largest magnitude of each row, without an array of |data|
        row_max[self.nonempty] = np.maximum(np.maximum.reduceat(data, starts),
                                            -np.minimum.reduceat(data, starts))
        row_max = np.maximum(row_max, 1e-300)
        data *= np.repeat(1.0 / row_max, self.row_sizes)
        return row_max

    def fill(self, name):
        block, gather = self._blocks[name]
        np.take(self.full.data, gather, out=block.data)
        return block


def _coupling(lu, ec: sps.csc_matrix, walls: np.ndarray) -> np.ndarray:
    """The rows ``walls`` of W = K^-1 A_EC, C-ordered, K given by its LU
    factors and A_EC by columns. W is solved COUPLING_BLOCK columns at a
    time, and only each block's wall rows are kept: no array of W's size is
    formed."""
    n, m = ec.shape
    w_walls = np.empty((walls.size, m))
    for j in range(0, m, COUPLING_BLOCK):
        k = min(COUPLING_BLOCK, m - j)
        first, last = ec.indptr[j], ec.indptr[j + k]
        rhs = np.zeros((n, k), order="F")
        rhs[ec.indices[first:last], np.repeat(np.arange(k), np.diff(ec.indptr[j:j + k + 1]))] \
            = ec.data[first:last]
        w_walls[:, j:j + k] = lu.solve(rhs)[walls]
    return w_walls


def _factor(matrix: sps.csr_matrix, part: slice, ordering: str):
    """The LU factors of the diagonal block ``part`` of ``matrix``, with its
    explicit zeros dropped, its columns ordered by SuperLU's ``ordering``.
    Every factorisation of the package is made here."""
    block = matrix[part, part].tocsc()
    block.eliminate_zeros()
    try:
        return spla.splu(block, permc_spec=ordering)
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
    """The outcome of one Newton solve. ``increment_history`` holds one
    scaled increment per solve, ``residual_history`` one scaled residual per
    assembled iterate: an iterate accepted by its increment is not
    assembled, so a solve that converges that way after n iterations has n
    of each."""

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
                 loads: Loads, params: NewtonParams, solver: DirectSolver) -> NewtonReport:
    """Semismooth Newton iteration on the coupled system of one step.

    Each iteration reclassifies the contact sets, evaluates apertures,
    specific volumes, densities, fracture permeabilities and fluid fluxes
    at the current iterate, and assembles the system linearised there: by
    Newton in the advected heat and the contact conditions, with the
    coefficients that :mod:`mdthm.system.assembly` names lagged. Solving it
    from the current iterate gives the next iterate. A converged state with
    a nonpositive aperture fails, with the fracture named in the report.

    ``solver`` keeps its factors from one call to the next: pass the one
    solver of a run, so that the elastic block is factored once per run. A
    linear solve that fails, a non-finite system among the causes, ends the
    iteration with the failure in the report.
    """
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
        contact_res = contact_residual_norm(assembler, cache)
        contact_ok = contact_res <= CONTACT_TOL
        # an iterate accepted by its increment needs no system
        converged = it > 0 and last_inc <= params.increment_tol and contact_ok
        if not converged:
            A, b = assembler.assemble(state, cache, dt, steady, loads)
            residual = A @ state.current - b
            row_scale = sps.csr_matrix((np.abs(A.data), A.indices, A.indptr),
                                       shape=A.shape) @ col_scale + 1e-300
            res_scaled = float(np.max(np.abs(residual) / row_scale))
            res_hist.append(res_scaled)
            converged = res_scaled <= RESIDUAL_FLOOR * params.increment_tol and contact_ok
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
