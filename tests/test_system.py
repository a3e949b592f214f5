import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from helpers import (
    column_scales,
    default_bc_types,
    default_params,
    make_loads,
    make_problem,
    plain_solve,
    run_solver,
)
from interface_laws import interface_advective, interface_darcy, interface_fourier

from mdthm.constitutive import DilationModel, MaterialSet, gap as gap_fn
from mdthm.contact import ContactError, ContactState, classify, complementarity_report
from mdthm.fvm import (
    BoundaryCondition,
    mpfa_discretize,
    onedim_discretize,
)
from mdthm.mdmesh import SIDE_CODE, build_lattice
from mdthm.system import (
    LAM,
    NU,
    NU_ADV,
    NU_COND,
    P,
    T,
    U,
    U_MORTAR,
    Assembler,
    DirectSolver,
    Loads,
    PhaseSpec,
    SolverFailure,
    State,
    balance_report,
    interface_flux_consistency,
    newton_solve,
    time_loop,
)
from mdthm.system import newton
from mdthm.system.newton import (
    PRIMARY_VARIABLES,
    _check_apertures,
    contact_residual_norm,
)

MAT = MaterialSet()
FR = [((0.25, 0.5), (0.75, 0.5))]
CROSSING = [((0.25, 0.5), (0.75, 0.5)), ((0.5, 0.25), (0.5, 0.75))]


class TestDirectSolver:
    def test_residual_contract(self):
        import scipy.sparse as sps

        rng = np.random.default_rng(0)
        n = 60
        A = sps.random(n, n, density=0.2, random_state=1) + sps.eye(n) * 5
        x_ref = rng.standard_normal(n)
        b = A @ x_ref
        x = plain_solve(A.tocsr(), b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_failure_reported(self):
        import scipy.sparse as sps

        A = sps.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]]))
        with pytest.raises(SolverFailure):
            plain_solve(A, np.array([1.0, -1.0]))

    def test_zero_rhs(self):
        import scipy.sparse as sps

        x = plain_solve(sps.eye(4).tocsr(), np.zeros(4))
        assert np.all(x == 0)

    def test_non_finite_system_rejected(self):
        A = sps.eye(3).tocsr()
        for b in (np.array([1.0, np.nan, 0.0]), np.array([1.0, -np.inf, 0.0])):
            with pytest.raises(SolverFailure, match="non-finite"):
                plain_solve(A, b)
        A.data[1] = np.nan
        with pytest.raises(SolverFailure, match="non-finite"):
            plain_solve(A, np.ones(3))


class TestSteadyNoFracture:
    def test_darcy_matches_standalone_mpfa(self):
        mdg, asm, state = make_problem(nx=6, ny=6, perturb=0.15, seed=4)
        loads = make_loads(asm, p_left=4e7)
        rep = newton_solve(asm, state, 1.0, True, loads, default_params(increment_tol=1e-9),
                           run_solver(asm))
        assert rep.converged
        g = mdg.matrix
        ops = mpfa_discretize(
            g, MAT.matrix_permeability / MAT.viscosity, asm.bc["flow"]
        )
        div = g.cell_faces_csr()
        bc_flow = loads.bc_flow[2]
        p_oracle = spla.spsolve(
            (div @ ops.flux).tocsc(), -div @ (ops.bound_flux @ bc_flow)
        )
        p_sys = state.current[asm.dofs.cells(2, P)]
        assert np.abs(p_sys - p_oracle).max() < 1e-10 * 4e7

    def test_uniform_temperature_without_forcing(self):
        mdg, asm, state = make_problem(nx=5, ny=5)
        loads = make_loads(asm)
        rep = newton_solve(asm, state, 1.0, True, loads, default_params(), run_solver(asm))
        assert rep.converged
        T_sol = state.current[asm.dofs.cells(2, T)]
        assert np.abs(T_sol - MAT.reference_temperature).max() < 1e-8

    def test_self_weight_column_settles(self):
        # a column fixed at its base and free on top and at the sides sinks
        # under its own weight; the uniaxial estimate of the top's
        # settlement is rho_s g H^2 / (2 E). Without Biot coupling the fluid,
        # at rest with its pressure and temperature fixed on top, adds no
        # load.
        height = 100.0
        mat = MaterialSet(gravity=(0.0, -9.81), biot_alpha=0.0)
        mdg = build_lattice("cartesian", 8, 8, [], ((0.0, 0.0), (height, height)))
        g = mdg.matrix
        side = g.tags["domain_side"]
        top = side == SIDE_CODE["top"]
        bc = {"mech": side == SIDE_CODE["bottom"], "flow": top, "heat": top}
        asm = Assembler(mdg, mat, DilationModel.TWO_WAY, bc)
        state = State(asm.dofs)
        state.set_initial({(2, T): mat.reference_temperature})
        rep = newton_solve(asm, state, 1.0, True, make_loads(asm),
                           default_params(mat, k_u=1e-3), run_solver(asm))
        assert rep.converged
        # the fluid stays at rest: Newton on the advected heat leaves no
        # spurious heat source after the first iterate
        assert rep.iterations <= 4
        u_y = state.current[asm.dofs.cells(2, "u")][1::2]
        top = u_y[g.cell_centers[1] > height * 7 / 8].mean()
        settlement = mat.density_solid * 9.81 * height**2 / (2.0 * mat.youngs_modulus)
        assert top < 0.0
        assert abs(-top - settlement) < 0.05 * settlement


class TestFracturedContactSolve:
    def solve(self, model=DilationModel.TWO_WAY, shear=5e-4):
        mdg, asm, state = make_problem(FR, model=model)
        loads = make_loads(asm, top_displacement=(shear, -2e-4))
        rep = newton_solve(asm, state, 1.0, True, loads,
                           default_params(increment_tol=1e-9), run_solver(asm))
        return mdg, asm, state, rep, loads

    def test_converges_quickly(self):
        *_, rep, _ = self.solve()
        assert rep.converged
        assert rep.iterations <= 10

    def test_coulomb_and_dilation_at_solution(self):
        mdg, asm, state, rep, loads = self.solve()
        frac = mdg.subdomains[1]
        lam = state.current[asm.dofs.cells(1, LAM)]
        jump = asm.jumps(state.current)  # the only fracture's cells
        jt, jn = jump[0::2], jump[1::2]
        g = gap_fn(jt, DilationModel.TWO_WAY, MAT.dilation_angle)
        # gliding cells: |lam_t| = -F lam_n, jn = gap, slip parallel to lam_t
        assert np.abs(np.abs(lam[0::2]) + 0.5 * lam[1::2]).max() < 1e-6 * np.abs(lam).max()
        assert np.abs(jn - g).max() < 1e-12
        assert np.all(np.sign(jt) == np.sign(lam[0::2]))
        report = complementarity_report(
            lam[0::2], lam[1::2], jt, jn, np.zeros_like(jt), g,
            asm.c_num, MAT.friction_coefficient,
        )
        assert report <= 1e-8

    def test_pure_compression_sticks(self):
        mdg, asm, state, rep, _ = self.solve(shear=0.0)
        assert rep.converged
        frac = mdg.subdomains[1]
        lam = state.current[asm.dofs.cells(1, LAM)]
        jump = asm.jumps(state.current)
        jt, jn = jump[0::2], jump[1::2]
        assert np.all(lam[1::2] < 0)
        assert np.abs(jt).max() < 1e-12
        assert np.abs(jn).max() < 1e-12

    def test_interface_flux_consistency(self):
        mdg, asm, state, rep, loads = self.solve()
        assert interface_flux_consistency(asm, state, loads) < 1e-12

    def test_penetration_rejected_at_converged_state(self):
        # with crossing fractures only the second one penetrates, and the
        # error names it
        for fractures in (FR, CROSSING):
            mdg, asm, state = make_problem(fractures)
            _check_apertures(asm, state.current)
            frac = mdg.subdomains_of_dim(1)[-1]
            walls = mdg.mortars[2]
            # the mortar cells of the last fracture's k wall
            k_wall = (walls.sides > 0) & (walls.lo >= mdg.grids[1].cell_start[frac.id])
            n = mdg.fracture_basis()[walls.lo[k_wall], 1]
            x = state.current.copy()
            # the k wall moves 2 a0 into the j wall: aperture -a0 everywhere
            u_k = -2.0 * MAT.residual_aperture * n
            x[asm.dofs.mortar(2, U_MORTAR).reshape(-1, 2)[k_wall]] = u_k
            with pytest.raises(ContactError,
                               match=f"nonpositive aperture on fracture subdomain {frac.id} "):
                _check_apertures(asm, x)

    def test_all_open_contact_block_is_identity(self):
        # tension opens every cell; the lam block must reduce to the identity
        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=(0.0, 2e-4))
        rep = newton_solve(asm, state, 1.0, True, loads, default_params(increment_tol=1e-9),
                           run_solver(asm))
        assert rep.converged
        frac = mdg.subdomains[1]
        lam = state.current[asm.dofs.cells(1, LAM)]
        assert np.abs(lam).max() < 1e-6
        assert np.all(asm.jumps(state.current)[1::2] > 0)
        # assemble at the converged state and inspect the lam-lam block
        cache = asm.build_cache(state, loads)
        A, b = asm.assemble(state, cache, 1.0, True, loads)
        rows = asm.dofs.cells(1, LAM)
        block = A.tocsr()[rows].toarray()
        eye_part = block[:, rows]
        assert np.allclose(eye_part, np.eye(rows.size))
        other = np.delete(block, rows, axis=1)
        assert np.abs(other).max() == 0.0
        assert np.abs(b[rows]).max() == 0.0


class TestNewtonJacobian:
    def test_advected_heat_matches_finite_differences(self):
        # A transient step assembled at the previous step's state, where
        # the storage and accumulation terms' lagged coefficients multiply
        # a zero change: there the matrix is the derivative of the residual
        # F(x) = A(x) x - b(x) in p, T and the mortar fluxes nu, in the
        # energy rows and the interface advective rows. The boundary inflow
        # weight's density is lagged by design, so it is frozen at x0 here.
        mdg, asm, state = make_problem(FR)
        params = default_params(increment_tol=1e-9)
        rep = newton_solve(asm, state, 1.0, True, make_loads(asm, p_left=1e6, T_left=320.0),
                           params, run_solver(asm))
        assert rep.converged
        state.accept_step()
        x0 = state.current.copy()
        # an injecting and a producing well in the matrix
        rates = np.zeros(mdg.matrix.num_cells)
        rates[20], rates[40] = 1e-6, -1e-6
        wells = {"rates": {2: rates}, "T_inj": {2: np.full(rates.size, 290.0)}}
        loads = make_loads(asm, p_left=1e6, T_left=320.0, wells=wells)
        weight = asm.boundary_heat_weight
        asm.boundary_heat_weight = lambda dim, loads, x: weight(dim, loads, x0)

        def assemble(x):
            state.current[:] = x
            cache = asm.build_cache(state, loads)
            A, b = asm.assemble(state, cache, 100.0, False, loads)
            return A, A @ x - b, cache.face_flux

        A, _, q0 = assemble(x0)
        dofs = asm.dofs
        rng = np.random.default_rng(5)
        v = np.zeros(dofs.num_dofs)
        columns = [(dofs.cells(dim, var), var) for dim in (2, 1) for var in (P, T)]
        columns += [(dofs.mortar(2, NU), NU)]
        for cols, var in columns:
            v[cols] = params.scales[var] * rng.standard_normal(cols.size)
        eps = 1e-8
        (_, f_plus, q_plus), (_, f_minus, q_minus) = assemble(x0 + eps * v), assemble(x0 - eps * v)
        # no face flux changes sign: the upwind choice is the same throughout
        for dim, q in q0.items():
            assert np.array_equal(np.sign(q_plus[dim]), np.sign(q)), dim
            assert np.array_equal(np.sign(q_minus[dim]), np.sign(q)), dim
        diff = (f_plus - f_minus) / (2.0 * eps)
        av = A @ v
        for rows in (dofs.cells(2, T), dofs.cells(1, T), dofs.mortar(2, NU_ADV)):
            scale = np.abs(av[rows]).max()
            assert scale > 0.0
            assert np.abs(av[rows] - diff[rows]).max() < 1e-6 * scale


def equilibrated_lu_solve(A, b, col_scale):
    """An independent LU solve of the whole system A x = b, equilibrated like
    DirectSolver: by the column scales, then by the row maxima. The
    equilibrated systems of these tests have condition numbers near 3e10,
    so two rounds of iterative refinement take the error from 1e-7 to the
    1e-9 that the tests compare at."""
    ac = A.tocsr() @ sps.diags(col_scale)
    row_max = np.abs(ac).max(axis=1).toarray().ravel()
    scaled = (sps.diags(1.0 / row_max) @ ac).tocsc()
    lu = spla.splu(scaled)
    y = lu.solve(b / row_max)
    for _ in range(2):
        y += lu.solve(b / row_max - scaled @ y)
    return col_scale * y


class TestBlockSolve:
    LOADS = dict(top_displacement=(5e-4, -2e-4), p_left=1e6, T_left=320.0)

    def system(self, steady):
        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, **self.LOADS)
        A, b = asm.assemble(state, asm.build_cache(state, loads), 100.0, steady, loads)
        return asm, state, A, b

    @staticmethod
    def solver(asm):
        return DirectSolver(asm.dofs.mechanics, asm.dofs.contact)

    @staticmethod
    def primary(asm):
        return np.flatnonzero(np.isin(asm.dofs.variable, PRIMARY_VARIABLES))

    @staticmethod
    def count_factorisations(monkeypatch):
        sizes = []
        splu = spla.splu

        def counted(matrix, **kwargs):
            sizes.append(matrix.shape[0])
            return splu(matrix, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        return sizes

    @pytest.mark.parametrize("steady", [True, False])
    def test_equals_a_direct_solve(self, steady):
        # steady: A_SS alone; transient: the Schur complement on the scalars
        asm, state, A, b = self.system(steady)
        coupled = A[~asm.dofs.mechanics][:, asm.dofs.mechanics]
        assert bool(coupled.count_nonzero()) != steady
        col_scale = column_scales(asm, default_params().scales)
        x = self.solver(asm).solve(A, b, col_scale, state.current)
        x_ref = equilibrated_lu_solve(A, b, col_scale)
        assert np.abs((x - x_ref) / col_scale)[self.primary(asm)].max() < 1e-9

    def test_gmres_short_of_its_tolerance_keeps_its_iterate(self, monkeypatch):
        # with a tolerance of zero GMRES runs all its cycles and misses it;
        # the solve is judged by its residual against SOLVE_TOL alone
        monkeypatch.setattr(newton, "GMRES_RTOL", 0.0)
        monkeypatch.setattr(newton, "GMRES_FLOOR", 0.0)
        infos, gmres = [], newton._gmres

        def recorded(*args):
            dy, info = gmres(*args)
            infos.append(info)
            return dy, info

        monkeypatch.setattr(newton, "_gmres", recorded)
        asm, state, A, b = self.system(steady=False)
        col_scale = column_scales(asm, default_params().scales)
        x = self.solver(asm).solve(A, b, col_scale, state.current)
        assert infos == [newton.FRESH_CYCLES]
        assert np.linalg.norm(A @ x - b) <= newton.SOLVE_TOL * np.linalg.norm(b)
        x_ref = equilibrated_lu_solve(A, b, col_scale)
        assert np.abs((x - x_ref) / col_scale)[self.primary(asm)].max() < 1e-9

    def test_elastic_block_factored_once_per_run(self, monkeypatch):
        mdg, asm, state = make_problem(FR)
        dofs = asm.dofs
        n_e = int(np.sum(dofs.mechanics & ~dofs.contact))
        n_s = int(np.sum(~dofs.mechanics))
        assert n_e != n_s
        sizes = self.count_factorisations(monkeypatch)
        solver = self.solver(asm)
        loads = make_loads(asm, **self.LOADS)
        records = time_loop(asm, state, PhaseSpec("load", duration=200.0, dt=100.0),
                            lambda t, tp: loads, default_params(), solver=solver)
        assert len(records) == 2 and all(r.newton.iterations > 1 for r in records)
        assert sizes.count(n_e) == 1
        assert set(sizes) == {n_e, n_s}
        # a changed elastic row is never solved with the stale factor
        A, b = asm.assemble(state, asm.build_cache(state, loads), 100.0, False, loads)
        A = A.tocsr()
        row = np.flatnonzero(dofs.mechanics & ~dofs.contact)[0]
        A.data[A.indptr[row]:A.indptr[row + 1]] *= 1.5
        col_scale = column_scales(asm, default_params().scales)
        x = solver.solve(A, b, col_scale, state.current)
        assert sizes.count(n_e) == 2
        x_ref = equilibrated_lu_solve(A, b, col_scale)
        assert np.abs((x - x_ref) / col_scale)[self.primary(asm)].max() < 1e-9

    def test_singular_scalar_block_raises(self):
        asm, state, A, b = self.system(steady=False)
        A = A.tocsr()
        # two equal pressure rows
        p0, p1 = asm.dofs.cells(2, P)[:2]
        A = sps.vstack([A[:p1], A[p0], A[p1 + 1:]]).tocsr()
        with pytest.raises(SolverFailure):
            self.solver(asm).solve(A, b, column_scales(asm, default_params().scales),
                                   state.current)

    def rest_system(self):
        """A steady system loaded only mechanically, at the scalar rest state:
        its scalar residual is roundoff."""
        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=self.LOADS["top_displacement"])
        A, b = asm.assemble(state, asm.build_cache(state, loads), 1.0, True, loads)
        return asm, state, A.tocsr(), b

    @staticmethod
    def block_sizes(asm):
        dofs = asm.dofs
        return int(np.sum(dofs.mechanics & ~dofs.contact)), int(np.sum(~dofs.mechanics))

    def test_steady_load_from_rest_factors_the_elastic_block_alone(self, monkeypatch):
        mdg, asm, state = make_problem(FR)
        n_e, _ = self.block_sizes(asm)
        sizes = self.count_factorisations(monkeypatch)
        loads = make_loads(asm, top_displacement=self.LOADS["top_displacement"])
        rep = newton_solve(asm, state, 1.0, True, loads, default_params(),
                           solver=self.solver(asm))
        assert rep.converged and rep.iterations > 1
        assert sizes == [n_e]

    def test_transient_load_from_rest_factors_the_scalar_block(self, monkeypatch):
        # compression moves the pressure through the Biot storage term
        mdg, asm, state = make_problem(FR)
        n_e, n_s = self.block_sizes(asm)
        sizes = self.count_factorisations(monkeypatch)
        loads = make_loads(asm, top_displacement=self.LOADS["top_displacement"],
                           prev_top_displacement=(0.0, 0.0))
        rep = newton_solve(asm, state, 100.0, False, loads, default_params(),
                           solver=self.solver(asm))
        assert rep.converged
        assert sizes.count(n_e) == 1 and n_s in sizes
        assert np.abs(state.current[asm.dofs.cells(2, P)]).max() > 0.0

    def test_a_block_is_factored_with_no_factor_of_it_held(self, monkeypatch):
        # at most one live LU per block: when a block is refactored, its
        # stale factor is already dropped. With one GMRES iteration for a
        # kept factor, A_SS is refactored inside the step; K is refactored
        # for a changed elastic row.
        monkeypatch.setattr(newton, "REUSE_ITERATIONS", 1)
        mdg, asm, state = make_problem(FR)
        solver = self.solver(asm)
        factored, factor = [], newton._factor

        def watched(matrix, part, ordering):
            kept = solver._elastic if part.start == 0 else solver._precond
            factored.append(("K" if part.start == 0 else "A_SS", kept is not None))
            return factor(matrix, part, ordering)

        monkeypatch.setattr(newton, "_factor", watched)
        loads = make_loads(asm, top_displacement=self.LOADS["top_displacement"],
                           prev_top_displacement=(0.0, 0.0))
        rep = newton_solve(asm, state, 100.0, False, loads, default_params(), solver=solver)
        assert rep.converged
        assert [block for block, _ in factored].count("A_SS") > 1
        A, b = asm.assemble(state, asm.build_cache(state, loads), 100.0, False, loads)
        A = A.tocsr()
        row = np.flatnonzero(asm.dofs.mechanics & ~asm.dofs.contact)[0]
        A.data[A.indptr[row]:A.indptr[row + 1]] *= 1.5
        solver.solve(A, b, column_scales(asm, default_params().scales), state.current)
        assert [block for block, _ in factored].count("K") == 2
        assert factored == [(block, False) for block, _ in factored]

    def test_skipped_scalar_correction_returns_the_start_point(self, monkeypatch):
        asm, state, A, b = self.rest_system()
        n_e, _ = self.block_sizes(asm)
        sizes = self.count_factorisations(monkeypatch)
        cs = column_scales(asm, default_params().scales)
        x0 = state.current
        x = self.solver(asm).solve(A, b, cs, x0)
        assert sizes == [n_e]
        scalar = ~asm.dofs.mechanics
        assert x[scalar].tobytes() == (cs * (x0 / cs))[scalar].tobytes()

    def test_scalar_residual_above_roundoff_is_solved(self, monkeypatch):
        # noise as DirectSolver.solve computes it, then one equilibrated
        # scalar entry of b moved by 1e3 times it
        asm, state, A, b = self.rest_system()
        _, n_s = self.block_sizes(asm)
        cs = column_scales(asm, default_params().scales)
        solver = self.solver(asm)
        solver.solve(A, b, cs, state.current)
        blk = solver._blocks
        perm, n_m = blk.perm, blk.n_m
        row_max = blk.equilibrate(A, cs[perm])
        y = state.current[perm] / cs[perm]
        noise = newton.GMRES_FLOOR * np.linalg.norm(
            np.abs(b[perm] / row_max)[n_m:] + blk.s_abs @ np.abs(y))
        row = n_m + int(np.argmax(row_max[n_m:]))
        b = b.copy()
        b[perm[row]] += 1e3 * noise * row_max[row]
        sizes = self.count_factorisations(monkeypatch)
        x = solver.solve(A, b, cs, state.current)
        assert sizes == [n_s]
        scaled_residual = ((A @ x - b)[perm] / row_max)[n_m:]
        assert np.linalg.norm(scaled_residual) < 10.0 * noise

    def test_index_arrays_compared_only_when_not_shared(self, monkeypatch):
        asm, state, A, b = self.rest_system()
        solver = self.solver(asm)
        solver.solve(A, b, column_scales(asm, default_params().scales), state.current)
        blk = solver._blocks
        compared, array_equal = [], np.array_equal

        def counted(*args):
            compared.append(1)
            return array_equal(*args)

        monkeypatch.setattr(np, "array_equal", counted)
        assert A.indices is blk.indices and A.indptr is blk.indptr
        assert blk.fits(A) and compared == []
        copied = sps.csr_matrix((A.data, A.indices.copy(), A.indptr.copy()), shape=A.shape)
        assert blk.fits(copied) and len(compared) == 2
        copied.indices[0] = (copied.indices[0] + 1) % A.shape[1]
        assert not blk.fits(copied)

    def test_newton_matches_newton_with_a_direct_solve(self, monkeypatch):
        # Newton counts on this fixture move with roundoff for any solver:
        # under 4-ulp perturbations of A and b a whole-system LU takes 5 to 8
        # steady and 4 to 7 transient iterations. This pins the unperturbed
        # runs of a steady solve and a pressurising, heating step.
        def run():
            mdg, asm, state = make_problem(FR)
            params = default_params()
            solver = self.solver(asm)
            steady = newton_solve(asm, state, 1.0, True, make_loads(asm, **self.LOADS),
                                  params, solver=solver)
            state.accept_step()
            loads = make_loads(asm, **dict(self.LOADS, p_left=2e6, T_left=330.0))
            transient = newton_solve(asm, state, 100.0, False, loads, params, solver=solver)
            assert steady.converged and transient.converged
            scaled = state.current / column_scales(asm, params.scales)
            return [steady.iterations, transient.iterations], scaled[self.primary(asm)]

        counts, x = run()
        monkeypatch.setattr(DirectSolver, "solve",
                            lambda self, A, b, col_scale, x0: equilibrated_lu_solve(A, b, col_scale))
        counts_ref, x_ref = run()
        assert counts == counts_ref
        assert np.abs(x - x_ref).max() < 1e-8


class TestElasticCoupling:
    """The wall rows W[walls] of W = K^-1 A_EC, solved by column blocks; the
    contact Schur complement A_CC - A_CE W read from them; and A_MM^-1 with
    its second K solve."""

    LOADS = dict(top_displacement=(5e-4, -2e-4), p_left=1e6, T_left=320.0)

    def solved(self, lam=None):
        """A solver after its first solve of a crossing-fracture system, and
        its assembler and cache. ``lam`` replaces the initial contact
        tractions."""
        mdg, asm, state = make_problem(CROSSING)
        if lam is not None:
            state.current[asm.dofs.cells(1, LAM)] = lam(mdg.grids[1].num_cells)
        loads = make_loads(asm, **self.LOADS)
        cache = asm.build_cache(state, loads)
        A, b = asm.assemble(state, cache, 100.0, False, loads)
        solver = DirectSolver(asm.dofs.mechanics, asm.dofs.contact)
        solver.solve(A, b, column_scales(asm, default_params().scales), state.current)
        return solver, asm, cache

    def test_wall_rows_give_the_products_bitwise(self):
        solver, *_ = self.solved()
        blk, (_, lu, w_walls) = solver._blocks, solver._elastic
        n_e, n_m = blk.n_e, blk.n_m
        w = lu.solve(blk.fill("ec").toarray())
        # every entry of the contact rows in E, with its explicit zeros
        a_ce, a_ce_walls = blk.full[n_e:n_m, :n_e], blk.fill("ce")
        assert 0 < blk.walls.size < n_e and a_ce.nnz == a_ce_walls.nnz
        assert np.array_equal(a_ce_walls @ w_walls, a_ce @ w)
        y_e = np.random.default_rng(3).standard_normal(n_e)
        assert np.array_equal(a_ce_walls @ y_e[blk.walls], a_ce @ y_e)

    @pytest.mark.parametrize("block", [3, newton.COUPLING_BLOCK])
    def test_w_from_column_blocks_equals_a_one_shot_solve(self, monkeypatch, block):
        monkeypatch.setattr(newton, "COUPLING_BLOCK", block)
        solver, asm, _ = self.solved()
        blk, (_, lu, w_walls) = solver._blocks, solver._elastic
        n_c = int(asm.dofs.contact.sum())
        assert n_c == 16  # six blocks of 3 columns, or one of 32
        assert w_walls.shape == (blk.walls.size, n_c) and w_walls.flags.c_contiguous
        w_ref = lu.solve(blk.fill("ec").toarray())
        assert np.array_equal(w_walls, w_ref[blk.walls])

    def test_elastic_block_is_structurally_symmetric(self):
        # the assumption behind ordering K by minimum degree on K + K^T
        solver, *_ = self.solved()
        blk = solver._blocks
        pattern = blk.full[:blk.n_e, :blk.n_e].tocsr()
        pattern.eliminate_zeros()
        pattern.data[:] = 1.0
        assert (pattern != pattern.T).nnz == 0

    def test_mechanics_inverse_equals_a_sparse_solve(self):
        # open, sticking and gliding cells in turn: lam_n > 0 opens a cell,
        # |lam_t| above the friction bound makes it glide
        def lam(n):
            per_state = np.array([[0.0, 1e6], [0.0, -1e6], [2e6, -1e6]])
            return per_state[np.arange(n) % 3].ravel()

        solver, asm, cache = self.solved(lam=lam)
        states = np.concatenate(list(cache.contact_state.values()))
        assert set(states.tolist()) == {ContactState.OPEN, ContactState.STICKING,
                                        ContactState.GLIDING}
        blk = solver._blocks
        n_m = blk.n_m
        a_mm = blk.full[:n_m, :n_m].tocsc()
        r = np.random.default_rng(5).standard_normal(n_m)
        y = solver._mechanics_inverse(blk)(r)
        y_ref = spla.spsolve(a_mm, r)
        assert np.abs(y - y_ref).max() <= 1e-12 * np.abs(y_ref).max()

    def test_equilibration_equals_the_gathered_product(self):
        # the reference is the product of A's gathered data and the gathered
        # column scales, scaled by the repeated inverse row maxima of |data|
        solver, asm, cache = self.solved()
        blk = solver._blocks
        loads = make_loads(asm, **self.LOADS)
        state = State(asm.dofs)
        state.current[:] = np.random.default_rng(6).standard_normal(state.current.size)
        A, _ = asm.assemble(state, asm.build_cache(state, loads), 50.0, False, loads)
        col_scale = column_scales(asm, default_params().scales)[blk.perm]
        data = A.data[blk.gather] * col_scale[blk.full.indices]
        row_max = np.zeros(A.shape[0])
        row_max[blk.nonempty] = np.maximum.reduceat(np.abs(data),
                                                    blk.full.indptr[blk.nonempty])
        row_max = np.maximum(row_max, 1e-300)
        data *= np.repeat(1.0 / row_max, blk.row_sizes)
        got = blk.equilibrate(A, col_scale)
        assert got.tobytes() == row_max.tobytes()
        assert blk.full.data.tobytes() == data.tobytes()

    def test_no_array_of_w_size_in_a_solve(self, monkeypatch):
        # Traced peaks of each whole DirectSolver.solve, split where the
        # equilibration returns: up to there at most one temporary of A's
        # size exists, and from there on no array of W's size, n_e x n_c,
        # is allocated. A solve that builds the gathers of a new pattern is
        # traced only after the gathers are built. The fixture has 196
        # contact unknowns, so that W outweighs A's data and the GMRES basis.
        # per solve: the traced peak of each window that was kept, then the
        # base of the open window
        marks = []

        def close(keep):
            current, peak = tracemalloc.get_traced_memory()
            base = marks[-1].pop()
            marks[-1] += [peak - base, current] if keep else [current]
            tracemalloc.reset_peak()

        solve, equilibrate, blocks = (DirectSolver.solve, newton._Blocks.equilibrate,
                                      newton._Blocks.__init__)

        def traced_solve(self, *args):
            marks.append([tracemalloc.get_traced_memory()[0]])
            tracemalloc.reset_peak()
            try:
                return solve(self, *args)
            finally:
                close(keep=True)
                marks[-1].pop()

        def traced_blocks(self, *args):
            blocks(self, *args)
            close(keep=False)

        def traced_equilibrate(self, *args):
            try:
                return equilibrate(self, *args)
            finally:
                close(keep=True)

        monkeypatch.setattr(DirectSolver, "solve", traced_solve)
        monkeypatch.setattr(newton._Blocks, "__init__", traced_blocks)
        monkeypatch.setattr(newton._Blocks, "equilibrate", traced_equilibrate)
        # W[walls] in blocks of 8 columns; seven parallel fractures, since
        # crossing ones that enclose a block of the matrix leave K singular
        monkeypatch.setattr(newton, "COUPLING_BLOCK", 8)
        network = [((0.0625, k / 8), (0.9375, k / 8)) for k in range(1, 8)]
        mdg, asm, state = make_problem(network, nx=16, ny=16)
        dofs = asm.dofs
        n_e, n_c = int(np.sum(dofs.mechanics & ~dofs.contact)), int(dofs.contact.sum())
        col_scale = column_scales(asm, default_params().scales)
        solver = DirectSolver(dofs.mechanics, dofs.contact)
        loads = make_loads(asm, **self.LOADS)
        systems = [asm.assemble(state, asm.build_cache(state, loads), dt, steady, loads)
                   for dt, steady in ((1.0, True), (100.0, False), (50.0, False))]
        tracemalloc.start()
        try:
            for A, b in systems:
                solver.solve(A, b, col_scale, state.current)
        finally:
            tracemalloc.stop()
        w_bytes, a_bytes = 8 * n_e * n_c, systems[0][0].data.nbytes
        assert n_c == 196 and w_bytes > 2 * a_bytes
        assert len(marks) == 3
        for through, after in marks:
            assert through < 1.5 * a_bytes
            assert after < w_bytes

class TestNewtonBehaviour:
    def test_linear_problem_single_iteration(self):
        # a purely mechanical load without fractures or flow keeps every
        # lagged coefficient at its initial value: one solve reaches the
        # solution, detected at the next residual evaluation
        mdg, asm, state = make_problem(nx=4, ny=4)
        loads = make_loads(asm, top_displacement=(2e-4, -1e-4))
        rep = newton_solve(asm, state, 1.0, True, loads, default_params(), run_solver(asm))
        assert rep.converged
        assert rep.iterations == 1

    @pytest.mark.parametrize("var", [U, LAM, P, T])
    def test_non_finite_system_fails_as_a_solve(self, monkeypatch, var):
        # a NaN in any row ends the step as a failed linear solve, which the
        # time loop reports as nonconvergence
        mdg, asm, state = make_problem(CROSSING, nx=4, ny=4)
        loads = make_loads(asm, top_displacement=(2e-4, -1e-4))
        row = np.flatnonzero(asm.dofs.variable == var)[0]
        assemble = asm.assemble

        def spoiled(*args, **kwargs):
            A, b = assemble(*args, **kwargs)
            b = b.copy()
            b[row] = np.nan
            return A, b

        monkeypatch.setattr(asm, "assemble", spoiled)
        rep = newton_solve(asm, state, 1.0, True, loads, default_params(), run_solver(asm))
        assert not rep.converged and rep.iterations == 0
        assert rep.failure == "the linear system has a non-finite entry"

    @staticmethod
    def count_assemblies(monkeypatch, asm):
        calls = []
        assemble = asm.assemble

        def counted(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(asm, "assemble", counted)
        return calls

    def test_reentering_converged_state(self, monkeypatch):
        mdg, asm, state = make_problem(nx=4, ny=4)
        loads = make_loads(asm, p_left=1e6)
        rep1 = newton_solve(asm, state, 1.0, True, loads, default_params(), run_solver(asm))
        assert rep1.converged
        calls = self.count_assemblies(monkeypatch, asm)
        rep2 = newton_solve(asm, state, 1.0, True, loads, default_params(), run_solver(asm))
        assert rep2.converged
        assert rep2.iterations == 0
        # accepted by its residual, which takes one assembly
        assert len(calls) == 1 and len(rep2.residual_history) == 1

    def test_iterate_accepted_by_its_increment_is_not_assembled(self, monkeypatch):
        mdg, asm, state = make_problem(FR)
        calls = self.count_assemblies(monkeypatch, asm)
        params = default_params()
        loads = make_loads(asm, top_displacement=(2e-4, -1e-4))
        rep = newton_solve(asm, state, 1.0, True, loads, params, run_solver(asm))
        assert rep.converged and rep.iterations > 1
        assert rep.increment_history[-1] <= params.increment_tol
        assert len(calls) == rep.iterations
        assert len(rep.residual_history) == len(rep.increment_history) == rep.iterations

    def test_iteration_cap_reported(self):
        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4))
        params = default_params(max_iterations=1)
        rep = newton_solve(asm, state, 1.0, True, loads, params, run_solver(asm))
        assert not rep.converged
        assert "cap" in rep.failure


class TestTimeLoop:
    def test_zero_forcing_constant_trajectory(self):
        mdg, asm, state = make_problem(nx=4, ny=4)
        loads = make_loads(asm)
        x0 = state.current.copy()
        records = time_loop(
            asm, state, PhaseSpec("hold", duration=4.0, dt=2.0),
            lambda t, tp: loads, default_params(), run_solver(asm),
        )
        assert len(records) == 2
        assert np.abs(state.current - x0).max() < 1e-8

    def test_step_response_reaches_steady_state(self):
        mdg, asm, state = make_problem(nx=4, ny=4)

        def provider(t, tp):
            return make_loads(asm, top_displacement=(1e-4, -1e-4),
                              prev_top_displacement=(1e-4, -1e-4))

        # long steps let the diffusive transient die out
        records = time_loop(
            asm, state, PhaseSpec("load", duration=4e13, dt=1e13),
            provider, default_params(), run_solver(asm),
        )
        before = state.current.copy()
        time_loop(asm, state, PhaseSpec("again", duration=1e13, dt=1e13),
                  provider, default_params(), run_solver(asm))
        scale = np.abs(before).max()
        assert np.abs(state.current - before).max() < 1e-10 * scale

    def test_backward_euler_first_order(self):
        # spatially uniform pressure rise: with a ramped uniform injection
        # into a sealed square, cm dp/dt = s(t) / V has a time-quadratic
        # solution and the implicit Euler error is O(dt)
        mat = MaterialSet(thermal_expansion_fluid=0.0)
        from mdthm.system import Assembler, State

        mdg = build_lattice("triangular", 2, 2)
        g = mdg.matrix
        side = g.tags["domain_side"]
        # fully clamped boundary: with uniform pressure the displacement and
        # its divergence vanish identically, leaving the pure storage ODE
        bc_types = {
            "mech": np.isin(side, (1, 2, 3, 4)),
            "flow": np.zeros(g.num_faces, dtype=bool),
            "heat": np.isin(side, (1, 2)),
        }
        asm = Assembler(mdg, mat, DilationModel.TWO_WAY, bc_types)
        state = State(asm.dofs)
        state.set_initial({(2, T): mat.reference_temperature})
        cm = mat.porosity / mat.bulk_fluid + (mat.biot_alpha - mat.porosity) / mat.bulk_solid
        vol = g.cell_volumes.sum()

        def exact_p(t):
            # source rate s(t) = s0 * t over the whole domain
            return 1e-6 * t**2 / 2.0 / (cm * vol)

        def run(dt):
            st = State(asm.dofs)
            st.set_initial({(2, T): mat.reference_temperature})
            t_end = 100.0

            def provider(t_new, t_prev):
                loads = make_loads(asm, mat=mat)
                rate = 1e-6 * t_new * g.cell_volumes / vol
                loads.well_rates = {2: rate}
                loads.well_T_injection = {2: np.full(g.num_cells, 300.0)}
                return loads

            time_loop(asm, st, PhaseSpec("inject", duration=t_end, dt=dt),
                      provider, default_params(mat=mat), run_solver(asm))
            return st.current[asm.dofs.cells(2, P)].mean()

        errs = []
        for dt in (25.0, 12.5, 6.25):
            errs.append(abs(run(dt) - exact_p(100.0)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 0.85)

    def test_dt_halving_disabled_raises(self):
        from mdthm.system import NonConvergence

        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4))
        opts = default_params(max_iterations=1)
        # the message names both ends of the step, as timeseries.csv
        # labels a step by its end time
        with pytest.raises(NonConvergence, match=r"step from t=0 to t=1 \(phase 'load'\)"):
            time_loop(asm, state, PhaseSpec("load", duration=1.0, dt=1.0),
                      lambda t, tp: loads, opts, run_solver(asm))


class TestConservation:
    def test_injection_balance(self):
        mdg, asm, state = make_problem(FR, nx=8, ny=8)
        rate = np.zeros(mdg.grids[1].num_cells)
        rate[1] = 1e-8  # in the first fracture
        t_inj = np.full(mdg.grids[1].num_cells, 290.0)

        def provider(t, tp):
            loads = make_loads(asm, top_displacement=(1e-4, -1e-4),
                               prev_top_displacement=(1e-4, -1e-4))
            loads.well_rates = {1: rate}
            loads.well_T_injection = {1: t_inj}
            return loads

        records = time_loop(
            asm, state, PhaseSpec("inject", duration=2e5, dt=1e5),
            provider, default_params(increment_tol=1e-9), run_solver(asm),
        )
        injected_mass = 1e-8 * 1e5
        injected_energy = injected_mass * 1e3 * MAT.heat_capacity_fluid * 290.0
        for rec in records:
            assert rec.newton.converged
            assert abs(rec.balance.mass_residual) < 1e-8 * injected_mass
            assert abs(rec.balance.energy_residual) < 1e-8 * injected_energy

    def test_equilibrium_zero_residual(self):
        mdg, asm, state = make_problem(nx=4, ny=4)
        loads = make_loads(asm)
        rep = balance_report(asm, state, 1.0, loads)
        assert rep.mass_residual == pytest.approx(0.0, abs=1e-20)
        assert rep.energy_residual == pytest.approx(0.0, abs=1e-12)

    def test_crossing_fractures_balance(self):
        # two fractures crossing at an intersection point: fracture-point
        # mortars, 0d balances and trace couplings between mortars
        mdg, asm, state = make_problem(CROSSING, nx=8, ny=8)
        assert len(mdg.subdomains_of_dim(0)) == 1
        rate = np.zeros(mdg.grids[1].num_cells)
        rate[1] = 1e-8  # in the first fracture
        t_inj = np.full(mdg.grids[1].num_cells, 290.0)

        def provider(t, tp):
            loads = make_loads(asm, top_displacement=(1e-4, -1e-4),
                               prev_top_displacement=(1e-4, -1e-4))
            loads.well_rates = {1: rate}
            loads.well_T_injection = {1: t_inj}
            return loads

        records = time_loop(
            asm, state, PhaseSpec("inject", duration=2e5, dt=1e5),
            provider, default_params(increment_tol=1e-9), run_solver(asm),
        )
        injected_mass = 1e-8 * 1e5
        injected_energy = injected_mass * 1e3 * MAT.heat_capacity_fluid * 290.0
        assert len(records) == 2
        for rec in records:
            assert rec.newton.converged
            assert abs(rec.balance.mass_residual) < 1e-8 * injected_mass
            assert abs(rec.balance.energy_residual) < 1e-8 * injected_energy
        assert interface_flux_consistency(asm, state, provider(2e5, 1e5)) < 1e-12


class TestStackedFractures:
    def test_operators_equal_per_fracture_blocks(self):
        # the stacked fracture grid's operators are the block diagonal of the
        # per-fracture ones, entry sequence included
        mdg, asm, _ = make_problem(CROSSING, nx=8, ny=8)
        fracs = mdg.subdomains_of_dim(1)
        grid = mdg.grids[1]
        rng = np.random.default_rng(3)
        diff = rng.uniform(0.5, 2.0, grid.num_cells)
        is_dir = np.zeros(grid.num_faces, dtype=bool)
        is_dir[grid.exterior_faces()[::2]] = True
        stacked = onedim_discretize(grid, diff, BoundaryCondition(is_dir))
        parts = []
        for sd in fracs:
            c0, f0 = grid.cell_start[sd.id], grid.face_start[sd.id]
            bc = BoundaryCondition(is_dir[f0:f0 + sd.num_faces])
            parts.append(onedim_discretize(sd, diff[c0:c0 + sd.num_cells], bc))
        for name in ("flux", "bound_flux", "trace_cell", "trace_face",
                     "vector_source", "trace_vector_source"):
            blocks = [getattr(p, name) for p in parts]
            got = getattr(stacked, name)
            assert got.shape == sps.block_diag(blocks).shape, name
            # the block diagonal, each row's stored entries in their order
            nnz = np.cumsum([0] + [m.nnz for m in blocks])
            cols = np.cumsum([0] + [m.shape[1] for m in blocks])
            indptr = np.concatenate([[0]] + [m.indptr[1:] + n for m, n in zip(blocks, nnz)])
            indices = np.concatenate([m.indices + c for m, c in zip(blocks, cols)])
            data = np.concatenate([m.data for m in blocks])
            for attr, ref in (("indptr", indptr), ("indices", indices), ("data", data)):
                assert np.array_equal(getattr(got, attr), ref), (name, attr)


class TestDofMap:
    def test_blocks_and_stacked_views_share_one_numbering(self):
        # the benchmark's gate reads the unknowns through blocks(), the
        # package through cells(), mortar() and variable: each block is its
        # subdomain's or interface's part of a stacked view, and the blocks
        # cover every dof once
        mdg, asm, _ = make_problem(CROSSING)
        dofs = asm.dofs
        assert mdg.grids[0].num_cells == 1
        covered = []
        for (kind, ident, var), sl in dofs.blocks():
            if kind == "sd":
                grid = mdg.grids[mdg.subdomains[ident].dim]
                view, total = dofs.cells(grid.dim, var), grid.num_cells
                start, size = grid.cell_start[ident], mdg.subdomains[ident].num_cells
            else:
                (group,) = [g for g in mdg.mortars.values() if ident in g.ids]
                view, total = dofs.mortar(group.dim, var), group.size
                k = group.ids.index(ident)
                start, size = group.offsets[k], group.offsets[k + 1] - group.offsets[k]
            nd = view.size // total
            block = np.arange(sl.start, sl.stop)
            assert block.size == nd * size > 0, (kind, ident, var)
            assert np.array_equal(view[nd * start:nd * (start + size)], block), (kind, ident, var)
            assert np.all(dofs.variable[block] == var)
            covered.append(block)
        assert np.array_equal(np.sort(np.concatenate(covered)), np.arange(dofs.num_dofs))


class TestJumpMatrix:
    def test_matrix_equals_factored_evaluation(self):
        # J is one static matrix; jumps() evaluates states through its
        # factors R (D x). Both must agree on a diagonal fracture and on a
        # crossing pair.
        diagonal = [((0.125, 0.125), (0.375, 0.375))]
        _, asm, _ = make_problem(diagonal + CROSSING, nx=8, ny=8)
        assert asm.J.shape == (2 * asm.mdg.grids[1].num_cells, asm.dofs.num_dofs)
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.standard_normal(asm.dofs.num_dofs)
            expected = asm.jumps(x)
            assert np.abs(asm.J @ x - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_unfractured_grid_has_an_empty_jump_matrix(self):
        _, asm, _ = make_problem(nx=4, ny=4)
        assert asm.J.shape == (0, asm.dofs.num_dofs)


class TestDiagnosticsLeaveStateAlone:
    def test_mid_iteration_state_unchanged(self):
        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4), p_left=1e6)
        # one Newton iteration: the iterate moves away from the previous step
        A, b = asm.assemble(state, asm.build_cache(state, loads), 1.0, False, loads)
        state.current[:] = plain_solve(A, b)
        assert not np.array_equal(state.prev_step, state.current)
        before = {k: getattr(state, k).copy() for k in ("prev_step", "current")}
        balance_report(asm, state, 1.0, loads)
        interface_flux_consistency(asm, state, loads)
        for k, v in before.items():
            assert np.array_equal(getattr(state, k), v), k


class TestBalanceAgainstAssembly:
    def test_report_equals_assembled_rows_off_convergence(self):
        # after one Newton iteration from rest no balance holds, but each
        # defect of the report is still dt times the sum of the balance's
        # assembled rows of A x - b: the report and assembly share their
        # accumulation and sources, and the assembled transport must cancel
        # to the report's exterior outflow
        mdg, asm, state = make_problem(FR)
        dt = 1.0
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4), p_left=1e6)
        A, b = asm.assemble(state, asm.build_cache(state, loads), dt, False, loads)
        state.current[:] = plain_solve(A, b)
        rep = balance_report(asm, state, dt, loads)
        A, b = asm.assemble(state, asm.build_cache(state, loads), dt, False, loads)
        r = A @ state.current - b
        for var, parts in (
                (P, (rep.mass_accumulation, rep.mass_boundary_out, rep.mass_source)),
                (T, (rep.energy_accumulation, rep.energy_boundary_out, rep.energy_source))):
            defect = parts[0] + parts[1] - parts[2]
            rows = np.concatenate([asm.dofs.cells(dim, var) for dim in mdg.grids])
            throughput = max(abs(v) for v in parts)
            assert abs(dt * r[rows].sum() - defect) <= 1e-10 * throughput, var


class TestInterfaceLaws:
    def test_assembled_fluxes_follow_interface_laws(self):
        # at a converged state with a pressure and a temperature contrast,
        # every mortar flux is the mortar area (times the high side's
        # specific volume) times the law of tests/interface_laws.py, evaluated on
        # the high side's face traces and the low side's cell values; the
        # advected heat comes from the upstream cell. A permeable matrix and
        # a thin fracture make the pressure jump across the mortars a
        # visible share of the pressure, so that the Darcy fluxes are
        # resolved well below the tolerance.
        mat = MaterialSet(matrix_permeability=1e-12, residual_aperture=5e-5)
        mdg, asm, state = make_problem(CROSSING, nx=8, ny=8, mat=mat)
        loads = make_loads(asm, top_displacement=(1e-4, -1e-4), p_left=1e3, T_left=320.0)
        rep = newton_solve(asm, state, 1.0, True, loads,
                           default_params(mat=mat, increment_tol=1e-12), run_solver(asm))
        assert rep.converged
        x = state.current
        cache = asm.build_cache(state, loads)
        ops = {2: {P: asm.flow_ops, T: asm.heat_ops},
               1: {P: cache.fracture_ops["flow"], T: cache.fracture_ops["heat"]}}
        checked = 0
        for dim, group in mdg.mortars.items():
            if group.size == 0:
                continue
            high = {var: asm.dofs.cells(dim, var) for var in (P, T)}
            low = {var: asm.dofs.cells(dim - 1, var) for var in (P, T)}
            nu = {key: x[asm.dofs.mortar(dim, key)] for key in (NU, NU_COND, NU_ADV)}

            def trace(var, mortar_key):
                op = ops[dim][var]
                var_name = "flow" if var == P else "heat"
                bvals = asm._ext_scalar(dim, var_name, loads) + asm.to_faces[dim] @ nu[mortar_key]
                face = op.trace_cell @ x[high[var]] + op.trace_face @ bvals
                if var == P:
                    face = face + op.trace_vector_source @ np.outer(
                        cache.density[dim], mat.gravity).ravel()
                return group.lift @ face

            a_low = cache.apertures[dim - 1][group.lo]
            weight = group.areas * cache.spec_vol[dim][group.hi]
            darcy = weight * interface_darcy(
                trace(P, NU), x[low[P]][group.lo], a_low, a_low**2 / 12.0,
                mat.viscosity, cache.density[dim - 1][group.lo], mat.gravity,
                group.normals,
            )
            fourier = weight * interface_fourier(
                trace(T, NU_COND), x[low[T]][group.lo], a_low, mat.conductivity_fluid,
            )
            c = mat.heat_capacity_fluid
            advective = interface_advective(
                nu[NU], c * cache.density[dim][group.hi] * x[high[T]][group.hi],
                c * cache.density[dim - 1][group.lo] * x[low[T]][group.lo],
            )
            for key, law in ((NU, darcy), (NU_COND, fourier), (NU_ADV, advective)):
                assert np.abs(law).max() > 0.0, (dim, key)
                err = np.abs(nu[key] - law).max() / np.abs(law).max()
                assert err < 1e-8, (dim, key, err)
            checked += 1
        assert checked == 2
