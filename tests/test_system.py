import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from helpers import (
    SIDE_BOTTOM,
    SIDE_TOP,
    default_bc_types,
    default_params,
    make_loads,
    make_problem,
)
from interface_laws import interface_advective, interface_darcy, interface_fourier

from mdthm.constitutive import DilationModel, MaterialSet, gap as gap_fn
from mdthm.contact import ContactError, classify, complementarity_report
from mdthm.fvm import (
    BoundaryCondition,
    mpfa_discretize,
    onedim_discretize,
)
from mdthm.mdmesh import build_cartesian_fractured
from mdthm.system import (
    LAM,
    NU,
    NU_ADV,
    NU_COND,
    P,
    T,
    U_MORTAR,
    Assembler,
    DirectSolver,
    Loads,
    PhaseSpec,
    SolverFailure,
    State,
    TimeLoopOptions,
    balance_report,
    damp_advective_flux,
    interface_flux_consistency,
    newton_solve,
    time_loop,
)
from mdthm.system.newton import _check_apertures, contact_residual_norm

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
        x = DirectSolver().solve(A.tocsr(), b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_failure_reported(self):
        import scipy.sparse as sps

        A = sps.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]]))
        with pytest.raises(SolverFailure):
            DirectSolver().solve(A, np.array([1.0, -1.0]))

    def test_zero_rhs(self):
        import scipy.sparse as sps

        x = DirectSolver().solve(sps.eye(4).tocsr(), np.zeros(4))
        assert np.all(x == 0)


class TestDampAdvectiveFlux:
    def test_identity_at_full_weight(self):
        q = np.array([1.0, -2.0])
        assert np.allclose(damp_advective_flux(np.array([5.0, 5.0]), q, 1.0), q)

    def test_midpoint(self):
        assert damp_advective_flux(2.0, 0.0, 0.5) == 1.0

    def test_oscillating_fixed_point(self):
        # toy alternating map q -> -q + 1: undamped it cycles between 0 and 1,
        # damped with omega = 1/2 it contracts to the fixed point 0.5
        def step(q):
            return -q + 1.0

        q_plain, q_damped = 0.0, 0.0
        seen = []
        for _ in range(40):
            q_plain = step(q_plain)
            q_damped = damp_advective_flux(q_damped, step(q_damped), 0.5)
            seen.append(q_plain)
        assert abs(q_damped - 0.5) < 1e-10
        assert abs(seen[-1] - seen[-2]) == 1.0  # still alternating


class TestSteadyNoFracture:
    def test_darcy_matches_standalone_mpfa(self):
        mdg, asm, state = make_problem(nx=6, ny=6, perturb=0.15, seed=4)
        loads = make_loads(asm, p_left=4e7)
        rep = newton_solve(asm, state, 1.0, True, loads, default_params(increment_tol=1e-9))
        assert rep.converged
        g = mdg.matrix
        ops = mpfa_discretize(
            g, MAT.matrix_permeability / MAT.viscosity, asm.bc["flow"]
        )
        div, _ = g.cell_faces_csr()
        bc_flow = loads.bc_flow[2]
        p_oracle = spla.spsolve(
            (div @ ops.flux).tocsc(), -div @ (ops.bound_flux @ bc_flow)
        )
        p_sys = state.current[asm.dofs.sd(0, P)]
        assert np.abs(p_sys - p_oracle).max() < 1e-10 * 4e7

    def test_uniform_temperature_without_forcing(self):
        mdg, asm, state = make_problem(nx=5, ny=5)
        loads = make_loads(asm)
        rep = newton_solve(asm, state, 1.0, True, loads, default_params())
        assert rep.converged
        T_sol = state.current[asm.dofs.sd(0, T)]
        assert np.abs(T_sol - MAT.reference_temperature).max() < 1e-8

    def test_self_weight_column_settles(self):
        # a column fixed at its base and free on top and at the sides sinks
        # under its own weight; the uniaxial estimate of the top's
        # settlement is rho_s g H^2 / (2 E). Without Biot coupling the fluid,
        # at rest with its pressure and temperature fixed on top, adds no
        # load.
        height = 100.0
        mat = MaterialSet(gravity=(0.0, -9.81), biot_alpha=0.0)
        mdg = build_cartesian_fractured(8, 8, [], ((0.0, 0.0), (height, height)))
        g = mdg.matrix
        side = g.tags["domain_side"]
        bc = {"mech": side == SIDE_BOTTOM, "flow": side == SIDE_TOP, "heat": side == SIDE_TOP}
        asm = Assembler(mdg, mat, DilationModel.TWO_WAY, bc)
        state = State(asm.dofs)
        state.set_initial({("sd", g.id, "T"): mat.reference_temperature})
        rep = newton_solve(asm, state, 1.0, True, make_loads(asm),
                           default_params(mat, k_u=1e-3))
        assert rep.converged
        u_y = state.current[asm.dofs.sd(g.id, "u")][1::2]
        top = u_y[g.cell_centers[1] > height * 7 / 8].mean()
        settlement = mat.density_solid * 9.81 * height**2 / (2.0 * mat.youngs_modulus)
        assert top < 0.0
        assert abs(-top - settlement) < 0.05 * settlement


class TestFracturedContactSolve:
    def solve(self, model=DilationModel.TWO_WAY, shear=5e-4):
        mdg, asm, state = make_problem(FR, model=model)
        loads = make_loads(asm, top_displacement=(shear, -2e-4))
        rep = newton_solve(asm, state, 1.0, True, loads,
                           default_params(increment_tol=1e-9))
        return mdg, asm, state, rep, loads

    def test_converges_quickly(self):
        *_, rep, _ = self.solve()
        assert rep.converged
        assert rep.iterations <= 10

    def test_coulomb_and_dilation_at_solution(self):
        mdg, asm, state, rep, loads = self.solve()
        frac = mdg.subdomains[1]
        lam = state.current[asm.dofs.sd(frac.id, LAM)]
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
        lam = state.current[asm.dofs.sd(frac.id, LAM)]
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
            _, intf_k = mdg.fracture_interfaces(frac.id)
            n, _ = mdg.fracture_basis(frac.id)
            x = state.current.copy()
            # the k wall moves 2 a0 into the j wall: aperture -a0 everywhere
            u_k = -2.0 * MAT.residual_aperture * n[:, intf_k.low_cells]
            x[asm.dofs.intf(intf_k.id, U_MORTAR)] = u_k.T.ravel()
            with pytest.raises(ContactError,
                               match=f"nonpositive aperture on fracture subdomain {frac.id} "):
                _check_apertures(asm, x)

    def test_all_open_contact_block_is_identity(self):
        # tension opens every cell; the lam block must reduce to the identity
        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=(0.0, 2e-4))
        rep = newton_solve(asm, state, 1.0, True, loads, default_params(increment_tol=1e-9))
        assert rep.converged
        frac = mdg.subdomains[1]
        lam = state.current[asm.dofs.sd(frac.id, LAM)]
        assert np.abs(lam).max() < 1e-6
        assert np.all(asm.jumps(state.current)[1::2] > 0)
        # assemble at the converged state and inspect the lam-lam block
        state.start_iteration()
        cache = asm.build_cache(state, loads)
        A, b = asm.assemble(state, cache, 1.0, True, loads)
        sl = asm.dofs.sd(frac.id, LAM)
        block = A.tocsr()[sl.start:sl.stop].toarray()
        eye_part = block[:, sl.start:sl.stop]
        assert np.allclose(eye_part, np.eye(sl.stop - sl.start))
        other = np.delete(block, np.arange(sl.start, sl.stop), axis=1)
        assert np.abs(other).max() == 0.0
        assert np.abs(b[sl]).max() == 0.0


class TestNewtonBehaviour:
    def test_linear_problem_single_iteration(self):
        # a purely mechanical load without fractures or flow keeps every
        # lagged coefficient at its initial value: one solve reaches the
        # solution, detected at the next residual evaluation
        mdg, asm, state = make_problem(nx=4, ny=4)
        loads = make_loads(asm, top_displacement=(2e-4, -1e-4))
        rep = newton_solve(asm, state, 1.0, True, loads, default_params())
        assert rep.converged
        assert rep.iterations == 1

    def test_reentering_converged_state(self):
        mdg, asm, state = make_problem(nx=4, ny=4)
        loads = make_loads(asm, p_left=1e6)
        rep1 = newton_solve(asm, state, 1.0, True, loads, default_params())
        assert rep1.converged
        rep2 = newton_solve(asm, state, 1.0, True, loads, default_params())
        assert rep2.converged
        assert rep2.iterations == 0

    def test_iteration_cap_reported(self):
        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4))
        params = default_params(max_iterations=1)
        rep = newton_solve(asm, state, 1.0, True, loads, params)
        assert not rep.converged
        assert "cap" in rep.failure


class TestTimeLoop:
    def test_zero_forcing_constant_trajectory(self):
        mdg, asm, state = make_problem(nx=4, ny=4)
        loads = make_loads(asm)
        x0 = state.current.copy()
        records = time_loop(
            asm, state, [PhaseSpec("hold", duration=4.0, dt=2.0)],
            lambda t, tp: loads, TimeLoopOptions(newton=default_params()),
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
            asm, state, [PhaseSpec("load", duration=4e13, dt=1e13)],
            provider, TimeLoopOptions(newton=default_params()),
        )
        before = state.current.copy()
        time_loop(asm, state, [PhaseSpec("again", duration=1e13, dt=1e13)],
                  provider, TimeLoopOptions(newton=default_params()))
        scale = np.abs(before).max()
        assert np.abs(state.current - before).max() < 1e-10 * scale

    def test_backward_euler_first_order(self):
        # spatially uniform pressure rise: with a ramped uniform injection
        # into a sealed square, cm dp/dt = s(t) / V has a time-quadratic
        # solution and the implicit Euler error is O(dt)
        mat = MaterialSet(thermal_expansion_fluid=0.0)
        from mdthm.mdmesh import build_triangular_fractured
        from mdthm.system import Assembler, State

        mdg = build_triangular_fractured(2, 2)
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
        state.set_initial({("sd", 0, "T"): mat.reference_temperature})
        cm = mat.porosity / mat.bulk_fluid + (mat.biot_alpha - mat.porosity) / mat.bulk_solid
        vol = g.cell_volumes.sum()

        def exact_p(t):
            # source rate s(t) = s0 * t over the whole domain
            return 1e-6 * t**2 / 2.0 / (cm * vol)

        def run(dt):
            st = State(asm.dofs)
            st.set_initial({("sd", 0, "T"): mat.reference_temperature})
            t_end = 100.0

            def provider(t_new, t_prev):
                loads = make_loads(asm, mat=mat)
                rate = 1e-6 * t_new * g.cell_volumes / vol
                loads.well_rates = {2: rate}
                loads.well_T_injection = {2: np.full(g.num_cells, 300.0)}
                return loads

            time_loop(asm, st, [PhaseSpec("inject", duration=t_end, dt=dt)],
                      provider,
                      TimeLoopOptions(newton=default_params(mat=mat),
                                      compute_balance=False))
            return st.current[asm.dofs.sd(0, P)].mean()

        errs = []
        for dt in (25.0, 12.5, 6.25):
            errs.append(abs(run(dt) - exact_p(100.0)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 0.85)

    def test_dt_halving_disabled_raises(self):
        from mdthm.system import NonConvergence

        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4))
        opts = TimeLoopOptions(newton=default_params(max_iterations=1),
                               allow_dt_halving=False)
        with pytest.raises(NonConvergence):
            time_loop(asm, state, [PhaseSpec("load", duration=1.0, dt=1.0)],
                      lambda t, tp: loads, opts)


class TestConservation:
    def test_injection_balance(self):
        mdg, asm, state = make_problem(FR, nx=8, ny=8)
        rate = np.zeros(asm.grids[1].num_cells)
        rate[1] = 1e-8  # in the first fracture
        t_inj = np.full(asm.grids[1].num_cells, 290.0)

        def provider(t, tp):
            loads = make_loads(asm, top_displacement=(1e-4, -1e-4),
                               prev_top_displacement=(1e-4, -1e-4))
            loads.well_rates = {1: rate}
            loads.well_T_injection = {1: t_inj}
            return loads

        records = time_loop(
            asm, state, [PhaseSpec("inject", duration=2e5, dt=1e5)],
            provider, TimeLoopOptions(newton=default_params(increment_tol=1e-9)),
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
        rate = np.zeros(asm.grids[1].num_cells)
        rate[1] = 1e-8  # in the first fracture
        t_inj = np.full(asm.grids[1].num_cells, 290.0)

        def provider(t, tp):
            loads = make_loads(asm, top_displacement=(1e-4, -1e-4),
                               prev_top_displacement=(1e-4, -1e-4))
            loads.well_rates = {1: rate}
            loads.well_T_injection = {1: t_inj}
            return loads

        records = time_loop(
            asm, state, [PhaseSpec("inject", duration=2e5, dt=1e5)],
            provider, TimeLoopOptions(newton=default_params(increment_tol=1e-9)),
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
        grid = asm.grids[1]
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


class TestDiagnosticsLeaveStateAlone:
    def test_mid_iteration_state_unchanged(self):
        mdg, asm, state = make_problem(FR)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4), p_left=1e6)
        # one Newton iteration: the iterate moves away from its linearisation
        state.start_iteration()
        A, b = asm.assemble(state, asm.build_cache(state, loads), 1.0, False, loads)
        state.current[:] = DirectSolver().solve(A, b)
        assert not np.array_equal(state.prev_iter, state.current)
        before = {k: getattr(state, k).copy() for k in ("prev_step", "prev_iter", "current")}
        balance_report(asm, state, 1.0, loads)
        interface_flux_consistency(asm, state, loads)
        for k, v in before.items():
            assert np.array_equal(getattr(state, k), v), k


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
                           default_params(mat=mat, increment_tol=1e-12))
        assert rep.converged
        x = state.current
        state.start_iteration()
        cache = asm.build_cache(state, loads)
        ops = {2: {P: asm.flow_ops, T: asm.heat_ops},
               1: {P: cache.fracture_ops["flow"], T: cache.fracture_ops["heat"]}}
        checked = 0
        for dim, group in asm.mortars.items():
            if group.size == 0:
                continue
            high, low = asm.cell_dofs[dim], asm.cell_dofs[dim - 1]
            nu = {key: x[group.dofs[key]] for key in (NU, NU_COND, NU_ADV)}

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
