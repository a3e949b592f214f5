"""Assembly on the run's fixed sparsity pattern: the slot-filled system
against the block-by-block COO reference of tests/coo_assembly.py, the
steady pattern of a run without a transient step, and counts that keep
per-iteration symbolic work out of the Newton loop."""

import sys

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.sparse._base import _spbase

from coo_assembly import coo_assemble
from helpers import default_params, make_loads, make_problem, run_solver
from test_scenarios import tiny_raw

from mdthm.constitutive import MaterialSet
from mdthm.contact import ContactState
from mdthm.scenarios.config import parse_config
from mdthm.scenarios.setup import build_loads, build_scenario
from mdthm.system import NU, P, PhaseSpec, T, balance_report, newton_solve, time_loop
from mdthm.system import assembly, newton
from mdthm.system.assembly import STORAGE
from mdthm.system.dofs import LAM

CROSSING = [((0.25, 0.5), (0.75, 0.5)), ((0.5, 0.25), (0.5, 0.75))]
FR = [((0.25, 0.5), (0.75, 0.5))]


def mixed_state(sign=1.0, transient=True):
    """A crossing pair of fractures at a state with open, sticking and
    gliding cells, flow both ways across fracture faces and mortars, and an
    injecting and a producing well in the matrix and in a fracture. With
    ``sign`` -1 the pressure contrasts and the mortar fluxes are reversed,
    so that each upwind choice of the other sign is taken too.
    ``transient`` is the assembler's."""
    mdg, asm, state = make_problem(CROSSING, nx=8, ny=8, transient=transient)
    loads = make_loads(asm, top_displacement=(5e-4, -2e-4), T_left=320.0)
    dofs, x, rng = asm.dofs, state.current, np.random.default_rng(7)
    for dim in mdg.grids:
        x[dofs.cells(dim, P)] += sign * rng.uniform(-1e6, 1e6, dofs.cells(dim, P).size)
        x[dofs.cells(dim, T)] += rng.uniform(-5.0, 5.0, dofs.cells(dim, T).size)
    for dim in mdg.mortars:
        x[dofs.mortar(dim, NU)] = sign * rng.uniform(-1e-6, 1e-6, dofs.mortar(dim, NU).size)
    # no jumps: the trial traction is lam_t, the friction bound -F lam_n
    lam = x[dofs.cells(1, LAM)].reshape(-1, 2)
    lam[:, 1] = -1e6
    lam[0::3, 1] = 1e5  # tension opens
    lam[1::3, 0] = 2e6  # above F |lam_n| = 5e5: glides
    x[dofs.cells(1, LAM)] = lam.ravel()
    for dim in (2, 1):
        rates = np.zeros(mdg.grids[dim].num_cells)
        rates[[1, 3]] = 1e-6, -1e-6
        loads.well_rates[dim] = rates
        loads.well_T_injection[dim] = np.full(rates.size, 300.0)
    return asm, state, loads


class TestSlotAssembly:
    def test_mixed_state_covers_every_branch(self):
        asm, state, loads = mixed_state()
        cache = asm.build_cache(state, loads)
        assert set(cache.fracture.contact) == set(ContactState)
        q = cache.face_flux[1][~asm.mdg.grids[1].tags["internal"]]
        nu = np.concatenate([state.current[asm.dofs.mortar(dim, NU)] for dim in (2, 1)])
        for flux in (q, nu, cache.face_flux[2]):
            assert (flux > 0).any() and (flux < 0).any()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("steady", [True, False])
    def test_equals_coo_reference(self, steady, sign):
        # the checked system is a later assembly: the first one registers
        # the pattern at the other sign's state with the other steady flag
        asm, state, loads = mixed_state(sign)
        _, first, first_loads = mixed_state(-sign)
        asm.assemble(first, asm.build_cache(first, first_loads), 100.0, not steady, first_loads)
        cache = asm.build_cache(state, loads)
        A, b = asm.assemble(state, cache, 100.0, steady, loads)
        A_ref, b_ref = coo_assemble(asm, state, cache, 100.0, steady, loads)
        # the reference's entries lie inside the pattern
        pattern = A.copy()
        pattern.data[:] = 1.0
        assert (abs(A_ref).sign() - pattern).max() <= 0.0
        row_max = abs(A_ref).max(axis=1).toarray().ravel()
        diff = abs(A - A_ref).max(axis=1).toarray().ravel()
        assert np.all(diff <= 1e-12 * row_max)
        assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()

    def test_matrices_share_the_pattern_and_own_their_data(self):
        asm, state, loads = mixed_state()
        cache = asm.build_cache(state, loads)
        A1, _ = asm.assemble(state, cache, 100.0, False, loads)
        kept = A1.data.copy()
        A2, _ = asm.assemble(state, cache, 1.0, True, loads)
        assert np.array_equal(A1.indptr, A2.indptr) and np.array_equal(A1.indices, A2.indices)
        assert np.array_equal(A1.data, kept) and not np.array_equal(A2.data, kept)
        with pytest.raises(ValueError):
            A2.indices[0] = A2.indices[1]

    def test_later_assembly_declaring_another_term_raises(self):
        asm, state, loads = mixed_state()
        cache = asm.build_cache(state, loads)
        asm.assemble(state, cache, 1.0, True, loads)
        # a condition around the storage terms that changed after the first
        # assembly registered them
        asm.transient = False
        with pytest.raises(RuntimeError, match="declares the term .* at position 0"):
            asm.assemble(state, cache, 1.0, True, loads)

    def test_failed_first_assembly_leaves_no_pattern(self, monkeypatch):
        asm, state, loads = mixed_state()
        cache = asm.build_cache(state, loads)

        def failing(*args):
            raise FloatingPointError("contact rows")

        # the momentum and balance rows are registered when the contact rows fail
        monkeypatch.setattr(asm, "_contact_rows", failing)
        with pytest.raises(FloatingPointError):
            asm.assemble(state, cache, 100.0, False, loads)
        assert asm.slots is None
        monkeypatch.undo()
        A, b = asm.assemble(state, cache, 100.0, False, loads)
        fresh = mixed_state()[0]
        A_ref, b_ref = fresh.assemble(state, fresh.build_cache(state, loads), 100.0, False, loads)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, name), getattr(A_ref, name))
        assert np.array_equal(b, b_ref)

    @pytest.mark.parametrize("gravity", [(0.0, 0.0), (0.0, -9.81)])
    def test_set_up_operators_held_only_while_read(self, gravity):
        # heat never reads MPFA's vector sources, and flow reads them only
        # under gravity; MPSA's face operators and the momentum rows' row
        # maps go once the first assembly has registered the pattern
        mat = MaterialSet(gravity=gravity)
        _, asm, state = make_problem(CROSSING, mat=mat)
        ops = (asm.flow_ops, asm.heat_ops)
        assert [op.vector_source is None for op in ops] == [gravity == (0.0, 0.0), True]
        assert [op.trace_vector_source is None for op in ops] == [gravity == (0.0, 0.0), True]
        face_ops = ("stress", "bound_stress", "grad_p", "grad_T")
        assert all(getattr(asm.mech_ops, name) is not None for name in face_ops)
        assert all(rowmap is not None for _, rowmap, *_ in asm.tractions)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4), T_left=320.0)
        cache = asm.build_cache(state, loads)
        A1, b1 = asm.assemble(state, cache, 100.0, False, loads)
        assert all(getattr(asm.mech_ops, name) is None for name in face_ops)
        assert all(rowmap is None for _, rowmap, *_ in asm.tractions)
        # a later assembly needs none of them
        A2, b2 = asm.assemble(state, cache, 100.0, False, loads)
        assert np.array_equal(A1.data, A2.data) and np.array_equal(b1, b2)


def without_zeros(A):
    """A copy of A without its explicit zeros."""
    A = sps.csr_matrix((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)
    A.eliminate_zeros()
    return A


class TestSteadyPattern:
    @staticmethod
    def storage_keys(asm, state, loads):
        """The storage keys of the pattern that a first, steady assembly
        registers."""
        assert asm.slots is None
        asm.assemble(state, asm.build_cache(state, loads), 1.0, True, loads)
        return [key for key in asm.slots.keys if key[0] == STORAGE]

    def test_no_storage_slots(self):
        union, steady = mixed_state(), mixed_state(transient=False)
        assert self.storage_keys(*union) and not self.storage_keys(*steady)
        assert steady[0].slots.const.size < union[0].slots.const.size

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_steady_matrix_is_the_union_one_without_its_zeros(self, sign):
        systems = []
        for transient in (True, False):
            asm, state, loads = mixed_state(sign, transient)
            systems.append(asm.assemble(state, asm.build_cache(state, loads), 1.0, True, loads))
        (A_union, b_union), (A, b) = systems
        assert A.nnz < A_union.nnz
        A_union, A = without_zeros(A_union), without_zeros(A)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, name), getattr(A_union, name))
        assert np.array_equal(b, b_union)

    def test_transient_step_raises(self):
        asm, state, loads = mixed_state(transient=False)
        with pytest.raises(ValueError, match="transient"):
            asm.assemble(state, asm.build_cache(state, loads), 100.0, False, loads)

    def test_scenario_is_steady_only_when_every_phase_is(self):
        raw = tiny_raw()
        assert not all(phase.get("steady", False) for phase in raw["phases"])
        scn = build_scenario(parse_config(raw))
        assert scn.assembler.transient
        assert self.storage_keys(scn.assembler, scn.state, build_loads(scn, 0))
        raw["phases"] = raw["phases"][:1]
        assert raw["phases"][0]["steady"]
        scn = build_scenario(parse_config(raw))
        assert not scn.assembler.transient
        assert not self.storage_keys(scn.assembler, scn.state, build_loads(scn, 0))


@pytest.fixture
def sparse_builds(monkeypatch):
    """The sparse matrices built while the fixture's list is active, by
    type, with whether a factorisation of the block solver built them."""
    built, active = [], []
    init = _spbase.__init__

    def counted(self, *args, **kwargs):
        if active:
            frame, factoring = sys._getframe(1), False
            while frame is not None and not factoring:
                factoring = frame.f_code is newton._factor.__code__
                frame = frame.f_back
            built.append((type(self).__name__, factoring))
        init(self, *args, **kwargs)

    monkeypatch.setattr(_spbase, "__init__", counted)
    return built, active


class TestNoSymbolicWorkPerIteration:
    def test_assembly_builds_only_the_matrix_it_returns(self, sparse_builds):
        built, active = sparse_builds
        asm, state, loads = mixed_state()
        cache = asm.build_cache(state, loads)
        asm.assemble(state, cache, 100.0, False, loads)
        for steady in (False, True):
            active.append(1)
            A, _ = asm.assemble(state, cache, 100.0, steady, loads)
            active.pop()
            assert built == [(type(A).__name__, False)]
            built.clear()

    def test_fracture_operators_built_at_set_up_only(self, monkeypatch):
        mdg, asm, state = make_problem(FR)
        calls = []
        discretize = assembly.onedim_discretize

        def counted(*args):
            calls.append(1)
            return discretize(*args)

        monkeypatch.setattr(assembly, "onedim_discretize", counted)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4), p_left=1e6, T_left=320.0)
        records = time_loop(asm, state, PhaseSpec("load", duration=200.0, dt=100.0),
                            lambda t, tp: loads, default_params(), run_solver(asm))
        assert len(records) == 2 and all(r.newton.converged for r in records)
        balance_report(asm, state, 100.0, loads)
        assert calls == []

    def test_solve_builds_only_what_it_factors(self, sparse_builds, monkeypatch):
        # the first solve on a pattern fixes its gathers; every later one
        # builds sparse matrices only to factor them
        built, active = sparse_builds
        mdg, asm, state = make_problem(FR)
        solve, per_solve, factors = newton.DirectSolver.solve, [], []

        def counted(self, *args, **kwargs):
            active.append(1)
            try:
                return solve(self, *args, **kwargs)
            finally:
                active.pop()
                per_solve.append(list(built))
                built.clear()

        splu = spla.splu

        def counted_splu(matrix, **kwargs):
            factors.append(matrix.shape)
            return splu(matrix, **kwargs)

        monkeypatch.setattr(newton.DirectSolver, "solve", counted)
        monkeypatch.setattr(spla, "splu", counted_splu)
        solver = newton.DirectSolver(asm.dofs.mechanics, asm.dofs.contact)
        loads = make_loads(asm, top_displacement=(5e-4, -2e-4), p_left=1e6, T_left=320.0)
        params = default_params()
        assert newton_solve(asm, state, 1.0, True, loads, params, solver=solver).converged
        state.accept_step()
        assert newton_solve(asm, state, 100.0, False, loads, params, solver=solver).converged
        assert len(per_solve) > 2 and len(factors) > 2
        later = [kind for made in per_solve[1:] for kind, factoring in made]
        assert later and all(factoring for made in per_solve[1:] for _, factoring in made)
