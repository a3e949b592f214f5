import numpy as np
import pytest

from helpers import complementarity_report
from mdthm.contact import (
    ContactError,
    ContactState,
    classify,
    contact_rows,
    residuals,
)

F = 0.5
C = 1e10


def arr(*vals):
    return np.asarray(vals, dtype=float)


class TestClassify:
    def test_zero_bound_is_open(self):
        state = classify(arr(0.0), arr(0.0), arr(0.0), arr(1e-5), arr(0.0), arr(1e-5), C, F)
        assert state[0] == ContactState.OPEN

    def test_compressed_cell_sticks(self):
        # b = 5e5 > 0 = |trial|
        state = classify(arr(0.0), arr(-1e6), arr(0.0), arr(2e-5), arr(0.0), arr(2e-5), C, F)
        assert state[0] == ContactState.STICKING

    def test_large_shear_glides(self):
        state = classify(arr(6e5), arr(-1e6), arr(0.0), arr(2e-5), arr(0.0), arr(2e-5), C, F)
        assert state[0] == ContactState.GLIDING

    def test_scale_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lam_t = rng.uniform(-1e6, 1e6)
            lam_n = rng.uniform(-2e6, 0.0)
            jn = rng.uniform(0, 1e-4)
            jt = rng.uniform(-1e-4, 1e-4)
            jt0 = rng.uniform(-1e-4, 1e-4)
            g = rng.uniform(0, 5e-5)
            s = rng.uniform(1e-3, 1e3)
            s1 = classify(arr(lam_t), arr(lam_n), arr(jt), arr(jn), arr(jt0), arr(g), C, F)
            s2 = classify(
                arr(s * lam_t), arr(s * lam_n), arr(jt), arr(jn), arr(jt0), arr(g), s * C, F
            )
            assert s1[0] == s2[0]

    def test_rejects_bad_c(self):
        with pytest.raises(ContactError):
            classify(arr(0.0), arr(0.0), arr(0.0), arr(0.0), arr(0.0), arr(0.0), 0.0, F)


def oracle_residuals(lam_t, lam_n, jump_t, jump_n, jump_t_prev, g, c, f):
    # plain-scalar reimplementation of the complementarity functions
    b = -f * (lam_n + c * (jump_n - g))
    d_t = jump_t - jump_t_prev
    trial = lam_t + c * d_t
    c_n = -lam_n - max(0.0, b) / f
    c_t = max(b, abs(trial)) * (-lam_t) + max(0.0, b) * trial
    return c_n, c_t


class TestResiduals:
    def test_converged_open_cell(self):
        c_n, c_t = residuals(arr(0.0), arr(0.0), arr(3e-5), arr(1e-4), arr(3e-5), arr(0.0), C, F)
        assert c_n[0] == 0.0 and c_t[0] == 0.0

    def test_converged_sticking_cell(self):
        # no slip increment, jump_n equal to the gap, compressive traction
        c_n, c_t = residuals(
            arr(2e5), arr(-1e6), arr(4e-5), arr(2e-5), arr(4e-5), arr(2e-5), C, F
        )
        assert abs(c_n[0]) < 1e-9
        assert abs(c_t[0]) < 1e-9 * 1e6**2

    def test_random_states_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            vals = dict(
                lam_t=rng.uniform(-1e6, 1e6),
                lam_n=rng.uniform(-2e6, 1e5),
                jump_t=rng.uniform(-1e-4, 1e-4),
                jump_n=rng.uniform(-1e-5, 1e-4),
                jump_t_prev=rng.uniform(-1e-4, 1e-4),
                g=rng.uniform(0, 5e-5),
            )
            got_n, got_t = residuals(
                arr(vals["lam_t"]), arr(vals["lam_n"]), arr(vals["jump_t"]),
                arr(vals["jump_n"]), arr(vals["jump_t_prev"]), arr(vals["g"]), C, F,
            )
            exp_n, exp_t = oracle_residuals(c=C, f=F, **vals)
            assert got_n[0] == pytest.approx(exp_n, rel=1e-12, abs=1e-10)
            assert got_t[0] == pytest.approx(exp_t, rel=1e-12, abs=1e-4)


class TestRows:
    def rows_for(self, lam_t, lam_n, jump_t, jump_n, jump_t_prev, g, dg):
        state = classify(lam_t, lam_n, jump_t, jump_n, jump_t_prev, g, C, F)
        return state, contact_rows(
            state, lam_t, lam_n, jump_t, jump_n, jump_t_prev, g, dg, C, F
        )

    def test_open_cell_identity(self):
        _, (a_lam, a_jump, rhs) = self.rows_for(
            arr(0.0), arr(1e5), arr(0.0), arr(1e-4), arr(0.0), arr(0.0), arr(0.0)
        )
        assert np.allclose(a_lam[0], np.eye(2))
        assert np.allclose(a_jump[0], 0.0)
        assert np.allclose(rhs[0], 0.0)

    def test_sticking_cell_no_increment(self):
        # with zero slip increment and dgap = 0 the rows pin jump_n = g and
        # the slip increment to zero
        state, (a_lam, a_jump, rhs) = self.rows_for(
            arr(1e5), arr(-1e6), arr(3e-5), arr(2e-5), arr(3e-5), arr(2e-5), arr(0.0)
        )
        assert state[0] == ContactState.STICKING
        assert np.allclose(a_jump[0, 1], [0.0, 1.0])
        assert rhs[0, 1] == pytest.approx(2e-5)
        assert np.allclose(a_jump[0, 0], [1.0, 0.0])
        assert a_lam[0, 0, 1] == pytest.approx(0.0)
        assert rhs[0, 0] == pytest.approx(3e-5)

    def test_closed_row_requires_positive_bound(self):
        state = np.array([int(ContactState.GLIDING)])
        with pytest.raises(ContactError, match="bound"):
            contact_rows(
                state, arr(1e5), arr(1e5), arr(0.0), arr(0.0), arr(0.0), arr(0.0), arr(0.0),
                C, F,
            )

    def test_gliding_fixed_point_satisfies_row(self):
        # construct exact gliding solutions of C = 0 and verify the row is
        # satisfied by the same state (fixed point of the iteration)
        rng = np.random.default_rng(21)
        for _ in range(100):
            lam_n = rng.uniform(-3e6, -1e4)
            g = rng.uniform(0.0, 1e-4)
            jump_n = g  # closed
            b = -F * lam_n
            direction = rng.choice([-1.0, 1.0])
            slip = rng.uniform(1e-7, 1e-4)
            lam_t = b * direction
            jump_t_prev = rng.uniform(-1e-4, 1e-4)
            jump_t = jump_t_prev + slip * direction
            c_n, c_t = residuals(
                arr(lam_t), arr(lam_n), arr(jump_t), arr(jump_n),
                arr(jump_t_prev), arr(g), C, F,
            )
            assert abs(c_n[0]) < 1e-8 * abs(lam_n)
            assert abs(c_t[0]) < 1e-6 * max(1.0, b) ** 2
            state, (a_lam, a_jump, rhs) = self.rows_for(
                arr(lam_t), arr(lam_n), arr(jump_t), arr(jump_n),
                arr(jump_t_prev), arr(g), arr(0.0),
            )
            assert state[0] == ContactState.GLIDING
            lam = np.array([lam_t, lam_n])
            jump = np.array([jump_t, jump_n])
            res = a_lam[0] @ lam + a_jump[0] @ jump - rhs[0]
            scale = max(b, abs(lam_t), C * abs(slip))
            assert np.abs(res).max() < 1e-8 * scale

    def test_dilating_normal_row(self):
        dg = np.tan(np.radians(30.0))
        state, (a_lam, a_jump, rhs) = self.rows_for(
            arr(1e5), arr(-1e6), arr(3e-5), arr(2e-5), arr(3e-5), arr(2e-5),
            arr(dg),
        )
        assert a_jump[0, 1, 0] == pytest.approx(-dg)
        assert rhs[0, 1] == pytest.approx(2e-5 - dg * 3e-5)


class SingleCellModel:
    """One fracture cell against elastic walls: lam = lam_ext - K jump."""

    def __init__(self, k_t, k_n, dilation=0.0, c=C, f=F):
        self.k = np.array([k_t, k_n])
        self.tan_psi = np.tan(dilation)
        self.c, self.f = c, f

    def solve(self, lam_ext, jump_prev=np.zeros(2), max_iter=50):
        lam = np.array([0.0, min(lam_ext[1], -1.0)])
        jump = jump_prev.copy()
        for _ in range(max_iter):
            g = self.tan_psi * abs(jump[0])
            dg = self.tan_psi * np.sign(jump[0]) if jump[0] != 0 else 0.0
            state = classify(
                arr(lam[0]), arr(lam[1]), arr(jump[0]), arr(jump[1]),
                arr(jump_prev[0]), arr(g), self.c, self.f,
            )
            a_lam, a_jump, rhs = contact_rows(
                state, arr(lam[0]), arr(lam[1]), arr(jump[0]), arr(jump[1]),
                arr(jump_prev[0]), arr(g), arr(dg), self.c, self.f,
            )
            sys = np.zeros((4, 4))
            sys[:2, :2] = a_lam[0]
            sys[:2, 2:] = a_jump[0]
            sys[2:, :2] = np.eye(2)
            sys[2:, 2:] = np.diag(self.k)
            full_rhs = np.concatenate([rhs[0], lam_ext])
            sol = np.linalg.solve(sys, full_rhs)
            new_lam, new_jump = sol[:2], sol[2:]
            if np.allclose(new_lam, lam, rtol=0, atol=1e-9 * max(1, abs(lam_ext).max())) and \
               np.allclose(new_jump, jump, rtol=0, atol=1e-16):
                lam, jump = new_lam, new_jump
                break
            lam, jump = new_lam, new_jump
        return lam, jump


class TestSingleCellCoulombOracle:
    K_T, K_N = 4e9, 6e9

    def test_sticking_below_transition(self):
        model = SingleCellModel(self.K_T, self.K_N)
        lam_ext = np.array([0.4e6, -1e6])  # |lam_t| < F |lam_n|
        lam, jump = model.solve(lam_ext)
        assert np.allclose(jump, 0.0, atol=1e-12)
        assert np.allclose(lam, lam_ext, rtol=1e-10)

    def test_slip_magnitude_closed_form(self):
        model = SingleCellModel(self.K_T, self.K_N)
        lam_ext = np.array([0.9e6, -1e6])  # beyond the transition load
        lam, jump = model.solve(lam_ext)
        slip = (lam_ext[0] + F * lam_ext[1]) / self.K_T
        assert jump[0] == pytest.approx(slip, rel=1e-10)
        assert jump[1] == pytest.approx(0.0, abs=1e-15)
        assert lam[0] == pytest.approx(-F * lam_ext[1], rel=1e-10)

    def test_transition_load_exact(self):
        model = SingleCellModel(self.K_T, self.K_N)
        lam_ext = np.array([0.5e6, -1e6])  # exactly F |lam_n|
        lam, jump = model.solve(lam_ext)
        assert abs(jump[0]) < 1e-14
        assert lam[0] == pytest.approx(0.5e6, rel=1e-10)

    def test_slip_with_dilation_closed_form(self):
        psi = np.radians(10.0)
        model = SingleCellModel(self.K_T, self.K_N, dilation=psi)
        lam_ext = np.array([0.9e6, -1e6])
        lam, jump = model.solve(lam_ext)
        tan = np.tan(psi)
        slip = (lam_ext[0] + F * lam_ext[1]) / (self.K_T + F * self.K_N * tan)
        assert jump[0] == pytest.approx(slip, rel=1e-10)
        assert jump[1] == pytest.approx(tan * slip, rel=1e-10)
        # Coulomb equality at the dilated normal traction
        lam_n = lam_ext[1] - self.K_N * jump[1]
        assert lam[0] == pytest.approx(-F * lam_n, rel=1e-10)

    def test_open_in_tension(self):
        model = SingleCellModel(self.K_T, self.K_N)
        lam_ext = np.array([2e5, 1e6])
        lam, jump = model.solve(lam_ext)
        assert np.allclose(lam, 0.0, atol=1e-9)
        assert jump[1] == pytest.approx(1e6 / self.K_N, rel=1e-10)

    def test_converged_state_passes_complementarity(self):
        psi = np.radians(10.0)
        model = SingleCellModel(self.K_T, self.K_N, dilation=psi)
        lam, jump = model.solve(np.array([0.9e6, -1e6]))
        g = np.tan(psi) * abs(jump[0])
        report = complementarity_report(
            arr(lam[0]), arr(lam[1]), arr(jump[0]), arr(jump[1]), arr(0.0),
            arr(g), C, F,
        )
        assert report < 1e-8

    def test_reversed_load_cycle_restores_gap(self):
        # drive slip forward, then reverse the shear load until slip returns
        # to zero; the two-way gap follows it back to zero
        psi = np.radians(10.0)
        model = SingleCellModel(self.K_T, self.K_N, dilation=psi)
        lam1, jump1 = model.solve(np.array([0.9e6, -1e6]))
        assert jump1[0] > 0
        lam2, jump2 = model.solve(np.array([-0.9e6, -1e6]), jump_prev=jump1)
        # reversed gliding: slip decreases again
        assert jump2[0] < jump1[0]
        lam3, jump3 = model.solve(np.array([0.0, -1e6]), jump_prev=jump2)
        g3 = np.tan(psi) * abs(jump3[0])
        assert g3 == pytest.approx(np.tan(psi) * abs(jump3[0]))
