import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdthm.constitutive import (
    DilationModel,
    MaterialSet,
    aperture,
    cubic_law,
    dgap,
    effective_param,
    fluid_density,
    friction_bound,
    gap,
    specific_volume,
)

MAT = MaterialSet()


class TestFluidDensity:
    def test_reference_state(self):
        assert fluid_density(MAT.reference_pressure, MAT.reference_temperature, MAT) == (
            MAT.density_fluid_ref
        )

    def test_unit_exponent(self):
        rho = fluid_density(
            MAT.reference_pressure + MAT.bulk_fluid, MAT.reference_temperature, MAT
        )
        assert rho == pytest.approx(MAT.density_fluid_ref * np.e, rel=1e-14)

    def test_compensating_pressure_and_temperature(self):
        # dp/K_f = 2.5e7/2.5e9 = 1e-2 exactly cancels beta_f*dT = 4e-4*25.
        rho = fluid_density(
            MAT.reference_pressure + 2.5e7, MAT.reference_temperature + 25.0, MAT
        )
        assert rho == pytest.approx(MAT.density_fluid_ref, rel=1e-14)

    @given(
        p1=st.floats(-1e8, 1e8),
        p2=st.floats(-1e8, 1e8),
        T=st.floats(250.0, 450.0),
    )
    def test_monotone_in_pressure(self, p1, p2, T):
        lo, hi = min(p1, p2), max(p1, p2)
        assert fluid_density(lo, T, MAT) <= fluid_density(hi, T, MAT)

    @given(
        T1=st.floats(250.0, 450.0),
        T2=st.floats(250.0, 450.0),
        p=st.floats(-1e8, 1e8),
    )
    def test_monotone_decreasing_in_temperature(self, T1, T2, p):
        lo, hi = min(T1, T2), max(T1, T2)
        assert fluid_density(p, lo, MAT) >= fluid_density(p, hi, MAT)


class TestEffectiveParam:
    def test_degenerate_weights(self):
        assert effective_param(4.0, 8.0, 0.0) == 8.0
        assert effective_param(4.0, 8.0, 1.0) == 4.0

    def test_quarter(self):
        assert effective_param(4.0, 8.0, 0.25) == pytest.approx(7.0)

    def test_rejects_bad_porosity(self):
        with pytest.raises(ValueError):
            effective_param(1.0, 2.0, 1.5)


class TestCubicLaw:
    def test_zero(self):
        assert cubic_law(0.0) == 0.0

    def test_hand_values(self):
        assert cubic_law(2e-3) == pytest.approx(3.3333333333e-7, rel=1e-9)
        assert cubic_law(5e-4) == pytest.approx(2.0833333333e-8, rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cubic_law(np.array([1e-3, -1e-6]))

    @given(a=st.floats(0.0, 1e-2))
    def test_cubic_name(self, a):
        # permeability times fracture specific volume is a^3/12
        assert cubic_law(a) * specific_volume(a, 1) == pytest.approx(a**3 / 12.0)


class TestGap:
    def test_zero_jump(self):
        assert gap(0.0, DilationModel.TWO_WAY, MAT.dilation_angle) == 0.0
        assert dgap(0.0, DilationModel.TWO_WAY, MAT.dilation_angle) == 0.0

    def test_45_degrees(self):
        g = gap(1e-3, DilationModel.TWO_WAY, np.radians(45.0))
        assert g == pytest.approx(1e-3, rel=1e-12)

    def test_models_without_backcoupling(self):
        for model in (DilationModel.ZERO_WAY, DilationModel.ONE_WAY):
            assert gap(2e-3, model, MAT.dilation_angle) == 0.0
            assert dgap(2e-3, model, MAT.dilation_angle) == 0.0

    def test_finite_difference_of_gap(self):
        rng = np.random.default_rng(7)
        psi = MAT.dilation_angle
        for jt in rng.uniform(-1e-3, 1e-3, size=20):
            if abs(jt) < 1e-6:
                continue
            h = 1e-9
            fd = (
                gap(jt + h, DilationModel.TWO_WAY, psi)
                - gap(jt - h, DilationModel.TWO_WAY, psi)
            ) / (2 * h)
            assert fd == pytest.approx(
                dgap(jt, DilationModel.TWO_WAY, psi), rel=1e-6
            )

    @given(jt=st.floats(-5e-3, 5e-3))
    def test_reversibility(self, jt):
        # returning the tangential jump to zero restores a zero gap
        g_loaded = gap(jt, DilationModel.TWO_WAY, MAT.dilation_angle)
        g_back = gap(0.0, DilationModel.TWO_WAY, MAT.dilation_angle)
        assert g_loaded >= 0.0
        assert g_back == 0.0


class TestAperture:
    def test_undeformed(self):
        for model in DilationModel:
            assert aperture(0.0, 0.0, model, MAT) == MAT.residual_aperture

    def test_one_way_45_degrees(self):
        mat = MaterialSet(dilation_angle=np.radians(45.0))
        a = aperture(0.0, 2e-4, DilationModel.ONE_WAY, mat)
        assert a == pytest.approx(mat.residual_aperture + 2e-4, rel=1e-12)

    def test_two_way_closed_cell_matches_one_way_formula(self):
        # at a converged closed cell jump_n equals the gap
        jt = 3e-4
        jn = gap(jt, DilationModel.TWO_WAY, MAT.dilation_angle)
        a2 = aperture(jn, jt, DilationModel.TWO_WAY, MAT)
        a1 = aperture(0.0, jt, DilationModel.ONE_WAY, MAT)
        assert a2 == pytest.approx(a1, rel=1e-14)

    def test_zero_and_two_way_share_formula(self):
        jn, jt = 1.3e-4, -2e-4
        assert aperture(jn, jt, DilationModel.ZERO_WAY, MAT) == aperture(
            jn, jt, DilationModel.TWO_WAY, MAT
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            aperture(-2 * MAT.residual_aperture, 0.0, DilationModel.ZERO_WAY, MAT)


class TestSpecificVolume:
    def test_matrix_cell(self):
        assert specific_volume(1e-3, 2) == 1.0

    def test_fracture(self):
        assert specific_volume(1e-3, 1) == pytest.approx(1e-3)

    def test_intersection(self):
        assert specific_volume(1e-3, 0) == pytest.approx(1e-6)


class TestFrictionBound:
    def test_zero(self):
        assert friction_bound(0.0, 1e-5, 1e-5, 1e10, 0.5) == 0.0

    def test_compressed_sticking(self):
        b = friction_bound(-1e6, 2e-5, 2e-5, 1e10, 0.5)
        assert b == pytest.approx(5e5)

    def test_open_cell_negative_bound(self):
        b = friction_bound(0.0, 1e-4, 0.0, 1e10, 0.5)
        assert b == pytest.approx(-5e5)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            friction_bound(0.0, 0.0, 0.0, 0.0, 0.5)

    @given(
        lam_n=st.one_of(st.just(0.0), st.floats(-1e7, -1e-300)),
        jn=st.floats(0.0, 1e-4, allow_subnormal=False),
        scale=st.integers(-10, 10).map(lambda k: 2.0**k),
    )
    @settings(max_examples=50)
    def test_scale_consistency(self, lam_n, jn, scale):
        # a power of two scales every term exactly, away from the subnormals
        b1 = friction_bound(lam_n, jn, 0.0, 1e10, 0.5)
        b2 = friction_bound(scale * lam_n, jn, 0.0, scale * 1e10, 0.5)
        assert b2 == scale * b1


class TestMaterialSet:
    def test_table_defaults(self):
        assert MAT.bulk_solid == 2.2e10
        assert MAT.bulk_fluid == 2.5e9
        assert MAT.shear_modulus == 1.7e10
        assert MAT.porosity == 1e-2
        assert MAT.friction_coefficient == 0.5

    def test_plane_split_lambda(self):
        assert MAT.lame_lambda == pytest.approx(2.2e10 - 1.7e10)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            MaterialSet(porosity=1.2)
        with pytest.raises(ValueError):
            MaterialSet(viscosity=-1.0)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            MaterialSet.from_dict({"not_a_param": 1.0})
