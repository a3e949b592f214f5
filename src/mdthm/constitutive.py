"""Pointwise material laws: fluid EOS, effective parameters, aperture/gap
relations, fracture permeability and the Coulomb friction bound.

All functions are pure and operate elementwise on scalars or numpy arrays.
Sign conventions: contact traction is negative in compression, the normal
displacement jump is positive on opening.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np


class DilationModel(enum.Enum):
    """Coupling variants between shear slip and fracture dilation.

    ZERO_WAY: no dilation; aperture responds to normal opening only.
    ONE_WAY: slip widens the aperture, but the gap (and hence the momentum
        balance) is unaffected.
    TWO_WAY: slip enters the gap function, feeding dilation back into the
        contact conditions and matrix stress.
    """

    ZERO_WAY = 0
    ONE_WAY = 1
    TWO_WAY = 2


@dataclass
class MaterialSet:
    """Constitutive constants for the coupled simulation.

    Default values describe a granite-like rock saturated with water.
    Units are SI throughout: moduli [Pa], conductivities [W/m/K], heat
    capacities [J/kg/K], densities [kg/m^3], permeability [m^2],
    viscosity [Pa s], thermal expansions [1/K], angles [rad].
    """

    bulk_solid: float = 2.2e10
    bulk_fluid: float = 2.5e9
    shear_modulus: float = 1.7e10
    viscosity: float = 1.0e-3
    matrix_permeability: float = 1.0e-15
    biot_alpha: float = 0.8
    friction_coefficient: float = 0.5
    thermal_expansion_solid: float = 8.0e-6
    thermal_expansion_fluid: float = 4.0e-4
    conductivity_solid: float = 3.0
    conductivity_fluid: float = 0.6
    heat_capacity_solid: float = 790.0
    heat_capacity_fluid: float = 4.2e3
    porosity: float = 1.0e-2
    density_solid: float = 2.7e3
    density_fluid_ref: float = 1.0e3
    dilation_angle: float = np.radians(5.0)
    residual_aperture: float = 5.0e-4
    reference_pressure: float = 0.0
    reference_temperature: float = 300.0
    gravity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        positive = [
            "bulk_solid",
            "bulk_fluid",
            "shear_modulus",
            "viscosity",
            "matrix_permeability",
            "friction_coefficient",
            "conductivity_solid",
            "conductivity_fluid",
            "heat_capacity_solid",
            "heat_capacity_fluid",
            "density_solid",
            "density_fluid_ref",
        ]
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise ValueError(f"material parameter {name} must be positive")
        if not 0.0 <= self.porosity <= 1.0:
            raise ValueError("porosity must lie in [0, 1]")
        if not 0.0 <= self.dilation_angle < np.pi / 2:
            raise ValueError("dilation angle must lie in [0, pi/2)")

    @property
    def lame_lambda(self) -> float:
        """First Lame parameter of the volumetric/deviatoric split.

        The stress law is written sigma = 2 G dev(eps) + K tr(eps) I in the
        ambient dimension nd = 2, which expands to
        sigma = 2 G eps + (K - 2 G / nd) tr(eps) I.
        """
        return self.bulk_solid - 2.0 * self.shear_modulus / 2.0

    @property
    def youngs_modulus(self) -> float:
        lam = self.lame_lambda
        g = self.shear_modulus
        return g * (3.0 * lam + 2.0 * g) / (lam + g)

    @property
    def thermal_stress_coefficient(self) -> float:
        """Coefficient of (T - T_ref) in the thermo-elastic stress."""
        return self.thermal_expansion_solid * self.bulk_solid

    def effective(self, val_solid, val_fluid):
        return effective_param(val_solid, val_fluid, self.porosity)

    @classmethod
    def from_dict(cls, overrides: dict) -> "MaterialSet":
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown material parameters: {sorted(unknown)}")
        return cls(**overrides)


def fluid_density(p, T, mat: MaterialSet):
    """Slightly compressible fluid equation of state.

    rho = rho_ref * exp[(p - p_ref)/K_f - beta_f (T - T_ref)]
    """
    arg = (p - mat.reference_pressure) / mat.bulk_fluid
    arg = arg - mat.thermal_expansion_fluid * (T - mat.reference_temperature)
    return mat.density_fluid_ref * np.exp(arg)


def effective_param(val_solid, val_fluid, porosity):
    """Porosity-weighted average of a solid and a fluid property, with the
    porosity weight on the solid term: phi * solid + (1 - phi) * fluid.
    """
    if not np.all((0.0 <= np.asarray(porosity)) & (np.asarray(porosity) <= 1.0)):
        raise ValueError("porosity must lie in [0, 1]")
    return porosity * val_solid + (1.0 - porosity) * val_fluid


def fluid_storage(dp, dT, mat: MaterialSet, porous: bool):
    """Fluid volume stored per unit volume by the changes dp and dT.

    The law is linear: its coefficients times a weight w are its values at
    (w, 0) and (0, w). The porous matrix stores through fluid and pore
    compressibility and a porosity-averaged expansion; fractures and
    intersection points are filled with fluid only.
    """
    if porous:
        cm = mat.porosity / mat.bulk_fluid + (mat.biot_alpha - mat.porosity) / mat.bulk_solid
        beta = mat.effective(mat.thermal_expansion_solid, mat.thermal_expansion_fluid)
        return cm * dp - beta * dT
    return dp / mat.bulk_fluid - mat.thermal_expansion_fluid * dT


def heat_capacities(rho_f, mat: MaterialSet, porous: bool):
    """Volumetric heat capacity rc and its pressure and temperature
    sensitivities rc/K and rc beta, porosity-averaged in the porous matrix
    and of the fluid alone in fractures and intersection points."""

    def average(solid, fluid):
        return mat.effective(solid, fluid) if porous else fluid

    rc_s, rc_f = mat.density_solid * mat.heat_capacity_solid, rho_f * mat.heat_capacity_fluid
    return (average(rc_s, rc_f),
            average(rc_s / mat.bulk_solid, rc_f / mat.bulk_fluid),
            average(rc_s * mat.thermal_expansion_solid, rc_f * mat.thermal_expansion_fluid))


def carried_heat(rho_f, T, mat: MaterialSet):
    """Heat c_f rho_f T that fluid of density rho_f = rho_f(p, T) carries,
    and its derivatives in T and in p: c_f rho_f (1 - beta_f T) and
    c_f rho_f T / K_f."""
    h = mat.heat_capacity_fluid * rho_f * T
    return (h, mat.heat_capacity_fluid * rho_f * (1.0 - mat.thermal_expansion_fluid * T),
            h / mat.bulk_fluid)


def cubic_law(aperture):
    """Tangential permeability of a fracture, K = a^2 / 12."""
    a = np.asarray(aperture, dtype=float)
    if np.any(a < 0.0):
        raise ValueError("negative aperture passed to cubic law")
    return a * a / 12.0


def gap(jump_t, model: DilationModel, dilation_angle: float):
    """Gap between fracture walls in mechanical contact.

    For the two-way model the gap grows linearly with the magnitude of the
    tangential jump; the one-way and zero-way models keep it at zero.
    ``jump_t`` is the signed tangential jump (scalar per cell in 2d).
    """
    jt = np.asarray(jump_t, dtype=float)
    if model is DilationModel.TWO_WAY:
        return np.tan(dilation_angle) * np.abs(jt)
    return np.zeros_like(jt)


def dgap(jump_t, model: DilationModel, dilation_angle: float):
    """Derivative of the gap with respect to the tangential jump.

    Returns tan(psi) * jump_t / |jump_t| where the jump is nonzero, and 0 on
    the kink at jump_t = 0 (a valid element of the generalised Jacobian).
    """
    jt = np.asarray(jump_t, dtype=float)
    if model is not DilationModel.TWO_WAY:
        return np.zeros_like(jt)
    out = np.zeros_like(jt)
    nz = np.abs(jt) > 0.0
    out[nz] = np.tan(dilation_angle) * np.sign(jt[nz])
    return out


def aperture(jump_n, jump_t, model: DilationModel, mat: MaterialSet):
    """Fracture aperture from the displacement jump.

    A nonpositive aperture violates nonpenetration and raises ValueError;
    :func:`aperture_unchecked` evaluates the same law without the check.
    """
    a = aperture_unchecked(jump_n, jump_t, model, mat)
    if np.any(a <= 0.0):
        raise ValueError(
            "nonpositive aperture: nonpenetration is violated by the current state"
        )
    return a


def aperture_unchecked(jump_n, jump_t, model: DilationModel, mat: MaterialSet):
    """The aperture law, defined for iterates that overshoot into penetration.

    Zero- and two-way models: a = a0 + jump_n. One-way adds the slip term
    tan(psi) |jump_t| directly (in the two-way model the same widening is
    reached through the gap entering the momentum balance).
    """
    a = mat.residual_aperture + np.asarray(jump_n, dtype=float)
    if model is DilationModel.ONE_WAY:
        a = a + np.tan(mat.dilation_angle) * np.abs(np.asarray(jump_t, dtype=float))
    return a


def specific_volume(apert, dim: int):
    """Conversion factor a^(2 - d) from reduced to full-dimensional measure."""
    return np.asarray(apert, dtype=float) ** (2 - dim)


def friction_bound(lam_n, jump_n, gap_value, c_num, friction_coefficient):
    """Coulomb friction bound b = -F (lam_n + c (jump_n - g)).

    Positive values indicate mechanically closed cells; b <= 0 flags open
    ones. ``c_num`` is the numerical traction/displacement scaling [Pa/m].
    """
    if np.any(np.asarray(c_num) <= 0.0):
        raise ValueError("c_num must be positive")
    return -friction_coefficient * (lam_n + c_num * (jump_n - gap_value))
