"""Post-step balance and consistency diagnostics.

The balance report recomputes accumulation, boundary fluxes and sources
independently of the Newton residual: interior and interdimensional
transfers cancel by construction, so the per-step defect measures whether
assembly encodes the conservative form and the solver met its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mdthm.constitutive import fluid_density
from mdthm.fvm import upwind_advective
from mdthm.system.assembly import Assembler, Loads
from mdthm.system.dofs import NU, P, T, State


@dataclass
class BalanceReport:
    mass_accumulation: float
    mass_boundary_out: float
    mass_source: float
    energy_accumulation: float
    energy_boundary_out: float
    energy_source: float

    @property
    def mass_residual(self):
        return self.mass_accumulation + self.mass_boundary_out - self.mass_source

    @property
    def energy_residual(self):
        return (
            self.energy_accumulation + self.energy_boundary_out - self.energy_source
        )


def balance_report(assembler: Assembler, state: State, dt: float,
                   loads: Loads, steady: bool = False) -> BalanceReport:
    """Global volume and energy balance over one accepted step."""
    mat, dofs, mdg = assembler.mat, assembler.dofs, assembler.mdg
    x, xp = state.current, state.prev_step
    state.prev_iter[:] = x
    cache = assembler.build_cache(state, loads)

    m_acc = m_out = m_src = 0.0
    e_acc = e_out = e_src = 0.0

    for sd in mdg.subdomains:
        p_new, p_old = x[dofs.sd(sd.id, P)], xp[dofs.sd(sd.id, P)]
        t_new, t_old = x[dofs.sd(sd.id, T)], xp[dofs.sd(sd.id, T)]
        vols = sd.cell_volumes
        v_lag = cache.spec_vol[sd.id]
        rho = cache.density[sd.id]

        if not steady:
            if sd.dim == 2:
                cm = mat.porosity / mat.bulk_fluid + (
                    mat.biot_alpha - mat.porosity
                ) / mat.bulk_solid
                beta = mat.effective(
                    mat.thermal_expansion_solid, mat.thermal_expansion_fluid
                )
                m_acc += float(np.sum(vols * (cm * (p_new - p_old)
                                              - beta * (t_new - t_old))))
                ops = assembler.mech_ops
                u_new = x[dofs.sd(0, "u")]
                u_old = xp[dofs.sd(0, "u")]
                bc_new = assembler.mech_boundary_values(loads.bc_mech, x)
                bc_old = assembler.mech_boundary_values(loads.bc_mech_prev, xp)
                div_new = ops.div_u @ u_new + ops.bound_div_u @ bc_new
                div_old = ops.div_u @ u_old + ops.bound_div_u @ bc_old
                if assembler.use_stabilization:
                    div_new = div_new + ops.stab_p @ p_new + ops.stab_T @ t_new
                    div_old = div_old + ops.stab_p @ p_old + ops.stab_T @ t_old
                ddiv = float(np.sum(div_new - div_old))
                m_acc += mat.biot_alpha * ddiv
                e_acc += (mat.thermal_stress_coefficient
                          * mat.reference_temperature * ddiv)
            else:
                m_acc += float(np.sum(
                    vols * v_lag * ((p_new - p_old) / mat.bulk_fluid
                                    - mat.thermal_expansion_fluid * (t_new - t_old))
                ))
                v_old = cache.spec_vol_prev[sd.id]
                m_acc += float(np.sum(vols * (v_lag - v_old)))
                e_acc += float(np.sum(
                    vols * mat.heat_capacity_fluid * rho * t_new * (v_lag - v_old)
                ))
            # energy accumulation with the expanded coefficient form
            if sd.dim == 2:
                rc = mat.effective(mat.density_solid * mat.heat_capacity_solid,
                                   rho * mat.heat_capacity_fluid)
                rck = mat.effective(
                    mat.density_solid * mat.heat_capacity_solid / mat.bulk_solid,
                    rho * mat.heat_capacity_fluid / mat.bulk_fluid,
                )
                rcb = mat.effective(
                    mat.density_solid * mat.heat_capacity_solid
                    * mat.thermal_expansion_solid,
                    rho * mat.heat_capacity_fluid * mat.thermal_expansion_fluid,
                )
            else:
                rc = rho * mat.heat_capacity_fluid
                rck = rho * mat.heat_capacity_fluid / mat.bulk_fluid
                rcb = rho * mat.heat_capacity_fluid * mat.thermal_expansion_fluid
            e_acc += float(np.sum(
                vols * v_lag * ((rc - t_new * rcb) * (t_new - t_old)
                                + t_new * rck * (p_new - p_old))
            ))

        # boundary outflow through exterior faces
        if sd.dim > 0:
            ext = sd.exterior_faces()
            q = cache.face_flux[sd.id]
            m_out += dt * float(np.sum(q[ext]))
            ops = assembler.heat_ops if sd.dim == 2 else cache.frac_heat_ops[sd.id]
            bvals = assembler._scalar_boundary_values(sd.id, "heat", loads, x)
            q_cond = ops.flux @ t_new + ops.bound_flux @ bvals
            w = mat.heat_capacity_fluid * rho
            ext_T = np.asarray(
                loads.bc_heat.get(sd.id, np.zeros(sd.num_faces)), float
            )
            heat_bc = (assembler.frac_bc[sd.id]["heat"] if sd.dim == 1
                       else assembler.bc["heat"])
            owner = sd.face_cells[0]
            rho_b = fluid_density(x[dofs.sd(sd.id, P)][owner], ext_T, mat)
            w_bc = np.where(heat_bc.is_dir,
                            mat.heat_capacity_fluid * rho_b * ext_T, 0.0)
            q_adv = upwind_advective(sd, q, w * t_new, w_bc, sd.tags["internal"])
            e_out += dt * float(np.sum(q_cond[ext] + q_adv[ext]))

        rates = loads.well_rates.get(sd.id)
        if rates is not None:
            m_src += dt * float(np.sum(rates))
            t_inj = loads.well_T_injection.get(sd.id)
            inj = rates > 0
            if np.any(inj):
                rho_in = fluid_density(p_new[inj], t_inj[inj], mat)
                e_src += dt * float(np.sum(
                    rho_in * mat.heat_capacity_fluid * t_inj[inj] * rates[inj]
                ))
            prod = rates < 0
            if np.any(prod):
                e_src += dt * float(np.sum(
                    mat.heat_capacity_fluid * rho[prod] * rates[prod] * t_new[prod]
                ))
    return BalanceReport(m_acc, m_out, m_src, e_acc, e_out, e_src)


def interface_flux_consistency(assembler: Assembler, state: State,
                               loads: Loads) -> float:
    """Max defect between duplicated-face fluxes and mortar flux values."""
    mdg, dofs, mat = assembler.mdg, assembler.dofs, assembler.mat
    x = state.current
    state.prev_iter[:] = x
    cache = assembler.build_cache(state, loads)
    worst = 0.0
    for intf in mdg.interfaces:
        q = cache.face_flux[intf.high_id]
        nu = x[dofs.intf(intf.id, NU)]
        scale = max(1e-30, float(np.abs(nu).max()), float(np.abs(q).max()))
        worst = max(worst, float(np.abs(q[intf.high_faces] - nu).max()) / scale)
    return worst
