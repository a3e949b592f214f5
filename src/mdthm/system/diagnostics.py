"""Post-step balance and consistency diagnostics.

The balance report recomputes accumulation, boundary fluxes and sources
from the end state of a step, apart from the Newton residual: interior and
interdimensional transfers cancel by construction, so the per-step defect
measures whether assembly encodes the conservative form and the solver met
its tolerance. The matrix volume change, the heat that boundary inflow
carries and the heat that wells carry are the assembler's own terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mdthm.constitutive import carried_heat, fluid_storage, heat_capacities
from mdthm.system.assembly import HEAT, Assembler, Loads
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
                   loads: Loads) -> BalanceReport:
    """Global volume and energy balance over one accepted transient step."""
    mat = assembler.mat
    x, xp = state.current, state.prev_step
    cache = assembler.build_cache(state, loads)

    m_acc = m_out = m_src = 0.0
    e_acc = e_out = e_src = 0.0

    for dim, grid in assembler.mdg.grids.items():
        p, t = assembler.dofs.cells(dim, P), assembler.dofs.cells(dim, T)
        p_new, p_old = x[p], xp[p]
        t_new, t_old = x[t], xp[t]
        vols = grid.cell_volumes
        v_lag = cache.spec_vol[dim]
        rho = cache.density[dim]
        heat = carried_heat(rho, t_new, mat)[0]

        m_acc += float(np.sum(
            vols * v_lag * fluid_storage(p_new - p_old, t_new - t_old, mat, dim == 2)
        ))
        if dim == 2:
            ddiv = float(np.sum(assembler.div_u(x, loads.bc_mech)
                                - assembler.div_u(xp, loads.bc_mech_prev)))
            m_acc += mat.biot_alpha * ddiv
            e_acc += (mat.thermal_stress_coefficient
                      * mat.reference_temperature * ddiv)
        else:
            v_old = cache.spec_vol_prev[dim]
            m_acc += float(np.sum(vols * (v_lag - v_old)))
            e_acc += float(np.sum(vols * heat * (v_lag - v_old)))
        # energy accumulation with the expanded coefficient form
        rc, rck, rcb = heat_capacities(rho, mat, dim == 2)
        e_acc += float(np.sum(
            vols * v_lag * ((rc - t_new * rcb) * (t_new - t_old)
                            + t_new * rck * (p_new - p_old))
        ))

        # boundary outflow through exterior faces
        if dim > 0:
            ext = grid.exterior_faces()
            q = cache.face_flux[dim]
            m_out += dt * float(np.sum(q[ext]))
            ops = assembler.heat_ops if dim == 2 else cache.fracture_ops[HEAT]
            bvals = assembler._scalar_boundary_values(dim, HEAT, loads, x)
            q_cond = ops.flux @ t_new + ops.bound_flux @ bvals
            q_adv = q * assembler.advected_heat(dim, cache, loads, x)[1]
            e_out += dt * float(np.sum(q_cond[ext] + q_adv[ext]))

        rates, well_heat, *_ = assembler.well_heat(dim, loads, x)
        m_src += dt * float(np.sum(rates))
        e_src += dt * float(np.sum(rates * well_heat))
    return BalanceReport(m_acc, m_out, m_src, e_acc, e_out, e_src)


def interface_flux_consistency(assembler: Assembler, state: State,
                               loads: Loads) -> float:
    """Max defect between duplicated-face fluxes and mortar flux values,
    relative to the largest of either in each group of mortars."""
    x = state.current
    cache = assembler.build_cache(state, loads)
    worst = 0.0
    for dim, group in assembler.mdg.mortars.items():
        if group.size == 0:
            continue
        q = cache.face_flux[dim]
        nu = x[assembler.dofs.mortar(dim, NU)]
        scale = max(1e-30, float(np.abs(nu).max()), float(np.abs(q).max()))
        worst = max(worst, float(np.abs(group.lift @ q - nu).max()) / scale)
    return worst
