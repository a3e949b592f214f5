"""Post-step balance and consistency diagnostics.

The balance report sums each balance law over all cells of all dimensions
at the end state of a step. Its accumulation is the assembler's: the
coefficients, volume-change weights and volume changes of
:meth:`Assembler.accumulation`, times the step's increments, with the
matrix volume change as the change of :meth:`Assembler.div_u`. Its sources
are the wells of :meth:`Assembler.well_heat`. So this module holds no
constitutive law, and a storage term changed in the assembler changes the
report with it.

The boundary outflow stays independent of the assembled system: it sums
the fluxes through the exterior faces alone, from the face fluxes of
:meth:`Assembler.face_flux` and the advected heat of
:meth:`Assembler.advected_heat`. Interior and interdimensional transfers
cancel from the sum only if assembly writes them in conservative form, so
the per-step defect measures exactly that, and whether Newton met its
tolerance. At rest every increment is zero, and so is the accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    dofs, x, xp = assembler.dofs, state.current, state.prev_step
    cache = assembler.build_cache(state, loads)
    accumulation = assembler.accumulation(state, cache, dt)
    div_change = assembler.div_u(x, loads.bc_mech) - assembler.div_u(xp, loads.bc_mech_prev)

    acc = {P: 0.0, T: 0.0}
    m_out = m_src = e_out = e_src = 0.0
    for dim, grid in assembler.mdg.grids.items():
        incr = {var: x[dofs.cells(dim, var)] - xp[dofs.cells(dim, var)] for var in (P, T)}
        for var in (P, T):
            a = accumulation[dim][var]
            dv = div_change if dim == 2 else a.change
            acc[var] += dt * float(np.sum(a.coef[P] * incr[P] + a.coef[T] * incr[T]
                                          + a.weight * dv))

        # boundary outflow through exterior faces
        if dim > 0:
            ext = grid.exterior_faces()
            q = cache.face_flux[dim]
            m_out += dt * float(np.sum(q[ext]))
            ops = assembler.heat_ops if dim == 2 else cache.fracture_ops[HEAT]
            q_cond = assembler.face_flux(dim, HEAT, ops, x, loads)
            q_adv = q * assembler.advected_heat(dim, cache, loads, x)[1]
            e_out += dt * float(np.sum(q_cond[ext] + q_adv[ext]))

        rates, well_heat, *_ = assembler.well_heat(dim, loads, x)
        m_src += dt * float(np.sum(rates))
        e_src += dt * float(np.sum(rates * well_heat))
    return BalanceReport(acc[P], m_out, m_src, acc[T], e_out, e_src)


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
