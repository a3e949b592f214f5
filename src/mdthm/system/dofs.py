"""Degree-of-freedom bookkeeping and state snapshots.

Unknowns are blocked two-level: the outer level runs over subdomains (by
descending dimension) and then interfaces, the inner level over the
variables living there. The matrix carries displacement, pressure and
temperature; fractures contact traction (in the cellwise tangent/normal
basis), pressure and temperature; intersection points pressure and
temperature. Matrix-fracture interfaces carry the mortar displacement and
the fluid / advective-heat / conductive-heat fluxes; fracture-point
interfaces only the fluxes. Vector dofs are interleaved cellwise.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh import MixedDimGrid

U, P, T, LAM = "u", "p", "T", "lam"
U_MORTAR, NU, NU_ADV, NU_COND = "u_m", "nu", "nu_adv", "nu_cond"


class DofMap:
    def __init__(self, mdg: MixedDimGrid):
        self.mdg = mdg
        self._slices: dict[tuple, slice] = {}
        offset = 0

        def add(kind, ident, var, size):
            nonlocal offset
            self._slices[(kind, ident, var)] = slice(offset, offset + size)
            offset += size

        for sd in mdg.subdomains:
            if sd.dim == 2:
                add("sd", sd.id, U, 2 * sd.num_cells)
                add("sd", sd.id, P, sd.num_cells)
                add("sd", sd.id, T, sd.num_cells)
            elif sd.dim == 1:
                add("sd", sd.id, LAM, 2 * sd.num_cells)
                add("sd", sd.id, P, sd.num_cells)
                add("sd", sd.id, T, sd.num_cells)
            else:
                add("sd", sd.id, P, sd.num_cells)
                add("sd", sd.id, T, sd.num_cells)
        for intf in mdg.interfaces:
            if mdg.subdomain(intf.high_id).dim == 2:
                add("intf", intf.id, U_MORTAR, 2 * intf.num_cells)
            add("intf", intf.id, NU, intf.num_cells)
            add("intf", intf.id, NU_ADV, intf.num_cells)
            add("intf", intf.id, NU_COND, intf.num_cells)
        self.num_dofs = offset

    def block(self, kind, ident, var) -> slice:
        return self._slices[(kind, ident, var)]

    def sd(self, sd_id, var) -> slice:
        return self._slices[("sd", sd_id, var)]

    def intf(self, intf_id, var) -> slice:
        return self._slices[("intf", intf_id, var)]

    def indices(self, kind, idents, var) -> np.ndarray:
        """Dof indices of one variable over several subdomains or
        interfaces, concatenated in the given order."""
        parts = [np.arange(sl.start, sl.stop)
                 for sl in (self._slices[(kind, i, var)] for i in idents)]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=int)

    def blocks(self):
        return self._slices.items()


class State:
    """Solution snapshots: previous time step, previous iterate, current."""

    def __init__(self, dofs: DofMap):
        self.dofs = dofs
        self.prev_step = np.zeros(dofs.num_dofs)
        self.prev_iter = np.zeros(dofs.num_dofs)
        self.current = np.zeros(dofs.num_dofs)

    def start_iteration(self):
        self.prev_iter[:] = self.current

    def accept_step(self):
        self.prev_step[:] = self.current
        self.prev_iter[:] = self.current

    def set_initial(self, values: dict):
        for key, val in values.items():
            sl = self.dofs.block(*key)
            self.current[sl] = val
        self.prev_step[:] = self.current
        self.prev_iter[:] = self.current
