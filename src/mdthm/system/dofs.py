"""Degree-of-freedom bookkeeping and state snapshots.

Unknowns are blocked two-level: the outer level runs over subdomains (by
descending dimension) and then interfaces, the inner level over the
variables living there. The matrix carries displacement, pressure and
temperature; fractures contact traction (in the cellwise tangent/normal
basis), pressure and temperature; intersection points pressure and
temperature. Matrix-fracture interfaces carry the mortar displacement and
the fluid / advective-heat / conductive-heat fluxes; fracture-point
interfaces only the fluxes. Vector dofs are interleaved cellwise.

Assembly reads the dofs through the stacked view of the mesh:
:meth:`DofMap.cells` gives one variable's dofs over the stacked cells of a
dimension (``mdg.grids``), :meth:`DofMap.mortar` one interface variable's
dofs over a mortar group (``mdg.mortars``). Both are computed once, and so
are :attr:`DofMap.mechanics`, which flags the dofs of the mechanical
variables (u, u_m, lam) against the scalar ones (p, T, nu, nu_adv,
nu_cond), and :attr:`DofMap.contact`, which flags those of lam.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh import MixedDimGrid

U, P, T, LAM = "u", "p", "T", "lam"
U_MORTAR, NU, NU_ADV, NU_COND = "u_m", "nu", "nu_adv", "nu_cond"
MECHANICS = (U, U_MORTAR, LAM)

# per dimension, the variables of a subdomain's cells and of an interface
# whose high side has that dimension, with their components per cell
CELL_VARS = {2: ((U, 2), (P, 1), (T, 1)), 1: ((LAM, 2), (P, 1), (T, 1)), 0: ((P, 1), (T, 1))}
MORTAR_VARS = {2: ((U_MORTAR, 2), (NU, 1), (NU_ADV, 1), (NU_COND, 1)),
               1: ((NU, 1), (NU_ADV, 1), (NU_COND, 1))}


class DofMap:
    def __init__(self, mdg: MixedDimGrid):
        self.mdg = mdg
        self._slices: dict[tuple, slice] = {}
        blocks = [("sd", sd, CELL_VARS[sd.dim]) for sd in mdg.subdomains]
        blocks += [("intf", i, MORTAR_VARS[mdg.subdomain(i.high_id).dim])
                   for i in mdg.interfaces]
        offset = 0
        for kind, item, variables in blocks:
            for var, nd in variables:
                size = nd * item.num_cells
                self._slices[(kind, item.id, var)] = slice(offset, offset + size)
                offset += size
        self.num_dofs = offset
        self.mechanics = np.zeros(offset, dtype=bool)
        self.contact = np.zeros(offset, dtype=bool)
        for (_, _, var), sl in self._slices.items():
            self.mechanics[sl] = var in MECHANICS
            self.contact[sl] = var == LAM
        # the stacked views, in the cell order of ``mdg.grids`` and the mortar
        # cell order of ``mdg.mortars``
        self._cells = {(dim, var): self._indices("sd", list(grid.cell_start), var)
                       for dim, grid in mdg.grids.items() for var, _ in CELL_VARS[dim]}
        self._mortars = {(dim, var): self._indices("intf", group.ids, var)
                         for dim, group in mdg.mortars.items() for var, _ in MORTAR_VARS[dim]}

    def block(self, kind, ident, var) -> slice:
        return self._slices[(kind, ident, var)]

    def sd(self, sd_id, var) -> slice:
        return self._slices[("sd", sd_id, var)]

    def _indices(self, kind, idents, var) -> np.ndarray:
        """Dof indices of one variable over several subdomains or
        interfaces, concatenated in the given order."""
        parts = [np.arange(sl.start, sl.stop)
                 for sl in (self._slices[(kind, i, var)] for i in idents)]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=int)

    def cells(self, dim, var) -> np.ndarray:
        """Dof indices of one variable over the stacked cells of one
        dimension, ``mdg.grids[dim]``."""
        return self._cells[(dim, var)]

    def mortar(self, dim, var) -> np.ndarray:
        """Dof indices of one interface variable over the stacked mortar
        cells of ``mdg.mortars[dim]``."""
        return self._mortars[(dim, var)]

    def blocks(self):
        return self._slices.items()


class State:
    """Solution snapshots: the previous time step and the current iterate.

    Assembly linearises at ``current``; Newton overwrites it with each new
    iterate, and accepting a step copies it to ``prev_step``.
    """

    def __init__(self, dofs: DofMap):
        self.dofs = dofs
        self.prev_step = np.zeros(dofs.num_dofs)
        self.current = np.zeros(dofs.num_dofs)

    def accept_step(self):
        self.prev_step[:] = self.current

    def set_initial(self, values: dict):
        for key, val in values.items():
            sl = self.dofs.block(*key)
            self.current[sl] = val
        self.prev_step[:] = self.current
