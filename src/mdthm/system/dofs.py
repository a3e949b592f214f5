"""Degree-of-freedom bookkeeping and state snapshots.

This module alone knows how the unknowns are numbered; every other module
reads them per dimension. :meth:`DofMap.cells` gives one variable's dofs
over the stacked cells of a dimension (``mdg.grids``), :meth:`DofMap.mortar`
one interface variable's dofs over a mortar group (``mdg.mortars``), and
:attr:`DofMap.variable` names the variable of every dof. The matrix (2)
carries displacement, pressure and temperature; the fractures (1) contact
traction (in the cellwise tangent/normal basis), pressure and temperature;
the intersection points (0) pressure and temperature. The mortars of the
fracture walls (2) carry the mortar displacement and the fluid /
advective-heat / conductive-heat fluxes; those at intersection points (1)
only the fluxes. Vector dofs are interleaved cellwise. The masks
:attr:`DofMap.mechanics`, of the mechanical variables (u, u_m, lam) against
the scalar ones (p, T, nu, nu_adv, nu_cond), and :attr:`DofMap.contact`, of
lam, follow from :attr:`DofMap.variable`.

The numbering itself is blocked two-level: the outer level runs over the
subdomains (by descending dimension) and then the interfaces, the inner
level over the variables living there. Interfaces exist only as the
stacked groups ``mdg.mortars[2]`` and ``mdg.mortars[1]``: interface
``ids[k]`` of a group is its mortar cells ``offsets[k]:offsets[k + 1]``.
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
    """The numbering of the unknowns of ``mdg``: by subdomain, then by
    interface, read off the mortar groups' ids and offsets."""

    def __init__(self, mdg: MixedDimGrid):
        self.mdg = mdg
        self._slices: dict[tuple, slice] = {}
        blocks = [("sd", sd.id, sd.dim, CELL_VARS, sd.num_cells) for sd in mdg.subdomains]
        blocks += [("intf", ident, dim, MORTAR_VARS, cells)
                   for dim in (2, 1)
                   for ident, cells in zip(mdg.mortars[dim].ids,
                                           np.diff(mdg.mortars[dim].offsets).tolist())]
        offset = 0
        variable, dims = [], []
        for kind, ident, dim, table, cells in blocks:
            for var, nd in table[dim]:
                size = nd * cells
                self._slices[(kind, ident, var)] = slice(offset, offset + size)
                variable.append(np.full(size, var))
                dims.append(np.full(size, dim))
                offset += size
        self.num_dofs = offset
        self.variable = np.concatenate(variable)
        self.mechanics = np.isin(self.variable, MECHANICS)
        self.contact = self.variable == LAM
        # the stacked views: the subdomains and the interfaces of one
        # dimension are numbered in the order ``mdg.grids`` and
        # ``mdg.mortars`` stack them, and the cell and mortar variables
        # differ, so a view is the ascending dofs of its dimension and
        # variable
        dims = np.concatenate(dims)

        def view(table):
            return {(dim, var): np.flatnonzero((dims == dim) & (self.variable == var))
                    for dim, variables in table.items() for var, _ in variables}

        self._cells, self._mortars = view(CELL_VARS), view(MORTAR_VARS)

    def cells(self, dim, var) -> np.ndarray:
        """Dof indices of one variable over the stacked cells of one
        dimension, ``mdg.grids[dim]``."""
        return self._cells[(dim, var)]

    def mortar(self, dim, var) -> np.ndarray:
        """Dof indices of one interface variable over the stacked mortar
        cells of ``mdg.mortars[dim]``."""
        return self._mortars[(dim, var)]

    def blocks(self):
        """The slice of each (kind, subdomain or interface id, variable),
        kind ``"sd"`` or ``"intf"``. It stays only because the benchmark's
        correctness gate, ``bench/gate.py``, reads it; the package reads
        :meth:`cells`, :meth:`mortar` and :attr:`variable`."""
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
        """Set both snapshots; ``values`` maps (dimension, cell variable) to
        the values over the stacked cells of that dimension."""
        for (dim, var), val in values.items():
            self.current[self.dofs.cells(dim, var)] = val
        self.prev_step[:] = self.current
