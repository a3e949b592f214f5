"""Subcell topology for node-based finite-volume discretisations on 2d grids.

Every face is halved at its midpoint into two subfaces, one per end node.
The interaction region of a node collects the adjacent subcells (one per
incident cell) and subfaces; gradients are piecewise constant per subcell
and continuity is enforced at points on the subfaces
(``SubcellTopology.continuity_points``).
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh.grids import MeshError, SubdomainGrid


class SubcellTopology:
    def __init__(self, grid: SubdomainGrid):
        if grid.dim != 2:
            raise MeshError("subcell topology requires a 2d grid")
        self.grid = grid

        # subcells: unique (cell, node) incidences sorted by (node, cell)
        ptr, nodes = grid.cell_nodes_csr()
        cells = np.repeat(np.arange(grid.num_cells), np.diff(ptr))
        order = np.lexsort((cells, nodes))
        self.sc_cell = cells[order]
        self.sc_node = nodes[order]
        self.num_subcells = self.sc_cell.size
        self._sc_keys = self.sc_node * grid.num_cells + self.sc_cell

        # subfaces sorted by node
        nf = grid.num_faces
        sf_face = np.repeat(np.arange(nf), 2)
        sf_node = grid.face_nodes.T.ravel()
        order = np.lexsort((sf_face, sf_node))
        self.sf_face = sf_face[order]
        self.sf_node = sf_node[order]
        self.num_subfaces = self.sf_face.size
        self.sf_owner = grid.face_cells[0, self.sf_face]
        self.sf_nbr = grid.face_cells[1, self.sf_face]
        self.sf_boundary = self.sf_nbr < 0
        self.sc_of_owner = self.subcell_index(self.sf_owner, self.sf_node)
        self.sc_of_nbr = np.full(self.num_subfaces, -1)
        interior = ~self.sf_boundary
        self.sc_of_nbr[interior] = self.subcell_index(
            self.sf_nbr[interior], self.sf_node[interior]
        )

        # half normals, oriented out of the owner
        self.sf_normal = 0.5 * grid.face_normals[:, self.sf_face]

        # group subcells and subfaces by node
        self.node_ids, sc_counts = np.unique(self.sc_node, return_counts=True)
        self.sc_node_ptr = np.concatenate([[0], np.cumsum(sc_counts)])
        # position of each node in the compressed node list
        node_pos = np.full(grid.num_nodes, -1)
        node_pos[self.node_ids] = np.arange(self.node_ids.size)
        self.node_pos = node_pos
        self.sc_local = np.arange(self.num_subcells) - self.sc_node_ptr[
            node_pos[self.sc_node]
        ]
        sf_counts = np.bincount(node_pos[self.sf_node], minlength=self.node_ids.size)
        self.sf_node_ptr = np.concatenate([[0], np.cumsum(sf_counts)])

    def subcell_index(self, cell, node):
        keys = np.asarray(node) * self.grid.num_cells + np.asarray(cell)
        idx = np.searchsorted(self._sc_keys, keys)
        if np.any(self._sc_keys[np.clip(idx, 0, self.num_subcells - 1)] != keys):
            raise MeshError("unknown (cell, node) incidence")
        return idx

    def continuity_points(self, eta: float) -> np.ndarray:
        """(2, n_subfaces) points a relative offset ``eta`` from each
        subface's face centre towards its node."""
        fc = self.grid.face_centers[:, self.sf_face]
        xn = self.grid.nodes[:, self.sf_node]
        return fc + eta * (xn - fc)

    def _local_rows(self, n_eq_sf):
        """Per-node equation counts and offsets, and the first local row of
        each subface, given its number of equations; a node's subfaces take
        consecutive rows in subface order."""
        npos = self.node_pos[self.sf_node]
        node_eq_counts = np.zeros(self.node_ids.size, dtype=int)
        np.add.at(node_eq_counts, npos, n_eq_sf)
        node_eq_ptr = np.concatenate([[0], np.cumsum(node_eq_counts)])
        first_row = np.cumsum(n_eq_sf) - n_eq_sf - node_eq_ptr[npos]
        return node_eq_counts, node_eq_ptr, first_row

    def equation_layout(self):
        """Row bookkeeping of the per-node local systems.

        Interior subfaces carry a flux and a potential continuity equation,
        boundary subfaces carry one equation whose kind depends on the face's
        boundary condition. Returns per-subface primary row ids (the flux /
        boundary row) plus, for interior subfaces, the potential row, along
        with the per-node equation offsets.
        """
        node_eq_counts, node_eq_ptr, row_primary = self._local_rows(
            np.where(self.sf_boundary, 1, 2))
        # a gradient has two components, so each subcell balances two
        # continuity conditions
        node_unknowns = 2 * np.diff(self.sc_node_ptr)
        if not np.array_equal(node_eq_counts, node_unknowns):
            bad = self.node_ids[node_eq_counts != node_unknowns]
            raise MeshError(f"unbalanced interaction region at nodes {bad[:5]}")
        row_secondary = np.where(self.sf_boundary, -1, row_primary + 1)
        return row_primary, row_secondary, node_eq_ptr

    def overdetermined_layout(self, conditions_interior: int):
        """Row bookkeeping with several conditions per interior subface.

        Used by the vector scheme, whose interior subfaces carry one traction
        condition plus continuity at two points; the resulting rectangular
        local systems are solved by least squares, which removes the spurious
        rotation modes of perfectly repetitive lattices. Boundary subfaces
        keep a single condition. Returns per-subface condition offsets of
        shape (n_subfaces, conditions_interior) (-1 where absent) and the
        per-node condition offsets.
        """
        _, node_eq_ptr, first_row = self._local_rows(
            np.where(self.sf_boundary, 1, conditions_interior))
        rows = first_row[:, None] + np.arange(conditions_interior)
        rows[self.sf_boundary, 1:] = -1
        return rows, node_eq_ptr


def subcell_volumes(top: SubcellTopology) -> np.ndarray:
    """Area of each subcell: the quadrilateral of its cell centre, the
    centres of its two faces at the node, and the node."""
    g = top.grid
    # the subcells each subface touches, ascending subface, owner first
    sc = np.stack([top.sc_of_owner, top.sc_of_nbr], axis=1).ravel()
    face = np.repeat(top.sf_face, 2)
    touches = sc >= 0
    sc, face = sc[touches], face[touches]
    counts = np.bincount(sc, minlength=top.num_subcells)
    bad = np.flatnonzero(counts[sc] != 2)
    if bad.size:
        first = sc[bad[0]]
        raise MeshError(
            f"node {top.sc_node[first]} of cell {top.sc_cell[first]} has "
            f"{counts[first]} incident subfaces, expected 2"
        )
    pairs = np.argsort(sc, kind="stable").reshape(-1, 2)
    quad_sc = sc[pairs[:, 0]]
    f0, f1 = face[pairs[:, 0]], face[pairs[:, 1]]
    xc = g.cell_centers[:, top.sc_cell[quad_sc]]
    xn = g.nodes[:, top.sc_node[quad_sc]]
    x = np.stack([xc[0], g.face_centers[0, f0], xn[0], g.face_centers[0, f1]], axis=1)
    y = np.stack([xc[1], g.face_centers[1, f0], xn[1], g.face_centers[1, f1]], axis=1)
    vol = np.zeros(top.num_subcells)
    vol[quad_sc] = 0.5 * np.abs(
        np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1))
    return vol
