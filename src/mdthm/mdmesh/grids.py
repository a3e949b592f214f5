"""Grids of the subdomains of a mixed-dimensional mesh.

Every grid, a subdomain or the stack of the subdomains of one dimension, is
made whole by one call of :class:`SubdomainGrid` from its topology: node
coordinates, the cells' node lists in CSR form, and the faces' nodes and
cells. The call derives the counts, computes the geometry and sets the face
tags. A 2d grid has general polygonal cells and faces of two nodes; a 1d grid
lies on a (poly)line in the plane, with cells of two nodes and faces of one;
a 0d grid is a single point, one cell of one node and unit measure, and has
no faces. Face normals are area weighted and point out of the face's owner
cell (``face_cells[0]``); boundary faces always have the interior cell as
owner, so their normals point out of the domain.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

# the domain's sides; tags["domain_side"] holds a side's code on its
# exterior faces and 0 on every other face
SIDES = ("left", "right", "bottom", "top")
SIDE_CODE = {side: code for code, side in enumerate(SIDES, start=1)}

_TOL = 1e-9


class MeshError(ValueError):
    """Raised for topologically or geometrically invalid mesh input."""


class SubdomainGrid:
    """One grid of the mixed-dimensional mesh, complete once constructed.

    Topology, as given:
        nodes: (2, n_nodes) coordinates.
        cells: (ptr, ids), the cells' node lists in CSR form: cell c holds
            the nodes ``ids[ptr[c]:ptr[c + 1]]``, counterclockwise in 2d and
            from end to end in 1d.
        face_nodes: (dim, n_faces) node indices of each face.
        face_cells: (2, n_faces) owner / neighbour (-1 on boundaries).
    Geometry, computed: ``cell_centers``, ``cell_volumes``,
    ``face_centers``, ``face_normals`` and ``face_areas``.
    Face tags: ``internal`` marks the fracture walls and the fracture faces
    at intersection points, ``domain_side`` the side code of each exterior
    face. Each is taken from ``tags``, or, for ``domain_side``, found on the
    sides of ``box``; it is 0 on every face otherwise. ``frac_num`` is the
    fracture index of a 1d subdomain.
    """

    def __init__(self, dim: int, nodes: np.ndarray, cells: tuple, face_nodes: np.ndarray,
                 face_cells: np.ndarray, sd_id: int = -1, frac_num: int = -1,
                 tags: dict | None = None, box=None):
        self.dim, self.id, self.frac_num = dim, sd_id, frac_num
        self.nodes, self.cells = nodes, cells
        self.face_nodes, self.face_cells = face_nodes, face_cells
        self.num_nodes = nodes.shape[1]
        self.num_cells = cells[0].size - 1
        self.num_faces = face_cells.shape[1]
        self._subcell_topology = None
        if dim == 2:
            self._geometry_2d()
        elif dim == 1:
            self._geometry_1d()
        else:
            self.cell_centers = nodes[:, cells[1]]
            self.cell_volumes = np.ones(self.num_cells)
            self.face_centers, self.face_normals = np.zeros((2, 0)), np.zeros((2, 0))
            self.face_areas = np.zeros(0)
        tags = tags or {}
        internal = tags.get("internal", np.zeros(self.num_faces, dtype=bool))
        if box is not None:
            side = self._domain_sides(box, internal)
        else:
            side = tags.get("domain_side", np.zeros(self.num_faces, dtype=np.int8))
        self.tags = {"domain_side": side, "internal": internal}

    def subcell_topology(self):
        """The :class:`mdthm.fvm.subcell.SubcellTopology` of a 2d grid,
        built by its first caller and shared by every discretisation of the
        grid."""
        if self._subcell_topology is None:
            from mdthm.fvm.subcell import SubcellTopology

            self._subcell_topology = SubcellTopology(self)
        return self._subcell_topology

    def _geometry_2d(self):
        x = self.nodes
        ptr, nodes = self.cells
        sizes = np.diff(ptr)
        area = np.zeros(self.num_cells)
        moment = np.zeros((2, self.num_cells))
        # shoelace sums over the cells of each polygon size at once
        for size in np.unique(sizes):
            cells = np.flatnonzero(sizes == size)
            poly = nodes[ptr[cells, None] + np.arange(size)]
            px, py = x[0, poly], x[1, poly]
            px_next, py_next = np.roll(px, -1, axis=1), np.roll(py, -1, axis=1)
            cross = px * py_next - px_next * py
            area[cells] = 0.5 * cross.sum(axis=1)
            moment[0, cells] = ((px + px_next) * cross).sum(axis=1)
            moment[1, cells] = ((py + py_next) * cross).sum(axis=1)
        bad = np.flatnonzero(area <= 0)
        if bad.size:
            raise MeshError(f"cell {bad[0]} has nonpositive area {area[bad[0]]}")
        self.cell_volumes = area
        self.cell_centers = moment / (6.0 * area)

        a, b = self.face_nodes
        self.face_centers = 0.5 * (x[:, a] + x[:, b])
        t = x[:, b] - x[:, a]
        self.face_areas = np.hypot(t[0], t[1])
        if np.any(self.face_areas <= 0):
            raise MeshError("degenerate face of zero length")
        normals = np.vstack([t[1], -t[0]])
        # orient out of the owner cell
        owner = self.face_cells[0]
        to_face = self.face_centers - self.cell_centers[:, owner]
        flip = (normals * to_face).sum(axis=0) < 0
        normals[:, flip] *= -1.0
        self.face_normals = normals

    def _geometry_1d(self):
        x = self.nodes
        fn = self.face_nodes[0]
        self.face_centers = x[:, fn]
        self.face_areas = np.ones(self.num_faces)
        # cell geometry from the cells' end nodes
        ptr, nodes = self.cells
        pa, pb = x[:, nodes[ptr[:-1]]], x[:, nodes[ptr[:-1] + 1]]
        self.cell_centers = 0.5 * (pa + pb)
        self.cell_volumes = np.hypot(*(pb - pa))
        if np.any(self.cell_volumes <= 0):
            raise MeshError("degenerate 1d cell of zero length")
        owner = self.face_cells[0]
        t = self.face_centers - self.cell_centers[:, owner]
        norm = np.hypot(t[0], t[1])
        self.face_normals = t / norm

    def _domain_sides(self, box, internal) -> np.ndarray:
        """The side code of each exterior face whose centre lies on a side
        of the box ((x0, y0), (x1, y1)), 0 elsewhere."""
        (x0, y0), (x1, y1) = box
        tol = _TOL * max(x1 - x0, y1 - y0)
        exterior = (self.face_cells[1] < 0) & ~internal
        side = np.zeros(self.num_faces, dtype=np.int8)
        for name, axis, edge in (("left", 0, x0), ("right", 0, x1),
                                 ("bottom", 1, y0), ("top", 1, y1)):
            side[exterior & (np.abs(self.face_centers[axis] - edge) < tol)] = SIDE_CODE[name]
        return side

    # ------------------------------------------------------------------
    def cell_faces_csr(self) -> sps.csr_matrix:
        """Signed cell-face incidence (cells x faces): +1 where the face
        normal points out of the cell and -1 where it points in; its
        transpose is the discrete divergence acting on face quantities."""
        owner, nbr = self.face_cells
        faces = np.arange(self.num_faces)
        interior = nbr >= 0
        return sps.csr_matrix(
            (np.concatenate([np.ones(self.num_faces), -np.ones(interior.sum())]),
             (np.concatenate([owner, nbr[interior]]), np.concatenate([faces, faces[interior]]))),
            shape=(self.num_cells, self.num_faces))

    def boundary_faces(self) -> np.ndarray:
        return np.where(self.face_cells[1] < 0)[0]

    def exterior_faces(self) -> np.ndarray:
        """Boundary faces on the domain boundary (not fracture walls)."""
        return np.where((self.face_cells[1] < 0) & ~self.tags["internal"])[0]

    def check_closure(self) -> float:
        """Max relative defect of the per-cell sum of outward area normals."""
        signed = self.cell_faces_csr()
        if self.num_faces == 0:
            return 0.0
        defect = np.abs(signed @ self.face_normals.T)
        scale = np.maximum((np.abs(signed) @ self.face_areas)[:, None], 1e-300)
        return float((defect / scale).max())

    def __repr__(self):
        return (
            f"SubdomainGrid(dim={self.dim}, cells={self.num_cells}, "
            f"faces={self.num_faces}, nodes={self.num_nodes})"
        )


def enumerate_faces(ptr, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Faces of a polygon mesh as sorted node pairs, numbered in order of
    first appearance along the cells' boundaries.

    The polygons are given in CSR form (see :func:`polygons_csr`). Returns
    the node pairs and per face its owner and neighbour cells, the neighbour
    -1 on the boundary, both of shape (n_faces, 2).
    """
    sizes = np.diff(ptr)
    # edge k of a cell runs from its node k to node k + 1, the last back to the first
    succ = np.arange(1, nodes.size + 1)
    succ[ptr[1:][sizes > 0] - 1] = ptr[:-1][sizes > 0]
    pairs = np.sort(np.stack([nodes, nodes[succ]], axis=1), axis=1)
    cells = np.repeat(np.arange(sizes.size), sizes)
    key = pairs[:, 0] * (int(nodes.max(initial=0)) + 1) + pairs[:, 1]
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    counts = np.diff(starts, append=order.size)
    if np.any(counts > 2):
        third = np.arange(order.size) - np.repeat(starts, counts) >= 2
        a, b = pairs[order[third].min()]
        raise MeshError(f"face {(int(a), int(b))} shared by more than two cells")
    # the first and last edge of each pair, in edge order; faces follow the first
    first, last = order[starts], order[starts + counts - 1]
    by_appearance = np.argsort(first)
    first, last = first[by_appearance], last[by_appearance]
    face_cells = np.stack([cells[first], np.where(last > first, cells[last], -1)], axis=1)
    return pairs[first], face_cells


def polygons_csr(polygons) -> tuple[np.ndarray, np.ndarray]:
    """A list of node-index polygons in CSR form: per-polygon offsets into
    the concatenated node lists."""
    sizes = np.fromiter(map(len, polygons), dtype=int, count=len(polygons))
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    return ptr, np.concatenate([np.zeros(0, dtype=int), *polygons])


def stack_grids(dim: int, grids: list[SubdomainGrid]) -> SubdomainGrid:
    """The disjoint union of grids of one dimension, in the given order.

    Nodes, cells and faces are numbered grid by grid, the parts' topology
    offset accordingly (boundary neighbours stay -1), and the union computes
    its own geometry, which per cell and per face is the parts' geometry.
    ``cell_start`` and ``face_start`` map each part's subdomain id to its
    first cell and face.
    """
    # the first node, cell, face and cell-node entry of each part, then the totals
    nodes, cells, faces, entries = np.cumsum(
        [[0, 0, 0, 0]] + [[sd.num_nodes, sd.num_cells, sd.num_faces, sd.cells[1].size]
                          for sd in grids], axis=0).T

    def cat(empty, parts):
        # the empty leading array keeps the shape when there are no grids
        return np.concatenate([empty, *parts], axis=-1)

    union = SubdomainGrid(
        dim,
        cat(np.zeros((2, 0)), (sd.nodes for sd in grids)),
        (cat([0], (sd.cells[0][1:] + k0 for sd, k0 in zip(grids, entries))),
         cat(np.zeros(0, dtype=int), (sd.cells[1] + n0 for sd, n0 in zip(grids, nodes)))),
        cat(np.zeros((dim, 0), dtype=int), (sd.face_nodes + n0 for sd, n0 in zip(grids, nodes))),
        cat(np.zeros((2, 0), dtype=int), (np.where(sd.face_cells >= 0, sd.face_cells + c0, -1)
                                          for sd, c0 in zip(grids, cells))),
        tags={key: np.concatenate([sd.tags[key] for sd in grids])
              for key in grids[0].tags} if grids else None)
    ids = [sd.id for sd in grids]
    union.cell_start = dict(zip(ids, cells[:-1].tolist()))
    union.face_start = dict(zip(ids, faces[:-1].tolist()))
    return union


def split_cells(stacked: SubdomainGrid, values: np.ndarray) -> dict:
    """Each part's view of a cellwise array (cells on the last axis) of the
    stacked grid, keyed by the part's subdomain id."""
    ends = list(stacked.cell_start.values())[1:]
    return dict(zip(stacked.cell_start, np.split(values, ends, axis=-1)))
