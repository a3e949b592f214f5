"""Grid containers for the subdomains of a mixed-dimensional mesh.

A 2d grid stores general polygonal cells through face/cell connectivity in
CSR form; 1d grids live on (poly)lines embedded in the plane and 0d grids
are single points of unit measure. Face normals are area weighted and point
out of the face's owner cell (``face_cells[0]``); boundary faces always have
the interior cell as owner so their normals point out of the domain.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

# Codes for tags["domain_side"]
SIDE_NONE, SIDE_LEFT, SIDE_RIGHT, SIDE_BOTTOM, SIDE_TOP = 0, 1, 2, 3, 4


class MeshError(ValueError):
    """Raised for topologically or geometrically invalid mesh input."""


class SubdomainGrid:
    """One subdomain of the mixed-dimensional grid.

    Attributes of a 2d grid:
        nodes: (2, n_nodes) coordinates.
        face_nodes: (2, n_faces) node indices of each face segment.
        face_cells: (2, n_faces) owner / neighbour (-1 on boundaries).
        cell_nodes: list of node-index arrays, counterclockwise per cell.
    1d grids use single-node faces (``face_nodes`` of shape (1, n_faces)),
    0d grids carry a single cell on their single node, and no faces.
    """

    def __init__(self, dim: int, sd_id: int = -1):
        self.dim = dim
        self.id = sd_id
        self.num_cells = 0
        self.num_faces = 0
        self.num_nodes = 0
        self.nodes = np.zeros((2, 0))
        self.face_nodes = np.zeros((2, 0), dtype=int)
        self.face_cells = np.zeros((2, 0), dtype=int)
        self.cell_nodes: list[np.ndarray] = []
        # geometry, filled by compute_geometry
        self.cell_centers = np.zeros((2, 0))
        self.cell_volumes = np.zeros(0)
        self.face_centers = np.zeros((2, 0))
        self.face_normals = np.zeros((2, 0))
        self.face_areas = np.zeros(0)
        self.tags: dict[str, np.ndarray] = {}
        # fracture index within the mixed-dimensional grid (1d grids)
        self.frac_num = -1

    # ------------------------------------------------------------------
    def compute_geometry(self) -> None:
        """Geometry, default tags and the CSR form of ``cell_nodes``; call it
        once the topology is final."""
        self._cell_nodes_csr = polygons_csr(self.cell_nodes)
        self._subcell_topology = None
        if self.dim == 2:
            self._geometry_2d()
        elif self.dim == 1:
            self._geometry_1d()
        else:
            self.cell_volumes = np.ones(self.num_cells)
        self._default_tags()

    def _default_tags(self):
        for key, dtype in (("domain_side", np.int8), ("internal", bool)):
            if key not in self.tags:
                self.tags[key] = np.zeros(self.num_faces, dtype=dtype)

    def cell_nodes_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``cell_nodes`` in CSR form: per-cell offsets (n_cells + 1) into
        the concatenated node lists, as of :meth:`compute_geometry`."""
        return self._cell_nodes_csr

    def subcell_topology(self):
        """The :class:`mdthm.fvm.subcell.SubcellTopology` of a 2d grid,
        built by its first caller after :meth:`compute_geometry` and shared
        by every discretisation of the grid."""
        if self._subcell_topology is None:
            from mdthm.fvm.subcell import SubcellTopology

            self._subcell_topology = SubcellTopology(self)
        return self._subcell_topology

    def _geometry_2d(self):
        x = self.nodes
        ptr, nodes = self.cell_nodes_csr()
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
        # cell geometry from the stored endpoint nodes
        ptr, nodes = self.cell_nodes_csr()
        pa, pb = x[:, nodes[ptr[:-1]]], x[:, nodes[ptr[:-1] + 1]]
        self.cell_centers = 0.5 * (pa + pb)
        self.cell_volumes = np.hypot(*(pb - pa))
        if np.any(self.cell_volumes <= 0):
            raise MeshError("degenerate 1d cell of zero length")
        owner = self.face_cells[0]
        t = self.face_centers - self.cell_centers[:, owner]
        norm = np.hypot(t[0], t[1])
        self.face_normals = t / norm

    # ------------------------------------------------------------------
    def cell_faces_csr(self) -> tuple[sps.csr_matrix, sps.csr_matrix]:
        """Signed and unsigned cell-face incidence (cells x faces).

        The signed matrix carries +1 where the face normal points out of the
        cell and -1 where it points in; its transpose is the discrete
        divergence acting on face quantities.
        """
        owner, nbr = self.face_cells
        rows = [owner]
        cols = [np.arange(self.num_faces)]
        vals = [np.ones(self.num_faces)]
        interior = nbr >= 0
        rows.append(nbr[interior])
        cols.append(np.arange(self.num_faces)[interior])
        vals.append(-np.ones(interior.sum()))
        signed = sps.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.num_cells, self.num_faces),
        )
        unsigned = signed.copy()
        unsigned.data = np.abs(unsigned.data)
        return signed, unsigned

    def boundary_faces(self) -> np.ndarray:
        return np.where(self.face_cells[1] < 0)[0]

    def exterior_faces(self) -> np.ndarray:
        """Boundary faces on the domain boundary (not fracture walls)."""
        return np.where((self.face_cells[1] < 0) & ~self.tags["internal"])[0]

    def check_closure(self) -> float:
        """Max relative defect of the per-cell sum of outward area normals."""
        signed, _ = self.cell_faces_csr()
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


def make_0d_grid(point: np.ndarray, sd_id: int = -1) -> SubdomainGrid:
    g = SubdomainGrid(0, sd_id)
    g.num_cells = 1
    g.nodes = np.asarray(point, dtype=float).reshape(2, 1)
    g.num_nodes = 1
    g.cell_nodes = [np.array([0])]
    g.cell_centers = g.nodes.copy()
    g.compute_geometry()
    return g


def stack_grids(dim: int, grids: list[SubdomainGrid]) -> SubdomainGrid:
    """The disjoint union of grids of one dimension, in the given order.

    Cells and faces are numbered grid by grid; ``cell_start`` and
    ``face_start`` map each part's subdomain id to its first cell and face.
    Face-cell connectivity (boundary neighbours stay -1), geometry and face
    tags are stacked, nodes are not: the union carries what face-based
    discretisations read, but its geometry cannot be recomputed.
    """
    g = SubdomainGrid(dim)
    cells = np.cumsum([0] + [sd.num_cells for sd in grids])
    faces = np.cumsum([0] + [sd.num_faces for sd in grids])
    ids = [sd.id for sd in grids]
    g.cell_start = dict(zip(ids, cells[:-1].tolist()))
    g.face_start = dict(zip(ids, faces[:-1].tolist()))
    g.num_cells, g.num_faces = int(cells[-1]), int(faces[-1])

    def cat(name, parts):
        # the union's empty default keeps the shape when there are no grids
        return np.concatenate([getattr(g, name)] + parts, axis=-1)

    g.face_cells = cat("face_cells", [np.where(sd.face_cells >= 0, sd.face_cells + c0, -1)
                                      for sd, c0 in zip(grids, cells)])
    for name in ("cell_centers", "cell_volumes", "face_centers", "face_normals",
                 "face_areas"):
        setattr(g, name, cat(name, [getattr(sd, name) for sd in grids]))
    if grids:
        g.tags = {key: np.concatenate([sd.tags[key] for sd in grids])
                  for key in grids[0].tags}
    g._default_tags()
    return g


def split_cells(stacked: SubdomainGrid, values: np.ndarray) -> dict:
    """Each part's view of a cellwise array (cells on the last axis) of the
    stacked grid, keyed by the part's subdomain id."""
    ends = list(stacked.cell_start.values())[1:]
    return dict(zip(stacked.cell_start, np.split(values, ends, axis=-1)))
