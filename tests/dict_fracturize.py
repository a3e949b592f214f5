"""The per-entry face numbering and fracture split, as an independent
reference.

The package numbers faces and splits nodes along fractures with array
operations (``mdthm.mdmesh.grids.enumerate_faces`` and
``mdthm.mdmesh.build.fracturize``); the tests check that it builds, bit for
bit, the grids and the mortar groups that this dict-based code builds.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError, SubdomainGrid, polygons_csr
from mdthm.mdmesh.mdgrid import MixedDimGrid
from mdthm.mdmesh.mortar import MortarGroup


def enumerate_faces(cell_nodes) -> tuple[dict, list, list]:
    """Faces of a polygon mesh as sorted node pairs, numbered in order of
    first appearance along the cells' boundaries.

    Returns the face number of each node pair, the node pairs, and per face
    its [owner, neighbour] cells, the neighbour -1 on the boundary.
    """
    face_of, face_nodes, face_cells = {}, [], []
    for c, poly in enumerate(cell_nodes):
        for k in range(len(poly)):
            a, b = int(poly[k]), int(poly[(k + 1) % len(poly)])
            key = (a, b) if a < b else (b, a)
            f = face_of.get(key)
            if f is None:
                face_of[key] = len(face_nodes)
                face_nodes.append(key)
                face_cells.append([c, -1])
            else:
                if face_cells[f][1] >= 0:
                    raise MeshError(f"face {key} shared by more than two cells")
                face_cells[f][1] = c
    return face_of, face_nodes, face_cells


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def fracturize(nodes, cell_nodes, frac_paths, box=None) -> MixedDimGrid:
    """Split a conforming 2d grid along fracture paths into a mixed-dim grid."""
    nodes = np.array(nodes, dtype=float)
    cell_nodes = [list(map(int, p)) for p in cell_nodes]

    # preliminary face connectivity keyed by sorted node pairs
    face_key_of, faces, face_cells = enumerate_faces(cell_nodes)

    # resolve fracture paths to interior faces
    frac_faces = []  # per fracture, list of face ids along the path
    fracture_of_face = {}
    for fi, path in enumerate(frac_paths):
        if len(path) < 2:
            raise MeshError(f"fracture {fi} has fewer than two nodes")
        if len(set(path)) != len(path):
            raise MeshError(f"fracture {fi} is self-intersecting")
        flist = []
        for k in range(len(path) - 1):
            a, b = path[k], path[k + 1]
            key = (a, b) if a < b else (b, a)
            f = face_key_of.get(key)
            if f is None:
                raise MeshError(
                    f"fracture {fi} segment between nodes {a} and {b} does not "
                    "coincide with a matrix face"
                )
            if face_cells[f][1] < 0:
                raise MeshError(
                    f"fracture {fi} face between nodes {a} and {b} lies on the boundary"
                )
            if f in fracture_of_face:
                raise MeshError(
                    f"fractures {fracture_of_face[f]} and {fi} overlap on face {f}"
                )
            fracture_of_face[f] = fi
            flist.append(f)
        frac_faces.append(flist)

    # intersection nodes: shared by at least two fracture paths
    node_fracs: dict[int, set[int]] = {}
    for fi, path in enumerate(frac_paths):
        for n in path:
            node_fracs.setdefault(n, set()).add(fi)
    intersection_nodes = sorted(n for n, s in node_fracs.items() if len(s) > 1)

    # nodes incident to fracture faces and their cell fans
    node_cells: dict[int, list[int]] = {}
    for c, poly in enumerate(cell_nodes):
        for n in poly:
            node_cells.setdefault(n, []).append(c)
    faces_at_node: dict[int, list[int]] = {}
    for f, (a, b) in enumerate(faces):
        faces_at_node.setdefault(a, []).append(f)
        faces_at_node.setdefault(b, []).append(f)

    split_nodes = sorted(
        {n for f in fracture_of_face for n in faces[f]}
    )
    # component of each (node, cell) incidence; component 0 keeps the node id
    copy_of: dict[tuple[int, int], int] = {}
    n_nodes = nodes.shape[1]
    new_coords = [nodes]
    for n in split_nodes:
        cells_here = node_cells[n]
        uf = _UnionFind(cells_here)
        for f in faces_at_node[n]:
            if f in fracture_of_face:
                continue
            co, cn = face_cells[f]
            if cn >= 0:
                uf.union(co, cn)
        roots = {}
        for c in cells_here:
            roots.setdefault(uf.find(c), []).append(c)
        ordered = sorted(roots, key=lambda r: min(roots[r]))
        for comp_idx, r in enumerate(ordered):
            if comp_idx == 0:
                nid = n
            else:
                nid = n_nodes
                n_nodes += 1
                new_coords.append(nodes[:, [n]])
            for c in roots[r]:
                copy_of[(n, c)] = nid
    all_nodes = np.hstack(new_coords)

    def node_for(n, c):
        return copy_of.get((n, c), n)

    # final cell polygons with node copies
    final_cells = [
        np.array([node_for(n, c) for n in poly], dtype=int)
        for c, poly in enumerate(cell_nodes)
    ]

    # final face list: duplicate fracture faces, remap the rest
    final_face_nodes = []
    final_face_cells = []
    face_pairs = {}  # original face id -> (owner-side face, neighbour-side face)
    for f, (a, b) in enumerate(faces):
        co, cn = face_cells[f]
        if f in fracture_of_face:
            fo = len(final_face_nodes)
            final_face_nodes.append((node_for(a, co), node_for(b, co)))
            final_face_cells.append((co, -1))
            fd = len(final_face_nodes)
            final_face_nodes.append((node_for(a, cn), node_for(b, cn)))
            final_face_cells.append((cn, -1))
            face_pairs[f] = (fo, fd)
        else:
            fid = len(final_face_nodes)
            final_face_nodes.append((node_for(a, co), node_for(b, co)))
            final_face_cells.append((co, cn))
            face_pairs[f] = (fid,)

    internal = np.zeros(len(final_face_nodes), dtype=bool)
    for f in fracture_of_face:
        fo, fd = face_pairs[f]
        internal[[fo, fd]] = True
    g2 = SubdomainGrid(2, all_nodes, polygons_csr(final_cells),
                       np.array(final_face_nodes, dtype=int).T.reshape(2, -1),
                       np.array(final_face_cells, dtype=int).T.reshape(2, -1), sd_id=0,
                       tags={"internal": internal}, box=box)

    # ------------------------------------------------------------------
    # 1d fracture grids, split at intersection points
    # ------------------------------------------------------------------
    subdomains = [g2]
    walls = _Mortars()
    intersection_set = set(intersection_nodes)
    frac_grids = []
    frac_tip_interfaces = []  # (frac_idx, 1d face, original node id)

    for fi, path in enumerate(frac_paths):
        m = len(path) - 1  # cells
        f_nodes, f_cells = [], []
        side_tag, internal_tag = [], []
        tips = []  # (face id, original node id) at intersection points

        def add_face(local_node, owner, nbr, original_node, is_tip_interface):
            f_nodes.append((local_node,))
            f_cells.append((owner, nbr))
            internal_tag.append(is_tip_interface)
            side_tag.append(0)
            if is_tip_interface:
                tips.append((len(f_nodes) - 1, original_node))

        for k, n in enumerate(path):
            at_x = n in intersection_set
            if k == 0:
                add_face(0, 0, -1, n, at_x)
            elif k == m:
                add_face(m, m - 1, -1, n, at_x)
            elif at_x:
                add_face(k, k - 1, -1, n, True)
                add_face(k, k, -1, n, True)
            else:
                add_face(k, k - 1, k, n, False)
        g1 = SubdomainGrid(1, nodes[:, path],
                           polygons_csr([np.array([k, k + 1]) for k in range(m)]),
                           np.array(f_nodes, dtype=int).T.reshape(1, -1),
                           np.array(f_cells, dtype=int).T.reshape(2, -1),
                           sd_id=len(subdomains), frac_num=fi,
                           tags={"internal": np.array(internal_tag, dtype=bool)}, box=box)

        subdomains.append(g1)
        frac_grids.append(g1)
        frac_tip_interfaces.extend((fi, f, n) for f, n in tips)

        # matrix-fracture mortars, one per side
        edge_faces = frac_faces[fi]
        tangents = nodes[:, path[1:]] - nodes[:, path[:-1]]
        n_ref = np.vstack([-tangents[1], tangents[0]])
        n_ref /= np.hypot(n_ref[0], n_ref[1])
        side_faces = {-1.0: [], 1.0: []}  # the j and the k wall
        for k, f in enumerate(edge_faces):
            fo, fd = face_pairs[f]
            n_o = g2.face_normals[:, fo] / g2.face_areas[fo]
            if n_o @ n_ref[:, k] > 0:
                side_faces[-1.0].append(fo)
                side_faces[1.0].append(fd)
            else:
                side_faces[-1.0].append(fd)
                side_faces[1.0].append(fo)
        cell_start = sum(g.num_cells for g in frac_grids[:-1])
        for side, wall in side_faces.items():
            walls.offsets.append(walls.offsets[-1] + len(wall))
            for k, face in enumerate(wall):
                walls.add(face, g2.face_cells[0, face], cell_start + k,
                          g2.face_normals[:, face] / g2.face_areas[face],
                          g1.cell_volumes[k], side)

    # ------------------------------------------------------------------
    # 0d intersection points and their interfaces
    # ------------------------------------------------------------------
    for n in intersection_nodes:
        subdomains.append(SubdomainGrid(0, nodes[:, [n]], polygons_csr([np.array([0])]),
                                        np.zeros((0, 0), dtype=int), np.zeros((2, 0), dtype=int),
                                        sd_id=len(subdomains)))
    tips = _Mortars()
    for fi, f1d, n in sorted(frac_tip_interfaces):
        g1 = frac_grids[fi]
        earlier = frac_grids[:fi]
        tips.offsets.append(tips.offsets[-1] + 1)
        tips.add(sum(g.num_faces for g in earlier) + f1d,
                 sum(g.num_cells for g in earlier) + g1.face_cells[0, f1d],
                 intersection_nodes.index(n), g1.face_normals[:, f1d] / g1.face_areas[f1d],
                 1.0, -1.0)
    n_walls = len(walls.offsets) - 1
    return MixedDimGrid(subdomains, {
        2: walls.group(2, 0, g2.num_faces),
        1: tips.group(1, n_walls, sum(g.num_faces for g in frac_grids))})


class _Mortars:
    """The cells of one mortar group, added one by one in stacked numbering."""

    def __init__(self):
        self.faces, self.hi, self.lo, self.normals, self.areas, self.sides = ([] for _ in range(6))
        self.offsets = [0]

    def add(self, face, hi, lo, normal, area, side):
        for name, value in zip(("faces", "hi", "lo", "normals", "areas", "sides"),
                               (face, hi, lo, normal, area, side)):
            getattr(self, name).append(value)

    def group(self, dim, first_id, num_faces):
        n = len(self.faces)
        lift = sps.csr_matrix((np.ones(n), (np.arange(n), np.array(self.faces, dtype=int))),
                              shape=(n, num_faces))
        return MortarGroup(dim=dim, hi=np.array(self.hi, dtype=int),
                           lo=np.array(self.lo, dtype=int), lift=lift,
                           areas=np.array(self.areas, dtype=float),
                           normals=np.array(self.normals, dtype=float).reshape(n, 2).T,
                           sides=np.array(self.sides, dtype=float),
                           ids=list(range(first_id, first_id + len(self.offsets) - 1)),
                           offsets=np.array(self.offsets))
