"""The per-entry face numbering and fracture split, as an independent
reference.

The package numbers faces and splits nodes along fractures with array
operations (``mdthm.mdmesh.grids.enumerate_faces`` and
``mdthm.mdmesh.build.fracturize``); the tests check that it builds, bit for
bit, the grids that this dict-based code builds.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh.build import _tag_domain_sides
from mdthm.mdmesh.grids import MeshError, SubdomainGrid, make_0d_grid
from mdthm.mdmesh.mdgrid import MixedDimGrid
from mdthm.mdmesh.mortar import SIDE_J, SIDE_K, MortarInterface


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
    n_cells = len(cell_nodes)

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

    g2 = SubdomainGrid(2, sd_id=0)
    g2.nodes = all_nodes
    g2.num_nodes = all_nodes.shape[1]
    g2.cell_nodes = final_cells
    g2.num_cells = n_cells
    g2.face_nodes = np.array(final_face_nodes, dtype=int).T.reshape(2, -1)
    g2.face_cells = np.array(final_face_cells, dtype=int).T.reshape(2, -1)
    g2.num_faces = g2.face_nodes.shape[1]
    g2.compute_geometry()
    internal = np.zeros(g2.num_faces, dtype=bool)
    for f in fracture_of_face:
        fo, fd = face_pairs[f]
        internal[[fo, fd]] = True
    g2.tags["internal"] = internal
    if box is not None:
        _tag_domain_sides(g2, box)

    # ------------------------------------------------------------------
    # 1d fracture grids, split at intersection points
    # ------------------------------------------------------------------
    subdomains = [g2]
    interfaces: list[MortarInterface] = []
    intersection_set = set(intersection_nodes)
    frac_grids = []
    frac_tip_interfaces = []  # (frac_idx, 1d face, original node id)

    for fi, path in enumerate(frac_paths):
        g1 = SubdomainGrid(1, sd_id=len(subdomains))
        g1.frac_num = fi
        m = len(path) - 1  # cells
        coords = nodes[:, path]
        g1.nodes = coords
        g1.num_nodes = coords.shape[1]
        g1.cell_nodes = [np.array([k, k + 1]) for k in range(m)]
        g1.num_cells = m
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
        g1.face_nodes = np.array(f_nodes, dtype=int).T.reshape(1, -1)
        g1.face_cells = np.array(f_cells, dtype=int).T.reshape(2, -1)
        g1.num_faces = g1.face_nodes.shape[1]
        g1.compute_geometry()
        g1.tags["internal"] = np.array(internal_tag, dtype=bool)
        if box is not None:
            _tag_domain_sides(g1, box)

        subdomains.append(g1)
        frac_grids.append(g1)
        frac_tip_interfaces.extend((fi, f, n) for f, n in tips)

        # matrix-fracture mortars, one per side
        edge_faces = frac_faces[fi]
        tangents = nodes[:, path[1:]] - nodes[:, path[:-1]]
        n_ref = np.vstack([-tangents[1], tangents[0]])
        n_ref /= np.hypot(n_ref[0], n_ref[1])
        side_faces = {SIDE_J: [], SIDE_K: []}
        for k, f in enumerate(edge_faces):
            fo, fd = face_pairs[f]
            n_o = g2.face_normals[:, fo] / g2.face_areas[fo]
            if n_o @ n_ref[:, k] > 0:
                side_faces[SIDE_J].append(fo)
                side_faces[SIDE_K].append(fd)
            else:
                side_faces[SIDE_J].append(fd)
                side_faces[SIDE_K].append(fo)
        for side in (SIDE_J, SIDE_K):
            interfaces.append(
                MortarInterface(
                    intf_id=len(interfaces),
                    high_id=0,
                    low_id=g1.id,
                    high_faces=side_faces[side],
                    low_cells=np.arange(m),
                    side=side,
                    cell_volumes=g1.cell_volumes,
                    cell_centers=g1.cell_centers,
                )
            )

    # ------------------------------------------------------------------
    # 0d intersection points and their interfaces
    # ------------------------------------------------------------------
    point_grid_of = {}
    for n in intersection_nodes:
        g0 = make_0d_grid(nodes[:, n], sd_id=len(subdomains))
        subdomains.append(g0)
        point_grid_of[n] = g0
    for fi, f1d, n in sorted(frac_tip_interfaces):
        g1 = frac_grids[fi]
        g0 = point_grid_of[n]
        interfaces.append(
            MortarInterface(
                intf_id=len(interfaces),
                high_id=g1.id,
                low_id=g0.id,
                high_faces=[f1d],
                low_cells=[0],
                side=SIDE_J,
                cell_volumes=np.ones(1),
                cell_centers=g0.cell_centers,
            )
        )

    return MixedDimGrid(subdomains, interfaces)
