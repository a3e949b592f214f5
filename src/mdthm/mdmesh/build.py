"""Construction of mixed-dimensional grids.

Two structured generators (Cartesian quads and a right-triangle split of the
same lattice) supply deterministic, nestable test grids; ``fracturize`` turns
any conforming 2d grid plus fracture node paths into the full mixed-dim
hierarchy by duplicating matrix faces and nodes along the fractures, building
1d fracture grids (split at intersections), 0d intersection points and the
mortar interfaces between all of them.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh.grids import (
    SIDE_BOTTOM,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_TOP,
    MeshError,
    SubdomainGrid,
    enumerate_faces,
    make_0d_grid,
)
from mdthm.mdmesh.mdgrid import MixedDimGrid
from mdthm.mdmesh.mortar import SIDE_J, SIDE_K, MortarInterface

_TOL = 1e-9


# ----------------------------------------------------------------------
# structured lattices
# ----------------------------------------------------------------------
def _lattice(nx, ny, box):
    (x0, y0), (x1, y1) = box
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.vstack([gx.ravel(), gy.ravel()])
    return nodes, xs, ys


def _nid(i, j, nx):
    return j * (nx + 1) + i


def _segment_to_path(seg, nx, ny, box, allow_diagonal):
    """Node-id path of an axis-aligned (or lattice-diagonal) segment."""
    (x0, y0), (x1, y1) = box
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    (ax, ay), (bx, by) = seg

    def to_index(px, py):
        fi, fj = (px - x0) / hx, (py - y0) / hy
        i, j = round(fi), round(fj)
        if abs(fi - i) > 1e-6 or abs(fj - j) > 1e-6:
            raise MeshError(f"fracture endpoint ({px}, {py}) does not lie on a grid node")
        if not (0 <= i <= nx and 0 <= j <= ny):
            raise MeshError(f"fracture endpoint ({px}, {py}) lies outside the domain")
        return i, j

    ia, ja = to_index(ax, ay)
    ib, jb = to_index(bx, by)
    di, dj = ib - ia, jb - ja
    if di == 0 and dj == 0:
        raise MeshError("degenerate fracture segment of zero length")
    if dj == 0:
        steps, si, sj = abs(di), int(np.sign(di)), 0
    elif di == 0:
        steps, si, sj = abs(dj), 0, int(np.sign(dj))
    elif di == dj and allow_diagonal:
        steps, si, sj = abs(di), int(np.sign(di)), int(np.sign(di))
    else:
        kind = "grid lines or lattice diagonals" if allow_diagonal else "grid lines"
        raise MeshError(f"fracture segment {seg} does not follow {kind}")
    path = [_nid(ia + k * si, ja + k * sj, nx) for k in range(steps + 1)]
    ii = np.array([ia + k * si for k in range(steps + 1)])
    jj = np.array([ja + k * sj for k in range(steps + 1)])
    on_left = np.all(ii == 0)
    on_right = np.all(ii == nx)
    on_bottom = np.all(jj == 0)
    on_top = np.all(jj == ny)
    if on_left or on_right or on_bottom or on_top:
        raise MeshError(f"fracture segment {seg} runs along the domain boundary")
    return path


def build_cartesian_fractured(nx, ny, fractures=(), box=((0.0, 0.0), (1.0, 1.0)),
                              ) -> MixedDimGrid:
    """Cartesian quad grid with axis-aligned fractures on grid lines."""
    nodes, _, _ = _lattice(nx, ny, box)
    cells = []
    for j in range(ny):
        for i in range(nx):
            cells.append(
                [_nid(i, j, nx), _nid(i + 1, j, nx), _nid(i + 1, j + 1, nx), _nid(i, j + 1, nx)]
            )
    paths = [_segment_to_path(s, nx, ny, box, allow_diagonal=False) for s in fractures]
    mdg = fracturize(nodes, cells, paths, box)
    mdg.generator = {"kind": "cartesian", "nx": nx, "ny": ny, "box": box,
                     "fractures": [tuple(map(tuple, s)) for s in fractures]}
    return mdg


def build_triangular_fractured(nx, ny, fractures=(), box=((0.0, 0.0), (1.0, 1.0)),
                               perturb=0.0, seed=0) -> MixedDimGrid:
    """Structured right-triangle grid; fractures may follow the SW-NE diagonals.

    With ``perturb`` > 0, interior nodes away from fractures are shifted by a
    uniform random fraction of the local spacing (seeded, reproducible).
    """
    nodes, xs, ys = _lattice(nx, ny, box)
    cells = []
    for j in range(ny):
        for i in range(nx):
            n00, n10 = _nid(i, j, nx), _nid(i + 1, j, nx)
            n11, n01 = _nid(i + 1, j + 1, nx), _nid(i, j + 1, nx)
            cells.append([n00, n10, n11])
            cells.append([n00, n11, n01])
    paths = [_segment_to_path(s, nx, ny, box, allow_diagonal=True) for s in fractures]
    if perturb > 0.0:
        rng = np.random.default_rng(seed)
        hx, hy = xs[1] - xs[0], ys[1] - ys[0]
        frozen = set()
        for p in paths:
            frozen.update(p)
        interior = np.ones(nodes.shape[1], dtype=bool)
        for j in (0, ny):
            interior[[_nid(i, j, nx) for i in range(nx + 1)]] = False
        for i in (0, nx):
            interior[[_nid(i, j, nx) for j in range(ny + 1)]] = False
        interior[list(frozen)] = False
        shift = rng.uniform(-perturb, perturb, size=(2, nodes.shape[1]))
        nodes[0, interior] += shift[0, interior] * hx
        nodes[1, interior] += shift[1, interior] * hy
    mdg = fracturize(nodes, cells, paths, box)
    mdg.generator = {"kind": "triangular", "nx": nx, "ny": ny, "box": box,
                     "fractures": [tuple(map(tuple, s)) for s in fractures],
                     "perturb": perturb, "seed": seed}
    return mdg


def refine(mdg: MixedDimGrid, factor: int) -> MixedDimGrid:
    """Nested refinement of a generator-built grid by an integer factor."""
    gen = getattr(mdg, "generator", None)
    if gen is None:
        raise MeshError("refinement requires a generator-built grid")
    if factor < 1 or int(factor) != factor:
        raise MeshError("refinement factor must be a positive integer")
    kw = dict(nx=gen["nx"] * factor, ny=gen["ny"] * factor, box=gen["box"],
              fractures=gen["fractures"])
    if gen["kind"] == "cartesian":
        return build_cartesian_fractured(**kw)
    return build_triangular_fractured(**kw)


def containment_map(coarse: MixedDimGrid, fine: MixedDimGrid) -> list[np.ndarray]:
    """Per-subdomain map from fine cells to the containing coarse cell.

    Both grids must come from the same generator family; subdomains are
    matched positionally (same fracture input order).
    """
    gen_c, gen_f = coarse.generator, fine.generator
    if gen_c["kind"] != gen_f["kind"] or gen_c["fractures"] != gen_f["fractures"]:
        raise MeshError("grids are not members of one nested family")
    if gen_f["nx"] % gen_c["nx"] or gen_f["ny"] % gen_c["ny"]:
        raise MeshError("fine grid is not a nested refinement of the coarse grid")
    (x0, y0), (x1, y1) = gen_c["box"]
    nx, ny = gen_c["nx"], gen_c["ny"]
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    maps = []
    for sd_c, sd_f in zip(coarse.subdomains, fine.subdomains):
        if sd_c.dim == 2:
            cx, cy = sd_f.cell_centers
            i = np.clip(((cx - x0) / hx).astype(int), 0, nx - 1)
            j = np.clip(((cy - y0) / hy).astype(int), 0, ny - 1)
            if gen_c["kind"] == "cartesian":
                maps.append(j * nx + i)
            else:
                # below the SW-NE diagonal of the containing square: first tri
                below = (cy - (y0 + j * hy)) / hy < (cx - (x0 + i * hx)) / hx
                maps.append(2 * (j * nx + i) + np.where(below, 0, 1))
        elif sd_c.dim == 1:
            # bin fine cell centres into coarse segments by arclength
            starts = sd_c.cell_centers - 0.5 * _cell_tangents(sd_c)
            t0 = starts[:, 0]
            tangent = _cell_tangents(sd_c)[:, 0] / sd_c.cell_volumes[0]
            s_f = (sd_f.cell_centers - t0[:, None]).T @ tangent
            s_c = (sd_c.cell_centers - t0[:, None]).T @ tangent
            lengths = sd_c.cell_volumes
            edges = np.concatenate([s_c - 0.5 * lengths, [s_c[-1] + 0.5 * lengths[-1]]])
            idx = np.clip(np.searchsorted(edges, s_f) - 1, 0, sd_c.num_cells - 1)
            maps.append(idx)
        else:
            maps.append(np.zeros(1, dtype=int))
    return maps


def _cell_tangents(sd: SubdomainGrid) -> np.ndarray:
    t = np.zeros((2, sd.num_cells))
    for c, poly in enumerate(sd.cell_nodes):
        t[:, c] = sd.nodes[:, poly[1]] - sd.nodes[:, poly[0]]
    return t


# ----------------------------------------------------------------------
# face/node splitting along fractures
# ----------------------------------------------------------------------
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


def _tag_domain_sides(g: SubdomainGrid, box):
    (x0, y0), (x1, y1) = box
    tol = _TOL * max(x1 - x0, y1 - y0)
    side = np.zeros(g.num_faces, dtype=np.int8)
    bnd = (g.face_cells[1] < 0) & ~g.tags.get("internal", np.zeros(g.num_faces, bool))
    fc = g.face_centers
    side[bnd & (np.abs(fc[0] - x0) < tol)] = SIDE_LEFT
    side[bnd & (np.abs(fc[0] - x1) < tol)] = SIDE_RIGHT
    side[bnd & (np.abs(fc[1] - y0) < tol)] = SIDE_BOTTOM
    side[bnd & (np.abs(fc[1] - y1) < tol)] = SIDE_TOP
    g.tags["domain_side"] = side
