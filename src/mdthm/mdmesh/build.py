"""Construction of mixed-dimensional grids.

Two structured generators (Cartesian quads and a right-triangle split of the
same lattice) supply deterministic, nestable grids: the generator called with
2^k times the cells along each axis builds refinement level k, and
``containment_map`` relates two levels. ``fracturize`` turns any conforming
2d grid plus fracture node paths into the full mixed-dim hierarchy by
duplicating matrix faces and nodes along the fractures, building 1d fracture
grids (split at intersections), 0d intersection points and the mortar
interfaces between all of them; without fracture paths it builds the plain
2d grid.
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
    polygons_csr,
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


def containment_map(coarse: MixedDimGrid, fine: MixedDimGrid) -> list[np.ndarray]:
    """Per-subdomain map from fine cells to the containing coarse cell.

    Both grids must come from the same generator family; subdomains are
    matched positionally (same fracture input order). A fracture's cells
    follow its path and each coarse cell splits into the same number of
    fine cells, so fine cell k lies in coarse cell k // (n_fine / n_coarse).
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
            # a path refines cell by cell, in path order
            maps.append(np.arange(sd_f.num_cells) // (sd_f.num_cells // sd_c.num_cells))
        else:
            maps.append(np.zeros(1, dtype=int))
    return maps


# ----------------------------------------------------------------------
# face/node splitting along fractures
# ----------------------------------------------------------------------
def _path_faces(frac_paths, faces, face_cells):
    """Per fracture, the interior faces along its node path.

    Raises naming the first segment, in path order, that is not a face,
    lies on the boundary or runs along an earlier fracture.
    """
    width = int(faces.max(initial=0)) + 1
    keys = faces[:, 0] * width + faces[:, 1]
    order = np.argsort(keys)
    fracture_of_face = np.full(len(faces), -1)
    frac_faces = []
    for fi, path in enumerate(frac_paths):
        if len(path) < 2:
            raise MeshError(f"fracture {fi} has fewer than two nodes")
        if len(set(path)) != len(path):
            raise MeshError(f"fracture {fi} is self-intersecting")
        path = np.asarray(path, dtype=int)
        pairs = np.sort(np.stack([path[:-1], path[1:]], axis=1), axis=1)
        seg_keys = pairs[:, 0] * width + pairs[:, 1]
        pos = np.minimum(np.searchsorted(keys, seg_keys, sorter=order), len(faces) - 1)
        f = order[pos]
        missing = np.any(faces[f] != pairs, axis=1)
        boundary = ~missing & (face_cells[f, 1] < 0)
        taken = ~missing & (fracture_of_face[f] >= 0)
        bad = missing | boundary | taken
        if np.any(bad):
            k = int(np.argmax(bad))
            a, b = int(path[k]), int(path[k + 1])
            if missing[k]:
                raise MeshError(f"fracture {fi} segment between nodes {a} and {b} does "
                                "not coincide with a matrix face")
            if boundary[k]:
                raise MeshError(f"fracture {fi} face between nodes {a} and {b} lies on "
                                "the boundary")
            raise MeshError(f"fractures {fracture_of_face[f[k]]} and {fi} overlap on "
                            f"face {f[k]}")
        fracture_of_face[f] = fi
        frac_faces.append(f)
    return frac_faces


def _node_copies(nodes, ptr, cell_node, faces, face_cells, is_frac):
    """Split the nodes of fracture faces: one copy per fan of the node's
    cells, where two cells of a fan share a face that is not a fracture face.

    Returns ``node_for(n, c)``, the node that cell c holds in place of its
    node n, and the coordinates of all nodes. The fan with a node's lowest
    cell keeps the node's id; the copies follow the nodes, numbered by node
    and then by the fan's lowest cell.
    """
    n_cells = ptr.size - 1
    cell_of = np.repeat(np.arange(n_cells), np.diff(ptr))
    on_split = np.zeros(nodes.shape[1], dtype=bool)
    on_split[faces[is_frac]] = True
    # the incidences of split nodes and cells, by node and then by cell
    at = on_split[cell_node]
    keys = np.unique(cell_node[at] * n_cells + cell_of[at])
    joins = ~is_frac & (face_cells[:, 1] >= 0)
    ends = faces[joins].T.ravel()
    owner, nbr = np.tile(face_cells[joins].T, 2)
    split = on_split[ends]
    u, v = (np.searchsorted(keys, ends[split] * n_cells + cells[split])
            for cells in (owner, nbr))
    # label each incidence with the lowest incidence of its fan, which
    # holds the fan's lowest cell
    fan = np.arange(keys.size)
    while True:
        low = fan.copy()
        np.minimum.at(low, u, fan[v])
        np.minimum.at(low, v, fan[u])
        low = low[low]
        if np.array_equal(low, fan):
            break
        fan = low
    node = keys // n_cells
    copy = (fan == np.arange(keys.size)) & (np.diff(node, prepend=-1) == 0)
    held = node.copy()
    held[copy] = nodes.shape[1] + np.arange(np.count_nonzero(copy))
    holds = np.append(held[fan], -1)

    def node_for(n, c):
        return np.where(on_split[n], holds[np.searchsorted(keys, n * n_cells + c)], n)

    return node_for, np.hstack([nodes, nodes[:, node[copy]]])


def fracturize(nodes, cell_nodes, frac_paths, box=None) -> MixedDimGrid:
    """Split a conforming 2d grid along fracture paths into a mixed-dim grid."""
    nodes = np.array(nodes, dtype=float)
    ptr, cell_node = polygons_csr(cell_nodes)
    n_cells = ptr.size - 1

    faces, face_cells = enumerate_faces(ptr, cell_node)
    frac_faces = _path_faces(frac_paths, faces, face_cells)
    is_frac = np.zeros(len(faces), dtype=bool)
    for f in frac_faces:
        is_frac[f] = True

    # intersection nodes: on at least two fracture paths
    on_paths = np.bincount(np.concatenate([np.zeros(0, dtype=int), *frac_paths]),
                           minlength=nodes.shape[1])
    intersection_nodes = np.flatnonzero(on_paths > 1).tolist()

    node_for, all_nodes = _node_copies(nodes, ptr, cell_node, faces, face_cells, is_frac)
    held = node_for(cell_node, np.repeat(np.arange(n_cells), np.diff(ptr)))
    final_cells = [held[s:e] for s, e in zip(ptr[:-1].tolist(), ptr[1:].tolist())]

    # each fracture face becomes two faces, one per side: the owner side's
    # face fo, the neighbour side's fo + 1
    (a, b), (co, cn) = faces.T, face_cells.T
    fo = np.cumsum(1 + is_frac) - (1 + is_frac)
    fd = fo[is_frac] + 1
    final_face_nodes = np.empty((len(faces) + fd.size, 2), dtype=int)
    final_face_cells = np.full_like(final_face_nodes, -1)
    final_face_nodes[fo] = np.stack([node_for(a, co), node_for(b, co)], axis=1)
    final_face_nodes[fd] = np.stack([node_for(a[is_frac], cn[is_frac]),
                                     node_for(b[is_frac], cn[is_frac])], axis=1)
    final_face_cells[fo, 0] = co
    final_face_cells[fo[~is_frac], 1] = cn[~is_frac]
    final_face_cells[fd, 0] = cn[is_frac]

    g2 = SubdomainGrid(2, sd_id=0)
    g2.nodes = all_nodes
    g2.num_nodes = all_nodes.shape[1]
    g2.cell_nodes = final_cells
    g2.num_cells = n_cells
    g2.face_nodes = final_face_nodes.T.reshape(2, -1)
    g2.face_cells = final_face_cells.T.reshape(2, -1)
    g2.num_faces = g2.face_nodes.shape[1]
    g2.compute_geometry()
    internal = np.zeros(g2.num_faces, dtype=bool)
    internal[fo[is_frac]] = internal[fd] = True
    g2.tags["internal"] = internal
    if box is not None:
        _tag_domain_sides(g2, box)

    # ------------------------------------------------------------------
    # 1d fracture grids, split at intersection points
    # ------------------------------------------------------------------
    subdomains = [g2]
    interfaces: list[MortarInterface] = []
    tips = []  # (fracture grid id, 1d face, original node id), by fracture and face

    for fi, path in enumerate(frac_paths):
        g1 = SubdomainGrid(1, sd_id=len(subdomains))
        g1.frac_num = fi
        m = len(path) - 1  # cells
        coords = nodes[:, path]
        g1.nodes = coords
        g1.num_nodes = coords.shape[1]
        g1.cell_nodes = [np.array([k, k + 1]) for k in range(m)]
        g1.num_cells = m
        # one face per path node; an inner node on an intersection point
        # gets two, the first owned by the cell before it, the second by
        # the cell after it
        at_x = on_paths[path] > 1
        split = at_x.copy()
        split[[0, -1]] = False
        node = np.repeat(np.arange(m + 1), 1 + split)
        second = np.diff(node, prepend=-1) == 0
        inner = (node > 0) & (node < m) & ~at_x[node]
        g1.face_nodes = node.reshape(1, -1)
        g1.face_cells = np.stack([np.maximum(node - 1, 0) + second, np.where(inner, node, -1)])
        g1.num_faces = node.size
        g1.compute_geometry()
        g1.tags["internal"] = at_x[node]
        if box is not None:
            _tag_domain_sides(g1, box)

        subdomains.append(g1)
        tips.extend((g1.id, f, path[node[f]]) for f in np.flatnonzero(at_x[node]))

        # matrix-fracture mortars, one per side
        own_side = fo[frac_faces[fi]]
        tangents = nodes[:, path[1:]] - nodes[:, path[:-1]]
        n_ref = np.vstack([-tangents[1], tangents[0]])
        n_ref /= np.hypot(n_ref[0], n_ref[1])
        n_o = g2.face_normals[:, own_side] / g2.face_areas[own_side]
        along = (n_o * n_ref).sum(axis=0) > 0
        side_faces = {SIDE_J: np.where(along, own_side, own_side + 1),
                      SIDE_K: np.where(along, own_side + 1, own_side)}
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
    for high_id, f1d, n in tips:
        g0 = point_grid_of[n]
        interfaces.append(
            MortarInterface(
                intf_id=len(interfaces),
                high_id=high_id,
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
