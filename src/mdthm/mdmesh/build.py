"""Construction of mixed-dimensional grids.

``build_lattice`` supplies deterministic, nestable grids of one lattice,
Cartesian quads or its right-triangle split: called with 2^k times the cells
along each axis it builds refinement level k, and ``containment_map``
relates two levels. ``fracturize`` turns any conforming 2d grid, its cells in
CSR form, plus fracture node paths into the full mixed-dim hierarchy: it
duplicates matrix faces and nodes along the fractures and makes every grid
whole by one :class:`SubdomainGrid` call each, the split matrix, the 1d
fracture grids (split at intersections) and the 0d intersection points; the
mortar interfaces between them exist only stacked, each interface's mortar
cells appended to the mortar group of its high-side dimension, in the
numbering of the stacked grids, the group keeping the per-interface
offsets. Without fracture paths it builds the plain 2d grid.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh.grids import MeshError, SubdomainGrid, enumerate_faces
from mdthm.mdmesh.mdgrid import MixedDimGrid
from mdthm.mdmesh.mortar import mortar_group


# ----------------------------------------------------------------------
# structured lattices
# ----------------------------------------------------------------------
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
    if not (di == 0 or dj == 0 or (di == dj and allow_diagonal)):
        kind = "grid lines or lattice diagonals" if allow_diagonal else "grid lines"
        raise MeshError(f"fracture segment {seg} does not follow {kind}")
    if di == 0 and ia in (0, nx) or dj == 0 and ja in (0, ny):
        raise MeshError(f"fracture segment {seg} runs along the domain boundary")
    k = np.arange(max(abs(di), abs(dj)) + 1)
    return ((ja + k * np.sign(dj)) * (nx + 1) + ia + k * np.sign(di)).tolist()


def build_lattice(kind, nx, ny, fractures=(), box=((0.0, 0.0), (1.0, 1.0)),
                  perturb=0.0, seed=0) -> MixedDimGrid:
    """The fractured grid of an nx x ny lattice of rectangles on the box.

    ``kind`` "cartesian" makes each rectangle a quad cell, and fractures
    follow grid lines; "triangular" splits each rectangle by its SW-NE
    diagonal into two right triangles, and fractures may also follow the
    diagonals. Cells are numbered rectangle by rectangle, row by row from the
    bottom. With ``perturb`` > 0, the interior nodes off the fractures are
    shifted by a uniform random fraction of the spacing (seeded,
    reproducible).
    """
    (x0, y0), (x1, y1) = box
    xs, ys = np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.vstack([gx.ravel(), gy.ravel()])
    # the SW, SE, NE and NW corners of each rectangle
    sw = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    se, ne, nw = sw + 1, sw + nx + 2, sw + nx + 1
    corners, size = {"cartesian": ([sw, se, ne, nw], 4),
                     "triangular": ([sw, se, ne, sw, ne, nw], 3)}[kind]
    ids = np.stack(corners, axis=1).ravel()
    cells = (np.arange(0, ids.size + 1, size), ids)
    paths = [_segment_to_path(s, nx, ny, box, allow_diagonal=kind == "triangular")
             for s in fractures]
    if perturb > 0.0:
        rng = np.random.default_rng(seed)
        interior = np.zeros((ny + 1, nx + 1), dtype=bool)
        interior[1:-1, 1:-1] = True
        interior = interior.ravel()
        interior[np.concatenate([np.zeros(0, dtype=int), *paths])] = False
        shift = rng.uniform(-perturb, perturb, size=(2, nodes.shape[1]))
        nodes[0, interior] += shift[0, interior] * (xs[1] - xs[0])
        nodes[1, interior] += shift[1, interior] * (ys[1] - ys[0])
    mdg = fracturize(nodes, cells, paths, box)
    mdg.generator = {"kind": kind, "nx": nx, "ny": ny, "box": box,
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


def fracturize(nodes, cells, frac_paths, box=None) -> MixedDimGrid:
    """Split a conforming 2d grid along fracture paths into a mixed-dim grid.

    ``cells`` holds the polygons' node lists in CSR form (offsets, node
    ids), counterclockwise; each path is a list of node ids. With ``box``,
    the exterior faces are tagged with the box's sides.
    """
    nodes = np.array(nodes, dtype=float)
    ptr, cell_node = cells
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

    # each fracture face becomes two faces, one per side: the owner side's
    # face fo, the neighbour side's fo + 1
    (a, b), (co, cn) = faces.T, face_cells.T
    fo = np.cumsum(1 + is_frac) - (1 + is_frac)
    fd = fo[is_frac] + 1
    face_nodes = np.empty((2, len(faces) + fd.size), dtype=int)
    split_face_cells = np.full_like(face_nodes, -1)
    face_nodes[:, fo] = node_for(a, co), node_for(b, co)
    face_nodes[:, fd] = node_for(a[is_frac], cn[is_frac]), node_for(b[is_frac], cn[is_frac])
    split_face_cells[0, fo] = co
    split_face_cells[1, fo[~is_frac]] = cn[~is_frac]
    split_face_cells[0, fd] = cn[is_frac]
    internal = np.zeros(face_nodes.shape[1], dtype=bool)
    internal[fo[is_frac]] = internal[fd] = True
    g2 = SubdomainGrid(2, all_nodes, (ptr, held), face_nodes, split_face_cells, sd_id=0,
                       tags={"internal": internal}, box=box)

    # ------------------------------------------------------------------
    # 1d fracture grids, split at intersection points, and the mortar
    # cells, interface by interface in the numbering of the stacked grids:
    # the j and then the k wall of each fracture, and per fracture, face by
    # face, its branches at the intersection points
    # ------------------------------------------------------------------
    subdomains = [g2]
    point_of = {n: k for k, n in enumerate(intersection_nodes)}
    walls, tips = [], []
    cells_1d = faces_1d = 0  # fracture cells and faces stacked so far

    for fi, path in enumerate(frac_paths):
        m = len(path) - 1  # cells, cell k from path node k to k + 1
        # one face per path node; an inner node on an intersection point
        # gets two, the first owned by the cell before it, the second by
        # the cell after it
        at_x = on_paths[path] > 1
        split = at_x.copy()
        split[[0, -1]] = False
        node = np.repeat(np.arange(m + 1), 1 + split)
        second = np.diff(node, prepend=-1) == 0
        inner = (node > 0) & (node < m) & ~at_x[node]
        g1 = SubdomainGrid(1, nodes[:, path],
                           (np.arange(0, 2 * m + 1, 2), np.repeat(np.arange(m + 1), 2)[1:-1]),
                           node.reshape(1, -1),
                           np.stack([np.maximum(node - 1, 0) + second, np.where(inner, node, -1)]),
                           sd_id=len(subdomains), frac_num=fi, tags={"internal": at_x[node]},
                           box=box)
        subdomains.append(g1)

        # matrix-fracture mortars, one per wall; the k wall lies on the
        # side that the left normal of the path points to
        own_side = fo[frac_faces[fi]]
        tangents = nodes[:, path[1:]] - nodes[:, path[:-1]]
        n_ref = np.vstack([-tangents[1], tangents[0]])
        n_ref /= np.hypot(n_ref[0], n_ref[1])
        n_o = g2.face_normals[:, own_side] / g2.face_areas[own_side]
        along = (n_o * n_ref).sum(axis=0) > 0
        for side, faces in ((-1.0, np.where(along, own_side, own_side + 1)),
                            (1.0, np.where(along, own_side + 1, own_side))):
            walls.append((faces, g2.face_cells[0, faces], cells_1d + np.arange(m),
                          g2.face_normals[:, faces] / g2.face_areas[faces], g1.cell_volumes,
                          np.full(m, side)))
        # fracture-point mortars, one per face at an intersection point
        for f in np.flatnonzero(g1.tags["internal"]).tolist():
            tips.append(([faces_1d + f], [cells_1d + g1.face_cells[0, f]],
                         [point_of[path[node[f]]]], g1.face_normals[:, [f]] / g1.face_areas[f],
                         [1.0], [-1.0]))
        cells_1d += m
        faces_1d += g1.num_faces

    # one point per intersection node, its single cell on its single node
    for n in intersection_nodes:
        subdomains.append(SubdomainGrid(0, nodes[:, [n]], (np.array([0, 1]), np.array([0])),
                                        np.zeros((0, 0), dtype=int), np.zeros((2, 0), dtype=int),
                                        sd_id=len(subdomains)))
    return MixedDimGrid(subdomains, {2: mortar_group(2, 0, g2.num_faces, walls),
                                     1: mortar_group(1, len(walls), faces_1d, tips)})
