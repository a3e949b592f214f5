"""Reader for Gmsh MSH 2.2 ASCII meshes.

Triangle and quadrangle elements form the matrix grid; line elements whose
physical group name starts with ``FRACTURE_`` define the fracture network.
Fracture lines must conform to matrix faces, otherwise ingestion is rejected
with the offending entities named.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh.build import fracturize
from mdthm.mdmesh.grids import MeshError, polygons_csr
from mdthm.mdmesh.mdgrid import MixedDimGrid

FRACTURE_PREFIX = "FRACTURE_"

_LINE, _TRIANGLE, _QUAD = 1, 2, 3
_NODES_OF = {_LINE: 2, _TRIANGLE: 3, _QUAD: 4}


def ingest_gmsh(path) -> MixedDimGrid:
    """Build a mixed-dimensional grid from an MSH 2.2 ASCII file."""
    sections = _read_sections(path)

    fmt = sections.get("MeshFormat")
    if not fmt:
        raise MeshError(f"{path}: missing or empty $MeshFormat section")
    version = fmt[0].split()[0]
    if not version.startswith("2.2"):
        raise MeshError(f"{path}: unsupported MSH format version {version!r}")

    names = {}
    for line in sections.get("PhysicalNames", [])[1:]:
        parts = line.split(maxsplit=2)
        if len(parts) == 3:
            try:
                names[(int(parts[0]), int(parts[1]))] = parts[2].strip().strip('"')
            except ValueError:
                raise MeshError(f"{path}: physical name line {line!r} does not start with "
                                "a dimension and a tag") from None

    node_lines = sections.get("Nodes")
    if node_lines is None:
        raise MeshError(f"{path}: missing $Nodes section")
    renum, coords = {}, []
    for line in node_lines[1:]:
        parts = line.split()
        try:
            renum[int(parts[0])] = len(coords)
            coords.append((float(parts[1]), float(parts[2])))
        except (ValueError, IndexError):
            raise MeshError(f"{path}: node line {line!r} does not hold an id and "
                            "x, y coordinates") from None
    nodes = np.array(coords, dtype=float).reshape(-1, 2).T

    elem_lines = sections.get("Elements")
    if elem_lines is None:
        raise MeshError(f"{path}: missing $Elements section")
    cells = []
    frac_edges: dict[str, list[tuple[int, int]]] = {}
    for line in elem_lines[1:]:
        try:
            parts = [int(v) for v in line.split()]
            elem_id, etype, ntags = parts[0], parts[1], parts[2]
        except (ValueError, IndexError):
            raise MeshError(f"{path}: element line {line!r} does not hold an id, a type "
                            "and a tag count") from None
        tags, ids = parts[3 : 3 + ntags], parts[3 + ntags :]
        missing = [v for v in ids if v not in renum]
        if missing:
            raise MeshError(f"{path}: element line {line!r} names undeclared node {missing[0]}")
        if len(ids) != _NODES_OF.get(etype, len(ids)):
            raise MeshError(f"{path}: element line {line!r} has {len(ids)} nodes where "
                            f"type {etype} has {_NODES_OF[etype]}")
        conn = [renum[v] for v in ids]
        if etype == _TRIANGLE or etype == _QUAD:
            cells.append(_ccw(conn, nodes))
        elif etype == _LINE:
            phys = names.get((1, tags[0])) if tags else None
            if phys is not None and phys.startswith(FRACTURE_PREFIX):
                frac_edges.setdefault(phys, []).append((elem_id, conn[0], conn[1]))
        # points and unrecognised physical lines (e.g. boundary groups) are
        # irrelevant to the grid topology and skipped

    if not cells:
        raise MeshError(f"{path}: no 2d elements found")

    paths = [_chain_edges(name, edges) for name, edges in sorted(frac_edges.items())]
    box = ((nodes[0].min(), nodes[1].min()), (nodes[0].max(), nodes[1].max()))
    try:
        mdg = fracturize(nodes, polygons_csr(cells), paths, box)
    except MeshError as err:
        raise MeshError(f"{path}: {err}") from err
    return mdg


def _read_sections(path) -> dict[str, list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise MeshError(f"{path}: not an ASCII mesh file: {err}") from None
    sections, current, content = {}, None, []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("$End"):
            sections[current] = content
            current, content = None, []
        elif line.startswith("$"):
            current = line[1:]
            content = []
        elif current is not None:
            content.append(line)
    if current is not None:
        raise MeshError(f"{path}: unterminated section ${current}")
    return sections


def _ccw(conn, nodes):
    px, py = nodes[0, conn], nodes[1, conn]
    area = 0.5 * (px * np.roll(py, -1) - np.roll(px, -1) * py).sum()
    return conn[::-1] if area < 0 else conn


def _chain_edges(name, edges):
    """Order the line elements of one fracture into a single node path."""
    degree: dict[int, int] = {}
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for elem_id, a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        adjacency.setdefault(a, []).append((b, elem_id))
        adjacency.setdefault(b, []).append((a, elem_id))
    ends = sorted(n for n, d in degree.items() if d == 1)
    if len(ends) != 2 or any(d > 2 for d in degree.values()):
        ids = sorted(e for e, _, _ in edges)
        raise MeshError(f"fracture {name}: line elements {ids} do not form a simple chain")
    path = [ends[0]]
    used = set()
    while True:
        options = [
            (nxt, eid) for nxt, eid in adjacency[path[-1]] if eid not in used
        ]
        if not options:
            break
        nxt, eid = options[0]
        used.add(eid)
        path.append(nxt)
    if len(used) != len(edges):
        ids = sorted(e for e, _, _ in edges)
        raise MeshError(f"fracture {name}: disconnected line elements {ids}")
    return path
