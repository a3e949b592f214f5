"""The array forms of the set-up geometry against per-element loops.

The loops below are the reference: they compute cell geometry, subcell
volumes and the local-system row layouts one cell, subface or node at a
time. The array forms keep every elementwise expression and summation
order, so the results must be equal bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from test_fvm import perturbed_triangles
from test_mdmesh import polygons

from mdthm.fvm import BoundaryCondition, mpsa_discretize
from mdthm.fvm.subcell import SubcellTopology, subcell_volumes
from mdthm.mdmesh import MeshError, SubdomainGrid, build_lattice, fracturize, stack_grids
from mdthm.mdmesh.grids import polygons_csr
from mdthm.scenarios.config import parse_config
from mdthm.scenarios.setup import build_mesh

CONVERGENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fractured_convergence.json"


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------
def loop_cell_geometry_2d(g):
    x = g.nodes
    centers = np.zeros((2, g.num_cells))
    volumes = np.zeros(g.num_cells)
    for c, poly in enumerate(polygons(g.cells)):
        px, py = x[0, poly], x[1, poly]
        cross = px * np.roll(py, -1) - np.roll(px, -1) * py
        area = 0.5 * cross.sum()
        cx = ((px + np.roll(px, -1)) * cross).sum() / (6.0 * area)
        cy = ((py + np.roll(py, -1)) * cross).sum() / (6.0 * area)
        volumes[c] = area
        centers[:, c] = (cx, cy)
    return centers, volumes


def loop_cell_geometry_1d(g):
    x = g.nodes
    centers = np.zeros((2, g.num_cells))
    volumes = np.zeros(g.num_cells)
    for c, poly in enumerate(polygons(g.cells)):
        pa, pb = x[:, poly[0]], x[:, poly[1]]
        centers[:, c] = 0.5 * (pa + pb)
        volumes[c] = np.hypot(*(pb - pa))
    return centers, volumes


def loop_subcells(g):
    cells, nodes = [], []
    for c, poly in enumerate(polygons(g.cells)):
        cells.extend([c] * len(poly))
        nodes.extend(poly.tolist())
    order = np.lexsort((np.asarray(cells), np.asarray(nodes)))
    return np.asarray(cells)[order], np.asarray(nodes)[order]


def loop_subcell_volumes(top):
    g = top.grid
    vol = np.zeros(top.num_subcells)
    corners = {}
    for sf in range(top.num_subfaces):
        for sc in (top.sc_of_owner[sf], top.sc_of_nbr[sf]):
            if sc >= 0:
                corners.setdefault(sc, []).append(g.face_centers[:, top.sf_face[sf]])
    for sc, pts in corners.items():
        assert len(pts) == 2
        xc = g.cell_centers[:, top.sc_cell[sc]]
        xn = g.nodes[:, top.sc_node[sc]]
        quad = np.array([xc, pts[0], xn, pts[1]])
        x, y = quad[:, 0], quad[:, 1]
        vol[sc] = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    return vol


def loop_equation_layout(top):
    row_primary = np.zeros(top.num_subfaces, dtype=int)
    row_secondary = np.full(top.num_subfaces, -1)
    for pos in range(top.node_ids.size):
        nxt = 0
        for sf in range(top.sf_node_ptr[pos], top.sf_node_ptr[pos + 1]):
            row_primary[sf] = nxt
            nxt += 1
            if not top.sf_boundary[sf]:
                row_secondary[sf] = nxt
                nxt += 1
    return row_primary, row_secondary


def loop_overdetermined_layout(top, conditions_interior):
    rows = np.full((top.num_subfaces, conditions_interior), -1)
    for pos in range(top.node_ids.size):
        nxt = 0
        for sf in range(top.sf_node_ptr[pos], top.sf_node_ptr[pos + 1]):
            count = 1 if top.sf_boundary[sf] else conditions_interior
            for k in range(count):
                rows[sf, k] = nxt
                nxt += 1
    return rows


def loop_node_offsets(top, conditions_interior):
    counts = np.zeros(top.node_ids.size, dtype=int)
    for sf in range(top.num_subfaces):
        counts[top.node_pos[top.sf_node[sf]]] += (
            1 if top.sf_boundary[sf] else conditions_interior)
    return np.concatenate([[0], np.cumsum(counts)])


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------
def missing_edge_grid():
    """Two unit squares whose shared edge is missing from the face list."""
    return SubdomainGrid(
        2, np.array([[0.0, 1.0, 2.0, 0.0, 1.0, 2.0], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]]),
        (np.array([0, 4, 8]), np.array([0, 1, 4, 3, 1, 2, 5, 4])),
        np.array([[1, 2], [2, 5], [4, 5], [0, 1], [3, 4], [0, 3]]).T,
        np.array([[1, -1], [1, -1], [1, -1], [0, -1], [0, -1], [0, -1]]).T)


def mixed_polygons():
    """Quads on the left half of a 3x2 lattice, triangles on the right, the
    cells interleaved so that both sizes occur at low and high indices."""
    xs, ys = np.meshgrid([0.0, 0.4, 1.1, 1.5], [0.0, 0.6, 1.0])
    nodes = np.vstack([xs.ravel(), ys.ravel() + 0.05 * xs.ravel() ** 2])
    cells = [[0, 1, 5, 4], [1, 2, 6], [1, 6, 5], [4, 5, 9, 8],
             [2, 3, 7, 6], [5, 6, 10], [5, 10, 9], [6, 7, 11, 10]]
    return nodes, cells


def convergence_mesh(level):
    with open(CONVERGENCE_CONFIG, encoding="utf-8") as fh:
        return build_mesh(parse_config(json.load(fh)), level)


@pytest.fixture(scope="module")
def level0():
    return convergence_mesh(0)


@pytest.fixture(scope="module", params=["triangles", "cartesian", "level0", "mixed"])
def grid(request, level0):
    if request.param == "triangles":
        return perturbed_triangles()
    if request.param == "cartesian":
        return build_lattice("cartesian", 6, 4, [((1 / 6, 0.5), (5 / 6, 0.5)),
                                                 ((0.5, 0.25), (0.5, 0.75))]).matrix
    if request.param == "level0":
        return level0.matrix
    nodes, cells = mixed_polygons()
    return fracturize(nodes, polygons_csr(cells), []).matrix


# ---------------------------------------------------------------------------
class TestArraysEqualLoops:
    def test_cell_geometry_2d(self, grid):
        centers, volumes = loop_cell_geometry_2d(grid)
        assert np.array_equal(grid.cell_centers, centers)
        assert np.array_equal(grid.cell_volumes, volumes)

    def test_subcells(self, grid):
        top = SubcellTopology(grid)
        cells, nodes = loop_subcells(grid)
        assert np.array_equal(top.sc_cell, cells)
        assert np.array_equal(top.sc_node, nodes)

    def test_subcell_volumes(self, grid):
        top = SubcellTopology(grid)
        vol = subcell_volumes(top)
        assert np.array_equal(vol, loop_subcell_volumes(top))
        # subcells partition their cells
        per_cell = np.bincount(top.sc_cell, weights=vol, minlength=grid.num_cells)
        assert np.allclose(per_cell, grid.cell_volumes, rtol=1e-12, atol=0)

    def test_equation_layout(self, grid):
        top = SubcellTopology(grid)
        primary, secondary, eq_ptr = top.equation_layout()
        ref_primary, ref_secondary = loop_equation_layout(top)
        assert np.array_equal(primary, ref_primary)
        assert np.array_equal(secondary, ref_secondary)
        assert np.array_equal(eq_ptr, loop_node_offsets(top, 2))

    def test_overdetermined_layout(self, grid):
        top = SubcellTopology(grid)
        rows, ptr = top.overdetermined_layout(3)
        assert np.array_equal(rows, loop_overdetermined_layout(top, 3))
        assert np.array_equal(ptr, loop_node_offsets(top, 3))

    def test_cell_geometry_1d_stacked(self, level0):
        fractures = [sd for sd in level0.subdomains if sd.dim == 1]
        refs = [loop_cell_geometry_1d(sd) for sd in fractures]
        for sd, (centers, volumes) in zip(fractures, refs):
            assert np.array_equal(sd.cell_centers, centers)
            assert np.array_equal(sd.cell_volumes, volumes)
        stacked = stack_grids(1, fractures)
        assert np.array_equal(stacked.cell_centers, np.hstack([c for c, _ in refs]))
        assert np.array_equal(stacked.cell_volumes, np.concatenate([v for _, v in refs]))


@pytest.mark.parametrize("level", [0, 1])
def test_stacks_are_their_parts_bit_for_bit(level):
    # the shipped network: crossings, T junctions and kinks, so every
    # dimension has several parts; each stack computes its own geometry
    mdg = convergence_mesh(level)
    assert len(mdg.subdomains_of_dim(0)) > 1

    def same_bits(a, b):
        return (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()

    for dim, stacked in mdg.grids.items():
        parts = mdg.subdomains_of_dim(dim)
        for name in ("cell_centers", "cell_volumes", "face_centers", "face_normals",
                     "face_areas"):
            joined = np.concatenate([getattr(sd, name) for sd in parts], axis=-1)
            assert same_bits(getattr(stacked, name), joined), (dim, name)
        for key, tag in stacked.tags.items():
            assert same_bits(tag, np.concatenate([sd.tags[key] for sd in parts])), (dim, key)
        joined = np.hstack([np.where(sd.face_cells >= 0, sd.face_cells + stacked.cell_start[sd.id],
                                     -1) for sd in parts])
        assert same_bits(stacked.face_cells, joined), dim
        assert [stacked.face_start[sd.id] for sd in parts] == np.cumsum(
            [0] + [sd.num_faces for sd in parts[:-1]]).tolist()


class TestErrorPaths:
    @pytest.mark.parametrize("flipped, named", [((1, 4), 1), ((3, 5), 3)])
    def test_nonpositive_area_names_lowest_cell(self, flipped, named):
        # clockwise cells in both size groups: the lowest index is named,
        # whichever size it has
        nodes, cells = mixed_polygons()
        for c in flipped:
            cells[c] = cells[c][::-1]
        with pytest.raises(MeshError, match=rf"^cell {named} has nonpositive area -"):
            fracturize(nodes, polygons_csr(cells), [])

    def test_missing_face_names_first_subcell_met(self):
        # at node 1 the subfaces meet cell 1 before cell 0
        top = SubcellTopology(missing_edge_grid())
        with pytest.raises(MeshError, match="^node 1 of cell 1 has 1 incident subfaces"):
            subcell_volumes(top)

    def test_missing_face_names_node_of_short_local_system(self):
        # MPSA stops before it computes subcell volumes: the local systems
        # of nodes 1 and 4 lack the equations of the missing edge
        g = missing_edge_grid()
        with pytest.raises(MeshError, match="fewer equations than unknowns at node 1$"):
            mpsa_discretize(g, 1.0, 1.0, 1.0, 1.0, BoundaryCondition.dirichlet(g))

    def test_zero_length_1d_cell(self):
        with pytest.raises(MeshError, match="degenerate 1d cell of zero length"):
            SubdomainGrid(1, np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0]]),
                          (np.array([0, 2, 4]), np.array([0, 1, 1, 2])),
                          np.array([[0, 1, 2]]), np.array([[0, 0, 1], [-1, 1, -1]]))
