import json
import os
import re

import dict_fracturize
import numpy as np
import pytest

from mdthm.mdmesh import build as mesh_build
from mdthm.mdmesh import SIDE_CODE, SIDES, MeshError, build_lattice, containment_map, ingest_gmsh
from mdthm.mdmesh.grids import enumerate_faces, polygons_csr
from mdthm.mdmesh.mortar import mortar_group


HORIZONTAL = [((0.0, 0.5), (1.0, 0.5))]
CROSSING = [((0.0, 0.5), (1.0, 0.5)), ((0.5, 0.0), (0.5, 1.0))]
with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                       "fractured_convergence.json"), encoding="utf-8") as _fh:
    _MESH = json.load(_fh)["mesh"]
# the shipped network: kinks, T junctions, tips and a fracture that ends on
# the domain boundary
CONFIG_FRACTURES = [tuple(map(tuple, s)) for s in _MESH["fractures"]]
CONFIG_BOX = tuple(map(tuple, _MESH["box"]))


def closure_defect(mdg):
    return max(sd.check_closure() for sd in mdg.subdomains if sd.dim > 0)


def branch_count(mdg, point):
    """Mortar cells between the fractures and one intersection point."""
    return int(np.sum(mdg.mortars[1].lo == mdg.grids[0].cell_start[point.id]))


def walls_of(mdg, frac):
    """The matrix faces and the fracture cells of the mortar cells of a
    fracture's j and k wall."""
    walls = mdg.mortars[2]
    cells = walls.lo - mdg.grids[1].cell_start[frac.id]
    on = (cells >= 0) & (cells < frac.num_cells)
    return [(walls.lift.indices[on & side], cells[on & side])
            for side in (walls.sides < 0, walls.sides > 0)]


def interface_sizes(mdg, dim):
    return np.diff(mdg.mortars[dim].offsets).tolist()


class TestCartesianBuilder:
    def test_unfractured_counts(self):
        mdg = build_lattice("cartesian", 2, 2)
        g = mdg.matrix
        assert g.num_cells == 4
        assert g.num_faces == 12
        assert len(mdg.subdomains) == 1
        assert interface_sizes(mdg, 2) == interface_sizes(mdg, 1) == []

    def test_single_fracture_counts(self):
        mdg = build_lattice("cartesian", 2, 2, HORIZONTAL)
        assert [sd.dim for sd in mdg.subdomains] == [2, 1]
        frac = mdg.subdomains[1]
        assert frac.num_cells == 2
        assert interface_sizes(mdg, 2) == [2, 2] and interface_sizes(mdg, 1) == []
        assert mdg.mortars[2].ids == [0, 1]
        # two duplicated matrix faces per fracture cell
        assert mdg.matrix.tags["internal"].sum() == 4
        assert mdg.matrix.num_faces == 14

    def test_nested_refinement_partition(self):
        coarse = build_lattice("cartesian", 2, 2, HORIZONTAL)
        fine = build_lattice("cartesian", 4, 4, HORIZONTAL)
        maps = containment_map(coarse, fine)
        counts = np.bincount(maps[0], minlength=coarse.matrix.num_cells)
        assert np.all(counts == 4)
        counts_1d = np.bincount(maps[1], minlength=2)
        assert np.all(counts_1d == 2)

    def test_offgrid_segment_rejected(self):
        with pytest.raises(MeshError, match="grid node"):
            build_lattice("cartesian", 2, 2, [((0.0, 0.3), (1.0, 0.3))])
        with pytest.raises(MeshError):
            build_lattice("cartesian", 2, 2, [((0.0, 0.0), (1.0, 1.0))])

    def test_boundary_segment_rejected(self):
        with pytest.raises(MeshError, match="boundary"):
            build_lattice("cartesian", 2, 2, [((0.0, 0.0), (1.0, 0.0))])


class TestGeometry:
    @pytest.mark.parametrize("kind", ["cartesian", "triangular"])
    def test_closure(self, kind):
        mdg = build_lattice(kind, 4, 4, CROSSING)
        assert closure_defect(mdg) < 1e-12

    def test_perturbed_closure(self):
        mdg = build_lattice("triangular", 6, 6, perturb=0.2, seed=3)
        assert closure_defect(mdg) < 1e-12
        assert np.all(mdg.matrix.cell_volumes > 0)

    def test_duplicated_face_normals_opposite(self):
        mdg = build_lattice("cartesian", 2, 2, HORIZONTAL)
        (faces_j, cells_j), (faces_k, cells_k) = walls_of(mdg, mdg.subdomains[1])
        assert cells_j.tolist() == cells_k.tolist() == [0, 1]
        g = mdg.matrix
        assert np.allclose(g.face_normals[:, faces_j] + g.face_normals[:, faces_k], 0.0,
                           atol=1e-12)

    def test_volumes_positive(self):
        mdg = build_lattice("triangular", 4, 4, CROSSING)
        for sd in mdg.subdomains:
            assert np.all(sd.cell_volumes > 0)


class TestCrossingTopology:
    def test_entity_enumeration(self):
        mdg = build_lattice("cartesian", 2, 2, CROSSING)
        dims = [sd.dim for sd in mdg.subdomains]
        assert dims == [2, 1, 1, 0]
        point = mdg.subdomains[3]
        assert point.num_cells == 1
        # one interface of one mortar cell per incident 1d branch: an X
        # crossing has four
        assert branch_count(mdg, point) == 4
        assert mdg.mortars[1].ids == [4, 5, 6, 7]
        assert interface_sizes(mdg, 1) == [1, 1, 1, 1]
        # the crossing splits each fracture grid internally
        for frac in mdg.subdomains[1:3]:
            assert frac.tags["internal"].sum() == 2

    def test_kink_forms_point(self):
        # two fractures meeting at an endpoint: an intersection with 2 branches
        frs = [((0.25, 0.5), (0.5, 0.5)), ((0.5, 0.5), (0.75, 0.75))]
        mdg = build_lattice("triangular", 4, 4, frs)
        points = mdg.subdomains_of_dim(0)
        assert len(points) == 1
        assert branch_count(mdg, points[0]) == 2


def test_mortar_group_pairs_each_face_and_low_cell_once():
    def interface(faces, lo):
        n = len(faces)
        return faces, [0] * n, lo, np.zeros((2, n)), [1.0] * n, [-1.0] * n

    # two interfaces may share a low cell, but not a high face, and one
    # interface pairs each of its low cells once
    assert mortar_group(1, 3, 2, [interface([0], [0]), interface([1], [0])]).ids == [3, 4]
    for interfaces in ([interface([0], [0]), interface([0], [1])], [interface([0, 1], [0, 0])]):
        with pytest.raises(MeshError, match="biject"):
            mortar_group(1, 0, 2, interfaces)


class TestDisplacementJump:
    def setup_method(self):
        self.mdg = build_lattice("cartesian", 3, 2, [((0.0, 0.5), (1.0, 0.5))])
        self.frac = self.mdg.subdomains[1]

    def jump(self, u_j, u_k):
        """Jump per cell, (2, n) in global coordinates, from the two walls'
        mortar displacements."""
        sides = self.mdg.mortars[2].sides
        u = np.zeros((sides.size, 2))
        u[sides < 0] = u_j.reshape(-1, 2)
        u[sides > 0] = u_k.reshape(-1, 2)
        return (self.mdg.jump_operator() @ u.ravel()).reshape(-1, 2).T

    def test_zero_for_equal_fields(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(2 * self.frac.num_cells)
        assert np.allclose(self.jump(u, u), 0.0)

    def test_sign_convention(self):
        # n points from the j side towards the k side; on a horizontal
        # fracture generated here that is the +y direction
        rotation = self.mdg.fracture_basis()
        tau, n = rotation[:, 0].T, rotation[:, 1].T
        assert np.allclose(n[1], 1.0)
        a = 1e-3
        u_j = np.zeros(2 * self.frac.num_cells)
        u_k = np.tile([0.0, a], self.frac.num_cells)
        jump = self.jump(u_j, u_k)
        assert np.allclose((jump * n).sum(axis=0), a)
        assert np.allclose((jump * tau).sum(axis=0), 0.0, atol=1e-15)

    def test_dense_projection_oracle(self):
        rng = np.random.default_rng(42)
        nc = self.frac.num_cells
        u_j = rng.standard_normal(2 * nc)
        u_k = rng.standard_normal(2 * nc)
        (_, cells_j), (_, cells_k) = walls_of(self.mdg, self.frac)

        def to_cells(cells):
            # a wall's mortar displacements onto the fracture cells
            lift = np.zeros((2 * nc, 2 * cells.size))
            for m, c in enumerate(cells):
                lift[2 * c:2 * c + 2, 2 * m:2 * m + 2] = np.eye(2)
            return lift

        expected = (to_cells(cells_k) @ u_k - to_cells(cells_j) @ u_j).reshape(nc, 2).T
        assert np.allclose(self.jump(u_j, u_k), expected, atol=1e-15)


class TestInheritAperture:
    def test_means(self):
        mdg = build_lattice("cartesian", 2, 2, CROSSING)
        point = mdg.subdomains_of_dim(0)[0]
        f1, f2 = mdg.subdomains_of_dim(1)
        ap = np.concatenate([np.full(f1.num_cells, 1e-3), np.full(f2.num_cells, 3e-3)])
        a = mdg.inherit_aperture(ap)[mdg.grids[0].cell_start[point.id]]
        assert a == pytest.approx(2e-3)

    def test_mean_of_equal(self):
        mdg = build_lattice("cartesian", 2, 2, CROSSING)
        point = mdg.subdomains_of_dim(0)[0]
        ap = np.full(mdg.grids[1].num_cells, 7e-4)
        assert mdg.inherit_aperture(ap)[mdg.grids[0].cell_start[point.id]] == pytest.approx(7e-4)

    def test_three_branches(self):
        # T junction: one throughgoing fracture (2 branches) and one abutting
        frs = [((0.0, 0.5), (1.0, 0.5)), ((0.5, 0.0), (0.5, 0.5))]
        mdg = build_lattice("cartesian", 2, 2, frs)
        point = mdg.subdomains_of_dim(0)[0]
        assert branch_count(mdg, point) == 3
        # branch apertures {1, 2, 6}e-4 -> mean 3e-4: through-fracture cells
        # carry 1e-4 and 2e-4, the abutting fracture 6e-4
        ap = np.array([1e-4, 2e-4, 6e-4])
        assert mdg.inherit_aperture(ap)[mdg.grids[0].cell_start[point.id]] == pytest.approx(3e-4)


MSH_HEADER = """$MeshFormat
2.2 0 8
$EndMeshFormat
"""


def write_msh(tmp_path, body, name="mesh.msh"):
    path = tmp_path / name
    path.write_text(MSH_HEADER + body)
    return path


def msh_quad_mesh(fractures, n=2):
    """n x n unit-square quad mesh with optional fracture line elements,
    each a list of segments between lattice points (i, j)."""
    nid = {(i, j): j * (n + 1) + i + 1 for j in range(n + 1) for i in range(n + 1)}
    nodes = [f"{k} {i / n} {j / n} 0" for (i, j), k in nid.items()]
    elems = []
    eid = 1
    phys_names = ['2 10 "MATRIX"']
    ptag = 11
    for name, segs in fractures:
        phys_names.append(f'1 {ptag} "{name}"')
        for (a, b) in segs:
            elems.append(f"{eid} 1 2 {ptag} {ptag} {nid[a]} {nid[b]}")
            eid += 1
        ptag += 1
    for j in range(n):
        for i in range(n):
            q = [nid[(i, j)], nid[(i + 1, j)], nid[(i + 1, j + 1)], nid[(i, j + 1)]]
            elems.append(f"{eid} 3 2 10 10 " + " ".join(map(str, q)))
            eid += 1
    body = "$PhysicalNames\n{}\n{}\n$EndPhysicalNames\n".format(
        len(phys_names), "\n".join(phys_names)
    )
    body += f"$Nodes\n{len(nodes)}\n" + "\n".join(nodes) + "\n$EndNodes\n"
    body += f"$Elements\n{len(elems)}\n" + "\n".join(elems) + "\n$EndElements\n"
    return body


class TestGmshIngestion:
    def test_unit_square_no_fractures(self, tmp_path):
        path = write_msh(tmp_path, msh_quad_mesh([]))
        mdg = ingest_gmsh(path)
        assert len(mdg.subdomains) == 1
        assert interface_sizes(mdg, 2) == interface_sizes(mdg, 1) == []
        assert mdg.matrix.num_cells == 4

    def test_throughgoing_horizontal_fracture(self, tmp_path):
        segs = [((0, 1), (1, 1)), ((1, 1), (2, 1))]
        path = write_msh(tmp_path, msh_quad_mesh([("FRACTURE_A", segs)]))
        mdg = ingest_gmsh(path)
        assert [sd.dim for sd in mdg.subdomains] == [2, 1]
        assert interface_sizes(mdg, 2) == [2, 2]

    def test_two_crossing_fractures(self, tmp_path):
        fr = [
            ("FRACTURE_A", [((0, 1), (1, 1)), ((1, 1), (2, 1))]),
            ("FRACTURE_B", [((1, 0), (1, 1)), ((1, 1), (1, 2))]),
        ]
        path = write_msh(tmp_path, msh_quad_mesh(fr))
        mdg = ingest_gmsh(path)
        assert [sd.dim for sd in mdg.subdomains] == [2, 1, 1, 0]
        point = mdg.subdomains[3]
        assert branch_count(mdg, point) == 4

    def test_unused_node_leaves_the_sides_tagged(self, tmp_path):
        # the domain is spanned by the quads' nodes: a node that no element
        # uses, outside the unit square, moves no side
        body = msh_quad_mesh([]).replace("$Nodes\n9\n", "$Nodes\n10\n").replace(
            "\n$EndNodes", "\n10 2 2 0\n$EndNodes")
        mdg = ingest_gmsh(write_msh(tmp_path, body))
        assert mdg.matrix.num_nodes == 10
        side = mdg.matrix.tags["domain_side"]
        assert {name: int(np.sum(side == SIDE_CODE[name])) for name in SIDES} == {
            "left": 2, "right": 2, "bottom": 2, "top": 2}

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        with pytest.raises(MeshError, match="version"):
            ingest_gmsh(path)

    @pytest.mark.parametrize("text, named", [
        (b"$MeshFormat\n$EndMeshFormat\n", "missing or empty \\$MeshFormat section"),
        (MSH_HEADER.encode() + b"$Nodes\n1\n1 0 0 0 \xff\n$EndNodes\n",
         "not an ASCII mesh file"),
    ], ids=["empty-format", "not-text"])
    def test_unreadable_file_rejected(self, tmp_path, text, named):
        path = tmp_path / "bad.msh"
        path.write_bytes(text)
        with pytest.raises(MeshError, match=named):
            ingest_gmsh(path)

    def test_nonconforming_fracture_rejected(self, tmp_path):
        # a fracture edge skipping the midpoint node has no matching face
        fr = [("FRACTURE_A", [((0, 1), (2, 1))])]
        path = write_msh(tmp_path, msh_quad_mesh(fr))
        with pytest.raises(MeshError, match="does not .* coincide|not form|does not"):
            ingest_gmsh(path)


class TestTriangularContainment:
    def test_triangle_children(self):
        coarse = build_lattice("triangular", 2, 2, HORIZONTAL)
        fine = build_lattice("triangular", 4, 4, HORIZONTAL)
        maps = containment_map(coarse, fine)
        counts = np.bincount(maps[0], minlength=coarse.matrix.num_cells)
        assert np.all(counts == 4)
        # children geometrically inside the parent: compare centroid boxes
        for fc, cc in enumerate(maps[0]):
            xf = fine.matrix.cell_centers[:, fc]
            ptr, ids = coarse.matrix.cells
            poly = ids[ptr[cc]:ptr[cc + 1]]
            px, py = coarse.matrix.nodes[0, poly], coarse.matrix.nodes[1, poly]
            assert px.min() - 1e-12 <= xf[0] <= px.max() + 1e-12
            assert py.min() - 1e-12 <= xf[1] <= py.max() + 1e-12

    @pytest.mark.parametrize("level", [0, 1])
    def test_fracture_cells_lie_on_their_coarse_cell(self, level):
        # the shipped network at a coarser level and at level 2: diagonal
        # fractures, intersection points and split faces
        coarse, fine = (build_lattice("triangular", _MESH["nx"] * 2**k, _MESH["ny"] * 2**k,
                                      CONFIG_FRACTURES, box=CONFIG_BOX)
                        for k in (level, 2))
        assert fine.subdomains_of_dim(0)
        maps = containment_map(coarse, fine)
        pairs = [(c, f) for c, f in zip(coarse.subdomains, fine.subdomains) if c.dim == 1]
        assert len(pairs) == len(CONFIG_FRACTURES)
        for sd_c, sd_f in pairs:
            idx = maps[sd_f.id]
            ends = sd_c.cells[1].reshape(-1, 2)[idx]
            a, b = sd_c.nodes[:, ends[:, 0]], sd_c.nodes[:, ends[:, 1]]
            t, d = b - a, sd_f.cell_centers - a
            along = (d * t).sum(axis=0) / (t * t).sum(axis=0)
            off = np.abs(d[0] * t[1] - d[1] * t[0]) / np.hypot(*t)
            assert np.all((0.0 < along) & (along < 1.0)), sd_c.frac_num
            assert off.max() < 1e-12, sd_c.frac_num
            assert np.all(np.bincount(idx, minlength=sd_c.num_cells) == 2 ** (2 - level))

    def test_diagonal_fracture(self):
        mdg = build_lattice("triangular", 4, 4, [((0.25, 0.25), (0.75, 0.75))])
        frac = mdg.subdomains[1]
        assert frac.num_cells == 2
        n = mdg.fracture_basis()[:, 1].T
        assert np.allclose(np.abs(n[0]), np.sqrt(0.5), atol=1e-12)


def assert_same_arrays(x, y, what):
    x, y = np.asarray(x), np.asarray(y)
    assert (x.dtype, x.shape) == (y.dtype, y.shape), what
    assert x.tobytes() == y.tobytes(), what


def assert_same_grids(got, ref):
    """Bit for bit: every subdomain's arrays and tags, both mortar groups."""
    assert len(got.subdomains) == len(ref.subdomains)
    for a, b in zip(got.subdomains, ref.subdomains):
        for name in ("dim", "id", "num_cells", "num_faces", "num_nodes", "frac_num"):
            assert getattr(a, name) == getattr(b, name), (b.id, name)
        for name in ("nodes", "face_nodes", "face_cells", "cell_centers", "cell_volumes",
                     "face_centers", "face_normals", "face_areas"):
            assert_same_arrays(getattr(a, name), getattr(b, name), (b.id, name))
        for k, name in enumerate(("cell offsets", "cell nodes")):
            assert_same_arrays(a.cells[k], b.cells[k], (b.id, name))
        assert a.tags.keys() == b.tags.keys()
        for key in b.tags:
            assert_same_arrays(a.tags[key], b.tags[key], (b.id, key))
    assert list(got.mortars) == list(ref.mortars) == [2, 1]
    for dim, b in ref.mortars.items():
        a = got.mortars[dim]
        assert (a.dim, a.ids, a.lift.shape) == (b.dim, b.ids, b.lift.shape), dim
        for name in ("hi", "lo", "areas", "normals", "sides", "offsets"):
            assert_same_arrays(getattr(a, name), getattr(b, name), (dim, name))
        for name in ("indptr", "indices", "data"):
            assert_same_arrays(getattr(a.lift, name), getattr(b.lift, name), (dim, name))


def polygons(cells):
    """The per-cell node lists of cells in CSR form."""
    ptr, ids = cells
    return np.split(ids, ptr[1:-1])


def fracturize_inputs(monkeypatch, *args, **kwargs):
    """The grid the lattice generator builds and the input it handed to
    fracturize."""
    seen = []
    split = mesh_build.fracturize

    def capture(*inputs):
        seen.append(inputs)
        return split(*inputs)

    monkeypatch.setattr(mesh_build, "fracturize", capture)
    return build_lattice(*args, **kwargs), seen[0]


# an X crossing, a T junction, a kink and a fracture with two tips
CARTESIAN_NETWORK = CROSSING + [((0.25, 0.25), (0.25, 0.5)), ((0.625, 0.75), (0.875, 0.75)),
                                ((0.875, 0.75), (0.875, 0.875))]
TRIANGULAR_NETWORK = [((0.125, 0.125), (0.875, 0.875)), ((0.0, 0.5), (0.75, 0.5)),
                      ((0.25, 0.75), (0.5, 0.75)), ((0.5, 0.75), (0.625, 0.875))]


def loop_lattice(kind, nx, ny, frozen=(), perturb=0.0, seed=0):
    """The lattice nodes and cells, one square at a time: the reference for
    ``build_lattice``'s arrays. Nodes in ``frozen`` stay unperturbed."""
    xs, ys = np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1)
    nodes = np.array([[x, y] for y in ys for x in xs]).T
    cells = []
    for j in range(ny):
        for i in range(nx):
            sw, se = j * (nx + 1) + i, j * (nx + 1) + i + 1
            nw, ne = sw + nx + 1, se + nx + 1
            cells += [[sw, se, ne, nw]] if kind == "cartesian" else [[sw, se, ne], [sw, ne, nw]]
    if perturb > 0.0:
        shift = np.random.default_rng(seed).uniform(-perturb, perturb, size=nodes.shape)
        for n in range(nodes.shape[1]):
            i, j = n % (nx + 1), n // (nx + 1)
            if 0 < i < nx and 0 < j < ny and n not in frozen:
                nodes[:, n] += shift[:, n] * (xs[1] - xs[0], ys[1] - ys[0])
    return nodes, polygons_csr(cells)


@pytest.mark.parametrize("kind, nx, ny, fractures, perturb", [
    ("cartesian", 5, 3, [], 0.0),
    ("triangular", 5, 3, [], 0.0),
    ("triangular", 8, 8, TRIANGULAR_NETWORK, 0.2),
])
def test_lattice_arrays_equal_loops(monkeypatch, kind, nx, ny, fractures, perturb):
    _, (nodes, cells, paths, _) = fracturize_inputs(monkeypatch, kind, nx, ny, fractures,
                                                    perturb=perturb, seed=3)
    ref_nodes, ref_cells = loop_lattice(kind, nx, ny, {n for p in paths for n in p},
                                        perturb, seed=3)
    assert_same_arrays(nodes, ref_nodes, "nodes")
    for k, name in enumerate(("cell offsets", "cell nodes")):
        assert_same_arrays(cells[k], ref_cells[k], name)


class TestArraySplitEqualsDictSplit:
    """The array-based face numbering and fracture split against the
    per-entry reference in ``dict_fracturize``."""

    @pytest.mark.parametrize("kind, args, kwargs", [
        ("cartesian", (8, 8, CARTESIAN_NETWORK), {}),
        ("cartesian", (3, 2), {}),
        ("triangular", (8, 8, TRIANGULAR_NETWORK), {}),
        ("triangular", (8, 8, TRIANGULAR_NETWORK), dict(perturb=0.2, seed=3)),
        ("triangular", (32, 16, CONFIG_FRACTURES), dict(box=CONFIG_BOX)),
    ])
    def test_generator_grids(self, monkeypatch, kind, args, kwargs):
        mdg, (nodes, cells, paths, box) = fracturize_inputs(monkeypatch, kind, *args, **kwargs)
        assert_same_grids(mdg, dict_fracturize.fracturize(nodes, polygons(cells), paths, box))
        faces, face_cells = enumerate_faces(*cells)
        _, ref_faces, ref_cells = dict_fracturize.enumerate_faces(polygons(cells))
        assert_same_arrays(faces, np.array(ref_faces, dtype=int), "face nodes")
        assert_same_arrays(face_cells, np.array(ref_cells, dtype=int), "face cells")

    def test_same_errors(self, monkeypatch):
        _, (nodes, cells, paths, box) = fracturize_inputs(
            monkeypatch, "cartesian", 4, 4, HORIZONTAL)
        # node j * 5 + i sits at lattice point (i, j)
        bad_paths = [
            [[5]],                          # one node
            [[5, 6, 5]],                    # self-intersecting
            [[5, 6, 7], [11, 12, 14]],      # the second path skips a node
            [[6, 1, 2]],                    # runs onto the boundary
            [[7, 1, 2]],                    # the first bad segment is named
            [[5, 6, 7], [8, 7, 6]],         # overlap on a face
        ]
        for frac_paths in bad_paths:
            with pytest.raises(MeshError) as ref:
                dict_fracturize.fracturize(nodes, polygons(cells), frac_paths, box)
            with pytest.raises(MeshError, match=f"^{re.escape(str(ref.value))}$"):
                mesh_build.fracturize(nodes, cells, frac_paths, box)
        three = [[0, 1, 2], [1, 0, 3], [0, 1, 4], [1, 0, 5]]
        with pytest.raises(MeshError) as ref:
            dict_fracturize.enumerate_faces(three)
        with pytest.raises(MeshError, match=f"^{re.escape(str(ref.value))}$"):
            enumerate_faces(*polygons_csr(three))
