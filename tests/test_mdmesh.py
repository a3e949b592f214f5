import numpy as np
import pytest

from mdthm.mdmesh import (
    MeshError,
    build_cartesian_fractured,
    build_triangular_fractured,
    containment_map,
    ingest_gmsh,
    refine,
)
from mdthm.mdmesh.mortar import SIDE_J


HORIZONTAL = [((0.0, 0.5), (1.0, 0.5))]
CROSSING = [((0.0, 0.5), (1.0, 0.5)), ((0.5, 0.0), (0.5, 1.0))]


def closure_defect(mdg):
    return max(sd.check_closure() for sd in mdg.subdomains if sd.dim > 0)


def branch_count(mdg, point):
    """Mortar cells between the fractures and one intersection point."""
    return int(np.sum(mdg.mortars[1].lo == mdg.grids[0].cell_start[point.id]))


def walls_of(mdg, frac):
    """The j- and k-side interfaces of a fracture."""
    return sorted((i for i in mdg.interfaces if i.low_id == frac.id and i.high_id == 0),
                  key=lambda i: i.side)


class TestCartesianBuilder:
    def test_unfractured_counts(self):
        mdg = build_cartesian_fractured(2, 2)
        g = mdg.matrix
        assert g.num_cells == 4
        assert g.num_faces == 12
        assert len(mdg.subdomains) == 1
        assert len(mdg.interfaces) == 0

    def test_single_fracture_counts(self):
        mdg = build_cartesian_fractured(2, 2, HORIZONTAL)
        assert [sd.dim for sd in mdg.subdomains] == [2, 1]
        frac = mdg.subdomains[1]
        assert frac.num_cells == 2
        assert len(mdg.interfaces) == 2
        assert all(i.num_cells == 2 for i in mdg.interfaces)
        # two duplicated matrix faces per fracture cell
        assert mdg.matrix.tags["internal"].sum() == 4
        assert mdg.matrix.num_faces == 14

    def test_nested_refinement_partition(self):
        coarse = build_cartesian_fractured(2, 2, HORIZONTAL)
        fine = refine(coarse, 2)
        maps = containment_map(coarse, fine)
        counts = np.bincount(maps[0], minlength=coarse.matrix.num_cells)
        assert np.all(counts == 4)
        counts_1d = np.bincount(maps[1], minlength=2)
        assert np.all(counts_1d == 2)

    def test_offgrid_segment_rejected(self):
        with pytest.raises(MeshError, match="grid node"):
            build_cartesian_fractured(2, 2, [((0.0, 0.3), (1.0, 0.3))])
        with pytest.raises(MeshError):
            build_cartesian_fractured(2, 2, [((0.0, 0.0), (1.0, 1.0))])

    def test_boundary_segment_rejected(self):
        with pytest.raises(MeshError, match="boundary"):
            build_cartesian_fractured(2, 2, [((0.0, 0.0), (1.0, 0.0))])


class TestGeometry:
    @pytest.mark.parametrize("builder", [build_cartesian_fractured, build_triangular_fractured])
    def test_closure(self, builder):
        mdg = builder(4, 4, CROSSING)
        assert closure_defect(mdg) < 1e-12

    def test_perturbed_closure(self):
        mdg = build_triangular_fractured(6, 6, perturb=0.2, seed=3)
        assert closure_defect(mdg) < 1e-12
        assert np.all(mdg.matrix.cell_volumes > 0)

    def test_duplicated_face_normals_opposite(self):
        mdg = build_cartesian_fractured(2, 2, HORIZONTAL)
        intf_j, intf_k = walls_of(mdg, mdg.subdomains[1])
        g = mdg.matrix
        for c in range(2):
            nj = g.face_normals[:, intf_j.high_faces[c]]
            nk = g.face_normals[:, intf_k.high_faces[c]]
            assert np.allclose(nj + nk, 0.0, atol=1e-12)

    def test_volumes_positive(self):
        mdg = build_triangular_fractured(4, 4, CROSSING)
        for sd in mdg.subdomains:
            assert np.all(sd.cell_volumes > 0)


class TestCrossingTopology:
    def test_entity_enumeration(self):
        mdg = build_cartesian_fractured(2, 2, CROSSING)
        dims = [sd.dim for sd in mdg.subdomains]
        assert dims == [2, 1, 1, 0]
        point = mdg.subdomains[3]
        assert point.num_cells == 1
        # one interface of one mortar cell per incident 1d branch: an X
        # crossing has four
        assert branch_count(mdg, point) == 4
        assert len(mdg.mortars[1].ids) == 4
        # the crossing splits each fracture grid internally
        for frac in mdg.subdomains[1:3]:
            assert frac.tags["internal"].sum() == 2

    def test_kink_forms_point(self):
        # two fractures meeting at an endpoint: an intersection with 2 branches
        frs = [((0.25, 0.5), (0.5, 0.5)), ((0.5, 0.5), (0.75, 0.75))]
        mdg = build_triangular_fractured(4, 4, frs)
        points = mdg.subdomains_of_dim(0)
        assert len(points) == 1
        assert branch_count(mdg, points[0]) == 2


class TestDisplacementJump:
    def setup_method(self):
        self.mdg = build_cartesian_fractured(3, 2, [((0.0, 0.5), (1.0, 0.5))])
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
        intf_j, intf_k = walls_of(self.mdg, self.frac)

        def to_cells(intf):
            # a wall's mortar displacements onto the fracture cells
            lift = np.zeros((2 * nc, 2 * intf.num_cells))
            for m, c in enumerate(intf.low_cells):
                lift[2 * c:2 * c + 2, 2 * m:2 * m + 2] = np.eye(2)
            return lift

        expected = (to_cells(intf_k) @ u_k - to_cells(intf_j) @ u_j).reshape(nc, 2).T
        assert np.allclose(self.jump(u_j, u_k), expected, atol=1e-15)


class TestInheritAperture:
    def test_means(self):
        mdg = build_cartesian_fractured(2, 2, CROSSING)
        point = mdg.subdomains_of_dim(0)[0]
        f1, f2 = mdg.subdomains_of_dim(1)
        ap = np.concatenate([np.full(f1.num_cells, 1e-3), np.full(f2.num_cells, 3e-3)])
        a = mdg.inherit_aperture(ap)[mdg.grids[0].cell_start[point.id]]
        assert a == pytest.approx(2e-3)

    def test_mean_of_equal(self):
        mdg = build_cartesian_fractured(2, 2, CROSSING)
        point = mdg.subdomains_of_dim(0)[0]
        ap = np.full(mdg.grids[1].num_cells, 7e-4)
        assert mdg.inherit_aperture(ap)[mdg.grids[0].cell_start[point.id]] == pytest.approx(7e-4)

    def test_three_branches(self):
        # T junction: one throughgoing fracture (2 branches) and one abutting
        frs = [((0.0, 0.5), (1.0, 0.5)), ((0.5, 0.0), (0.5, 0.5))]
        mdg = build_cartesian_fractured(2, 2, frs)
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


def msh_quad_mesh(fractures):
    """2x2 unit-square quad mesh with optional fracture line elements."""
    nodes = []
    nid = {}
    k = 1
    for j in range(3):
        for i in range(3):
            nid[(i, j)] = k
            nodes.append(f"{k} {i * 0.5} {j * 0.5} 0")
            k += 1
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
    for j in range(2):
        for i in range(2):
            n = [nid[(i, j)], nid[(i + 1, j)], nid[(i + 1, j + 1)], nid[(i, j + 1)]]
            elems.append(f"{eid} 3 2 10 10 " + " ".join(map(str, n)))
            eid += 1
    body = "$PhysicalNames\n{}\n{}\n$EndPhysicalNames\n".format(
        len(phys_names), "\n".join(phys_names)
    )
    body += "$Nodes\n9\n" + "\n".join(nodes) + "\n$EndNodes\n"
    body += f"$Elements\n{len(elems)}\n" + "\n".join(elems) + "\n$EndElements\n"
    return body


class TestGmshIngestion:
    def test_unit_square_no_fractures(self, tmp_path):
        path = write_msh(tmp_path, msh_quad_mesh([]))
        mdg = ingest_gmsh(path)
        assert len(mdg.subdomains) == 1
        assert len(mdg.interfaces) == 0
        assert mdg.matrix.num_cells == 4

    def test_throughgoing_horizontal_fracture(self, tmp_path):
        segs = [((0, 1), (1, 1)), ((1, 1), (2, 1))]
        path = write_msh(tmp_path, msh_quad_mesh([("FRACTURE_A", segs)]))
        mdg = ingest_gmsh(path)
        assert [sd.dim for sd in mdg.subdomains] == [2, 1]
        assert len(mdg.interfaces) == 2

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

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        with pytest.raises(MeshError, match="version"):
            ingest_gmsh(path)

    def test_nonconforming_fracture_rejected(self, tmp_path):
        # a fracture edge skipping the midpoint node has no matching face
        fr = [("FRACTURE_A", [((0, 1), (2, 1))])]
        path = write_msh(tmp_path, msh_quad_mesh(fr))
        with pytest.raises(MeshError, match="does not .* coincide|not form|does not"):
            ingest_gmsh(path)


class TestTriangularContainment:
    def test_triangle_children(self):
        coarse = build_triangular_fractured(2, 2, HORIZONTAL)
        fine = refine(coarse, 2)
        maps = containment_map(coarse, fine)
        counts = np.bincount(maps[0], minlength=coarse.matrix.num_cells)
        assert np.all(counts == 4)
        # children geometrically inside the parent: compare centroid boxes
        for fc, cc in enumerate(maps[0]):
            xf = fine.matrix.cell_centers[:, fc]
            poly = coarse.matrix.cell_nodes[cc]
            px, py = coarse.matrix.nodes[0, poly], coarse.matrix.nodes[1, poly]
            assert px.min() - 1e-12 <= xf[0] <= px.max() + 1e-12
            assert py.min() - 1e-12 <= xf[1] <= py.max() + 1e-12

    def test_diagonal_fracture(self):
        mdg = build_triangular_fractured(4, 4, [((0.25, 0.25), (0.75, 0.75))])
        frac = mdg.subdomains[1]
        assert frac.num_cells == 2
        n = mdg.fracture_basis()[:, 1].T
        assert np.allclose(np.abs(n[0]), np.sqrt(0.5), atol=1e-12)
