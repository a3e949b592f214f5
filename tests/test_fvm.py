import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from interface_laws import interface_advective, interface_darcy, interface_fourier

from mdthm.fvm import (
    BoundaryCondition,
    carried,
    mpfa_discretize,
    mpsa_discretize,
    onedim_discretize,
    upwind,
)
from mdthm.fvm.local import (
    LocalSystems,
    _scatter,
    invert_block_diagonal,
    least_squares_block_solve,
)
from mdthm.mdmesh import MeshError, build_cartesian_fractured, build_triangular_fractured

G_SH, K_S = 1.7e10, 2.2e10
LAM = K_S - G_SH


def perturbed_triangles(nx=5, ny=4, seed=2):
    return build_triangular_fractured(nx, ny, perturb=0.2, seed=seed).matrix


def linear_field_data(g, grad, const):
    p = const + grad @ g.cell_centers
    b = np.zeros(g.num_faces)
    bf = g.boundary_faces()
    b[bf] = const + grad @ g.face_centers[:, bf]
    return p, b


class TestMpfa:
    def test_uniform_field_zero_flux(self):
        g = perturbed_triangles()
        ops = mpfa_discretize(g, 1.0, BoundaryCondition.dirichlet(g))
        q = ops.flux @ np.ones(g.num_cells) + ops.bound_flux @ np.ones(g.num_faces)
        assert np.abs(q).max() < 1e-12

    def test_linear_field_exact(self):
        g = perturbed_triangles()
        ops = mpfa_discretize(g, 1.0, BoundaryCondition.dirichlet(g))
        rng = np.random.default_rng(0)
        grad, const = rng.standard_normal(2), rng.standard_normal()
        p, b = linear_field_data(g, grad, const)
        q = ops.flux @ p + ops.bound_flux @ b
        assert np.abs(q - (-(grad @ g.face_normals))).max() < 1e-12

    def test_unit_darcy_cross_section(self):
        # p = x with unit diffusivity: total flux through the right boundary
        # equals the domain height per unit depth, with negative sign for
        # q = -grad p
        g = perturbed_triangles()
        ops = mpfa_discretize(g, 1.0, BoundaryCondition.dirichlet(g))
        p, b = linear_field_data(g, np.array([1.0, 0.0]), 0.0)
        q = ops.flux @ p + ops.bound_flux @ b
        right = g.tags["domain_side"] == 2
        assert q[right].sum() == pytest.approx(-1.0, rel=1e-12)

    def test_trace_reproduces_linear_field(self):
        g = perturbed_triangles()
        ops = mpfa_discretize(g, 2.5, BoundaryCondition.dirichlet(g))
        rng = np.random.default_rng(3)
        grad, const = rng.standard_normal(2), rng.standard_normal()
        p, b = linear_field_data(g, grad, const)
        tr = ops.trace_cell @ p + ops.trace_face @ b
        assert np.abs(tr - (const + grad @ g.face_centers)).max() < 1e-12

    def test_tpfa_oracle_on_cartesian(self):
        # independent two-point scheme: t = D A / dist for each face
        g = build_cartesian_fractured(4, 4).matrix
        D = 3.0
        ops = mpfa_discretize(g, D, BoundaryCondition.dirichlet(g))
        flux = ops.flux.toarray()
        bound = ops.bound_flux.toarray()
        owner, nbr = g.face_cells
        for f in range(g.num_faces):
            expected = np.zeros(g.num_cells)
            o, n = owner[f], nbr[f]
            if n >= 0:
                dist = np.linalg.norm(g.cell_centers[:, o] - g.cell_centers[:, n])
                t = D * g.face_areas[f] / dist
                expected[o], expected[n] = t, -t
            else:
                dist = np.linalg.norm(g.cell_centers[:, o] - g.face_centers[:, f])
                t = D * g.face_areas[f] / dist
                expected[o] = t
                assert abs(bound[f, f] + t) < 1e-12
            assert np.abs(flux[f] - expected).max() < 1e-12

    def test_anisotropic_tensor(self):
        g = perturbed_triangles(6, 5, seed=9)
        tensor = np.zeros((g.num_cells, 2, 2))
        tensor[:, 0, 0], tensor[:, 1, 1], tensor[:, 0, 1] = 2.0, 0.5, 0.3
        tensor[:, 1, 0] = 0.3
        ops = mpfa_discretize(g, tensor, BoundaryCondition.dirichlet(g))
        grad = np.array([0.7, -1.2])
        p, b = linear_field_data(g, grad, 0.4)
        q = ops.flux @ p + ops.bound_flux @ b
        q_exact = -(tensor[0] @ grad) @ g.face_normals
        assert np.abs(q - q_exact).max() < 1e-12

    def test_neumann_face_flux_is_data(self):
        g = perturbed_triangles()
        side = g.tags["domain_side"]
        is_dir = np.zeros(g.num_faces, bool)
        is_dir[(side == 1) | (side == 2)] = True
        ops = mpfa_discretize(g, 1.0, BoundaryCondition(is_dir))
        neu = np.where((side == 3) | (side == 4))[0]
        b = np.zeros(g.num_faces)
        b[neu] = np.linspace(-1, 1, neu.size)
        q = ops.bound_flux @ b
        assert np.abs(q[neu] - b[neu]).max() < 1e-12

    def test_vector_source_hydrostatic(self):
        # grad p = rho g exactly cancels the gravity flux
        g = perturbed_triangles()
        ops = mpfa_discretize(g, 1.7, BoundaryCondition.dirichlet(g))
        rho_g = np.array([0.0, -9.81e3])
        p, b = linear_field_data(g, rho_g, 5.0)
        r = np.tile(rho_g, g.num_cells)
        q = ops.flux @ p + ops.bound_flux @ b + ops.vector_source @ r
        assert np.abs(q).max() < 1e-6 * 9.81e3

    def test_rejects_indefinite_tensor(self):
        g = build_cartesian_fractured(2, 2).matrix
        tensor = np.zeros((g.num_cells, 2, 2))
        tensor[:, 0, 0], tensor[:, 1, 1] = 1.0, -1.0
        with pytest.raises(MeshError):
            mpfa_discretize(g, tensor, BoundaryCondition.dirichlet(g))

    def test_deterministic_rediscretization(self):
        g = perturbed_triangles()
        bc = BoundaryCondition.dirichlet(g)
        a = mpfa_discretize(g, 1.0, bc)
        b = mpfa_discretize(g, 1.0, bc)
        assert (a.flux != b.flux).nnz == 0
        assert (a.bound_flux != b.bound_flux).nnz == 0


class TestMpsa:
    def ops(self, g, bc=None):
        bc = bc or BoundaryCondition.dirichlet(g)
        return mpsa_discretize(g, G_SH, LAM, 0.8, 8e-6 * K_S, bc)

    def test_rigid_translation_zero_traction(self):
        g = perturbed_triangles()
        ops = self.ops(g)
        u = np.tile([0.3, -0.7], g.num_cells)
        b = np.tile([0.3, -0.7], g.num_faces)
        t = ops.stress @ u + ops.bound_stress @ b
        assert np.abs(t).max() < 1e-12 * (2 * G_SH + LAM)

    def test_uniaxial_stretch_stress(self):
        # u = (x, 0): sigma_xx = 2 G + K - 2 G / nd under the chosen split
        g = perturbed_triangles()
        ops = self.ops(g)
        u = np.zeros(2 * g.num_cells)
        u[0::2] = g.cell_centers[0]
        b = np.zeros(2 * g.num_faces)
        bf = g.boundary_faces()
        b[2 * bf] = g.face_centers[0, bf]
        t = ops.stress @ u + ops.bound_stress @ b
        sxx = 2 * G_SH + K_S - 2 * G_SH / 2
        t_exact = np.vstack([sxx * g.face_normals[0], LAM * g.face_normals[1]])
        assert np.abs(t - t_exact.T.ravel()).max() < 1e-10 * sxx

    def test_random_linear_patch_hooke_oracle(self):
        g = perturbed_triangles(6, 5, seed=11)
        ops = self.ops(g)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((2, 2)) * 1e-4
        c0 = rng.standard_normal(2) * 1e-4
        u = (A @ g.cell_centers + c0[:, None]).T.ravel()
        bf = g.boundary_faces()
        bvals = (A @ g.face_centers + c0[:, None]).T.ravel()
        b = np.zeros(2 * g.num_faces)
        b[2 * bf] = bvals[2 * bf]
        b[2 * bf + 1] = bvals[2 * bf + 1]
        t = ops.stress @ u + ops.bound_stress @ b
        eps = 0.5 * (A + A.T)
        sig = 2 * G_SH * eps + LAM * np.trace(eps) * np.eye(2)
        t_exact = (sig @ g.face_normals).T.ravel()
        assert np.abs(t - t_exact).max() < 1e-10 * np.abs(sig).max()
        divu = ops.div_u @ u + ops.bound_div_u @ b
        assert np.abs(divu - np.trace(A) * g.cell_volumes).max() < 1e-12 * abs(
            np.trace(A)
        )

    def test_uniform_pressure_traction(self):
        g = perturbed_triangles()
        ops = self.ops(g)
        p = np.full(g.num_cells, 3e6)
        t = ops.grad_p @ p
        t_exact = (-0.8 * 3e6 * g.face_normals).T.ravel()
        assert np.abs(t - t_exact).max() < 1e-10 * 0.8 * 3e6

    def test_uniform_temperature_traction(self):
        g = perturbed_triangles()
        ops = self.ops(g)
        T = np.full(g.num_cells, 25.0)
        t = ops.grad_T @ T
        t_exact = (-8e-6 * K_S * 25.0 * g.face_normals).T.ravel()
        assert np.abs(t - t_exact).max() < 1e-10 * 8e-6 * K_S * 25.0

    def test_dirichlet_solve_recovers_linear_field(self):
        g = perturbed_triangles()
        ops = self.ops(g)
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 2)) * 1e-4
        u_exact = (A @ g.cell_centers).T.ravel()
        bf = g.boundary_faces()
        b = np.zeros(2 * g.num_faces)
        bvals = (A @ g.face_centers).T.ravel()
        b[2 * bf] = bvals[2 * bf]
        b[2 * bf + 1] = bvals[2 * bf + 1]
        div_signed, _ = g.cell_faces_csr()
        div_vec = sps.kron(div_signed, sps.eye(2)).tocsr()
        sys = div_vec @ ops.stress
        rhs = -div_vec @ (ops.bound_stress @ b)
        u_sol = spla.spsolve(sys.tocsc(), rhs)
        assert np.abs(u_sol - u_exact).max() < 1e-10 * np.abs(u_exact).max()

    def test_quad_patch_exactness(self):
        g = build_cartesian_fractured(4, 3).matrix
        ops = self.ops(g)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((2, 2)) * 1e-4
        u = (A @ g.cell_centers).T.ravel()
        bf = g.boundary_faces()
        bvals = (A @ g.face_centers).T.ravel()
        b = np.zeros(2 * g.num_faces)
        b[2 * bf] = bvals[2 * bf]
        b[2 * bf + 1] = bvals[2 * bf + 1]
        t = ops.stress @ u + ops.bound_stress @ b
        eps = 0.5 * (A + A.T)
        sig = 2 * G_SH * eps + LAM * np.trace(eps) * np.eye(2)
        assert np.abs(t - (sig @ g.face_normals).T.ravel()).max() < 1e-10 * np.abs(sig).max()

    def test_no_spurious_mode_on_structured_lattice(self):
        # the uniform right-triangle lattice with two Neumann sides admits a
        # checkerboard rotation mode under single-point continuity; the
        # two-point least-squares construction must keep the system regular
        g = build_triangular_fractured(4, 4).matrix
        side = g.tags["domain_side"]
        ops = self.ops(g, BoundaryCondition(np.isin(side, (3, 4))))
        div, _ = g.cell_faces_csr()
        sys = (sps.kron(div, sps.eye(2)) @ ops.stress).toarray()
        sys /= np.abs(sys).max(axis=1)[:, None]
        s = np.linalg.svd(sys, compute_uv=False)
        assert s[0] / s[-1] < 1e4


class TestLocalSystems:
    @pytest.mark.parametrize("grid", [build_cartesian_fractured(1, 1).matrix,
                                      build_triangular_fractured(1, 1).matrix])
    @pytest.mark.parametrize("dirichlet", [True, False])
    def test_smallest_grids_reproduce_linear_fields(self, grid, dirichlet):
        # on the single cell, Dirichlet faces leave the source kinds (S, P, T)
        # empty and Neumann faces the cell kinds (N, U)
        g, rng = grid, np.random.default_rng(4)
        bc = BoundaryCondition(np.full(g.num_faces, dirichlet))
        bf = g.boundary_faces()
        grad, const = rng.standard_normal(2), rng.standard_normal()
        p = const + grad @ g.cell_centers
        b = np.zeros(g.num_faces)
        b[bf] = (const + grad @ g.face_centers if dirichlet else -2.0 * grad @ g.face_normals)[bf]
        ops = mpfa_discretize(g, 2.0, bc)
        q = ops.flux @ p + ops.bound_flux @ b
        assert np.abs(q + 2.0 * grad @ g.face_normals).max() < 1e-12
        trace = ops.trace_cell @ p + ops.trace_face @ b
        assert np.abs(trace - (const + grad @ g.face_centers)).max() < 1e-12

        A = rng.standard_normal((2, 2)) * 1e-4
        eps = 0.5 * (A + A.T)
        sig = 2 * G_SH * eps + LAM * np.trace(eps) * np.eye(2)
        u = (A @ g.cell_centers).T.ravel()
        bvals = (A @ g.face_centers if dirichlet else sig @ g.face_normals).T.ravel()
        b = np.zeros(2 * g.num_faces)
        b[2 * bf], b[2 * bf + 1] = bvals[2 * bf], bvals[2 * bf + 1]
        ops = mpsa_discretize(g, G_SH, LAM, 0.8, 8e-6 * K_S, bc)
        t = ops.stress @ u + ops.bound_stress @ b
        assert np.abs(t - (sig @ g.face_normals).T.ravel()).max() < 1e-10 * np.abs(sig).max()
        div = ops.div_u @ u + ops.bound_div_u @ b
        assert np.abs(div - np.trace(A) * g.cell_volumes).max() < 1e-12 * abs(np.trace(A))

    def test_stacked_product_equals_product_per_kind(self, monkeypatch):
        # one product of the inverse with the stacked right-hand sides gives
        # the bits of one product per kind
        solved, solve = [], LocalSystems.solve

        def recording(local, solver):
            solved.append((local, solver))
            return solve(local, solver)

        monkeypatch.setattr(LocalSystems, "solve", recording)
        g = perturbed_triangles(6, 5, seed=9)
        bc = BoundaryCondition(np.isin(g.tags["domain_side"], (1, 3)))
        mpfa_discretize(g, 1.5, bc)
        mpsa_discretize(g, G_SH, LAM, 0.8, 8e-6 * K_S, bc)
        assert [solver for _, solver in solved] == [invert_block_diagonal,
                                                    least_squares_block_solve]
        for local, solver in solved:
            m_inv = solver(local.top.node_ids, local.row_ptr, local.col_ptr, local.triplets())
            rhs = local.right_hand_sides()
            grads = solve(local, solver)
            assert list(grads) == list(rhs) == list(local.kinds)
            for kind, got in grads.items():
                ref = m_inv @ rhs[kind]
                assert got.nnz > 0 and got.shape == ref.shape
                assert got.indptr.dtype == ref.indptr.dtype
                assert got.indices.dtype == ref.indices.dtype
                assert np.array_equal(got.indptr, ref.indptr)
                assert np.array_equal(got.indices, ref.indices)
                assert got.data.tobytes() == ref.data.tobytes()


def local_batch(blocks, extra=(0.1, 0.2), seed=5):
    """Node ids, offsets and triplets of a stack of node blocks.

    Each node's triplets keep their own order and the nodes' triplets are
    interleaved at random. Slot (0, 0) gets the ``extra`` summands, whose
    sum depends on the order in which they are added.
    """
    rng = np.random.default_rng(seed)
    trip = []
    for node, block in enumerate(blocks):
        trip += [(node, i, j, v) for (i, j), v in np.ndenumerate(block)]
        trip += [(node, 0, 0, v) for v in extra]
    labels = rng.permutation([t[0] for t in trip])
    order = np.argsort(labels, kind="stable")
    triplets = [np.empty(len(trip), dtype=dt) for dt in (int, int, int, float)]
    for k, t in enumerate(trip):
        for arr, x in zip(triplets, t):
            arr[order[k]] = x
    row_ptr = np.cumsum([0] + [b.shape[0] for b in blocks])
    col_ptr = np.cumsum([0] + [b.shape[1] for b in blocks])
    return 10 + 3 * np.arange(len(blocks)), row_ptr, col_ptr, tuple(triplets)


def invert_each_block(invert, node_ids, row_ptr, col_ptr, triplets):
    """Reference: fill and invert every node's block on its own, by shape
    and then in node order."""
    npos, lr, lc, val = triplets
    n_rows, n_cols = np.diff(row_ptr), np.diff(col_ptr)
    rows, cols, vals = [], [], []
    for r, c in np.unique(np.stack([n_rows, n_cols], axis=1), axis=0):
        for node in np.where((n_rows == r) & (n_cols == c))[0]:
            block = np.zeros((r, c))
            mine = npos == node
            np.add.at(block, (lr[mine], lc[mine]), val[mine])
            rr, cc = np.meshgrid(np.arange(c), np.arange(r), indexing="ij")
            rows.append((col_ptr[node] + rr).ravel())
            cols.append((row_ptr[node] + cc).ravel())
            vals.append(invert(block).ravel())
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(col_ptr[-1], row_ptr[-1]),
    )


def coo_scatter(parts, row_ptr, col_ptr):
    """Reference: the inverse blocks scattered as COO triplets, which scipy
    sorts into CSR."""
    rows, cols, vals = [], [], []
    for sel_nodes, inv, inverse in parts:
        rr, cc = np.meshgrid(np.arange(inv.shape[1]), np.arange(inv.shape[2]), indexing="ij")
        rows.append((col_ptr[sel_nodes][:, None, None] + rr).ravel())
        cols.append((row_ptr[sel_nodes][:, None, None] + cc).ravel())
        vals.append(inv[inverse].ravel())
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(col_ptr[-1], row_ptr[-1]),
    )


class TestLocalSolve:
    @staticmethod
    def assert_bitwise_equal(a, b):
        assert a.format == b.format == "csr" and a.shape == b.shape
        assert a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.has_sorted_indices and b.has_sorted_indices
        assert a.has_canonical_format and b.has_canonical_format

    @staticmethod
    def repeated_stack(shapes):
        """Blocks of several shapes. Per shape, two distinct blocks repeat;
        one copy of the first has its zero entry written -0.0, and one
        differs from it in the last bit of its last entry."""
        rng = np.random.default_rng(3)
        stack = []
        for r, c in shapes:
            a, b = rng.uniform(-1.0, 1.0, (2, r, c)) + 2.0 * np.eye(r, c)
            a[r - 1, 0] = 0.0
            neg_zero, last_bit = a.copy(), a.copy()
            neg_zero[r - 1, 0] = -0.0
            last_bit[-1, -1] = np.nextafter(a[-1, -1], np.inf)
            stack.append([a, b, a, neg_zero, last_bit, b, a])
        # interleave the shapes node by node
        return [block for group in zip(*stack) for block in group]

    def test_least_squares_repeats_equal_blockwise_pinv(self):
        blocks = self.repeated_stack([(3, 2), (4, 2), (2, 2), (5, 4)])
        # a rank-deficient corner-like block, repeated
        blocks += [np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])] * 2
        batch = local_batch(blocks)
        got = least_squares_block_solve(*batch)
        ref = invert_each_block(lambda m: np.linalg.pinv(m, rcond=1e-12), *batch)
        self.assert_bitwise_equal(got, ref)

    def test_square_repeats_equal_blockwise_inverse(self):
        batch = local_batch(self.repeated_stack([(4, 4), (2, 2), (3, 3)]))
        got = invert_block_diagonal(*batch)
        self.assert_bitwise_equal(got, invert_each_block(np.linalg.inv, *batch))

    def test_scatter_equals_coo_construction(self):
        # each shape's distinct inverses, repeated over nodes that interleave
        # the shapes, with -0.0, subnormal and explicit zero entries
        rng = np.random.default_rng(7)
        shapes = [(3, 2), (2, 2), (4, 2), (5, 4), (3, 2), (2, 2), (1, 1)] * 5
        row_ptr = np.cumsum([0] + [r for r, _ in shapes])
        col_ptr = np.cumsum([0] + [c for _, c in shapes])
        n_rows, n_cols = np.diff(row_ptr), np.diff(col_ptr)
        parts = []
        for r, c in sorted(set(shapes)):
            sel_nodes = np.flatnonzero((n_rows == r) & (n_cols == c))
            inv = rng.uniform(-1.0, 1.0, (2, c, r))
            inv[0, 0, 0], inv[1, -1, -1], inv[1, 0, -1] = -0.0, 0.0, 5e-324
            inverse = rng.integers(0, 2, sel_nodes.size)
            parts.append((sel_nodes, inv, inverse))
        got = _scatter(parts, row_ptr, col_ptr)
        self.assert_bitwise_equal(got, coo_scatter(parts, row_ptr, col_ptr))
        assert got.nnz == int(np.sum(n_rows * n_cols))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_region_names_first_node(self, bad):
        square = np.array([[2.0, 0.5], [0.5, 3.0]])
        tall = np.array([[2.0, 0.5], [0.5, 3.0], [1.0, 1.0]])
        for good, solve in ((square, invert_block_diagonal),
                            (tall, least_squares_block_solve)):
            bad_a, bad_b = good.copy(), good.copy()
            bad_a[1, 0], bad_b[0, 1] = bad, bad
            for blocks in self.bad_stacks(good, bad_a, bad_b):
                node_ids, row_ptr, col_ptr, triplets = local_batch(blocks, extra=())
                with pytest.raises(MeshError, match="non-finite entry in the interaction "
                                                    f"region at node {node_ids[4]}$"):
                    solve(node_ids, row_ptr, col_ptr, triplets)

    @staticmethod
    def bad_stacks(good, bad_a, bad_b):
        """Stacks whose first bad node is node 4: the bad block repeats at
        later nodes, or another bad block follows it, in either byte order."""
        head = [good, 2.0 * good, 3.0 * good, good]
        return [
            head + [bad_a, good, bad_a, bad_a],
            head + [bad_a, 2.0 * good, bad_b],
            head + [bad_b, 3.0 * good, bad_a],
        ]

    def test_degenerate_region_names_first_node(self):
        good = np.array([[2.0, 0.5], [0.5, 3.0], [1.0, 1.0]])
        tiny = np.array([[1e-320, 0.0], [0.0, 1e-320], [0.0, 0.0]])
        tinier = np.array([[2e-320, 0.0], [0.0, 1e-320], [0.0, 0.0]])
        for blocks in self.bad_stacks(good, tiny, tinier):
            node_ids, row_ptr, col_ptr, triplets = local_batch(blocks, extra=())
            with np.errstate(all="ignore"), pytest.raises(
                    MeshError, match=f"degenerate interaction region at node {node_ids[4]}$"):
                least_squares_block_solve(node_ids, row_ptr, col_ptr, triplets)

    def test_singular_region_names_first_node(self):
        good = np.array([[2.0, 0.5], [0.5, 3.0]])
        rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])
        zero_row = np.array([[3.0, 1.0], [0.0, 0.0]])
        for blocks in self.bad_stacks(good, rank_one, zero_row):
            node_ids, row_ptr, col_ptr, triplets = local_batch(blocks, extra=())
            with pytest.raises(
                    MeshError, match=f"singular interaction region at node {node_ids[4]}$"):
                invert_block_diagonal(node_ids, row_ptr, col_ptr, triplets)


class TestOnedim:
    def frac_grid(self):
        mdg = build_cartesian_fractured(4, 2, [((0.0, 0.5), (1.0, 0.5))])
        return mdg.subdomains[1]

    def test_uniform_zero_flux(self):
        g = self.frac_grid()
        ops = onedim_discretize(g, 2.0, BoundaryCondition.dirichlet(g))
        q = ops.flux @ np.ones(g.num_cells) + ops.bound_flux @ np.ones(g.num_faces)
        assert np.abs(q).max() < 1e-12

    def test_linear_field_exact(self):
        g = self.frac_grid()
        ops = onedim_discretize(g, 2.0, BoundaryCondition.dirichlet(g))
        p = g.cell_centers[0]
        b = np.zeros(g.num_faces)
        bf = g.boundary_faces()
        b[bf] = g.face_centers[0, bf]
        q = ops.flux @ p + ops.bound_flux @ b
        # q = -D dp/dx . n
        q_exact = -2.0 * g.face_normals[0]
        assert np.abs(q - q_exact).max() < 1e-12
        tr = ops.trace_cell @ p + ops.trace_face @ b
        assert np.abs(tr - g.face_centers[0]).max() < 1e-12

    def test_heterogeneous_harmonic(self):
        g = self.frac_grid()
        D = np.array([1.0, 4.0, 2.0, 8.0])
        ops = onedim_discretize(g, D, BoundaryCondition.dirichlet(g))
        # interior face between cells 0 and 1: harmonic two-point value
        f = int(np.where(g.face_cells[1] >= 0)[0][0])
        o, n = g.face_cells[:, f]
        d = 0.125
        t = 1.0 / (d / D[o] + d / D[n])
        assert ops.flux[f, o] == pytest.approx(t, rel=1e-12)
        assert ops.flux[f, n] == pytest.approx(-t, rel=1e-12)

    def test_reevaluated_form_equals_a_fresh_one(self):
        # the static form re-evaluated at a new diffusivity gives the
        # operators discretised at it, and applies them without forming them
        g = self.frac_grid()
        is_dir = np.zeros(g.num_faces, dtype=bool)
        is_dir[g.boundary_faces()[0]] = True
        bc = BoundaryCondition(is_dir)
        D = np.array([1.0, 4.0, 2.0, 8.0])
        moved, fresh = onedim_discretize(g, 1.0, bc).at(D), onedim_discretize(g, D, bc)
        rng = np.random.default_rng(5)
        for name in ("flux", "bound_flux", "trace_cell", "trace_face", "vector_source",
                     "trace_vector_source"):
            op = getattr(fresh, name)
            assert (getattr(moved, name) != op).nnz == 0, name
            v = rng.standard_normal(op.shape[1])
            assert np.abs(moved.apply(name, v) - op @ v).max() <= 1e-12 * np.abs(op @ v).max()


class TestUpwind:
    def grid(self):
        return build_cartesian_fractured(3, 3).matrix

    @staticmethod
    def advective(g, q, w, w_bc=None):
        """Face advective fluxes q times the carried value, as assembly and
        the balance report compose them."""
        cells, inflow = upwind(g, q)
        w_bc = np.zeros(g.num_faces) if w_bc is None else w_bc
        return q * carried(cells, inflow, w, w_bc)

    def test_zero_flux(self):
        g = self.grid()
        assert np.abs(self.advective(g, np.zeros(g.num_faces), np.ones(g.num_cells))).max() == 0

    def test_positive_flux_uses_owner(self):
        g = self.grid()
        q = np.ones(g.num_faces)
        w = np.arange(g.num_cells, dtype=float)
        out = self.advective(g, q, w)
        interior = g.face_cells[1] >= 0
        assert np.allclose(out[interior], w[g.face_cells[0, interior]])

    def test_sign_flip_switches_side(self):
        g = self.grid()
        w = np.arange(g.num_cells, dtype=float) + 1.0
        interior = np.where(g.face_cells[1] >= 0)[0]
        out_pos = self.advective(g, np.ones(g.num_faces), w)
        out_neg = self.advective(g, -np.ones(g.num_faces), w)
        o, n = g.face_cells[:, interior]
        assert np.allclose(out_pos[interior], w[o])
        assert np.allclose(out_neg[interior], -w[n])

    def test_uniform_field_divergence_identity(self):
        # with uniform carried quantity, advective divergence equals
        # w times the mass-flux divergence
        g = self.grid()
        rng = np.random.default_rng(1)
        q = rng.standard_normal(g.num_faces)
        w0 = 3.7
        adv = self.advective(g, q, np.full(g.num_cells, w0), np.full(g.num_faces, w0))
        div, _ = g.cell_faces_csr()
        assert np.allclose(div @ adv, w0 * (div @ q), atol=1e-12)

    def test_excluded_faces_skipped(self):
        g = self.grid()
        q = np.ones(g.num_faces)
        exclude = np.zeros(g.num_faces, bool)
        exclude[2] = True
        cells, inflow = upwind(g, q, exclude)
        assert cells[2] == -1 and not inflow[2]


class TestInterfaceLaws:
    def test_darcy_zero_at_equal_pressure(self):
        assert interface_darcy(1e5, 1e5, 5e-4, 2e-8, 1e-3) == 0.0

    def test_darcy_hand_value(self):
        # cubic-law permeability of a = 5e-4 with a 1e5 pressure drop:
        # (2.0833e-8 / 1e-3) * (2 / 5e-4) * 1e5 = 8.3333e3 per unit area
        kappa = (5e-4) ** 2 / 12.0
        nu = interface_darcy(0.0, 1e5, 5e-4, kappa, 1e-3)
        assert nu == pytest.approx(-8.3333333333e3, rel=1e-6)

    def test_darcy_hydrostatic_equilibrium(self):
        rho, g_vec = 1e3, np.array([0.0, -9.81])
        n_h = np.array([[0.0], [1.0]])
        a = 1e-3
        dp = rho * 9.81 * (-1.0) * a / 2.0  # (2/a) dp = rho g . n
        nu = interface_darcy(0.0, dp, a, 1e-8, 1e-3, rho_l=rho, gravity=g_vec, n_h=n_h)
        assert np.abs(nu).max() < 1e-12 * rho * 9.81

    def test_darcy_rejects_zero_aperture(self):
        with pytest.raises(MeshError):
            interface_darcy(0.0, 1.0, 0.0, 1e-8, 1e-3)

    def test_fourier_zero_and_hand_value(self):
        assert interface_fourier(300.0, 300.0, 1e-3, 0.6) == 0.0
        nu = interface_fourier(300.0, 310.0, 1e-3, 0.6)
        assert nu == pytest.approx(-0.6 * 2000.0 * 10.0, rel=1e-12)

    def test_fourier_aperture_scaling(self):
        nu1 = interface_fourier(0.0, 1.0, 1e-3, 0.6)
        nu2 = interface_fourier(0.0, 1.0, 2e-3, 0.6)
        assert nu1 == pytest.approx(2.0 * nu2, rel=1e-12)

    def test_advective_branches(self):
        assert interface_advective(0.0, 5.0, 7.0) == 0.0
        assert interface_advective(2.0, 5.0, 7.0) == 10.0
        assert interface_advective(-2.0, 5.0, 7.0) == -14.0
