"""The node-local systems of the multi-point schemes, gathered, inverted and
applied in one place.

MPFA and MPSA both solve, per interaction region (grid node), for the
gradients of the subcells around the node. :class:`LocalSystems` holds what
the two share: it accumulates the coefficients of the local matrix, ``width``
gradient components per subcell, into its flat block storage as they are
added, and gathers the right-hand sides by kind (cell values, boundary data,
sources, ...); it inverts the matrix with the solver it is given and applies
the inverse to each kind in its own sparse product. Each scheme adds only
its conditions on the subfaces and the operators it reads off the gradients.

The solvers invert blocks of equal shape batchwise. Blocks are compared by
their bytes and each distinct block is inverted once; on a uniformly refined
grid most interior interaction regions repeat. A repeated block receives the
bits of its one inversion, so the operators are the same as if every block
had been inverted on its own.

Node k's block fills rows ``row_ptr[k]:row_ptr[k + 1]`` and columns
``col_ptr[k]:col_ptr[k + 1]`` of the local-system matrix, and its inverse
the transposed ranges of the inverse. Both are stored flat, block after
block in node order and each block row-major (:func:`_block_starts`), so
that the inverse's flat array is its CSR data. The matrix's flat array is
the only copy of it that exists: it is allocated with the local systems,
and a solver drops it before it scatters the inverse.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError


def csr_from_parts(parts, shape) -> sps.csr_matrix:
    """The CSR matrix of a list of (rows, cols, values) arrays, entries that
    share a slot summed; no parts give an empty matrix."""
    if not parts:
        return sps.csr_matrix(shape)
    rows, cols, vals = map(np.concatenate, zip(*parts))
    return sps.csr_matrix((vals, (rows, cols)), shape=shape)


class LocalSystems:
    """The local systems of one scheme on a :class:`SubcellTopology`.

    Node k's equations are rows ``row_ptr[k]:row_ptr[k + 1]``; its unknowns
    are the ``width`` gradient components of each of its subcells, in
    subcell order. ``kinds`` maps each kind of right-hand side to its number
    of columns. Conditions are added for the subfaces ``sel``, in the local
    rows ``rows[sel]``. :meth:`add_matrix` sums the entries of the matrix
    that share a slot in the order they are added, so that order fixes its
    bits. The systems are solved once: :meth:`solve` hands ``flat`` over.
    """

    def __init__(self, top, row_ptr, width, kinds):
        self.top, self.row_ptr, self.width, self.kinds = top, row_ptr, width, kinds
        self.col_ptr = width * top.sc_node_ptr
        self._starts = _block_starts(row_ptr, self.col_ptr)
        self.flat = np.zeros(self._starts[-1])  # the local matrix, block after block
        self._rhs = {kind: [] for kind in kinds}  # (row, col, value) arrays

    def add_matrix(self, sel, rows, sc, coeffs):
        """Coefficients (n_sel, width) on the gradient of subcell ``sc[sel]``,
        added in place; entries that share a slot are summed in the order
        they are added."""
        npos = self.top.sf_node_pos[sel]
        n_cols = self.col_ptr[npos + 1] - self.col_ptr[npos]
        first = (self._starts[npos] + rows[sel] * n_cols
                 + self.width * self.top.sc_local[sc[sel]])
        np.add.at(self.flat, first[:, None] + np.arange(self.width), coeffs)

    def add_rhs(self, kind, sel, rows, cols, vals):
        """Values on columns ``cols`` of the right-hand side ``kind``."""
        self._rhs[kind].append((self.row_ptr[self.top.sf_node_pos[sel]] + rows[sel], cols, vals))

    def right_hand_sides(self) -> dict:
        """Per kind, the right-hand side as a (local rows) x (kind) matrix."""
        return {kind: csr_from_parts(self._rhs[kind], (int(self.row_ptr[-1]), n))
                for kind, n in self.kinds.items()}

    def solve(self, solver) -> dict:
        """Per kind, the gradients as a (local columns) x (kind) matrix.

        ``solver`` is :func:`invert_block_diagonal` or
        :func:`least_squares_block_solve`; it is handed the flat local
        matrix, which these systems let go of. Its inverse meets each kind's
        right-hand side in its own product.
        """
        inverse = solver(self.top.node_ids, self.row_ptr, self.col_ptr, self._release())
        return {kind: inverse @ rhs for kind, rhs in self.right_hand_sides().items()}

    def _release(self) -> np.ndarray:
        """The flat local matrix, no longer held here, so that the solver
        holds its only reference."""
        flat, self.flat = self.flat, None
        return flat


def invert_block_diagonal(node_ids, row_ptr, col_ptr, flat):
    """Invert the block-diagonal local-system matrix.

    ``flat`` holds one square block per node, stored flat; the distinct
    blocks of each size are inverted in one LAPACK batch. Returns the
    inverse as a global sparse matrix in the row/col numbering given by the
    per-node offsets. Raises naming the first offending node if a block is
    not finite, singular or hopelessly conditioned.
    """
    if not np.array_equal(np.diff(row_ptr), np.diff(col_ptr)):
        raise MeshError("local systems must be square")
    parts = []
    for sel_nodes, blocks, inverse in _distinct_blocks(node_ids, row_ptr, col_ptr, flat):
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as err:
            singular = np.abs(np.linalg.det(blocks)) < 1e-300
            bad = _first_node(node_ids, sel_nodes, singular[inverse])
            raise MeshError(f"singular interaction region at node {bad}") from err
        defect = np.abs(blocks @ inv - np.eye(blocks.shape[1])).max(axis=(1, 2))
        failed = ~np.isfinite(inv).all(axis=(1, 2)) | (defect > 1e-6)
        if np.any(failed):
            bad = _first_node(node_ids, sel_nodes, failed[inverse])
            raise MeshError(f"degenerate interaction region at node {bad}")
        parts.append((sel_nodes, inv, inverse))
    del flat  # the scatter needs only the distinct inverses
    return _scatter(parts, row_ptr, col_ptr)


def least_squares_block_solve(node_ids, row_ptr, col_ptr, flat):
    """Least-squares pseudo-inverse of rectangular local systems.

    ``flat`` holds the blocks, stored flat. Blocks may have more rows than
    columns; the returned sparse matrix maps the stacked right-hand sides to
    the least-squares gradient solution, block by block. A block with fewer
    rows than columns, or with an entry that is not finite, is rejected. A
    rank-deficient block is not: it gets its Moore-Penrose inverse, and only
    that inverse's finiteness is checked.
    """
    n_rows, n_cols = np.diff(row_ptr), np.diff(col_ptr)
    if np.any(n_rows < n_cols):
        bad = node_ids[int(np.argmax(n_rows < n_cols))]
        raise MeshError(f"local system with fewer equations than unknowns at node {bad}")
    parts = []
    for sel_nodes, blocks, inverse in _distinct_blocks(node_ids, row_ptr, col_ptr, flat):
        # The Moore-Penrose inverse handles regions where a gradient
        # component is legitimately unconstrained: at a corner between two
        # traction boundaries the local rotation is free, and every derived
        # quantity (tractions, divergence) is invariant to it.
        pinv = np.linalg.pinv(blocks, rcond=1e-12)
        failed = ~np.isfinite(pinv).all(axis=(1, 2))
        if np.any(failed):
            bad = _first_node(node_ids, sel_nodes, failed[inverse])
            raise MeshError(f"degenerate interaction region at node {bad}")
        parts.append((sel_nodes, pinv, inverse))
    del flat  # the scatter needs only the distinct inverses
    return _scatter(parts, row_ptr, col_ptr)


def _block_starts(row_ptr, col_ptr):
    """Offset of each node's block in the flat storage, and its total size."""
    sizes = np.diff(row_ptr) * np.diff(col_ptr)
    return np.concatenate([[0], np.cumsum(sizes)])


def _distinct_blocks(node_ids, row_ptr, col_ptr, flat):
    """Yield, per block shape, the node positions, their distinct blocks and
    the index of each node's block among them.

    Blocks are compared by their bytes, not their values (-0.0 is not 0.0),
    so the nodes that share an inversion hold bit-identical blocks. A block
    with an entry that is not finite raises, naming the first such node.
    """
    n_rows, n_cols = np.diff(row_ptr), np.diff(col_ptr)
    starts = _block_starts(row_ptr, col_ptr)
    for r, c in np.unique(np.stack([n_rows, n_cols], axis=1), axis=0):
        sel_nodes = np.flatnonzero((n_rows == r) & (n_cols == c))
        distinct = {}  # the bytes of each distinct block, in order of first use
        inverse = np.fromiter((distinct.setdefault(flat[s:s + r * c].tobytes(), len(distinct))
                               for s in starts[sel_nodes].tolist()),
                              dtype=int, count=sel_nodes.size)
        blocks = np.frombuffer(b"".join(distinct), dtype=flat.dtype).reshape(-1, r, c)
        infinite = ~np.isfinite(blocks).all(axis=(1, 2))
        if np.any(infinite):
            bad = _first_node(node_ids, sel_nodes, infinite[inverse])
            raise MeshError(f"non-finite entry in the interaction region at node {bad}")
        yield sel_nodes, blocks, inverse


def _first_node(node_ids, sel_nodes, failed):
    """The first node, in node order, whose block ``failed`` marks; the
    group's first node when none is marked."""
    return node_ids[sel_nodes[int(np.argmax(failed))]]


def _scatter(parts, row_ptr, col_ptr):
    """The inverse as CSR, from each shape's distinct inverse blocks and the
    index of each node's block among them.

    Row i of node k's inverse block is CSR row ``col_ptr[k] + i``; its
    ``n_rows[k]`` entries sit in columns ``row_ptr[k]`` onwards, so each
    block is contiguous in the data and its rows' indices are sorted.
    """
    n_rows, n_cols = np.diff(row_ptr), np.diff(col_ptr)
    starts = _block_starts(row_ptr, col_ptr)
    shape = (int(col_ptr[-1]), int(row_ptr[-1]))
    index = np.int32 if max(starts[-1], *shape) <= np.iinfo(np.int32).max else np.int64
    row_nnz = np.repeat(n_rows, n_cols)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)]).astype(index)
    # an entry's column is its position in the data, shifted so that each
    # row starts at its node's first column
    shift = (np.repeat(row_ptr[:-1], n_cols) - indptr[:-1]).astype(index)
    indices = np.arange(starts[-1], dtype=index) + np.repeat(shift, row_nnz)
    data = np.empty(starts[-1])
    for sel_nodes, inv, inverse in parts:
        inv = inv.reshape(len(inv), -1)
        for start, end, k in zip(starts[sel_nodes].tolist(), starts[sel_nodes + 1].tolist(),
                                 inverse.tolist()):
            data[start:end] = inv[k]
    return sps.csr_matrix((data, indices, indptr), shape=shape)
