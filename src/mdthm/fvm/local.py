"""Batched inversion of the node-local systems.

Blocks of equal shape are compared by their bytes and each distinct block is
inverted once; on a uniformly refined grid most interior interaction regions
repeat. A repeated block receives the bits of its one inversion, so the
operators are the same as if every block had been inverted on its own.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError


def invert_block_diagonal(node_ids, row_ptr, col_ptr, triplets):
    """Invert the block-diagonal local-system matrix.

    ``triplets`` is (node_pos, local_row, local_col, value) with one square
    block per node; the distinct blocks of each size are inverted in one
    LAPACK batch. Returns the inverse as a global sparse matrix in the
    row/col numbering given by the per-node offsets. Raises naming the first
    offending node if a block is singular or hopelessly conditioned.
    """
    if not np.array_equal(np.diff(row_ptr), np.diff(col_ptr)):
        raise MeshError("local systems must be square")
    parts = []
    for sel_nodes, blocks, inverse in _distinct_blocks(row_ptr, col_ptr, triplets):
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
        parts.append((sel_nodes, inv[inverse]))
    return _scatter(parts, row_ptr, col_ptr)


def least_squares_block_solve(node_ids, row_ptr, col_ptr, triplets):
    """Least-squares pseudo-inverse of rectangular local systems.

    Blocks may have more rows than columns; the returned sparse matrix maps
    the stacked right-hand sides to the least-squares gradient solution,
    block by block. A block with fewer rows than columns is rejected. A
    rank-deficient block is not: it gets its Moore-Penrose inverse, and only
    that inverse's finiteness is checked.
    """
    n_rows, n_cols = np.diff(row_ptr), np.diff(col_ptr)
    if np.any(n_rows < n_cols):
        bad = node_ids[int(np.argmax(n_rows < n_cols))]
        raise MeshError(f"local system with fewer equations than unknowns at node {bad}")
    parts = []
    for sel_nodes, blocks, inverse in _distinct_blocks(row_ptr, col_ptr, triplets):
        # The Moore-Penrose inverse handles regions where a gradient
        # component is legitimately unconstrained: at a corner between two
        # traction boundaries the local rotation is free, and every derived
        # quantity (tractions, divergence) is invariant to it.
        pinv = np.linalg.pinv(blocks, rcond=1e-12)
        failed = ~np.isfinite(pinv).all(axis=(1, 2))
        if np.any(failed):
            bad = _first_node(node_ids, sel_nodes, failed[inverse])
            raise MeshError(f"degenerate interaction region at node {bad}")
        parts.append((sel_nodes, pinv[inverse]))
    return _scatter(parts, row_ptr, col_ptr)


def _distinct_blocks(row_ptr, col_ptr, triplets):
    """Yield, per block shape, the node positions, their distinct blocks and
    the index of each node's block among them.

    Blocks are compared by their bytes, not their values (-0.0 is not 0.0),
    so the nodes that share an inversion hold bit-identical blocks. Entries
    that share a slot are summed from +0.0 in triplet order.
    """
    npos, lr, lc, val = triplets
    n_rows, n_cols = np.diff(row_ptr), np.diff(col_ptr)
    for r, c in np.unique(np.stack([n_rows, n_cols], axis=1), axis=0):
        sel_nodes = np.where((n_rows == r) & (n_cols == c))[0]
        pos_in_group = np.full(n_rows.size, -1)
        pos_in_group[sel_nodes] = np.arange(sel_nodes.size)
        mask = pos_in_group[npos] >= 0
        slot = (pos_in_group[npos[mask]] * r + lr[mask]) * c + lc[mask]
        blocks = np.bincount(slot, val[mask], sel_nodes.size * r * c)
        blocks = blocks.reshape(sel_nodes.size, r * c)
        keys = blocks.view(np.dtype((np.void, int(blocks.itemsize * r * c)))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        yield sel_nodes, blocks[first].reshape(-1, r, c), inverse


def _first_node(node_ids, sel_nodes, failed):
    """The first node, in node order, whose block ``failed`` marks; the
    group's first node when none is marked."""
    return node_ids[sel_nodes[int(np.argmax(failed))]]


def _scatter(parts, row_ptr, col_ptr):
    """One sparse matrix from each node's inverse block, whose rows follow
    the node's column offsets and whose columns follow its row offsets."""
    rows, cols = [], []
    for sel_nodes, inv in parts:
        rr, cc = np.meshgrid(
            np.arange(inv.shape[1]), np.arange(inv.shape[2]), indexing="ij")
        rows.append((col_ptr[sel_nodes][:, None, None] + rr).ravel())
        cols.append((row_ptr[sel_nodes][:, None, None] + cc).ravel())
    vals = np.concatenate([inv.ravel() for _, inv in parts])
    return sps.csr_matrix(
        (vals, (np.concatenate(rows), np.concatenate(cols))),
        shape=(col_ptr[-1], row_ptr[-1]),
    )
