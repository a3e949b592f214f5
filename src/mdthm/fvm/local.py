"""Batched inversion of the node-local systems."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError


def invert_block_diagonal(node_ids, row_ptr, col_ptr, triplets):
    """Invert the block-diagonal local-system matrix.

    ``triplets`` is (node_pos, local_row, local_col, value) with one square
    block per node; blocks of equal size are inverted in one LAPACK batch.
    Returns the inverse as a global sparse matrix in the row/col numbering
    given by the per-node offsets. Raises naming the first offending node if
    a block is singular or hopelessly conditioned.
    """
    npos, lr, lc, val = triplets
    sizes = np.diff(row_ptr)
    if not np.array_equal(sizes, np.diff(col_ptr)):
        raise MeshError("local systems must be square")
    out_rows, out_cols, out_vals = [], [], []
    for size in np.unique(sizes):
        sel_nodes = np.where(sizes == size)[0]
        pos_in_group = np.full(sizes.size, -1)
        pos_in_group[sel_nodes] = np.arange(sel_nodes.size)
        mask = pos_in_group[npos] >= 0
        blocks = np.zeros((sel_nodes.size, size, size))
        np.add.at(blocks, (pos_in_group[npos[mask]], lr[mask], lc[mask]), val[mask])
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as err:
            bad = _first_singular(blocks, sel_nodes, node_ids)
            raise MeshError(f"singular interaction region at node {bad}") from err
        defect = np.abs(blocks @ inv - np.eye(size)).max(axis=(1, 2))
        if np.any(~np.isfinite(inv)) or np.any(defect > 1e-6):
            bad_pos = np.where(~np.isfinite(inv).all(axis=(1, 2)) | (defect > 1e-6))[0][0]
            raise MeshError(
                f"degenerate interaction region at node {node_ids[sel_nodes[bad_pos]]}"
            )
        rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        out_rows.append(
            (col_ptr[sel_nodes][:, None, None] + rr[None]).ravel()
        )
        out_cols.append(
            (row_ptr[sel_nodes][:, None, None] + cc[None]).ravel()
        )
        out_vals.append(inv.ravel())
    n_rows, n_cols = col_ptr[-1], row_ptr[-1]
    return sps.csr_matrix(
        (np.concatenate(out_vals), (np.concatenate(out_rows), np.concatenate(out_cols))),
        shape=(n_rows, n_cols),
    )


def _first_singular(blocks, sel_nodes, node_ids):
    for g in range(blocks.shape[0]):
        if abs(np.linalg.det(blocks[g])) < 1e-300:
            return node_ids[sel_nodes[g]]
    return node_ids[sel_nodes[0]]


def least_squares_block_solve(node_ids, row_ptr, col_ptr, triplets):
    """Least-squares pseudo-inverse of rectangular local systems.

    Blocks may have more rows than columns; the returned sparse matrix maps
    the stacked right-hand sides to the least-squares gradient solution,
    block by block. Full column rank is required and verified.
    """
    npos, lr, lc, val = triplets
    n_rows = np.diff(row_ptr)
    n_cols = np.diff(col_ptr)
    if np.any(n_rows < n_cols):
        bad = node_ids[int(np.argmax(n_rows < n_cols))]
        raise MeshError(f"local system with fewer equations than unknowns at node {bad}")
    out_rows, out_cols, out_vals = [], [], []
    shapes = np.stack([n_rows, n_cols], axis=1)
    for r, c in np.unique(shapes, axis=0):
        sel_nodes = np.where((n_rows == r) & (n_cols == c))[0]
        pos_in_group = np.full(n_rows.size, -1)
        pos_in_group[sel_nodes] = np.arange(sel_nodes.size)
        mask = pos_in_group[npos] >= 0
        blocks = np.zeros((sel_nodes.size, r, c))
        np.add.at(blocks, (pos_in_group[npos[mask]], lr[mask], lc[mask]), val[mask])
        # The Moore-Penrose inverse handles regions where a gradient
        # component is legitimately unconstrained: at a corner between two
        # traction boundaries the local rotation is free, and every derived
        # quantity (tractions, divergence) is invariant to it.
        pinv = np.linalg.pinv(blocks, rcond=1e-12)
        if np.any(~np.isfinite(pinv)):
            bad = node_ids[sel_nodes[
                int(np.argmax((~np.isfinite(pinv)).any(axis=(1, 2))))]]
            raise MeshError(f"degenerate interaction region at node {bad}")
        rr, cc = np.meshgrid(np.arange(c), np.arange(r), indexing="ij")
        out_rows.append((col_ptr[sel_nodes][:, None, None] + rr[None]).ravel())
        out_cols.append((row_ptr[sel_nodes][:, None, None] + cc[None]).ravel())
        out_vals.append(pinv.ravel())
    return sps.csr_matrix(
        (np.concatenate(out_vals), (np.concatenate(out_rows), np.concatenate(out_cols))),
        shape=(col_ptr[-1], row_ptr[-1]),
    )
