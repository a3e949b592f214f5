"""Mortar interfaces between subdomains of codimension one, stacked per
codimension.

With matching grids every projection is a permutation: each mortar cell is
paired with exactly one boundary face of the higher-dimensional neighbour
and one cell of the lower-dimensional neighbour. Interfaces exist only as
stacks: a :class:`MortarGroup` holds all mortars whose high side has one
dimension, interface after interface, with their pairing expressed in the
stacked grids of the two dimensions and per-interface offsets delimiting
each interface's mortar cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from mdthm.mdmesh.grids import MeshError


@dataclass
class MortarGroup:
    """All mortars whose high side has dimension ``dim``, in interface order.

    Interface ``ids[k]`` holds the mortar cells ``offsets[k]:offsets[k + 1]``.
    Per mortar cell, ``hi`` / ``lo`` index the adjacent high-side and the
    coupled low-side cell in the stacked grids of the two dimensions.
    ``lift`` restricts stacked high-side face fields to the mortar cells.
    """

    dim: int
    hi: np.ndarray
    lo: np.ndarray
    lift: sps.csr_matrix
    areas: np.ndarray
    normals: np.ndarray  # unit outward normals of the high-side faces
    sides: np.ndarray  # -1 on the j wall of a fracture, +1 on the k wall
    ids: list
    offsets: np.ndarray

    @property
    def size(self) -> int:
        return self.areas.size


def mortar_group(dim: int, first_id: int, num_faces: int, interfaces: list) -> MortarGroup:
    """The group of the interfaces ``first_id, first_id + 1, ...`` whose high
    side has dimension ``dim``. Each interface is given by the arrays of its
    mortar cells, numbered in the stacked grids: the high-side faces (of
    ``num_faces``) and cells, the low-side cells, the unit normals of the
    faces, the areas and the sides."""
    empty = (np.zeros(0, dtype=int),) * 3 + (np.zeros((2, 0)), np.zeros(0), np.zeros(0))
    faces, hi, lo, normals, areas, sides = (np.concatenate(cells, axis=-1)
                                            for cells in zip(empty, *interfaces))
    sizes = [len(cells[0]) for cells in interfaces]
    n = faces.size
    # a mortar cell pairs a high-side face that no other mortar cell holds
    # with a low-side cell that no other mortar cell of its interface holds
    pairs = np.repeat(np.arange(len(sizes)), sizes) * (lo.max(initial=0) + 1) + lo
    if np.unique(faces).size < n or np.unique(pairs).size < n:
        raise MeshError("mortar cells must biject onto low-dim cells")
    return MortarGroup(dim=dim, hi=hi, lo=lo, areas=areas, normals=normals, sides=sides,
                       lift=sps.csr_matrix((np.ones(n), (np.arange(n), faces)),
                                           shape=(n, num_faces)),
                       ids=list(range(first_id, first_id + len(sizes))),
                       offsets=np.cumsum([0, *sizes]))
