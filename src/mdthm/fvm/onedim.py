"""Scalar diffusion operators on 1d (fracture) grids.

On a line the multi-point construction collapses to two-point fluxes with
half-cell distances. :class:`TwoPointOps` holds them in static form: each
operator is a sum of parts, and each part is a static incidence or geometry
matrix, scaled face by face by a coefficient of the cellwise diffusivity D
or not at all. The coefficients are the two-point law:

- t, the transmissibility: the harmonic mean 1 / (d_K / D_K + d_L / D_L)
  of the half-cell transmissibilities on interior faces, D_K / d_K on
  Dirichlet faces, zero on Neumann faces;
- r = d_K / D_K, the half-cell resistance of the face's owner K;
- rt, their product, which maps a face flux back to the face potential.

Here d_K is the distance from the centre of cell K to the face.
:meth:`TwoPointOps.at` re-evaluates the coefficients at a new D without
touching the static parts, and :meth:`TwoPointOps.apply` applies an operator
without forming it. The sparse operators are formed only when read. The
interface contract matches the 2d scheme: integrated fluxes along owner-out
normals, Neumann data as total outward flux, traces evaluated at faces.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np
import scipy.sparse as sps

from mdthm.fvm.local import csr_from_parts
from mdthm.fvm.mpfa import BoundaryCondition
from mdthm.mdmesh.grids import MeshError, SubdomainGrid


@dataclasses.dataclass(frozen=True)
class TwoPointOps:
    """The two-point operators of a 1d grid at one diffusivity.

    ``static`` maps each operator name of
    :class:`mdthm.fvm.ScalarDiffusionOps` to its parts, (coefficient key or
    None, static matrix) pairs; ``coefficients`` maps the keys ``"t"``,
    ``"r"`` and ``"rt"`` to their facewise values. ``geometry`` holds the
    face owners and neighbours, the half-cell distances and the Dirichlet
    faces, which the law reads.
    """

    static: dict
    geometry: dict
    coefficients: dict

    def at(self, diffusivity) -> TwoPointOps:
        """The same operators at the cellwise diffusivity D."""
        g = self.geometry
        D = np.broadcast_to(np.asarray(diffusivity, dtype=float), (g["num_cells"],))
        if np.any(D <= 0):
            raise MeshError("diffusivity must be positive")
        owner, nbr, inner, dirichlet = g["owner"], g["nbr"], g["interior"], g["dirichlet"]
        r = g["d_own"] / D[owner]
        t = np.zeros(r.size)
        t[inner] = 1.0 / (r[inner] + g["d_nbr"][inner] / D[nbr[inner]])
        t[dirichlet] = D[owner[dirichlet]] / g["d_own"][dirichlet]
        return dataclasses.replace(self, coefficients={"t": t, "r": r, "rt": r * t})

    def parts(self, name):
        return self.static[name]

    def apply(self, name, v):
        """The operator ``name`` applied to the vector v."""
        out = 0.0
        for key, part in self.static[name]:
            pv = part @ v
            out = out + (pv if key is None else self.coefficients[key] * pv)
        return out

    def _formed(self, name) -> sps.csr_matrix:
        total = None
        for key, part in self.static[name]:
            # a copy: pruning the sum must leave the static part alone
            part = part.copy()
            if key is not None:
                part.data *= np.repeat(self.coefficients[key], np.diff(part.indptr))
            total = part if total is None else total + part
        total.eliminate_zeros()
        return total

    flux, bound_flux, trace_cell, trace_face, vector_source, trace_vector_source = (
        cached_property(lambda self, name=name: self._formed(name)) for name in (
            "flux", "bound_flux", "trace_cell", "trace_face", "vector_source",
            "trace_vector_source"))


def onedim_discretize(grid: SubdomainGrid, diffusivity,
                      bc: BoundaryCondition) -> TwoPointOps:
    """The two-point operators of a 1d grid under the boundary condition
    ``bc``, evaluated at the cellwise diffusivity."""
    if grid.dim != 1:
        raise MeshError("onedim_discretize expects a 1d grid")
    nc, nf = grid.num_cells, grid.num_faces
    owner, nbr = grid.face_cells
    interior = nbr >= 0
    d_own = np.linalg.norm(grid.face_centers - grid.cell_centers[:, owner], axis=0)
    d_nbr = np.zeros(nf)
    d_nbr[interior] = np.linalg.norm(
        grid.face_centers[:, interior] - grid.cell_centers[:, nbr[interior]], axis=0
    )
    n_unit = grid.face_normals  # unit, owner-out

    # interior: q = t [(pK - pL) + rK dK + rL dL]; Dirichlet: q = t (pK - p_b + rK dK)
    fi = np.flatnonzero(interior)
    fb = np.flatnonzero(~interior)
    dir_b = fb[bc.is_dir[fb]]
    neu_b = fb[~bc.is_dir[fb]]
    ft = np.concatenate([fi, dir_b])  # the faces with a transmissibility
    diff = csr_from_parts([(ft, owner[ft], np.ones(ft.size)), (fi, nbr[fi], -np.ones(fi.size))],
                          (nf, nc))
    dirichlet = csr_from_parts([(dir_b, dir_b, np.ones(dir_b.size))], (nf, nf))
    neumann = csr_from_parts([(neu_b, neu_b, np.ones(neu_b.size))], (nf, nf))
    source = csr_from_parts(
        [(fi, 2 * nbr[fi] + comp, d_nbr[fi] * n_unit[comp, fi]) for comp in range(2)]
        + [(ft, 2 * owner[ft] + comp, d_own[ft] * n_unit[comp, ft]) for comp in range(2)],
        (nf, 2 * nc))
    pick_owner = csr_from_parts([(np.arange(nf), owner, np.ones(nf))], (nf, nc))
    owner_source = csr_from_parts(
        [(np.arange(nf), 2 * owner + comp, d_own * n_unit[comp]) for comp in range(2)],
        (nf, 2 * nc))

    # the trace p_f = pK - rK q + dK (r . n), with q the face flux
    static = {
        "flux": (("t", diff),),
        "bound_flux": ((None, neumann), ("t", -dirichlet)),
        "vector_source": (("t", source),),
        "trace_cell": ((None, pick_owner), ("rt", -diff)),
        "trace_face": (("r", -neumann), ("rt", dirichlet)),
        "trace_vector_source": ((None, owner_source), ("rt", -source)),
    }
    geometry = {"num_cells": nc, "owner": owner, "nbr": nbr, "interior": interior,
                "dirichlet": dir_b, "d_own": d_own, "d_nbr": d_nbr}
    return TwoPointOps(static, geometry, {}).at(diffusivity)
