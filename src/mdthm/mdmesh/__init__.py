from mdthm.mdmesh.build import (
    build_cartesian_fractured,
    build_triangular_fractured,
    containment_map,
    fracturize,
)
from mdthm.mdmesh.gmsh_io import ingest_gmsh
from mdthm.mdmesh.grids import (
    MeshError,
    SubdomainGrid,
    make_0d_grid,
    split_cells,
    stack_grids,
)
from mdthm.mdmesh.mdgrid import MixedDimGrid

__all__ = [
    "MeshError",
    "MixedDimGrid",
    "SubdomainGrid",
    "build_cartesian_fractured",
    "build_triangular_fractured",
    "containment_map",
    "fracturize",
    "ingest_gmsh",
    "make_0d_grid",
    "split_cells",
    "stack_grids",
]
