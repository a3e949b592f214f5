from mdthm.mdmesh.build import build_lattice, containment_map, fracturize
from mdthm.mdmesh.gmsh_io import ingest_gmsh
from mdthm.mdmesh.grids import (
    SIDE_CODE,
    SIDES,
    MeshError,
    SubdomainGrid,
    split_cells,
    stack_grids,
)
from mdthm.mdmesh.mdgrid import MixedDimGrid

__all__ = [
    "MeshError",
    "MixedDimGrid",
    "SIDES",
    "SIDE_CODE",
    "SubdomainGrid",
    "build_lattice",
    "containment_map",
    "fracturize",
    "ingest_gmsh",
    "split_cells",
    "stack_grids",
]
