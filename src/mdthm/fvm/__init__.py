from mdthm.fvm.mpfa import (
    BoundaryCondition,
    ScalarDiffusionOps,
    mpfa_discretize,
)
from mdthm.fvm.mpsa import VectorMechanicsOps, mpsa_discretize
from mdthm.fvm.onedim import onedim_discretize
from mdthm.fvm.upwind import upwind_matrices

__all__ = [
    "BoundaryCondition",
    "ScalarDiffusionOps",
    "VectorMechanicsOps",
    "mpfa_discretize",
    "mpsa_discretize",
    "onedim_discretize",
    "upwind_matrices",
]
