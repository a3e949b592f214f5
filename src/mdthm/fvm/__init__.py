from mdthm.fvm.mpfa import (
    BoundaryCondition,
    ScalarDiffusionOps,
    mpfa_discretize,
)
from mdthm.fvm.mpsa import VectorMechanicsOps, mpsa_discretize
from mdthm.fvm.onedim import TwoPointOps, onedim_discretize
from mdthm.fvm.upwind import carried, upwind

__all__ = [
    "BoundaryCondition",
    "ScalarDiffusionOps",
    "TwoPointOps",
    "VectorMechanicsOps",
    "carried",
    "mpfa_discretize",
    "mpsa_discretize",
    "onedim_discretize",
    "upwind",
]
