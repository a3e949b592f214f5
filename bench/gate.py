"""Correctness gate: the end state of a run against a committed reference.

States are compared in the scaled max-norm of
``mdthm.scenarios.setup.solver_scales``: every unknown is divided by the
characteristic magnitude of its variable. The tolerance is a multiple of
the workload's Newton increment tolerance, not bit equality: a Newton loop
that stops at a different iterate of the same fixed point legitimately
moves the last digits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Newton stops once a scaled increment is at most increment_tol; the
# iteration stagnates near 1e-8, so tighter runs are the closest reference
# available. On the coarse workloads, tightening increment_tol from 1e-7 to
# 1e-8 moved the primary unknowns by at most 7e-9 and the interface
# conductive fluxes by up to 6e-7 (scaled). A factor of 100 leaves more than
# ten times that as margin while still rejecting any change of physics.
TOLERANCE_FACTOR = 100.0


def tolerance(raw: dict) -> float:
    return TOLERANCE_FACTOR * float(raw["solver"]["increment_tol"])


def scaled_error(scenario, x: np.ndarray, x_ref: np.ndarray) -> float:
    """max over unknowns of |x - x_ref| / scale of the unknown's variable."""
    from mdthm.scenarios.setup import solver_scales

    if x.shape != x_ref.shape:
        return float("inf")
    scales = solver_scales(scenario.cfg, scenario.mdg)
    worst = 0.0
    for (_, _, var), sl in scenario.assembler.dofs.blocks():
        if sl.stop > sl.start:
            worst = max(worst, float(np.max(np.abs(x[sl] - x_ref[sl]))) / scales[var])
    return worst


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npy"

