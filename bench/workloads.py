"""The benchmark's workloads, generated in memory from the shipped
fractured-convergence configuration (8 fractures, 16 matrix-fracture
mortars).

The simulator is deterministic and none of the workloads has a random
input, so the benchmark's ``--seed`` changes nothing here; it is accepted
and recorded so that repeated runs with different seeds can be compared.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_CONFIG = ROOT / "configs" / "fractured_convergence.json"

# Each workload stresses a different layer; see README.md for the table of
# layer metrics and the end-to-end metric each should move.
WORKLOADS = {
    # Refinement level 0, two-way dilation. Steady compression, then the
    # first two pressurise steps (dt 6.25 s, then 12.5 s): dt changes on
    # every solve. Per-iteration fixed cost: assembly dominates.
    "coarse-pressurise": {"refinement": 0, "dilation_model": 2,
                          "phases": {"compression": {},
                                     "pressurise": {"duration": 18.75}},
                          "output": False},
    # Same grid, one-way dilation. Steady compression, then two cooling
    # steps at a constant dt of 1440 s; every step is written as VTK/CSV.
    "coarse-cooling-out": {"refinement": 0, "dilation_model": 1,
                           "phases": {"compression": {},
                                      "cooling": {"duration": 2880.0,
                                                  "dt_init": 0.0}},
                           "output": True},
    # Refinement level 1 (17666 dofs), steady compression only: the sparse
    # LU and the set-up dominate.
    "fine-steady": {"refinement": 1, "dilation_model": 2,
                    "phases": {"compression": {}},
                    "output": False},
}

# Tiny case for the benchmark's self-test: one fracture on an 8x4 grid.
SELFTEST = "selftest-tiny"


def raw_config(name: str) -> dict:
    """The raw configuration dictionary of one workload."""
    with open(BASE_CONFIG, "r", encoding="utf-8") as fh:
        base = json.load(fh)
    if name == SELFTEST:
        raw = copy.deepcopy(base)
        raw["mesh"].update(nx=8, ny=4, refinement=0,
                           fractures=[[[0.5, 0.5], [1.5, 0.5]]])
        press = _phase(raw, "pressurise")
        press["duration"] = 6.25
        raw["phases"] = [_phase(raw, "compression"), press]
        return raw
    spec = WORKLOADS[name]
    raw = copy.deepcopy(base)
    raw["mesh"]["refinement"] = spec["refinement"]
    raw["dilation_model"] = spec["dilation_model"]
    phases = []
    for phase_name, overrides in spec["phases"].items():
        phase = _phase(raw, phase_name)
        phase.update(overrides)
        phases.append(phase)
    raw["phases"] = phases
    return raw


def writes_output(name: str) -> bool:
    return name != SELFTEST and WORKLOADS[name]["output"]


def planned_steps(raw: dict) -> int:
    """Number of time steps the run takes when no step needs halving; a
    steady phase is one step. Mirrors the step schedule of
    ``mdthm.system.timeloop.time_loop``."""
    steps = 0
    for phase in raw["phases"]:
        if phase.get("steady", False):
            steps += 1
            continue
        duration = float(phase["duration"])
        dt_phase = float(phase.get("dt", 0.0)) or duration
        dt_next = float(phase.get("dt_init", 0.0)) or dt_phase
        t = 0.0
        while t < duration - 1e-12 * max(1.0, duration):
            dt = min(dt_next, dt_phase, duration - t)
            dt_next = min(2.0 * dt, dt_phase)
            t += dt
            steps += 1
    return steps


def _phase(raw: dict, name: str) -> dict:
    for phase in raw["phases"]:
        if phase["name"] == name:
            return copy.deepcopy(phase)
    raise KeyError(f"{BASE_CONFIG.name} has no phase {name!r}")
