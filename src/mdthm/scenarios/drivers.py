"""The three experiment drivers: plain runs, the grid-convergence study and
the dilation-model comparison. All of them are deterministic for a given
configuration and run their refinement levels or dilation variants one
after another in the calling process.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from mdthm.constitutive import DilationModel
from mdthm.scenarios.config import ConfigError, ScenarioConfig
from mdthm.scenarios.errors import compare_states, observed_orders
from mdthm.scenarios.output import RunWriter, snapshot_fields, write_csv
from mdthm.scenarios.setup import Scenario, build_scenario, solver_scales
from mdthm.system import time_loop


@dataclass
class RunResult:
    scenario: Scenario
    records: list
    phase_end_states: list = field(default_factory=list)

    @property
    def max_newton_iterations(self) -> int:
        return max((r.newton.iterations for r in self.records), default=0)


def run(cfg: ScenarioConfig, out_dir=None, extra_refinement: int = 0) -> RunResult:
    """Execute all phases of a scenario; write VTK/CSV when out_dir is set."""
    scn = build_scenario(cfg, extra_refinement)
    writer = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        writer = RunWriter(out_dir, scn.assembler, cfg.output_every)
        writer.write_snapshot(snapshot_fields(scn.assembler, scn.state.current,
                                              scn.state.prev_step))
    records, phase_ends = [], []
    observer = None if writer is None else writer.observe
    for idx, phase in enumerate(cfg.phases):
        # each phase starts where the previous one ended
        start = records[-1].time if records else 0.0
        records.extend(time_loop(scn.assembler, scn.state, phase, scn.load_provider(idx),
                                 scn.newton, scn.solver, observer=observer, start=start))
        phase_ends.append(scn.state.current.copy())
    if writer is not None:
        writer.finalize()
        _write_summary(out_dir, scn, records)
    return RunResult(scn, records, phase_ends)


def _write_summary(out_dir, scn: Scenario, records):
    rows = [
        {
            "phase": r.phase,
            "time_s": r.time,
            "dt_s": r.dt,
            "newton_iterations": r.newton.iterations,
            "mass_residual": None if r.balance is None else r.balance.mass_residual,
            "energy_residual": None if r.balance is None else r.balance.energy_residual,
        }
        for r in records
    ]
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"name": scn.cfg.name, "steps": rows}, fh, indent=1, sort_keys=True)


# ----------------------------------------------------------------------
# convergence study
# ----------------------------------------------------------------------
def _run_level(cfg: ScenarioConfig, level: int):
    """The scenario of one refinement level and the field table of each of
    its end-of-phase states."""
    result = run(cfg, extra_refinement=level)
    scn = result.scenario
    return scn, [snapshot_fields(scn.assembler, x, x) for x in result.phase_end_states]


def convergence_study(cfg: ScenarioConfig, levels: int, out_dir=None) -> dict:
    """Nested-refinement study; the finest level is the reference.

    Each level halves the mesh spacing. Errors are reported per subdomain
    and field, "sd<id>:<name>", at the worst end-of-phase snapshot, each
    weighted by its unknown's characteristic magnitude from
    :func:`solver_scales`. Returns, and writes as ``convergence.json``, the
    levels, their errors and the observed orders between them. The levels
    run one after another.
    """
    if levels < 3:
        raise ConfigError("a convergence study needs at least 3 levels")
    if cfg.mesh["kind"] == "gmsh":
        raise ConfigError("mesh.kind: the study needs a nestable generated mesh")

    results = [_run_level(cfg, lvl) for lvl in range(levels)]
    ref_scn, ref_fields = results[-1]
    scales = solver_scales(cfg, ref_scn.mdg)
    weights = {"pressure": scales["p"], "temperature": scales["T"],
               "displacement": scales["u"], "jump_tangential": scales["u"],
               "jump_normal": scales["u"], "traction": scales["lam"]}
    errors = []
    for scn, fields in results[:-1]:
        table = {}
        for coarse, ref in zip(fields, ref_fields):
            for key, val in compare_states(scn.mdg, ref_scn.mdg, coarse, ref, weights).items():
                table[key] = max(table.get(key, 0.0), val)
        errors.append(table)
    study = {"levels": list(range(levels - 1)), "errors": errors,
             "orders": observed_orders(errors)}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "convergence.json"), "w", encoding="utf-8") as fh:
            json.dump(study, fh, indent=1, sort_keys=True)
    return study


# ----------------------------------------------------------------------
# dilation-model comparison
# ----------------------------------------------------------------------
def _run_model(cfg: ScenarioConfig, model: int) -> dict:
    """The columns of ``dilation_model_<model>.csv``: every fracture cell at
    the end of a run under one dilation model, by fracture id, then by x."""
    result = run(replace(cfg, dilation_model=DilationModel(model)))
    x = result.phase_end_states[-1]
    asm = result.scenario.assembler
    fields = snapshot_fields(asm, x, x)
    # the fracture cells as the stacked fracture grid numbers them; there may be none
    fid = np.repeat([sd.frac_num for sd in asm.fractures], [sd.num_cells for sd in asm.fractures])
    x_m = asm.mdg.grids[1].cell_centers[0]
    cells = np.lexsort((x_m, fid))  # stable: cells at one x keep their order
    table = {"fracture_id": fid[cells], "x_m": x_m[cells]}
    for name, field in (("jump_t_m", "jump_tangential"), ("jump_n_m", "jump_normal"),
                        ("aperture_m", "aperture"), ("state", "contact_state_cumulative")):
        parts = [fields[sd.id][field] for sd in asm.fractures]
        table[name] = np.concatenate([np.zeros(0), *parts])[cells]
    table["state"] = table["state"].astype(int)
    return table


def dilation_comparison(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Run the same scenario under the three dilation models.

    Returns {model: table}, each run's :func:`_run_model` columns; writes
    each table as ``dilation_model_<model>.csv`` when out_dir is given.
    """
    out = {model: _run_model(cfg, model) for model in (0, 1, 2)}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for model, table in out.items():
            write_csv(os.path.join(out_dir, f"dilation_model_{model}.csv"), ",".join(table),
                      table.values())
    return out
