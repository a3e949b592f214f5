"""The three experiment drivers: plain runs, the grid-convergence study and
the dilation-model comparison. All of them are deterministic for a given
configuration and run their refinement levels or dilation variants one
after another in the calling process.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from mdthm.constitutive import aperture
from mdthm.mdmesh import split_cells
from mdthm.scenarios.config import ConfigError, ScenarioConfig, parse_config
from mdthm.scenarios.errors import ErrorReport, compare_states
from mdthm.scenarios.output import RunWriter
from mdthm.scenarios.setup import Scenario, build_scenario
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
        writer.write_snapshot(scn.state, 0.0)
    records, phase_ends = [], []
    observer = None if writer is None else writer.observe
    for idx, phase in enumerate(cfg.phases):
        # each phase starts where the previous one ended
        start = records[-1].time if records else 0.0
        records.extend(time_loop(scn.assembler, scn.state, phase, scn.load_provider(idx),
                                 scn.newton, observer=observer, solver=scn.solver,
                                 start=start))
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
def comparison_fields(scn: Scenario, x: np.ndarray) -> dict:
    """Cellwise fields entering the refinement comparison, keyed by
    (subdomain index, variable)."""
    asm, dofs = scn.assembler, scn.assembler.dofs
    jump = asm.jumps(x)
    u, lam = x[dofs.cells(2, "u")], x[dofs.cells(1, "lam")]
    own = {2: {"u": np.vstack([u[0::2], u[1::2]])},
           1: {"jump_t": jump[0::2], "jump_n": jump[1::2],
               "lam": np.vstack([lam[0::2], lam[1::2]])},
           0: {}}
    out = {}
    for dim, grid in scn.mdg.grids.items():
        stacked = {"p": x[dofs.cells(dim, "p")], "T": x[dofs.cells(dim, "T")], **own[dim]}
        for var, values in stacked.items():
            out.update(((sd_id, var), part) for sd_id, part in split_cells(grid, values).items())
    return out


def _run_level(cfg: ScenarioConfig, level: int):
    """The grid of one refinement level and the comparison fields of each
    of its end-of-phase states."""
    result = run(cfg, out_dir=None, extra_refinement=level)
    scn = result.scenario
    return scn.mdg, [comparison_fields(scn, x) for x in result.phase_end_states]


def convergence_study(cfg: ScenarioConfig, levels: int, out_dir=None) -> ErrorReport:
    """Nested-refinement study; the finest level is the reference.

    Each level halves the mesh spacing. Errors are reported per end-of-phase
    snapshot, per subdomain and variable, weighted by the characteristic
    magnitudes of the boundary data (the traction weight is Young's modulus
    times the displacement weight). The levels run one after another.
    """
    if levels < 3:
        raise ConfigError("a convergence study needs at least 3 levels")
    if cfg.mesh["kind"] == "gmsh":
        raise ConfigError("mesh.kind: the study needs a nestable generated mesh")

    results = [_run_level(cfg, lvl) for lvl in range(levels)]
    ref_mdg, ref_fields_per_phase = results[-1]

    scales = cfg.characteristic_scales
    weights = {
        "u": scales["u"], "p": scales["p"], "T": scales["T"],
        "jump_t": scales["u"], "jump_n": scales["u"],
        "lam": cfg.materials.youngs_modulus * scales["u"],
    }
    report = ErrorReport()
    n_phases = len(ref_fields_per_phase)
    for lvl in range(levels - 1):
        mdg, fields = results[lvl]
        table = {}
        for phase_idx in range(n_phases):
            errs = compare_states(mdg, ref_mdg, fields[phase_idx],
                                  ref_fields_per_phase[phase_idx], weights)
            for key, val in errs.items():
                # track the worst phase per variable
                table[key] = max(table.get(key, 0.0), val)
        report.levels.append(lvl)
        report.errors.append(table)
    report.observed_orders()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        payload = {
            "levels": report.levels,
            "errors": [
                {f"sd{sd}:{var}": err for (sd, var), err in table.items()}
                for table in report.errors
            ],
            "orders": {
                f"sd{sd}:{var}": seq for (sd, var), seq in report.orders.items()
            },
        }
        with open(os.path.join(out_dir, "convergence.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    return report


# ----------------------------------------------------------------------
# dilation-model comparison
# ----------------------------------------------------------------------
def _run_model(raw_cfg: dict, model: int) -> dict:
    """The fracture profiles at the end of a run under one dilation model:
    per fracture, its cells sorted by x."""
    result = run(parse_config(dict(raw_cfg, dilation_model=model)))
    asm = result.scenario.assembler
    x = result.phase_end_states[-1]
    frac = asm.fracture_state(x, np.zeros_like(x))
    jt, jn = frac.jumps[0::2], frac.jumps[1::2]
    fields = {
        "jump_t": jt,
        "jump_n": jn,
        "aperture": aperture(jn, jt, asm.model, asm.mat),
        "state": frac.contact,
    }
    parts = {name: split_cells(asm.mdg.grids[1], values) for name, values in fields.items()}
    profiles = {}
    for sd in asm.fractures:
        order = np.argsort(sd.cell_centers[0], kind="stable")
        profiles[sd.frac_num] = {"x": sd.cell_centers[0, order]}
        profiles[sd.frac_num].update((name, part[sd.id][order]) for name, part in parts.items())
    return profiles


def dilation_comparison(raw_cfg: dict, out_dir=None) -> dict:
    """Run the same scenario under the three dilation models.

    Returns {model: {fracture: profile}} with cells sorted by x coordinate;
    writes one CSV per model when out_dir is given.
    """
    out = {model: _run_model(raw_cfg, model) for model in (0, 1, 2)}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for model, profiles in out.items():
            path = os.path.join(out_dir, f"dilation_model_{model}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("fracture_id,x_m,jump_t_m,jump_n_m,aperture_m,state\n")
                for fid in sorted(profiles):
                    pr = profiles[fid]
                    for i in range(pr["x"].size):
                        # repr of a Python float: the shortest exact decimal
                        reals = (repr(float(pr[k][i]))
                                 for k in ("x", "jump_t", "jump_n", "aperture"))
                        fh.write(f"{fid},{','.join(reals)},{int(pr['state'][i])}\n")
    return out

