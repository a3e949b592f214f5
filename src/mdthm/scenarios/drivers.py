"""The three experiment drivers: plain runs, the grid-convergence study and
the dilation-model comparison. All of them are deterministic for a given
configuration; independent runs (refinement levels, dilation variants) can
execute in parallel worker processes capped by the MDTHM_THREADS variable.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from mdthm.constitutive import aperture, gap as gap_fn
from mdthm.contact import classify
from mdthm.mdmesh import split_cells
from mdthm.scenarios.config import ConfigError, ScenarioConfig, parse_config
from mdthm.scenarios.errors import ErrorReport, compare_states
from mdthm.scenarios.output import RunWriter, snapshot_fields
from mdthm.scenarios.setup import Scenario, build_loads, build_scenario
from mdthm.system import LAM, time_loop


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("MDTHM_THREADS", "1")))
    except ValueError:
        return 1


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
    records = []
    phase_ends = []
    t_start = 0.0
    for phase_cfg, phase_spec in zip(scn.cfg.phases, scn.phases):
        # each phase is passed separately, so time_loop's clock (and hence
        # the ramp and the dt schedule) is phase-relative; records carry the
        # absolute time

        def observe(rec, state, t_start=t_start):
            rec.time += t_start
            if writer is not None:
                writer.observe(rec, state)

        provider = scn.load_provider(phase_cfg)
        recs = time_loop(
            scn.assembler, scn.state, [phase_spec], provider, scn.loop_options,
            observer=observe,
        )
        records.extend(recs)
        phase_ends.append(scn.state.current.copy())
        if recs:
            t_start = recs[-1].time
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
    jts, jns = split_cells(asm.grids[1], jump[0::2]), split_cells(asm.grids[1], jump[1::2])
    out = {}
    for idx, sd in enumerate(scn.mdg.subdomains):
        out[(idx, "p")] = x[dofs.sd(sd.id, "p")].copy()
        out[(idx, "T")] = x[dofs.sd(sd.id, "T")].copy()
        if sd.dim == 2:
            u = x[dofs.sd(sd.id, "u")]
            out[(idx, "u")] = np.vstack([u[0::2], u[1::2]])
        elif sd.dim == 1:
            out[(idx, "jump_t")] = jts[sd.id]
            out[(idx, "jump_n")] = jns[sd.id]
            lam = x[dofs.sd(sd.id, "lam")]
            out[(idx, "lam")] = np.vstack([lam[0::2], lam[1::2]])
    return out


def _run_level(args):
    cfg_raw, level = args
    cfg = parse_config(cfg_raw)
    result = run(cfg, out_dir=None, extra_refinement=level)
    scn = result.scenario
    fields = [comparison_fields(scn, x) for x in result.phase_end_states]
    return level, scn.mdg.generator, fields, result.max_newton_iterations


def convergence_study(cfg: ScenarioConfig, levels: int, raw_cfg: dict | None = None,
                      out_dir=None) -> ErrorReport:
    """Nested-refinement study; the finest level is the reference.

    Each level halves the mesh spacing. Errors are reported per end-of-phase
    snapshot, per subdomain and variable, weighted by the characteristic
    magnitudes of the boundary data (the traction weight is Young's modulus
    times the displacement weight).
    """
    if levels < 3:
        raise ConfigError("a convergence study needs at least 3 levels")
    if cfg.mesh["kind"] == "gmsh":
        raise ConfigError("mesh.kind: the study needs a nestable generated mesh")
    if raw_cfg is None:
        raise ConfigError("convergence_study needs the raw configuration dictionary; "
                          "pass raw_cfg or use the command line interface")

    jobs = [(raw_cfg, lvl) for lvl in range(levels)]
    if worker_count() > 1:
        with ProcessPoolExecutor(max_workers=worker_count()) as pool:
            results = list(pool.map(_run_level, jobs))
    else:
        results = [_run_level(j) for j in jobs]
    results.sort(key=lambda r: r[0])

    # rebuild grids for the containment maps
    scns = [build_scenario(cfg, extra_refinement=lvl) for lvl in range(levels)]
    ref_fields_per_phase = results[-1][2]
    ref_mdg = scns[-1].mdg

    scales = cfg.characteristic_scales
    weights = {
        "u": scales["u"], "p": scales["p"], "T": scales["T"],
        "jump_t": scales["u"], "jump_n": scales["u"], "lam": scales["lam"],
    }
    report = ErrorReport()
    n_phases = len(ref_fields_per_phase)
    for lvl in range(levels - 1):
        table = {}
        for phase_idx in range(n_phases):
            errs = compare_states(
                scns[lvl].mdg, ref_mdg,
                results[lvl][2][phase_idx], ref_fields_per_phase[phase_idx],
                weights,
            )
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
def _run_model(args):
    cfg_raw, model = args
    raw = dict(cfg_raw)
    raw["dilation_model"] = model
    cfg = parse_config(raw)
    result = run(cfg)
    asm, mat = result.scenario.assembler, cfg.materials
    x = result.phase_end_states[-1]
    jump = asm.jumps(x)
    jt, jn = jump[0::2], jump[1::2]
    lam = x[asm.cell_dofs[1][LAM]]
    g = gap_fn(jt, asm.model, mat.dilation_angle)
    fields = {
        "jump_t": jt,
        "jump_n": jn,
        "aperture": aperture(jn, jt, asm.model, mat),
        "state": classify(lam[0::2], lam[1::2], jt, jn, np.zeros_like(jt), g,
                          asm.c_num, mat.friction_coefficient),
    }
    parts = {name: split_cells(asm.grids[1], values) for name, values in fields.items()}
    profiles = {}
    for sd in asm.fractures:
        order = np.argsort(sd.cell_centers[0], kind="stable")
        profiles[sd.frac_num] = {"x": sd.cell_centers[0, order]}
        profiles[sd.frac_num].update((name, part[sd.id][order]) for name, part in parts.items())
    return model, profiles, result.max_newton_iterations


def dilation_comparison(raw_cfg: dict, out_dir=None) -> dict:
    """Run the same scenario under the three dilation models.

    Returns {model: {fracture: profile}} with cells sorted by x coordinate;
    writes one CSV per model when out_dir is given.
    """
    jobs = [(raw_cfg, m) for m in (0, 1, 2)]
    if worker_count() > 1:
        with ProcessPoolExecutor(max_workers=min(3, worker_count())) as pool:
            results = list(pool.map(_run_model, jobs))
    else:
        results = [_run_model(j) for j in jobs]
    out = {model: profiles for model, profiles, _ in results}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for model, profiles, _ in results:
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

