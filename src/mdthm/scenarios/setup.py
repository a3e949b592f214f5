"""Build a ready-to-run simulation from a scenario configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mdthm.mdmesh import (
    MixedDimGrid,
    build_cartesian_fractured,
    build_triangular_fractured,
    ingest_gmsh,
    refine,
    stack_grids,
)
from mdthm.scenarios.config import SIDE_CODE, ConfigError, PhaseConfig, ScenarioConfig
from mdthm.system import Assembler, Loads, NewtonParams, PhaseSpec, State, TimeLoopOptions


def build_mesh(cfg: ScenarioConfig, extra_refinement: int = 0) -> MixedDimGrid:
    mesh = cfg.mesh
    if mesh["kind"] == "gmsh":
        if extra_refinement or int(mesh.get("refinement", 0)):
            raise ConfigError("mesh.refinement: gmsh meshes cannot be refined")
        return ingest_gmsh(mesh["path"])
    level = int(mesh.get("refinement", 0)) + extra_refinement
    factor = 2**level
    box = tuple(tuple(map(float, p)) for p in mesh.get("box", ((0, 0), (1, 1))))
    fractures = [tuple(map(tuple, s)) for s in mesh.get("fractures", [])]
    builder = (build_triangular_fractured if mesh["kind"] == "triangular"
               else build_cartesian_fractured)
    base = builder(mesh["nx"], mesh["ny"], fractures, box)
    return refine(base, factor) if factor > 1 else base


def hydrostatic_pressure(cfg: ScenarioConfig, y):
    """Pressure in equilibrium with the reference density: grad p = rho g."""
    mat = cfg.materials
    return (mat.reference_pressure
            + mat.density_fluid_ref * mat.gravity[1] * np.asarray(y, dtype=float))


@dataclass
class Scenario:
    cfg: ScenarioConfig
    mdg: MixedDimGrid
    assembler: Assembler
    state: State
    phases: list
    loop_options: TimeLoopOptions
    well_cells: list  # per phase: dict dim -> (rates, T_inj) on the stacked cells

    def load_provider(self, phase: PhaseConfig):
        """Loads at times counted from the start of the phase; boundary
        values ramp linearly from the previous phase's values over the
        first ``phase.ramp`` seconds."""

        def provider(t_new, t_prev):
            return build_loads(self, phase,
                               alpha_new=self._ramp_alpha(phase, t_new),
                               alpha_prev=self._ramp_alpha(phase, t_prev))

        return provider

    @staticmethod
    def _ramp_alpha(phase: PhaseConfig, elapsed: float) -> float:
        if phase.ramp <= 0.0:
            return 1.0
        return float(np.clip(elapsed / phase.ramp, 0.0, 1.0))


def build_scenario(cfg: ScenarioConfig, extra_refinement: int = 0) -> Scenario:
    mdg = build_mesh(cfg, extra_refinement)

    def dirichlet(grid, sides):
        return np.isin(grid.tags["domain_side"], [SIDE_CODE[s] for s in sides])

    fractures = stack_grids(1, mdg.subdomains_of_dim(1))
    bc_types = {"mech": dirichlet(mdg.matrix, cfg.mech_dirichlet)}
    for var, sides in (("flow", cfg.flow_dirichlet), ("heat", cfg.heat_dirichlet)):
        bc_types[var] = dirichlet(mdg.matrix, sides)
        bc_types[("frac", var)] = dirichlet(fractures, sides)
    asm = Assembler(mdg, cfg.materials, cfg.dilation_model, bc_types)

    state = State(asm.dofs)
    init = {}
    for sd in mdg.subdomains:
        if cfg.initial_pressure == "hydrostatic":
            p0 = hydrostatic_pressure(cfg, sd.cell_centers[1])
        else:
            p0 = np.full(sd.num_cells, cfg.initial_pressure)
        init[("sd", sd.id, "p")] = p0
        init[("sd", sd.id, "T")] = np.full(sd.num_cells, cfg.initial_temperature)
        if sd.dim == 1:
            init[("sd", sd.id, "lam")] = np.tile(
                [0.0, cfg.initial_normal_traction], sd.num_cells
            )
    state.set_initial(init)

    newton = NewtonParams(
        max_iterations=int(cfg.solver.get("max_iterations", 50)),
        increment_tol=float(cfg.solver.get("increment_tol", 1e-10)),
        scales=solver_scales(cfg, mdg),
        damping=float(cfg.solver.get("damping", 1.0)),
        damping_threshold=float(cfg.solver.get("damping_threshold", 0.1)),
    )
    options = TimeLoopOptions(
        newton=newton,
        allow_dt_halving=bool(cfg.solver.get("allow_dt_halving", True)),
    )
    phases = [PhaseSpec(ph.name, ph.duration, ph.dt, ph.steady, ph.dt_init)
              for ph in cfg.phases]
    wells = [locate_wells(mdg, asm.grids, ph) for ph in cfg.phases]
    return Scenario(cfg, mdg, asm, state, phases, options, wells)


def solver_scales(cfg: ScenarioConfig, mdg: MixedDimGrid) -> dict:
    """Characteristic magnitudes per unknown, for column scaling and the
    scaled convergence norms.

    Displacement, pressure and temperature come from the boundary schedule;
    the traction weight is Young's modulus times the displacement weight.
    Mortar flux scales bound their largest interface-law magnitudes at the
    residual aperture and characteristic driving differences.
    """
    mat = cfg.materials
    base = cfg.characteristic_scales
    k_u, k_p, k_T = base["u"], base["p"], base["T"]
    fracs = mdg.subdomains_of_dim(1)
    if fracs:
        area = float(np.mean(np.concatenate([sd.cell_volumes for sd in fracs])))
    else:
        area = 1.0
    box = mdg.matrix
    span = max(float(np.ptp(box.nodes[0])), float(np.ptp(box.nodes[1])))
    # mortar fluxes are of the order of the matrix fluxes they feed
    k_nu = max(area * (mat.matrix_permeability / mat.viscosity) * k_p / span, 1e-14)
    kappa_eff = mat.effective(mat.conductivity_solid, mat.conductivity_fluid)
    k_cond = max(area * kappa_eff * k_T / span, 1e-14)
    k_adv = max(
        k_nu * mat.density_fluid_ref * mat.heat_capacity_fluid
        * cfg.initial_temperature, 1e-12,
    )
    return {
        "u": k_u, "u_m": k_u, "p": k_p, "T": k_T,
        "lam": mat.youngs_modulus * k_u,
        "nu": k_nu, "nu_cond": k_cond, "nu_adv": k_adv,
    }


def locate_wells(mdg: MixedDimGrid, grids: dict, phase: PhaseConfig) -> dict:
    """Well rates and injection temperatures of one phase, per dimension on
    the stacked cells of ``grids``; dimensions without a well are absent."""
    out = {}
    for w in phase.wells:
        target = np.asarray(w.at, dtype=float)
        best = None
        candidates = []
        if w.subdomain in ("fracture", "auto"):
            candidates += mdg.subdomains_of_dim(1)
        if w.subdomain in ("matrix", "auto") and not candidates:
            candidates += [mdg.matrix]
        for sd in candidates:
            d = np.hypot(*(sd.cell_centers - target[:, None]))
            c = int(np.argmin(d))
            if best is None or d[c] < best[2]:
                best = (sd.id, c, d[c])
        if w.subdomain == "matrix":
            sd = mdg.matrix
            d = np.hypot(*(sd.cell_centers - target[:, None]))
            best = (0, int(np.argmin(d)), 0.0)
        if best is None:
            raise ConfigError(f"sources: no subdomain can host a well at {w.at}")
        sd_id, cell, _ = best
        grid = grids[mdg.subdomain(sd_id).dim]
        at = grid.cell_start[sd_id] + cell
        rates, t_inj = out.setdefault(grid.dim, (np.zeros(grid.num_cells),
                                                 np.zeros(grid.num_cells)))
        rates[at] += w.rate
        if w.temperature is not None:
            t_inj[at] = w.temperature
    return out


def build_loads(scn: Scenario, phase: PhaseConfig, alpha_new: float = 1.0,
                alpha_prev: float = 1.0) -> Loads:
    idx = scn.cfg.phases.index(phase)
    prev_phase = scn.cfg.phases[max(idx - 1, 0)]

    def blend(build, alpha):
        cur = build(phase)
        if alpha >= 1.0 or phase is prev_phase:
            return cur
        old = build(prev_phase)
        if isinstance(cur, dict):
            return {k: old[k] + alpha * (cur[k] - old[k]) for k in cur}
        return old + alpha * (cur - old)

    loads = Loads(
        bc_mech=blend(lambda ph: mech_values(scn, ph), alpha_new),
        bc_mech_prev=blend(lambda ph: mech_values(scn, ph), alpha_prev),
        bc_flow=blend(lambda ph: scalar_values(scn, ph, "flow"), alpha_new),
        bc_heat=blend(lambda ph: scalar_values(scn, ph, "heat"), alpha_new),
    )
    wells = scn.well_cells[idx]
    loads.well_rates = {k: alpha_new * v[0] for k, v in wells.items()}
    loads.well_T_injection = {k: v[1] for k, v in wells.items()}
    return loads


def mech_values(scn: Scenario, phase: PhaseConfig) -> np.ndarray:
    g = scn.mdg.matrix
    side = g.tags["domain_side"]
    vals = np.zeros(2 * g.num_faces)
    for name, sval in phase.mech.items():
        faces = np.where(side == SIDE_CODE[name])[0]
        if sval.displacement is not None:
            vals[2 * faces] = sval.displacement[0]
            vals[2 * faces + 1] = sval.displacement[1]
        if sval.traction is not None:
            vals[2 * faces] = sval.traction[0] * g.face_areas[faces]
            vals[2 * faces + 1] = sval.traction[1] * g.face_areas[faces]
        if sval.stress is not None or sval.stress_gradient_y is not None:
            sigma0 = sval.stress if sval.stress is not None else np.zeros((2, 2))
            sig_y = (sval.stress_gradient_y if sval.stress_gradient_y is not None
                     else np.zeros((2, 2)))
            for f in faces:
                sigma = sigma0 + g.face_centers[1, f] * sig_y
                t = sigma @ g.face_normals[:, f]
                vals[2 * f] += t[0]
                vals[2 * f + 1] += t[1]
    return vals


def scalar_values(scn: Scenario, phase: PhaseConfig, var: str) -> dict:
    """Boundary values of one scalar variable on the stacked faces of the
    matrix and of the fractures, keyed by dimension."""
    cfg = scn.cfg
    table = phase.flow if var == "flow" else phase.heat
    out = {}
    for dim in (2, 1):
        grid = scn.assembler.grids[dim]
        side = grid.tags["domain_side"]
        vals = np.zeros(grid.num_faces)
        if var == "heat":
            # Dirichlet heat sides default to the initial temperature
            dir_sides = [SIDE_CODE[s] for s in cfg.heat_dirichlet]
            vals[np.isin(side, dir_sides)] = cfg.initial_temperature
        elif cfg.initial_pressure == "hydrostatic":
            dir_sides = [SIDE_CODE[s] for s in cfg.flow_dirichlet]
            sel = np.isin(side, dir_sides)
            vals[sel] = hydrostatic_pressure(cfg, grid.face_centers[1, sel])
        for name, value in table.items():
            faces = side == SIDE_CODE[name]
            if value == "hydrostatic":
                vals[faces] = hydrostatic_pressure(cfg, grid.face_centers[1, faces])
            else:
                vals[faces] = value
        out[dim] = vals
    return out
