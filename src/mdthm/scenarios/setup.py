"""Build a ready-to-run simulation from a scenario configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.csgraph import connected_components

from mdthm.mdmesh import SIDE_CODE, MeshError, MixedDimGrid, build_lattice, ingest_gmsh
from mdthm.scenarios.config import ConfigError, PhaseConfig, ScenarioConfig
from mdthm.system import Assembler, DirectSolver, Loads, NewtonParams, State


def build_mesh(cfg: ScenarioConfig, extra_refinement: int = 0) -> MixedDimGrid:
    mesh = cfg.mesh
    if mesh["kind"] == "gmsh":
        if extra_refinement or mesh["refinement"]:
            raise ConfigError("mesh.refinement: gmsh meshes cannot be refined")
        return ingest_gmsh(mesh["path"])
    # refinement level k is the generator's grid with 2^k times the cells
    # along each axis; levels nest, and ``containment_map`` relates them
    factor = 2 ** (mesh["refinement"] + extra_refinement)
    return build_lattice(mesh["kind"], mesh["nx"] * factor, mesh["ny"] * factor,
                         mesh["fractures"], mesh["box"])


def hydrostatic_pressure(cfg: ScenarioConfig, y):
    """Pressure at rest under gravity, in equilibrium with the compressible
    fluid at the reference temperature: dp/dy = rho(p, T_ref) g_y, with
    p = p_ref at y = 0. With rho = rho_ref exp((p - p_ref) / K_f) this is

        p = p_ref - K_f ln(1 - rho_ref g_y y / K_f),

    which tends to p_ref + rho_ref g_y y as K_f grows."""
    mat = cfg.materials
    k_f = mat.bulk_fluid
    return mat.reference_pressure - k_f * np.log1p(
        -mat.density_fluid_ref * mat.gravity[1] * np.asarray(y) / k_f)


@dataclass
class Scenario:
    cfg: ScenarioConfig
    mdg: MixedDimGrid
    assembler: Assembler
    state: State
    newton: NewtonParams
    well_cells: list  # per phase: dict dim -> (rates, T_inj) on the stacked cells
    solver: DirectSolver  # one for the run: it keeps the elastic factor

    def load_provider(self, idx: int):
        """Loads of phase ``idx`` at times counted from the start of the
        phase; boundary values ramp linearly from the previous phase's
        values over the first ``ramp`` seconds."""
        phase = self.cfg.phases[idx]

        def provider(t_new, t_prev):
            return build_loads(self, idx,
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

    bc_types = {"mech": dirichlet(mdg.matrix, cfg.mech_dirichlet)}
    check_blocks_held(mdg.matrix, bc_types["mech"])
    for var, sides in (("flow", cfg.flow_dirichlet), ("heat", cfg.heat_dirichlet)):
        bc_types[var] = dirichlet(mdg.matrix, sides)
        bc_types[("frac", var)] = dirichlet(mdg.grids[1], sides)
    # a run without a transient step assembles without storage slots
    asm = Assembler(mdg, cfg.materials, cfg.dilation_model, bc_types,
                    transient=not all(ph.steady for ph in cfg.phases))

    state = State(asm.dofs)
    hydrostatic = cfg.initial_pressure == "hydrostatic"
    init = {(1, "lam"): np.tile([0.0, cfg.initial_normal_traction], mdg.grids[1].num_cells)}
    for dim, grid in mdg.grids.items():
        init[(dim, "p")] = (hydrostatic_pressure(cfg, grid.cell_centers[1]) if hydrostatic
                          else cfg.initial_pressure)
        init[(dim, "T")] = cfg.initial_temperature
    state.set_initial(init)

    newton = NewtonParams(**cfg.solver, scales=solver_scales(cfg, mdg))
    wells = [locate_wells(mdg, ph, f"phases[{i}]") for i, ph in enumerate(cfg.phases)]
    # the solver factors the elastic block in its first solve, not in set-up
    solver = DirectSolver(asm.dofs.mechanics, asm.dofs.contact)
    return Scenario(cfg, mdg, asm, state, newton, wells, solver)


def check_blocks_held(grid, mech_dirichlet: np.ndarray):
    """Raise MeshError for a block of matrix cells, linked through faces with
    two cells, that no mechanics Dirichlet face holds: fractures enclose it,
    and its rigid motions leave the elastic block singular."""
    owner, nbr = grid.face_cells
    inner = nbr >= 0
    links = sps.coo_matrix((np.ones(inner.sum()), (owner[inner], nbr[inner])),
                           shape=(grid.num_cells,) * 2)
    block = connected_components(links, directed=False)[1]
    free = np.setdiff1d(block, block[owner[mech_dirichlet]])
    if free.size:
        cells = np.flatnonzero(block == free[0])
        x, y = grid.cell_centers[:, cells[0]]
        raise MeshError(f"a block of {cells.size} matrix cells, one centred at ({x:.6g}, "
                        f"{y:.6g}), has no mechanics Dirichlet face: the block solver "
                        "needs every block of the matrix held by such a face")


def solver_scales(cfg: ScenarioConfig, mdg: MixedDimGrid) -> dict:
    """Characteristic magnitudes per unknown, for column scaling, the
    scaled convergence norms and the convergence study's error weights.

    They come from the boundary schedule: the displacement scale is the
    largest prescribed boundary displacement, the pressure and temperature
    scales the largest deviations from the initial state. The traction
    scale is Young's modulus times the displacement scale. Mortar flux
    scales bound their largest interface-law magnitudes at the residual
    aperture and characteristic driving differences.
    """
    mat = cfg.materials
    k_u = k_p = k_T = 0.0
    p0 = 0.0 if cfg.initial_pressure == "hydrostatic" else float(cfg.initial_pressure)
    for ph in cfg.phases:
        for val in ph.mech.values():
            if val.displacement is not None:
                k_u = max(k_u, float(np.hypot(*val.displacement)))
        for val in ph.flow.values():
            if val != "hydrostatic":
                k_p = max(k_p, abs(float(val) - p0))
        for val in ph.heat.values():
            k_T = max(k_T, abs(float(val) - cfg.initial_temperature))
        for w in ph.wells:
            if w.temperature is not None:
                k_T = max(k_T, abs(w.temperature - cfg.initial_temperature))
    k_u, k_p, k_T = k_u or 1e-4, k_p or 1e6, k_T or 1.0
    fracture_cells = mdg.grids[1].cell_volumes
    area = float(np.mean(fracture_cells)) if fracture_cells.size else 1.0
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


def locate_wells(mdg: MixedDimGrid, phase: PhaseConfig, path: str) -> dict:
    """Well rates and injection temperatures of one phase, per dimension on
    the stacked cells of ``mdg.grids``; dimensions without a well are
    absent. A source must lie in the matrix's bounding box; errors name the
    source under ``path``, the phase's field path."""
    nodes = mdg.matrix.nodes
    lower, upper = nodes.min(axis=1), nodes.max(axis=1)
    out = {}
    for j, w in enumerate(phase.wells):
        wpath = f"{path}.sources[{j}]"
        target = np.asarray(w.at, dtype=float)
        if np.any(target < lower) or np.any(target > upper):
            raise ConfigError(f"{wpath}.at: {w.at} lies outside the domain "
                              f"{tuple(lower.tolist())} - {tuple(upper.tolist())}")
        # the nearest cell of the fractures, if asked and present, or else
        # of the matrix
        if w.subdomain != "matrix" and mdg.grids[1].num_cells:
            grid = mdg.grids[1]
        elif w.subdomain != "fracture":
            grid = mdg.grids[2]
        else:
            raise ConfigError(f"{wpath}.subdomain: no {w.subdomain} subdomain can host "
                              f"a well at {w.at}")
        at = int(np.argmin(np.hypot(*(grid.cell_centers - target[:, None]))))
        rates, t_inj = out.setdefault(grid.dim, (np.zeros(grid.num_cells),
                                                 np.zeros(grid.num_cells)))
        rates[at] += w.rate
        if w.temperature is not None:
            t_inj[at] = w.temperature
    return out


def build_loads(scn: Scenario, idx: int, alpha_new: float = 1.0,
                alpha_prev: float = 1.0) -> Loads:
    """The loads of phase ``idx``, its boundary values blended from the
    previous phase's by the ramp fractions ``alpha_new`` (at the step's end)
    and ``alpha_prev`` (at its start)."""
    phase, prev_phase = scn.cfg.phases[idx], scn.cfg.phases[max(idx - 1, 0)]

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
        grid = scn.mdg.grids[dim]
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
