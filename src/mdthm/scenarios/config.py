"""Scenario configuration: JSON schema, validation and load schedules.

A configuration file is a single JSON object with the mesh source, material
overrides, the dilation model, initial conditions, fixed boundary-condition
types, a list of loading phases with per-side boundary values and well
sources, solver settings and output settings. Validation failures carry the
offending field path.

The ``solver`` section accepts ``max_iterations``, ``increment_tol``,
``damping`` (the relaxation weight of the advective fluxes),
``damping_threshold`` (the share of face fluxes that must flip sign before
relaxation applies) and ``allow_dt_halving``; any other key is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mdthm.constitutive import DilationModel, MaterialSet

SIDES = ("left", "right", "bottom", "top")
SIDE_CODE = {"left": 1, "right": 2, "bottom": 3, "top": 4}
SOLVER_KEYS = ("max_iterations", "increment_tol", "damping", "damping_threshold",
               "allow_dt_halving")


class ConfigError(ValueError):
    pass


@dataclass
class MechSideValue:
    displacement: tuple | None = None
    traction: tuple | None = None
    stress: np.ndarray | None = None
    stress_gradient_y: np.ndarray | None = None


@dataclass
class WellSpec:
    at: tuple
    rate: float
    temperature: float | None = None
    subdomain: str = "auto"  # "fracture" | "matrix" | "auto"


@dataclass
class PhaseConfig:
    name: str
    steady: bool = False
    duration: float = 0.0
    dt: float = 0.0
    dt_init: float = 0.0
    ramp: float = 0.0
    mech: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    heat: dict = field(default_factory=dict)
    wells: list = field(default_factory=list)


@dataclass
class ScenarioConfig:
    name: str
    mesh: dict
    materials: MaterialSet
    dilation_model: DilationModel
    initial_pressure: object  # float or "hydrostatic"
    initial_temperature: float
    initial_normal_traction: float
    mech_dirichlet: list
    flow_dirichlet: list
    heat_dirichlet: list
    phases: list
    solver: dict
    output_every: int = 1

    @property
    def characteristic_scales(self) -> dict:
        """Per-variable magnitudes used for error weights and the solver.

        Derived from the boundary schedule: the displacement weight is the
        largest prescribed boundary displacement, the pressure and
        temperature weights the largest deviations from the initial state.
        """
        mat = self.materials
        k_u = 0.0
        k_p = 0.0
        k_T = 0.0
        p0 = 0.0 if self.initial_pressure == "hydrostatic" else float(self.initial_pressure)
        for ph in self.phases:
            for side, val in ph.mech.items():
                if val.displacement is not None:
                    k_u = max(k_u, float(np.hypot(*val.displacement)))
            for side, val in ph.flow.items():
                if val == "hydrostatic":
                    continue
                k_p = max(k_p, abs(float(val) - p0))
            for side, val in ph.heat.items():
                k_T = max(k_T, abs(float(val) - self.initial_temperature))
            for w in ph.wells:
                if w.temperature is not None:
                    k_T = max(k_T, abs(w.temperature - self.initial_temperature))
        k_u = k_u or 1e-4
        k_p = k_p or 1e6
        k_T = k_T or 1.0
        return {"u": k_u, "p": k_p, "T": k_T}


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def parse_config(raw: dict) -> ScenarioConfig:
    _expect(isinstance(raw, dict), "$", "configuration must be a JSON object")
    name = raw.get("name", "scenario")

    mesh = raw.get("mesh")
    _expect(isinstance(mesh, dict), "mesh", "missing mesh section")
    kind = mesh.get("kind")
    _expect(kind in ("triangular", "cartesian", "gmsh"), "mesh.kind",
            "must be 'triangular', 'cartesian' or 'gmsh'")
    if kind == "gmsh":
        _expect("path" in mesh, "mesh.path", "gmsh meshes need a file path")
    else:
        for key in ("nx", "ny"):
            _expect(isinstance(mesh.get(key), int) and mesh[key] > 0,
                    f"mesh.{key}", "must be a positive integer")
        _expect(int(mesh.get("refinement", 0)) >= 0, "mesh.refinement",
                "must be a nonnegative integer")

    try:
        materials = MaterialSet.from_dict(raw.get("materials", {}))
    except ValueError as err:
        raise ConfigError(f"materials: {err}") from err

    model_code = raw.get("dilation_model", 2)
    _expect(model_code in (0, 1, 2), "dilation_model", "must be 0, 1 or 2")

    initial = raw.get("initial", {})
    p_init = initial.get("pressure", 0.0)
    if p_init != "hydrostatic":
        p_init = float(p_init)
    T_init = float(initial.get("temperature", materials.reference_temperature))
    lam_init = float(initial.get("normal_traction", -1e6))
    _expect(lam_init <= 0, "initial.normal_traction",
            "the starting normal traction must be compressive")

    btypes = raw.get("boundary_types", {})
    lists = {}
    for key in ("mech_dirichlet", "flow_dirichlet", "heat_dirichlet"):
        val = btypes.get(key, [])
        _expect(isinstance(val, list), f"boundary_types.{key}", "must be a list")
        for s in val:
            _expect(s in SIDES, f"boundary_types.{key}", f"unknown side {s!r}")
        lists[key] = val

    phases_raw = raw.get("phases", [])
    _expect(isinstance(phases_raw, list) and phases_raw, "phases",
            "at least one phase is required")
    phases = []
    for i, ph in enumerate(phases_raw):
        path = f"phases[{i}]"
        _expect(isinstance(ph, dict), path, "must be an object")
        steady = bool(ph.get("steady", False))
        duration = float(ph.get("duration", 0.0))
        dt = float(ph.get("dt", 0.0))
        ramp = float(ph.get("ramp", 0.0))
        dt_init = float(ph.get("dt_init", 0.0))
        if not steady:
            _expect(duration > 0, f"{path}.duration", "must be positive")
            _expect(dt > 0, f"{path}.dt", "must be positive")
            _expect(0 <= ramp <= duration, f"{path}.ramp",
                    "must lie within the phase duration")
        mech = {}
        for side, val in ph.get("mech", {}).items():
            _expect(side in SIDES, f"{path}.mech", f"unknown side {side!r}")
            sval = MechSideValue()
            if "displacement" in val:
                _expect(side in lists["mech_dirichlet"], f"{path}.mech.{side}",
                        "displacement given on a non-Dirichlet side")
                sval.displacement = tuple(float(v) for v in val["displacement"])
            if "traction" in val:
                _expect(side not in lists["mech_dirichlet"], f"{path}.mech.{side}",
                        "traction given on a Dirichlet side")
                sval.traction = tuple(float(v) for v in val["traction"])
            if "stress" in val or "stress_gradient_y" in val:
                _expect(side not in lists["mech_dirichlet"], f"{path}.mech.{side}",
                        "stress given on a Dirichlet side")
                if "stress" in val:
                    sval.stress = np.asarray(val["stress"], dtype=float).reshape(2, 2)
                if "stress_gradient_y" in val:
                    sval.stress_gradient_y = np.asarray(
                        val["stress_gradient_y"], dtype=float
                    ).reshape(2, 2)
            mech[side] = sval
        flow, heat = {}, {}
        for var, target, dir_list in (("flow", flow, lists["flow_dirichlet"]),
                                      ("heat", heat, lists["heat_dirichlet"])):
            for side, val in ph.get(var, {}).items():
                _expect(side in SIDES, f"{path}.{var}", f"unknown side {side!r}")
                _expect(side in dir_list, f"{path}.{var}.{side}",
                        "values are only accepted on Dirichlet sides")
                if val == "hydrostatic":
                    _expect(var == "flow", f"{path}.{var}.{side}",
                            "'hydrostatic' applies to flow only")
                    target[side] = "hydrostatic"
                else:
                    target[side] = float(val)
        wells = []
        for j, w in enumerate(ph.get("sources", [])):
            wpath = f"{path}.sources[{j}]"
            _expect("at" in w and len(w["at"]) == 2, f"{wpath}.at",
                    "must be an [x, y] position")
            rate = float(w.get("rate", 0.0))
            temp = w.get("temperature")
            if rate > 0:
                _expect(temp is not None, f"{wpath}.temperature",
                        "injection sources need a temperature")
            wells.append(WellSpec(tuple(map(float, w["at"])), rate,
                                  None if temp is None else float(temp),
                                  w.get("subdomain", "auto")))
        phases.append(PhaseConfig(ph.get("name", f"phase{i}"), steady, duration,
                                  dt, dt_init, ramp, mech, flow, heat, wells))

    solver = dict(raw.get("solver", {}))
    for key in solver:
        _expect(key in SOLVER_KEYS, f"solver.{key}",
                f"unknown solver setting; accepted: {', '.join(SOLVER_KEYS)}")
    out_every = int(raw.get("output", {}).get("every", 1))
    return ScenarioConfig(
        name=name, mesh=mesh, materials=materials,
        dilation_model=DilationModel(model_code),
        initial_pressure=p_init, initial_temperature=T_init,
        initial_normal_traction=lam_init,
        mech_dirichlet=lists["mech_dirichlet"],
        flow_dirichlet=lists["flow_dirichlet"],
        heat_dirichlet=lists["heat_dirichlet"],
        phases=phases, solver=solver, output_every=out_every,
    )
