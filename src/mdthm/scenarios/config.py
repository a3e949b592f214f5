"""Scenario configuration: JSON schema, validation and load schedules.

A configuration file is a single JSON object with the mesh source, material
overrides, the dilation model, initial conditions, fixed boundary-condition
types, a list of loading phases with per-side boundary values and well
sources, solver settings and output settings. Validation failures carry the
offending field path.

The ``solver`` section accepts ``max_iterations`` (the Newton iteration
cap per step) and ``increment_tol`` (the scaled increment at which Newton
stops; a start whose scaled residual is below 1e-4 times it stops at
once); any other key is an error. A time step whose Newton iteration fails
ends the run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from mdthm.constitutive import DilationModel, MaterialSet
from mdthm.mdmesh import SIDES
from mdthm.system.timeloop import PhaseSpec

SOLVER_KEYS = ("max_iterations", "increment_tol")
WELL_SUBDOMAINS = ("fracture", "matrix", "auto")


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
    subdomain: str = "auto"  # one of WELL_SUBDOMAINS


@dataclass
class PhaseConfig(PhaseSpec):
    """A loading phase with its boundary values and wells; its boundary
    values ramp from the previous phase's over the first ``ramp`` seconds."""

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


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _number(value, path, integer=False, shape=()):
    """``value`` as a float, or as an int where ``integer``; for a
    ``shape``, nested tuples of them with that length per axis (any length
    for None). A ConfigError names the field's ``path`` where ``value`` is
    not one."""
    if shape:
        n = shape[0]
        _expect(isinstance(value, (list, tuple)) and n in (None, len(value)), path,
                f"must be a list{'' if n is None else f' of {n}'}, not {value!r}")
        return tuple(_number(v, f"{path}[{i}]", integer, shape[1:])
                     for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{path}: must be a number, not {value!r}")
    # Python's json reads NaN and Infinity, and integers past any float
    _expect(abs(value) <= sys.float_info.max, path, f"must be a finite number, not {value!r}")
    number = float(value)
    if integer:
        _expect(number.is_integer(), path, f"must be an integer, not {value!r}")
        return int(number)
    return number


def _object(value, path):
    """``value`` where it is a JSON object; a ConfigError names ``path``
    where it is not."""
    _expect(isinstance(value, dict), path, f"must be an object, not {value!r}")
    return value


def _flag(value, path):
    """``value`` where it is a JSON boolean; a ConfigError names ``path``
    where it is not."""
    _expect(isinstance(value, bool), path, f"must be true or false, not {value!r}")
    return value


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
        nx, ny = (_number(mesh.get(key), f"mesh.{key}", integer=True) for key in ("nx", "ny"))
        _expect(nx > 0, "mesh.nx", "must be a positive integer")
        _expect(ny > 0, "mesh.ny", "must be a positive integer")
        box = _number(mesh.get("box", ((0.0, 0.0), (1.0, 1.0))), "mesh.box", shape=(2, 2))
        (x0, y0), (x1, y1) = box
        _expect(x0 < x1 and y0 < y1, "mesh.box",
                f"must be [[x0, y0], [x1, y1]] with x0 < x1 and y0 < y1, not {box!r}")
        fractures = _number(mesh.get("fractures", []), "mesh.fractures", shape=(None, 2, 2))
        mesh = dict(mesh, nx=nx, ny=ny, box=box, fractures=fractures)
    refinement = _number(mesh.get("refinement", 0), "mesh.refinement", integer=True)
    _expect(refinement >= 0, "mesh.refinement", "must be a nonnegative integer")
    mesh = dict(mesh, refinement=refinement)

    overrides = dict(_object(raw.get("materials", {}), "materials"))
    defaults = {f.name: f.default for f in fields(MaterialSet)}
    for key, value in overrides.items():
        # the fields a material set has; it names any other key itself
        if key in defaults:
            overrides[key] = _number(value, f"materials.{key}", shape=np.shape(defaults[key]))
    try:
        materials = MaterialSet.from_dict(overrides)
    except ValueError as err:
        raise ConfigError(f"materials: {err}") from err

    model_code = _number(raw.get("dilation_model", 2), "dilation_model", integer=True)
    _expect(model_code in (0, 1, 2), "dilation_model", "must be 0, 1 or 2")

    initial = _object(raw.get("initial", {}), "initial")
    p_init = initial.get("pressure", 0.0)
    if p_init != "hydrostatic":
        p_init = _number(p_init, "initial.pressure")
    T_init = _number(initial.get("temperature", materials.reference_temperature),
                     "initial.temperature")
    lam_init = _number(initial.get("normal_traction", -1e6), "initial.normal_traction")
    _expect(lam_init <= 0, "initial.normal_traction",
            "the starting normal traction must be compressive")

    btypes = _object(raw.get("boundary_types", {}), "boundary_types")
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
        steady = _flag(ph.get("steady", False), f"{path}.steady")
        duration, dt, ramp, dt_init = (_number(ph.get(key, 0.0), f"{path}.{key}")
                                       for key in ("duration", "dt", "ramp", "dt_init"))
        if not steady:
            _expect(duration > 0, f"{path}.duration", "must be positive")
            _expect(dt > 0, f"{path}.dt", "must be positive")
            _expect(0 <= ramp <= duration, f"{path}.ramp",
                    "must lie within the phase duration")
        mech = {}
        for side, val in _object(ph.get("mech", {}), f"{path}.mech").items():
            _expect(side in SIDES, f"{path}.mech", f"unknown side {side!r}")
            _object(val, f"{path}.mech.{side}")
            sval = MechSideValue()
            if "displacement" in val:
                _expect(side in lists["mech_dirichlet"], f"{path}.mech.{side}",
                        "displacement given on a non-Dirichlet side")
                sval.displacement = _number(val["displacement"],
                                            f"{path}.mech.{side}.displacement", shape=(2,))
            if "traction" in val:
                _expect(side not in lists["mech_dirichlet"], f"{path}.mech.{side}",
                        "traction given on a Dirichlet side")
                sval.traction = _number(val["traction"], f"{path}.mech.{side}.traction",
                                        shape=(2,))
            if "stress" in val or "stress_gradient_y" in val:
                _expect(side not in lists["mech_dirichlet"], f"{path}.mech.{side}",
                        "stress given on a Dirichlet side")
                for key in ("stress", "stress_gradient_y"):
                    if key in val:
                        setattr(sval, key, np.array(
                            _number(val[key], f"{path}.mech.{side}.{key}", shape=(2, 2))))
            mech[side] = sval
        flow, heat = {}, {}
        for var, target, dir_list in (("flow", flow, lists["flow_dirichlet"]),
                                      ("heat", heat, lists["heat_dirichlet"])):
            for side, val in _object(ph.get(var, {}), f"{path}.{var}").items():
                _expect(side in SIDES, f"{path}.{var}", f"unknown side {side!r}")
                _expect(side in dir_list, f"{path}.{var}.{side}",
                        "values are only accepted on Dirichlet sides")
                if val == "hydrostatic":
                    _expect(var == "flow", f"{path}.{var}.{side}",
                            "'hydrostatic' applies to flow only")
                    target[side] = "hydrostatic"
                else:
                    target[side] = _number(val, f"{path}.{var}.{side}")
        wells = []
        sources = ph.get("sources", [])
        _expect(isinstance(sources, list), f"{path}.sources", f"must be a list, not {sources!r}")
        for j, w in enumerate(sources):
            wpath = f"{path}.sources[{j}]"
            _object(w, wpath)
            rate = _number(w.get("rate", 0.0), f"{wpath}.rate")
            temp = w.get("temperature")
            if rate > 0:
                _expect(temp is not None, f"{wpath}.temperature",
                        "injection sources need a temperature")
            subdomain = w.get("subdomain", "auto")
            _expect(subdomain in WELL_SUBDOMAINS, f"{wpath}.subdomain",
                    f"must be one of {', '.join(WELL_SUBDOMAINS)}, not {subdomain!r}")
            wells.append(WellSpec(_number(w.get("at"), f"{wpath}.at", shape=(2,)), rate,
                                  None if temp is None else _number(temp, f"{wpath}.temperature"),
                                  subdomain))
        phases.append(PhaseConfig(ph.get("name", f"phase{i}"), duration, dt, steady, dt_init,
                                  ramp, mech, flow, heat, wells))

    solver = {}
    for key, value in _object(raw.get("solver", {}), "solver").items():
        _expect(key in SOLVER_KEYS, f"solver.{key}",
                f"unknown solver setting; accepted: {', '.join(SOLVER_KEYS)}")
        solver[key] = _number(value, f"solver.{key}", integer=key == "max_iterations")
    output = _object(raw.get("output", {}), "output")
    out_every = _number(output.get("every", 1), "output.every", integer=True)
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
