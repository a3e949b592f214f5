from mdthm.scenarios.config import (
    ConfigError,
    PhaseConfig,
    ScenarioConfig,
    parse_config,
)
from mdthm.scenarios.drivers import (
    RunResult,
    convergence_study,
    dilation_comparison,
    run,
)
from mdthm.scenarios.errors import ErrorReport, weighted_l2_error
from mdthm.scenarios.output import RunWriter, snapshot_fields, write_vtk
from mdthm.scenarios.setup import Scenario, build_loads, build_mesh, build_scenario

__all__ = [
    "ConfigError",
    "ErrorReport",
    "PhaseConfig",
    "RunResult",
    "RunWriter",
    "Scenario",
    "ScenarioConfig",
    "build_loads",
    "build_mesh",
    "build_scenario",
    "convergence_study",
    "dilation_comparison",
    "parse_config",
    "run",
    "snapshot_fields",
    "weighted_l2_error",
    "write_vtk",
]
