from mdthm.system.assembly import Assembler, IterationCache, Loads
from mdthm.system.diagnostics import (
    BalanceReport,
    balance_report,
    interface_flux_consistency,
)
from mdthm.system.dofs import LAM, NU, NU_ADV, NU_COND, P, T, U, U_MORTAR, DofMap, State
from mdthm.system.newton import (
    DirectSolver,
    NewtonParams,
    NewtonReport,
    SolverFailure,
    newton_solve,
)
from mdthm.system.timeloop import (
    NonConvergence,
    PhaseSpec,
    StepRecord,
    time_loop,
)

__all__ = [
    "Assembler",
    "BalanceReport",
    "DirectSolver",
    "DofMap",
    "IterationCache",
    "LAM",
    "Loads",
    "NU",
    "NU_ADV",
    "NU_COND",
    "NewtonParams",
    "NewtonReport",
    "NonConvergence",
    "P",
    "PhaseSpec",
    "SolverFailure",
    "State",
    "StepRecord",
    "T",
    "U",
    "U_MORTAR",
    "balance_report",
    "interface_flux_consistency",
    "newton_solve",
    "time_loop",
]
