"""Implicit Euler time stepping over a sequence of loading phases."""

from __future__ import annotations

from dataclasses import dataclass, field

from mdthm.system.assembly import Assembler
from mdthm.system.diagnostics import BalanceReport, balance_report
from mdthm.system.dofs import State
from mdthm.system.newton import DirectSolver, NewtonParams, NewtonReport, newton_solve

MAX_HALVINGS = 3  # time-step halvings allowed per step


class NonConvergence(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass
class PhaseSpec:
    """One loading phase; a steady phase is a single equilibrium solve.

    A positive ``dt_init`` starts the phase with smaller steps that double
    until the nominal dt is reached, easing the first load increments.
    """

    name: str
    duration: float = 0.0
    dt: float = 0.0
    steady: bool = False
    dt_init: float = 0.0


@dataclass
class StepRecord:
    phase: str
    time: float
    dt: float
    newton: NewtonReport
    balance: BalanceReport | None = None


@dataclass
class TimeLoopOptions:
    newton: NewtonParams = field(default_factory=NewtonParams)
    allow_dt_halving: bool = True
    compute_balance: bool = True


def time_loop(assembler: Assembler, state: State, phases: list[PhaseSpec],
              load_provider, options: TimeLoopOptions | None = None,
              solver: DirectSolver | None = None, observer=None) -> list[StepRecord]:
    """Run all phases; ``load_provider(t_new, t_prev)`` supplies the Loads.

    The observer, if given, is called as observer(record, state) after each
    accepted step. Raises NonConvergence when a step fails even after the
    permitted time-step halvings.
    """
    options = options or TimeLoopOptions()
    solver = solver or DirectSolver()
    records: list[StepRecord] = []
    t = 0.0

    for phase in phases:
        if phase.steady:
            loads = load_provider(t, t)
            report = newton_solve(
                assembler, state, 1.0, True, loads, options.newton, solver
            )
            if not report.converged:
                raise NonConvergence(
                    f"steady phase {phase.name!r} did not converge: {report.failure}",
                    records,
                )
            state.accept_step()
            rec = StepRecord(phase.name, t, 0.0, report, None)
            records.append(rec)
            if observer is not None:
                observer(rec, state)
            continue

        t_end = t + phase.duration
        dt_phase = phase.dt if phase.dt > 0 else phase.duration
        dt_next = phase.dt_init if phase.dt_init > 0 else dt_phase
        while t < t_end - 1e-12 * max(1.0, t_end):
            dt = min(dt_next, dt_phase, t_end - t)
            dt_next = min(2.0 * dt, dt_phase)
            halvings = 0
            while True:
                loads = load_provider(t + dt, t)
                report = newton_solve(
                    assembler, state, dt, False, loads, options.newton, solver
                )
                if report.converged:
                    break
                if not options.allow_dt_halving or halvings >= MAX_HALVINGS:
                    raise NonConvergence(
                        f"step at t={t:.6g} (phase {phase.name!r}) failed: "
                        f"{report.failure}",
                        records,
                    )
                halvings += 1
                dt *= 0.5
                state.current[:] = state.prev_step
                state.prev_iter[:] = state.prev_step
            balance = None
            if options.compute_balance:
                balance = balance_report(assembler, state, dt, loads)
            state.accept_step()
            t += dt
            rec = StepRecord(phase.name, t, dt, report, balance)
            records.append(rec)
            if observer is not None:
                observer(rec, state)
    return records
