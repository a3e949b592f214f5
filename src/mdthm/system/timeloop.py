"""Implicit Euler time stepping through one loading phase."""

from __future__ import annotations

from dataclasses import dataclass

from mdthm.system.assembly import Assembler
from mdthm.system.diagnostics import BalanceReport, balance_report
from mdthm.system.dofs import State
from mdthm.system.newton import DirectSolver, NewtonParams, NewtonReport, newton_solve


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


def time_loop(assembler: Assembler, state: State, phase: PhaseSpec,
              load_provider, newton: NewtonParams, solver: DirectSolver,
              observer=None, start: float = 0.0) -> list[StepRecord]:
    """Run one phase that starts at time ``start``. Steps and loads run on
    the phase's own clock, which starts at 0: ``load_provider(t_new,
    t_prev)`` supplies the Loads. Records and failures carry the time
    ``start`` + t of the run. ``solver``, the run's, solves every Newton
    system, keeping its factors from step to step.

    A transient step's record carries its balance report. The observer, if
    given, is called as observer(record, state) after each converged step
    and before the step is accepted, so ``state.prev_step`` still holds the
    previous step: increments over the step, the slip that classifies
    contact among them, are those Newton converged with. Raises
    NonConvergence naming the step that fails to converge.
    """
    records: list[StepRecord] = []

    def accept(rec: StepRecord):
        records.append(rec)
        if observer is not None:
            observer(rec, state)
        state.accept_step()

    if phase.steady:
        loads = load_provider(0.0, 0.0)
        report = newton_solve(assembler, state, 1.0, True, loads, newton, solver)
        if not report.converged:
            raise NonConvergence(
                f"steady phase {phase.name!r} did not converge: {report.failure}",
                records,
            )
        accept(StepRecord(phase.name, start, 0.0, report, None))
        return records

    t, t_end = 0.0, phase.duration
    dt_phase = phase.dt if phase.dt > 0 else phase.duration
    dt_next = phase.dt_init if phase.dt_init > 0 else dt_phase
    while t < t_end - 1e-12 * max(1.0, t_end):
        dt = min(dt_next, dt_phase, t_end - t)
        dt_next = min(2.0 * dt, dt_phase)
        loads = load_provider(t + dt, t)
        report = newton_solve(assembler, state, dt, False, loads, newton, solver)
        if not report.converged:
            raise NonConvergence(
                f"step from t={start + t:.6g} to t={start + (t + dt):.6g} "
                f"(phase {phase.name!r}) failed: {report.failure}",
                records,
            )
        balance = balance_report(assembler, state, dt, loads)
        t += dt
        accept(StepRecord(phase.name, start + t, dt, report, balance))
    return records
