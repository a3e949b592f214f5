"""Spans around the public calls into each mdthm layer, installed from
outside the package.

Each wrapper records a span (name, start, end, parent) in memory; the
simulation process hands the list over when it exits. Names imported with
``from ... import`` are wrapped where they are looked up, e.g.
``mdthm.system.timeloop.balance_report``.
"""

from __future__ import annotations

import functools
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.last_lu = None  # most recent SuperLU object, for its fill
        self.last_nnz = 0
        self.dofs = 0
        self.flips = 0
        self.contact_end = {}  # fracture id -> cell states of the last cache

    def wrap(self, owner, attr: str, name: str, after=None):
        """Replace ``owner.attr`` by a function that records a span around
        each call; ``after(args, kwargs, result)`` runs outside the span."""
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        import scipy.sparse.linalg as spla

        from mdthm.scenarios import drivers, output, setup
        from mdthm.system import assembly, newton, timeloop

        self.wrap(drivers, "run", "run")
        self.wrap(drivers, "build_scenario", "setup")
        self.wrap(setup, "build_mesh", "mdmesh.build")
        self.wrap(assembly, "mpsa_discretize", "fvm.mpsa")
        self.wrap(assembly, "mpfa_discretize", "fvm.mpfa")
        self.wrap(assembly, "onedim_discretize", "fvm.onedim")
        self.wrap(assembly.Assembler, "_precompute_static", "assembly.static")
        self.wrap(assembly.Assembler, "build_cache", "assembly.cache",
                  after=self._after_cache)
        self.wrap(assembly.Assembler, "assemble", "assembly.assemble",
                  after=self._after_assemble)
        self.wrap(timeloop, "newton_solve", "newton.solve")
        self.wrap(newton, "contact_residual_norm", "newton.contact_res")
        self.wrap(newton.DirectSolver, "solve", "newton.linsolve")
        self.wrap(spla, "splu", "newton.lu", after=self._after_lu)
        self.wrap(timeloop, "balance_report", "diagnostics.balance")
        self.wrap(output.RunWriter, "write_snapshot", "output.snapshot")
        self.wrap(output.RunWriter, "observe", "output.observe")
        self.wrap(output.RunWriter, "finalize", "output.finalize")
        self.wrap(drivers, "_write_summary", "output.summary")

    def _after_cache(self, args, kwargs, cache):
        prev = kwargs.get("prev_cache")
        if prev is not None:
            self.flips += sum(int((cache.contact_state[k] != prev.contact_state[k]).sum())
                              for k in cache.contact_state)
        # The last cache of a run is built at the end state: by the balance
        # report after a transient step, or by the converged Newton iteration.
        self.contact_end = cache.contact_state

    def _after_assemble(self, args, kwargs, result):
        A = result[0]
        self.last_nnz = int(A.nnz)
        self.dofs = int(A.shape[0])

    def _after_lu(self, args, kwargs, lu):
        self.last_lu = lu

    def counts(self) -> dict:
        """Counts read at the end of a traced run (outside every span)."""
        from mdthm.contact import ContactState

        states = list(self.contact_end.values())

        def n_in(state):
            return int(sum(int((s == state).sum()) for s in states))

        lu = self.last_lu
        return {
            "assembly.dofs": self.dofs,
            "assembly.nnz": self.last_nnz,
            "newton.lu_fill": 0 if lu is None else int(lu.L.nnz + lu.U.nnz),
            "contact.open": n_in(ContactState.OPEN),
            "contact.stick": n_in(ContactState.STICKING),
            "contact.glide": n_in(ContactState.GLIDING),
            "contact.flips": self.flips,
        }


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.
    Spans of one process never overlap unless nested, so the children's
    durations add up to the time they cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarise(spans) -> dict:
    """Per span name: calls, total duration, total self time and the list of
    durations."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                      "durations": []})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += own
        entry["durations"].append(end - start)
    return out


def tail(samples):
    """Median, and the highest percentile that has ten samples beyond it.

    Returns (median, tail value, tail percentile, sample count). With fewer
    than 11 samples the tail is the maximum, reported as percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    if n <= 10:
        return statistics.median(s), s[-1], 100.0, n
    return statistics.median(s), s[n - 11], 100.0 * (n - 10) / n, n
