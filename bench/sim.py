"""One simulation of a benchmark workload, in a fresh process.

    python3 bench/sim.py --workload NAME [--setup-only] [--trace 1]
        [--out DIR] [--reference FILE] [--save-state FILE]

Runs the workload through ``mdthm.scenarios.drivers.run``, the entry point
of ``mdthm run``, and prints one JSON line: wall and set-up time, steps
planned and done, Newton iterations, peak resident memory, the gate's
scaled error against the reference end state and, when traced, the spans.
``bench/run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import gate
import workloads


def _timed(owner, attr, sink):
    """Time every call of ``owner.attr`` into the list ``sink``."""
    orig = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    setattr(owner, attr, timed)


def _output_size(path):
    files = size = 0
    for base, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="output directory, for a workload that writes")
    ap.add_argument("--reference", help="reference end state (.npy)")
    ap.add_argument("--save-state", help="write the end state here (.npy)")
    args = ap.parse_args(argv)

    from mdthm.scenarios import drivers
    from mdthm.scenarios.config import parse_config
    from mdthm.system.timeloop import NonConvergence

    raw = workloads.raw_config(args.workload)
    cfg = parse_config(raw)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_times = []
    _timed(drivers, "build_scenario", setup_times)

    if args.setup_only:
        drivers.build_scenario(cfg)
        print(json.dumps({"setup_s": setup_times[0]}))
        return 0

    out_dir = args.out
    start = time.perf_counter()
    try:
        result = drivers.run(cfg, out_dir=out_dir)
        records, failure = result.records, ""
    except NonConvergence as exc:
        result, records, failure = None, exc.history, str(exc)
    wall = time.perf_counter() - start

    rec = {
        "wall_s": wall,
        "setup_s": setup_times[0],
        "steps_planned": workloads.planned_steps(raw),
        "steps_done": len(records),
        "iters_per_step": [r.newton.iterations for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failure": failure,
        "gate_tol": gate.tolerance(raw),
        "gate_error": None,
    }
    rec["newton_iters"] = sum(rec["iters_per_step"])
    if out_dir is not None:
        rec["output_files"], rec["output_bytes"] = _output_size(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        rec["spans"] = tracer.spans
        rec["counts"] = tracer.counts()
    if result is not None:
        x = result.scenario.state.current
        if args.save_state:
            np.save(args.save_state, x)
        ref_path = args.reference or gate.reference_path(args.workload)
        if os.path.exists(ref_path):
            rec["gate_error"] = gate.scaled_error(result.scenario, x, np.load(ref_path))
        else:
            rec["failure"] = f"no reference end state at {ref_path}"
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
