"""The mdthm benchmark: closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seconds S]
    python3 bench/run.py --workload NAME|all --write-reference

Run from the root of a source checkout. Each simulation runs in a fresh,
single-threaded Python process (``bench/sim.py``) on the ``src/`` tree of
the checkout; the next starts only when the previous one has ended. Past
the first two simulations (one untraced and one traced with ``--trace 1``),
none is started that would end after ``--seconds``.

With ``--trace 0`` the end-to-end metrics come from untraced simulations;
the time left is filled with set-up-only processes, which add samples to
``setup_s``. With ``--trace 1`` untraced and traced simulations alternate
and the per-layer metrics come from the traced ones. Every simulation's end
state is checked against the committed reference (``bench/reference``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and every sample. ``--workload all`` measures every
workload untraced and then traced, prints every metric with its unit, and
ends with one such object whose metric names carry the workload. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import summarise, tail  # noqa: E402

TMP = ROOT / ".bench_tmp"
COUNTS = BENCH / "reference" / "counts.json"
CHILD_TIMEOUT_S = 120  # a simulation takes under 25 s; a run must end within 180 s
THREAD_VARS = ("MDTHM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
# counts that must repeat exactly from run to run
EXACT = ("newton_iters", "assembly.assemble_calls", "assembly.nnz",
         "newton.lu_fill", "contact.open", "contact.stick", "contact.glide",
         "contact.flips")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def simulate(workload: str, *, trace=0, setup_only=False, reference=None,
             save_state=None) -> dict:
    """Run bench/sim.py once and return its record, with the process's own
    wall time as ``process_s``; a failed process gives ``{"crashed": ...}``."""
    cmd = [sys.executable, str(BENCH / "sim.py"), "--workload", workload,
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if workloads.writes_output(workload):
        cmd += ["--out", str(TMP / f"out-{os.getpid()}")]
    if reference:
        cmd += ["--reference", str(reference)]
    if save_state:
        cmd += ["--save-state", str(save_state)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S} s",
                "process_s": time.perf_counter() - start}
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}",
                "process_s": elapsed}
    rec = json.loads(lines[-1])
    rec["process_s"] = elapsed
    return rec


def gate_ok(rec: dict) -> bool:
    return ("crashed" not in rec and not rec["failure"]
            and rec["steps_done"] == rec["steps_planned"]
            and rec["gate_error"] is not None and rec["gate_error"] <= rec["gate_tol"])


def layer_metrics(rec: dict) -> dict:
    """Per-layer numbers of one traced simulation."""
    spans = summarise(rec["spans"])

    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    def own(name):
        return spans.get(name, {}).get("self", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    iters = rec["iters_per_step"]
    out = {
        "mdmesh.build_s": total("mdmesh.build"),
        "fvm.mpsa_s": total("fvm.mpsa"),
        "fvm.mpfa_s": total("fvm.mpfa"),
        "fvm.onedim_calls": calls("fvm.onedim"),
        "fvm.onedim_s": total("fvm.onedim"),
        "assembly.static_s": total("assembly.static"),
        "assembly.cache_calls": calls("assembly.cache"),
        "assembly.cache_s": own("assembly.cache"),
        "assembly.assemble_calls": calls("assembly.assemble"),
        "assembly.assemble_s": total("assembly.assemble"),
        "newton.lu_calls": calls("newton.lu"),
        "newton.lu_s": total("newton.lu"),
        "newton.linsolve_self_s": own("newton.linsolve"),
        "newton.solve_self_s": own("newton.solve"),
        "newton.contact_res_s": total("newton.contact_res"),
        "newton.iters_per_step_mean": sum(iters) / max(len(iters), 1),
        "newton.iters_per_step_max": max(iters, default=0),
        "diagnostics.balance_s": own("diagnostics.balance"),
        "output.write_s": sum(own(n) for n in spans if n.startswith("output.")),
        "output.bytes": rec.get("output_bytes", 0),
        "output.files": rec.get("output_files", 0),
        "setup.other_s": own("setup"),
        "run.other_s": own("run"),
    }
    out.update(rec["counts"])
    return out


END_TO_END = {"wall_s": "s", "setup_s": "s", "loop_s": "s", "newton_iters": "count",
              "s_per_iter": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "mdmesh.build_s": "s", "fvm.mpsa_s": "s", "fvm.mpfa_s": "s",
    "fvm.onedim_calls": "count", "fvm.onedim_s": "s",
    "assembly.static_s": "s", "assembly.cache_calls": "count", "assembly.cache_s": "s",
    "assembly.assemble_calls": "count", "assembly.assemble_s": "s",
    "assembly.assemble_s_p50": "s", "assembly.assemble_s_tail": "s",
    "assembly.assemble_s_tail_pct": "%", "assembly.assemble_s_n": "count",
    "assembly.dofs": "count", "assembly.nnz": "count",
    "newton.lu_calls": "count", "newton.lu_s": "s", "newton.lu_s_p50": "s",
    "newton.lu_s_tail": "s", "newton.lu_s_tail_pct": "%", "newton.lu_s_n": "count",
    "newton.lu_fill": "count", "newton.linsolve_self_s": "s",
    "newton.solve_self_s": "s", "newton.contact_res_s": "s",
    "newton.iters_per_step_mean": "count", "newton.iters_per_step_max": "count",
    "contact.open": "count", "contact.stick": "count", "contact.glide": "count",
    "contact.flips": "count", "diagnostics.balance_s": "s",
    "output.write_s": "s", "output.bytes": "B", "output.files": "count",
    "setup.other_s": "s", "run.other_s": "s", "trace.overhead_s": "s",
}


def source_identity() -> dict:
    """Commit if the checkout is a git repository, and a hash of the
    sources and configs either way."""
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("configs/*.json")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def environment() -> dict:
    import numpy
    import scipy

    sim_env = child_env()
    return {
        **source_identity(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env_parent": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_simulation": {v: sim_env[v] for v in THREAD_VARS},
    }


def measure(workload: str, seconds: float, trace: int) -> list:
    """Closed loop: start the next process only when the previous has ended,
    and only if it is expected to end within ``seconds``. Returns
    (kind, record) pairs, kind being "run", "traced" or "setup"."""
    start = time.perf_counter()
    done = []

    def fits(kind):
        took = [r["process_s"] for k, r in done if k == kind]
        if kind == "setup" and not took:
            # a set-up-only process costs a simulation's start-up and set-up
            took = [r["process_s"] - r["wall_s"] + r["setup_s"]
                    for k, r in done if k == "run" and "crashed" not in r]
        return bool(took) and time.perf_counter() - start + max(took) <= seconds

    kinds = ("run", "traced") if trace else ("run",)
    # made whatever the time left: two untraced simulations, so that a median
    # never rests on one sample, or one of each kind when traced
    minimum = len(kinds) if trace else 2
    n = 0
    while True:
        kind = kinds[n % len(kinds)]
        if n >= minimum and not fits(kind):
            break
        rec = simulate(workload, trace=int(kind == "traced"))
        done.append((kind, rec))
        n += 1
        if "crashed" in rec:
            return done
    while not trace and fits("setup"):
        done.append(("setup", simulate(workload, setup_only=True)))
    return done


def report(workload: str, seed: int, trace: int, done: list) -> tuple[dict, dict]:
    sims = [r for k, r in done if k in ("run", "traced")]
    untraced = [r for k, r in done if k == "run" and "crashed" not in r]
    traced = [r for k, r in done if k == "traced" and "crashed" not in r]
    planned = workloads.planned_steps(workloads.raw_config(workload))
    attempted = planned * len(sims)
    failed = sum(planned - r.get("steps_done", 0) for r in sims)
    problems = [f"simulation {i}: {r.get('crashed') or r.get('failure') or 'gate'}"
                for i, r in enumerate(sims) if not gate_ok(r)]
    problems += [f"set-up process: {r['crashed']}" for k, r in done
                 if k == "setup" and "crashed" in r]

    layers = [layer_metrics(r) for r in traced]
    # determinism: counts must repeat exactly within the run...
    observed = [{"newton_iters": r["newton_iters"]} for r in untraced]
    observed += [{"newton_iters": r["newton_iters"], **m} for r, m in zip(traced, layers)]
    for key in EXACT:
        values = {o[key] for o in observed if key in o}
        if len(values) > 1:
            problems.append(f"{key} differs between simulations: {sorted(values)}")
    # ...and are compared with the counts recorded with the reference state
    drift = {}
    if COUNTS.exists() and observed:
        expected = json.loads(COUNTS.read_text()).get(workload, {})
        seen = {}
        for o in observed:
            for key, value in o.items():
                seen.setdefault(key, value)
        drift = {k: {"reference": v, "now": seen[k]}
                 for k, v in expected.items() if k in seen and seen[k] != v}
        for key, pair in drift.items():
            print(f"warning: {key} is {pair['now']}, the reference run had "
                  f"{pair['reference']}", file=sys.stderr)

    metrics = {}
    if trace and traced and untraced:
        for key in layers[0]:
            metrics[key] = statistics.median(m[key] for m in layers)
        for name, span in (("assembly.assemble_s", "assembly.assemble"),
                           ("newton.lu_s", "newton.lu")):
            samples = [d for r in traced for d in summarise(r["spans"])
                       .get(span, {"durations": []})["durations"]]
            p50, tail_value, pct, n = tail(samples)
            metrics.update({f"{name}_p50": p50, f"{name}_tail": tail_value,
                            f"{name}_tail_pct": pct, f"{name}_n": n})
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in untraced))
    elif not trace and untraced:
        setups = [r["setup_s"] for r in untraced]
        setups += [r["setup_s"] for k, r in done if k == "setup" and "crashed" not in r]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "loop_s": statistics.median(r["wall_s"] - r["setup_s"] for r in untraced),
            "newton_iters": statistics.median(r["newton_iters"] for r in untraced),
            "s_per_iter": statistics.median((r["wall_s"] - r["setup_s"]) / r["newton_iters"]
                                            for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    else:
        problems.append("no simulation completed")

    units = PER_LAYER if trace else END_TO_END
    if not problems and set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(units) ^ set(metrics))} missing or unexpected")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seed_effect": "none: the workloads have no random input",
        "load": "closed loop, one client, one single-threaded process per simulation",
        "environment": environment(),
        "problems": problems,
        "drift_from_reference": drift,
        "samples": [{"kind": k, **{f: v for f, v in r.items() if f != "spans"}}
                    for k, r in done],
    }
    return result, detail


def write_reference(workload: str) -> int:
    """Record the end state and exact counts of one traced simulation as the
    workload's reference."""
    import gate

    path = gate.reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_state = TMP / "reference.npy"
    rec = simulate(workload, trace=1, save_state=tmp_state)
    if "crashed" in rec or rec["steps_done"] != rec["steps_planned"]:
        print(f"reference run failed: {rec.get('crashed') or rec['failure']}",
              file=sys.stderr)
        return 1
    shutil.move(str(tmp_state), path)
    counts = json.loads(COUNTS.read_text()) if COUNTS.exists() else {}
    layers = layer_metrics(rec)
    counts[workload] = {"newton_iters": rec["newton_iters"],
                        **{k: layers[k] for k in EXACT if k in layers}}
    COUNTS.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)} and {workload} counts")
    return 0


def check_checkout() -> str:
    for need in (ROOT / "src" / "mdthm" / "__init__.py", workloads.BASE_CONFIG):
        if not need.is_file():
            return f"{need.relative_to(ROOT)} is missing: run from a source checkout"
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*sorted(workloads.WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    missing = check_checkout()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    everything = args.workload == "all"
    names = sorted(workloads.WORKLOADS) if everything else [args.workload]
    results = {}
    TMP.mkdir(exist_ok=True)
    try:
        if args.write_reference:
            return max(write_reference(name) for name in names)
        # "all" measures every workload untraced, then traced
        for trace in ((0, 1) if everything else (args.trace,)):
            for name in names:
                done = measure(name, args.seconds, trace)
                result, detail = report(name, args.seed, trace, done)
                for problem in detail["problems"]:
                    print(f"check failed: {name}: {problem}", file=sys.stderr)
                print(json.dumps(detail))
                results[(name, trace)] = result
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if everything:
        for (name, trace), result in results.items():
            for metric, m in result["metrics"].items():
                print(f"{name:20s} {metric:30s} {m['value']:14.6g} {m['unit']}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": m for (name, _), r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
