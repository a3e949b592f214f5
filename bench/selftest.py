"""Fast self-test of the benchmark itself, on a tiny generated case (one
fracture on an 8x4 grid; a few seconds in all).

    python3 bench/selftest.py

Checks that span self-times are non-negative and add up to the traced wall
time within the tracing overhead, that the exact counts repeat across two
traced runs, that the gate accepts a state within its tolerance and rejects
one just outside it, that the metric names agree with BENCHMARK.json, and
that the benchmark refuses to run without the program's sources. Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

from run import END_TO_END, EXACT, PER_LAYER, ROOT, TMP, gate_ok, layer_metrics, simulate
from tracing import self_times
from workloads import SELFTEST, raw_config


def scale_of_first_dof() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    from mdthm.scenarios.config import parse_config
    from mdthm.scenarios.setup import build_mesh, solver_scales

    cfg = parse_config(raw_config(SELFTEST))
    return solver_scales(cfg, build_mesh(cfg))["u"]  # dof 0 is a matrix displacement


def main() -> int:
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    TMP.mkdir(exist_ok=True)
    try:
        ref = TMP / "selftest-reference.npy"
        base = simulate(SELFTEST, save_state=ref)
        check("crashed" not in base and base["steps_done"] == base["steps_planned"],
              "the tiny case runs every step")
        if failures:
            return 1
        traced = [simulate(SELFTEST, trace=1, reference=ref) for _ in range(2)]
        check(all(gate_ok(r) and r["gate_error"] == 0.0 for r in traced),
              "traced runs reproduce the untraced end state exactly")

        rec = traced[0]
        own = self_times(rec["spans"])
        check(min(own) >= 0.0, "span self-times are non-negative")
        overhead = rec["wall_s"] - base["wall_s"]
        check(abs(rec["wall_s"] - sum(own)) <= max(abs(overhead), 1e-3),
              f"self-times add up to the traced wall {rec['wall_s']:.4f} s within "
              f"the tracing overhead {overhead:.4f} s")
        counts = [layer_metrics(r) | {"newton_iters": r["newton_iters"]} for r in traced]
        check(all(counts[0][k] == counts[1][k] for k in EXACT),
              "exact counts repeat across two runs")

        tol = base["gate_tol"] * scale_of_first_dof()
        for factor, accept in ((0.5, True), (2.0, False)):
            x = np.load(ref)
            x[0] += factor * tol
            np.save(TMP / "perturbed.npy", x)
            r = simulate(SELFTEST, reference=TMP / "perturbed.npy")
            check(gate_ok(r) == accept,
                  f"the gate {'accepts' if accept else 'rejects'} an end state "
                  f"{factor} tolerances away (scaled error {r['gate_error']:.3g})")

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
              and {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
              "BENCHMARK.json names the metrics the benchmark prints, with their units")

        bare = TMP / "bare"
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "fine-steady",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the program's sources it exits non-zero and prints no result")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print("self-test " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
