"""Command line interface.

Subcommands:
    run      --config FILE --out DIR
    converge --config FILE --levels N --out DIR
    dilation --config FILE --out DIR

Exit codes: 0 success, 1 configuration error, 2 nonconvergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from mdthm.mdmesh import MeshError
from mdthm.scenarios.config import ConfigError, parse_config
from mdthm.scenarios.drivers import convergence_study, dilation_comparison, run
from mdthm.system.timeloop import NonConvergence


def _load_raw(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdthm",
        description="Mixed-dimensional thermo-hydro-mechanical fracture simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute all phases of a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_conv = sub.add_parser("converge", help="nested grid-refinement study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--levels", type=int, required=True)
    p_conv.add_argument("--out", required=True)

    p_dil = sub.add_parser("dilation", help="compare the three dilation models")
    p_dil.add_argument("--config", required=True)
    p_dil.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(_load_raw(args.config))
        if args.command == "run":
            result = run(cfg, out_dir=args.out)
            print(f"completed {len(result.records)} steps; "
                  f"max Newton iterations {result.max_newton_iterations}")
        elif args.command == "converge":
            report = convergence_study(cfg, args.levels, out_dir=args.out)
            for key, seq in sorted(report.orders.items()):
                label = f"subdomain {key[0]} {key[1]}"
                text = ", ".join("-" if v is None else f"{v:.2f}" for v in seq)
                print(f"{label}: observed orders {text}")
        else:
            dilation_comparison(cfg, out_dir=args.out)
            print("wrote per-model fracture profiles")
    except (ConfigError, MeshError, json.JSONDecodeError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except NonConvergence as err:
        print(f"nonconvergence: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
