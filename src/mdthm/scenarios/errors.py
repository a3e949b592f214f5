"""Grid-refinement error metrics for the convergence studies.

Coarse solutions are projected onto the reference grid through the nested
containment map (piecewise-constant injection); the error of a variable is
the volume-weighted root mean square of the difference d,

    e = sqrt(sum_c V_c d_c^2) / (k sqrt(|Omega|)),

over the reference cells c of the subdomain, with |Omega| = sum_c V_c and k
the variable's characteristic magnitude taken from the boundary data. A
constant difference c gives c / k on every grid.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh import MixedDimGrid, containment_map


def weighted_l2_error(diff: np.ndarray, volumes: np.ndarray, k: float) -> float:
    """The error of a cellwise difference over cells of the given volumes;
    a vector difference, shaped (2, n), counts by its length."""
    d = np.asarray(diff, dtype=float)
    if d.ndim == 2:
        d = np.hypot(d[0], d[1])
    return float(np.sqrt(np.sum(volumes * d * d)) / (k * np.sqrt(np.sum(volumes))))


def observed_orders(errors: list) -> dict:
    """log2 ratios of consecutive levels' errors, per key of the tables
    ``errors`` (one per level); None where either error is missing or below
    roundoff."""
    out = {}
    for key in sorted(set().union(*errors)):
        seq = [table.get(key) for table in errors]
        out[key] = [None if a is None or b is None or a <= 1e-14 or b <= 1e-14
                    else float(np.log2(a / b)) for a, b in zip(seq[:-1], seq[1:])]
    return out


def compare_states(coarse_mdg: MixedDimGrid, ref_mdg: MixedDimGrid,
                   coarse_fields: dict, ref_fields: dict, weights: dict) -> dict:
    """Weighted errors between one level's and the reference's field
    tables, ``{subdomain id: {name: values}}``, of each field named in
    ``weights``; keyed "sd<id>:<name>"."""
    maps = containment_map(coarse_mdg, ref_mdg)
    out = {}
    for sd_id, fields in coarse_fields.items():
        volumes = ref_mdg.subdomains[sd_id].cell_volumes
        for name, values in fields.items():
            if name in weights:
                diff = ref_fields[sd_id][name] - values[..., maps[sd_id]]
                out[f"sd{sd_id}:{name}"] = weighted_l2_error(diff, volumes, weights[name])
    return out
