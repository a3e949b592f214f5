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

from dataclasses import dataclass, field

import numpy as np

from mdthm.mdmesh import MixedDimGrid, containment_map


def weighted_l2_error(diff: np.ndarray, volumes: np.ndarray, k: float) -> float:
    """The error of a cellwise difference over cells of the given volumes;
    a vector difference, shaped (2, n), counts by its length."""
    d = np.asarray(diff, dtype=float)
    if d.ndim == 2:
        d = np.hypot(d[0], d[1])
    return float(np.sqrt(np.sum(volumes * d * d)) / (k * np.sqrt(np.sum(volumes))))


@dataclass
class ErrorReport:
    """Errors per refinement level and observed orders between them.

    errors[level][key] with key = (subdomain index, variable name);
    orders[key] lists log2 ratios of consecutive level errors.
    """

    levels: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    orders: dict = field(default_factory=dict)

    def observed_orders(self):
        keys = set()
        for table in self.errors:
            keys.update(table)
        out = {}
        for key in sorted(keys):
            seq = [table.get(key) for table in self.errors]
            vals = []
            for a, b in zip(seq[:-1], seq[1:]):
                if a is None or b is None or a <= 1e-14 or b <= 1e-14:
                    vals.append(None)
                else:
                    vals.append(float(np.log2(a / b)))
            out[key] = vals
        self.orders = out
        return out


def project_field(maps, sd_index, values):
    """Inject a coarse cellwise field onto the reference grid's cells."""
    idx = maps[sd_index]
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 2:
        return vals[:, idx]
    return vals[idx]


def compare_states(coarse_mdg: MixedDimGrid, ref_mdg: MixedDimGrid,
                   coarse_fields: dict, ref_fields: dict, weights: dict) -> dict:
    """Weighted errors of all shared fields between one level and the
    reference. Fields are keyed (subdomain index, variable)."""
    maps = containment_map(coarse_mdg, ref_mdg)
    out = {}
    for key, coarse_vals in coarse_fields.items():
        sd_index, var = key
        ref_vals = ref_fields[key]
        proj = project_field(maps, sd_index, coarse_vals)
        volumes = ref_mdg.subdomains[sd_index].cell_volumes
        diff = np.asarray(ref_vals) - proj
        out[key] = weighted_l2_error(diff, volumes, weights[var])
    return out
