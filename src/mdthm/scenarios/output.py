"""File output: legacy-ASCII VTK snapshots and deterministic CSV series."""

from __future__ import annotations

import os

import numpy as np

from mdthm.constitutive import aperture
from mdthm.mdmesh import SubdomainGrid, split_cells
from mdthm.system import Assembler, State

VTK_TYPES = {1: 1, 2: 3, 3: 5, 4: 9}  # nodes per cell -> vtk cell type


def _fmt(x):
    return np.format_float_scientific(x, precision=17)


def vtk_geometry(sd: SubdomainGrid) -> str:
    """The POINTS, CELLS and CELL_TYPES sections of a subdomain's legacy
    VTK file."""
    if sd.dim == 0:
        pts = sd.cell_centers
        lines = ["POINTS 1 double", f"{_fmt(pts[0, 0])} {_fmt(pts[1, 0])} 0.0",
                 "CELLS 1 2", "1 0", "CELL_TYPES 1", "1"]
        return "\n".join(lines)
    lines = [f"POINTS {sd.num_nodes} double"]
    for i in range(sd.num_nodes):
        lines.append(f"{_fmt(sd.nodes[0, i])} {_fmt(sd.nodes[1, i])} 0.0")
    conn = sd.cell_nodes
    total = sum(len(p) + 1 for p in conn)
    lines.append(f"CELLS {sd.num_cells} {total}")
    for poly in conn:
        lines.append(str(len(poly)) + " " + " ".join(str(int(n)) for n in poly))
    lines.append(f"CELL_TYPES {sd.num_cells}")
    for poly in conn:
        lines.append(str(VTK_TYPES[len(poly)]))
    return "\n".join(lines)


def write_vtk(path, sd: SubdomainGrid, cell_data: dict, geometry: str | None = None):
    """One subdomain snapshot as a legacy unstructured-grid VTK file.

    ``geometry`` is the subdomain's :func:`vtk_geometry`, for a caller that
    writes the same subdomain many times; it is formatted here if not given.
    """
    lines = ["# vtk DataFile Version 3.0", "mdthm snapshot", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             vtk_geometry(sd) if geometry is None else geometry]
    lines.append(f"CELL_DATA {sd.num_cells}")
    for name, values in cell_data.items():
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 2:
            lines.append(f"VECTORS {name} double")
            for c in range(sd.num_cells):
                lines.append(f"{_fmt(arr[0, c])} {_fmt(arr[1, c])} 0.0")
        else:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            for c in range(sd.num_cells):
                lines.append(_fmt(arr[c]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fracture_fields(assembler: Assembler, state: State) -> dict:
    """Cellwise fields of all fracture cells at the current state, stacked."""
    x = state.current
    frac = assembler.fracture_state(x, state.prev_step)
    cumulative = assembler.fracture_state(x, np.zeros_like(x)).contact
    jt, jn = frac.jumps[0::2], frac.jumps[1::2]
    lam_t, lam_n = frac.lam[0::2], frac.lam[1::2]
    tau_vec, n_vec = assembler.rotation[:, 0].T, assembler.rotation[:, 1].T
    return {
        "traction": tau_vec * lam_t + n_vec * lam_n,
        "jump": tau_vec * jt + n_vec * jn,
        "jump_tangential": jt,
        "jump_normal": jn,
        "aperture": aperture(jn, jt, assembler.model, assembler.mat),
        "contact_state": frac.contact.astype(float),
        "contact_state_cumulative": cumulative.astype(float),
    }


def snapshot_fields(assembler: Assembler, state: State) -> dict:
    """Cellwise output fields per subdomain at the current state."""
    mdg, dofs, x = assembler.mdg, assembler.dofs, state.current
    fractures = _fracture_fields(assembler, state)
    u = x[dofs.cells(2, "u")]
    own = {2: {"displacement": np.vstack([u[0::2], u[1::2]])}, 1: fractures,
           0: {"aperture": mdg.inherit_aperture(fractures["aperture"])}}
    out = {sd.id: {} for sd in mdg.subdomains}
    for dim, grid in mdg.grids.items():
        stacked = {"pressure": x[dofs.cells(dim, "p")],
                   "temperature": x[dofs.cells(dim, "T")], **own[dim]}
        for name, values in stacked.items():
            for sd_id, part in split_cells(grid, values).items():
                out[sd_id][name] = part
    return out


class RunWriter:
    """Collects per-step outputs of one simulation run."""

    def __init__(self, out_dir, assembler: Assembler, every: int = 1):
        self.out_dir = out_dir
        self.assembler = assembler
        self.every = max(int(every), 1)
        self.count = 0
        self.rows = []
        self.balance_rows = []
        self.geometry = {}  # subdomain id -> vtk_geometry; the mesh never moves
        os.makedirs(os.path.join(out_dir, "vtk"), exist_ok=True)

    def write_snapshot(self, state: State, time: float):
        """Write the state as snapshot number ``count``: the initial state
        is number 0 and the state after step k is number k."""
        fields = snapshot_fields(self.assembler, state)
        for sd in self.assembler.mdg.subdomains:
            path = os.path.join(
                self.out_dir, "vtk",
                f"subdomain_{sd.id}_step_{self.count:05d}.vtk",
            )
            if sd.id not in self.geometry:
                self.geometry[sd.id] = vtk_geometry(sd)
            write_vtk(path, sd, fields[sd.id], self.geometry[sd.id])

    def observe(self, record, state: State):
        jump = self.assembler.jumps(state.current)
        stacked = self.assembler.mdg.grids[1]
        jts, jns = split_cells(stacked, jump[0::2]), split_cells(stacked, jump[1::2])
        for sd in self.assembler.fractures:
            jt, jn = jts[sd.id], jns[sd.id]
            w = sd.cell_volumes / sd.cell_volumes.sum()
            l2_t = float(np.sqrt(np.sum(jt**2 * w)))
            l2_n = float(np.sqrt(np.sum(jn**2 * w)))
            self.rows.append((record.time, sd.frac_num, l2_t, l2_n,
                              record.newton.iterations))
        if record.balance is not None:
            self.balance_rows.append(
                (record.time, record.balance.mass_residual,
                 record.balance.energy_residual)
            )
        self.count += 1
        if self.count % self.every == 0:
            self.write_snapshot(state, record.time)

    def finalize(self):
        path = os.path.join(self.out_dir, "timeseries.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time_s,fracture_id,l2_jump_t_m,l2_jump_n_m,newton_iters\n")
            for t, fid, l2t, l2n, iters in self.rows:
                fh.write(f"{_fmt(t)},{fid},{_fmt(l2t)},{_fmt(l2n)},{iters}\n")
        if self.balance_rows:
            path = os.path.join(self.out_dir, "balance.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("time_s,mass_residual_m3,energy_residual_J\n")
                for t, m, e in self.balance_rows:
                    fh.write(f"{_fmt(t)},{_fmt(m)},{_fmt(e)}\n")
