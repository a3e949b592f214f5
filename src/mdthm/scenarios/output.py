"""File output: legacy-ASCII VTK snapshots and deterministic CSV series. Each
array of numbers is formatted in one pass, floats as the shortest decimal
that reads back to the same float64 and integers as decimals."""

from __future__ import annotations

import os

import numpy as np

from mdthm.constitutive import aperture
from mdthm.mdmesh import SubdomainGrid, split_cells
from mdthm.system import Assembler, State

# VTK cell type by nodes per cell: vertex, line, triangle, quad
VTK_TYPES = np.array([0, 1, 3, 5, 9])


def _reals(values) -> list:
    """Each float64 of values as the shortest decimal that reads back to it."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _ints(values) -> list:
    """Each integer of values as its decimal."""
    return list(map(str, np.asarray(values, dtype=np.int64).ravel().tolist()))


def _lines(columns, sep=" ") -> list:
    """One line per row of equal-length columns of text, joined by sep."""
    return list(map(sep.join, zip(*columns)))


def _vectors(values: np.ndarray) -> list:
    """The columns of a (2, n) array as the lines "x y 0.0" of 3d vectors."""
    return _lines([*map(_reals, values), _reals(np.zeros(values.shape[1]))])


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def vtk_geometry(sd: SubdomainGrid) -> list:
    """The lines of the POINTS, CELLS and CELL_TYPES sections of a
    subdomain's legacy VTK file; a point is one VTK_VERTEX cell."""
    ptr, nodes = sd.cells
    sizes = np.diff(ptr)
    # a cell's line is its node count, then its nodes: tokens[ends[c]:ends[c + 1]]
    tokens = _ints(np.insert(nodes, ptr[:-1], sizes))
    ends = (ptr + np.arange(ptr.size)).tolist()
    cells = map(" ".join, map(tokens.__getitem__, map(slice, ends[:-1], ends[1:])))
    return [f"POINTS {sd.num_nodes} double", *_vectors(sd.nodes),
            f"CELLS {sd.num_cells} {len(tokens)}", *cells,
            f"CELL_TYPES {sd.num_cells}", *_ints(VTK_TYPES[sizes])]


def write_vtk(path, sd: SubdomainGrid, cell_data: dict):
    """One subdomain snapshot as a legacy unstructured-grid VTK file."""
    lines = ["# vtk DataFile Version 3.0", "mdthm snapshot", "ASCII",
             "DATASET UNSTRUCTURED_GRID", *vtk_geometry(sd), f"CELL_DATA {sd.num_cells}"]
    for name, values in cell_data.items():
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 2:
            lines += [f"VECTORS {name} double", *_vectors(arr)]
        else:
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default", *_reals(arr)]
    _write(path, lines)


def write_csv(path, header: str, columns):
    """A CSV file: the header line, then one line per row of the
    equal-length columns; an integer column is written as integers, any
    other as floats."""
    text = [_ints(c) if np.asarray(c).dtype.kind in "iu" else _reals(c) for c in columns]
    _write(path, [header, *_lines(text, ",")])


def _fracture_fields(assembler: Assembler, x: np.ndarray, x_prev: np.ndarray) -> dict:
    """Cellwise fields of all fracture cells at x, stacked; the contact
    state counts the slip from x_prev."""
    frac = assembler.fracture_state(x, x_prev)
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


def snapshot_fields(assembler: Assembler, x: np.ndarray, x_prev: np.ndarray) -> dict:
    """Cellwise fields per subdomain id at the state x, whose time step
    started at x_prev: the one field table of the VTK snapshots, the
    convergence study and the dilation comparison."""
    mdg, dofs = assembler.mdg, assembler.dofs
    fractures = _fracture_fields(assembler, x, x_prev)
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
        os.makedirs(os.path.join(out_dir, "vtk"), exist_ok=True)

    def write_snapshot(self, fields: dict):
        """Write a :func:`snapshot_fields` table as snapshot ``count``:
        number 0 is the initial state, number k the state after step k."""
        for sd in self.assembler.mdg.subdomains:
            path = os.path.join(
                self.out_dir, "vtk",
                f"subdomain_{sd.id}_step_{self.count:05d}.vtk",
            )
            write_vtk(path, sd, fields[sd.id])

    def observe(self, record, state: State):
        fields = snapshot_fields(self.assembler, state.current, state.prev_step)
        for sd in self.assembler.fractures:
            jt, jn = fields[sd.id]["jump_tangential"], fields[sd.id]["jump_normal"]
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
            self.write_snapshot(fields)

    def finalize(self):
        write_csv(os.path.join(self.out_dir, "timeseries.csv"),
                  "time_s,fracture_id,l2_jump_t_m,l2_jump_n_m,newton_iters", zip(*self.rows))
        if self.balance_rows:
            write_csv(os.path.join(self.out_dir, "balance.csv"),
                      "time_s,mass_residual_m3,energy_residual_J", zip(*self.balance_rows))
