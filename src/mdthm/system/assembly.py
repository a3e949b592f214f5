"""Monolithic assembly of the coupled mixed-dimensional system.

One call produces the sparse matrix and right-hand side of the linearised
system in all unknowns at the next iterate. Nonlinear coefficients
(apertures, specific volumes, densities, advective fluxes, fracture
permeabilities, contact sets) are taken from the previous iterate through
an :class:`IterationCache`.

Couplings are assembled per kind of mortar, never per interface: the
matrix-fracture and the fracture-point mortars each form one
:class:`MortarGroup`, whose lift restricts the stacked faces of the high
side to all its mortar cells at once. Each coupling term is one product of
a lift or its transpose with a subdomain discretisation, added as one
block with global dof columns; on the matrix side the products are built
once, on the fracture side from each iteration's 1d operators.

The displacement jump of all fracture cells is one operator J = R D on the
global state: D takes the difference of the walls' mortar displacements, R
rotates it to each cell's (tangential, normal) basis, interleaved like the
contact tractions. States pass through the factors, so sticking walls give
their jump by one subtraction instead of cancelling products. Contact
rows, the fracture volume change, apertures and diagnostics read jumps
through J; the contact traction acts on the walls through its transpose.
The volume change of a fracture keeps its normal jump implicit through J
and lags the one-way dilation remainder; at intersection points it is
fully lagged.

Sign conventions: mortar fluid/heat fluxes are total fluxes per mortar cell,
positive from the higher-dimensional side into the lower-dimensional one;
they enter the high side as Neumann data on the duplicated faces and the
low side as a source. Boundary Neumann data is the total outward flux or
traction per face.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from mdthm import contact as ct
from mdthm.constitutive import (
    DilationModel,
    MaterialSet,
    aperture_unchecked,
    cubic_law,
    dgap as dgap_fn,
    fluid_density,
    gap as gap_fn,
    specific_volume,
)
from mdthm.fvm import (
    BoundaryCondition,
    mpfa_discretize,
    mpsa_discretize,
    onedim_discretize,
    upwind_matrices,
)
from mdthm.mdmesh import SIDE_K, MixedDimGrid
from mdthm.system.dofs import LAM, NU, NU_ADV, NU_COND, P, T, U, U_MORTAR, DofMap, State

MECH, FLOW, HEAT = "mech", "flow", "heat"


@dataclass
class Loads:
    """Boundary data and sources for one time step (external slots only)."""

    bc_mech: np.ndarray
    bc_mech_prev: np.ndarray
    bc_flow: dict[int, np.ndarray]
    bc_heat: dict[int, np.ndarray]
    well_rates: dict[int, np.ndarray] = field(default_factory=dict)
    well_T_injection: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class IterationCache:
    """Lagged nonlinear quantities evaluated at the previous iterate.

    Jumps (as J returns them), gaps and gap derivatives are stacked over all
    fracture cells, the mortar fluxes over each group of mortars.
    """

    jumps: np.ndarray
    jumps_prev: np.ndarray  # at the previous time step
    gaps: np.ndarray
    dgaps: np.ndarray
    apertures: dict  # sd id -> cellwise aperture (fractures and points)
    spec_vol: dict  # sd id -> cellwise specific volume (all subdomains)
    spec_vol_prev: dict  # fractures and points, at the previous time step
    density: dict  # sd id -> cellwise fluid density
    face_flux: dict  # sd id -> cached (possibly damped) fluid face fluxes
    mortar_flux: dict  # mortar group -> cached (possibly damped) fluid fluxes
    frac_flow_ops: dict
    frac_heat_ops: dict
    contact_state: dict  # frac id -> cellwise contact state
    sign_flip_fraction: float = 0.0


@dataclass
class MortarGroup:
    """All mortars whose high side has one dimension, in interface order.

    The high and low sides are all subdomains of that dimension and the one
    below, with cells and faces stacked in subdomain order. Per mortar cell,
    ``hi`` / ``lo`` index the adjacent high-side and the coupled low-side
    cell in those stacks, ``low_dofs`` the latter's dofs. ``lift`` restricts
    stacked high-side face fields to the mortar cells. ``dofs`` are the
    interface unknowns, ``high_dofs`` the dofs of all high-side cells.
    """

    high: list
    low: list
    hi: np.ndarray
    lo: np.ndarray
    lift: sps.csr_matrix
    areas: np.ndarray
    normals: np.ndarray  # unit outward normals of the high-side faces
    sides: np.ndarray  # -1 on the j wall of a fracture, +1 on the k wall
    dofs: dict
    high_dofs: dict
    low_dofs: dict

    @property
    def size(self) -> int:
        return self.areas.size

    def at_high(self, values: dict) -> np.ndarray:
        """Cellwise values (sd id -> array) at the adjacent high-side cells."""
        return np.concatenate([values[sd.id] for sd in self.high])[self.hi]

    def at_low(self, values: dict) -> np.ndarray:
        """Cellwise values (sd id -> array) at the coupled low-side cells."""
        return np.concatenate([values[sd.id] for sd in self.low])[self.lo]


def _first(items, size: str) -> dict:
    """Offset of each item (by id) when the items' entities are stacked."""
    sizes = [getattr(it, size) for it in items]
    return dict(zip([it.id for it in items], np.cumsum([0] + sizes)))


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=int)


def mortar_group(mdg: MixedDimGrid, dofs: DofMap, dim: int) -> MortarGroup:
    """Stack the mortars whose high side has dimension ``dim``."""
    intfs = [i for i in mdg.interfaces if mdg.subdomain(i.high_id).dim == dim]
    high, low = mdg.subdomains_of_dim(dim), mdg.subdomains_of_dim(dim - 1)
    cell0, face0 = _first(high, "num_cells"), _first(high, "num_faces")
    low0 = _first(low, "num_cells")
    faces, hi, lo, normals, sides = [], [], [], [], []
    for intf in intfs:
        h = mdg.subdomain(intf.high_id)
        faces.append(face0[h.id] + intf.high_faces)
        hi.append(cell0[h.id] + h.face_cells[0, intf.high_faces])
        lo.append(low0[intf.low_id] + intf.low_cells)
        normals.append(h.face_normals[:, intf.high_faces] / h.face_areas[intf.high_faces])
        sides.append(np.full(intf.num_cells, 1.0 if intf.side == SIDE_K else -1.0))
    n = sum(i.num_cells for i in intfs)
    lift = sps.csr_matrix((np.ones(n), (np.arange(n), _cat(faces))),
                          shape=(n, sum(h.num_faces for h in high)))
    ids = [i.id for i in intfs]
    lo = _cat(lo)
    return MortarGroup(
        high=high, low=low, hi=_cat(hi), lo=lo, lift=lift,
        areas=_cat([i.cell_volumes for i in intfs]).astype(float),
        normals=np.hstack(normals) if normals else np.zeros((2, 0)),
        sides=_cat(sides).astype(float),
        dofs={var: dofs.indices("intf", ids, var)
              for var in ((U_MORTAR,) if dim == 2 else ()) + (NU, NU_ADV, NU_COND)},
        high_dofs={var: dofs.indices("sd", [sd.id for sd in high], var) for var in (P, T)},
        low_dofs={var: dofs.indices("sd", [sd.id for sd in low], var)[lo]
                  for var in (P, T)},
    )


def _mortar_traces(group: MortarGroup, trace_cell, trace_face, trace_vsrc) -> dict:
    """High-side face traces on the mortar cells: cell, boundary-data,
    own-mortar-flux and vector-source parts."""
    face = (group.lift @ trace_face).tocsr()
    return {
        "cell": (group.lift @ trace_cell).tocsr(),
        "face": face,
        "mortar": (face @ group.lift.T).tocsr(),
        "vsrc": (group.lift @ trace_vsrc).tocsr(),
    }


class Assembler:
    def __init__(self, mdg: MixedDimGrid, mat: MaterialSet,
                 dilation_model: DilationModel, bc_types: dict,
                 c_num: dict | None = None, use_stabilization: bool = True):
        self.mdg = mdg
        self.mat = mat
        self.model = dilation_model
        self.dofs = DofMap(mdg)
        self.use_stabilization = use_stabilization

        g2 = mdg.matrix
        self.matrix = g2
        self.div2, _ = g2.cell_faces_csr()
        self.div2_vec = sps.kron(self.div2, sps.eye(2)).tocsr()

        # boundary condition types; internal faces are mechanical Dirichlet
        # and scalar Neumann by construction
        self.bc = {}
        for var in (MECH, FLOW, HEAT):
            is_dir = bc_types[var].copy()
            is_dir[g2.tags["internal"]] = var == MECH
            self.bc[var] = BoundaryCondition(is_dir)
        self.frac_bc = {}
        for sd in mdg.subdomains_of_dim(1):
            self.frac_bc[sd.id] = {}
            for var in (FLOW, HEAT):
                is_dir = bc_types.get(("frac", sd.id, var), np.zeros(sd.num_faces, bool)).copy()
                is_dir[sd.tags["internal"]] = False
                self.frac_bc[sd.id][var] = BoundaryCondition(is_dir)

        self.mech_ops = mpsa_discretize(
            g2, mat.shear_modulus, mat.lame_lambda, mat.biot_alpha,
            mat.thermal_stress_coefficient, self.bc[MECH],
        )
        self.flow_ops = mpfa_discretize(
            g2, mat.matrix_permeability / mat.viscosity, self.bc[FLOW]
        )
        kappa_eff = mat.effective(mat.conductivity_solid, mat.conductivity_fluid)
        self.heat_ops = mpfa_discretize(g2, kappa_eff, self.bc[HEAT])

        # fractures and intersection points, stacked in subdomain order
        self.fractures = mdg.subdomains_of_dim(1)
        self.lower = [sd for sd in mdg.subdomains if sd.dim < 2]
        first = _first(self.fractures, "num_cells")
        self.frac_cells = {sd.id: slice(first[sd.id], first[sd.id] + sd.num_cells)
                           for sd in self.fractures}
        self.basis = {sd.id: mdg.fracture_basis(sd.id) for sd in self.fractures}
        # per fracture cell, the rotation to its (tangential, normal) basis
        self.rotation = np.concatenate(
            [np.zeros((0, 2, 2))]
            + [np.stack([tau.T, n.T], axis=1) for n, tau in self.basis.values()]
        )
        # The traction/displacement scaling c of the contact conditions is a
        # numerical parameter; taking it of the order of the elastic wall
        # stiffness G / (fracture length) keeps the active-set iteration out
        # of stick/glide limit cycles, which appear when c far exceeds that
        # stiffness. Grid-independent on purpose.
        self.c_num = {}
        for sd in self.fractures:
            c = (c_num or {}).get(sd.id, mat.shear_modulus / float(np.sum(sd.cell_volumes)))
            self.c_num[sd.id] = np.broadcast_to(np.asarray(c, float), (sd.num_cells,))
        self.c_all = _cat([self.c_num[sd.id] for sd in self.fractures])

        dofs = self.dofs
        frac_ids = [sd.id for sd in self.fractures]
        self.frac_dofs = {var: dofs.indices("sd", frac_ids, var) for var in (LAM, P)}
        self.lower_dofs = {var: dofs.indices("sd", [sd.id for sd in self.lower], var)
                           for var in (P, T)}
        self.lower_volumes = _cat([sd.cell_volumes for sd in self.lower])
        self.block_starts = np.sort([sl.start for _, sl in dofs.blocks()])
        self.mortars = {dim: mortar_group(mdg, dofs, dim) for dim in (2, 1)}
        # D, the mesh's wall difference with its columns relabelled to dofs
        walls = mdg.jump_operator()
        um = self.mortars[2].dofs[U_MORTAR]
        self.walls = sps.csr_matrix((walls.data, um[walls.indices], walls.indptr),
                                    shape=(walls.shape[0], dofs.num_dofs))
        self._precompute_static()

    def _precompute_static(self):
        """Freeze every state-independent sparse composition.

        The matrix discretisations never change during a run, so products of
        divergences, boundary operators and the matrix-fracture mortar
        projections are built once; only the fracture operators are
        recomposed per iteration.
        """
        mf = self.mortars[2]
        # projection of each high side's mortar fields onto its faces
        self.to_faces = {}
        for group in self.mortars.values():
            extend = group.lift.T.tocsr()
            for sd in group.high:
                self.to_faces[sd.id] = extend[:sd.num_faces]
                extend = extend[sd.num_faces:]
        self.to_faces_vec = sps.kron(self.to_faces[self.matrix.id], sps.eye(2)).tocsr()

        ops = self.mech_ops

        def tractions(rowmap):
            bound = (rowmap @ ops.bound_stress).tocsr()
            return {
                "stress": (rowmap @ ops.stress).tocsr(),
                "bound": bound,
                "grad_p": (rowmap @ ops.grad_p).tocsr(),
                "grad_T": (rowmap @ ops.grad_T).tocsr(),
                "bound_mortar": (bound @ self.to_faces_vec).tocsr(),
            }

        self.mom = tractions(self.div2_vec)
        # the walls see the matrix face tractions with the sign of their side
        walls = sps.diags(np.repeat(mf.sides, 2)) @ self.to_faces_vec.T
        self.wall_tractions = tractions(walls)
        # and the contact traction through the transpose of the jump
        nfc = self.rotation.shape[0]
        wall_jump = self.jump_rows(np.broadcast_to(np.eye(2), (nfc, 2, 2)))
        wall_jump = wall_jump.T.tocsr()[mf.dofs[U_MORTAR]]
        wall_jump.data *= np.repeat(np.repeat(mf.areas * mf.sides, 2),
                                    np.diff(wall_jump.indptr))
        self.wall_lam = wall_jump
        self.wall_p = -wall_jump[:, 1::2]
        self.div_u_mortar = (ops.bound_div_u @ self.to_faces_vec).tocsr()

        self.scalar_static = {}
        self.mortar_traces = {}
        for var, ops in ((FLOW, self.flow_ops), (HEAT, self.heat_ops)):
            div_bound = (self.div2 @ ops.bound_flux).tocsr()
            self.scalar_static[var] = {
                "div_flux": (self.div2 @ ops.flux).tocsr(),
                "div_bound": div_bound,
                "div_vsrc": (self.div2 @ ops.vector_source).tocsr(),
                "div_bound_mortar": (div_bound @ self.to_faces[self.matrix.id]).tocsr(),
            }
            self.mortar_traces[var] = _mortar_traces(
                mf, ops.trace_cell, ops.trace_face, ops.trace_vector_source
            )

    # ------------------------------------------------------------------
    # lagged quantities
    # ------------------------------------------------------------------
    def jumps(self, x: np.ndarray) -> np.ndarray:
        """J x: the (tangential, normal) jump of every fracture cell."""
        d = (self.walls @ x).reshape(-1, 1, 2)
        return (self.rotation * d).sum(axis=2).ravel()

    def _rho_g(self, rho):
        """The cellwise vector source rho g, interleaved (x, y) per cell."""
        return np.outer(rho, self.mat.gravity).ravel()

    def jump_rows(self, blocks: np.ndarray) -> sps.csr_matrix:
        """Per-cell 2x2 blocks times J, over the global dofs. The pattern
        is that of J whatever the block values, zeros included."""
        return _block_product(np.einsum("cij,cjk->cik", blocks, self.rotation),
                              self.walls)

    def jumps_of(self, x: np.ndarray, frac_id: int):
        """(normal, tangential) jump of one fracture's cells at the state x."""
        jump = self.jumps(x)
        cells = self.frac_cells[frac_id]
        return jump[1::2][cells], jump[0::2][cells]

    def coefficient_aperture(self, a):
        """Aperture entering coefficients, floored during iteration.

        Intermediate iterates may overshoot into penetration before the
        active set settles; a small positive floor keeps permeabilities and
        interface weights defined. Converged states must satisfy
        nonpenetration, which the Newton driver verifies separately.
        """
        return np.maximum(a, 1e-3 * self.mat.residual_aperture)

    def _apertures(self, jumps: np.ndarray) -> dict:
        """Floored apertures of all fractures and intersection points."""
        a = self.coefficient_aperture(
            aperture_unchecked(jumps[1::2], jumps[0::2], self.model, self.mat)
        )
        out = {sd.id: a[self.frac_cells[sd.id]] for sd in self.fractures}
        for sd in self.mdg.subdomains_of_dim(0):
            out[sd.id] = self.coefficient_aperture(self.mdg.inherit_aperture(sd.id, out))
        return out

    def build_cache(self, state: State, loads: Loads,
                    prev_cache: IterationCache | None = None,
                    damping: float = 1.0,
                    damping_threshold: float = 0.1) -> IterationCache:
        mdg, mat, dofs = self.mdg, self.mat, self.dofs
        x = state.prev_iter
        jumps, jumps_prev = self.jumps(x), self.jumps(state.prev_step)
        jump_t = jumps[0::2]
        gaps = gap_fn(jump_t, self.model, mat.dilation_angle)
        dgaps = dgap_fn(jump_t, self.model, mat.dilation_angle)
        apertures = self._apertures(jumps)
        apertures_prev = self._apertures(jumps_prev)
        spec_vol = {self.matrix.id: np.ones(self.matrix.num_cells)}
        spec_vol_prev = {}
        for sd in self.lower:
            spec_vol[sd.id] = specific_volume(apertures[sd.id], sd.dim)
            spec_vol_prev[sd.id] = specific_volume(apertures_prev[sd.id], sd.dim)
        density = {sd.id: fluid_density(x[dofs.sd(sd.id, P)], x[dofs.sd(sd.id, T)], mat)
                   for sd in mdg.subdomains}
        frac_flow_ops, frac_heat_ops = {}, {}
        for sd in self.fractures:
            d_flow = spec_vol[sd.id] * cubic_law(apertures[sd.id]) / mat.viscosity
            d_heat = spec_vol[sd.id] * mat.conductivity_fluid
            frac_flow_ops[sd.id] = onedim_discretize(sd, d_flow, self.frac_bc[sd.id][FLOW])
            frac_heat_ops[sd.id] = onedim_discretize(sd, d_heat, self.frac_bc[sd.id][HEAT])
        # contact classification at the previous iterate
        lam = x[self.frac_dofs[LAM]]
        states = ct.classify(
            lam[0::2], lam[1::2], jump_t, jumps[1::2], jumps_prev[0::2], gaps,
            self.c_all, mat.friction_coefficient,
        )
        contact_state = {sd.id: states[self.frac_cells[sd.id]] for sd in self.fractures}

        # fluid face fluxes from the previous iterate, optionally damped
        face_flux = {}
        n_flip = n_total = 0
        for sd in mdg.subdomains:
            if sd.dim == 0:
                continue
            ops = self.flow_ops if sd.dim == 2 else frac_flow_ops[sd.id]
            bvals = self._scalar_boundary_values(sd.id, FLOW, loads, x)
            face_flux[sd.id] = ops.flux @ x[dofs.sd(sd.id, P)] + ops.bound_flux @ bvals \
                + ops.vector_source @ self._rho_g(density[sd.id])
        mortar_flux = {dim: x[group.dofs[NU]].copy() for dim, group in self.mortars.items()}

        if prev_cache is not None:
            old = prev_cache.face_flux
            flips = sum(
                int(np.sum((np.sign(face_flux[k]) * np.sign(old[k])) < 0))
                for k in face_flux
            )
            total = sum(v.size for v in face_flux.values())
            frac_flipped = flips / max(total, 1)
            if damping < 1.0 and frac_flipped > damping_threshold:
                for k in face_flux:
                    face_flux[k] = damp_advective_flux(old[k], face_flux[k], damping)
                for k in mortar_flux:
                    mortar_flux[k] = damp_advective_flux(
                        prev_cache.mortar_flux[k], mortar_flux[k], damping
                    )
            n_flip, n_total = flips, total

        return IterationCache(
            jumps=jumps, jumps_prev=jumps_prev, gaps=gaps, dgaps=dgaps,
            apertures=apertures, spec_vol=spec_vol, spec_vol_prev=spec_vol_prev,
            density=density, face_flux=face_flux, mortar_flux=mortar_flux,
            frac_flow_ops=frac_flow_ops, frac_heat_ops=frac_heat_ops,
            contact_state=contact_state,
            sign_flip_fraction=n_flip / max(n_total, 1),
        )

    def _ext_scalar(self, sd_id, var, loads: Loads):
        """External boundary data with internal (mortar) slots zeroed."""
        sd = self.mdg.subdomain(sd_id)
        table = loads.bc_flow if var == FLOW else loads.bc_heat
        vals = np.array(table.get(sd_id, np.zeros(sd.num_faces)), dtype=float)
        vals[sd.tags["internal"]] = 0.0
        return vals

    def _ext_mech(self, loads_vec):
        vals = np.array(loads_vec, dtype=float)
        internal = np.where(self.matrix.tags["internal"])[0]
        vals[2 * internal] = 0.0
        vals[2 * internal + 1] = 0.0
        return vals

    def _scalar_boundary_values(self, sd_id, var, loads: Loads, x: np.ndarray):
        """External boundary data plus mortar Neumann data on internal faces."""
        group = self.mortars[self.mdg.subdomain(sd_id).dim]
        mortar = x[group.dofs[NU if var == FLOW else NU_COND]]
        return self._ext_scalar(sd_id, var, loads) + self.to_faces[sd_id] @ mortar

    def mech_boundary_values(self, loads_vec: np.ndarray, x: np.ndarray):
        um = x[self.mortars[2].dofs[U_MORTAR]]
        return self._ext_mech(loads_vec) + self.to_faces_vec @ um

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble(self, state: State, cache: IterationCache, dt: float,
                 steady: bool, loads: Loads):
        n = self.dofs.num_dofs
        acc = _Coo(n, self.block_starts)
        b = np.zeros(n)
        self._matrix_momentum(acc, b, loads)
        self._matrix_mass(acc, b, state, cache, dt, steady, loads)
        self._matrix_energy(acc, b, state, cache, dt, steady, loads)
        self._lower_mass(acc, b, state, cache, dt, steady, loads)
        self._lower_energy(acc, b, state, cache, dt, steady, loads)
        self._contact_rows(acc, b, state, cache)
        self._traction_balance(acc, b, loads)
        self._interface_flux_rows(acc, b, cache, loads)
        return acc.matrix(), b

    # -- matrix equations ------------------------------------------------
    def _momentum_traction_terms(self, acc, b, rows, bundle, loads):
        """Add the face tractions that ``bundle`` maps to the given rows."""
        dofs, mat = self.dofs, self.mat
        acc.add_mat(rows, dofs.sd(0, U), bundle["stress"])
        acc.add_mat(rows, dofs.sd(0, P), bundle["grad_p"])
        acc.add_mat(rows, dofs.sd(0, T), bundle["grad_T"])
        acc.add_mat(rows, self.mortars[2].dofs[U_MORTAR], bundle["bound_mortar"])
        ext = self._ext_mech(loads.bc_mech)
        ones = np.ones(self.matrix.num_cells)
        b_contrib = -(bundle["bound"] @ ext)
        b_contrib += bundle["grad_p"] @ (mat.reference_pressure * ones)
        b_contrib += bundle["grad_T"] @ (mat.reference_temperature * ones)
        _add_to(b, rows, b_contrib)

    def _matrix_momentum(self, acc, b, loads):
        g, mat = self.matrix, self.mat
        rows = _index(self.dofs.sd(0, U))
        self._momentum_traction_terms(acc, b, rows, self.mom, loads)
        grav = np.asarray(mat.gravity, float)
        f = np.zeros(2 * g.num_cells)
        f[0::2] = mat.density_solid * grav[0] * g.cell_volumes
        f[1::2] = mat.density_solid * grav[1] * g.cell_volumes
        _add_to(b, rows, f)

    def _div_u_terms(self, acc, b, rows, weight, state, dt, loads):
        """weight/dt * (div u at new state minus at previous step)."""
        dofs = self.dofs
        ops = self.mech_ops
        w = sps.diags(weight / dt)
        acc.add_mat(rows, dofs.sd(0, U), w @ ops.div_u)
        bd = w @ ops.bound_div_u
        acc.add_mat(rows, self.mortars[2].dofs[U_MORTAR], w @ self.div_u_mortar)
        if self.use_stabilization:
            acc.add_mat(rows, dofs.sd(0, P), w @ ops.stab_p)
            acc.add_mat(rows, dofs.sd(0, T), w @ ops.stab_T)
        # previous-step value, including its boundary data
        xp = state.prev_step
        prev_bc = self.mech_boundary_values(loads.bc_mech_prev, xp)
        prev = ops.div_u @ xp[dofs.sd(0, U)] + ops.bound_div_u @ prev_bc
        if self.use_stabilization:
            prev = prev + ops.stab_p @ xp[dofs.sd(0, P)] + ops.stab_T @ xp[dofs.sd(0, T)]
        _add_to(b, rows, weight / dt * prev)
        _add_to(b, rows, -(bd @ self._ext_mech(loads.bc_mech)))

    def _matrix_mass(self, acc, b, state, cache, dt, steady, loads):
        g, mat, dofs = self.matrix, self.mat, self.dofs
        rows = _index(dofs.sd(0, P))
        xp = state.prev_step
        if not steady:
            cm = mat.porosity / mat.bulk_fluid + (
                mat.biot_alpha - mat.porosity
            ) / mat.bulk_solid
            beta_eff = mat.effective(
                mat.thermal_expansion_solid, mat.thermal_expansion_fluid
            )
            wvol = g.cell_volumes / dt
            acc.add_diag(rows, dofs.sd(0, P), cm * wvol)
            acc.add_diag(rows, dofs.sd(0, T), -beta_eff * wvol)
            _add_to(b, rows, cm * wvol * xp[dofs.sd(0, P)]
                    - beta_eff * wvol * xp[dofs.sd(0, T)])
            self._div_u_terms(acc, b, rows, mat.biot_alpha * np.ones(g.num_cells),
                              state, dt, loads)
        self._scalar_flux_divergence(acc, b, rows, 0, FLOW, cache, loads)
        rates = loads.well_rates.get(0)
        if rates is not None:
            _add_to(b, rows, rates)

    def _scalar_flux_divergence(self, acc, b, rows, sd_id, var, cache, loads):
        """div of diffusive (+gravity) fluxes of one scalar on a subdomain."""
        dofs, mat = self.dofs, self.mat
        sd = self.mdg.subdomain(sd_id)
        if sd.dim == 2:
            static = self.scalar_static[var]
            div_flux, bfl = static["div_flux"], static["div_bound"]
            div_vsrc = static["div_vsrc"]
            bfl_mortar = static["div_bound_mortar"]
        else:
            div, _ = sd.cell_faces_csr()
            ops = (cache.frac_flow_ops if var == FLOW else cache.frac_heat_ops)[sd_id]
            div_flux = div @ ops.flux
            bfl = div @ ops.bound_flux
            div_vsrc = div @ ops.vector_source
            bfl_mortar = bfl @ self.to_faces[sd_id]
        acc.add_mat(rows, dofs.sd(sd_id, P if var == FLOW else T), div_flux)
        mckey = NU if var == FLOW else NU_COND
        acc.add_mat(rows, self.mortars[sd.dim].dofs[mckey], bfl_mortar)
        ext = self._ext_scalar(sd_id, var, loads)
        _add_to(b, rows, -(bfl @ ext))
        if var == FLOW and np.any(np.asarray(mat.gravity)):
            _add_to(b, rows, -(div_vsrc @ self._rho_g(cache.density[sd_id])))

    def _advective_divergence(self, acc, b, rows, sd_id, cache, loads, state):
        """Upwinded advective heat fluxes, implicit in temperature."""
        dofs, mat = self.dofs, self.mat
        sd = self.mdg.subdomain(sd_id)
        div = self.div2 if sd.dim == 2 else sd.cell_faces_csr()[0]
        exclude = sd.tags["internal"]
        u_cell, u_face = upwind_matrices(sd, cache.face_flux[sd_id], exclude)
        w = mat.heat_capacity_fluid * cache.density[sd_id]
        acc.add_mat(rows, dofs.sd(sd_id, T), div @ u_cell @ sps.diags(w))
        # boundary inflow carries the boundary temperature where given
        heat_bc = self.frac_bc[sd_id][HEAT] if sd.dim == 1 else self.bc[HEAT]
        ext_T = self._ext_scalar(sd_id, HEAT, loads)
        owner = sd.face_cells[0]
        rho_b = fluid_density(
            state.prev_iter[dofs.sd(sd_id, P)][owner], ext_T, mat
        )
        w_bc = np.where(heat_bc.is_dir, mat.heat_capacity_fluid * rho_b * ext_T, 0.0)
        _add_to(b, rows, -(div @ u_face @ w_bc))
        # advective transfer through internal faces enters via the mortar
        # advective unknowns
        acc.add_mat(rows, self.mortars[sd.dim].dofs[NU_ADV], div @ self.to_faces[sd_id])

    def _energy_accumulation(self, acc, b, rows, sd_id, state, cache, dt,
                             use_effective):
        """(rho c)_eff dT/dt plus the expanded coefficient-change term.

        The lower-dimensional balances are fluid-filled, so their heat
        capacities skip the porosity average.
        """
        dofs, mat = self.dofs, self.mat
        sd = self.mdg.subdomain(sd_id)
        xp, xi = state.prev_step, state.prev_iter
        rho_f = cache.density[sd_id]
        vols = sd.cell_volumes * cache.spec_vol[sd_id] / dt

        def eff(vs, vf):
            return mat.effective(vs, vf) if use_effective else vf

        rc_eff = eff(mat.density_solid * mat.heat_capacity_solid,
                     rho_f * mat.heat_capacity_fluid)
        rck_eff = eff(mat.density_solid * mat.heat_capacity_solid / mat.bulk_solid,
                      rho_f * mat.heat_capacity_fluid / mat.bulk_fluid)
        rcb_eff = eff(
            mat.density_solid * mat.heat_capacity_solid * mat.thermal_expansion_solid,
            rho_f * mat.heat_capacity_fluid * mat.thermal_expansion_fluid,
        )
        T_lag = xi[dofs.sd(sd_id, T)]
        coef_T = vols * (rc_eff - T_lag * rcb_eff)
        coef_p = vols * T_lag * rck_eff
        acc.add_diag(rows, dofs.sd(sd_id, T), coef_T)
        acc.add_diag(rows, dofs.sd(sd_id, P), coef_p)
        _add_to(b, rows, coef_T * xp[dofs.sd(sd_id, T)] + coef_p * xp[dofs.sd(sd_id, P)])

    def _matrix_energy(self, acc, b, state, cache, dt, steady, loads):
        g, mat, dofs = self.matrix, self.mat, self.dofs
        rows = _index(dofs.sd(0, T))
        if not steady:
            self._energy_accumulation(acc, b, rows, 0, state, cache, dt, True)
            weight = (mat.thermal_stress_coefficient * mat.reference_temperature
                      * np.ones(g.num_cells))
            self._div_u_terms(acc, b, rows, weight, state, dt, loads)
        self._scalar_flux_divergence(acc, b, rows, 0, HEAT, cache, loads)
        self._advective_divergence(acc, b, rows, 0, cache, loads, state)
        self._well_energy(acc, b, rows, 0, cache, loads, state)

    def _well_energy(self, acc, b, rows, sd_id, cache, loads, state):
        mat, dofs = self.mat, self.dofs
        rates = loads.well_rates.get(sd_id)
        if rates is None:
            return
        t_inj = loads.well_T_injection.get(sd_id)
        inject = rates > 0
        if np.any(inject):
            rho_in = fluid_density(
                state.prev_iter[dofs.sd(sd_id, P)][inject], t_inj[inject], mat
            )
            src = np.zeros(rates.size)
            src[inject] = rho_in * mat.heat_capacity_fluid * t_inj[inject] * rates[inject]
            _add_to(b, rows, src)
        produce = rates < 0
        if np.any(produce):
            # upwind: produced energy carries the local (implicit) temperature
            coef = np.zeros(rates.size)
            coef[produce] = (mat.heat_capacity_fluid * cache.density[sd_id][produce]
                             * rates[produce])
            acc.add_diag(rows, dofs.sd(sd_id, T), -coef)

    # -- fracture and intersection-point equations -------------------------
    def _volume_change(self, acc, b, var, weight, cache, dt):
        """weight/dt * (V_new - V_old) in every fracture and point balance.

        On fractures V = a0 + jump_n (+ one-way slip remainder, lagged), with
        the normal jump implicit through J. At intersection points V is the
        inherited specific volume, fully lagged. ``weight``, stacked over the
        lower-dimensional cells, is 1 for the mass balance and the lagged
        rho c T for the energy balance.
        """
        rows = self.lower_dofs[var]
        vols = self.lower_volumes / dt * weight
        nfc = self.rotation.shape[0]
        acc.add_mat(rows[:nfc], slice(0, self.dofs.num_dofs),
                    self.jump_rows(vols[:nfc, None, None] * np.eye(2))[1::2])
        # previous-step V without a0 (the constant cancels in the difference)
        v_prev = cache.jumps_prev[1::2]
        rem_new = np.zeros(nfc)
        if self.model is DilationModel.ONE_WAY:
            tanp = np.tan(self.mat.dilation_angle)
            v_prev = v_prev + tanp * np.abs(cache.jumps_prev[0::2])
            rem_new = tanp * np.abs(cache.jumps[0::2])
        lagged = [cache.spec_vol_prev[sd.id] - cache.spec_vol[sd.id]
                  for sd in self.lower if sd.dim == 0]
        _add_to(b, rows, vols * np.concatenate([v_prev - rem_new] + lagged))

    def _lower_mass(self, acc, b, state, cache, dt, steady, loads):
        """Mass balances of all fractures and intersection points."""
        mat, dofs = self.mat, self.dofs
        xp = state.prev_step
        if not steady:
            for sd in self.lower:
                rows = _index(dofs.sd(sd.id, P))
                wvol = sd.cell_volumes * cache.spec_vol[sd.id] / dt
                acc.add_diag(rows, dofs.sd(sd.id, P), wvol / mat.bulk_fluid)
                acc.add_diag(rows, dofs.sd(sd.id, T), -wvol * mat.thermal_expansion_fluid)
                _add_to(b, rows, wvol / mat.bulk_fluid * xp[dofs.sd(sd.id, P)]
                        - wvol * mat.thermal_expansion_fluid * xp[dofs.sd(sd.id, T)])
            self._volume_change(acc, b, P, np.ones(self.lower_volumes.size), cache, dt)
        for sd in self.fractures:
            rows = _index(dofs.sd(sd.id, P))
            self._scalar_flux_divergence(acc, b, rows, sd.id, FLOW, cache, loads)
        self._mortar_sources(acc, P, (NU,))
        for sd in self.lower:
            rates = loads.well_rates.get(sd.id)
            if rates is not None:
                _add_to(b, _index(dofs.sd(sd.id, P)), rates)

    def _lower_energy(self, acc, b, state, cache, dt, steady, loads):
        """Energy balances of all fractures and intersection points."""
        mat, dofs = self.mat, self.dofs
        if not steady:
            for sd in self.lower:
                rows = _index(dofs.sd(sd.id, T))
                self._energy_accumulation(acc, b, rows, sd.id, state, cache, dt, False)
            rho = _cat([cache.density[sd.id] for sd in self.lower])
            weight = mat.heat_capacity_fluid * rho * state.prev_iter[self.lower_dofs[T]]
            self._volume_change(acc, b, T, weight, cache, dt)
        for sd in self.fractures:
            rows = _index(dofs.sd(sd.id, T))
            self._scalar_flux_divergence(acc, b, rows, sd.id, HEAT, cache, loads)
            self._advective_divergence(acc, b, rows, sd.id, cache, loads, state)
        self._mortar_sources(acc, T, (NU_ADV, NU_COND))
        for sd in self.lower:
            self._well_energy(acc, b, _index(dofs.sd(sd.id, T)), sd.id, cache, loads, state)

    def _mortar_sources(self, acc, var, keys):
        """The mortar fluxes ``keys`` enter every fracture and point cell's
        balance of ``var`` as sources."""
        for group in self.mortars.values():
            rows = np.tile(group.low_dofs[var], len(keys))
            cols = np.concatenate([group.dofs[key] for key in keys])
            acc.add(rows, cols, -np.ones(rows.size))

    def _contact_rows(self, acc, b, state, cache):
        """Contact conditions of every fracture cell in lam and the jump J x."""
        if not self.fractures:
            return
        mat = self.mat
        rows = self.frac_dofs[LAM]
        lam = state.prev_iter[rows]
        jump_t, jump_n = cache.jumps[0::2], cache.jumps[1::2]
        jt_prev = cache.jumps_prev[0::2]
        states = np.concatenate([cache.contact_state[sd.id] for sd in self.fractures])
        coeffs = ct.row_coefficients(
            states, lam[0::2], lam[1::2], jump_t, jump_n, jt_prev, cache.gaps,
            self.c_all, mat.friction_coefficient,
        )
        a_lam, a_jump, rhs = ct.assemble_rows(
            coeffs, jump_t, jt_prev, cache.gaps, cache.dgaps, mat.friction_coefficient,
        )
        rows2 = rows.reshape(-1, 2)
        _add_blocks(acc, rows2, rows2, a_lam)
        acc.add_mat(rows, slice(0, self.dofs.num_dofs), self.jump_rows(a_jump))
        _add_to(b, rows, rhs.ravel())

    # -- interface rows ------------------------------------------------------
    def _traction_balance(self, acc, b, loads):
        """Rows of the mortar displacements: contact traction balances the
        projected matrix traction minus the fracture pressure."""
        rows = self.mortars[2].dofs[U_MORTAR]
        acc.add_mat(rows, self.frac_dofs[LAM], self.wall_lam)
        acc.add_mat(rows, self.frac_dofs[P], self.wall_p)
        self._momentum_traction_terms(acc, b, rows, self.wall_tractions, loads)

    def _interface_flux_rows(self, acc, b, cache, loads):
        for dim, group in self.mortars.items():
            if group.size == 0:
                continue
            if dim == 2:
                traces = self.mortar_traces
            else:
                traces = {}
                for var, ops in ((FLOW, cache.frac_flow_ops), (HEAT, cache.frac_heat_ops)):
                    stacked = [sps.block_diag([getattr(ops[sd.id], name) for sd in group.high],
                                              format="csr")
                               for name in ("trace_cell", "trace_face", "trace_vector_source")]
                    traces[var] = _mortar_traces(group, *stacked)
            self._mortar_flux_rows(acc, b, dim, traces, cache, loads)

    def _mortar_flux_rows(self, acc, b, dim, traces, cache, loads):
        """Interface laws of one mortar group.

        Darcy and Fourier fluxes are w (trace of the high side - low cell
        value), with w = A V_high 2 kappa / a_low; the advective flux is the
        lagged fluid flux times c rho T on its upstream side.
        """
        mat, group = self.mat, self.mortars[dim]
        ones = np.ones(group.size)
        v_high = group.at_high(cache.spec_vol)
        a_low = group.at_low(cache.apertures)
        k_low = cubic_law(a_low)
        areas = group.areas
        w_flow = areas * v_high * (k_low / mat.viscosity) * 2.0 / a_low
        w_heat = areas * v_high * mat.conductivity_fluid * 2.0 / a_low

        for var, svar, key, w in ((P, FLOW, NU, w_flow), (T, HEAT, NU_COND, w_heat)):
            rows = group.dofs[key]
            acc.add_diag(rows, rows, ones)
            acc.add(rows, group.low_dofs[var], w)
            wd = sps.diags(w)
            tr = traces[svar]
            acc.add_mat(rows, group.high_dofs[var], -(wd @ tr["cell"]))
            acc.add_mat(rows, rows, -(wd @ tr["mortar"]))
            ext = np.concatenate([self._ext_scalar(sd.id, svar, loads) for sd in group.high])
            _add_to(b, rows, w * (tr["face"] @ ext))
            if var == P and np.any(np.asarray(mat.gravity)):
                grav = np.asarray(mat.gravity, float)
                rho_high = np.concatenate([cache.density[sd.id] for sd in group.high])
                _add_to(b, rows, w * (tr["vsrc"] @ self._rho_g(rho_high)))
                # gravity term of the interface law itself
                rho_l = group.at_low(cache.density)
                gn = (grav[:, None] * group.normals).sum(axis=0)
                coef = areas * v_high * (k_low / mat.viscosity) * rho_l * gn
                _add_to(b, rows, coef)

        # advective rows: nu_adv = nu_lagged * c rho T(upstream side)
        rows = group.dofs[NU_ADV]
        acc.add_diag(rows, rows, ones)
        nu_lag = cache.mortar_flux[dim]
        upstream_high = nu_lag > 0
        w_high = mat.heat_capacity_fluid * group.at_high(cache.density)
        w_low = mat.heat_capacity_fluid * group.at_low(cache.density)
        coef_h = np.where(upstream_high, -nu_lag * w_high, 0.0)
        coef_l = np.where(~upstream_high, -nu_lag * w_low, 0.0)
        acc.add(rows, group.high_dofs[T][group.hi], coef_h)
        acc.add(rows, group.low_dofs[T], coef_l)


def damp_advective_flux(flux_prev, flux_new, omega):
    """Relaxed flux update q = omega q_new + (1 - omega) q_prev."""
    return omega * np.asarray(flux_new, float) + (1.0 - omega) * np.asarray(
        flux_prev, float
    )


class _Coo:
    """Coordinate-format accumulator of the system matrix.

    scipy sums duplicate entries in an order that depends on the sequence of
    entries in each row. Every addition is therefore stored one dof block
    of columns at a time, in dof order and otherwise in the given order:
    a coupling stacked over many interfaces enters its rows in the same
    sequence as one added interface by interface.
    """

    def __init__(self, n, block_starts):
        self.n = n
        self.block_starts = block_starts
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rows, cols, vals):
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        vals = np.broadcast_to(np.asarray(vals, dtype=float), rows.shape)
        block = np.searchsorted(self.block_starts, cols, side="right")
        if np.any(block[1:] < block[:-1]):
            order = np.argsort(block, kind="stable")
            rows, cols, vals = rows[order], cols[order], vals[order]
        self.rows.append(rows)
        self.cols.append(cols)
        self.vals.append(vals)

    def add_diag(self, rows, cols, vals):
        self.add(rows, _index(cols), vals)

    def add_mat(self, rows, cols, mat):
        """Add a sparse block whose columns are the global dofs ``cols``
        (an index array or a slice)."""
        m = mat.tocoo()
        if m.nnz == 0:
            return
        self.add(np.asarray(rows)[m.row], _index(cols)[m.col], m.data)

    def matrix(self):
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        return sps.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))


def _index(dofs) -> np.ndarray:
    """Global dof indices of a slice or an index array."""
    if isinstance(dofs, slice):
        return np.arange(dofs.start, dofs.stop)
    return np.asarray(dofs)


def _block_product(blocks, m) -> sps.csr_matrix:
    """Per-cell 2x2 blocks times the row pairs (2c, 2c + 1) of m, whose two
    rows share no column. Every stored entry of m is kept, zeros included."""
    m = m.tocoo()
    cell, comp = np.divmod(m.row, 2)
    rows = np.concatenate([2 * cell, 2 * cell + 1])
    vals = np.concatenate([blocks[cell, 0, comp] * m.data, blocks[cell, 1, comp] * m.data])
    return sps.csr_matrix((vals, (rows, np.tile(m.col, 2))), shape=m.shape)


def _add_to(b, rows, vals):
    np.add.at(b, rows, vals)


def _add_blocks(acc: _Coo, rows2, cols2, blocks):
    """Scatter per-cell 2x2 blocks; rows2/cols2 are (nc, 2) global indices."""
    rr = np.repeat(rows2, 2, axis=1).ravel()
    cc = np.tile(cols2, (1, 2)).ravel()
    acc.add(rr, cc, blocks.ravel())
