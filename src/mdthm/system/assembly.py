"""Monolithic assembly of the coupled mixed-dimensional system.

One call produces the sparse matrix and right-hand side of the linearised
system in all unknowns at the next iterate. Nonlinear coefficients
(apertures, specific volumes, densities, advective fluxes, fracture
permeabilities, contact sets) are taken from the previous iterate through
an :class:`IterationCache`.

Balance laws are assembled per dimension, never per subdomain: the
fractures form one stacked 1d grid and the intersection points one stacked
0d grid, in subdomain order. Each iteration discretises flow and heat on
all fractures with one call each, and the cell and face fields of the
cache are one array per dimension. Couplings are assembled per kind of
mortar, never per interface: the matrix-fracture and the fracture-point
mortars each form one :class:`MortarGroup`, whose lift restricts the
stacked faces of the high side to all its mortar cells at once. Each
coupling term is one product of a lift or its transpose with the
discretisation of a dimension, added as one block with global dof columns;
on the matrix side the products are built once, on the fracture side from
each iteration's stacked 1d operators.

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

The inputs and outputs are stacked the same way. :class:`Loads` holds
boundary values per dimension, over the stacked faces of the matrix (2) and
the fractures (1), and well data per dimension, over the stacked cells of 2,
1 and 0. The fracture boundary types are one array per scalar variable over
the stacked fracture faces, ``bc_types[("frac", "flow" | "heat")]``
(Neumann where absent). Callers read the jumps of all fracture cells from
:meth:`Assembler.jumps`, and jumps with tractions, gaps and contact states
from :meth:`Assembler.fracture_state`, with the contact scaling ``c_num``
and the bases ``rotation`` stacked alike. They split them per fracture only
to write a file (:func:`mdthm.mdmesh.split_cells`).

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
    dgap,
    fluid_density,
    fluid_storage,
    gap,
    heat_capacities,
    specific_volume,
)
from mdthm.fvm import (
    BoundaryCondition,
    mpfa_discretize,
    mpsa_discretize,
    onedim_discretize,
    upwind_matrices,
)
from mdthm.mdmesh import SIDE_K, MixedDimGrid, SubdomainGrid, split_cells, stack_grids
from mdthm.system.dofs import LAM, NU, NU_ADV, NU_COND, P, T, U, U_MORTAR, DofMap, State

MECH, FLOW, HEAT = "mech", "flow", "heat"


@dataclass
class Loads:
    """Boundary data and sources for one time step (external slots only).

    ``bc_mech`` / ``bc_mech_prev`` hold the matrix face values, interleaved
    (x, y). The other tables map a dimension to one array over the stacked
    entities of that dimension: ``bc_flow`` and ``bc_heat`` over the faces
    of 2 and 1, ``well_rates`` and ``well_T_injection`` over the cells of
    2, 1 and 0. A missing dimension has zero data: no well, homogeneous
    boundary values.
    """

    bc_mech: np.ndarray
    bc_mech_prev: np.ndarray
    bc_flow: dict[int, np.ndarray]
    bc_heat: dict[int, np.ndarray]
    well_rates: dict[int, np.ndarray] = field(default_factory=dict)
    well_T_injection: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class FractureState:
    """Contact variables of all fracture cells at a state x, stacked: J x and
    J x_ref interleaved (tangential, normal), the tractions interleaved
    alike, the gap and its derivative in the tangential jump, and the
    cellwise :class:`mdthm.contact.ContactState`."""

    jumps: np.ndarray
    jumps_ref: np.ndarray
    lam: np.ndarray
    gaps: np.ndarray
    dgaps: np.ndarray
    contact: np.ndarray


@dataclass
class IterationCache:
    """Lagged nonlinear quantities evaluated at the previous iterate.

    Cell and face fields are keyed by dimension and stacked over the
    subdomains of that dimension. The fracture state (against the previous
    time step) is stacked over all fracture cells, the mortar fluxes over
    each group of mortars.
    """

    fracture: FractureState
    apertures: dict  # dim -> cellwise aperture (fractures and points)
    spec_vol: dict  # dim -> cellwise specific volume (all dimensions)
    spec_vol_prev: dict  # fractures and points, at the previous time step
    density: dict  # dim -> cellwise fluid density
    face_flux: dict  # dim -> cached (possibly damped) fluid face fluxes
    mortar_flux: dict  # mortar group -> cached (possibly damped) fluid fluxes
    fracture_ops: dict  # flow / heat -> 1d operators of the stacked fractures
    contact_state: dict  # frac id -> its cells' view of ``fracture.contact``


@dataclass
class MortarGroup:
    """All mortars whose high side has dimension ``dim``, in interface order.

    Per mortar cell, ``hi`` / ``lo`` index the adjacent high-side and the
    coupled low-side cell in the stacked grids of the two dimensions.
    ``lift`` restricts stacked high-side face fields to the mortar cells;
    ``dofs`` are the interface unknowns.
    """

    dim: int
    hi: np.ndarray
    lo: np.ndarray
    lift: sps.csr_matrix
    areas: np.ndarray
    normals: np.ndarray  # unit outward normals of the high-side faces
    sides: np.ndarray  # -1 on the j wall of a fracture, +1 on the k wall
    dofs: dict

    @property
    def size(self) -> int:
        return self.areas.size


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=int)


def _of_dim(table: dict, dim: int, size: int) -> np.ndarray:
    """A copy of the stacked values of one dimension, zero if absent."""
    return np.array(table[dim], dtype=float) if dim in table else np.zeros(size)


def mortar_group(mdg: MixedDimGrid, dofs: DofMap, high: SubdomainGrid,
                 low: SubdomainGrid) -> MortarGroup:
    """Stack the mortars between the stacked grids ``high`` and ``low``."""
    intfs = [i for i in mdg.interfaces if i.high_id in high.face_start]
    faces = _cat([high.face_start[i.high_id] + i.high_faces for i in intfs])
    n = faces.size
    var = ((U_MORTAR,) if high.dim == 2 else ()) + (NU, NU_ADV, NU_COND)
    return MortarGroup(
        dim=high.dim,
        hi=high.face_cells[0, faces],
        lo=_cat([low.cell_start[i.low_id] + i.low_cells for i in intfs]),
        lift=sps.csr_matrix((np.ones(n), (np.arange(n), faces)), shape=(n, high.num_faces)),
        areas=_cat([i.cell_volumes for i in intfs]).astype(float),
        normals=high.face_normals[:, faces] / high.face_areas[faces],
        sides=_cat([np.full(i.num_cells, 1.0 if i.side == SIDE_K else -1.0)
                    for i in intfs]).astype(float),
        dofs={v: dofs.indices("intf", [i.id for i in intfs], v) for v in var},
    )


def _mortar_traces(group: MortarGroup, ops) -> dict:
    """High-side face traces on the mortar cells: cell, boundary-data,
    own-mortar-flux and vector-source parts."""
    face = (group.lift @ ops.trace_face).tocsr()
    return {
        "cell": (group.lift @ ops.trace_cell).tocsr(),
        "face": face,
        "mortar": (face @ group.lift.T).tocsr(),
        "vsrc": (group.lift @ ops.trace_vector_source).tocsr(),
    }


class Assembler:
    def __init__(self, mdg: MixedDimGrid, mat: MaterialSet,
                 dilation_model: DilationModel, bc_types: dict):
        self.mdg = mdg
        self.mat = mat
        self.model = dilation_model
        self.dofs = DofMap(mdg)

        # the subdomains of each dimension as one grid, in subdomain order
        self.grids = {dim: stack_grids(dim, mdg.subdomains_of_dim(dim)) for dim in (2, 1, 0)}
        g2, g1 = mdg.matrix, self.grids[1]
        self.matrix = g2
        self.fractures = mdg.subdomains_of_dim(1)
        self.div = {dim: self.grids[dim].cell_faces_csr()[0] for dim in (2, 1)}
        self.div2_vec = sps.kron(self.div[2], sps.eye(2)).tocsr()

        # boundary condition types; internal faces are mechanical Dirichlet
        # and scalar Neumann by construction
        self.bc = {}
        for var in (MECH, FLOW, HEAT):
            is_dir = bc_types[var].copy()
            is_dir[g2.tags["internal"]] = var == MECH
            self.bc[var] = BoundaryCondition(is_dir)
        self.frac_bc = {}
        for var in (FLOW, HEAT):
            is_dir = np.zeros(g1.num_faces, dtype=bool)
            is_dir[:] = bc_types.get(("frac", var), False)
            is_dir[g1.tags["internal"]] = False
            self.frac_bc[var] = BoundaryCondition(is_dir)

        self.mech_ops = mpsa_discretize(
            g2, mat.shear_modulus, mat.lame_lambda, mat.biot_alpha,
            mat.thermal_stress_coefficient, self.bc[MECH],
        )
        self.flow_ops = mpfa_discretize(
            g2, mat.matrix_permeability / mat.viscosity, self.bc[FLOW]
        )
        kappa_eff = mat.effective(mat.conductivity_solid, mat.conductivity_fluid)
        self.heat_ops = mpfa_discretize(g2, kappa_eff, self.bc[HEAT])

        # per fracture cell, the rotation to its (tangential, normal) basis:
        # row 0 is the unit tangent, row 1 the unit normal
        self.rotation = np.concatenate(
            [np.zeros((0, 2, 2))]
            + [np.stack([tau.T, n.T], axis=1)
               for n, tau in (mdg.fracture_basis(sd.id) for sd in self.fractures)]
        )
        # The traction/displacement scaling c of the contact conditions, per
        # fracture cell. Of the order of the elastic wall stiffness
        # G / (fracture length), it keeps the active-set iteration out of
        # stick/glide limit cycles, which appear when c far exceeds that
        # stiffness. Grid-independent on purpose.
        self.c_num = np.concatenate(
            [np.zeros(0)]
            + [np.full(sd.num_cells, mat.shear_modulus / float(np.sum(sd.cell_volumes)))
               for sd in self.fractures]
        )

        dofs = self.dofs
        # per dimension, the cell dofs of each variable in stacked cell order
        self.cell_dofs = {dim: {var: dofs.indices("sd", list(grid.cell_start), var)
                                for var in (P, T)}
                          for dim, grid in self.grids.items()}
        self.cell_dofs[1][LAM] = dofs.indices("sd", list(g1.cell_start), LAM)
        self.lower_dofs = {var: np.concatenate([self.cell_dofs[d][var] for d in (1, 0)])
                           for var in (P, T)}
        self.lower_volumes = np.concatenate([g1.cell_volumes, self.grids[0].cell_volumes])
        self.block_starts = np.sort([sl.start for _, sl in dofs.blocks()])
        self.mortars = {dim: mortar_group(mdg, dofs, self.grids[dim], self.grids[dim - 1])
                        for dim in (2, 1)}
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
        # projection of each dimension's mortar fields onto its faces
        self.to_faces = {dim: group.lift.T.tocsr() for dim, group in self.mortars.items()}
        self.to_faces_vec = sps.kron(self.to_faces[2], sps.eye(2)).tocsr()

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
        div = self.div[2]
        for var, ops in ((FLOW, self.flow_ops), (HEAT, self.heat_ops)):
            div_bound = (div @ ops.bound_flux).tocsr()
            self.scalar_static[var] = {
                "div_flux": (div @ ops.flux).tocsr(),
                "div_bound": div_bound,
                "div_vsrc": (div @ ops.vector_source).tocsr(),
                "div_bound_mortar": (div_bound @ self.to_faces[2]).tocsr(),
            }
            self.mortar_traces[var] = _mortar_traces(mf, ops)

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

    def coefficient_aperture(self, a):
        """Aperture entering coefficients, floored during iteration.

        Intermediate iterates may overshoot into penetration before the
        active set settles; a small positive floor keeps permeabilities and
        interface weights defined. Converged states must satisfy
        nonpenetration, which the Newton driver verifies separately.
        """
        return np.maximum(a, 1e-3 * self.mat.residual_aperture)

    def _apertures(self, jumps: np.ndarray) -> dict:
        """Floored apertures of the fractures and intersection points."""
        a = self.coefficient_aperture(
            aperture_unchecked(jumps[1::2], jumps[0::2], self.model, self.mat)
        )
        branches = split_cells(self.grids[1], a)
        points = [self.coefficient_aperture(self.mdg.inherit_aperture(k, branches))
                  for k in self.grids[0].cell_start]
        return {1: a, 0: np.concatenate([np.zeros(0)] + points)}

    def fracture_state(self, x: np.ndarray, x_ref: np.ndarray) -> FractureState:
        """Jumps, tractions, gaps and contact states of all fracture cells
        at x, with the tangential slip counted from x_ref: the previous time
        step within a step, zero for the slip accumulated since the start."""
        mat = self.mat
        jumps, jumps_ref = self.jumps(x), self.jumps(x_ref)
        lam = x[self.cell_dofs[1][LAM]]
        jump_t = jumps[0::2]
        gaps = gap(jump_t, self.model, mat.dilation_angle)
        contact = ct.classify(
            lam[0::2], lam[1::2], jump_t, jumps[1::2], jumps_ref[0::2], gaps,
            self.c_num, mat.friction_coefficient,
        )
        dgaps = dgap(jump_t, self.model, mat.dilation_angle)
        return FractureState(jumps, jumps_ref, lam, gaps, dgaps, contact)

    def build_cache(self, state: State, loads: Loads,
                    prev_cache: IterationCache | None = None,
                    damping: float = 1.0,
                    damping_threshold: float = 0.1) -> IterationCache:
        mat, cells = self.mat, self.cell_dofs
        x = state.prev_iter
        # jumps and contact states at the previous iterate
        frac = self.fracture_state(x, state.prev_step)
        apertures = self._apertures(frac.jumps)
        apertures_prev = self._apertures(frac.jumps_ref)
        spec_vol = {2: np.ones(self.matrix.num_cells)}
        spec_vol_prev = {}
        for dim in (1, 0):
            spec_vol[dim] = specific_volume(apertures[dim], dim)
            spec_vol_prev[dim] = specific_volume(apertures_prev[dim], dim)
        density = {dim: fluid_density(x[c[P]], x[c[T]], mat) for dim, c in cells.items()}
        g1, v1 = self.grids[1], spec_vol[1]
        fracture_ops = {
            FLOW: onedim_discretize(g1, v1 * cubic_law(apertures[1]) / mat.viscosity,
                                    self.frac_bc[FLOW]),
            HEAT: onedim_discretize(g1, v1 * mat.conductivity_fluid, self.frac_bc[HEAT]),
        }
        # fluid face fluxes from the previous iterate, optionally damped
        face_flux = {}
        for dim, ops in ((2, self.flow_ops), (1, fracture_ops[FLOW])):
            bvals = self._scalar_boundary_values(dim, FLOW, loads, x)
            face_flux[dim] = ops.flux @ x[cells[dim][P]] + ops.bound_flux @ bvals \
                + ops.vector_source @ self._rho_g(density[dim])
        mortar_flux = {dim: x[group.dofs[NU]].copy() for dim, group in self.mortars.items()}

        # relax both when more than a share damping_threshold of the face
        # fluxes flipped sign since the previous iterate
        if prev_cache is not None and damping < 1.0:
            old = prev_cache.face_flux
            flips = sum(
                int(np.sum((np.sign(face_flux[k]) * np.sign(old[k])) < 0))
                for k in face_flux
            )
            total = sum(v.size for v in face_flux.values())
            if flips / max(total, 1) > damping_threshold:
                for k in face_flux:
                    face_flux[k] = damp_advective_flux(old[k], face_flux[k], damping)
                for k in mortar_flux:
                    mortar_flux[k] = damp_advective_flux(
                        prev_cache.mortar_flux[k], mortar_flux[k], damping
                    )

        return IterationCache(
            fracture=frac,
            apertures=apertures, spec_vol=spec_vol, spec_vol_prev=spec_vol_prev,
            density=density, face_flux=face_flux, mortar_flux=mortar_flux,
            fracture_ops=fracture_ops,
            contact_state=split_cells(self.grids[1], frac.contact),
        )

    def _ext_scalar(self, dim, var, loads: Loads):
        """External boundary data of one dimension, internal (mortar) slots
        zeroed."""
        grid = self.grids[dim]
        vals = _of_dim(loads.bc_flow if var == FLOW else loads.bc_heat, dim, grid.num_faces)
        vals[grid.tags["internal"]] = 0.0
        return vals

    def _ext_mech(self, loads_vec):
        vals = np.array(loads_vec, dtype=float)
        internal = np.where(self.matrix.tags["internal"])[0]
        vals[2 * internal] = 0.0
        vals[2 * internal + 1] = 0.0
        return vals

    def _scalar_boundary_values(self, dim, var, loads: Loads, x: np.ndarray):
        """External boundary data plus mortar Neumann data on internal faces."""
        mortar = x[self.mortars[dim].dofs[NU if var == FLOW else NU_COND]]
        return self._ext_scalar(dim, var, loads) + self.to_faces[dim] @ mortar

    def mech_boundary_values(self, loads_vec: np.ndarray, x: np.ndarray):
        um = x[self.mortars[2].dofs[U_MORTAR]]
        return self._ext_mech(loads_vec) + self.to_faces_vec @ um

    def _wells(self, dim, loads: Loads):
        """Well rates and injection temperatures of one dimension's cells,
        zero where there is no well."""
        n = self.grids[dim].num_cells
        return _of_dim(loads.well_rates, dim, n), _of_dim(loads.well_T_injection, dim, n)

    def boundary_heat_weight(self, dim, loads: Loads, x: np.ndarray) -> np.ndarray:
        """rho c T_b on the Dirichlet heat faces of one dimension, zero on
        the others: boundary inflow carries the boundary temperature, at
        the density of the adjacent cell's pressure in state x."""
        mat, grid = self.mat, self.grids[dim]
        is_dir = (self.bc[HEAT] if dim == 2 else self.frac_bc[HEAT]).is_dir
        ext_T = self._ext_scalar(dim, HEAT, loads)
        rho_b = fluid_density(x[self.cell_dofs[dim][P]][grid.face_cells[0]], ext_T, mat)
        return np.where(is_dir, mat.heat_capacity_fluid * rho_b * ext_T, 0.0)

    def injected_energy(self, dim, loads: Loads, x: np.ndarray) -> np.ndarray:
        """Energy rate rho c T_inj q of each injecting well of one dimension,
        at the density of the cell's pressure in state x; zero elsewhere."""
        mat = self.mat
        rates, t_inj = self._wells(dim, loads)
        inject = rates > 0
        src = np.zeros(rates.size)
        rho_in = fluid_density(x[self.cell_dofs[dim][P]][inject], t_inj[inject], mat)
        src[inject] = rho_in * mat.heat_capacity_fluid * t_inj[inject] * rates[inject]
        return src

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
        self._contact_rows(acc, b, cache)
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
        """The rows sum the outward face tractions of each cell, which
        balance the body force: sum of tractions = -rho_s g V."""
        g, mat = self.matrix, self.mat
        rows = _index(self.dofs.sd(0, U))
        self._momentum_traction_terms(acc, b, rows, self.mom, loads)
        _add_to(b, rows, -self._rho_g(mat.density_solid * g.cell_volumes))

    def _div_u_terms(self, acc, b, rows, weight, state, dt, loads):
        """weight/dt * (div u at new state minus at previous step)."""
        dofs = self.dofs
        ops = self.mech_ops
        w = sps.diags(weight / dt)
        acc.add_mat(rows, dofs.sd(0, U), w @ ops.div_u)
        bd = w @ ops.bound_div_u
        acc.add_mat(rows, self.mortars[2].dofs[U_MORTAR], w @ self.div_u_mortar)
        acc.add_mat(rows, dofs.sd(0, P), w @ ops.stab_p)
        acc.add_mat(rows, dofs.sd(0, T), w @ ops.stab_T)
        # previous-step value, including its boundary data
        prev = self.div_u(state.prev_step, loads.bc_mech_prev)
        _add_to(b, rows, weight / dt * prev)
        _add_to(b, rows, -(bd @ self._ext_mech(loads.bc_mech)))

    def div_u(self, x: np.ndarray, bc_mech: np.ndarray) -> np.ndarray:
        """The cellwise volume change of the matrix at state x with the
        mechanical boundary values bc_mech, stabilisation included."""
        ops, dofs = self.mech_ops, self.dofs
        bc = self.mech_boundary_values(bc_mech, x)
        return (ops.div_u @ x[dofs.sd(0, U)] + ops.bound_div_u @ bc
                + ops.stab_p @ x[dofs.sd(0, P)] + ops.stab_T @ x[dofs.sd(0, T)])

    def _matrix_mass(self, acc, b, state, cache, dt, steady, loads):
        g, mat, rows = self.matrix, self.mat, self.cell_dofs[2][P]
        if not steady:
            self._fluid_storage(acc, b, 2, state.prev_step, g.cell_volumes / dt)
            self._div_u_terms(acc, b, rows, mat.biot_alpha * np.ones(g.num_cells),
                              state, dt, loads)
        self._scalar_flux_divergence(acc, b, 2, FLOW, cache, loads)
        _add_to(b, rows, self._wells(2, loads)[0])

    def _fluid_storage(self, acc, b, dim, xp, wvol):
        """Fluid storage of one dimension's cells of weighted volumes wvol,
        implicit in p and T, against the previous-step state xp."""
        cells = self.cell_dofs[dim]
        c_p = fluid_storage(wvol, 0.0, self.mat, dim == 2)
        c_T = fluid_storage(0.0, wvol, self.mat, dim == 2)
        acc.add_diag(cells[P], cells[P], c_p)
        acc.add_diag(cells[P], cells[T], c_T)
        _add_to(b, cells[P], c_p * xp[cells[P]] + c_T * xp[cells[T]])

    def _scalar_flux_divergence(self, acc, b, dim, var, cache, loads):
        """div of diffusive (+gravity) fluxes of one scalar in one dimension."""
        if dim == 2:
            static = self.scalar_static[var]
            div_flux, bfl = static["div_flux"], static["div_bound"]
            div_vsrc = static["div_vsrc"]
            bfl_mortar = static["div_bound_mortar"]
        else:
            div, ops = self.div[1], cache.fracture_ops[var]
            div_flux = div @ ops.flux
            bfl = div @ ops.bound_flux
            div_vsrc = div @ ops.vector_source
            bfl_mortar = bfl @ self.to_faces[1]
        cells = self.cell_dofs[dim][P if var == FLOW else T]
        acc.add_mat(cells, cells, div_flux)
        acc.add_mat(cells, self.mortars[dim].dofs[NU if var == FLOW else NU_COND], bfl_mortar)
        _add_to(b, cells, -(bfl @ self._ext_scalar(dim, var, loads)))
        if var == FLOW and np.any(np.asarray(self.mat.gravity)):
            _add_to(b, cells, -(div_vsrc @ self._rho_g(cache.density[dim])))

    def _advective_divergence(self, acc, b, dim, cache, loads, state):
        """Upwinded advective heat fluxes, implicit in temperature."""
        mat, cells, grid, div = self.mat, self.cell_dofs[dim], self.grids[dim], self.div[dim]
        rows = cells[T]
        u_cell, u_face = upwind_matrices(grid, cache.face_flux[dim], grid.tags["internal"])
        w = mat.heat_capacity_fluid * cache.density[dim]
        acc.add_mat(rows, rows, div @ u_cell @ sps.diags(w))
        w_bc = self.boundary_heat_weight(dim, loads, state.prev_iter)
        _add_to(b, rows, -(div @ u_face @ w_bc))
        # advective transfer through internal faces enters via the mortar
        # advective unknowns
        acc.add_mat(rows, self.mortars[dim].dofs[NU_ADV], div @ self.to_faces[dim])

    def _energy_accumulation(self, acc, b, dim, state, cache, dt):
        """(rho c)_eff dT/dt plus the expanded coefficient-change term."""
        cells = self.cell_dofs[dim]
        xp, xi = state.prev_step, state.prev_iter
        vols = self.grids[dim].cell_volumes * cache.spec_vol[dim] / dt
        rc_eff, rck_eff, rcb_eff = heat_capacities(cache.density[dim], self.mat, dim == 2)
        T_lag = xi[cells[T]]
        coef_T = vols * (rc_eff - T_lag * rcb_eff)
        coef_p = vols * T_lag * rck_eff
        acc.add_diag(cells[T], cells[T], coef_T)
        acc.add_diag(cells[T], cells[P], coef_p)
        _add_to(b, cells[T], coef_T * xp[cells[T]] + coef_p * xp[cells[P]])

    def _matrix_energy(self, acc, b, state, cache, dt, steady, loads):
        g, mat = self.matrix, self.mat
        if not steady:
            self._energy_accumulation(acc, b, 2, state, cache, dt)
            weight = (mat.thermal_stress_coefficient * mat.reference_temperature
                      * np.ones(g.num_cells))
            self._div_u_terms(acc, b, self.cell_dofs[2][T], weight, state, dt, loads)
        self._scalar_flux_divergence(acc, b, 2, HEAT, cache, loads)
        self._advective_divergence(acc, b, 2, cache, loads, state)
        self._well_energy(acc, b, 2, cache, loads, state)

    def _well_energy(self, acc, b, dim, cache, loads, state):
        mat, cells = self.mat, self.cell_dofs[dim]
        rates = self._wells(dim, loads)[0]
        if np.any(rates > 0):
            _add_to(b, cells[T], self.injected_energy(dim, loads, state.prev_iter))
        produce = rates < 0
        if np.any(produce):
            # upwind: produced energy carries the local (implicit) temperature
            coef = mat.heat_capacity_fluid * cache.density[dim][produce] * rates[produce]
            acc.add_diag(cells[T][produce], cells[T][produce], -coef)

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
        jumps, jumps_prev = cache.fracture.jumps, cache.fracture.jumps_ref
        v_prev = jumps_prev[1::2]
        rem_new = np.zeros(nfc)
        if self.model is DilationModel.ONE_WAY:
            tanp = np.tan(self.mat.dilation_angle)
            v_prev = v_prev + tanp * np.abs(jumps_prev[0::2])
            rem_new = tanp * np.abs(jumps[0::2])
        lagged = cache.spec_vol_prev[0] - cache.spec_vol[0]
        _add_to(b, rows, vols * np.concatenate([v_prev - rem_new, lagged]))

    def _lower_mass(self, acc, b, state, cache, dt, steady, loads):
        """Mass balances of all fractures and intersection points."""
        if not steady:
            for dim in (1, 0):
                wvol = self.grids[dim].cell_volumes * cache.spec_vol[dim] / dt
                self._fluid_storage(acc, b, dim, state.prev_step, wvol)
            self._volume_change(acc, b, P, np.ones(self.lower_volumes.size), cache, dt)
        self._scalar_flux_divergence(acc, b, 1, FLOW, cache, loads)
        self._mortar_sources(acc, P, (NU,))
        for dim in (1, 0):
            _add_to(b, self.cell_dofs[dim][P], self._wells(dim, loads)[0])

    def _lower_energy(self, acc, b, state, cache, dt, steady, loads):
        """Energy balances of all fractures and intersection points."""
        mat = self.mat
        if not steady:
            for dim in (1, 0):
                self._energy_accumulation(acc, b, dim, state, cache, dt)
            rho = np.concatenate([cache.density[1], cache.density[0]])
            weight = mat.heat_capacity_fluid * rho * state.prev_iter[self.lower_dofs[T]]
            self._volume_change(acc, b, T, weight, cache, dt)
        self._scalar_flux_divergence(acc, b, 1, HEAT, cache, loads)
        self._advective_divergence(acc, b, 1, cache, loads, state)
        self._mortar_sources(acc, T, (NU_ADV, NU_COND))
        for dim in (1, 0):
            self._well_energy(acc, b, dim, cache, loads, state)

    def _mortar_sources(self, acc, var, keys):
        """The mortar fluxes ``keys`` enter every fracture and point cell's
        balance of ``var`` as sources."""
        for dim, group in self.mortars.items():
            rows = np.tile(self.cell_dofs[dim - 1][var][group.lo], len(keys))
            cols = np.concatenate([group.dofs[key] for key in keys])
            acc.add(rows, cols, -np.ones(rows.size))

    def _contact_rows(self, acc, b, cache):
        """Contact conditions of every fracture cell in lam and the jump J x."""
        if not self.fractures:
            return
        mat = self.mat
        rows = self.cell_dofs[1][LAM]
        frac = cache.fracture
        lam, jump_t, jump_n = frac.lam, frac.jumps[0::2], frac.jumps[1::2]
        jt_prev = frac.jumps_ref[0::2]
        coeffs = ct.row_coefficients(
            frac.contact, lam[0::2], lam[1::2], jump_t, jump_n, jt_prev, frac.gaps,
            self.c_num, mat.friction_coefficient,
        )
        a_lam, a_jump, rhs = ct.assemble_rows(
            coeffs, jump_t, jt_prev, frac.gaps, frac.dgaps, mat.friction_coefficient,
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
        acc.add_mat(rows, self.cell_dofs[1][LAM], self.wall_lam)
        acc.add_mat(rows, self.cell_dofs[1][P], self.wall_p)
        self._momentum_traction_terms(acc, b, rows, self.wall_tractions, loads)

    def _interface_flux_rows(self, acc, b, cache, loads):
        for dim, group in self.mortars.items():
            if group.size == 0:
                continue
            if dim == 2:
                traces = self.mortar_traces
            else:
                traces = {var: _mortar_traces(group, ops)
                          for var, ops in cache.fracture_ops.items()}
            self._mortar_flux_rows(acc, b, group, traces, cache, loads)

    def _mortar_flux_rows(self, acc, b, group, traces, cache, loads):
        """Interface laws of one mortar group.

        Darcy and Fourier fluxes are w (trace of the high side - low cell
        value), with w = A V_high 2 kappa / a_low; the advective flux is the
        lagged fluid flux times c rho T on its upstream side.
        """
        mat, dim, hi, lo = self.mat, group.dim, group.hi, group.lo
        high, low = self.cell_dofs[dim], self.cell_dofs[dim - 1]
        ones = np.ones(group.size)
        v_high = cache.spec_vol[dim][hi]
        a_low = cache.apertures[dim - 1][lo]
        k_low = cubic_law(a_low)
        areas = group.areas
        w_flow = areas * v_high * (k_low / mat.viscosity) * 2.0 / a_low
        w_heat = areas * v_high * mat.conductivity_fluid * 2.0 / a_low

        for var, svar, key, w in ((P, FLOW, NU, w_flow), (T, HEAT, NU_COND, w_heat)):
            rows = group.dofs[key]
            acc.add_diag(rows, rows, ones)
            acc.add(rows, low[var][lo], w)
            wd = sps.diags(w)
            tr = traces[svar]
            acc.add_mat(rows, high[var], -(wd @ tr["cell"]))
            acc.add_mat(rows, rows, -(wd @ tr["mortar"]))
            _add_to(b, rows, w * (tr["face"] @ self._ext_scalar(dim, svar, loads)))
            if var == P and np.any(np.asarray(mat.gravity)):
                grav = np.asarray(mat.gravity, float)
                _add_to(b, rows, w * (tr["vsrc"] @ self._rho_g(cache.density[dim])))
                # gravity term of the interface law itself
                rho_l = cache.density[dim - 1][lo]
                gn = (grav[:, None] * group.normals).sum(axis=0)
                coef = areas * v_high * (k_low / mat.viscosity) * rho_l * gn
                _add_to(b, rows, coef)

        # advective rows: nu_adv = nu_lagged * c rho T(upstream side)
        rows = group.dofs[NU_ADV]
        acc.add_diag(rows, rows, ones)
        nu_lag = cache.mortar_flux[dim]
        upstream_high = nu_lag > 0
        w_high = mat.heat_capacity_fluid * cache.density[dim][hi]
        w_low = mat.heat_capacity_fluid * cache.density[dim - 1][lo]
        coef_h = np.where(upstream_high, -nu_lag * w_high, 0.0)
        coef_l = np.where(~upstream_high, -nu_lag * w_low, 0.0)
        acc.add(rows, high[T][hi], coef_h)
        acc.add(rows, low[T][lo], coef_l)


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
