"""Monolithic assembly of the coupled mixed-dimensional system.

One call produces the sparse matrix and right-hand side of the linearised
system in all unknowns at the next iterate, from the current iterate x_k
through an :class:`IterationCache`.

The advected heat is linearised by Newton's method. Wherever the fluid
carries heat c rho(p, T) T, its derivatives in p and T enter the matrix,
and so do those of the Darcy flux q(p, nu) that carries it: the upwinded
advective face fluxes of the matrix and the fractures, boundary inflow
included, the interface law nu_adv = nu c rho T_upstream, the heat
that wells carry, and the volume-change weight c rho T of fractures and
intersection points. A derivative block D enters as A += D and b += D x_k,
so that the solve still gives the next iterate; where a whole term F is
linearised, b also takes -F(x_k). The rest is lagged at x_k: the density
of the gravity terms, apertures, specific volumes and fracture
permeabilities, the interface weights, the coefficients of the storage
and accumulation terms (exact at the previous step's state), the one-way
dilation remainder, and the density of the heat that boundary inflow
carries, which :meth:`Assembler.boundary_heat_weight` takes at the
pressure of the face's cell. Differentiated in that pressure, the inflow
weight turns a start whose interior fluxes vanish, such as a steady solve
from rest under a pressure drop, into a heat source that only conduction
balances: the first iterate then overshoots by 1e4 K and Newton diverges.
The contact rows use the semismooth generalised Jacobian.

Each balance law is one function that loops over the dimensions 2, 1 and 0,
never over subdomains. It reads the per-dimension view that the mesh owns:
``mdg.grids[dim]`` stacks the subdomains of one dimension in subdomain
order, and ``mdg.mortars[dim]`` stacks the mortars whose high side has that
dimension (:class:`mdthm.mdmesh.mortar.MortarGroup`), whose lift restricts
the stacked faces of the high side to all its mortar cells at once. The
dofs of the stacks come from :meth:`DofMap.cells` and :meth:`DofMap.mortar`.
Each iteration discretises flow and heat on all fractures with one call
each, and the cell and face fields of the cache are one array per
dimension. The divergence, boundary, mortar and vector-source blocks of a
scalar discretisation and its traces on the mortars are composed by one
function, once for the matrix and once per iteration for the fractures;
each coupling term is one of these blocks, added with global dof columns.

The displacement jump of all fracture cells is one static matrix J = R D
on the global state: D, the mesh's jump operator, takes the difference of
the walls' mortar displacements, R (the mesh's fracture basis) rotates it
to each cell's (tangential, normal) basis, interleaved like the contact
tractions. The contact rows and the fracture volume change multiply J from
the left by per-cell blocks; the contact traction acts on the walls through
its transpose. States are evaluated through the factors instead, R (D x):
a sticking wall pair then gives its jump by one subtraction, not by a sum
of products that cancel in roundoff. Apertures, contact states and
diagnostics read jumps that way. The volume change of a fracture keeps its
normal jump implicit through J and lags the one-way dilation remainder; at
intersection points it is fully lagged, with the apertures the mesh
inherits from the incident fracture cells.

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
    carried_heat,
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
from mdthm.mdmesh import MixedDimGrid, split_cells
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
    """Nonlinear quantities evaluated at the current iterate.

    Cell and face fields are keyed by dimension and stacked over the
    subdomains of that dimension. The fracture state (against the previous
    time step) is stacked over all fracture cells.
    """

    fracture: FractureState
    apertures: dict  # dim -> cellwise aperture (fractures and points)
    spec_vol: dict  # dim -> cellwise specific volume (all dimensions)
    spec_vol_prev: dict  # fractures and points, at the previous time step
    density: dict  # dim -> cellwise fluid density
    face_flux: dict  # dim -> fluid face fluxes
    fracture_ops: dict  # flow / heat -> 1d operators of the stacked fractures
    contact_state: dict  # frac id -> its cells' view of ``fracture.contact``


@dataclass
class Accumulation:
    """The accumulation of one balance in one dimension's cells over one
    time step, divided by dt, per cell: coef[P] dp + coef[T] dT + weight dV.

    In the matrix dV is the step's change of :meth:`Assembler.div_u`. Below
    it the weight includes the cell volume, ``change`` is dV, and
    ``lagged`` is the part of dV that the state does not carry: dV =
    J_n x - lagged on fractures and -lagged at points. ``dweight`` holds
    the derivatives of weight dV in the cells' T and p, where the weight
    depends on them.
    """

    coef: dict
    weight: np.ndarray
    change: np.ndarray | None = None
    lagged: np.ndarray | None = None
    dweight: dict = field(default_factory=dict)


def _of_dim(table: dict, dim: int, size: int) -> np.ndarray:
    """A copy of the stacked values of one dimension, zero if absent."""
    return np.array(table[dim], dtype=float) if dim in table else np.zeros(size)


class Assembler:
    def __init__(self, mdg: MixedDimGrid, mat: MaterialSet,
                 dilation_model: DilationModel, bc_types: dict):
        self.mdg = mdg
        self.mat = mat
        self.model = dilation_model
        self.dofs = DofMap(mdg)

        g2, g1 = mdg.matrix, mdg.grids[1]
        self.matrix = g2
        self.fractures = mdg.subdomains_of_dim(1)
        self.div = {dim: mdg.grids[dim].cell_faces_csr()[0] for dim in (2, 1)}
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

        # per fracture cell, the rotation to its (tangential, normal) basis
        self.rotation = mdg.fracture_basis()
        # The traction/displacement scaling c of the contact conditions, per
        # fracture cell. Of the order of the elastic wall stiffness
        # G / (fracture length), it keeps the active-set iteration out of
        # stick/glide limit cycles, which appear when c far exceeds that
        # stiffness. Grid-independent on purpose. Each length is an np.sum
        # per fracture; a bincount over the stacked cells rounds differently.
        self.c_num = np.concatenate(
            [np.zeros(0)]
            + [np.full(sd.num_cells, mat.shear_modulus / float(np.sum(sd.cell_volumes)))
               for sd in self.fractures]
        )

        # D, the mesh's wall difference with its columns relabelled to dofs
        walls = mdg.jump_operator()
        um = self.dofs.mortar(2, U_MORTAR)
        self.walls = sps.csr_matrix((walls.data, um[walls.indices], walls.indptr),
                                    shape=(walls.shape[0], self.dofs.num_dofs))
        self._precompute_static()

    def _precompute_static(self):
        """Freeze every state-independent sparse composition.

        The matrix discretisations never change during a run, so products of
        divergences, boundary operators and the matrix-fracture mortar
        projections are built once, and so is the jump matrix J; the
        fracture operators are composed by the same :meth:`_scalar_terms`
        once per assembly.
        """
        mf = self.mdg.mortars[2]
        self.J = _block_diag(self.rotation) @ self.walls
        # projection of each dimension's mortar fields onto its faces
        self.to_faces = {dim: group.lift.T.tocsr() for dim, group in self.mdg.mortars.items()}
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
        self.wall_lam = (sps.diags(np.repeat(mf.areas * mf.sides, 2))
                         @ self.J.T.tocsr()[self.dofs.mortar(2, U_MORTAR)]).tocsr()
        self.wall_p = -self.wall_lam[:, 1::2]
        self.div_u_mortar = (ops.bound_div_u @ self.to_faces_vec).tocsr()

        self.matrix_terms = {FLOW: self._scalar_terms(2, self.flow_ops),
                             HEAT: self._scalar_terms(2, self.heat_ops)}

    def _scalar_terms(self, dim, ops) -> dict:
        """The blocks of one scalar discretisation of one dimension: the
        divergence of its flux, boundary, own-mortar and vector-source
        parts, and the high-side face traces on the mortars below it in
        cell, boundary-data, own-mortar-flux and vector-source parts."""
        div, lift = self.div[dim], self.mdg.mortars[dim].lift
        div_bound = (div @ ops.bound_flux).tocsr()
        trace_face = (lift @ ops.trace_face).tocsr()
        return {
            "div_flux": (div @ ops.flux).tocsr(),
            "div_bound": div_bound,
            "div_vsrc": (div @ ops.vector_source).tocsr(),
            "div_bound_mortar": (div_bound @ self.to_faces[dim]).tocsr(),
            "trace_cell": (lift @ ops.trace_cell).tocsr(),
            "trace_face": trace_face,
            "trace_mortar": (trace_face @ lift.T).tocsr(),
            "trace_vsrc": (lift @ ops.trace_vector_source).tocsr(),
        }

    # ------------------------------------------------------------------
    # lagged quantities
    # ------------------------------------------------------------------
    def jumps(self, x: np.ndarray) -> np.ndarray:
        """J x, as R (D x): the (tangential, normal) jump of every fracture
        cell."""
        d = (self.walls @ x).reshape(-1, 1, 2)
        return (self.rotation * d).sum(axis=2).ravel()

    def _rho_g(self, rho):
        """The cellwise vector source rho g, interleaved (x, y) per cell."""
        return np.outer(rho, self.mat.gravity).ravel()

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
        return {1: a, 0: self.coefficient_aperture(self.mdg.inherit_aperture(a))}

    def fracture_state(self, x: np.ndarray, x_ref: np.ndarray) -> FractureState:
        """Jumps, tractions, gaps and contact states of all fracture cells
        at x, with the tangential slip counted from x_ref: the previous time
        step within a step, zero for the slip accumulated since the start."""
        mat = self.mat
        jumps, jumps_ref = self.jumps(x), self.jumps(x_ref)
        lam = x[self.dofs.cells(1, LAM)]
        jump_t = jumps[0::2]
        gaps = gap(jump_t, self.model, mat.dilation_angle)
        contact = ct.classify(
            lam[0::2], lam[1::2], jump_t, jumps[1::2], jumps_ref[0::2], gaps,
            self.c_num, mat.friction_coefficient,
        )
        dgaps = dgap(jump_t, self.model, mat.dilation_angle)
        return FractureState(jumps, jumps_ref, lam, gaps, dgaps, contact)

    def build_cache(self, state: State, loads: Loads,
                    prev_cache: IterationCache | None = None) -> IterationCache:
        """The nonlinear quantities at ``state.current``.

        Newton passes the previous iteration's cache as ``prev_cache``; the
        cache does not read it, but the benchmark's tracer does, to count
        the contact cells that flip between iterations.
        """
        mat, dofs = self.mat, self.dofs
        x = state.current
        # jumps and contact states at the current iterate
        frac = self.fracture_state(x, state.prev_step)
        apertures = self._apertures(frac.jumps)
        apertures_prev = self._apertures(frac.jumps_ref)
        spec_vol = {2: np.ones(self.matrix.num_cells)}
        spec_vol_prev = {}
        for dim in (1, 0):
            spec_vol[dim] = specific_volume(apertures[dim], dim)
            spec_vol_prev[dim] = specific_volume(apertures_prev[dim], dim)
        density = {dim: fluid_density(x[dofs.cells(dim, P)], x[dofs.cells(dim, T)], mat)
                   for dim in self.mdg.grids}
        g1, v1 = self.mdg.grids[1], spec_vol[1]
        fracture_ops = {
            FLOW: onedim_discretize(g1, v1 * cubic_law(apertures[1]) / mat.viscosity,
                                    self.frac_bc[FLOW]),
            HEAT: onedim_discretize(g1, v1 * mat.conductivity_fluid, self.frac_bc[HEAT]),
        }
        face_flux = {dim: self.face_flux(dim, FLOW, ops, x, loads, density[dim])
                     for dim, ops in ((2, self.flow_ops), (1, fracture_ops[FLOW]))}

        return IterationCache(
            fracture=frac,
            apertures=apertures, spec_vol=spec_vol, spec_vol_prev=spec_vol_prev,
            density=density, face_flux=face_flux, fracture_ops=fracture_ops,
            contact_state=split_cells(self.mdg.grids[1], frac.contact),
        )

    def face_flux(self, dim, var, ops, x: np.ndarray, loads: Loads, density=None):
        """The face fluxes of one scalar of one dimension in state x, by its
        operators ``ops``: the cell values, then the boundary and mortar
        data, then, given the fluid density, the gravity term rho g."""
        q = ops.flux @ x[self.dofs.cells(dim, P if var == FLOW else T)] \
            + ops.bound_flux @ self._scalar_boundary_values(dim, var, loads, x)
        if density is not None:
            q = q + ops.vector_source @ self._rho_g(density)
        return q

    def _ext_scalar(self, dim, var, loads: Loads):
        """External boundary data of one dimension, internal (mortar) slots
        zeroed."""
        grid = self.mdg.grids[dim]
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
        mortar = x[self.dofs.mortar(dim, NU if var == FLOW else NU_COND)]
        return self._ext_scalar(dim, var, loads) + self.to_faces[dim] @ mortar

    def mech_boundary_values(self, loads_vec: np.ndarray, x: np.ndarray):
        um = x[self.dofs.mortar(2, U_MORTAR)]
        return self._ext_mech(loads_vec) + self.to_faces_vec @ um

    def _wells(self, dim, loads: Loads):
        """Well rates and injection temperatures of one dimension's cells,
        zero where there is no well."""
        n = self.mdg.grids[dim].num_cells
        return _of_dim(loads.well_rates, dim, n), _of_dim(loads.well_T_injection, dim, n)

    def boundary_heat_weight(self, dim, loads: Loads, x: np.ndarray) -> np.ndarray:
        """rho c T_b on the Dirichlet heat faces of one dimension, zero on
        the others: boundary inflow carries the boundary temperature, at
        the density of the adjacent cell's pressure in state x."""
        mat, grid = self.mat, self.mdg.grids[dim]
        is_dir = (self.bc[HEAT] if dim == 2 else self.frac_bc[HEAT]).is_dir
        ext_T = self._ext_scalar(dim, HEAT, loads)
        rho_b = fluid_density(x[self.dofs.cells(dim, P)][grid.face_cells[0]], ext_T, mat)
        return np.where(is_dir, mat.heat_capacity_fluid * rho_b * ext_T, 0.0)

    def well_heat(self, dim, loads: Loads, x: np.ndarray):
        """Per cell of one dimension in state x: the well rate q, the heat
        c rho T that the well fluid carries and its derivatives in the
        cell's T and p. Injectors carry the injection temperature, producers
        the cell's own, both at the density of the cell's pressure; the rate
        is zero where there is no well."""
        rates, t_inj = self._wells(dim, loads)
        inject = rates > 0
        temp = np.where(inject, t_inj, x[self.dofs.cells(dim, T)])
        rho = fluid_density(x[self.dofs.cells(dim, P)], temp, self.mat)
        h, dh_dT, dh_dp = carried_heat(rho, temp, self.mat)
        return rates, h, np.where(inject, 0.0, dh_dT), dh_dp

    def advected_heat(self, dim, cache: IterationCache, loads: Loads, x: np.ndarray):
        """Per face of one dimension in state x: the upwind selection of the
        Darcy flux q, as the cell part of :func:`upwind_matrices`, and the
        heat h that q carries: c rho T of the upstream cell, the boundary
        weight on inflow faces, nothing on the faces that the mortars
        couple. Also per cell, the derivatives of c rho T in T and in p."""
        grid = self.mdg.grids[dim]
        s_cell, s_face = upwind_matrices(grid, cache.face_flux[dim], grid.tags["internal"])
        h_cell, dh_dT, dh_dp = carried_heat(cache.density[dim], x[self.dofs.cells(dim, T)],
                                            self.mat)
        h = s_cell @ h_cell + s_face @ self.boundary_heat_weight(dim, loads, x)
        return s_cell, h, dh_dT, dh_dp

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble(self, state: State, cache: IterationCache, dt: float,
                 steady: bool, loads: Loads):
        n = self.dofs.num_dofs
        acc = _Coo(n)
        b = np.zeros(n)
        terms = {2: self.matrix_terms,
                 1: {var: self._scalar_terms(1, ops) for var, ops in cache.fracture_ops.items()}}
        self._matrix_momentum(acc, b, loads)
        self._balances(acc, b, state, cache, terms, dt, steady, loads)
        self._contact_rows(acc, b, cache)
        self._traction_balance(acc, b, loads)
        for dim, group in self.mdg.mortars.items():
            if group.size:
                self._mortar_flux_rows(acc, b, group, terms[dim], state, cache, loads)
        return acc.matrix(), b

    # -- momentum ----------------------------------------------------------
    def _momentum_traction_terms(self, acc, b, rows, bundle, loads):
        """Add the face tractions that ``bundle`` maps to the given rows."""
        dofs, mat = self.dofs, self.mat
        acc.add_mat(rows, dofs.cells(2, U), bundle["stress"])
        acc.add_mat(rows, dofs.cells(2, P), bundle["grad_p"])
        acc.add_mat(rows, dofs.cells(2, T), bundle["grad_T"])
        acc.add_mat(rows, dofs.mortar(2, U_MORTAR), bundle["bound_mortar"])
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
        rows = self.dofs.cells(2, U)
        self._momentum_traction_terms(acc, b, rows, self.mom, loads)
        _add_to(b, rows, -self._rho_g(mat.density_solid * g.cell_volumes))

    # -- mass and energy -----------------------------------------------------
    def accumulation(self, state: State, cache: IterationCache, dt: float) -> dict:
        """Per dimension and balance (P for mass, T for energy), the
        :class:`Accumulation` over the step of length dt that ends at
        ``state.current``, with its coefficients lagged there.

        Fluid storage and heat capacity act on the step's changes of p and
        T; the heat capacity's change with the state enters in expanded
        form. The volume-change weight of the mass balance is alpha in the
        matrix and 1 below; that of the energy balance is the
        thermo-elastic beta_s K_s T_ref in the matrix, and below it the
        heat c rho T that the fluid filling the volume carries, whose
        derivatives enter as Newton terms.
        """
        mat, x = self.mat, state.current
        out = {}
        for dim, grid in self.mdg.grids.items():
            porous, n = dim == 2, grid.num_cells
            wvol = grid.cell_volumes * cache.spec_vol[dim] / dt
            t_lag = x[self.dofs.cells(dim, T)]
            rc, rck, rcb = heat_capacities(cache.density[dim], mat, porous)
            coef = {P: {P: fluid_storage(wvol, 0.0, mat, porous),
                        T: fluid_storage(0.0, wvol, mat, porous)},
                    T: {T: wvol * (rc - t_lag * rcb), P: wvol * t_lag * rck}}
            if porous:
                tsc = mat.thermal_stress_coefficient * mat.reference_temperature
                out[dim] = {P: Accumulation(coef[P], np.full(n, mat.biot_alpha) / dt),
                            T: Accumulation(coef[T], np.full(n, tsc) / dt)}
                continue
            vols = grid.cell_volumes / dt
            change, lagged = self._volume_change(dim, cache)
            heat, dh_dT, dh_dp = carried_heat(cache.density[dim], t_lag, mat)
            out[dim] = {P: Accumulation(coef[P], vols, change, lagged),
                        T: Accumulation(coef[T], vols * heat, change, lagged,
                                        {T: vols * change * dh_dT, P: vols * change * dh_dp})}
        return out

    def _volume_change(self, dim, cache: IterationCache):
        """dV over the step of fractures (dim 1) or intersection points
        (dim 0), and its part not implicit in the state.

        On fractures V = a0 + jump_n (+ one-way slip remainder, lagged),
        with the normal jump implicit through J; the constant a0 cancels in
        the difference. At points V is the inherited specific volume, fully
        lagged.
        """
        if dim == 0:
            change = cache.spec_vol[0] - cache.spec_vol_prev[0]
            return change, -change
        jumps, jumps_prev = cache.fracture.jumps, cache.fracture.jumps_ref
        v_prev = jumps_prev[1::2]
        rem_new = np.zeros(jumps.size // 2)
        if self.model is DilationModel.ONE_WAY:
            tanp = np.tan(self.mat.dilation_angle)
            v_prev = v_prev + tanp * np.abs(jumps_prev[0::2])
            rem_new = tanp * np.abs(jumps[0::2])
        return jumps[1::2] + rem_new - v_prev, v_prev - rem_new

    def _balances(self, acc, b, state, cache, terms, dt, steady, loads):
        """Mass (rows p) and energy (rows T) balances of the matrix, the
        fractures and the intersection points: accumulation (transient
        only), conductive and advective transport, and sources: mortar
        fluxes from the dimension above and wells."""
        accumulation = None if steady else self.accumulation(state, cache, dt)
        for var, svar in ((P, FLOW), (T, HEAT)):
            for dim in self.mdg.grids:
                if not steady:
                    self._storage(acc, b, dim, var, accumulation[dim][var], state, loads)
                if dim > 0:
                    self._scalar_flux_divergence(acc, b, dim, svar, terms[dim][svar], cache,
                                                 loads)
                    if var == T:
                        self._advective_divergence(acc, b, dim, cache, loads, state)
                if dim < 2:
                    self._mortar_sources(acc, dim, var, (NU,) if var == P else (NU_ADV, NU_COND))
                if var == P:
                    _add_to(b, self.dofs.cells(dim, P), self._wells(dim, loads)[0])
                else:
                    self._well_energy(acc, b, dim, loads, state)

    def _storage(self, acc, b, dim, var, a: Accumulation, state, loads):
        """The accumulation of the balance of ``var`` of one dimension's
        cells, implicit in p and T against the previous step. The volume
        change is implicit in the matrix through div u (u, the mortar
        displacements, p and T) and on fractures through J; the lagged rest
        enters the right-hand side."""
        dofs, xp = self.dofs, state.prev_step
        other = T if var == P else P
        rows, cols = dofs.cells(dim, var), dofs.cells(dim, other)
        acc.add(rows, rows, a.coef[var])
        acc.add(rows, cols, a.coef[other])
        _add_to(b, rows, a.coef[var] * xp[rows] + a.coef[other] * xp[cols])
        if dim == 2:
            ops = self.mech_ops
            w = sps.diags(a.weight)
            acc.add_mat(rows, dofs.cells(2, U), w @ ops.div_u)
            acc.add_mat(rows, dofs.mortar(2, U_MORTAR), w @ self.div_u_mortar)
            acc.add_mat(rows, dofs.cells(2, P), w @ ops.stab_p)
            acc.add_mat(rows, dofs.cells(2, T), w @ ops.stab_T)
            # previous-step value, including its boundary data
            _add_to(b, rows, a.weight * self.div_u(xp, loads.bc_mech_prev))
            _add_to(b, rows, -((w @ ops.bound_div_u) @ self._ext_mech(loads.bc_mech)))
            return
        if dim == 1:
            acc.add_mat(rows, None, sps.diags(a.weight) @ self.J[1::2])
        _add_to(b, rows, a.weight * a.lagged)
        _newton(acc, b, rows, state.current,
                [(dofs.cells(dim, v), sps.diags(d)) for v, d in a.dweight.items()])

    def div_u(self, x: np.ndarray, bc_mech: np.ndarray) -> np.ndarray:
        """The cellwise volume change of the matrix at state x with the
        mechanical boundary values bc_mech, stabilisation included."""
        ops, dofs = self.mech_ops, self.dofs
        bc = self.mech_boundary_values(bc_mech, x)
        return (ops.div_u @ x[dofs.cells(2, U)] + ops.bound_div_u @ bc
                + ops.stab_p @ x[dofs.cells(2, P)] + ops.stab_T @ x[dofs.cells(2, T)])

    def _scalar_flux_divergence(self, acc, b, dim, var, terms, cache, loads):
        """div of diffusive (+gravity) fluxes of one scalar in one dimension,
        from that dimension's :meth:`_scalar_terms`."""
        cells = self.dofs.cells(dim, P if var == FLOW else T)
        acc.add_mat(cells, cells, terms["div_flux"])
        acc.add_mat(cells, self.dofs.mortar(dim, NU if var == FLOW else NU_COND),
                    terms["div_bound_mortar"])
        _add_to(b, cells, -(terms["div_bound"] @ self._ext_scalar(dim, var, loads)))
        if var == FLOW and np.any(np.asarray(self.mat.gravity)):
            _add_to(b, cells, -(terms["div_vsrc"] @ self._rho_g(cache.density[dim])))

    def _advective_divergence(self, acc, b, dim, cache, loads, state):
        """The divergence of the upwinded advective heat fluxes q h,
        linearised by Newton in p, T and the mortar fluxes nu.

        q is the Darcy face flux and h the heat it carries
        (:meth:`advected_heat`). One upwind selection serves h and its
        derivatives; the flux's derivatives are its operators. The density
        of the boundary weight is lagged (see the module).
        """
        div, dofs, x = self.div[dim], self.dofs, state.current
        ops = self.flow_ops if dim == 2 else cache.fracture_ops[FLOW]
        p, t = dofs.cells(dim, P), dofs.cells(dim, T)
        q = cache.face_flux[dim]
        s_cell, h, dh_dT, dh_dp = self.advected_heat(dim, cache, loads, x)
        div_q_up, div_h = div @ sps.diags(q) @ s_cell, div @ sps.diags(h)
        _newton(acc, b, t, x, (
            (t, div_q_up @ sps.diags(dh_dT)),
            (p, div_q_up @ sps.diags(dh_dp) + div_h @ ops.flux),
            (dofs.mortar(dim, NU), div_h @ ops.bound_flux @ self.to_faces[dim]),
        ))
        _add_to(b, t, -(div @ (q * h)))
        # advective transfer through internal faces enters via the mortar
        # advective unknowns
        acc.add_mat(t, dofs.mortar(dim, NU_ADV), div @ self.to_faces[dim])

    def _mortar_sources(self, acc, dim, var, keys):
        """The mortar fluxes ``keys`` from the dimension above enter the
        balance of ``var`` of one dimension's cells as sources."""
        group = self.mdg.mortars[dim + 1]
        rows = np.tile(self.dofs.cells(dim, var)[group.lo], len(keys))
        cols = np.concatenate([self.dofs.mortar(dim + 1, key) for key in keys])
        acc.add(rows, cols, -np.ones(rows.size))

    def _well_energy(self, acc, b, dim, loads, state):
        """The heat q h that wells carry in (q > 0) or out, linearised by
        Newton in the cells' T and p."""
        x = state.current
        rates, h, dh_dT, dh_dp = self.well_heat(dim, loads, x)
        wells = np.flatnonzero(rates)
        if wells.size == 0:
            return
        t, p = self.dofs.cells(dim, T)[wells], self.dofs.cells(dim, P)[wells]
        q = rates[wells]
        _newton(acc, b, t, x, ((t, sps.diags(-q * dh_dT[wells])),
                               (p, sps.diags(-q * dh_dp[wells]))))
        _add_to(b, t, q * h[wells])

    # -- contact and interface rows -----------------------------------------
    def _contact_rows(self, acc, b, cache):
        """Contact conditions of every fracture cell in lam and the jump J x."""
        if not self.fractures:
            return
        mat = self.mat
        rows = self.dofs.cells(1, LAM)
        frac = cache.fracture
        lam = frac.lam
        a_lam, a_jump, rhs = ct.contact_rows(
            frac.contact, lam[0::2], lam[1::2], frac.jumps[0::2], frac.jumps[1::2],
            frac.jumps_ref[0::2], frac.gaps, frac.dgaps, self.c_num, mat.friction_coefficient,
        )
        acc.add_mat(rows, rows, _block_diag(a_lam))
        acc.add_mat(rows, None, _block_diag(a_jump) @ self.J)
        _add_to(b, rows, rhs.ravel())

    def _traction_balance(self, acc, b, loads):
        """Rows of the mortar displacements: contact traction balances the
        projected matrix traction minus the fracture pressure."""
        rows = self.dofs.mortar(2, U_MORTAR)
        acc.add_mat(rows, self.dofs.cells(1, LAM), self.wall_lam)
        acc.add_mat(rows, self.dofs.cells(1, P), self.wall_p)
        self._momentum_traction_terms(acc, b, rows, self.wall_tractions, loads)

    def _mortar_flux_rows(self, acc, b, group, terms, state, cache, loads):
        """Interface laws of one mortar group, with the high side's
        :meth:`_scalar_terms`.

        Darcy and Fourier fluxes are w (trace of the high side - low cell
        value), with w = A V_high 2 kappa / a_low; the advective flux is the
        fluid flux times c rho T on its upstream side, linearised by Newton
        in the fluid flux and in the upstream cell's T and p.
        """
        mat, dofs, dim, hi, lo = self.mat, self.dofs, group.dim, group.hi, group.lo
        ones = np.ones(group.size)
        v_high = cache.spec_vol[dim][hi]
        a_low = cache.apertures[dim - 1][lo]
        k_low = cubic_law(a_low)
        areas = group.areas
        w_flow = areas * v_high * (k_low / mat.viscosity) * 2.0 / a_low
        w_heat = areas * v_high * mat.conductivity_fluid * 2.0 / a_low

        for var, svar, key, w in ((P, FLOW, NU, w_flow), (T, HEAT, NU_COND, w_heat)):
            rows = dofs.mortar(dim, key)
            acc.add(rows, rows, ones)
            acc.add(rows, dofs.cells(dim - 1, var)[lo], w)
            wd = sps.diags(w)
            tr = terms[svar]
            acc.add_mat(rows, dofs.cells(dim, var), -(wd @ tr["trace_cell"]))
            acc.add_mat(rows, rows, -(wd @ tr["trace_mortar"]))
            _add_to(b, rows, w * (tr["trace_face"] @ self._ext_scalar(dim, svar, loads)))
            if var == P and np.any(np.asarray(mat.gravity)):
                grav = np.asarray(mat.gravity, float)
                _add_to(b, rows, w * (tr["trace_vsrc"] @ self._rho_g(cache.density[dim])))
                # gravity term of the interface law itself
                rho_l = cache.density[dim - 1][lo]
                gn = (grav[:, None] * group.normals).sum(axis=0)
                coef = areas * v_high * (k_low / mat.viscosity) * rho_l * gn
                _add_to(b, rows, coef)

        # advective rows: nu_adv = nu c rho T(upstream side)
        rows, x = dofs.mortar(dim, NU_ADV), state.current
        nu_dofs = dofs.mortar(dim, NU)
        nu = x[nu_dofs]
        high = nu > 0

        def upstream(var):
            return np.where(high, dofs.cells(dim, var)[hi], dofs.cells(dim - 1, var)[lo])

        t_up, p_up = upstream(T), upstream(P)
        rho = np.where(high, cache.density[dim][hi], cache.density[dim - 1][lo])
        h, dh_dT, dh_dp = carried_heat(rho, x[t_up], mat)
        acc.add(rows, rows, ones)
        _newton(acc, b, rows, x, ((nu_dofs, sps.diags(-h)),
                                  (t_up, sps.diags(-nu * dh_dT)),
                                  (p_up, sps.diags(-nu * dh_dp))))
        _add_to(b, rows, nu * h)


class _Coo:
    """Coordinate-format accumulator of the system matrix: lists of rows,
    columns and values, whose entries at equal positions add up."""

    def __init__(self, n):
        self.n = n
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rows, cols, vals):
        rows = np.asarray(rows, dtype=int)
        self.rows.append(rows)
        self.cols.append(np.asarray(cols, dtype=int))
        self.vals.append(np.broadcast_to(np.asarray(vals, dtype=float), rows.shape))

    def add_mat(self, rows, cols, mat):
        """Add a sparse block whose columns are the global dofs ``cols``, or
        all dofs in order where ``cols`` is None."""
        m = mat.tocoo()
        if m.nnz == 0:
            return
        self.add(np.asarray(rows)[m.row], m.col if cols is None else cols[m.col], m.data)

    def matrix(self):
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        return sps.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))


def _block_diag(blocks) -> sps.csr_matrix:
    """Per-cell 2x2 blocks, shape (nc, 2, 2), as one block-diagonal matrix
    of shape (2 nc, 2 nc); nc may be 0."""
    n = 2 * blocks.shape[0]
    cols = np.repeat(np.arange(n).reshape(-1, 2), 2, axis=0).ravel()
    return sps.csr_matrix((np.ravel(blocks), cols, np.arange(0, 2 * n + 1, 2)), shape=(n, n))


def _newton(acc, b, rows, x, blocks):
    """Add derivative blocks D of the rows' residual at the iterate x, as
    (global columns, block) pairs: A += D and b += D x."""
    for cols, block in blocks:
        acc.add_mat(rows, cols, block)
        _add_to(b, rows, block @ x[cols])


def _add_to(b, rows, vals):
    np.add.at(b, rows, vals)
