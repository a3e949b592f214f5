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

Each law declares every block of its rows once, where it computes the
block's coefficient, to a per-assembly :class:`_System`. A block is
constant (no state, load or dt in it) or L diag(c) R with static L and R
and a cellwise, facewise or mortar-cellwise coefficient vector c: the
storage coefficients and volume-change weights, which carry 1/dt; the
fracture transmissibilities; the upwinded advective weights; the contact
blocks; the interface weights; and the Newton derivatives. Only the first
assembly of a run calls the structure functions of its declarations, to
register the run's one sparsity pattern in :class:`_Slots`: the union of
the blocks of every contact state, of both upwind directions on every face
and mortar, of wells in every cell, and, when the run has a transient step
(``Assembler(..., transient=True)``, the default), of the storage terms.
With it come the constant part, summed once in declaration order, and a
static map S from coefficient vectors to the slots. Every later assembly
runs the same code, checks each term against the registered one at its
position, and sets the matrix data to the constant part plus S c, one
sparse matrix-vector product; a Newton block adds L (c R x_k) to b. So
every condition around a declaration is static: the dimension, the
transient flag, the fractures, the mortar groups and gravity. A steady
step declares the storage terms with coefficient zero, and their slots
hold explicit zeros; a run of steady steps only has no storage slots.

Each balance law is one function that loops over the dimensions 2, 1 and 0,
never over subdomains. It reads the per-dimension view that the mesh owns:
``mdg.grids[dim]`` stacks the subdomains of one dimension in subdomain
order, and ``mdg.mortars[dim]`` stacks the mortars whose high side has that
dimension (:class:`mdthm.mdmesh.mortar.MortarGroup`), whose lift restricts
the stacked faces of the high side to all its mortar cells at once. The
dofs of the stacks come from :meth:`DofMap.cells` and :meth:`DofMap.mortar`.
The scalar operators of the matrix are MPFA's; those of the fractures are
the two-point form of :func:`mdthm.fvm.onedim_discretize`, built once per
run, whose transmissibilities each cache evaluates at its apertures. Both
split each operator into parts scaled by a facewise coefficient or by none,
and a block composed from a part is constant exactly when neither the part
nor the block's own weight carries a coefficient.

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

from dataclasses import dataclass, field, replace

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
    carried,
    mpfa_discretize,
    mpsa_discretize,
    onedim_discretize,
    upwind,
)
from mdthm.mdmesh import MixedDimGrid, split_cells
from mdthm.system.dofs import LAM, NU, NU_ADV, NU_COND, P, T, U, U_MORTAR, DofMap, State

MECH, FLOW, HEAT = "mech", "flow", "heat"
STORAGE = "storage"  # the first element of the keys of the storage terms


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
    time step) is stacked over all fracture cells. ``fracture_ops`` holds
    the run's two-point operators of the stacked fractures
    (:class:`mdthm.fvm.TwoPointOps`) evaluated at the iterate's flow and heat
    diffusivities.
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
    """The run's operators and the assembly of its Newton systems.

    The set-up discretises the matrix once, by MPSA (``mech_ops``) and by
    MPFA for flow and heat (``flow_ops``, ``heat_ops``), and the fractures
    in two-point form (``frac_ops``). Of these, what a later assembly, a
    cache or a diagnostic reads lives for the run: MPSA's volume change
    (``div_u``, ``bound_div_u``, ``stab_p``, ``stab_T``) and MPFA's face
    operators. The vector-source operators of MPFA are formed only for flow
    in a run with gravity; heat never reads them, and flow only under
    gravity. What only :meth:`_precompute_static` and the first assembly's
    registration of the pattern read goes once the pattern is frozen:
    MPSA's ``stress``, ``bound_stress``, ``grad_p`` and ``grad_T`` (None
    from then on in ``mech_ops``) and the row maps of the momentum and wall
    rows, which ``tractions`` holds until then.
    """

    def __init__(self, mdg: MixedDimGrid, mat: MaterialSet,
                 dilation_model: DilationModel, bc_types: dict, transient: bool = True):
        """``transient`` says whether the run has a transient step: without
        one, the pattern has no storage slots and only steady steps can be
        assembled."""
        self.mdg = mdg
        self.mat = mat
        self.model = dilation_model
        self.transient = transient
        self.has_gravity = bool(np.any(np.asarray(mat.gravity)))
        self.dofs = DofMap(mdg)

        g2, g1 = mdg.matrix, mdg.grids[1]
        self.matrix = g2
        self.fractures = mdg.subdomains_of_dim(1)
        self.div = {dim: mdg.grids[dim].cell_faces_csr() for dim in (2, 1)}

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
            g2, mat.matrix_permeability / mat.viscosity, self.bc[FLOW],
            vector_source=self.has_gravity,
        )
        kappa_eff = mat.effective(mat.conductivity_solid, mat.conductivity_fluid)
        self.heat_ops = mpfa_discretize(g2, kappa_eff, self.bc[HEAT], vector_source=False)
        # the two-point form of the fractures; each cache evaluates it at
        # the iterate's diffusivities
        self.frac_ops = {var: onedim_discretize(g1, 1.0, self.frac_bc[var])
                         for var in (FLOW, HEAT)}

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
        # the run's pattern and slot map, which the first assembly registers
        self.slots: _Slots | None = None

    def _precompute_static(self):
        """Freeze the state-independent compositions that every assembly
        reads: the jump matrix J, the mortar projections, and for the
        momentum and wall rows the boundary operator of their face
        tractions and the tractions of the reference pressure and
        temperature. Each row set's row map stays in ``tractions`` only
        until the first assembly has registered the pattern."""
        mf, dofs, ops, mat = self.mdg.mortars[2], self.dofs, self.mech_ops, self.mat
        self.J = _block_diag(self.rotation) @ self.walls
        # projection of each dimension's mortar fields onto its faces
        self.to_faces = {dim: group.lift.T.tocsr() for dim, group in self.mdg.mortars.items()}
        self.to_faces_vec = sps.kron(self.to_faces[2], sps.eye(2)).tocsr()
        # the momentum rows sum the face tractions of each cell, the rows of
        # the wall displacements take them with the sign of their side
        ones = np.ones(self.matrix.num_cells)
        cells = sps.kron(self.div[2], sps.eye(2)).tocsr()
        walls = (sps.diags(np.repeat(mf.sides, 2)) @ self.to_faces_vec.T).tocsr()
        self.tractions = []
        for rows, rowmap in ((dofs.cells(2, U), cells), (dofs.mortar(2, U_MORTAR), walls)):
            self.tractions.append((rows, rowmap, (rowmap @ ops.bound_stress).tocsr(),
                                   (rowmap @ ops.grad_p) @ (mat.reference_pressure * ones),
                                   (rowmap @ ops.grad_T) @ (mat.reference_temperature * ones)))

    def _drop_registration_operators(self):
        """Let go of what only :meth:`_precompute_static` and the
        registration of the pattern read: MPSA's face operators and the row
        maps of the momentum and wall rows."""
        self.mech_ops = replace(self.mech_ops, stress=None, bound_stress=None, grad_p=None,
                                grad_T=None)
        self.tractions = [(rows, None, *rest) for rows, _, *rest in self.tractions]

    def _scalar_ops(self, dim, var, cache: IterationCache):
        """The operators of one scalar of one dimension: MPFA's in the
        matrix, the cache's two-point ones in the fractures."""
        if dim == 2:
            return self.flow_ops if var == FLOW else self.heat_ops
        return cache.fracture_ops[var]

    @staticmethod
    def _parts(system: _System, name, ops, op, weight, where, newton=False):
        """Declare L diag(c) part R for each part of the operator ``op``,
        with rows, columns, L and R (None for none) from ``where``. c is the
        part's coefficient times the facewise ``weight``; a block with
        neither is constant, any other a term keyed (name, the part's
        coefficient key)."""
        for key, part in ops.parts(op):
            def block():
                rows, cols, left, right = where()
                return rows, cols, left, part if right is None else part @ right

            coef = weight if key is None else ops.coefficients[key]
            if key is not None and weight is not None:
                coef = weight * coef
            if coef is None:
                system.add(block)
            else:
                system.term((name, key), coef, block, newton=newton)

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
        v1 = spec_vol[1]
        fracture_ops = {
            FLOW: self.frac_ops[FLOW].at(v1 * cubic_law(apertures[1]) / mat.viscosity),
            HEAT: self.frac_ops[HEAT].at(v1 * mat.conductivity_fluid),
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
        data, then, given the fluid density in a run with gravity, the
        gravity term rho g."""
        q = ops.apply("flux", x[self.dofs.cells(dim, P if var == FLOW else T)]) \
            + ops.apply("bound_flux", self._scalar_boundary_values(dim, var, loads, x))
        # without gravity the term is +0.0, and q + 0.0 is q
        if density is not None and self.has_gravity:
            q = q + ops.apply("vector_source", self._rho_g(density))
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
        """Per face of one dimension in state x: the upstream cell of the
        Darcy flux q (-1 where none, :func:`mdthm.fvm.upwind`), and the heat
        h that q carries: c rho T of the upstream cell, the boundary weight
        on inflow faces, nothing on the faces that the mortars couple. Also
        per cell, the derivatives of c rho T in T and in p."""
        grid = self.mdg.grids[dim]
        cells, inflow = upwind(grid, cache.face_flux[dim], grid.tags["internal"])
        h_cell, dh_dT, dh_dp = carried_heat(cache.density[dim], x[self.dofs.cells(dim, T)],
                                            self.mat)
        h = carried(cells, inflow, h_cell, self.boundary_heat_weight(dim, loads, x))
        return cells, h, dh_dT, dh_dp

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble(self, state: State, cache: IterationCache, dt: float,
                 steady: bool, loads: Loads):
        """The system linearised at ``state.current``: a new CSR matrix on
        the run's pattern, which shares its index arrays with every other
        and owns its data, and the right-hand side."""
        if not (steady or self.transient):
            raise ValueError("a transient step needs storage slots, and this assembler "
                             "was built with transient=False: its pattern has none")
        system = _System(self.dofs.num_dofs, self.slots)
        self._momentum(system, loads)
        self._balances(system, state, cache, dt, steady, loads)
        if self.fractures:
            self._contact_rows(system, cache)
        for group in self.mdg.mortars.values():
            if group.size:
                self._mortar_flux_rows(system, group, state, cache, loads)
        A, b = system.finish(state.current)
        if self.slots is None:
            # kept only now: a first assembly that raised leaves no pattern
            self.slots = system.slots
            self._drop_registration_operators()
        return A, b

    # -- momentum ----------------------------------------------------------
    def _momentum(self, system: _System, loads):
        """The rows of the matrix cells' displacements and of the wall
        displacements, all constant blocks: the face tractions that each
        sums, and on the walls the contact traction through the transpose
        of the jump, with the fracture pressure as its normal part. b takes
        the tractions' boundary data and reference state, and the body
        force that the face tractions of each matrix cell balance."""
        mf, dofs, ops = self.mdg.mortars[2], self.dofs, self.mech_ops
        ext = self._ext_mech(loads.bc_mech)

        def wall_lam():
            return (sps.diags(np.repeat(mf.sides * mf.areas, 2))
                    @ self.J.T.tocsr()[dofs.mortar(2, U_MORTAR)]).tocsr()

        for (rows, rowmap, bound, ref_p, ref_T), walls in zip(self.tractions, (False, True)):
            for name, var in (("stress", U), ("grad_p", P), ("grad_T", T)):
                system.add(lambda: (rows, dofs.cells(2, var), rowmap, getattr(ops, name)))
            system.add(lambda: (rows, dofs.mortar(2, U_MORTAR), bound, self.to_faces_vec))
            if walls:
                system.add(lambda: (rows, dofs.cells(1, LAM), wall_lam()))
                system.add(lambda: (rows, dofs.cells(1, P), -wall_lam()[:, 1::2]))
            b_contrib = -(bound @ ext)
            b_contrib += ref_p
            b_contrib += ref_T
            system.rhs(rows, b_contrib)
        system.rhs(dofs.cells(2, U),
                   -self._rho_g(self.mat.density_solid * self.matrix.cell_volumes))

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

    def _balances(self, system: _System, state, cache, dt, steady, loads):
        """Mass (rows p) and energy (rows T) balances of the matrix, the
        fractures and the intersection points: accumulation (on a pattern
        with storage slots), conductive and advective transport, and
        sources: mortar fluxes from the dimension above and wells."""
        dofs = self.dofs
        accumulation = None if steady else self.accumulation(state, cache, dt)
        for var, svar in ((P, FLOW), (T, HEAT)):
            for dim in self.mdg.grids:
                rows = dofs.cells(dim, var)
                if self.transient:
                    self._storage(system, dim, var, None if steady else accumulation[dim][var],
                                  state, loads)
                if dim > 0:
                    self._flux_divergence(system, dim, svar, cache, loads)
                    if var == T:
                        self._advective_divergence(system, dim, cache, loads, state)
                if dim < 2:
                    group = self.mdg.mortars[dim + 1]
                    keys = (NU,) if var == P else (NU_ADV, NU_COND)
                    system.add(lambda: (
                        np.tile(rows[group.lo], len(keys)),
                        np.concatenate([dofs.mortar(dim + 1, key) for key in keys]), -1.0))
                if var == P:
                    system.rhs(rows, self._wells(dim, loads)[0])
                else:
                    self._well_energy(system, dim, loads, state)

    def _storage(self, system: _System, dim, var, a: Accumulation | None, state, loads):
        """The accumulation of the balance of ``var`` of one dimension's
        cells, implicit in p and T against the previous step. The volume
        change is implicit in the matrix through div u (u, the mortar
        displacements, p and T) and on fractures through J; the lagged rest
        enters the right-hand side. A steady step, with ``a`` None, declares
        the terms with coefficient zero and adds nothing to b."""
        dofs, xp = self.dofs, state.prev_step
        other = T if var == P else P
        rows, cols = dofs.cells(dim, var), dofs.cells(dim, other)
        coef, weight, dweight = (({var: 0.0, other: 0.0}, 0.0, {T: 0.0, P: 0.0}) if a is None
                                 else (a.coef, a.weight, a.dweight))
        system.term((STORAGE, dim, var, var), coef[var], lambda: (rows, rows, None, None))
        system.term((STORAGE, dim, var, other), coef[other], lambda: (rows, cols, None, None))
        if dim > 0:
            system.term((STORAGE, dim, var), weight,
                        lambda: (rows, None, None, self._volume_operator(dim)))
        if var == T and dim < 2:
            for v in (T, P):
                system.term((STORAGE, dim, "dweight", v), dweight[v],
                            lambda: (rows, dofs.cells(dim, v), None, None), newton=True)
        if a is None:
            return
        system.rhs(rows, a.coef[var] * xp[rows] + a.coef[other] * xp[cols])
        if dim == 2:
            # previous-step value, including its boundary data
            system.rhs(rows, a.weight * self.div_u(xp, loads.bc_mech_prev))
            system.rhs(rows, -(a.weight * (self.mech_ops.bound_div_u
                                           @ self._ext_mech(loads.bc_mech))))
        else:
            system.rhs(rows, a.weight * a.lagged)

    def _volume_operator(self, dim) -> sps.csr_matrix:
        """The volume change of the cells of the matrix (dim 2) or the
        fractures (dim 1) as an operator on all dofs: div u, as
        :meth:`div_u` reads it, or the normal jump J_n."""
        if dim == 1:
            return self.J[1::2]
        ops, dofs = self.mech_ops, self.dofs
        m = sps.hstack([ops.div_u, ops.bound_div_u @ self.to_faces_vec, ops.stab_p, ops.stab_T],
                       format="csr")
        cols = np.concatenate([dofs.cells(2, U), dofs.mortar(2, U_MORTAR), dofs.cells(2, P),
                               dofs.cells(2, T)])
        return sps.csr_matrix((m.data, cols[m.indices], m.indptr),
                              shape=(m.shape[0], dofs.num_dofs))

    def div_u(self, x: np.ndarray, bc_mech: np.ndarray) -> np.ndarray:
        """The cellwise volume change of the matrix at state x with the
        mechanical boundary values bc_mech, stabilisation included."""
        ops, dofs = self.mech_ops, self.dofs
        bc = self.mech_boundary_values(bc_mech, x)
        return (ops.div_u @ x[dofs.cells(2, U)] + ops.bound_div_u @ bc
                + ops.stab_p @ x[dofs.cells(2, P)] + ops.stab_T @ x[dofs.cells(2, T)])

    def _flux_divergence(self, system: _System, dim, var, cache, loads):
        """div of diffusive (+gravity) fluxes of one scalar in one dimension:
        in the cells and the mortar data of the internal faces, and on the
        right-hand side the external boundary data and gravity."""
        cells = self.dofs.cells(dim, P if var == FLOW else T)
        ops, div = self._scalar_ops(dim, var, cache), self.div[dim]
        self._parts(system, ("div_flux", dim, var), ops, "flux", None,
                    lambda: (cells, cells, div, None))
        self._parts(system, ("div_bound", dim, var), ops, "bound_flux", None,
                    lambda: (cells, self.dofs.mortar(dim, NU if var == FLOW else NU_COND), div,
                             self.to_faces[dim]))
        system.rhs(cells, -(div @ ops.apply("bound_flux", self._ext_scalar(dim, var, loads))))
        if var == FLOW and self.has_gravity:
            system.rhs(cells, -(div @ ops.apply("vector_source", self._rho_g(cache.density[dim]))))

    def _advective_divergence(self, system: _System, dim, cache, loads, state):
        """The divergence of the upwinded advective heat fluxes q h,
        linearised by Newton in p, T and the mortar fluxes nu.

        q is the Darcy face flux and h the heat it carries
        (:meth:`advected_heat`). One upwind selection serves h and its
        derivatives, whose blocks hold both upwind directions of every face
        that carries heat, as a pick of each face's owner and of its
        neighbour. The flux's derivatives are its operators. The density of
        the boundary weight is lagged (see the module).
        """
        dofs, grid, div, x = self.dofs, self.mdg.grids[dim], self.div[dim], state.current
        t, p = dofs.cells(dim, T), dofs.cells(dim, P)
        q = cache.face_flux[dim]
        up, h, dh_dT, dh_dp = self.advected_heat(dim, cache, loads, x)
        for side, cells in zip(("owner", "nbr"), grid.face_cells):
            def pick():
                faces = np.flatnonzero(~grid.tags["internal"] & (cells >= 0))
                return sps.csr_matrix((np.ones(faces.size), (faces, cells[faces])),
                                      shape=(grid.num_faces, grid.num_cells))

            upstream = (up == cells) & (up >= 0)
            for v, dh in ((T, dh_dT), (P, dh_dp)):
                system.term(("adv", dim, side, v), np.where(upstream, q * dh[up], 0.0),
                            lambda: (t, dofs.cells(dim, v), div, pick()), newton=True)
        ops = self._scalar_ops(dim, FLOW, cache)
        self._parts(system, ("adv_flux", dim), ops, "flux", h, lambda: (t, p, div, None),
                    newton=True)
        self._parts(system, ("adv_bound", dim), ops, "bound_flux", h,
                    lambda: (t, dofs.mortar(dim, NU), div, self.to_faces[dim]), newton=True)
        # advective transfer through internal faces enters via the mortar
        # advective unknowns
        system.add(lambda: (t, dofs.mortar(dim, NU_ADV), div, self.to_faces[dim]))
        system.rhs(t, -(div @ (q * h)))

    def _well_energy(self, system: _System, dim, loads, state):
        """The heat q h that wells carry in (q > 0) or out, linearised by
        Newton in the cells' T and p; zero where there is no well."""
        rates, h, dh_dT, dh_dp = self.well_heat(dim, loads, state.current)
        rows = self.dofs.cells(dim, T)
        for v, dh in ((T, dh_dT), (P, dh_dp)):
            system.term(("well", dim, v), -rates * dh,
                        lambda: (rows, self.dofs.cells(dim, v), None, None), newton=True)
        system.rhs(rows, rates * h)

    # -- contact and interface rows -----------------------------------------
    def _contact_rows(self, system: _System, cache):
        """Contact conditions of every fracture cell in lam and the jump
        J x: per cell, a 2x2 block on its tractions and one on its jump,
        with coefficient k = 4 c + 2 r + s for the entry (r, s) of cell c."""
        mat, frac, rows = self.mat, cache.fracture, self.dofs.cells(1, LAM)
        lam = frac.lam
        a_lam, a_jump, rhs = ct.contact_rows(
            frac.contact, lam[0::2], lam[1::2], frac.jumps[0::2], frac.jumps[1::2],
            frac.jumps_ref[0::2], frac.gaps, frac.dgaps, self.c_num, mat.friction_coefficient,
        )

        def cellwise(cols, right):
            k = np.arange(2 * rows.size)
            cell, r, s, one = k // 4, (k // 2) % 2, k % 2, np.ones(k.size)
            to_row = sps.csr_matrix((one, (2 * cell + r, k)), shape=(rows.size, k.size))
            to_col = sps.csr_matrix((one, (k, 2 * cell + s)), shape=(k.size, rows.size))
            return rows, cols, to_row, to_col if right is None else to_col @ right

        system.term(("contact", LAM), a_lam.ravel(), lambda: cellwise(rows, None))
        system.term(("contact", "jump"), a_jump.ravel(), lambda: cellwise(None, self.J))
        system.rhs(rows, rhs.ravel())

    def _mortar_flux_rows(self, system: _System, group, state, cache, loads):
        """Interface laws of one mortar group, with the high side's face
        traces.

        Darcy and Fourier fluxes are w (trace of the high side - low cell
        value), with w = A V_high 2 kappa / a_low; the advective flux is the
        fluid flux times c rho T on its upstream side, linearised by Newton
        in the fluid flux and in the upstream cell's T and p, with blocks
        for either side as upstream. The lift picks one face per mortar
        cell, so diag(w) lift diag(c) = lift diag(w' c) with w' = lift^T w
        on the faces.
        """
        mat, dofs, dim, hi, lo = self.mat, self.dofs, group.dim, group.hi, group.lo
        lift = group.lift
        v_high = cache.spec_vol[dim][hi]
        a_low = cache.apertures[dim - 1][lo]
        k_low = cubic_law(a_low)
        areas = group.areas
        w_flow = areas * v_high * (k_low / mat.viscosity) * 2.0 / a_low
        w_heat = areas * v_high * mat.conductivity_fluid * 2.0 / a_low

        for var, svar, key, w in ((P, FLOW, NU, w_flow), (T, HEAT, NU_COND, w_heat)):
            rows = dofs.mortar(dim, key)
            system.add(lambda: (rows, rows, 1.0))
            system.term(("mortar", dim, var), w,
                        lambda: (rows, dofs.cells(dim - 1, var)[lo], None, None))
            ops = self._scalar_ops(dim, svar, cache)
            w_faces = self.to_faces[dim] @ w
            self._parts(system, ("trace_cell", dim, var), ops, "trace_cell", w_faces,
                        lambda: (rows, dofs.cells(dim, var), -lift, None))
            self._parts(system, ("trace_face", dim, var), ops, "trace_face", w_faces,
                        lambda: (rows, rows, -lift, lift.T))
            trace = ops.apply("trace_face", self._ext_scalar(dim, svar, loads))
            system.rhs(rows, w * (lift @ trace))
            if var == P and self.has_gravity:
                grav = np.asarray(mat.gravity, float)
                trace = ops.apply("trace_vector_source", self._rho_g(cache.density[dim]))
                system.rhs(rows, w * (lift @ trace))
                # gravity term of the interface law itself
                rho_l = cache.density[dim - 1][lo]
                gn = (grav[:, None] * group.normals).sum(axis=0)
                coef = areas * v_high * (k_low / mat.viscosity) * rho_l * gn
                system.rhs(rows, coef)

        # advective rows: nu_adv = nu c rho T(upstream side)
        rows, x = dofs.mortar(dim, NU_ADV), state.current
        nu = x[dofs.mortar(dim, NU)]
        high = nu > 0

        def upstream(var):
            return np.where(high, dofs.cells(dim, var)[hi], dofs.cells(dim - 1, var)[lo])

        rho = np.where(high, cache.density[dim][hi], cache.density[dim - 1][lo])
        h, dh_dT, dh_dp = carried_heat(rho, x[upstream(T)], mat)
        system.add(lambda: (rows, rows, 1.0))
        system.term(("mortar_adv", dim, NU), -h, lambda: (rows, dofs.mortar(dim, NU), None, None),
                    newton=True)
        for v, dh in ((T, dh_dT), (P, dh_dp)):
            system.term(("mortar_adv", dim, v, "hi"), np.where(high, -nu * dh, 0.0),
                        lambda: (rows, dofs.cells(dim, v)[hi], None, None), newton=True)
            system.term(("mortar_adv", dim, v, "lo"), np.where(high, 0.0, -nu * dh),
                        lambda: (rows, dofs.cells(dim - 1, v)[lo], None, None), newton=True)
        system.rhs(rows, nu * h)


class _Slots:
    """The run's sparsity pattern of the system matrix, and the static map
    from coefficient vectors to its slots.

    The first assembly of a run registers its blocks here in declaration
    order (:class:`_System`): constant ones by :meth:`add`, the others by
    :meth:`term` as L diag(c) R, with a key that names the coefficient
    vector c. :meth:`freeze` builds the pattern (CSR, sorted columns), the
    constant data, summed in registration order, and S, which maps the
    coefficient vectors, concatenated in registration order, to the slots.
    S is stored by columns, so that every slot sums its terms in that
    order. Per assembly, :meth:`matrix` sets the data to the constant part
    plus S c. ``keys`` and ``newton`` stay for the later assemblies, which
    check their terms against the keys and add L (c R x) of each Newton
    term to b.
    """

    def __init__(self, n: int):
        self.n = n
        self.keys, self.sizes = [], []
        self.newton = []  # (term index, rows, cols, L, R) of each Newton term
        # (rows, cols, values) of the constant blocks; (rows, cols, weights,
        # entries per coefficient) of the terms
        self._const, self._terms = [], []
        self._by_columns = {}  # id(L) -> (L, L by columns)

    def add(self, rows, cols, block, right=None):
        """A constant block, times ``right`` where given: a sparse matrix
        over the dofs (rows, cols), all dofs where cols is None, or values
        on the pairs (rows[i], cols[i])."""
        rows = np.asarray(rows, dtype=np.int32)
        if right is not None:
            block = block @ right
        if sps.issparse(block):
            block = block.tocsr()
            rows = np.repeat(rows, np.diff(block.indptr))
            cols = block.indices if cols is None else _as_index(cols)[block.indices]
            block = block.data
        self._const.append((rows, _as_index(cols), np.broadcast_to(block, rows.shape)))

    def term(self, key, rows, cols, left, right, newton=False):
        """The block L diag(c) R over the dofs (rows, cols), all dofs where
        cols is None, with its coefficient vector c named by ``key``. An
        absent L or R (None) is an identity; with neither, c sits on the
        pairs (rows[i], cols[i])."""
        if newton:
            self.newton.append((len(self.keys), rows, cols,
                                None if left is None else left.tocsr(),
                                None if right is None else right.tocsr()))
        rows, cols = _as_index(rows), None if cols is None else _as_index(cols)
        left = sps.identity(rows.size, format="csr") if left is None else left
        size = left.shape[1]
        self.keys.append(key)
        self.sizes.append(size)
        rm = (sps.identity(size) if right is None else right).tocsr()
        # L by columns, so that the entries come in coefficient order; many
        # terms share an L, the divergence above all
        if id(left) not in self._by_columns:
            self._by_columns[id(left)] = left, left.tocsc()
        lm = self._by_columns[id(left)][1]
        lcol = np.repeat(np.arange(size), np.diff(lm.indptr))
        counts = np.diff(rm.indptr)[lcol]
        pos = (np.repeat(rm.indptr[lcol] - (np.cumsum(counts) - counts), counts)
               + np.arange(counts.sum()))
        col, weights = rm.indices[pos], np.repeat(lm.data, counts) * rm.data[pos]
        self._terms.append((rows[np.repeat(lm.indices, counts)],
                            col if cols is None else cols[col], weights,
                            np.bincount(lcol, counts, size).astype(np.int64)))

    def freeze(self) -> _Slots:
        n, m = self.n, sum(self.sizes)
        # one conversion, each entry array concatenated once into its input,
        # sums the constant blocks and gives the pattern, the terms' entries 0
        k = sum(p[0].size for p in self._const)
        rows, cols = (np.concatenate([p[i] for p in self._const + self._terms]) for i in (0, 1))
        data = np.concatenate([p[2] for p in self._const] + [np.zeros(rows.size - k)])
        weights, counts = (np.concatenate([p[i] for p in self._terms]) for i in (2, 3))
        del self._const, self._terms, self._by_columns
        A = sps.csr_matrix((data, (rows, cols)), shape=(n, n))
        del data
        # copies: the summed arrays are views of buffers sized for all entries
        self.const, self.indptr, self.indices = A.data.copy(), A.indptr, A.indices.copy()
        del A
        # every matrix shares these: an in-place change to one corrupts all
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        # each term entry's slot, by its key row n + col among the pattern's
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(self.indptr)) + self.indices
        wanted = rows[k:] * np.int64(n) + cols[k:]
        del rows, cols
        slot = np.searchsorted(keys, wanted).astype(np.int32)
        # the entries of the terms come in coefficient order
        self.S = sps.csc_matrix((weights, slot, np.concatenate([[0], np.cumsum(counts)])),
                                shape=(self.const.size, m))
        return self

    def matrix(self, coefs: list) -> sps.csr_matrix:
        c = np.concatenate([np.broadcast_to(coef, (size,))
                            for coef, size in zip(coefs, self.sizes)])
        # S c + const is const + S c bit for bit, without a second array
        data = self.S @ c
        data += self.const
        return sps.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


class _System:
    """The declarations of one assembly, in assembly order: constant
    blocks (:meth:`add`), terms L diag(c) R with their coefficient vectors
    (:meth:`term`) and parts of b (:meth:`rhs`).

    ``where`` gives a block's structure, (rows, cols, block) or (rows, cols,
    L, R), and is called at once, so a closure may read its loop's
    variables. Only a first assembly, given no ``slots``, calls it: it
    registers the run's pattern into a fresh :class:`_Slots`, which
    :meth:`finish` freezes. Every later assembly collects coefficients and
    parts of b only, and raises where a declared term differs from the
    registered one at its position.
    """

    def __init__(self, n: int, slots: _Slots | None):
        self.register = slots is None
        self.slots = _Slots(n) if slots is None else slots
        self.coefs = []
        self.b = np.zeros(n)

    def add(self, where):
        if self.register:
            self.slots.add(*where())

    def term(self, key, coef, where, newton=False):
        if self.register:
            self.slots.term(key, *where(), newton=newton)
        elif self.slots.keys[len(self.coefs):len(self.coefs) + 1] != [key]:
            raise RuntimeError(f"assembly declares the term {key} at position "
                               f"{len(self.coefs)}, which the run's pattern does not hold")
        self.coefs.append(coef)

    def rhs(self, rows, values):
        np.add.at(self.b, rows, values)

    def finish(self, x) -> tuple[sps.csr_matrix, np.ndarray]:
        """The matrix, and b with L (c R x) of every Newton term added."""
        slots = self.slots.freeze() if self.register else self.slots
        if len(self.coefs) != len(slots.keys):
            raise RuntimeError(f"assembly declares {len(self.coefs)} terms, and the run's "
                               f"pattern holds {len(slots.keys)}")
        for i, rows, cols, left, right in slots.newton:
            v = x if cols is None else x[cols]
            v = self.coefs[i] * (v if right is None else right @ v)
            self.rhs(rows, v if left is None else left @ v)
        return slots.matrix(self.coefs), self.b


def _as_index(dofs) -> np.ndarray:
    return np.asarray(dofs, dtype=np.int32)


def _block_diag(blocks) -> sps.csr_matrix:
    """Per-cell 2x2 blocks, shape (nc, 2, 2), as one block-diagonal matrix
    of shape (2 nc, 2 nc); nc may be 0."""
    n = 2 * blocks.shape[0]
    cols = np.repeat(np.arange(n).reshape(-1, 2), 2, axis=0).ravel()
    return sps.csr_matrix((np.ravel(blocks), cols, np.arange(0, 2 * n + 1, 2)), shape=(n, n))
