"""The three flux laws on mortar interfaces, as an independent reference.

The package writes these laws once, in ``Assembler._mortar_flux_rows``;
the tests check the assembled mortar fluxes against the forms here.

The fluid flux follows a normal Darcy law over the half-aperture with the
permeability inherited from the lower-dimensional neighbour; heat crosses
by a matching Fourier law with the fluid conductivity, and advected energy
takes the upstream side of the fluid flux. All values here are per unit
interface area; assembly applies mortar-cell areas and the specific-volume
weight of the high side.
"""

from __future__ import annotations

import numpy as np

from mdthm.mdmesh.grids import MeshError


def interface_darcy(p_h_trace, p_l, a_l, kappa_j, viscosity, rho_l=0.0,
                    gravity=(0.0, 0.0), n_h=None):
    """Interface fluid flux density, positive from the high side into the low.

    nu = -(kappa_j / mu) [ (2 / a_l) (p_l - p_h_trace) - rho_l g . n_h ]
    """
    a = np.asarray(a_l, dtype=float)
    if np.any(a <= 0.0):
        raise MeshError("interface flux undefined for nonpositive aperture")
    dp = np.asarray(p_l, dtype=float) - np.asarray(p_h_trace, dtype=float)
    grav = 0.0
    if n_h is not None:
        grav = np.asarray(rho_l, dtype=float) * (
            np.asarray(gravity, dtype=float)[:, None] * np.asarray(n_h)
        ).sum(axis=0)
    return -(np.asarray(kappa_j, dtype=float) / viscosity) * ((2.0 / a) * dp - grav)


def interface_fourier(T_h_trace, T_l, a_l, kappa_fluid):
    """Conductive interface heat flux density.

    nu_cond = -kappa_j (2 / a_l) (T_l - T_h_trace), with the normal
    conductivity inherited from the fluid of the low-dimensional neighbour.
    """
    a = np.asarray(a_l, dtype=float)
    if np.any(a <= 0.0):
        raise MeshError("interface flux undefined for nonpositive aperture")
    dT = np.asarray(T_l, dtype=float) - np.asarray(T_h_trace, dtype=float)
    return -np.asarray(kappa_fluid, dtype=float) * (2.0 / a) * dT


def interface_advective(nu, carried_high, carried_low):
    """Advected interface heat flux: the fluid flux times rho c T upstream.

    Positive nu flows from the high side, carrying its state; otherwise the
    low side's state is carried.
    """
    nu = np.asarray(nu, dtype=float)
    return np.where(
        nu > 0.0,
        nu * np.asarray(carried_high, dtype=float),
        nu * np.asarray(carried_low, dtype=float),
    )
