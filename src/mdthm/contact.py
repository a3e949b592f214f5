"""Active-set treatment of frictional fracture contact with dilation.

Cells are classified by the friction bound b = -F (lam_n + c (jump_n - g))
and the trial traction lam_t + c d_t, where d_t is the tangential jump
increment over the current time step:

    open     b <= 0
    sticking |lam_t + c d_t| <  b
    gliding  |lam_t + c d_t| >= b > 0

The complementarity residuals (both vanish exactly at a solution)

    C_n = -lam_n - max(0, b) / F
    C_t = max(b, |lam_t + c d_t|) (-lam_t) + max(0, b) (lam_t + c d_t)

are linearised per cell with their generalised Jacobians. Eliminating the
normal complementarity from the friction-bound increment leaves, per
mechanically closed cell, the normal constraint

    jump_n' - dgap jump_t' = g - dgap jump_t

and for the tangential direction either the sticking row

    d_t' - (F d_t / b) lam_n' = d_t

or the gliding row,  lam_t' - L d_t' + F v lam_n' = r + b v,  whose scalar
coefficients follow from regrouping the tangential Jacobian around the
current iterate (primes denote the next iterate; everything else is
evaluated at the current one). With m = |lam_t + c d_t|, w = sign of that
trial traction and the pivot  a = b - m - lam_t w:

    L = -c (b - lam_t w) / a,   v = -m w / a,   r = m (2 b w - lam_t) / a.

At a converged gliding state a = -m, and the row collapses to the Coulomb
equality lam_t = b w with slip parallel to the tangential traction. All
quantities are scalars per cell since the tangent space of a fracture in
two dimensions is one-dimensional.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from mdthm.constitutive import friction_bound


class ContactState(enum.IntEnum):
    OPEN = 0
    STICKING = 1
    GLIDING = 2


class ContactError(RuntimeError):
    pass


def classify(lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap, c_num, friction):
    """Per-cell deformation state at the current iterate."""
    if np.any(np.asarray(c_num) <= 0):
        raise ContactError("numerical parameter c must be positive")
    b = friction_bound(lam_n, jump_n, gap, c_num, friction)
    trial = np.abs(lam_t + c_num * (jump_t - jump_t_prev))
    state = np.full(np.shape(b), ContactState.GLIDING, dtype=int)
    state[trial < b] = ContactState.STICKING
    state[b <= 0] = ContactState.OPEN
    return state


def residuals(lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap, c_num, friction):
    """Normal and tangential complementarity residuals, zero at solutions."""
    b = friction_bound(lam_n, jump_n, gap, c_num, friction)
    d_t = jump_t - jump_t_prev
    trial = lam_t + c_num * d_t
    c_normal = -lam_n - np.maximum(0.0, b) / friction
    c_tangential = np.maximum(b, np.abs(trial)) * (-lam_t) + np.maximum(0.0, b) * trial
    return c_normal, c_tangential


def complementarity_report(lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap,
                           c_num, friction, tol=1e-8):
    """Worst scaled violation of the contact conditions at a converged state.

    Checks nonpenetration (jump_n >= g, lam_n <= 0, complementarity), the
    Coulomb bound, and that gliding cells slip parallel to the tangential
    traction. The scale is max(1, |lam|) per cell.
    """
    lam_t = np.asarray(lam_t, float)
    lam_n = np.asarray(lam_n, float)
    scale = np.maximum(1.0, np.hypot(lam_t, lam_n))
    viol = np.zeros_like(scale)
    viol = np.maximum(viol, (gap - jump_n) / 1.0)  # penetration [m]
    viol = np.maximum(viol, lam_n / scale)  # tension
    viol = np.maximum(viol, np.abs(lam_n * (jump_n - gap)) / scale)
    viol = np.maximum(viol, (np.hypot(lam_t, 0.0) + friction * lam_n) / scale)
    c_n, c_t = residuals(lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap, c_num, friction)
    viol = np.maximum(viol, np.abs(c_n) / scale)
    viol = np.maximum(viol, np.abs(c_t) / scale**2)
    # slip alignment on gliding cells
    state = classify(lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap, c_num, friction)
    gliding = state == ContactState.GLIDING
    d_t = jump_t - jump_t_prev
    active = gliding & (np.abs(d_t) * c_num > tol * scale)
    align = np.zeros_like(scale)
    align[active] = np.where(
        np.sign(d_t[active]) == np.sign(lam_t[active]), 0.0, 1.0
    )
    viol = np.maximum(viol, align)
    return float(viol.max()) if viol.size else 0.0


@dataclass
class ContactRowCoefficients:
    """Linearisation data per fracture cell at the current iterate."""

    state: np.ndarray
    bound: np.ndarray
    L: np.ndarray
    v: np.ndarray
    r: np.ndarray
    stick_slope: np.ndarray  # F d_t / b on sticking cells


def row_coefficients(state, lam_t, lam_n, jump_t, jump_n, jump_t_prev, gap,
                     c_num, friction) -> ContactRowCoefficients:
    state = np.asarray(state, dtype=int)
    nc = state.size
    c_arr = np.broadcast_to(np.asarray(c_num, dtype=float), (nc,))
    b = friction_bound(lam_n, jump_n, gap, c_arr, friction)
    closed = state != ContactState.OPEN
    if np.any(closed & (b <= 0)):
        raise ContactError("closed-state row requested with nonpositive friction bound")
    d_t = jump_t - jump_t_prev
    trial = lam_t + c_arr * d_t
    m = np.abs(trial)
    w = np.sign(trial)
    w = np.where(w == 0.0, 1.0, w)

    L = np.zeros(nc)
    v = np.zeros(nc)
    r = np.zeros(nc)
    stick = np.zeros(nc)

    gl = state == ContactState.GLIDING
    if np.any(gl):
        pivot = b[gl] - m[gl] - lam_t[gl] * w[gl]
        ref = b[gl] + m[gl] + np.abs(lam_t[gl])
        safe = np.where(np.abs(pivot) > 1e-10 * ref, pivot, -ref)
        L[gl] = -c_arr[gl] * (b[gl] - lam_t[gl] * w[gl]) / safe
        v[gl] = -m[gl] * w[gl] / safe
        r[gl] = m[gl] * (2.0 * b[gl] * w[gl] - lam_t[gl]) / safe
    st = state == ContactState.STICKING
    stick[st] = friction * d_t[st] / b[st]
    return ContactRowCoefficients(state, b, L, v, r, stick)


def assemble_rows(coeffs: ContactRowCoefficients, jump_t, jump_t_prev, gap,
                  dgap, friction):
    """Per-cell constraint rows in the (lam, jump') unknowns.

    Unknown and row ordering is (tangential, normal) per cell. Returns
    (A_lam, A_jump, rhs) with shapes (nc, 2, 2), (nc, 2, 2), (nc, 2) such
    that  A_lam lam' + A_jump jump' = rhs  holds for the next iterate.
    """
    state = coeffs.state
    nc = state.size
    a_lam = np.zeros((nc, 2, 2))
    a_jump = np.zeros((nc, 2, 2))
    rhs = np.zeros((nc, 2))

    opened = state == ContactState.OPEN
    a_lam[opened, 0, 0] = 1.0
    a_lam[opened, 1, 1] = 1.0

    closed = ~opened
    # normal condition: jump_n' - dgap jump_t' = g - dgap jump_t
    a_jump[closed, 1, 1] = 1.0
    a_jump[closed, 1, 0] = -dgap[closed]
    rhs[closed, 1] = gap[closed] - dgap[closed] * jump_t[closed]

    st = state == ContactState.STICKING
    # d_t' - (F d_t / b) lam_n' = d_t, in terms of jump_t'
    a_jump[st, 0, 0] = 1.0
    a_lam[st, 0, 1] = -coeffs.stick_slope[st]
    rhs[st, 0] = jump_t[st]

    gl = state == ContactState.GLIDING
    # lam_t' - L d_t' + F v lam_n' = r + b v
    a_lam[gl, 0, 0] = 1.0
    a_lam[gl, 0, 1] = friction * coeffs.v[gl]
    a_jump[gl, 0, 0] = -coeffs.L[gl]
    rhs[gl, 0] = (
        coeffs.r[gl] + coeffs.bound[gl] * coeffs.v[gl]
        - coeffs.L[gl] * jump_t_prev[gl]
    )
    return a_lam, a_jump, rhs
