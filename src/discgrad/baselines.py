"""Comparison integrators: leap-frog, classical RK-4, Taylor methods of
order N, and Yoshida-composed explicit symplectic schemes of order 2M."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedSchemeError
from .hamiltonian import HamiltonianSystem, PhaseState, taylor_flow_coeffs


def _require_kick_drift(sys: HamiltonianSystem, scheme: str):
    if not sys.quadratic_kinetic:
        raise UnsupportedSchemeError(
            f"{scheme} needs H = p^2/2 + V(x), got {sys.name!r}")


def step_leapfrog(sys: HamiltonianSystem, s: PhaseState,
                  h: float) -> PhaseState:
    """Drift-kick-drift leap-frog, identical to the M=1 composition sweep."""
    _require_kick_drift(sys, "leap-frog")
    vprime = sys.partials["x"]
    x_half = s.x + 0.5 * h * s.p
    p_new = s.p - h * vprime(x_half, s.p)
    x_new = x_half + 0.5 * h * p_new
    return PhaseState(x_new, p_new)


def step_rk4(sys: HamiltonianSystem, s: PhaseState, h: float) -> PhaseState:
    """Classical four-stage Runge-Kutta applied to (H_p, -H_x)."""
    dx, dp = sys.partials["p"], sys.partials["x"]
    x, p = s.x, s.p
    k1x = dx(x, p)
    k1p = -dp(x, p)
    k2x = dx(x + 0.5 * h * k1x, p + 0.5 * h * k1p)
    k2p = -dp(x + 0.5 * h * k1x, p + 0.5 * h * k1p)
    k3x = dx(x + 0.5 * h * k2x, p + 0.5 * h * k2p)
    k3p = -dp(x + 0.5 * h * k2x, p + 0.5 * h * k2p)
    k4x = dx(x + h * k3x, p + h * k3p)
    k4p = -dp(x + h * k3x, p + h * k3p)
    x_new = x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    p_new = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return PhaseState(x_new, p_new)


def step_taylor(sys: HamiltonianSystem, s: PhaseState, h: float,
                N: int) -> PhaseState:
    """Degree-N Taylor step, jets evaluated at h by Horner."""
    X, P = taylor_flow_coeffs(sys, s, N)
    return PhaseState(X.evaluate(h), P.evaluate(h))


@dataclass(slots=True)
class SymplecticCoeffs:
    M: int
    c: list
    d: list


def sp_coefficients(M: int) -> SymplecticCoeffs:
    """Coefficients of the order-2M Yoshida scheme, K+1 = 3^(M-1)+1 sweeps.

    Built by triple-jump composition: the order-2m map is run with substep
    fractions (y_m, 1-2*y_m, y_m) and the junction drifts (which carry a
    zero kick) are merged into the following substep.
    """
    if not 1 <= M <= 4:
        raise UnsupportedSchemeError("the symplectic ids are sp-2, sp-4, "
                                     "sp-6 and sp-8 (M in [1, 4])")
    c = [0.5, 0.5]
    d = [1.0, 0.0]
    for m in range(1, M):
        y = 1.0 / (2.0 - 2.0 ** (1.0 / (2 * m + 1)))
        new_c, new_d = [], []
        for frac in (y, 1.0 - 2.0 * y, y):
            part_c = [frac * ci for ci in c]
            part_d = [frac * di for di in d]
            if new_c:
                # previous copy ends with a zero kick: merge its trailing
                # drift into this copy's first drift
                part_c[0] += new_c.pop()
                new_d.pop()
            new_c.extend(part_c)
            new_d.extend(part_d)
        c, d = new_c, new_d
    return SymplecticCoeffs(M, c, d)


def step_symplectic(sys: HamiltonianSystem, s: PhaseState, h: float,
                    coeffs: SymplecticCoeffs) -> PhaseState:
    """Drift-then-kick sweeps x += h c_i p; p -= h d_i V'(x)."""
    _require_kick_drift(sys, "symplectic composition")
    vprime = sys.partials["x"]
    x, p = s.x, s.p
    for ci, di in zip(coeffs.c, coeffs.d):
        x = x + h * ci * p
        p = p - h * di * vprime(x, p)
    return PhaseState(x, p)
