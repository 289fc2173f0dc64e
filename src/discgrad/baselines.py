"""Comparison integrators: leap-frog, classical RK-4, Taylor methods of
order N, and Yoshida-composed explicit symplectic schemes of order 2M."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedSchemeError
from .hamiltonian import HamiltonianSystem, PhaseState, taylor_flow_coeffs


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
    c: list
    d: list


def sp_coefficients(M: int) -> SymplecticCoeffs:
    """Coefficients of the order-2M Yoshida scheme: K = 3^(M-1) kicks d
    between K+1 drifts c, so a step evaluates V' K times.

    Built by triple-jump composition: the order-2m map is run with substep
    fractions (y_m, 1-2*y_m, y_m), and each copy's last drift is merged into
    the next copy's first drift.
    """
    if not 1 <= M <= 4:
        raise UnsupportedSchemeError("the symplectic ids are sp-2, sp-4, "
                                     "sp-6 and sp-8 (M in [1, 4])")
    c = [0.5, 0.5]
    d = [1.0]
    for m in range(1, M):
        y = 1.0 / (2.0 - 2.0 ** (1.0 / (2 * m + 1)))
        new_c, new_d = [], []
        for frac in (y, 1.0 - 2.0 * y, y):
            part_c = [frac * ci for ci in c]
            if new_c:
                part_c[0] += new_c.pop()
            new_c.extend(part_c)
            new_d.extend(frac * di for di in d)
        c, d = new_c, new_d
    return SymplecticCoeffs(c, d)


def step_symplectic(sys: HamiltonianSystem, s: PhaseState, h: float,
                    coeffs: SymplecticCoeffs) -> PhaseState:
    """A drift x += h c_0 p, then kick-drift pairs p -= h d_i V'(x);
    x += h c_(i+1) p."""
    if not sys.quadratic_kinetic:
        raise UnsupportedSchemeError(
            f"lf and sp-2M need H = p^2/2 + V(x), got {sys.name!r}")
    vprime = sys.partials["x"]
    c = coeffs.c
    p = s.p
    x = s.x + h * c[0] * p
    i = 1                       # a counter costs less per step than zip
    for di in coeffs.d:
        p = p - h * di * vprime(x, p)
        x = x + h * c[i] * p
        i += 1
    return PhaseState(x, p)


_LEAPFROG = sp_coefficients(1)


def step_leapfrog(sys: HamiltonianSystem, s: PhaseState,
                  h: float) -> PhaseState:
    """Drift-kick-drift leap-frog: the order-2 composition sp-2."""
    return step_symplectic(sys, s, h, _LEAPFROG)
