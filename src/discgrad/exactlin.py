"""Exact discretization of linear constant-coefficient systems.

For d/dt z = A z + b the exact one-step map is
z_{n+1} = e^{hA} z_n + phi1(hA) h b.  For the trace-free 2x2 matrices that
arise from linearized Hamiltonian flows, A^2 = -omega_sq * I, so e^{hA} and
phi1(hA) reduce to trig (omega_sq > 0), hyperbolic (omega_sq < 0) or
polynomial (omega_sq = 0) closed forms.  Using phi1 instead of
(e^{hA} - I) A^{-1} keeps singular A valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateStepError
from .hamiltonian import LinearSystem

# below this |omega_sq| the closed forms lose digits; use the series
_DEGENERATE_OMEGA_SQ = 1e-12


@dataclass(slots=True)
class AffineStepMap:
    """z -> M z + w, with M the float rows ((m11, m12), (m21, m22)) and w
    the float pair (w0, w1)."""
    M: tuple
    w: tuple

    def apply(self, z):
        (m11, m12), (m21, m22) = self.M
        return (m11 * z[0] + m12 * z[1] + self.w[0],
                m21 * z[0] + m22 * z[1] + self.w[1])

    def compose(self, first: "AffineStepMap") -> "AffineStepMap":
        """Map equal to `first` followed by self."""
        (m11, m12), (m21, m22) = self.M
        (f11, f12), (f21, f22) = first.M
        return AffineStepMap(((m11 * f11 + m12 * f21, m11 * f12 + m12 * f22),
                              (m21 * f11 + m22 * f21, m21 * f12 + m22 * f22)),
                             self.apply(first.w))


def affine_map(lin: LinearSystem, c: float, s: float,
               p2: float) -> AffineStepMap:
    """The map (c I + s A) z + s b + p2 A b of the affine system (A, b):
    a power series in A is c I + s A, since A^2 = -omega_sq I."""
    (a11, a12), (a21, a22) = lin.A
    b0, b1 = lin.b
    return AffineStepMap(((c + s * a11, s * a12), (s * a21, c + s * a22)),
                         (s * b0 + p2 * (a11 * b0 + a12 * b1),
                          s * b1 + p2 * (a21 * b0 + a22 * b1)))


def _cos_sinc_phi2(omega_sq: float, h: float):
    """cos(h w), sin(h w)/w and (1 - cos(h w))/w^2 for w^2 of any sign."""
    if omega_sq > _DEGENERATE_OMEGA_SQ:
        w = math.sqrt(omega_sq)
        c = math.cos(h * w)
        s = math.sin(h * w) / w
        # 1 - cos via half-angle to avoid cancellation at small h*w
        p2 = 2.0 * math.sin(0.5 * h * w) ** 2 / omega_sq
        return c, s, p2
    if omega_sq < -_DEGENERATE_OMEGA_SQ:
        mu = math.sqrt(-omega_sq)
        c = math.cosh(h * mu)
        s = math.sinh(h * mu) / mu
        p2 = 2.0 * math.sinh(0.5 * h * mu) ** 2 / (-omega_sq)
        return c, s, p2
    z = omega_sq * h * h
    c = 1.0 - z / 2.0 + z * z / 24.0
    s = h * (1.0 - z / 6.0 + z * z / 120.0)
    p2 = h * h * (0.5 - z / 24.0 + z * z / 720.0)
    return c, s, p2


def exact_step_map(lin: LinearSystem, h: float) -> AffineStepMap:
    """One exact step of size h for the affine system (A, b)."""
    return affine_map(lin, *_cos_sinc_phi2(lin.omega_sq, h))


def exact_exp_growth_delta(a: float, h: float) -> float:
    """Denominator function of the exact scheme for xdot = a x."""
    if a == 0.0:
        return h
    return math.expm1(a * h) / a


def exact_harmonic_recurrence(omega: float, h: float,
                              x_n: float, x_nm1: float) -> float:
    """x_{n+1} from the exact three-point recurrence of the oscillator."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return 2.0 * math.cos(omega * h) * x_n - x_nm1


def exact_harmonic_momentum(omega: float, h: float,
                            x_n: float, x_np1: float) -> float:
    """p_n reconstructed from consecutive exact oscillator samples."""
    s = math.sin(omega * h)
    if s == 0.0:
        raise DegenerateStepError("sin(omega*h) = 0: momentum not recoverable")
    return (x_np1 - math.cos(omega * h) * x_n) / s
