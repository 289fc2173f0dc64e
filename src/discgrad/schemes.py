"""Non-standard discrete-gradient schemes.

The one-step map is implicit:

    (x' - x)/delta = [H(x',p') + H(x,p') - H(x',p) - H(x,p)] / (2 (p' - p))
    (p' - p)/delta = [H(x,p') + H(x,p)  - H(x',p') - H(x',p)] / (2 (x' - x))

Any positive delta with delta/h -> 1 gives an energy-preserving consistent
scheme; the choice of delta sets the accuracy:

    GR        delta = h
    MOD-GR    delta = (2/w) tan(h w / 2), w frozen at a chosen equilibrium
    GR-LEX    same, w = sqrt(H_xx H_pp - H_xp^2) at the step's start point
    GR-SLEX   same, w at the (implicit) midpoint, re-evaluated per iteration
    GR-N      delta = sum_{k=1}^{N} a_k h^k, the series of (X - x) /
              dd_p(x, X, p, P) on the flow (X, P) through (x, p): with it
              the exact flow meets the x-equation to order N

A :class:`DeltaRule` is that choice and nothing else: a function
``fn(sys, x, p, h) -> delta`` and a flag ``midpoint``.  The step evaluates
``fn`` once, at its start point, unless ``midpoint`` is set (GR-SLEX); then
it evaluates ``fn`` at the midpoint of the current iterate on every
solver iteration.

The step solves F(z) = z - z_n - delta (dd_p, -dd_x)(z_n, z) = 0 by
simplified Newton from an explicit Euler predictor (Hairer, Lubich &
Wanner, Geometric Numerical Integration, VIII.6), with J = I - (delta/2) A
and the Hessian in A frozen at the predicted midpoint.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import (DivergenceError, NonConvergenceError, ResonanceStepError)
from .exactlin import AffineStepMap
from .hamiltonian import (MAX_FLOW_ORDER, HamiltonianSystem, PhaseState,
                          linearize, taylor_flow_coeffs)
from .jets import Jet, _div, horner

import numpy as np

# the series quotient needs two flow coefficients beyond its own order
MAX_SERIES_ORDER = MAX_FLOW_ORDER - 2


def _check_series_order(N: int) -> None:
    if not 1 <= N <= MAX_SERIES_ORDER:
        raise ValueError(f"series order must be in [1, {MAX_SERIES_ORDER}]")


@dataclass(slots=True)
class SolverConfig:
    tol: float = 1e-15
    max_iter: int = 100
    divergence_guard: float = 1e6

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("need tol > 0 and max_iter >= 1")


@dataclass(frozen=True, slots=True)
class DeltaRule:
    """Denominator choice for the discrete-gradient step: delta is
    ``fn(sys, x, p, h)``, taken at the step's start point, or at the
    iterate's midpoint on every iteration when ``midpoint`` is set."""
    fn: Callable[[HamiltonianSystem, float, float, float], float]
    midpoint: bool = False

    @classmethod
    def gr(cls):
        return cls(lambda sys, x, p, h: h)

    @classmethod
    def mod_gr(cls, x_bar):
        # delta depends only on (sys, h): remember the last one, keyed by
        # the system object so one rule never hands a system another's delta
        last = (None, None, None)

        def fn(sys, x, p, h):
            nonlocal last
            if last[0] is not sys or last[1] != h:
                last = (sys, h, delta_lex(omega_sq_at(sys, x_bar, 0.0), h))
            return last[2]
        return cls(fn)

    @classmethod
    def lex(cls):
        return cls(_delta_lex_at)

    @classmethod
    def slex(cls):
        return cls(_delta_lex_at, midpoint=True)

    @classmethod
    def series(cls, N):
        _check_series_order(N)
        return cls(lambda sys, x, p, h: delta_series(sys, PhaseState(x, p),
                                                     h, N))

    def value_at(self, sys: HamiltonianSystem, s: PhaseState, h: float) -> float:
        """delta at the fixed point s; for slex the midpoint is s itself,
        which is what the local-exactness analysis needs."""
        return self.fn(sys, s.x, s.p, h)


def omega_sq_at(sys: HamiltonianSystem, x: float, p: float) -> float:
    d = sys.partials
    return d["xx"](x, p) * d["pp"](x, p) - d["xp"](x, p) ** 2


def delta_lex(omega_sq: float, h: float) -> float:
    """Locally exact denominator (2/w) tan(h w / 2).

    For omega_sq < 0 the imaginary unit cancels, giving the tanh form;
    near zero the series limit avoids cancellation.  Odd in h, so stepping
    backwards (negative h) works for time-reversal checks.
    """
    if h == 0.0:
        raise ValueError("h must be nonzero")
    if omega_sq > 1e-12:
        w = math.sqrt(omega_sq)
        if abs(h) * w >= math.pi:
            raise ResonanceStepError(
                f"h*omega = {abs(h) * w:.3g} >= pi: step too large "
                "for the locally exact denominator")
        return 2.0 / w * math.tan(0.5 * h * w)
    if omega_sq < -1e-12:
        mu = math.sqrt(-omega_sq)
        return 2.0 / mu * math.tanh(0.5 * h * mu)
    return h + h ** 3 * omega_sq / 12.0


def _delta_lex_at(sys: HamiltonianSystem, x, p, h: float) -> float:
    return delta_lex(omega_sq_at(sys, x, p), h)


def _leading_index(coeffs, scale):
    """Index of the first coefficient above 1e-13 of scale, the largest
    magnitude in coeffs."""
    k = 0
    while abs(coeffs[k]) <= 1e-13 * scale:
        k += 1
    return k


def _quotient_parts(sys: HamiltonianSystem, x, p, N: int):
    """X - x and dd_p(x, X, p, P) on the flow jets (X, P), the second a
    jet also where H_p, and so dd_p, is a constant."""
    X, P = taylor_flow_coeffs(sys, PhaseState(x, p), N + 2)
    den = sys.dd_p(x, X, p, P)
    return X - x, den if isinstance(den, Jet) else Jet.constant(den, N + 2)


def _cancel_and_divide(num, den, k: int, N: int) -> list:
    """The first N coefficients of (num / h^(k+1)) / (den / h^k): num and
    den share a common h^k factor, with num one power higher.  Each
    shifted series is zero-padded where it runs out, by zeros of its own
    constant term's type and sign."""
    a = num.coeffs[k + 1:k + 1 + N]
    a += [0.0 * num.coeffs[0]] * (N - len(a))
    b = den.coeffs[k:k + N]
    b += [0.0 * den.coeffs[0]] * (N - len(b))
    q = []
    _div(N, q, a, b)
    return q


def delta_series_coefficients(sys: HamiltonianSystem, s: PhaseState,
                              N: int) -> list:
    """Series coefficients [a_1, ..., a_N] of the order-N denominator;
    [1, 0, ..., 0] (delta = h) for a trivial flow."""
    _check_series_order(N)
    num, den = _quotient_parts(sys, s.x, s.p, N)
    dc = den.coeffs
    if not all(map(math.isfinite, dc)):
        raise DivergenceError(
            f"series delta at ({s.x:.3g}, {s.p:.3g}): the flow "
            "coefficients overflow")
    scale = max(map(abs, dc))
    if scale == 0.0:
        return [1.0] + [0.0] * (N - 1)
    k = _leading_index(dc, scale)
    amp = scale / abs(dc[k])
    if amp <= 1e3:
        return _cancel_and_divide(num, den, k, N)
    # near-cancelling leading coefficient (state within ~1e-3 of a turning
    # point): the division recurrence loses roughly log10(amp) digits per
    # order, so redo it in wide enough extended precision and round the
    # result
    import mpmath
    with mpmath.workdps(30 + (N + 2) * int(math.log10(amp) + 1.0)):
        num, den = _quotient_parts(sys, mpmath.mpf(s.x), mpmath.mpf(s.p), N)
        dc = den.coeffs
        k = _leading_index(dc, max(map(abs, dc)))
        q = _cancel_and_divide(num, den, k, N)
    return [float(c) for c in q]


def delta_series(sys: HamiltonianSystem, s: PhaseState, h: float,
                 N: int) -> float:
    """delta^{[N]} = sum_{k=1}^{N} a_k(x, p) h^k evaluated at h."""
    return h * horner(delta_series_coefficients(sys, s, N), h)


def discrete_gradient_residual(sys: HamiltonianSystem, s_n: PhaseState,
                               s_next: PhaseState, delta: float):
    """Residual (r_x, r_p) of the implicit step equations."""
    x, p = s_n.x, s_n.p
    x1, p1 = s_next.x, s_next.p
    r_x = (x1 - x) / delta - sys.dd_p(x, x1, p, p1)
    r_p = (p1 - p) / delta + sys.dd_x(x, x1, p, p1)
    return r_x, r_p


# det J = 1 + (delta/2)^2 w^2 vanishes at a saddle (w^2 < 0) when
# delta |w| = 2.  Below this |det J|, J^{-1} = (I + c A) / det J would scale
# the frozen Hessian's error by more than 2, so the solve falls back to
# J = I, the plain fixed-point map
_MIN_NEWTON_DET = 0.5


def _newton_inverse(c: float, hxx: float, hxp: float, hpp: float):
    """Row-major entries of J^{-1} for J = I - c A with
    A = [[H_xp, H_pp], [-H_xx, -H_xp]].  A^2 = -w^2 I with
    w^2 = H_xx H_pp - H_xp^2, so J^{-1} = (I + c A) / (1 + c^2 w^2)."""
    det = 1.0 + c * c * (hxx * hpp - hxp * hxp)
    if not _MIN_NEWTON_DET <= abs(det) < math.inf:
        return 1.0, 0.0, 0.0, 1.0
    c /= det
    return 1.0 / det + c * hxp, c * hpp, -c * hxx, 1.0 / det - c * hxp


def step_gradient_info(sys: HamiltonianSystem, rule: DeltaRule,
                       s_n: PhaseState, h: float,
                       cfg: SolverConfig = None):
    """One implicit step; returns (next state, solver iterations)."""
    if cfg is None:
        cfg = SolverConfig()
    x, p = s_n.x, s_n.p
    fn, midpoint = rule.fn, rule.midpoint
    delta = None if midpoint else fn(sys, x, p, h)
    dd_x, dd_p = sys.dd_x, sys.dd_p
    d = sys.partials
    # explicit Euler predictor
    xc = x + h * d["p"](x, p)
    pc = p - h * d["x"](x, p)
    if not (math.isfinite(xc) and math.isfinite(pc)):
        raise DivergenceError(f"Euler predictor ({xc:.3g}, {pc:.3g}) "
                              "is not finite")
    xm, pm = 0.5 * (x + xc), 0.5 * (p + pc)
    hxx, hxp, hpp = d["xx"](xm, pm), d["xp"](xm, pm), d["pp"](xm, pm)
    if not midpoint:
        j11, j12, j21, j22 = _newton_inverse(0.5 * delta, hxx, hxp, hpp)
    tol = cfg.tol
    guard = cfg.divergence_guard
    inc = prev_inc = math.inf
    for it in range(1, cfg.max_iter + 1):
        if midpoint:
            delta = fn(sys, 0.5 * (x + xc), 0.5 * (p + pc), h)
            j11, j12, j21, j22 = _newton_inverse(0.5 * delta, hxx, hxp, hpp)
        rx = x + delta * dd_p(x, xc, p, pc) - xc
        rp = p - delta * dd_x(x, xc, p, pc) - pc
        dx = j11 * rx + j12 * rp
        dp = j21 * rx + j22 * rp
        xc += dx
        pc += dp
        inc = max(abs(dx), abs(dp))
        if inc <= tol:
            return PhaseState(xc, pc), it
        # round-off stagnation: increments have stopped shrinking at a few
        # ulp of the state scale, which is as converged as doubles get
        if (inc >= prev_inc
                and inc <= 64.0 * 2.220446049250313e-16
                * max(1.0, abs(xc), abs(pc))):
            return PhaseState(xc, pc), it
        prev_inc = inc
        if inc > guard or not math.isfinite(inc):
            raise DivergenceError(
                f"fixed-point increment {inc:.3g} exceeded guard {guard:.3g}")
    raise NonConvergenceError(
        f"no convergence in {cfg.max_iter} iterations "
        f"(last increment {inc:.3g})", inc)


def step_gradient(sys: HamiltonianSystem, rule: DeltaRule, s_n: PhaseState,
                  h: float, cfg: SolverConfig = None) -> PhaseState:
    return step_gradient_info(sys, rule, s_n, h, cfg)[0]


def local_exactness_matrix(sys: HamiltonianSystem, rule: DeltaRule,
                           s_bar: PhaseState, h: float) -> AffineStepMap:
    """Linearization (M, w) of the gradient step around a fixed point.

    Valid for rules whose delta depends only on (x_bar, p_bar, h); for a
    locally exact rule the result equals the exact step map of the
    linearized flow.
    """
    delta = rule.value_at(sys, s_bar, h)
    lin = linearize(sys, s_bar)
    w2 = lin.omega_sq
    den = 1.0 + 0.25 * w2 * delta * delta
    M = ((1.0 - 0.25 * w2 * delta * delta) * np.eye(2) + delta * lin.A) / den
    w = (delta * lin.b + 0.5 * delta * delta * (lin.A @ lin.b)) / den
    return AffineStepMap(M, w)
