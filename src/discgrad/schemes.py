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
    GR-N      delta = truncated series sum a_k h^k built from flow jets
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (DivergenceError, NonConvergenceError, ResonanceStepError)
from .exactlin import AffineStepMap
from .hamiltonian import (MAX_FLOW_ORDER, HamiltonianSystem, PhaseState,
                          linearize, taylor_flow_coeffs)

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


@dataclass
class DeltaRule:
    """Denominator-function choice for the discrete-gradient step."""
    kind: str                      # constant_h | mod_gr | lex | slex | series | custom
    x_bar: float = 0.0
    p_bar: float = 0.0
    N: int = 0
    fn: object = None
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def gr(cls):
        return cls("constant_h")

    @classmethod
    def mod_gr(cls, x_bar, p_bar=0.0):
        return cls("mod_gr", x_bar=x_bar, p_bar=p_bar)

    @classmethod
    def lex(cls):
        return cls("lex")

    @classmethod
    def slex(cls):
        return cls("slex")

    @classmethod
    def series(cls, N):
        _check_series_order(N)
        return cls("series", N=N)

    @classmethod
    def custom(cls, fn):
        return cls("custom", fn=fn)

    def value_at(self, sys: HamiltonianSystem, s: PhaseState, h: float) -> float:
        """delta for rules that depend only on a fixed point and h.

        For slex this is the fixed-point value at s (midpoint == s), which
        is what the local-exactness analysis needs.
        """
        if self.kind == "constant_h":
            return h
        if self.kind == "mod_gr":
            key = h
            d = self._cache.get(key)
            if d is None:
                w2 = omega_sq_at(sys, self.x_bar, self.p_bar)
                d = delta_lex(w2, h)
                self._cache[key] = d
            return d
        if self.kind in ("lex", "slex"):
            return delta_lex(omega_sq_at(sys, s.x, s.p), h)
        if self.kind == "series":
            return delta_series(sys, s, h, self.N)
        if self.kind == "custom":
            return self.fn(h, s)
        raise ValueError(f"unknown delta rule {self.kind!r}")


def omega_sq_at(sys: HamiltonianSystem, x: float, p: float) -> float:
    d = sys.partials
    return d["xx"](x, p) * d["pp"](x, p) - d["xp"](x, p) ** 2


def delta_gr(h: float) -> float:
    return h


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


def _leading_index(jet):
    scale = max(abs(c) for c in jet.coeffs)
    if scale == 0.0:
        return None
    k = 0
    while abs(jet.coeffs[k]) <= 1e-13 * scale:
        k += 1
    return k


def _quotient_parts(sys: HamiltonianSystem, x, p, N: int):
    X, P = taylor_flow_coeffs(sys, PhaseState(x, p), N + 2)
    if sys.quadratic_kinetic:
        # with H = p^2/2 + V(x) the V terms cancel in the denominator and
        # a factor (p' - p) cancels analytically, leaving 2 dx / (p + p').
        # Unlike the four-term quotient this stays well conditioned near
        # turning points and near sin-like zeros of H_x.
        return 2.0 * (X - x), P + p
    num = 2.0 * ((X - x) * (P - p))
    den = sys.energy(X, P) + sys.energy(x, P) - sys.energy(X, p) \
        - sys.energy(x, p)
    return num, den


def _delta_series_quotient(sys: HamiltonianSystem, s: PhaseState, N: int):
    """Jet q with q.coeffs[j] = a_{j+1}, or None for a trivial flow."""
    _check_series_order(N)
    num, den = _quotient_parts(sys, s.x, s.p, N)
    k = _leading_index(den)
    if k is None:
        return None
    amp = max(abs(c) for c in den.coeffs) / abs(den.coeffs[k])
    if amp > 1e3:
        # near-cancelling leading coefficient (state within ~1e-3 of a
        # turning point): the division recurrence loses roughly
        # log10(amp) digits per order, so redo it in wide enough
        # extended precision and round the result
        import mpmath
        digits = 30 + (N + 2) * int(math.log10(amp) + 1.0)
        with mpmath.workdps(digits):
            num, den = _quotient_parts(sys, mpmath.mpf(s.x), mpmath.mpf(s.p), N)
            k = _leading_index(den)
            q = num.shift(-(k + 1)) / den.shift(-k)
        from .jets import Jet
        q = Jet([float(c) for c in q.coeffs], q.order)
        return q.truncate(N - 1)
    # num and den share a common h^k factor with num one power higher
    q = num.shift(-(k + 1)) / den.shift(-k)
    return q.truncate(N - 1)


def delta_series_coefficients(sys: HamiltonianSystem, s: PhaseState,
                              N: int) -> list:
    """Series coefficients [a_1, ..., a_N] of the order-N denominator."""
    q = _delta_series_quotient(sys, s, N)
    if q is None:
        return [1.0] + [0.0] * (N - 1)
    return list(q.coeffs)


def delta_series(sys: HamiltonianSystem, s: PhaseState, h: float,
                 N: int) -> float:
    """delta^{[N]} = sum_{k=1}^{N} a_k(x, p) h^k evaluated at h."""
    q = _delta_series_quotient(sys, s, N)
    if q is None:
        return h
    return h * q.evaluate(h)


def discrete_gradient_residual(sys: HamiltonianSystem, s_n: PhaseState,
                               s_next: PhaseState, delta: float):
    """Residual (r_x, r_p) of the implicit step equations."""
    x, p = s_n.x, s_n.p
    x1, p1 = s_next.x, s_next.p
    r_x = (x1 - x) / delta - sys.dd_p(x, x1, p, p1)
    r_p = (p1 - p) / delta + sys.dd_x(x, x1, p, p1)
    return r_x, r_p


def step_gradient_info(sys: HamiltonianSystem, rule: DeltaRule,
                       s_n: PhaseState, h: float,
                       cfg: SolverConfig = None):
    """One implicit step; returns (next state, fixed-point iterations)."""
    if cfg is None:
        cfg = SolverConfig()
    x, p = s_n.x, s_n.p
    slex = rule.kind == "slex"
    delta = None if slex else rule.value_at(sys, s_n, h)
    dd_x, dd_p = sys.dd_x, sys.dd_p
    # explicit Euler predictor
    xc = x + h * sys.partials["p"](x, p)
    pc = p - h * sys.partials["x"](x, p)
    tol = cfg.tol
    guard = cfg.divergence_guard
    inc = prev_inc = math.inf
    for it in range(1, cfg.max_iter + 1):
        if slex:
            delta = delta_lex(
                omega_sq_at(sys, 0.5 * (x + xc), 0.5 * (p + pc)), h)
        xn = x + delta * dd_p(x, xc, p, pc)
        pn = p - delta * dd_x(x, xc, p, pc)
        inc = max(abs(xn - xc), abs(pn - pc))
        xc, pc = xn, pn
        if inc <= tol:
            return PhaseState(xc, pc, s_n.t + h), it
        # round-off stagnation: increments have stopped shrinking at a few
        # ulp of the state scale, which is as converged as doubles get
        if (inc >= prev_inc
                and inc <= 64.0 * 2.220446049250313e-16
                * max(1.0, abs(xc), abs(pc))):
            return PhaseState(xc, pc, s_n.t + h), it
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
