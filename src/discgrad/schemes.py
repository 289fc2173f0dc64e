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

A :class:`DeltaRule` is that choice: a function ``fn(sys, x, p, h) ->
delta`` and a flag ``midpoint``, and for GR-N the ``start`` that gives
delta with the step's predictor.  The step evaluates ``fn`` once, at its
start point, unless ``midpoint`` is set (GR-SLEX); then it evaluates
``fn`` at the midpoint of the current iterate on every solver iteration.

GR-N's delta is one generated function of (x, p, h) per system object
and N: the flow to order N + 2, dd_p on it, and, for a state whose
leading dd_p coefficient is kept and not small (k = 0, amp within
:func:`_plain_amp_limit`), the series division and the Horner sum, in the
operations and order of the general path, which every other state takes
(see :func:`_compile_delta`).  Near a turning point the general path
deflates the root that X - x and dd_p share, in floats
(:func:`_coefficients`).  Both paths return the flow's (X(h), P(h)) with
delta.

The step solves F(z) = z - z_n - delta (dd_p, -dd_x)(z_n, z) = 0 by
simplified Newton (Hairer, Lubich & Wanner, Geometric Numerical
Integration, VIII.6), with J = I - (delta/2) A and the Hessian in A frozen
at the predicted midpoint.  GR-N starts from the flow (X(h), P(h)) that its
delta already computes: the exact flow to order N + 2, so within gr-N's
own local error of the converged iterate, a starting approximation in the
sense of GNI VIII.6.1.  Every other rule starts from an explicit Euler
predictor, within O(h^2).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import (DivergenceError, NonConvergenceError, ResonanceStepError)
from .exactlin import _DEGENERATE_OMEGA_SQ, AffineStepMap, affine_map
from .hamiltonian import HamiltonianSystem, PhaseState, linearize
# not called here, where the series delta is generated code, but
# perfbench/tracer.py patches it under this module's name
from .hamiltonian import taylor_flow_coeffs  # noqa: F401
from .jets import _div, _finished, horner

# past N = 14 the error rises again at larger h (pendulum p0 1.8, h 0.5:
# gr-14 1.2e-10, gr-18 4.4e-9, gr-22 1.4e-5): the delta series has a finite
# radius of convergence in h
MAX_SERIES_ORDER = 14


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
    iterate's midpoint on every iteration when ``midpoint`` is set.  A
    ``start(sys, x, p, h) -> (delta, xc, pc)`` gives delta at the start
    point with the step's predictor (xc, pc); without one the step starts
    from explicit Euler."""
    fn: Callable[[HamiltonianSystem, float, float, float], float]
    midpoint: bool = False
    start: Callable[[HamiltonianSystem, float, float, float], tuple] = None

    @classmethod
    def gr(cls):
        return cls(lambda sys, x, p, h: h)

    @classmethod
    def mod_gr(cls, x_bar):
        return cls(lambda sys, x, p, h: _delta_lex_at(sys, x_bar, 0.0, h))

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
                                                     h, N),
                   start=lambda sys, x, p, h: _series_function(sys, N)(
                       x, p, h))

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
    if omega_sq > _DEGENERATE_OMEGA_SQ:
        w = math.sqrt(omega_sq)
        if abs(h) * w >= math.pi:
            raise ResonanceStepError(
                f"h*omega = {abs(h) * w:.3g} >= pi: step too large "
                "for the locally exact denominator")
        return 2.0 / w * math.tan(0.5 * h * w)
    if omega_sq < -_DEGENERATE_OMEGA_SQ:
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


def _cancel_and_divide(num, den, k: int, N: int) -> list:
    """The first N coefficients of (num / h^(k+1)) / (den / h^k), for
    coefficient lists num and den that share a common h^k factor, with num
    one power higher.  Each shifted list is zero-padded where it runs out,
    by zeros of its own constant term's type and sign."""
    a = num[k + 1:k + 1 + N]
    a += [0.0 * num[0]] * (N - len(a))
    b = den[k:k + N]
    b += [0.0 * den[0]] * (N - len(b))
    return _finished(_div, N, (a, b))(a, b)[0]


def _parts_function(code, N: int):
    """The generated function (x0, p0) -> (X - x0, dd_p) as coefficient
    lists 0 .. N + 2, for the system whose _SystemCode is ``code``."""
    parts = code.functions.get(("parts", N))
    if parts is None:
        body, num, den = code.parts_lines(N + 2)
        parts = code.functions[("parts", N)] = code.source.compile(
            "x0, p0", body, f"[{', '.join(num)}], [{', '.join(den)}]")
    return parts


# Near a turning point X - x and dd_p share a small root r in h (where
# dd_p = 0 the discrete-gradient identity gives X = x).  Rounded
# coefficients no longer share it exactly, so the plain division meets a
# spurious pole there and quotient coefficient j picks up about amp^j eps,
# with amp = max|dd_p coeff| / |lead|.  Where amp^(N + E + 2) exceeds
# _PLAIN_LIMIT (1/eps) and dd_p's next coefficient puts the root within
# _ROOT_NEAR / amp, both series are recomputed with E = _DEFLATE_EXTRA more
# flow terms and divided by (h - r) from the top coefficient down, the
# stable direction for a small root (Peters & Wilkinson, J. Inst. Math.
# Appl. 8, 1971).  The top-down pass carries the truncated tail down by
# powers of r, so the extra terms keep it off the kept coefficients.
_DEFLATE_EXTRA = 4
_ROOT_NEAR = 4.0
_PLAIN_LIMIT = 1.0 / 2.220446049250313e-16


def _plain_amp_limit(N: int) -> float:
    """The largest amp at which the order-N quotient divides plainly."""
    return _PLAIN_LIMIT ** (1.0 / (N + _DEFLATE_EXTRA + 2))


def _deflate(c: list, r: float) -> list:
    """c / (h - r) with the remainder dropped, from the top coefficient
    down: D[j-1] = c[j] + r D[j]."""
    out = [c[-1]]
    for v in reversed(c[1:-1]):
        out.append(v + r * out[-1])
    out.reverse()
    return out


def _shared_root(b: list, x, p) -> float:
    """The small root of the series b, by Newton from -b0/b1 until a step
    is within 2 eps of the root."""
    r = -b[0] / b[1]
    for _ in range(50):
        f = df = 0.0
        for c in reversed(b):
            df = df * r + f
            f = f * r + c
        dr = f / df if df else math.nan
        if not math.isfinite(dr):
            break
        r -= dr
        if abs(dr) <= 4.5e-16 * abs(r):
            return r
    raise NonConvergenceError(
        f"series delta at ({x:.3g}, {p:.3g}): Newton finds no shared "
        "turning-point root to deflate")


def _coefficients(code, x, p, N: int, num: list, den: list) -> list:
    """[a_1, ..., a_N] from the parts of the quotient at (x, p): the
    general path, for every state."""
    if not all(map(math.isfinite, den)):
        raise DivergenceError(
            f"series delta at ({x:.3g}, {p:.3g}): the flow "
            "coefficients are not finite")
    scale = max(map(abs, den))
    if scale == 0.0:
        return [1.0] + [0.0] * (N - 1)
    k = _leading_index(den, scale)
    if (scale / abs(den[k]) > _plain_amp_limit(N)
            and abs(den[k + 1]) * _ROOT_NEAR >= scale):
        num, den = _parts_function(code, N + _DEFLATE_EXTRA)(x, p)
        r = _shared_root(den[k:], x, p)
        num = num[:k + 1] + _deflate(num[k + 1:], r)
        den = den[:k] + _deflate(den[k:], r)
    return _cancel_and_divide(num, den, k, N)


def delta_series_coefficients(sys: HamiltonianSystem, s: PhaseState,
                              N: int) -> list:
    """Series coefficients [a_1, ..., a_N] of the order-N denominator;
    [1, 0, ..., 0] (delta = h) for a trivial flow."""
    _check_series_order(N)
    code = sys._code
    parts = _parts_function(code, N)
    return _coefficients(code, s.x, s.p, N, *parts(s.x, s.p))


def _horner_text(names) -> str:
    """Text of the polynomial in h with the coefficients ``names``, summed
    as :func:`discgrad.jets.horner` sums it."""
    acc = names[-1]
    for v in reversed(names[:-1]):
        acc = f"({acc}) * h + {v}"
    return acc


def _compile_delta(code, N: int):
    """The generated function (x0, p0, h) -> (delta^{[N]}, X(h), P(h)),
    with (X, P) the flow through (x0, p0) to order N + 2.  After the
    parts' lines, where the dd_p coefficients have a finite sum (so each
    is finite; a sum that overflows only sends the state to the general
    path), the leading one is kept (k = 0) and amp is within
    :func:`_plain_amp_limit`, it runs the division of
    :func:`_cancel_and_divide`, unrolled, and the Horner sum;
    any other state goes through :func:`_coefficients` with the same
    lists."""
    body, num, d = code.parts_lines(N + 2)
    quotient = [f"q{n} = ({num[n + 1]}"
                + "".join(f" - {d[j]} * q{n - j}" for j in range(1, n + 1))
                + f") / {d[0]}" for n in range(N)]
    flow = ", ".join(_horner_text([f"{v}{k}" for k in range(N + 3)])
                     for v in "xp")
    body += [
        f"total = {' + '.join(d)}",
        "if total - total == 0.0:",
        f"    lead = abs({d[0]})",
        f"    scale = max(lead, {', '.join(f'abs({v})' for v in d[1:])})",
        "    if lead > 1e-13 * scale and scale / lead <= "
        f"{_plain_amp_limit(N)!r}:",
        *(f"        {line}" for line in quotient),
        f"        return h * ({_horner_text([f'q{n}' for n in range(N)])}), "
        f"{flow}"]

    def general(x, p, num, den):
        return _coefficients(code, x, p, N, num, den)
    return code.source.compile(
        "x0, p0, h", body,
        f"h * horner(general(x0, p0, [{', '.join(num)}], "
        f"[{', '.join(d)}]), h), {flow}",
        {"general": general, "horner": horner})


def _series_function(sys: HamiltonianSystem, N: int):
    """The generated function of :func:`_compile_delta` for sys and N,
    made once per system object and N."""
    code = sys._code
    fn = code.functions.get(("delta", N))
    if fn is None:
        _check_series_order(N)
        fn = code.functions[("delta", N)] = _compile_delta(code, N)
    return fn


def delta_series(sys: HamiltonianSystem, s: PhaseState, h: float,
                 N: int) -> float:
    """delta^{[N]} = sum_{k=1}^{N} a_k(x, p) h^k evaluated at h, by one
    generated function per system object and N: the same value as
    ``h * horner(delta_series_coefficients(sys, s, N), h)``.  It runs the
    whole function, the flow (X(h), P(h)) included, and drops the flow."""
    return _series_function(sys, N)(s.x, s.p, h)[0]


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
    dd_x, dd_p = sys.dd_x, sys.dd_p
    d = sys.partials
    start = rule.start
    if start is None:
        delta = None if midpoint else fn(sys, x, p, h)
        # explicit Euler predictor, O(h^2) off the fixed point
        xc = x + h * d["p"](x, p)
        pc = p - h * d["x"](x, p)
    else:
        # the rule's own: for gr-N the flow to order N + 2 at h
        delta, xc, pc = start(sys, x, p, h)
    if not (math.isfinite(xc) and math.isfinite(pc)):
        raise DivergenceError(
            f"{'Euler predictor' if start is None else 'flow start'} "
            f"({xc:.3g}, {pc:.3g}) is not finite")
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
        f"(last increment {inc:.3g})")


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
    q = 0.25 * lin.omega_sq * delta * delta
    den = 1.0 + q
    return affine_map(lin, (1.0 - q) / den, delta / den,
                      0.5 * delta * delta / den)
