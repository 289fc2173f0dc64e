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
``fn`` once, at its start point, unless ``midpoint`` is set (GR-SLEX);
then it evaluates ``fn`` at the midpoint of the current iterate on every
solver iteration.

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
at the predicted midpoint.  The starting guess, the tolerance, the
divergence guard and the iteration cap belong to the solver, not to the
rule or the caller: a GR-N ``fn`` starts from the flow (X(h), P(h)) that
its delta already computes, the exact flow to order N + 2, so within
gr-N's own local error of the converged iterate, a starting approximation
in the sense of GNI VIII.6.1; every other ``fn`` starts from an explicit
Euler predictor, within O(h^2).  The solve stops at an increment of at
most ``_TOL`` and fails past ``_GUARD``, both written into the step's
text, or after ``MAX_ITER`` iterations, the cap a run and a step pass.

Every step runs in a stride block (:func:`gradient_block`, as TIDES
generates its Taylor steps): one generated ``for`` loop over the
straight-line text of a step, with the system's recorded partials, dd_p
and dd_x written in (:class:`discgrad.hamiltonian._SystemCode`), run on
floats, where each helper (``gsin`` ..) is its math function.  It makes
the operations of the system's own callables in their order.  A run and
:func:`step_gradient_info` call the same block, per stride and per step.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .errors import (DivergenceError, NonConvergenceError, ResonanceStepError)
from .exactlin import _DEGENERATE_OMEGA_SQ, AffineStepMap, affine_map
from .hamiltonian import HamiltonianSystem, PhaseState, linearize, not_finite
# not called here, where the series delta is generated code, but
# perfbench/tracer.py patches it under this module's name
from .hamiltonian import taylor_flow_coeffs  # noqa: F401
from .jets import (FLOAT_HELPERS, Line, _div, _finished, assign, fold,
                   horner, horner_text, op)

# past N = 14 the error rises again at larger h (pendulum p0 1.8, h 0.5:
# gr-14 1.2e-10, gr-18 4.4e-9, gr-22 1.4e-5): the delta series has a finite
# radius of convergence in h
MAX_SERIES_ORDER = 14


def _check_series_order(N: int) -> None:
    if not 1 <= N <= MAX_SERIES_ORDER:
        raise ValueError(f"series order must be in [1, {MAX_SERIES_ORDER}]")


# the solve's stopping increment and divergence guard, step-text literals,
# and the iteration cap a run, a step and a replay pass to the block
_TOL = 1e-15
_GUARD = 1e6
MAX_ITER = 100


@dataclass(frozen=True, slots=True)
class DeltaRule:
    """Denominator choice for the discrete-gradient step: delta is
    ``fn(sys, x, p, h)``, taken at the step's start point, or at the
    iterate's midpoint on every iteration when ``midpoint`` is set."""
    fn: Callable[[HamiltonianSystem, float, float, float], float]
    midpoint: bool = False

    @classmethod
    def gr(cls):
        return cls(_gr_delta)

    @classmethod
    def mod_gr(cls, x_bar):
        return cls(partial(_mod_gr_delta, x_bar))

    @classmethod
    def lex(cls):
        return cls(_delta_lex_at)

    @classmethod
    def slex(cls):
        return cls(_delta_lex_at, midpoint=True)

    @classmethod
    def series(cls, N):
        _check_series_order(N)
        return cls(partial(_series_delta, N))

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


def _gr_delta(sys: HamiltonianSystem, x, p, h: float) -> float:
    return h


def _mod_gr_delta(x_bar, sys: HamiltonianSystem, x, p, h: float) -> float:
    return _delta_lex_at(sys, x_bar, 0.0, h)


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


def _compile_delta(code, N: int):
    """The generated function (x0, p0, h) -> (delta^{[N]}, X(h), P(h)),
    with (X, P) the flow through (x0, p0) to order N + 2.  After the
    parts' lines, where the dd_p coefficients have a finite sum (so each
    is finite; a sum that overflows only sends the state to the general
    path), the leading one is kept (k = 0) and amp is within
    :func:`_plain_amp_limit`, it runs the division of
    :func:`_cancel_and_divide`, unrolled, and the Horner sum;
    any other state goes through :func:`_coefficients` with the same
    lists.  It runs on floats: the float helpers stand in for the generic
    ones, as in a stride block."""
    body, num, d = code.parts_lines(N + 2)
    quotient = [f"q{n} = ({num[n + 1]}"
                + "".join(f" - {d[j]} * q{n - j}" for j in range(1, n + 1))
                + f") / {d[0]}" for n in range(N)]
    flow = ", ".join(horner_text([f"{v}{k}" for k in range(N + 3)])
                     for v in "xp")
    body += [
        f"total = {' + '.join(d)}",
        "if total - total == 0.0:",
        f"    lead = abs({d[0]})",
        f"    scale = max(lead, {', '.join(f'abs({v})' for v in d[1:])})",
        "    if lead > 1e-13 * scale and scale / lead <= "
        f"{_plain_amp_limit(N)!r}:",
        *(f"        {line}" for line in quotient),
        f"        return h * ({horner_text([f'q{n}' for n in range(N)])}), "
        f"{flow}"]

    def general(x, p, num, den):
        return _coefficients(code, x, p, N, num, den)
    return code.source.compile(
        "x0, p0, h", body,
        f"h * horner(general(x0, p0, [{', '.join(num)}], "
        f"[{', '.join(d)}]), h), {flow}",
        {**FLOAT_HELPERS, "general": general, "horner": horner})


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


def _series_delta(N: int, sys: HamiltonianSystem, x, p, h: float) -> float:
    return delta_series(sys, PhaseState(x, p), h, N)


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


# The step texts fold what the recording knows: a recorded partial that is
# a plain constant (every built-in H_xp and H_pp) is a number in the
# records, and ``jets._IDENTITIES`` drops a * 1.0 and a - 0.0 on it.

def _omega_sq(hxx, hxp, hpp, square):
    """hxx * hpp - square, square being hxp's: +0.0 for a zero hxp (as
    0 * 0, -0.0 * -0.0 and 0 ** 2 are), which the table then drops."""
    return fold("{} - {}", fold("{} * {}", hxx, hpp),
                0.0 if hxp == 0 else square, bare=True)


def _inverse_lines(hxx, hxp, hpp):
    """The lines that set j11 .. j22, the row-major entries of J^{-1} for
    J = I - c A with c = delta/2 and A = [[H_xp, H_pp], [-H_xx, -H_xp]] of
    the frozen Hessian, whose entries hxx, hxp, hpp are names or numbers.
    A^2 = -w^2 I with w^2 = H_xx H_pp - H_xp^2, so
    J^{-1} = (I + c A) / (1 + c^2 w^2); J = I where |det J| is below
    _MIN_NEWTON_DET or not finite.

    Besides the 1.0 and 0.0 folds, a zero hxp makes j11 and j22 one
    1.0 / det: in the branch det is finite, so c is (c * c * w^2 would be
    inf or NaN otherwise) and 1.0 / det is finite and nonzero, and adding
    or subtracting c * hxp, a zero, leaves it as it is."""
    cxp = fold("{} * {}", "c", hxp)
    diagonal = (["    j11 = j22 = 1.0 / det"] if hxp == 0 else
                [f"    j11 = 1.0 / det + {cxp}",
                 f"    j22 = 1.0 / det - {cxp}"])
    w2 = _omega_sq(hxx, hxp, hpp, op("{} * {}", hxp, hxp, bare=True))
    return ["c = 0.5 * delta",
            assign("det", op("1.0 + c * c * {}", w2)),
            f"if {_MIN_NEWTON_DET!r} <= abs(det) < inf:",
            "    c /= det",
            *diagonal,
            f"    j12 = {fold('{} * {}', 'c', hpp)}",
            f"    j21 = -{fold('{} * {}', 'c', hxx)}",
            "else:",
            "    j11, j12, j21, j22 = 1.0, 0.0, 0.0, 1.0"]


# delta_lex's first check, and then delta = delta_lex(w2, h) with w2 set,
# in delta_lex's operations, checks and messages
_NONZERO_H = ["if h == 0.0:",
              "    raise ValueError('h must be nonzero')"]
_LEX_LINES = [f"if w2 > {_DEGENERATE_OMEGA_SQ!r}:",
              "    w = sqrt(w2)",
              "    if abs(h) * w >= pi:",
              "        raise ResonanceStepError(f'h*omega = {abs(h) * w:.3g} "
              ">= pi: step too large for the locally exact denominator')",
              "    delta = 2.0 / w * tan(0.5 * h * w)",
              f"elif w2 < -{_DEGENERATE_OMEGA_SQ!r}:",
              "    mu = sqrt(-w2)",
              "    delta = 2.0 / mu * tanh(0.5 * h * mu)",
              "else:",
              "    delta = h + h ** 3 * w2 / 12.0"]

# the midpoint of the step's start (x0, p0) and its iterate (xc, pc), by
# coordinate, as the recorded 0.5 * (p + p1) of a dd_p writes it
_MIDPOINT = {v: op("{} * {}", 0.5, op("{} + {}", f"{v}0", f"{v}c"))
             for v in "xp"}


def _midpoint_lines(x, p, lines):
    """The records that set the midpoint coordinates named x and p that
    the records among ``lines`` read, and each one's operation -> name."""
    read = {a for line in lines if isinstance(line, Line)
            for a in line.operands}
    held = {_MIDPOINT[k]: v for k, v in (("x", x), ("p", p)) if v in read}
    return [assign(v, operation) for operation, v in held.items()], held


def _gradient_lines(sys: HamiltonianSystem, kind: tuple, names: dict):
    """The lines of :func:`gradient_block` for a rule of this kind, which
    they read as ``rule``: before the loop, of one step and after it.

    A step for gr-N's ``fn`` takes the predictor (xc, pc) and delta from
    gr-N's generated delta, called directly; any other takes explicit
    Euler and delta at the start point.  It freezes the Hessian at the
    predicted midpoint and solves by simplified Newton on dd_p and dd_x,
    with delta at the iterate's midpoint on every iteration for a
    ``midpoint`` rule whose delta depends on the point.  delta is h for
    gr's ``fn``, set once; delta_lex of w^2 from the recorded Hessian, as
    omega_sq_at forms it, for gr-lex's and gr-slex's, and at (x_bar, 0)
    once for mod-gr's; any other ``fn`` is called.  The solve stops at an
    increment <= _TOL or at round-off stagnation; it raises on a predictor
    that is not finite, a Hessian that is not a number, an increment past
    _GUARD and after max_iter iterations.

    A constant Hessian entry is a number, no local, with no NaN test, and
    the identity table folds w^2 and J^{-1} on it (:func:`_inverse_lines`).
    A midpoint coordinate is set only where a later record reads it (an
    error message formats its own), and dd_p and dd_x read it where they
    would compute it.  So every value, error and message is the unfolded
    text's."""
    code = sys._code
    names.update(_STEP_NAMES, sys=sys, series_function=_series_function)
    before = []

    def scalars(keys, x, p, local, held=None):
        return code.scalar_lines(
            keys, {"x": x, "p": p, "x1": "xc", "p1": "pc"}, local, names,
            held)

    def lex(x, p, local, h_test=True):
        lines, (hxx, hxp, hpp) = scalars(("xx", "xp", "pp"), x, p, local)
        w2 = _omega_sq(hxx, hxp, hpp, op("{} ** 2", hxp, may_raise=True))
        return [*lines, assign("w2", w2), *(_NONZERO_H if h_test else ()),
                *_LEX_LINES]

    _, fn, midpoint = kind
    delta_at = None             # delta at a point, where it depends on one
    if fn is _gr_delta:
        before = ["delta = h"]
    elif fn is _mod_gr_delta:
        before = ["xbar = rule.fn.args[0]", *lex("xbar", 0.0, "b")]
    elif fn is _delta_lex_at:
        delta_at = lex
    else:
        def delta_at(x, p, local):
            return [Line("delta", "rule.fn(sys, {}, {}, h)", (x, p), True)]

    if fn is _series_delta:
        before.append("series = series_function(sys, rule.fn.args[0])")
        step = [f"{'_' if midpoint else 'delta'}, xc, pc = series(x0, p0, h)"]
        what = "flow start"
    else:
        step = ([] if midpoint or delta_at is None
                else delta_at("x0", "p0", "s"))
        # explicit Euler predictor, O(h^2) off the fixed point
        lines, (hp, hx) = scalars(("p", "x"), "x0", "p0", "e")
        step += [*lines, assign("xc", op("x0 + h * {}", hp)),
                 assign("pc", op("p0 - h * {}", hx))]
        what = "Euler predictor"
    lines, hessian = scalars(("xx", "xp", "pp"), "xm", "pm", "m")
    # the frozen Hessian: a constant entry as its number, any other in a
    # local with a NaN test, as a second partial that overflows at a finite
    # midpoint (inf - inf, 0 * inf) would otherwise only turn the solve
    # into the J = I one
    entries = list(zip(("hxx", "hxp", "hpp"), hessian))
    computed = {n: e for n, e in entries if not isinstance(e, (int, float))}
    frozen = [n if n in computed else e for n, e in entries]
    if computed:
        lines += [
            assign(", ".join(computed), op(", ".join(["{}"] * len(computed)),
                                           *computed.values(), bare=True)),
            f"if {' or '.join(f'{v} != {v}' for v in computed)}:",
            "    raise DivergenceError(f'Hessian ("
            + ", ".join(f"{{{v}:.3g}}" for v in frozen)
            + f") at the predicted midpoint ({{{_MIDPOINT['x']}:.3g}}, "
            f"{{{_MIDPOINT['p']}:.3g}}) is not a number')"]
    step += [
        f"if {not_finite('xc', 'pc')}:",
        f"    raise DivergenceError(f'{what} ({{xc:.3g}}, {{pc:.3g}}) is "
        "not finite')",
        *_midpoint_lines("xm", "pm", lines)[0],
        *lines]
    if midpoint and delta_at is not None:
        # delta_lex's h test does not depend on the iteration.  On the
        # first one only w^2's lines run before it, at the predicted
        # midpoint, where the Hessian's lines, the same operations, ran;
        # with a zero literal H_xp, w^2's own line has no power and cannot
        # raise.  So the test raises before the loop what it raised there
        hoist = delta_at is lex and hessian[1] == 0
        at = lex("xh", "ph", "i", False) if hoist else delta_at("xh", "ph",
                                                                "i")
        mid, held = _midpoint_lines("xh", "ph", at)
        step += _NONZERO_H if hoist else []
        loop = [*mid, *at, *_inverse_lines(*frozen)]
    else:
        # delta and the frozen Hessian are fixed for the step: one J^-1
        step += _inverse_lines(*frozen)
        loop, held = [], None
    lines, (ddp, ddx) = scalars(("dd_p", "dd_x"), "x0", "p0", "d", held)
    loop += [
        *lines,
        assign("rx", op("x0 + delta * {} - xc", ddp)),
        assign("rp", op("p0 - delta * {} - pc", ddx)),
        "dx = j11 * rx + j12 * rp",
        "dp = j21 * rx + j22 * rp",
        "xc += dx",
        "pc += dp",
        # max(abs(dx), abs(dp)), NaN included, without the call
        "inc = abs(dx)",
        "if abs(dp) > inc:",
        "    inc = abs(dp)",
        f"if inc <= {_TOL!r}:",
        "    break",
        # round-off stagnation: increments have stopped shrinking at a few
        # ulp of the state scale, which is as converged as doubles get
        "if inc >= prev_inc and inc <= 64.0 * 2.220446049250313e-16 "
        "* max(1.0, abs(xc), abs(pc)):",
        "    break",
        "prev_inc = inc",
        # past the guard, inf and NaN included, in one test
        f"if not inc <= {_GUARD!r}:",
        "    raise DivergenceError(f'fixed-point increment {inc:.3g} "
        f"exceeded guard {_GUARD:.3g}')"]
    before.append("iterations = range(1, max_iter + 1)")
    step += ["inc = prev_inc = inf",
             "for it in iterations:",
             *(f"    {line}" for line in loop),
             "else:",
             "    raise NonConvergenceError(f'no convergence in {max_iter} "
             "iterations (last increment {inc:.3g})')",
             "hist[it] += 1",
             "x0, p0 = xc, pc"]
    return before, step, []


# the block's names besides the float helpers, the system and the recorded
# constants it binds
_STEP_NAMES = {"inf": math.inf, "pi": math.pi,
               "sqrt": math.sqrt, "tan": math.tan, "tanh": math.tanh,
               "ResonanceStepError": ResonanceStepError,
               "NonConvergenceError": NonConvergenceError}


def gradient_block(sys: HamiltonianSystem, rule: DeltaRule):
    """The stride block of rule's implicit steps on sys (see
    :meth:`discgrad.hamiltonian._SystemCode.block`), with rule bound to
    it.  It is made once per system object and rule kind, all that its
    text depends on: which built-in ``fn`` (gr's, gr-lex's, mod-gr's,
    gr-N's) or another, and ``midpoint``.  A run, :func:`step_gradient_info`
    and a rule built anew for every step share it; it reads mod-gr's x_bar,
    gr-N's N and any other ``fn`` from the rule at every call."""
    fn = rule.fn
    if isinstance(fn, partial) and fn.func in (_mod_gr_delta, _series_delta):
        fn = fn.func
    elif fn is not _gr_delta and fn is not _delta_lex_at:
        fn = None
    kind = ("step", fn, rule.midpoint)
    return partial(sys._code.block(
        kind, lambda names: _gradient_lines(sys, kind, names)), rule=rule)


def one_step(block, s: PhaseState, h: float):
    """One step of a stride block, its m = 1 view: (next state, solver
    iterations)."""
    hist = [0] * (MAX_ITER + 1)
    x, p = block(s.x, s.p, h, 1, hist, MAX_ITER)
    return PhaseState(x, p), hist.index(1)


def step_gradient_info(sys: HamiltonianSystem, rule: DeltaRule,
                       s_n: PhaseState, h: float):
    """One implicit step; returns (next state, solver iterations).  It
    runs one step of rule's :func:`gradient_block`, and raises where the
    step does not end in a finite state."""
    return one_step(gradient_block(sys, rule), s_n, h)


def step_gradient(sys: HamiltonianSystem, rule: DeltaRule, s_n: PhaseState,
                  h: float) -> PhaseState:
    return step_gradient_info(sys, rule, s_n, h)[0]


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
