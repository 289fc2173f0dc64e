"""One-dimensional Hamiltonian systems.

A system meets one contract, checked once when it is built.  It supplies

* ``energy(x, p)``: H, written against the generic scalar helpers from
  :mod:`discgrad.jets`, so the same code runs on floats and on jets;
* ``partials``: the closed-form partial derivatives ``x, p, xx, xp, pp``
  of H, each a callable ``(x, p)``.  The flow Taylor coefficients call
  ``x`` and ``p`` only once per system object, on jets on a tape
  (:class:`discgrad.jets.Jet`), which record the operations they see; the
  tape becomes generated code that every later call runs from its own
  state.  So these two must be pure functions of their arguments, with no
  side effects; they may use only ``+ - * /`` and ``**`` between their
  arguments and scalars, unary minus and the helpers ``gsin``, ``gcos``,
  ``gexp``, ``glog``, ``gsqrt`` and ``gpow``, or return a plain constant;
  they must not build jets of their own or branch on argument values;
* ``dd_x(x, x1, p, p1)`` and ``dd_p(x, x1, p, p1)``: the p-averaged
  divided difference of H in x and the x-averaged one in p,

      dd_x = [H(x1,p1) + H(x1,p) - H(x,p1) - H(x,p)] / (2 (x1 - x))
      dd_p = [H(x1,p1) + H(x,p1) - H(x1,p) - H(x,p)] / (2 (p1 - p)),

  written in a form that does not cancel as x1 -> x or p1 -> p (these
  keep the implicit solver convergent to round-off near turning points).
  gr-N also calls ``dd_p`` with x1 and p1 the flow's finished jets; a
  form that never divides by p1 - p runs on them as it is;
* ``quadratic_kinetic``: True when H = p^2/2 + V(x); the kick-drift
  baselines need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet, TapeSource, _const, _wrap, gcos, gsin

PARTIAL_KEYS = ("x", "p", "xx", "xp", "pp")

# highest degree of the flow Taylor series
MAX_FLOW_ORDER = 16


@dataclass(slots=True)
class PhaseState:
    x: float
    p: float


@dataclass(slots=True)
class LinearSystem:
    """Linearized Hamiltonian flow d/dt (xi, eta) = A (xi, eta) + b.

    A is trace-free and satisfies A^2 = -omega_sq * I with
    omega_sq = H_xx * H_pp - H_xp^2.
    """
    A: np.ndarray
    b: np.ndarray
    omega_sq: float


@dataclass(slots=True)
class HamiltonianSystem:
    name: str
    energy: object                      # callable (x, p) -> scalar, generic
    partials: dict = field(default_factory=dict)  # PARTIAL_KEYS -> (x, p)
    dd_x: object = None                 # callable (x, x1, p, p1)
    dd_p: object = None
    quadratic_kinetic: bool = False     # H = p^2/2 + V(x)

    def __post_init__(self):
        missing = [f"partials[{k!r}]" for k in PARTIAL_KEYS
                   if k not in self.partials]
        missing += [f for f in ("dd_x", "dd_p") if getattr(self, f) is None]
        if missing:
            raise ValueError(
                f"system {self.name!r} lacks {', '.join(missing)}")


def eval_energy(sys: HamiltonianSystem, s: PhaseState) -> float:
    return sys.energy(s.x, s.p)


def eval_partials(sys: HamiltonianSystem, s: PhaseState,
                  max_order: int = 2) -> dict:
    """Mixed partials of H at a state, up to third order, from H alone.

    Computed by evaluating H over jets along the x, p and diagonal
    directions; mixed partials are recovered from the directional
    coefficients.  This is the reference the closed forms in
    ``sys.partials`` are checked against.
    """
    if max_order not in (1, 2, 3):
        raise ValueError("max_order must be 1, 2 or 3")
    x, p = s.x, s.p
    m = max_order
    cx = sys.energy(Jet.variable(x, m), p).coeffs
    cp = sys.energy(x, Jet.variable(p, m)).coeffs
    out = {"x": cx[1], "p": cp[1]}
    if m >= 2:
        out["xx"] = 2.0 * cx[2]
        out["pp"] = 2.0 * cp[2]
        cd = sys.energy(Jet.variable(x, m), Jet.variable(p, m)).coeffs
        out["xp"] = cd[2] - cx[2] - cp[2]
    if m == 3:
        out["xxx"] = 6.0 * cx[3]
        out["ppp"] = 6.0 * cp[3]
        # opposite-diagonal probe separates the two mixed third partials
        ce = sys.energy(Jet.variable(x, 3),
                        Jet([p, -1.0, 0.0, 0.0])).coeffs
        out["xpp"] = cd[3] + ce[3] - 2.0 * cx[3]
        out["xxp"] = cd[3] - ce[3] - 2.0 * cp[3]
    return out


def linearize(sys: HamiltonianSystem, s: PhaseState) -> LinearSystem:
    """Linear system of the flow around a fixed phase point."""
    d = {k: sys.partials[k](s.x, s.p) for k in PARTIAL_KEYS}
    A = np.array([[d["xp"], d["pp"]],
                  [-d["xx"], -d["xp"]]], dtype=float)
    b = np.array([d["p"], -d["x"]], dtype=float)
    omega_sq = d["xx"] * d["pp"] - d["xp"] ** 2
    return LinearSystem(A, b, omega_sq)


def check_flow_order(N: int) -> None:
    """The flow series (and so tay-N) runs from degree 1 to MAX_FLOW_ORDER."""
    if not 1 <= N <= MAX_FLOW_ORDER:
        raise ValueError(f"flow order N must be in [1, {MAX_FLOW_ORDER}], "
                         f"got {N}")


# the last system's flow code: (system, H_p, H_x, the TapeSource of its
# tape, the base names of the H_p and H_x results, the flow function of
# each N)
_flow_memo = None


def taylor_flow_coeffs(sys: HamiltonianSystem, s: PhaseState, N: int):
    """Taylor series of the flow through (x, p), as monomial-basis jets.

    The Taylor-method recurrence: ``H_p`` and ``H_x`` run on jets X and P
    on one tape that hold only x0 and p0, and record their operations
    there.  Then, for k = 0 .. N-1, every recorded jet gains coefficient
    k, in O(k) each, and

        X[k+1] = H_p[k] / (k+1),    P[k+1] = -H_x[k] / (k+1).

    The k-th monomial coefficient equals (d^k x / dt^k) / k!.

    The partials run only on the first call for a system object.  Their
    tape becomes one straight-line function of (x0, p0) per N
    (:class:`discgrad.jets.TapeSource`), kept in a one-entry memo (the
    system, compared by identity and held, and its two partials).  The
    function makes the coefficient rules' own operations in their order,
    so its coefficients are bit-identical to a new recording's, it raises
    what a recording would, and mpmath coefficients (the delta-series
    fallback) run through it as well.  The returned jets are new on every
    call.  The memo is not thread-safe; each worker of a process pool has
    its own.
    """
    global _flow_memo
    check_flow_order(N)
    hp, hx = sys.partials["p"], sys.partials["x"]
    memo = _flow_memo
    if memo is None or memo[0] is not sys or memo[1] is not hp \
            or memo[2] is not hx:
        memo = _flow_memo = (sys, hp, hx, *_record_flow(hp, hx, s), {})
    flow = memo[6].get(N)
    if flow is None:
        flow = memo[6][N] = _compile_flow(*memo[3:6], N)
    xc, pc = flow(s.x, s.p)
    return _wrap(xc), _wrap(pc)


def _record_flow(hp, hx, s: PhaseState):
    """The TapeSource of the partials recorded on jets at s, and the base
    names of H_p and H_x on it."""
    tape = []
    X = Jet([s.x], tape=tape)
    P = Jet([s.p], tape=tape)
    fx = hp(X, P)
    fp = hx(X, P)
    # a partial that ignores its arguments returns a plain constant
    fx, fp = (f if isinstance(f, Jet) else X._make(_const, f)
              for f in (fx, fp))
    source = TapeSource(tape, {"x": X.coeffs, "p": P.coeffs})
    return source, source.name(fx.coeffs), source.name(fp.coeffs)


def _compile_flow(source: TapeSource, fx: str, fp: str, N: int):
    """The function (x0, p0) -> ([X_0..X_N], [P_0..P_N])."""
    body = []
    for k in range(N):
        body += source.lines(k)
        body += [f"x{k + 1} = {fx}{k} / {k + 1}",
                 f"p{k + 1} = -{fp}{k} / {k + 1}"]
    xs = ", ".join(f"x{k}" for k in range(N + 1))
    ps = ", ".join(f"p{k}" for k in range(N + 1))
    return source.compile("x0, p0", body, f"[{xs}], [{ps}]")


# -- built-in systems ----------------------------------------------------

def _cos_difference_quotient(x, x1, p, p1):
    # (cos x - cos x1)/(x1 - x) via the product identity: no cancellation
    half = 0.5 * (x1 - x)
    ratio = math.sin(half) / half if half != 0.0 else 1.0
    return math.sin(0.5 * (x + x1)) * ratio


def make_pendulum() -> HamiltonianSystem:
    """H = p^2/2 - cos x."""
    return HamiltonianSystem(
        name="pendulum",
        energy=lambda x, p: 0.5 * p * p - gcos(x),
        quadratic_kinetic=True,
        dd_x=_cos_difference_quotient,
        dd_p=lambda x, x1, p, p1: 0.5 * (p + p1),
        partials={
            "x": lambda x, p: gsin(x),
            "p": lambda x, p: p,
            "xx": lambda x, p: gcos(x),
            "xp": lambda x, p: 0.0,
            "pp": lambda x, p: 1.0,
        },
    )


def make_harmonic(omega: float = 1.0) -> HamiltonianSystem:
    """H = p^2/2 + omega^2 x^2 / 2."""
    w2 = omega * omega
    name = f"harmonic:{omega:g}"
    if not math.isfinite(w2):
        raise ValueError(f"system {name!r} needs a parameter whose square "
                         "is finite")
    return HamiltonianSystem(
        name=name,
        energy=lambda x, p: 0.5 * p * p + 0.5 * w2 * x * x,
        quadratic_kinetic=True,
        dd_x=lambda x, x1, p, p1: 0.5 * w2 * (x + x1),
        dd_p=lambda x, x1, p, p1: 0.5 * (p + p1),
        partials={
            "x": lambda x, p: w2 * x,
            "p": lambda x, p: p,
            "xx": lambda x, p: w2,
            "xp": lambda x, p: 0.0,
            "pp": lambda x, p: 1.0,
        },
    )


def make_crossterm(alpha: float = 0.5) -> HamiltonianSystem:
    """H = p^2/2 + x^2/2 + alpha*x*p, a test case with an x-p cross term."""
    return HamiltonianSystem(
        name=f"crossterm:{alpha:g}",
        energy=lambda x, p: 0.5 * p * p + 0.5 * x * x + alpha * x * p,
        dd_x=lambda x, x1, p, p1: 0.5 * (x + x1) + 0.5 * alpha * (p + p1),
        dd_p=lambda x, x1, p, p1: 0.5 * (p + p1) + 0.5 * alpha * (x + x1),
        partials={
            "x": lambda x, p: x + alpha * p,
            "p": lambda x, p: p + alpha * x,
            "xx": lambda x, p: 1.0,
            "xp": lambda x, p: alpha,
            "pp": lambda x, p: 1.0,
        },
    )


def system_from_name(name: str) -> HamiltonianSystem:
    """Resolve CLI-style system names: pendulum, harmonic:W, crossterm:A."""
    if name == "pendulum":
        return make_pendulum()
    kind, colon, param = name.partition(":")
    make = {"harmonic": make_harmonic, "crossterm": make_crossterm}.get(kind)
    if make is None:
        raise ValueError(f"unknown system {name!r}")
    if not colon:
        return make()
    try:
        value = float(param)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"system {name!r} needs a finite number as its "
                         "parameter")
    return make(value)
