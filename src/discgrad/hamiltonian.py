"""One-dimensional Hamiltonian systems.

A system meets one contract, checked once when it is built.  It supplies

* ``energy(x, p)``: H, written against the generic scalar helpers from
  :mod:`discgrad.jets`, so the same code runs on floats and on jets;
* ``partials``: the closed-form partial derivatives ``x, p, xx, xp, pp``
  of H, each a callable ``(x, p)``;
* ``dd_x(x, x1, p, p1)`` and ``dd_p(x, x1, p, p1)``: the p-averaged
  divided difference of H in x and the x-averaged one in p,

      dd_x = [H(x1,p1) + H(x1,p) - H(x,p1) - H(x,p)] / (2 (x1 - x))
      dd_p = [H(x1,p1) + H(x,p1) - H(x1,p) - H(x,p)] / (2 (p1 - p)),

  written in a form that does not cancel as x1 -> x or p1 -> p (these
  keep the implicit solver convergent to round-off near turning points).

Each of these eight callables is recorded once per system object, when
it is built, and from no state: on :class:`discgrad.jets.Param` scalars,
which hold no value and record the arithmetic done on them; no run calls
them after that (``energy`` stays public, for ``eval_energy`` and
``eval_partials``).  The recordings become the code of every stride
block, the generated loop that makes a run's steps and its samples' H.
Replayed on jets on a tape
(:class:`discgrad.jets.Jet`) that record the operations they see, the
partials ``x`` and ``p`` become the flow of every gr-N and tay-N call and
``dd_p`` gr-N's delta, with x1 and p1 the flow's jets (a form that never
divides by p1 - p runs on them as it is).  All of it runs from each
call's own state, value checks included.  So these eight must be pure
functions of their arguments, with no side effects; they may use
only ``+ - * /`` and ``**`` between their arguments and scalars, unary
minus and the helpers ``gsin``, ``gcos``, ``gexp``, ``glog``, ``gsqrt``
and ``gpow`` (and ``gsinc``, in ``dd_x`` and the second partials, which
meet no jets), or return a plain constant; they must not build jets of
their own.  A recording is straight-line and its arguments hold no
number, so a callable that branches on an argument or takes a number out
of one (a comparison, a truth test, ``abs``, ``float``, ``math.sin``)
breaks the contract, and building the system raises a ValueError that
names it, ``energy`` included.  A built system is immutable and its
``partials`` a read-only mapping, so what it recorded cannot go stale;
``dataclasses.replace`` builds a variant, which records anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import DivergenceError
from .jets import (FLOAT_HELPERS, Jet, Param, TapeSource, _const, _wrap,
                   assign, fold, gcos, gsin, gsinc, live_lines, op, replay,
                   scalar_text)

PARTIAL_KEYS = ("x", "p", "xx", "xp", "pp")

# highest degree N of tay-N and taylor_flow_coeffs; a gr-N delta generates
# its own flow, to degree N + 2 (N + 6 where it deflates: 20 at gr-14)
MAX_FLOW_ORDER = 16


@dataclass(slots=True)
class PhaseState:
    x: float
    p: float


@dataclass(slots=True)
class Sample:
    """A run's state after n steps, at t = n h, with its energy error
    H(x, p) - H(x_0, p_0) and, where the run has an exact solution, the
    global error in the max norm over (x, p) and its mod-2pi phase form."""
    n: int
    t: float
    x: float
    p: float
    energy_err: float
    global_err: float = None
    global_err_mod: float = None


@dataclass(slots=True)
class LinearSystem:
    """Linearized Hamiltonian flow d/dt (xi, eta) = A (xi, eta) + b.

    A is the float rows ((H_xp, H_pp), (-H_xx, -H_xp)) and b the float
    pair (H_p, -H_x).  A is trace-free and satisfies A^2 = -omega_sq * I
    with omega_sq = H_xx * H_pp - H_xp^2.
    """
    A: tuple
    b: tuple
    omega_sq: float


@dataclass(frozen=True, slots=True)
class HamiltonianSystem:
    name: str
    energy: object                      # callable (x, p) -> scalar, generic
    partials: dict = field(default_factory=dict)  # PARTIAL_KEYS -> (x, p)
    dd_x: object = None                 # callable (x, x1, p, p1)
    dd_p: object = None
    quadratic_kinetic: bool = field(init=False)  # recorded: H = p^2/2 + V(x)
    # this object's recorded tape and generated functions
    _code: _SystemCode = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [f"partials[{k!r}]" for k in PARTIAL_KEYS
                   if k not in self.partials]
        missing += [f for f in ("dd_x", "dd_p") if getattr(self, f) is None]
        if missing:
            raise ValueError(
                f"system {self.name!r} lacks {', '.join(missing)}")
        object.__setattr__(self, "partials",
                           MappingProxyType(dict(self.partials)))
        object.__setattr__(self, "_code", _SystemCode(self))
        object.__setattr__(self, "quadratic_kinetic", self._code.p_is_leaf)


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
    d = {k: float(sys.partials[k](s.x, s.p)) for k in PARTIAL_KEYS}
    A = ((d["xp"], d["pp"]), (-d["xx"], -d["xp"]))
    b = (d["p"], -d["x"])
    omega_sq = d["xx"] * d["pp"] - d["xp"] ** 2
    return LinearSystem(A, b, omega_sq)


def check_flow_order(N: int) -> None:
    """tay-N and taylor_flow_coeffs take a degree N in [1, MAX_FLOW_ORDER]."""
    if not 1 <= N <= MAX_FLOW_ORDER:
        raise ValueError(f"flow order N must be in [1, {MAX_FLOW_ORDER}], "
                         f"got {N}")


def not_finite(*names) -> str:
    """Text that is true where a float of ``names`` is not finite: x - x
    is 0 exactly for a finite x, and the test makes no call."""
    return " or ".join(f"{v} - {v} != 0.0" for v in names)


class _SystemCode:
    """A system object's partials, ``dd_p``, ``dd_x`` and ``energy``,
    recorded once from no state, and the functions generated from them, by
    key (``functions``).

    Each callable runs once, on :class:`discgrad.jets.Param` scalars named
    ``x``, ``p`` (and ``x1``, ``p1`` for the divided differences), which
    hold no value; ``scalars`` keeps what each returned, by key (``x`` ..
    ``pp``, ``dd_p``, ``dd_x``, ``energy``), as the expression that
    computes it; a stride block writes ``energy``'s into its samples.  The
    ``p`` and ``x`` partials are then replayed on the leaf jets X and P of
    one tape, which hold NaN, and ``dd_p`` on x, X, p and P, with x and p
    the Params named ``x0`` and ``p0``, the parameters of every generated
    function.  So the code binds no state.  A recording that raises, as
    one that branches on or takes a number out of its arguments does,
    leaves no system.
    """

    def __init__(self, sys: HamiltonianSystem):
        x, x1, p, p1 = map(Param, ("x", "x1", "p", "p1"))

        def recorded(what, f, *args):
            # every way of breaking the contract raises a ValueError that
            # names the callable: an operation a Param does not define
            # (x % c, math.trunc(x)) raises a TypeError in the callable
            try:
                v = f(*args)
            except TypeError as exc:
                raise ValueError(
                    f"system {sys.name!r}: {what} made an operation the "
                    f"system contract does not allow ({exc}); it allows "
                    "only + - * / ** between the arguments and scalars, "
                    "unary minus and the g* helpers") from exc
            except ValueError as exc:
                raise ValueError(f"system {sys.name!r}: {what}: {exc}") \
                    from exc
            if isinstance(v, Jet):
                raise ValueError(
                    f"system {sys.name!r}: {what} returned a jet that its "
                    "arguments did not make; the system contract allows "
                    "only operations on the arguments, no jets of its own")
            return v
        self.scalars = {key: recorded(f"partials[{key!r}]", sys.partials[key],
                                      x, p)
                        for key in PARTIAL_KEYS}
        self.scalars["dd_p"] = recorded("dd_p", sys.dd_p, x, x1, p, p1)
        self.scalars["dd_x"] = recorded("dd_x", sys.dd_x, x, x1, p, p1)
        self.scalars["energy"] = recorded("energy", sys.energy, x, p)
        self.p_is_leaf = self.scalars["p"] is p   # H_p = p: H = p^2/2 + V(x)

        tape = []
        X, P = Jet([math.nan], tape=tape), Jet([math.nan], tape=tape)

        def on_tape(key, leaves):
            # the recording replayed on the tape: a plain scalar (or a
            # Param) becomes a constant jet
            f = replay(self.scalars[key], leaves)
            return f if isinstance(f, Jet) else X._make(_const, f)
        fx = on_tape("p", {"x": X, "p": P})
        fp = on_tape("x", {"x": X, "p": P})
        n = len(tape)
        dd = on_tape("dd_p", {"x": Param("x0"), "x1": X, "p": Param("p0"),
                              "p1": P})
        # the partials see no Param, so their n nodes come first
        self.source = TapeSource(tape, {"x": X.coeffs, "p": P.coeffs})
        self._flow, self._dd = slice(n), slice(n, None)
        self._fx, self._fp, self._d = (self.source.name(f.coeffs)
                                       for f in (fx, fp, dd))
        self.functions = {}

    def _flow_body(self, n: int):
        """Every record of the flow to order n, and the names of its
        coefficients x0 .. xn and p0 .. pn."""
        body = []
        for k in range(n):
            body += self.source.lines(k, self._flow) + [
                assign(f"x{k + 1}", fold("{} / {}", f"{self._fx}{k}", k + 1)),
                assign(f"p{k + 1}", fold("{} / -{}", f"{self._fp}{k}", k + 1))]
        return body, [f"{v}{k}" for v in "xp" for k in range(n + 1)]

    def flow_lines(self, N: int) -> list:
        """The text of the flow coefficients x1 .. xN and p1 .. pN from
        x0 and p0, x{k+1} = fx_k / (k+1) and p{k+1} = fp_k / -(k+1) folded
        at k = 0 by ``jets._IDENTITIES``, less what ``jets.live_lines``
        drops for these outputs: the pendulum's top cosine coefficient,
        and a sine's copy ``sj1 = x1``, folded into its readers."""
        return live_lines(*self._flow_body(N))

    def parts_lines(self, n: int):
        """The text of the flow (X, P) through (x0, p0) to order n and of
        dd_p(x0, X, p0, P) on it, as in :meth:`flow_lines` with dd_p's
        coefficients outputs too, and the texts of coefficients 0 .. n of
        X - x0 and of dd_p."""
        body, outputs = self._flow_body(n)
        body += [line for k in range(n + 1)
                 for line in self.source.lines(k, self._dd)]
        dd = [f"{self._d}{k}" for k in range(n + 1)]
        num = ["x0 - x0"] + [f"x{k}" for k in range(1, n + 1)]
        return live_lines(body, outputs + dd), num, dd

    def scalar_lines(self, keys, params: dict, local: str, names: dict,
                     held=None):
        """The records and the values (operations, names or numbers) that
        compute the recorded scalars ``keys`` on floats, each parameter (x,
        p, x1, p1) as ``params`` names it: an operation that is a key of
        ``held`` as the local it names, one used more than once in a local
        f"{local}<i>", any other inside the operation that uses it, a
        finite constant as its number and any other scalar by a name bound
        in ``names``; ``gsinc`` as the expression its float function
        computes.  So the code makes the recorded operations in their
        order, less those ``held`` holds."""
        values = [self.scalars[k] for k in keys]
        uses = {}

        def count(v):
            if isinstance(v, Param) and not isinstance(v.expr, str):
                uses[id(v)] = uses.get(id(v), 0) + 1
                if uses[id(v)] == 1:
                    for a in v.expr[1:]:
                        count(a)
        for v in values:
            count(v)
        lines, known = [], {}

        def line(v, operation):
            if held and operation in held:
                return held[operation]
            if v.expr[0] == "gsinc({})":
                # without a call; one name _u serves every nesting, as a
                # conditional expression tests before it evaluates a branch
                u = scalar_text(v.expr[1], known, params.__getitem__,
                                constant, line)
                operation = op("(gsin({}) / {} if ({} := {}) != 0.0 else 1.0)",
                               "_u", "_u", "_u", u, may_raise=True, bare=True)
            if uses[id(v)] == 1:
                return operation
            lines.append(assign(f"{local}{len(lines)}", operation))
            return f"{local}{len(lines) - 1}"

        def constant(v):
            if type(v) is int or type(v) is float and math.isfinite(v):
                return v
            names[f"c{len(names)}_"] = v
            return f"c{len(names) - 1}_"
        return lines, [scalar_text(v, known, params.__getitem__, constant,
                                   line) for v in values]

    def block(self, key, write):
        """The stride block ``(x0, p0, h, m, hist, max_iter, rule=None,
        samples=None, stride=1, exact=None) -> (x, p)`` of one scheme, made
        once per system object and ``key``: m steps from (x0, p0), each
        checked to end in a finite state, as one generated ``for`` loop
        (TIDES's stepping core, Abad et al., ACM TOMS 39, 2012).
        ``write(names)`` gives the lines before the loop, the lines of one
        step, which take (x0, p0) to the next state and count the step's
        solver iterations in ``hist``, of at most ``max_iter``, and the
        lines after it, and binds what they call in ``names``, over the
        float helpers.

        Given a list ``samples``, the block is a whole run: it walks the m
        steps in strides of ``stride`` and appends a :class:`Sample` of the
        start state and of each stride's end state, with the energy error
        from the recorded ``energy`` (:func:`_sample_lines`) and, given the
        exact solution ``exact`` (t -> (x, p)), the global errors.  A block
        runs on floats; it raises what a step or a sample raises, and does
        not say which step that was."""
        block = self.functions.get(key)
        if block is None:
            names = {**FLOAT_HELPERS, "DivergenceError": DivergenceError,
                     "Sample": Sample, "remainder": math.remainder}
            before, step, after = write(names)
            lines, (energy,) = self.scalar_lines(
                ("energy",), {"x": "x0", "p": "p0"}, "_eh", names)
            body = [*before,
                    "if samples is None:",
                    "    stride = m",
                    "else:",
                    "    _append = samples.append",
                    *(f"    {line}" for line in lines),
                    f"    _e0 = {energy}",
                    "_n = 0",
                    "while True:",
                    *(f"    {line}" for line in _sample_lines(lines, energy)),
                    "    if _n == m:",
                    "        break",
                    "    _k = m - _n if m - _n < stride else stride",
                    "    _n += _k",
                    "    for _ in range(_k):",
                    *(f"        {line}" for line in step),
                    f"        if {not_finite('x0', 'p0')}:",
                    "            raise DivergenceError(f'state ({x0:.3g}, "
                    "{p0:.3g}) is not finite')",
                    *after]
            block = self.functions[key] = self.source.compile(
                "x0, p0, h, m, hist, max_iter, rule=None, samples=None, "
                "stride=1, exact=None", body, "x0, p0", names)
        return block


def _sample_lines(lines, energy):
    """The lines of a block's sample of its state (x0, p0) after _n steps,
    with H(x0, p0) the operation ``energy`` after its ``lines``, as
    :meth:`_SystemCode.scalar_lines` writes the recorded energy.  They
    call the helpers the energy calls, ``exact`` and ``Sample``, and max
    and remainder only where |_dx| > pi or is NaN.

    H comes before the oracle.  A run passes ``exact`` only for the
    pendulum, whose H raises on no finite state, so a sample raises what
    the oracle raises, as when it called the system's ``energy`` after it.
    max(abs(_dx), _dp) is written as the test max makes, so a NaN _dx
    stays.  The mod-2pi error needs no remainder where |_dx| <= pi: the
    float 2pi is exactly twice the float pi, so the IEEE remainder of _dx
    by it is _dx itself there, at a tie included, and that error is _g.  A
    NaN _dx fails the test and takes the remainder.  The locals start with
    _ so that no step's local is one of them."""
    return ["if samples is not None:",
            "    _t = _n * h",
            *(f"    {line}" for line in lines),
            f"    _e = {op('{} - _e0', energy)}",
            "    if exact is None:",
            "        _append(Sample(_n, _t, x0, p0, _e))",
            "    else:",
            "        _ex, _ep = exact(_t)",
            "        _dx, _dp = x0 - _ex, abs(p0 - _ep)",
            "        _g = abs(_dx)",
            "        if _dp > _g:",
            "            _g = _dp",
            f"        _gm = _g if abs(_dx) <= {math.pi!r} else "
            f"max(abs(remainder(_dx, {2.0 * math.pi!r})), _dp)",
            "        _append(Sample(_n, _t, x0, p0, _e, _g, _gm))"]


def taylor_flow_coeffs(sys: HamiltonianSystem, s: PhaseState, N: int):
    """Taylor series of the flow through (x, p), as monomial-basis jets.

    The Taylor-method recurrence: ``H_p`` and ``H_x`` run on jets X and P
    on one tape that hold only x0 and p0, and record their operations
    there.  Then, for k = 0 .. N-1, every recorded jet gains coefficient
    k, in O(k) each, and

        X[k+1] = H_p[k] / (k+1),    P[k+1] = -H_x[k] / (k+1).

    The k-th monomial coefficient equals (d^k x / dt^k) / k!.

    The partials ran once, from no state, when the system was built
    (:class:`_SystemCode`).  Their tape becomes one straight-line function
    of (x0, p0) per N (:class:`discgrad.jets.TapeSource`), kept on the
    immutable system object.  The function runs the lines of the same
    operations that finished jets run, in their order, so its coefficients
    are bit-identical to the partials' on finished jets, and every value
    check (a zero divisor, the log of zero, ...) runs in it.  It runs on
    mpmath.mpf states as well, which high-precision references use; no
    runtime path does.  The returned jets are new on every call.
    """
    check_flow_order(N)
    code = sys._code
    flow = code.functions.get(N)
    if flow is None:
        xs = ", ".join(f"x{k}" for k in range(N + 1))
        ps = ", ".join(f"p{k}" for k in range(N + 1))
        flow = code.functions[N] = code.source.compile(
            "x0, p0", code.flow_lines(N), f"[{xs}], [{ps}]")
    xc, pc = flow(s.x, s.p)
    return _wrap(xc), _wrap(pc)


# -- built-in systems ----------------------------------------------------

def make_pendulum() -> HamiltonianSystem:
    """H = p^2/2 - cos x."""
    return HamiltonianSystem(
        name="pendulum",
        energy=lambda x, p: 0.5 * p * p - gcos(x),
        # (cos x - cos x1) / (x1 - x) by the product identity: no
        # cancellation as x1 -> x
        dd_x=lambda x, x1, p, p1: gsin(0.5 * (x + x1)) * gsinc(0.5 * (x1 - x)),
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
