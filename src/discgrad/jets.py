"""Truncated power series ("jets") in one formal variable.

A :class:`Jet` holds the coefficients of ``h^0 .. h^order`` in the plain
monomial basis (no factorials), and ``order`` is their count less one.
All arithmetic truncates at that order, so a jet propagates Taylor
coefficients through ordinary numerical programs without any symbolic
algebra.

Coefficients are floats; any other scalar type with float-like
arithmetic, such as mpmath's mpf in a high-precision reference, runs
through the same code.  The generic helpers ``gsin``, ``gcos``, ``gexp``,
``gsqrt``, ``glog`` and ``gpow`` dispatch on the argument type so the same
evaluator code runs on scalars and on jets.  A plain float, the argument
of every scalar step, goes straight to ``math`` before any other test.

A jet may carry a tape: a list on which every operation on it records
its rule and arguments (Griewank & Walther, Evaluating Derivatives,
ch. 13).  A jet without a tape is finished.  Jets combine only with jets
of the same order on the same tape (or both on none), and with scalars.
:class:`TapeSource` turns a tape into straight-line Python that computes
the coefficients of every recorded jet from those of the leaf jets, one
coefficient at a time.

Each operation is written once as a coefficient rule
``rule(n, out, *args)``, which fills the empty list ``out`` with
coefficients 0 .. n-1, and once as an emitter, which writes the source of
coefficient k.  Coefficient k of every rule depends only on coefficients
0..k of its inputs, and the rule and its emitter make the same
floating-point operations in the same order, so a finished jet and the
generated code give bit-identical coefficients.  A rule checks its
inputs' values (a zero divisor, the log of zero, the square root or real
power of a non-positive constant term) when it computes coefficient 0,
and its emitter writes the same check there, so generated code run from
new leaf values raises what recording with those values raises.

A scalar that generated code takes as a parameter is a :class:`Param`:
arithmetic on it records an expression, which the code computes, where a
plain scalar on a tape is bound into the code's namespace by value.  The
generated text names scalars, never their values, so one compiled code
object serves every tape of the same structure in the process.
"""

from __future__ import annotations

import math
import operator

from .errors import SingularJetDivisionError

# -- coefficient rules and their emitters ------------------------------
#
# An emitter ``_emit_<rule>(k, out, *args)`` returns the source lines that
# compute coefficient k of the rule's output (see TapeSource): each list
# argument is a base name, whose coefficient j is the local f"{name}{j}",
# and each scalar is the name it is bound to in the generated function's
# namespace.  A factor that the rule recomputes for every k (``j * a[j]``,
# the zero seed ``0.0 * s[0]``) is computed once, into a local of its own,
# by the same operation, so its value is the rule's.


def _require_divisor(b0):
    if b0 == 0:
        raise SingularJetDivisionError(
            "division by a jet with zero constant term; cancel the common "
            "leading power of h from both series first")


def _require_log(a0):
    if a0 == 0:
        raise SingularJetDivisionError("log of a jet with zero constant term")


def _require_power(a0):
    if a0 <= 0:
        raise ValueError(
            "non-integer power of a jet needs a positive constant term")


def _require_sqrt(a0):
    if a0 <= 0:
        raise ValueError("sqrt of a jet with non-positive constant term")


def _const(n, out, value):
    out.append(value)
    out.extend([0.0] * (n - 1))


def _emit_const(k, out, value):
    return [f"{out}{k} = {value if k == 0 else '0.0'}"]


def _add(n, out, a, b):
    out.extend([a[k] + b[k] for k in range(n)])


def _emit_add(k, out, a, b):
    return [f"{out}{k} = {a}{k} + {b}{k}"]


def _add_scalar(n, out, a, c):
    out.append(a[0] + c)
    out.extend(a[1:n])


def _emit_add_scalar(k, out, a, c):
    return [f"{out}{k} = {a}{k}" + (f" + {c}" if k == 0 else "")]


def _sub(n, out, a, b):
    out.extend([a[k] - b[k] for k in range(n)])


def _emit_sub(k, out, a, b):
    return [f"{out}{k} = {a}{k} - {b}{k}"]


def _sub_scalar(n, out, a, c):
    out.append(a[0] - c)
    out.extend(a[1:n])


def _emit_sub_scalar(k, out, a, c):
    return [f"{out}{k} = {a}{k}" + (f" - {c}" if k == 0 else "")]


def _neg(n, out, a):
    out.extend([-v for v in a[:n]])


def _emit_neg(k, out, a):
    return [f"{out}{k} = -{a}{k}"]


def _scale(n, out, a, c):
    out.extend([v * c for v in a[:n]])


def _emit_scale(k, out, a, c):
    return [f"{out}{k} = {a}{k} * {c}"]


def _mul(n, out, a, b):
    for k in range(n):
        s = a[0] * b[k]
        for j in range(1, k + 1):
            s = s + a[j] * b[k - j]
        out.append(s)


def _emit_mul(k, out, a, b):
    return [f"{out}{k} = "
            + " + ".join(f"{a}{j} * {b}{k - j}" for j in range(k + 1))]


def _div(n, out, a, b):
    b0 = b[0]
    _require_divisor(b0)
    for k in range(n):
        s = a[k]
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out.append(s / b0)


def _emit_div(k, out, a, b):
    s = "".join(f" - {b}{j} * {out}{k - j}" for j in range(1, k + 1))
    line = f"{out}{k} = ({a}{k}{s}) / {b}0"
    return [f"_require_divisor({b}0)", line] if k == 0 else [line]


def _exp(n, out, a):
    out.append(gexp(a[0]))
    for k in range(1, n):
        s = 0.0 * out[0]
        for j in range(1, k + 1):
            s = s + (j * a[j]) * out[k - j]
        out.append(s / k)


def _emit_exp(k, out, a):
    if k == 0:
        return [f"{out}0 = gexp({a}0)"]
    s = "".join(f" + {out}j{j} * {out}{k - j}" for j in range(1, k + 1))
    return ([f"{out}z = 0.0 * {out}0"] if k == 1 else []) + [
        f"{out}j{k} = {k} * {a}{k}", f"{out}{k} = ({out}z{s}) / {k}"]


def _log(n, out, a):
    a0 = a[0]
    _require_log(a0)
    out.append(glog(a0))
    for k in range(1, n):
        s = a[k] * k
        for j in range(1, k):
            s = s - (j * out[j]) * a[k - j]
        out.append(s / (k * a0))


def _emit_log(k, out, a):
    if k == 0:
        return [f"_require_log({a}0)", f"{out}0 = glog({a}0)"]
    s = "".join(f" - {out}j{j} * {a}{k - j}" for j in range(1, k))
    return ([f"{out}j{k - 1} = {k - 1} * {out}{k - 1}"] if k > 1 else []) + [
        f"{out}{k} = ({a}{k} * {k}{s}) / ({k} * {a}0)"]


def _pow_log(n, out, a):
    # the log node of a real power, under the power's own domain check
    _require_power(a[0])
    _log(n, out, a)


def _emit_pow_log(k, out, a):
    return ([f"_require_power({a}0)"] if k == 0 else []) \
        + _emit_log(k, out, a)


def _sin_cos(n, s, c, a):
    # one rule fills both lists: each needs the other's lower coefficients
    s.append(gsin(a[0]))
    c.append(gcos(a[0]))
    for k in range(1, n):
        ts = 0.0 * s[0]
        tc = 0.0 * s[0]
        for j in range(1, k + 1):
            ja = j * a[j]
            ts = ts + ja * c[k - j]
            tc = tc + ja * s[k - j]
        s.append(ts / k)
        c.append(-(tc / k))


def _emit_sin_cos(k, s, c, a):
    if k == 0:
        return [f"{s}0 = gsin({a}0)", f"{c}0 = gcos({a}0)"]
    ts = "".join(f" + {s}j{j} * {c}{k - j}" for j in range(1, k + 1))
    tc = "".join(f" + {s}j{j} * {s}{k - j}" for j in range(1, k + 1))
    return ([f"{s}z = 0.0 * {s}0"] if k == 1 else []) + [
        f"{s}j{k} = {k} * {a}{k}", f"{s}{k} = ({s}z{ts}) / {k}",
        f"{c}{k} = -(({s}z{tc}) / {k})"]


def _sqrt(n, out, a):
    _require_sqrt(a[0])
    out.append(gsqrt(a[0]))
    for k in range(1, n):
        s = a[k]
        for j in range(1, k):
            s = s - out[j] * out[k - j]
        out.append(s / (2 * out[0]))


def _emit_sqrt(k, out, a):
    if k == 0:
        return [f"_require_sqrt({a}0)", f"{out}0 = gsqrt({a}0)"]
    s = "".join(f" - {out}{j} * {out}{k - j}" for j in range(1, k))
    return [f"{out}{k} = ({a}{k}{s}) / (2 * {out}0)"]


_EMITTERS = {_const: _emit_const, _add: _emit_add,
             _add_scalar: _emit_add_scalar, _sub: _emit_sub,
             _sub_scalar: _emit_sub_scalar, _neg: _emit_neg,
             _scale: _emit_scale, _mul: _emit_mul, _div: _emit_div,
             _exp: _emit_exp, _log: _emit_log, _pow_log: _emit_pow_log,
             _sin_cos: _emit_sin_cos, _sqrt: _emit_sqrt}


# -- the series type ----------------------------------------------------

class Jet:
    """A truncated power series.  With a tape, ``coeffs`` is used as given
    (the tape shares it); without one, ``coeffs`` is copied and the jet is
    finished."""
    __slots__ = ("coeffs", "tape")

    def __init__(self, coeffs, order=None, tape=None):
        if tape is None:
            coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError(f"jet order must be >= 0, got {order}")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count does not match declared order")
        self.coeffs = coeffs
        self.tape = tape

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order):
        c = []
        _const(order + 1, c, value)
        return cls(c, order)

    @classmethod
    def variable(cls, value, order):
        """value + h, as a jet of the given order (order >= 1)."""
        c = [value, 1.0] + [0.0] * (order - 1)
        return cls(c, order)

    def _check(self, other):
        if other.tape is not self.tape:
            if other.tape is None or self.tape is None:
                raise TypeError(
                    "cannot combine a finished jet with a jet on a tape")
            raise ValueError("jets on different tapes")
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError(
                f"jet order mismatch: {self.order} vs {other.order}")

    def _make(self, rule, *args):
        out = []
        rule(len(self.coeffs), out, *args)
        # out is new and as long as coeffs
        jet = _wrap(out, self.tape)
        if jet.tape is not None:
            jet.tape.append((rule, (out,) + args))
        return jet

    # -- basic ring operations ------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._make(_add, self.coeffs, other.coeffs)
        return self._make(_add_scalar, self.coeffs, other)

    __radd__ = __add__

    def __neg__(self):
        return self._make(_neg, self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._make(_sub, self.coeffs, other.coeffs)
        return self._make(_sub_scalar, self.coeffs, other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._make(_mul, self.coeffs, other.coeffs)
        return self._make(_scale, self.coeffs, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self._make(_scale, self.coeffs, 1.0 / other)
        self._check(other)
        return self._make(_div, self.coeffs, other.coeffs)

    def __rtruediv__(self, other):
        return self._make(_const, other) / self

    def __pow__(self, exponent):
        return gpow(self, exponent)

    # -- analytic compositions ------------------------------------------

    def exp(self):
        return self._make(_exp, self.coeffs)

    def log(self):
        return self._make(_log, self.coeffs)

    def sin_cos(self):
        c = []
        s = self._make(_sin_cos, c, self.coeffs)
        return s, Jet(c, None, self.tape)

    def sin(self):
        return self.sin_cos()[0]

    def cos(self):
        return self.sin_cos()[1]

    def sqrt(self):
        return self._make(_sqrt, self.coeffs)

    # -- calculus helpers, for finished jets -----------------------------

    def differentiate(self):
        out = [(k + 1) * self.coeffs[k + 1] for k in range(self.order)]
        out.append(0.0 * self.coeffs[0])
        return Jet(out, self.order)

    def evaluate(self, h):
        return horner(self.coeffs, h)

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


def _wrap(coeffs, tape=None):
    """A jet on ``coeffs`` itself, with no copy or check: for a new list
    of coefficients."""
    jet = object.__new__(Jet)
    jet.coeffs, jet.tape = coeffs, tape
    return jet


def horner(coeffs, h):
    """The polynomial with monomial coefficients ``coeffs`` at h."""
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * h + coeffs[k]
    return acc


def _param_op(fmt, fn, reflected=False):
    def op(self, other):
        if not isinstance(other, (float, int)):
            return NotImplemented
        args = (other, self) if reflected else (self, other)
        return Param(fn(*(float(a) if isinstance(a, Param) else a
                          for a in args)), (fmt, *args))
    return op


class Param(float):
    """A scalar that generated code computes from its parameters: a float
    with its value at recording, and ``expr``, either the name of a
    parameter or a format and its operands.  Arithmetic with plain scalars
    and the helpers ``gsin`` .. ``gsqrt`` give new Params, so a rule that
    takes one as its scalar records how to compute it, not the value it
    had at recording."""
    __slots__ = ("expr",)

    def __new__(cls, value, expr):
        param = float.__new__(cls, value)
        param.expr = expr
        return param

    __add__ = _param_op("{} + {}", operator.add)
    __radd__ = _param_op("{} + {}", operator.add, True)
    __sub__ = _param_op("{} - {}", operator.sub)
    __rsub__ = _param_op("{} - {}", operator.sub, True)
    __mul__ = _param_op("{} * {}", operator.mul)
    __rmul__ = _param_op("{} * {}", operator.mul, True)
    __truediv__ = _param_op("{} / {}", operator.truediv)
    __rtruediv__ = _param_op("{} / {}", operator.truediv, True)
    __pow__ = _param_op("{} ** {}", operator.pow)
    __rpow__ = _param_op("{} ** {}", operator.pow, True)

    def __neg__(self):
        return Param(-float(self), ("-{}", self))


def _emit_param(k, name, text):
    # a Param is computed once, with coefficient 0
    return [f"{name} = {text}"] if k == 0 else []


# generated source text -> its code object.  The text names scalars, never
# their values, so tapes of one structure share one code object, and each
# function runs it in a namespace of its own tape's scalars
_CODE = {}


class TapeSource:
    """Straight-line Python for the jets recorded on a tape, one
    coefficient at a time (Jorba & Zou's ``taylor``; TIDES, Abad et al.,
    ACM TOMS 39, 2012).

    ``leaves`` maps a base name to the coefficient list of each leaf jet;
    the code that calls :meth:`lines` defines each leaf coefficient k as
    the local f"{name}{k}".  Every other list on the tape gets a base name
    ``v<i>_``; every :class:`Param` the local its ``expr`` names, or a
    local ``t<i>_`` computed with coefficient 0; and every other scalar a
    name ``s<i>_`` in the namespace of the compiled functions, bound to the
    scalar itself.  The names are of the tape's lists and Params by
    identity, so the tape lives as long as this object.
    """

    def __init__(self, tape, leaves):
        self._tape = tape
        self._names = {id(c): name for name, c in leaves.items()}
        self._env = {"gsin": gsin, "gcos": gcos, "gexp": gexp, "glog": glog,
                    "gsqrt": gsqrt, "_require_divisor": _require_divisor,
                    "_require_log": _require_log,
                    "_require_power": _require_power,
                    "_require_sqrt": _require_sqrt}
        self._nodes = []
        self._recorded = 0
        self.extend()

    def extend(self):
        """Name what the nodes recorded since the last call hold; return
        their slice of the nodes, for :meth:`lines`."""
        start = len(self._nodes)
        for rule, args in self._tape[self._recorded:]:
            args = [self._bind(a) for a in args]
            self._nodes.append((_EMITTERS[rule], args))
        self._recorded = len(self._tape)
        return slice(start, len(self._nodes))

    def _bind(self, arg):
        if type(arg) is list:
            return self._names.setdefault(id(arg), f"v{len(self._names)}_")
        if isinstance(arg, Param):
            name = self._names.get(id(arg))
            if name is None:
                if isinstance(arg.expr, str):
                    name = arg.expr
                else:
                    fmt, *operands = arg.expr
                    text = fmt.format(*map(self._bind, operands))
                    name = f"t{len(self._names)}_"
                    self._nodes.append((_emit_param, [name, text]))
                self._names[id(arg)] = name
            return name
        name = f"s{len(self._env)}_"
        self._env[name] = arg
        return name

    def name(self, coeffs):
        """The base name of a coefficient list on the tape."""
        return self._names[id(coeffs)]

    def lines(self, k, nodes=slice(None)):
        """Lines that compute coefficient k of every jet the ``nodes``
        record, in recording order, from the coefficients 0 .. k of their
        inputs."""
        return [line for emit, args in self._nodes[nodes]
                for line in emit(k, *args)]

    def compile(self, params, body, result, names=None):
        """The function ``(params) -> result`` that runs the lines
        ``body``, with the tape's scalars and ``names`` as its globals."""
        source = "\n    ".join([f"def generated({params}):", *body,
                                f"return {result}"])
        code = _CODE.get(source)
        if code is None:
            code = _CODE[source] = compile(source, "<tape>", "exec")
        namespace = {**self._env, **(names or {})}
        exec(code, namespace)
        return namespace["generated"]


# -- generic dispatch ----------------------------------------------------

def _generic(name):
    """The helper g<name>: math.<name> on a plain float, tried first
    because every scalar step calls it so; the series method on a jet; a
    new Param on a Param; math.<name> on other floats and ints; mpmath's
    function on any other scalar, so that a high-precision mpmath.mpf
    reference runs the same code (no runtime path passes one)."""
    fn = getattr(math, name)

    def helper(x):
        if type(x) is float:
            return fn(x)
        if isinstance(x, Jet):
            return getattr(x, name)()
        if isinstance(x, Param):
            return Param(fn(float(x)), (f"g{name}({{}})", x))
        if isinstance(x, (float, int)):
            return fn(x)
        import mpmath
        return getattr(mpmath, name)(x)
    helper.__name__ = helper.__qualname__ = "g" + name
    return helper


gsin = _generic("sin")
gcos = _generic("cos")
gexp = _generic("exp")
glog = _generic("log")
gsqrt = _generic("sqrt")


def gpow(x, r):
    if not isinstance(x, Jet):
        return x ** r
    if isinstance(r, int) or (isinstance(r, float) and r.is_integer()):
        n = int(r)
        if n == 0:
            return x._make(_const, 1.0)
        base = x if n > 0 else 1.0 / x
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out
    return (x._make(_pow_log, x.coeffs) * r).exp()
