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
``gsinc``, sin(v)/v with 1 at 0, runs on scalars only.

A jet may carry a tape: a list on which every operation on it records
itself and its arguments (Griewank & Walther, Evaluating Derivatives,
ch. 13).  A jet without a tape is finished.  Jets combine only with jets
of the same order on the same tape (or both on none), and with scalars.
:class:`TapeSource` turns a tape into straight-line Python that computes
the coefficients of every recorded jet from those of the leaf jets, one
coefficient at a time.

Each operation is written once, as an emitter that writes the source of
coefficient k of its output; coefficient k depends only on coefficients
0..k of its inputs.  A finished jet's operation runs the function that
:func:`_finished` generates from that emitter for (operation, order), and
a jet on a tape runs the same function and then records the emitter, so a
finished jet and the code generated from a tape make the same
floating-point operations in the same order and give bit-identical
coefficients.  An emitter writes its value checks (a zero divisor, the log
of zero, the square root or real power of a non-positive constant term)
with coefficient 0, so recording raises what finished jets raise, and
generated code run from new leaf values raises what recording with those
values raises.

A scalar that generated code takes as a parameter is a :class:`Param`:
it holds no value, and arithmetic on it records an expression, which the
code computes, where a plain scalar on a tape is bound into the code's
namespace by value.  The generated text names scalars, never their
values, so one compiled code object serves every tape of the same
structure in the process.  A function called on Params alone records its
whole computation: :func:`replay` runs it again on other arguments, such
as jets on a tape, and :func:`scalar_text` writes it as code, for a tape
and for code that runs on floats.  Any use of a Param that needs its
value, a branch or a number taken out of it, raises a ValueError.
"""

from __future__ import annotations

import math
import operator

from .errors import SingularJetDivisionError

# -- operations ---------------------------------------------------------
#
# An operation is its emitter ``_<op>(k, *outputs, *args)``, which returns
# the source lines that compute coefficient k of its outputs (one list; two
# for _sin_cos): each list is a base name, whose coefficient j is the local
# f"{name}{j}", and each scalar is the name of its value in the generated
# function.  A factor used by every k (``j * a[j]``, the zero seed
# ``0.0 * s[0]``) is computed once, into a local of its own.


# each check passes a Param, at recording: its value is not known until
# the generated code runs, which runs the check
def _require_divisor(b0):
    if not isinstance(b0, Param) and b0 == 0:
        raise SingularJetDivisionError(
            "division by a jet with zero constant term; cancel the common "
            "leading power of h from both series first")


def _require_log(a0):
    if not isinstance(a0, Param) and a0 == 0:
        raise SingularJetDivisionError("log of a jet with zero constant term")


def _require_power(a0):
    if not isinstance(a0, Param) and a0 <= 0:
        raise ValueError(
            "non-integer power of a jet needs a positive constant term")


def _require_sqrt(a0):
    if not isinstance(a0, Param) and a0 <= 0:
        raise ValueError("sqrt of a jet with non-positive constant term")


def _const(k, out, value):
    return [f"{out}{k} = {value if k == 0 else '0.0'}"]


def _add(k, out, a, b):
    return [f"{out}{k} = {a}{k} + {b}{k}"]


def _add_scalar(k, out, a, c):
    return [f"{out}{k} = {a}{k}" + (f" + {c}" if k == 0 else "")]


def _sub(k, out, a, b):
    return [f"{out}{k} = {a}{k} - {b}{k}"]


def _sub_scalar(k, out, a, c):
    return [f"{out}{k} = {a}{k}" + (f" - {c}" if k == 0 else "")]


def _neg(k, out, a):
    return [f"{out}{k} = -{a}{k}"]


def _scale(k, out, a, c):
    return [f"{out}{k} = {a}{k} * {c}"]


def _div_scalar(k, out, a, c):
    return [f"{out}{k} = {a}{k} / {c}"]


def _mul(k, out, a, b):
    return [f"{out}{k} = "
            + " + ".join(f"{a}{j} * {b}{k - j}" for j in range(k + 1))]


def _div(k, out, a, b):
    s = "".join(f" - {b}{j} * {out}{k - j}" for j in range(1, k + 1))
    line = f"{out}{k} = ({a}{k}{s}) / {b}0"
    return [f"_require_divisor({b}0)", line] if k == 0 else [line]


def _exp(k, out, a):
    if k == 0:
        return [f"{out}0 = gexp({a}0)"]
    s = "".join(f" + {out}j{j} * {out}{k - j}" for j in range(1, k + 1))
    return ([f"{out}z = 0.0 * {out}0"] if k == 1 else []) + [
        f"{out}j{k} = {k} * {a}{k}", f"{out}{k} = ({out}z{s}) / {k}"]


def _log(k, out, a):
    if k == 0:
        return [f"_require_log({a}0)", f"{out}0 = glog({a}0)"]
    s = "".join(f" - {out}j{j} * {a}{k - j}" for j in range(1, k))
    return ([f"{out}j{k - 1} = {k - 1} * {out}{k - 1}"] if k > 1 else []) + [
        f"{out}{k} = ({a}{k} * {k}{s}) / ({k} * {a}0)"]


def _pow_log(k, out, a):
    # the log node of a real power, under the power's own domain check
    return ([f"_require_power({a}0)"] if k == 0 else []) + _log(k, out, a)


def _sin_cos(k, s, c, a):
    # one operation writes both lists: each needs the other's lower
    # coefficients
    if k == 0:
        return [f"{s}0 = gsin({a}0)", f"{c}0 = gcos({a}0)"]
    ts = "".join(f" + {s}j{j} * {c}{k - j}" for j in range(1, k + 1))
    tc = "".join(f" + {s}j{j} * {s}{k - j}" for j in range(1, k + 1))
    return ([f"{s}z = 0.0 * {s}0"] if k == 1 else []) + [
        f"{s}j{k} = {k} * {a}{k}", f"{s}{k} = ({s}z{ts}) / {k}",
        f"{c}{k} = -(({s}z{tc}) / {k})"]


def _sqrt(k, out, a):
    if k == 0:
        return [f"_require_sqrt({a}0)", f"{out}0 = gsqrt({a}0)"]
    s = "".join(f" - {out}{j} * {out}{k - j}" for j in range(1, k))
    return [f"{out}{k} = ({a}{k}{s}) / (2 * {out}0)"]


# -- the series type ----------------------------------------------------

class Jet:
    """A truncated power series.  With a tape, ``coeffs`` is used as given
    (the tape shares it); without one, ``coeffs`` is copied and the jet is
    finished."""
    __slots__ = ("coeffs", "tape")

    def __init__(self, coeffs, *, tape=None):
        if tape is None:
            coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least one coefficient")
        self.coeffs = coeffs
        self.tape = tape

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order):
        return cls([0.0] * (order + 1))._make(_const, value)

    @classmethod
    def variable(cls, value, order):
        """value + h, as a jet of the given order (order >= 1)."""
        if order < 1:
            raise ValueError(f"a variable jet needs order >= 1, got {order}")
        return cls([value, 1.0] + [0.0] * (order - 1))

    def _check(self, other):
        if other.tape is not self.tape:
            if other.tape is None or self.tape is None:
                raise TypeError(
                    "cannot combine a finished jet with a jet on a tape")
            raise ValueError("jets on different tapes")
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError(
                f"jet order mismatch: {self.order} vs {other.order}")

    def _run(self, op, *args):
        """The new coefficient lists, as long as this jet's, that op makes
        from ``args``; a tape records op with them and ``args``."""
        outs = _finished(op, len(self.coeffs), args)(*args)
        if self.tape is not None:
            self.tape.append((op, outs + args))
        return outs

    def _make(self, op, *args):
        return _wrap(self._run(op, *args)[0], self.tape)

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
            return self._make(_div_scalar, self.coeffs, other)
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
        s, c = self._run(_sin_cos, self.coeffs)
        return _wrap(s, self.tape), _wrap(c, self.tape)

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
        return Jet(out)

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


def horner_text(names) -> str:
    """Text of the polynomial in h with the coefficients ``names``, summed
    as :func:`horner` sums it."""
    acc = names[-1]
    for v in reversed(names[:-1]):
        acc = f"({acc}) * h + {v}"
    return acc


# a Param operation's format -> the operation, which :func:`replay` runs again
_PARAM_OPS = {}


def _param_op(fmt, fn, reflected=False):
    _PARAM_OPS[fmt] = fn

    def op(self, other):
        if not isinstance(other, (float, int, Param)):
            return NotImplemented
        return Param((fmt, other, self) if reflected else (fmt, self, other))
    return op


class Param:
    """A scalar that generated code computes from its parameters: only
    ``expr``, either the name of a parameter or a format and its operands,
    and no value.  Arithmetic with plain scalars and other Params and the
    helpers ``gsin`` .. ``gsqrt`` give new Params, so an operation that
    takes one as its scalar records how to compute it.  A recording is
    straight-line, so any use that needs a value, which the recording does
    not know, raises a ValueError: a comparison or truth test (a branch),
    ``abs``, ``float``, ``int``, ``round`` and use as an index, and through
    ``float`` every ``math`` function."""
    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr

    def _value(self, *other):
        raise ValueError(
            "a system callable compared, tested or took a number out of a "
            "value made from its arguments; the system contract allows no "
            "branches on argument values and no numbers taken out of them")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _value
    __bool__ = __abs__ = __float__ = __int__ = __round__ = __index__ = _value

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
        return Param(("-{}", self))


_PARAM_OPS["-{}"] = operator.neg


def replay(value, leaves):
    """What the operations that made the recorded scalar ``value`` make
    when each parameter Param is replaced by ``leaves[its name]``: on jets
    they record on the jets' tape what calling the recorded function on
    those jets would record.  Each operation runs once however often its
    result is used."""
    done = {}

    def run(v):
        if not isinstance(v, Param):
            return v
        if id(v) not in done:
            if isinstance(v.expr, str):
                done[id(v)] = leaves[v.expr]
            else:
                fmt, *operands = v.expr
                done[id(v)] = _PARAM_OPS[fmt](*map(run, operands))
        return done[id(v)]
    return run(value)


def scalar_text(v, known, param, constant, line):
    """The text of the recorded scalar ``v`` in generated code: ``param``
    of its name for a parameter Param; for any other Param what
    ``line(v, text)`` gives for the text of its operation, at its first
    use, kept in ``known`` by the Param's identity: the name of a local
    that ``line`` computes it into, once, or the text itself for a Param
    used once; ``constant(v)`` for any other scalar.  So the code makes
    the recorded operations in their order, each once however often its
    result is used."""
    if not isinstance(v, Param):
        return constant(v)
    if isinstance(v.expr, str):
        return param(v.expr)
    name = known.get(id(v))
    if name is None:
        fmt, *operands = v.expr
        texts = (scalar_text(a, known, param, constant, line)
                 for a in operands)
        # an operand that is not a name, a negative literal included, in
        # parentheses
        name = known[id(v)] = line(v, fmt.format(
            *(t if t.isidentifier() else f"({t})" for t in texts)))
    return name


def _emit_param(k, name, text):
    # a Param is computed once, with coefficient 0
    return [f"{name} = {text}"] if k == 0 else []


# generated source text -> its code object.  The text names scalars, never
# their values, so tapes of one structure share one code object, and each
# function runs it in a namespace of its own tape's scalars
_CODE = {}


def _function_source(params, body, result):
    return "\n    ".join([f"def generated({params}):", *body,
                           f"return {result}"])


# (operation, coefficient count) -> the function that runs the operation on
# coefficient lists.  An operation takes a list or a scalar in each place,
# always the same, so the key needs nothing more
_FINISHED = {}


def _finished(op, n, args):
    """The function ``(*args) -> outputs`` that computes coefficients
    0 .. n-1 of op's outputs, a tuple of lists, from the coefficient lists
    and scalars ``args``: op's lines for k = 0 .. n-1, compiled on the first
    call for (op, n).  The scalars are parameters, so the code holds no
    value and serves every call."""
    fn = _FINISHED.get((op, n))
    if fn is None:
        names = "ab"[:len(args)]
        # op's parameters after k name its outputs, then its arguments
        outs = "rs"[:op.__code__.co_argcount - 1 - len(args)]
        body = [f"{', '.join(f'{a}{j}' for j in range(n))}, = {a}"
                for a, arg in zip(names, args) if type(arg) is list]
        body += [line for k in range(n) for line in op(k, *outs, *names)]
        result = "".join(f"[{', '.join(f'{o}{j}' for j in range(n))}], "
                         for o in outs)
        namespace = dict(_HELPERS)
        exec(compile(_function_source(", ".join(names), body, result),
                     "<jet>", "exec"), namespace)
        fn = _FINISHED[op, n] = namespace["generated"]
    return fn


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
    scalar itself.  The tape is complete when this object is built, and
    is named then, once, in recording order.  The names are of the tape's
    lists and Params by identity, so the tape lives as long as this object.
    """

    def __init__(self, tape, leaves):
        self._tape = tape
        self._names = {id(c): name for name, c in leaves.items()}
        self._env = dict(_HELPERS)
        self._nodes = []
        for op, args in tape:
            self._nodes.append((op, [self._bind(a) for a in args]))

    def _bind(self, arg):
        if type(arg) is list:
            return self._names.setdefault(id(arg), f"v{len(self._names)}_")
        return scalar_text(arg, self._names, str, self._constant,
                           self._param_line)

    def _constant(self, value):
        name = f"s{len(self._env)}_"
        self._env[name] = value
        return name

    def _param_line(self, param, text):
        name = f"t{len(self._names)}_"
        self._nodes.append((_emit_param, [name, text]))
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
        source = _function_source(params, body, result)
        code = _CODE.get(source)
        if code is None:
            code = _CODE[source] = compile(source, "<tape>", "exec")
        namespace = {**self._env, **(names or {})}
        exec(code, namespace)
        return namespace["generated"]


# -- generic dispatch ----------------------------------------------------

def _generic(name, fn=None):
    """The helper g<name>: ``fn`` (by default math.<name>) on a plain
    float, tried first because every scalar step calls it so; the series
    method on a jet; a new Param on a Param; ``fn`` on other floats and
    ints; mpmath's function on any other scalar, so that a high-precision
    mpmath.mpf reference runs the same code (no runtime path passes one)."""
    fn = fn or getattr(math, name)

    def helper(x):
        if type(x) is float:
            return fn(x)
        if isinstance(x, Jet):
            return getattr(x, name)()
        if isinstance(x, Param):
            return Param((f"g{name}({{}})", x))
        if isinstance(x, (float, int)):
            return fn(x)
        import mpmath
        return getattr(mpmath, name)(x)
    helper.__name__ = helper.__qualname__ = "g" + name
    _PARAM_OPS[f"g{name}({{}})"] = helper
    FLOAT_HELPERS[helper.__name__] = fn
    return helper


def _sinc(v):
    """sin(v) / v, 1 at v = 0."""
    return math.sin(v) / v if v != 0.0 else 1.0


# the float function of each helper, which code that runs on floats only
# calls in its place
FLOAT_HELPERS = {}


gsin = _generic("sin")
gcos = _generic("cos")
gexp = _generic("exp")
glog = _generic("log")
gsqrt = _generic("sqrt")
# sin(v) / v on floats, Params and mpmath scalars; jets have no sinc
gsinc = _generic("sinc", _sinc)

# the names that generated code calls, in the namespace of every generated
# function
_HELPERS = {"gsin": gsin, "gcos": gcos, "gexp": gexp, "glog": glog,
            "gsqrt": gsqrt, "gsinc": gsinc,
            "_require_divisor": _require_divisor,
            "_require_log": _require_log, "_require_power": _require_power,
            "_require_sqrt": _require_sqrt}


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
