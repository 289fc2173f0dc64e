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

Each operation is written once, as an emitter that writes the records of
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
as jets on a tape, and :func:`scalar_text` writes it as records, for a
tape and for code that runs on floats.  Any use of a Param that needs its
value, a branch or a number taken out of it, raises a ValueError.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import SingularJetDivisionError

# -- operations ---------------------------------------------------------
#
# Generated code is records (:class:`Line`) until it is printed, once;
# hand-written control text (a loop, a test, a raise) stays text, and a
# record in it prints itself.  An emitter ``_<op>(k, *outputs, *args)``
# returns the records of coefficient k of its outputs (one list; two for
# _sin_cos): each list is a base name, whose coefficient j is the local
# f"{name}{j}", and each scalar is the name of its value.  A factor used by
# every k (``j * a[j]``, the zero seed ``0.0 * s[0]``) is computed once,
# into a local of its own.  The zero seed is no identity and stays: a sum
# of -0.0 terms is -0.0, and the seed +0.0 makes it +0.0, so it sets the
# sign of a zero coefficient.  From x = 0, p = -0.0 the pendulum's sin
# series has s1 = +0.0 by its seed, so p2 = s1 / -2 is -0.0 and tay-N
# keeps p = -0.0.


class Line(namedtuple("Line", "target op operands may_raise",
                      defaults=(False,))):
    """A line of generated code, ``target = op``, each ``{}`` of the
    format ``op`` filled by one of ``operands``, a name or a number; with
    no target the operation alone: a check, which may raise, or an operand
    of another.  ``may_raise`` is false only where it makes no call, no
    power and no division but by a nonzero integer literal."""
    __slots__ = ()

    def __str__(self):
        text = self.op.format(*self.operands)
        return text if self.target is None else f"{self.target} = {text}"


def op(fmt, *operands, may_raise=False, bare=False):
    """The operation ``fmt`` of names, numbers and operations: each in its
    ``{}``, an operation and a negative number in parentheses unless
    ``bare``.  It may raise where ``may_raise`` or an operand says so."""
    slots, flat = [], []
    for a in operands:
        if type(a) is Line:
            slots.append(a.op if bare else f"({a.op})")
            flat += a.operands
            may_raise = may_raise or a.may_raise
        else:
            slots.append("{}" if bare or type(a) is str or a > 0 or a == 0
                         and math.copysign(1.0, a) > 0 else "({})")
            flat.append(a)
    return Line(None, fmt.format(*slots), tuple(flat), may_raise)


def assign(target, value):
    """The record ``target = value``, of a name, number or operation."""
    if isinstance(value, Line):
        return Line(target, *value[1:])
    return Line(target, "{}", (value,))


# The IEEE identities the texts fold: an operation with a literal operand
# -> what is left of it, "{}" being the other operand.  Each holds for every
# float, -0.0, inf and NaN (only a NaN's sign bit, which no output shows,
# may differ); a + 0.0, a - -0.0 and 0.0 * a do not, as -0.0 + 0.0 is +0.0
# and 0.0 * inf is NaN.  1 * v and v / 1 are the factor and the divisor k
# of a series' coefficient at k = 1, and v / -k is -(v / k), as IEEE
# division rounds sign-symmetrically: -v at k = 1.
_IDENTITIES = {"{} * 1.0": "{}", "1.0 * {}": "{}", "{} - 0.0": "{}",
               "1 * {}": "{}", "{} / 1": "{}", "{} / -1": "-{}"}


def fold(fmt, a, b, bare=False):
    """:func:`op` of ``fmt``, a and b, less an identity of _IDENTITIES."""
    for literal, pattern, other in ((b, ("{}", b), a), (a, (a, "{}"), b)):
        if type(literal) in (int, float):
            left = _IDENTITIES.get(fmt.format(*pattern))
            if left is not None:
                return other if left == "{}" else op(left, other)
    return op(fmt, a, b, bare=bare)


def _sum(first, sign, a, b, k, js):
    """``first sign a{j} * b{k - j} sign ...`` over j in js, first bare."""
    return op("{}" + f" {sign} {{}} * {{}}" * len(js), first,
              *(n for j in js for n in (f"{a}{j}", f"{b}{k - j}")), bare=True)


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
    return [Line(f"{out}{k}", "{}", (value if k == 0 else 0.0,))]


def _add(k, out, a, b):
    return [Line(f"{out}{k}", "{} + {}", (f"{a}{k}", f"{b}{k}"))]


def _add_scalar(k, out, a, c):
    return [Line(f"{out}{k}", "{}", (f"{a}{k}",)) if k
            else Line(f"{out}0", "{} + {}", (f"{a}0", c))]


def _sub(k, out, a, b):
    return [Line(f"{out}{k}", "{} - {}", (f"{a}{k}", f"{b}{k}"))]


def _sub_scalar(k, out, a, c):
    return [Line(f"{out}{k}", "{}", (f"{a}{k}",)) if k
            else Line(f"{out}0", "{} - {}", (f"{a}0", c))]


def _neg(k, out, a):
    return [Line(f"{out}{k}", "-{}", (f"{a}{k}",))]


def _scale(k, out, a, c):
    return [Line(f"{out}{k}", "{} * {}", (f"{a}{k}", c))]


def _div_scalar(k, out, a, c):
    return [Line(f"{out}{k}", "{} / {}", (f"{a}{k}", c), True)]


def _mul(k, out, a, b):
    first = Line(None, "{} * {}", (f"{a}0", f"{b}{k}"))
    return [assign(f"{out}{k}", _sum(first, "+", a, b, k, range(1, k + 1)))]


def _div(k, out, a, b):
    s = _sum(f"{a}{k}", "-", b, out, k, range(1, k + 1))
    line = assign(f"{out}{k}", op("{} / {}", s, f"{b}0", may_raise=True))
    check = Line(None, "_require_divisor({})", (f"{b}0",), True)
    return [check, line] if k == 0 else [line]


def _exp(k, out, a):
    if k == 0:
        return [Line(f"{out}0", "gexp({})", (f"{a}0",), True)]
    s = _sum(f"{out}z", "+", f"{out}j", out, k, range(1, k + 1))
    return ([Line(f"{out}z", "{} * {}", (0.0, f"{out}0"))] if k == 1
            else []) + [assign(f"{out}j{k}", fold("{} * {}", k, f"{a}{k}")),
                        assign(f"{out}{k}", fold("{} / {}", s, k))]


def _log(k, out, a):
    if k == 0:
        return [Line(None, "_require_log({})", (f"{a}0",), True),
                Line(f"{out}0", "glog({})", (f"{a}0",), True)]
    s = _sum(fold("{} * {}", k, f"{a}{k}"), "-", f"{out}j", a, k, range(1, k))
    den = f"{a}0" if k == 1 else op("{} * {}", k, f"{a}0")
    return ([assign(f"{out}j{k - 1}", fold("{} * {}", k - 1, f"{out}{k - 1}"))]
            if k > 1 else []) + [
        assign(f"{out}{k}", op("{} / {}", s, den, may_raise=True))]


def _pow_log(k, out, a):
    # the log node of a real power, under the power's own domain check
    return ([Line(None, "_require_power({})", (f"{a}0",), True)]
            if k == 0 else []) + _log(k, out, a)


def _sin_cos(k, s, c, a):
    # one operation writes both lists: each needs the other's lower
    # coefficients
    if k == 0:
        return [Line(f"{s}0", "gsin({})", (f"{a}0",), True),
                Line(f"{c}0", "gcos({})", (f"{a}0",), True)]
    ts, tc = (_sum(f"{s}z", "+", f"{s}j", v, k, range(1, k + 1))
              for v in (c, s))
    return ([Line(f"{s}z", "{} * {}", (0.0, f"{s}0"))] if k == 1
            else []) + [assign(f"{s}j{k}", fold("{} * {}", k, f"{a}{k}")),
                        assign(f"{s}{k}", fold("{} / {}", ts, k)),
                        assign(f"{c}{k}", fold("{} / -{}", tc, k))]


def _sqrt(k, out, a):
    if k == 0:
        return [Line(None, "_require_sqrt({})", (f"{a}0",), True),
                Line(f"{out}0", "gsqrt({})", (f"{a}0",), True)]
    s = _sum(f"{a}{k}", "-", out, out, k, range(1, k))
    return [assign(f"{out}{k}", op("{} / {}", s, op("{} * {}", 2, f"{out}0"),
                                   may_raise=True))]


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
    """The recorded scalar ``v`` in generated code, a name, a number or an
    operation (:func:`op`): ``param`` of its name for a parameter Param;
    for any other Param what ``line(v, operation)`` gives at its first
    use, kept in ``known`` by the Param's identity: the name of a local
    that ``line`` computes it into, once, or the operation itself for a
    Param used once; ``constant(v)``, a number or a name, for any other
    scalar.  So the code makes the recorded operations in their order,
    each once however often its result is used."""
    if not isinstance(v, Param):
        return constant(v)
    if isinstance(v.expr, str):
        return param(v.expr)
    name = known.get(id(v))
    if name is None:
        fmt, *operands = v.expr
        # + - * and negation raise on no operands; / ** and a call may
        name = known[id(v)] = line(v, op(
            fmt, *(scalar_text(a, known, param, constant, line)
                   for a in operands),
            may_raise=fmt not in ("{} + {}", "{} - {}", "{} * {}", "-{}")))
    return name


def _emit_param(k, name, operation):
    # a Param is computed once, with coefficient 0
    return [assign(name, operation)] if k == 0 else []


# (lines, outputs) -> the text live_lines keeps, for every system object of
# one structure.  Equal records print alike: the flow's numbers are the int
# k and the seed 0.0 alone, never 1 against 1.0 or 0.0 against -0.0
_LIVE = {}


def live_lines(lines, outputs):
    """The text of the straight-line records ``lines``, which assign each
    name once, less every plain copy ``a = b`` whose name is no output,
    its readers reading b, and less every assignment that cannot raise and
    whose name no later kept line and no name in ``outputs`` reads.  So
    the code raises what it raised and computes the same ``outputs``.
    Worked out and printed once per process for each list of records, into
    ``_LIVE``; the list returned is new."""
    key = (tuple(lines), tuple(outputs))
    if key not in _LIVE:
        read, source, kept = set(outputs), {}, []
        for line in lines:
            a = line.operands[0]
            if line.op == "{}" and type(a) is str and line.target not in read:
                source[line.target] = source.get(a, a)
        for line in reversed(lines):
            if line.target in source or (line.target not in read
                                         and not line.may_raise):
                continue
            if not source.keys().isdisjoint(line.operands):
                line = line._replace(operands=tuple(
                    map(source.get, line.operands, line.operands)))
            read.update(line.operands)
            kept.append(str(line))
        _LIVE[key] = kept[::-1]
    return list(_LIVE[key])


# generated source text -> its code object.  The text names scalars, never
# their values, so tapes of one structure share one code object, and each
# function runs it in a namespace of its own tape's scalars
_CODE = {}


def generate(params, body, result, namespace):
    """The function ``(params) -> result`` that runs the lines ``body``,
    with ``namespace`` as its globals.  Its text is compiled once, into
    ``_CODE``, whatever the namespace: every generated function of the
    program is made here."""
    source = "\n    ".join([f"def generated({params}):", *body,
                            f"return {result}"])
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<generated>", "exec")
    exec(code, namespace)
    return namespace["generated"]


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
        body += [str(line) for k in range(n) for line in op(k, *outs, *names)]
        result = "".join(f"[{', '.join(f'{o}{j}' for j in range(n))}], "
                         for o in outs)
        fn = _FINISHED[op, n] = generate(", ".join(names), body, result,
                                         dict(_HELPERS))
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

    def _param_line(self, param, operation):
        name = f"t{len(self._names)}_"
        self._nodes.append((_emit_param, [name, operation]))
        return name

    def name(self, coeffs):
        """The base name of a coefficient list on the tape."""
        return self._names[id(coeffs)]

    def lines(self, k, nodes=slice(None)):
        """The records that compute coefficient k of every jet the
        ``nodes`` record, in recording order, from coefficients 0 .. k."""
        return [line for emit, args in self._nodes[nodes]
                for line in emit(k, *args)]

    def compile(self, params, body, result, names=None):
        """The function ``(params) -> result`` that runs ``body``, text and
        records, with the tape's scalars and ``names`` as its globals."""
        return generate(params, [str(line) for line in body], result,
                        {**self._env, **(names or {})})


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
