"""Truncated power series ("jets") in one formal variable.

A :class:`Jet` holds the coefficients of ``h^0 .. h^order`` in the plain
monomial basis (no factorials), and ``order`` is their count less one.
All arithmetic truncates at that order, so a jet propagates Taylor
coefficients through ordinary numerical programs without any symbolic
algebra.

Coefficients are floats, or mpmath numbers in the extended-precision
delta-series fallback.  The generic helpers ``gsin``, ``gcos``, ``gexp``,
``gsqrt``, ``glog`` and ``gpow`` dispatch on the argument type so the same
evaluator code runs on scalars and on jets.  A plain float, the argument
of every scalar step, goes straight to ``math`` before any other test.

A jet may carry a tape: a list on which every operation on it records
its output, so that its coefficients can arrive one at a time (Jorba &
Zou, Exp. Math. 14, 2005; Griewank & Walther, Evaluating Derivatives,
ch. 13).  Once the leaf jets on a tape gain a coefficient,
``extend_tape`` computes one more coefficient of every recorded jet, in
creation order.  A jet without a tape is finished.  Jets combine only
with jets of the same order on the same tape (or both on none), and with
scalars.

Each operation is written once, as a coefficient rule
``rule(n, out, *args)`` that appends coefficients ``len(out) .. n-1`` to
the list ``out``.  Coefficient k of every rule depends only on
coefficients 0..k of its inputs and is computed by the same floating-point
operations in the same order whether a finished jet runs the rule to its
full order at once or a jet on a tape runs it one coefficient at a time,
so both give bit-identical coefficients.  A rule also makes the checks on
its inputs' values (a zero divisor, the log of zero, the square root or
real power of a non-positive constant term) when it computes coefficient
0, so a tape whose lists are emptied and grown again from new leaf values
raises what recording it with those values raises.
"""

from __future__ import annotations

import math

from .errors import SingularJetDivisionError

# the largest jet built is the flow series of order MAX_FLOW_ORDER = 16,
# which feeds gr-N up to N = 14; two orders of headroom above that
MAX_ORDER = 18


# -- coefficient rules -------------------------------------------------

def _const(n, out, value):
    if not out:
        out.append(value)
    out.extend([0.0] * (n - len(out)))


def _add(n, out, a, b):
    out.extend([a[k] + b[k] for k in range(len(out), n)])


def _add_scalar(n, out, a, c):
    if not out:
        out.append(a[0] + c)
    out.extend(a[len(out):n])


def _sub(n, out, a, b):
    out.extend([a[k] - b[k] for k in range(len(out), n)])


def _sub_scalar(n, out, a, c):
    if not out:
        out.append(a[0] - c)
    out.extend(a[len(out):n])


def _neg(n, out, a):
    out.extend([-v for v in a[len(out):n]])


def _scale(n, out, a, c):
    out.extend([v * c for v in a[len(out):n]])


def _mul(n, out, a, b):
    for k in range(len(out), n):
        s = a[0] * b[k]
        for j in range(1, k + 1):
            s = s + a[j] * b[k - j]
        out.append(s)


def _div(n, out, a, b):
    b0 = b[0]
    if not out and b0 == 0:
        raise SingularJetDivisionError(
            "division by a jet with zero constant term; cancel the common "
            "leading power of h from both series first")
    for k in range(len(out), n):
        s = a[k]
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out.append(s / b0)


def _exp(n, out, a):
    for k in range(len(out), n):
        if k == 0:
            out.append(gexp(a[0]))
            continue
        s = 0.0 * out[0]
        for j in range(1, k + 1):
            s = s + (j * a[j]) * out[k - j]
        out.append(s / k)


def _log(n, out, a):
    a0 = a[0]
    if not out and a0 == 0:
        raise SingularJetDivisionError("log of a jet with zero constant term")
    for k in range(len(out), n):
        if k == 0:
            out.append(glog(a0))
            continue
        s = a[k] * k
        for j in range(1, k):
            s = s - (j * out[j]) * a[k - j]
        out.append(s / (k * a0))


def _pow_log(n, out, a):
    # the log node of a real power, under the power's own domain check
    if not out and a[0] <= 0:
        raise ValueError(
            "non-integer power of a jet needs a positive constant term")
    _log(n, out, a)


def _sin_cos(n, s, c, a):
    # one rule fills both lists: each needs the other's lower coefficients
    for k in range(len(s), n):
        if k == 0:
            s.append(gsin(a[0]))
            c.append(gcos(a[0]))
            continue
        ts = 0.0 * s[0]
        tc = 0.0 * s[0]
        for j in range(1, k + 1):
            ja = j * a[j]
            ts = ts + ja * c[k - j]
            tc = tc + ja * s[k - j]
        s.append(ts / k)
        c.append(-(tc / k))


def _sqrt(n, out, a):
    if not out and a[0] <= 0:
        raise ValueError("sqrt of a jet with non-positive constant term")
    for k in range(len(out), n):
        if k == 0:
            out.append(gsqrt(a[0]))
            continue
        s = a[k]
        for j in range(1, k):
            s = s - out[j] * out[k - j]
        out.append(s / (2 * out[0]))


# -- the series type ----------------------------------------------------

class Jet:
    """A truncated power series.  With a tape, ``coeffs`` is used as given
    (the tape shares it), and the owner of a leaf jet appends its
    coefficients; without one, ``coeffs`` is copied and the jet is
    finished."""
    __slots__ = ("coeffs", "tape")

    def __init__(self, coeffs, order=None, tape=None):
        if tape is None:
            coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0 or order > MAX_ORDER:
            raise ValueError(f"jet order must be in [0, {MAX_ORDER}], got {order}")
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
        # out is new and as long as coeffs: no copy or check is needed
        jet = object.__new__(Jet)
        jet.coeffs, jet.tape = out, self.tape
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


def horner(coeffs, h):
    """The polynomial with monomial coefficients ``coeffs`` at h."""
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * h + coeffs[k]
    return acc


def extend_tape(tape, n):
    """Grow every node recorded on ``tape`` to ``n`` coefficients, once
    the leaves they derive from hold at least ``n``."""
    for rule, args in tape:
        rule(n, *args)


# -- generic dispatch ----------------------------------------------------

def _generic(name):
    """The helper g<name>: math.<name> on a plain float, tried first
    because every scalar step calls it so; the series method on a jet;
    math.<name> on other floats and ints; mpmath's function on any other
    scalar (the mpmath.mpf of the extended-precision delta-series
    fallback)."""
    fn = getattr(math, name)

    def helper(x):
        if type(x) is float:
            return fn(x)
        if isinstance(x, Jet):
            return getattr(x, name)()
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
