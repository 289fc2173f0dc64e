"""Truncated power series ("jets") in one formal variable.

A :class:`Jet` holds the coefficients of ``h^0 .. h^order`` in the plain
monomial basis (no factorials).  All arithmetic truncates at the declared
order, so a jet propagates Taylor coefficients through ordinary numerical
programs without any symbolic algebra.

Coefficients are floats, or mpmath numbers in the extended-precision
delta-series fallback.  The generic helpers ``gsin``, ``gcos``, ``gexp``,
``gsqrt``, ``glog`` and ``gpow`` dispatch on the argument type so the same
evaluator code runs on scalars and on jets.

An :class:`OnlineJet` is a series whose coefficients arrive one at a time
(Jorba & Zou, Exp. Math. 14, 2005; Griewank & Walther, Evaluating
Derivatives, ch. 13).  Every operation on online jets records its output
on a shared tape; once the inputs gain a coefficient, ``extend_tape``
computes one more coefficient of every recorded node, in creation order.
Online jets support the arithmetic ``+ - * /`` (with each other and with
scalars), unary minus, ``**`` and the ``g*`` helpers; the calculus
helpers (``differentiate``, ``shift``, ``evaluate``, ...) read a finished
series and are on :class:`Jet` only.

Each operation is written once, as a coefficient rule
``rule(n, out, *args)`` that appends coefficients ``len(out) .. n-1`` to
the list ``out``.  Coefficient k of every rule depends only on
coefficients 0..k of its inputs and is computed by the same floating-point
operations in the same order whether a :class:`Jet` runs the rule to its
full order at once or an online jet runs it one coefficient at a time, so
both give bit-identical coefficients.
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
    for k in range(len(out), n):
        if k == 0:
            out.append(glog(a0))
            continue
        s = a[k] * k
        for j in range(1, k):
            s = s - (j * out[j]) * a[k - j]
        out.append(s / (k * a0))


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
    for k in range(len(out), n):
        if k == 0:
            out.append(gsqrt(a[0]))
            continue
        s = a[k]
        for j in range(1, k):
            s = s - out[j] * out[k - j]
        out.append(s / (2 * out[0]))


# -- series types ------------------------------------------------------

class _Series:
    """Operations shared by :class:`Jet` and :class:`OnlineJet`.

    A subclass supplies ``coeffs``, ``_check(other)`` (may the two be
    combined), ``_make(rule, *args)`` (run a coefficient rule into a new
    series of the same kind) and ``_wrap(coeffs)`` (a series of the same
    kind around a list that a rule fills).
    """
    __slots__ = ()

    def _constant(self, value):
        return self._make(_const, value)

    # -- basic ring operations ------------------------------------------

    def __add__(self, other):
        if isinstance(other, _Series):
            self._check(other)
            return self._make(_add, self.coeffs, other.coeffs)
        return self._make(_add_scalar, self.coeffs, other)

    __radd__ = __add__

    def __neg__(self):
        return self._make(_neg, self.coeffs)

    def __sub__(self, other):
        if isinstance(other, _Series):
            self._check(other)
            return self._make(_sub, self.coeffs, other.coeffs)
        return self._make(_sub_scalar, self.coeffs, other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Series):
            self._check(other)
            return self._make(_mul, self.coeffs, other.coeffs)
        return self._make(_scale, self.coeffs, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _Series):
            return self._make(_scale, self.coeffs, 1.0 / other)
        self._check(other)
        if other.coeffs[0] == 0:
            raise SingularJetDivisionError(
                "division by a jet with zero constant term; "
                "cancel the common leading factor with shift() first")
        return self._make(_div, self.coeffs, other.coeffs)

    def __rtruediv__(self, other):
        return self._constant(other) / self

    def __pow__(self, exponent):
        return gpow(self, exponent)

    # -- analytic compositions ------------------------------------------

    def exp(self):
        return self._make(_exp, self.coeffs)

    def log(self):
        if self.coeffs[0] == 0:
            raise SingularJetDivisionError("log of a jet with zero constant term")
        return self._make(_log, self.coeffs)

    def sin_cos(self):
        c = []
        s = self._make(_sin_cos, c, self.coeffs)
        return s, self._wrap(c)

    def sin(self):
        return self.sin_cos()[0]

    def cos(self):
        return self.sin_cos()[1]

    def sqrt(self):
        if self.coeffs[0] <= 0:
            raise ValueError("sqrt of a jet with non-positive constant term")
        return self._make(_sqrt, self.coeffs)


class Jet(_Series):
    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0 or order > MAX_ORDER:
            raise ValueError(f"jet order must be in [0, {MAX_ORDER}], got {order}")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count does not match declared order")
        self.order = order
        self.coeffs = coeffs

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
        if not isinstance(other, Jet):
            raise TypeError("cannot combine a Jet with an online jet")
        if other.order != self.order:
            raise ValueError(
                f"jet order mismatch: {self.order} vs {other.order}")

    def _make(self, rule, *args):
        out = []
        rule(self.order + 1, out, *args)
        return Jet(out, self.order)

    def _wrap(self, coeffs):
        return Jet(coeffs, self.order)

    # -- calculus helpers -----------------------------------------------

    def differentiate(self):
        out = [(k + 1) * self.coeffs[k + 1] for k in range(self.order)]
        out.append(0.0 * self.coeffs[0])
        return Jet(out, self.order)

    def shift(self, m):
        """Multiply by h^m (m > 0) or divide by h^m (m < 0).

        Shifting down simply drops the leading m coefficients; the caller
        asserts that they cancel.  The order is preserved, with vacated top
        slots zero-filled (they carry no information after the shift).
        """
        if m == 0:
            return self
        zero = 0.0 * self.coeffs[0]
        if m > 0:
            c = [zero] * m + self.coeffs[: self.order + 1 - m]
        else:
            c = self.coeffs[-m:] + [zero] * (-m)
        return Jet(c, self.order)

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot truncate upward")
        return Jet(self.coeffs[: order + 1], order)

    def evaluate(self, h):
        acc = self.coeffs[self.order]
        for k in range(self.order - 1, -1, -1):
            acc = acc * h + self.coeffs[k]
        return acc

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


class OnlineJet(_Series):
    """A series that grows one coefficient at a time.

    ``coeffs`` holds the coefficients known so far.  Leaf series (the
    independent variables) are created directly and their owner appends
    their coefficients; every series derived from them is recorded on
    ``tape`` and grows through :func:`extend_tape`.
    """
    __slots__ = ("coeffs", "tape")

    def __init__(self, coeffs, tape):
        self.coeffs = coeffs
        self.tape = tape

    def _check(self, other):
        if not isinstance(other, OnlineJet):
            raise TypeError("cannot combine an online jet with a Jet")
        if other.tape is not self.tape:
            raise ValueError("online jets from different tapes")

    def _make(self, rule, *args):
        out = []
        args = (out,) + args
        rule(len(self.coeffs), *args)
        self.tape.append((rule, args))
        return OnlineJet(out, self.tape)

    def _wrap(self, coeffs):
        return OnlineJet(coeffs, self.tape)


def extend_tape(tape, n):
    """Grow every node recorded on ``tape`` to ``n`` coefficients, once
    the leaves they derive from hold at least ``n``."""
    for rule, args in tape:
        rule(n, *args)


# -- generic dispatch ----------------------------------------------------

def _scalar_fn(name):
    # non-float scalars (e.g. mpmath.mpf in the extended-precision
    # delta-series fallback) go through their own math module
    def apply(x, _name=name):
        if isinstance(x, (float, int)):
            return getattr(math, _name)(x)
        import mpmath
        return getattr(mpmath, _name)(x)
    return apply


_scalar_sin = _scalar_fn("sin")
_scalar_cos = _scalar_fn("cos")
_scalar_exp = _scalar_fn("exp")
_scalar_log = _scalar_fn("log")
_scalar_sqrt = _scalar_fn("sqrt")


def gsin(x):
    return x.sin() if isinstance(x, _Series) else _scalar_sin(x)


def gcos(x):
    return x.cos() if isinstance(x, _Series) else _scalar_cos(x)


def gexp(x):
    return x.exp() if isinstance(x, _Series) else _scalar_exp(x)


def glog(x):
    return x.log() if isinstance(x, _Series) else _scalar_log(x)


def gsqrt(x):
    return x.sqrt() if isinstance(x, _Series) else _scalar_sqrt(x)


def gpow(x, r):
    if not isinstance(x, _Series):
        return x ** r
    if isinstance(r, int) or (isinstance(r, float) and r.is_integer()):
        n = int(r)
        if n == 0:
            return x._constant(1.0)
        base = x if n > 0 else 1.0 / x
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out
    if x.coeffs[0] <= 0:
        raise ValueError("non-integer power of a jet needs a positive constant term")
    return (x.log() * r).exp()
