"""Truncated power series ("jets") in one formal variable.

A :class:`Jet` holds the coefficients of ``h^0 .. h^order`` in the plain
monomial basis (no factorials).  All arithmetic truncates at the declared
order, so a jet propagates Taylor coefficients through ordinary numerical
programs without any symbolic algebra.

Coefficients are normally floats, but they may themselves be jets: nested
jets give directional/mixed derivatives for free.  The generic helpers
``gsin``, ``gcos``, ``gexp``, ``gsqrt``, ``glog`` and ``gpow`` dispatch on
the argument type so the same evaluator code runs on floats and on jets.
"""

from __future__ import annotations

import math

from .errors import SingularJetDivisionError

# delta-series construction needs two orders of headroom above the largest
# requested scheme order (N <= 16)
MAX_ORDER = 18


def _is_plain_zero(c) -> bool:
    return not isinstance(c, Jet) and c == 0


class Jet:
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
        c = [value] + [0.0] * order
        return cls(c, order)

    @classmethod
    def variable(cls, value, order):
        """value + h, as a jet of the given order (order >= 1)."""
        c = [value, 1.0] + [0.0] * (order - 1)
        return cls(c, order)

    # -- basic ring operations ------------------------------------------

    def _check(self, other):
        if other.order != self.order:
            raise ValueError(
                f"jet order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)],
                       self.order)
        c = list(self.coeffs)
        c[0] = c[0] + other
        return Jet(c, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet([a - b for a, b in zip(self.coeffs, other.coeffs)],
                       self.order)
        c = list(self.coeffs)
        c[0] = c[0] - other
        return Jet(c, self.order)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            a, b = self.coeffs, other.coeffs
            n = self.order
            out = []
            for k in range(n + 1):
                s = a[0] * b[k]
                for j in range(1, k + 1):
                    s = s + a[j] * b[k - j]
                out.append(s)
            return Jet(out, n)
        return Jet([a * other for a in self.coeffs], self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            inv = 1.0 / other
            return Jet([a * inv for a in self.coeffs], self.order)
        self._check(other)
        b0 = other.coeffs[0]
        if _is_plain_zero(b0):
            raise SingularJetDivisionError(
                "division by a jet with zero constant term; "
                "cancel the common leading factor with shift() first")
        a, b = self.coeffs, other.coeffs
        n = self.order
        q = [a[0] / b0]
        for k in range(1, n + 1):
            s = a[k]
            for j in range(1, k + 1):
                s = s - b[j] * q[k - j]
            q.append(s / b0)
        return Jet(q, n)

    def __rtruediv__(self, other):
        return Jet.constant(other, self.order) / self

    def __pow__(self, exponent):
        return gpow(self, exponent)

    # -- calculus helpers -----------------------------------------------

    def integrate(self):
        """Antiderivative in h with zero constant term; the input's top
        coefficient drops out so the order is unchanged."""
        out = [0.0 * self.coeffs[0]]
        for k in range(self.order):
            out.append(self.coeffs[k] / (k + 1))
        return Jet(out, self.order)

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

    # -- analytic compositions ------------------------------------------

    def exp(self):
        a = self.coeffs
        e = [gexp(a[0])]
        for k in range(1, self.order + 1):
            s = 0.0 * e[0]
            for j in range(1, k + 1):
                s = s + (j * a[j]) * e[k - j]
            e.append(s / k)
        return Jet(e, self.order)

    def log(self):
        a = self.coeffs
        a0 = a[0]
        if _is_plain_zero(a0):
            raise SingularJetDivisionError("log of a jet with zero constant term")
        l = [glog(a0)]
        for k in range(1, self.order + 1):
            s = a[k] * k
            for j in range(1, k):
                s = s - (j * l[j]) * a[k - j]
            l.append(s / (k * a0))
        return Jet(l, self.order)

    def sin_cos(self):
        a = self.coeffs
        s = [gsin(a[0])]
        c = [gcos(a[0])]
        for k in range(1, self.order + 1):
            ts = 0.0 * s[0]
            tc = 0.0 * s[0]
            for j in range(1, k + 1):
                ja = j * a[j]
                ts = ts + ja * c[k - j]
                tc = tc + ja * s[k - j]
            s.append(ts / k)
            c.append(-(tc / k))
        return Jet(s, self.order), Jet(c, self.order)

    def sin(self):
        return self.sin_cos()[0]

    def cos(self):
        return self.sin_cos()[1]

    def sqrt(self):
        a = self.coeffs
        a0 = a[0]
        if _leading_value(a0) <= 0:
            raise ValueError("sqrt of a jet with non-positive constant term")
        r = [gsqrt(a0)]
        for k in range(1, self.order + 1):
            s = a[k]
            for j in range(1, k):
                s = s - r[j] * r[k - j]
            r.append(s / (2 * r[0]))
        return Jet(r, self.order)


def _leading_value(c):
    """Innermost constant term of a possibly nested coefficient."""
    while isinstance(c, Jet):
        c = c.coeffs[0]
    return c


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
    return x.sin() if isinstance(x, Jet) else _scalar_sin(x)


def gcos(x):
    return x.cos() if isinstance(x, Jet) else _scalar_cos(x)


def gexp(x):
    return x.exp() if isinstance(x, Jet) else _scalar_exp(x)


def glog(x):
    return x.log() if isinstance(x, Jet) else _scalar_log(x)


def gsqrt(x):
    return x.sqrt() if isinstance(x, Jet) else _scalar_sqrt(x)


def gpow(x, r):
    if not isinstance(x, Jet):
        return x ** r
    if isinstance(r, int) or (isinstance(r, float) and r.is_integer()):
        n = int(r)
        if n == 0:
            return Jet.constant(1.0, x.order)
        base = x if n > 0 else 1.0 / x
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out
    if _leading_value(x.coeffs[0]) <= 0:
        raise ValueError("non-integer power of a jet needs a positive constant term")
    return (x.log() * r).exp()

