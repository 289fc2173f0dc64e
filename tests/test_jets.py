"""Truncated power series arithmetic."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discgrad.errors import SingularJetDivisionError
from discgrad.jets import (Jet, Param, TapeSource, _const, gcos, gexp, glog,
                           gpow, gsin, gsqrt)


coeff = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)


def jets(order=4):
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(Jet)


def assert_close(a: Jet, b: Jet, tol=1e-12):
    assert a.order == b.order
    for x, y in zip(a.coeffs, b.coeffs):
        assert abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def test_construction_checks():
    with pytest.raises(ValueError):
        Jet([1.0, 2.0], order=3)
    j = Jet.variable(3.0, 2)
    assert j.coeffs == [3.0, 1.0, 0.0]


def test_difference_of_squares():
    one_plus = Jet([1.0, 1.0, 0.0])
    one_minus = Jet([1.0, -1.0, 0.0])
    assert (one_plus * one_minus).coeffs == [1.0, 0.0, -1.0]


def test_square_of_exp_prefix():
    # (1 + h + h^2/2)^2 by hand convolution: 1, 2, 2, 1 at h^3
    a = Jet([1.0, 1.0, 0.5, 0.0])
    sq = a * a
    assert sq.coeffs == pytest.approx([1.0, 2.0, 2.0, 1.0], abs=1e-15)


@given(jets(), jets(), jets())
@settings(max_examples=200)
def test_ring_associativity_distributivity(a, b, c):
    scale = [max(1.0, *(abs(v) for v in j.coeffs)) for j in (a, b, c)]
    bound = 1e-12 * scale[0] * scale[1] * scale[2]
    assert_close((a * b) * c, a * (b * c), bound)
    assert_close(a * (b + c), a * b + a * c, bound)
    assert_close(a + (b + c), (a + b) + c, bound)


def div_mul_error_bound(a: Jet, b: Jet) -> list:
    """Bound on |((a*b)/b)_k - a_k| for each k in double precision.

    Rounding the product and the division perturbs a by at most
    g |L^-1| |L| (|a| + |q|), g = gamma_{order+1}, where L is the
    triangular Toeplitz matrix of b.  With beta = max_j>0 |b_j| / |b_0|,
    |L^-1| |L| is majorised entrywise by C_0 = 1, C_m = 2 beta (1+beta)^(m-1),
    so the error can grow like (1+beta)^k; under the `tiny` term lies the
    absolute error of gradual underflow.
    """
    n = a.order
    u = 2.0 ** -53
    g = (n + 1) * u / (1.0 - (n + 1) * u)
    b0 = abs(b.coeffs[0])
    beta = max(abs(v) for v in b.coeffs[1:]) / b0
    C = [1.0] + [2.0 * beta * (1.0 + beta) ** (m - 1) for m in range(1, n + 1)]
    bound = []
    for k in range(n + 1):
        ma = sum(C[k - i] * abs(a.coeffs[i]) for i in range(k + 1))
        carried = sum(C[k - i] * bound[i] for i in range(k))
        tiny = (2 * n + 2 + b0) / b0 * (1.0 + beta) ** k * 2.0 ** -1074
        bound.append((g * (2.0 * ma + carried) + tiny) / (1.0 - g))
    return bound


@given(jets(), jets())
@example(Jet([1.0, 1.275434690850144, 0.0, 0.0, 0.0]),
         Jet([0.0078125, 1.0, 0.0, 0.0, 0.0]))
@settings(max_examples=200)
def test_div_inverts_mul(a, b):
    if abs(b.coeffs[0]) < 1e-3:
        b = b + (1.0 if b.coeffs[0] >= 0 else -1.0)
    q = (a * b) / b
    for got, want, bound in zip(q.coeffs, a.coeffs, div_mul_error_bound(a, b)):
        assert abs(got - want) <= bound


def test_div_geometric_series():
    one = Jet([1.0, 0.0, 0.0, 0.0])
    den = Jet([1.0, -1.0, 0.0, 0.0])
    assert (one / den).coeffs == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_div_zero_constant_term_raises():
    with pytest.raises(SingularJetDivisionError):
        Jet([1.0, 1.0]) / Jet([0.0, 1.0])


def test_sin_maclaurin():
    h = Jet.variable(0.0, 3)
    assert gsin(h).coeffs == pytest.approx([0.0, 1.0, 0.0, -1.0 / 6.0])


def test_cos_taylor_shift():
    x0 = 0.7
    c = gcos(Jet.variable(x0, 2))
    assert c.coeffs == pytest.approx(
        [math.cos(x0), -math.sin(x0), -0.5 * math.cos(x0)])


def test_exp_zero():
    e = gexp(Jet.constant(0.0, 3))
    assert e.coeffs == [1.0, 0.0, 0.0, 0.0]


@given(jets())
@settings(max_examples=100)
def test_sin_sq_plus_cos_sq(a):
    s, c = a.sin_cos()
    ident = s * s + c * c
    assert abs(ident.coeffs[0] - 1.0) < 1e-12
    scale = max(1.0, *(abs(v) for v in a.coeffs)) ** 4
    for v in ident.coeffs[1:]:
        assert abs(v) < 1e-10 * scale


@given(jets())
@settings(max_examples=100)
def test_exp_derivative_identity(a):
    # d/dh exp(a) == a' * exp(a)
    e = a.exp()
    lhs = e.differentiate()
    rhs = a.differentiate() * e
    scale = max(1.0, *(abs(v) for v in e.coeffs)) \
        * max(1.0, *(abs(v) for v in a.coeffs))
    # top coefficient of the derivative is truncated on both sides
    for x, y in zip(lhs.coeffs[:-1], rhs.coeffs[:-1]):
        assert abs(x - y) <= 1e-10 * scale


def test_sqrt_recurrence():
    a = Jet([4.0, 4.0, 1.0, 0.0])   # (2 + h)^2
    assert a.sqrt().coeffs == pytest.approx([2.0, 1.0, 0.0, 0.0], abs=1e-14)
    with pytest.raises(ValueError):
        Jet([-1.0, 0.0]).sqrt()


def test_pow_integer_and_fractional():
    a = Jet([1.0, 1.0, 0.0, 0.0])
    assert (a ** 3).coeffs == pytest.approx([1.0, 3.0, 3.0, 1.0])
    half = a ** 0.5
    assert half.coeffs == pytest.approx([1.0, 0.5, -0.125, 0.0625])


def test_evaluate_horner():
    a = Jet([1.0, 2.0, 3.0])
    assert a.evaluate(0.5) == 1.0 + 2.0 * 0.5 + 3.0 * 0.25


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Jet([1.0, 2.0]) + Jet([1.0, 2.0, 3.0])


# every operation an online jet supports, on a general a and on b, whose
# constant term is positive so that /, log, sqrt and real powers apply
ONLINE_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "add_scalar": lambda a, b: a + 2.5,
    "radd_scalar": lambda a, b: 2.5 + a,
    "sub_scalar": lambda a, b: a - 2.5,
    "rsub_scalar": lambda a, b: 2.5 - a,
    "scale": lambda a, b: 0.3 * a,
    "div_scalar": lambda a, b: a / 3.0,
    "rdiv_scalar": lambda a, b: 1.0 / b,
    "neg": lambda a, b: -a,
    "exp": lambda a, b: gexp(a),
    "log": lambda a, b: glog(b),
    "sqrt": lambda a, b: gsqrt(b),
    "sin": lambda a, b: gsin(a),
    "cos": lambda a, b: gcos(a),
    "pow0": lambda a, b: gpow(a, 0),
    "pow3": lambda a, b: a ** 3,
    "pow-2": lambda a, b: gpow(b, -2.0),
    "pow1.5": lambda a, b: b ** 1.5,
    "chain": lambda a, b: gsin(a * b - 1.0 / b) / gsqrt(b) + gexp(a) * a,
}


def run_generated(fn, a, b):
    """fn recorded on jets on a tape that hold the constant terms of a and
    b, then the code generated from that tape run on all their
    coefficients."""
    tape = []
    A = Jet([a.coeffs[0]], tape=tape)
    B = Jet([b.coeffs[0]], tape=tape)
    out = fn(A, B)
    assert out.tape is tape
    source = TapeSource(tape, {"a": A.coeffs, "b": B.coeffs})
    n = len(a.coeffs)
    body = [line for k in range(n) for line in source.lines(k)]
    params = ", ".join(f"{leaf}{k}" for leaf in "ab" for k in range(n))
    name = source.name(out.coeffs)
    result = "[" + ", ".join(f"{name}{k}" for k in range(n)) + "]"
    return source.compile(params, body, result)(*a.coeffs, *b.coeffs)


def assert_generated_equals_jet(a, b):
    b = Jet([abs(b.coeffs[0]) + 0.5] + b.coeffs[1:])
    for name, fn in ONLINE_OPS.items():
        want = fn(a, b)
        got = run_generated(fn, a, b)
        assert repr(got) == repr(want.coeffs), name


@given(jets(), jets())
@settings(max_examples=50)
def test_online_ops_bit_identical_to_jet(a, b):
    assert_generated_equals_jet(a, b)
    with mpmath.workdps(60):
        # 60-digit coefficients, not floats widened
        a, b = (Jet([mpmath.mpf(v) / 3 for v in j.coeffs]) for j in (a, b))
        assert_generated_equals_jet(a, b)


def test_online_rejects_mixing():
    tape = []
    x = Jet([1.0], tape=tape)
    with pytest.raises(TypeError):
        x * Jet([1.0])
    with pytest.raises(TypeError):
        Jet([1.0]) + x
    with pytest.raises(ValueError):
        x + Jet([1.0], tape=[])
    with pytest.raises(SingularJetDivisionError):
        x / (x - 1.0)


HELPERS = {"sin": gsin, "cos": gcos, "exp": gexp, "log": glog, "sqrt": gsqrt}


@given(st.floats(min_value=-700.0, max_value=700.0))
@example(-0.0)
@example(5e-324)
def test_helpers_on_floats_are_math(x):
    for name, fn in HELPERS.items():
        # log and sqrt on a positive argument
        arg = abs(x) + 5e-324 if name in ("log", "sqrt") else x
        got = fn(arg)
        assert type(got) is float, name
        assert got.hex() == getattr(math, name)(arg).hex(), name


def _dispatch_by_type(name, x):
    """The helpers' dispatch for arguments that are not a plain float."""
    if isinstance(x, Jet):
        return getattr(x, name)()
    if isinstance(x, (float, int)):
        return getattr(math, name)(x)
    return getattr(mpmath, name)(x)


def test_helpers_on_other_types_dispatch_by_type():
    def arguments():
        yield 2
        yield np.float64(0.7)
        yield mpmath.mpf("0.7")
        yield Jet([0.7, 1.0, -0.25, 0.5])
        yield Jet([0.7, 1.0], tape=[])
    for name, fn in HELPERS.items():
        for got, want in zip(map(fn, arguments()),
                             (_dispatch_by_type(name, x)
                              for x in arguments())):
            assert type(got) is type(want), (name, got)
            if isinstance(got, Jet):
                assert repr(got.coeffs) == repr(want.coeffs), name
            else:
                assert got == want, name


PARAM_OPS = {
    "scalars": lambda a, c: (0.5 * c + 1.0) * a - (c - 2.0) / a + c ** 2,
    "reflected": lambda a, c: 3.0 / (c + 4.0) + a * (1.0 - c) + a / 2.0 ** c,
    "helpers": lambda a, c: gsin(c) * a + gexp(-c) - gsqrt(c * c + 1.0) * a,
    "constant": lambda a, c: c * c,
}


@pytest.mark.parametrize("name", PARAM_OPS)
def test_param_is_computed_not_bound(name):
    # recorded with c = 0.7, then run with other values of c: the scalar
    # expressions of c are generated code, so they match jets made with
    # each plain c
    fn = PARAM_OPS[name]
    a = Jet([0.9, -0.3, 0.25, 1.5])
    tape = []
    A = Jet([a.coeffs[0]], tape=tape)
    out = fn(A, Param(0.7, "c"))
    if not isinstance(out, Jet):
        out = A._make(_const, out)
    source = TapeSource(tape, {"a": A.coeffs})
    body = [line for k in range(4) for line in source.lines(k)]
    name = source.name(out.coeffs)
    generated = source.compile(
        "a0, a1, a2, a3, c", body,
        "[" + ", ".join(f"{name}{k}" for k in range(4)) + "]")
    for c in (0.7, -1.3, 0.0, -0.0, 2.5):
        want = fn(a, c)
        want = want.coeffs if isinstance(want, Jet) \
            else Jet.constant(want, 3).coeffs
        assert repr(generated(*a.coeffs, c)) == repr(want), c
