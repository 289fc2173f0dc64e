"""Truncated power series arithmetic."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discgrad import jets as jets_module
from discgrad.errors import SingularJetDivisionError
from discgrad.hamiltonian import make_pendulum
from discgrad.jets import (Jet, Param, TapeSource, _const, gcos, gexp, glog,
                           gpow, gsin, gsinc, gsqrt, scalar_text)


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
        Jet([])
    with pytest.raises(ValueError, match=r"order >= 1"):
        Jet.variable(3.0, 0)
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


# ONLINE_OPS on scalars, written with mpmath alone: the reference below
# takes nothing from discgrad.jets
REFERENCE_OPS = {
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
    "exp": lambda a, b: mpmath.exp(a),
    "log": lambda a, b: mpmath.log(b),
    "sqrt": lambda a, b: mpmath.sqrt(b),
    "sin": lambda a, b: mpmath.sin(a),
    "cos": lambda a, b: mpmath.cos(a),
    "pow0": lambda a, b: a ** 0,
    "pow3": lambda a, b: a ** 3,
    "pow-2": lambda a, b: b ** -2,
    "pow1.5": lambda a, b: b ** 1.5,
    "chain": lambda a, b: (mpmath.sin(a * b - 1.0 / b) / mpmath.sqrt(b)
                           + mpmath.exp(a) * a),
}


def reference_coeffs(name, a, b, dps):
    """Taylor coefficients at h = 0 of the reference op on the polynomials
    with coefficients a and b, by mpmath.taylor at dps digits."""
    with mpmath.workdps(dps):
        A, B = ([mpmath.mpf(v) for v in reversed(c)] for c in (a, b))
        return mpmath.taylor(lambda h: REFERENCE_OPS[name](
            mpmath.polyval(A, h), mpmath.polyval(B, h)), 0, len(a) - 1)


def assert_ops_match_reference(a, b, u, dps):
    """Every ONLINE_OPS entry on finished jets a and b within 2^16 u of
    the largest reference coefficient (at least 1), where u is the unit
    roundoff of the coefficients.  Each coefficient takes at most a few
    dozen roundings, which the ops amplify by the ratio of their largest
    term to their largest coefficient: over 1500 drawn pairs the worst
    error was 1100 u, in "chain", where a wrong term is off by O(1)."""
    b = Jet([abs(b.coeffs[0]) + 0.5] + b.coeffs[1:])
    for name, fn in ONLINE_OPS.items():
        got = fn(a, b).coeffs
        want = reference_coeffs(name, a.coeffs, b.coeffs, dps)
        bound = 2 ** 16 * u * max(1, *map(abs, want))
        for k, (x, y) in enumerate(zip(got, want)):
            assert abs(x - y) <= bound, (name, k, x, y)


@given(jets(), jets())
@settings(max_examples=20, deadline=None)
def test_online_ops_match_independent_reference(a, b):
    assert_ops_match_reference(a, b, 2.0 ** -53, 50)
    with mpmath.workdps(60):
        a, b = (Jet([mpmath.mpf(v) / 3 for v in j.coeffs]) for j in (a, b))
        assert_ops_match_reference(a, b, mpmath.eps, 90)


def test_finished_code_compiles_once_per_operation_and_order(monkeypatch):
    compiled = []

    def counting_compile(source, *args):
        compiled.append(source)
        return compile(source, *args)
    monkeypatch.setattr(jets_module, "_FINISHED", {})
    monkeypatch.setattr(jets_module, "compile", counting_compile,
                        raising=False)
    for order in (9, 12):
        for scalar in (float, lambda v: mpmath.mpf(v) / 3):
            a = Jet([scalar(0.3 + k) for k in range(order + 1)])
            b = Jet([scalar(1.8 + 0.4 ** k) for k in range(order + 1)])
            for _ in range(3):
                a * b, a / b, a.sin_cos()
    assert len(compiled) == 6
    assert sorted(n for _, n in jets_module._FINISHED) == [10] * 3 + [13] * 3


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
    # recorded on a Param c, which holds no value, then run with values of
    # c: the scalar expressions of c are generated code, so they match jets
    # made with each plain c
    fn = PARAM_OPS[name]
    a = Jet([0.9, -0.3, 0.25, 1.5])
    tape = []
    A = Jet([a.coeffs[0]], tape=tape)
    out = fn(A, Param("c"))
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


def test_gsinc_against_mpmath():
    # sin(v) / v, 1 at v = 0, within an ulp of the 50-digit quotient
    with mpmath.workdps(50):
        for v in (0.0, 5e-324, -5e-324, 1e-8, 1.0, 1e6):
            want = (float(mpmath.sin(mpmath.mpf(v)) / v) if v else 1.0)
            got = gsinc(v)
            assert type(got) is float
            assert abs(got - want) <= math.ulp(want), v
        assert gsinc(mpmath.mpf("0.7")) == mpmath.sinc(mpmath.mpf("0.7"))
    # the float the divided difference of cos used: no branch left there
    assert [gsinc(v) for v in (0.0, -0.0, 0.5)] \
        == [1.0, 1.0, math.sin(0.5) / 0.5]


def test_gsinc_on_a_param_records_itself():
    out = gsinc(2.0 * Param("c"))
    assert isinstance(out, Param)
    assert out.expr[0] == "gsinc({})"
    lines, text, bound = _float_code(out, {"c": "y"})
    assert lines[-1].startswith(f"{text} = gsinc(")
    namespace = {"gsinc": gsinc}
    exec("\n    ".join(["def f(y):", *lines, f"return {text}"]), namespace)
    assert namespace["f"](0.25) == gsinc(0.5)


def _float_code(value, params):
    """The lines, text and bound names of the recorded scalar ``value`` as
    the implicit step writes it: each operation into a local, a finite
    constant as its literal."""
    lines, bound = [], {}

    def constant(v):
        if type(v) is int or type(v) is float and math.isfinite(v):
            return repr(v)
        bound[f"s{len(bound)}"] = v
        return f"s{len(bound) - 1}"

    def line(param, text):
        lines.append(f"t{len(lines)} = {text}")
        return f"t{len(lines) - 1}"
    return (lines, scalar_text(value, {}, params.__getitem__, constant, line),
            bound)


SCALAR_OPS = {
    **PARAM_OPS,
    "sinc": lambda a, c: gsinc(a - c) * gcos(c),
    # a result used three times is computed once: six operations in all
    "shared": lambda a, c: (lambda t: t - t / (t * 2.0 + 3.0))(a * c - 1.0),
    # a negative literal keeps its sign where it is a power's base
    "negative base": lambda a, c: (0.0 - 0.5) ** (a * 0.0 + 2.0) - c,
    "not finite": lambda a, c: a * math.inf + c,
    "grouping": lambda a, c: 1.0 / (1.0 + gexp(-a)) - 2.0 ** (c - a) ** 2,
}


@pytest.mark.parametrize("name", SCALAR_OPS)
def test_scalar_text_makes_the_recorded_operations(name):
    # recorded on Params, the lines and text run on floats as the function
    # itself does, bit for bit
    fn = SCALAR_OPS[name]
    value = fn(Param("a"), Param("c"))
    lines, text, bound = _float_code(value, {"a": "x", "c": "y"})
    namespace = {**jets_module.FLOAT_HELPERS, **bound}
    exec("\n    ".join(["def f(x, y):", *lines, f"return {text}"]),
         namespace)
    if name == "shared":
        assert len(lines) == 6
    for a, c in ((0.9, 0.7), (-1.3, 2.5), (0.5, -0.0), (1e-3, 3.0)):
        assert repr(namespace["f"](a, c)) == repr(fn(a, c)), (a, c)


@pytest.mark.parametrize("use", [
    lambda x: x == 0.3,
    lambda x: x < 0.3,
    bool,
    abs,
    float,
    int,
    round,
    math.sin,
    math.isfinite,
    range,
], ids=["==", "<", "bool", "abs", "float", "int", "round", "math.sin",
        "math.isfinite", "range"])
def test_a_value_taken_out_of_a_param_breaks_the_contract(use):
    # a Param holds no value, so every use that needs one raises when the
    # system is built, before anything is recorded
    pendulum = make_pendulum()
    with pytest.raises(ValueError, match="system contract allows no "
                                         "branches"):
        dataclasses.replace(pendulum, partials=dict(
            pendulum.partials, xx=lambda x, p: gcos(x) + 0.0 * use(x)))


@pytest.mark.parametrize("op", [lambda x: x % (2.0 * math.pi),
                                lambda x: x // 1.0, math.trunc],
                         ids=["%", "//", "math.trunc"])
def test_an_operation_a_param_lacks_breaks_the_contract(op):
    # a Param does not define the operation, which raises a TypeError in
    # the callable; building the system raises the contract's ValueError,
    # as for a value taken out, and names the callable
    pendulum = make_pendulum()
    with pytest.raises(ValueError, match=re.escape(
            "system 'pendulum': partials['xx'] made an operation the system "
            "contract does not allow")):
        dataclasses.replace(pendulum, partials=dict(
            pendulum.partials, xx=lambda x, p: gcos(op(x))))
