"""Elliptic integrals, Jacobi functions and the exact pendulum orbit."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from discgrad import reference
from discgrad.reference import (_AGM_CAP, EquilibriumError,
                                InfinitePeriodError, _agm_chain,
                                _reduce_time, classify_orbit, elliptic_K,
                                jacobi_am, jacobi_sn_cn_dn, pendulum_exact,
                                pendulum_period)


def _quadrature_K(k):
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def test_elliptic_K_endpoints():
    assert elliptic_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    with pytest.raises(ValueError):
        elliptic_K(1.0)
    with pytest.raises(ValueError):
        elliptic_K(-0.1)


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99])
def test_elliptic_K_against_quadrature(k):
    assert elliptic_K(k) == pytest.approx(_quadrature_K(k), rel=1e-12)


# moduli within 10^-j of 1, and those of the rotation orbits p0 = 2.001
# and 2.0001, where sqrt(1 - k*k) would lose up to 12 digits
NEAR_ONE = [1.0 - 10.0 ** -j for j in range(1, 13)] + [2.0 / 2.001,
                                                        2.0 / 2.0001]


@pytest.mark.parametrize("k", NEAR_ONE)
def test_elliptic_K_near_one_against_mpmath(k):
    with mpmath.workdps(50):
        want = mpmath.ellipk(mpmath.mpf(k) ** 2)
        err = abs(mpmath.mpf(elliptic_K(k)) - want)
        assert err <= 4 * math.ulp(float(want))


@pytest.mark.parametrize("p0", [1.999, 1.9999, 2.0001, 2.001, 2.01])
def test_period_near_separatrix_against_mpmath(p0):
    # the period of the orbit through the double p0, not of a rounded
    # modulus: 2/p0 rounds, and K amplifies that by 1/(1 - k^2)
    with mpmath.workdps(50):
        a = mpmath.mpf(p0)
        if p0 < 2.0:
            want = 4 * mpmath.ellipk((a / 2) ** 2)
        else:
            want = 2 * (2 / a) * mpmath.ellipk((2 / a) ** 2)
        err = abs(mpmath.mpf(pendulum_period(p0)) - want)
        assert err <= 4 * math.ulp(float(want))


def test_period_where_agm_means_never_meet():
    # at this modulus the two AGM means settle one ulp apart, so a stop
    # test that waits for them to meet never returns
    p0 = 2.0006500000000003
    k = 2.0 / p0
    assert pendulum_period(p0) == pytest.approx(2.0 * k * _quadrature_K(k),
                                                rel=1e-12)


def test_agm_chain_ends_by_its_stop_test(rng):
    moduli = [rng.random() for _ in range(10000)]
    moduli += [1.0 - 10.0 ** -rng.uniform(1.0, 16.0) for _ in range(10000)]
    with mpmath.workdps(50):
        for k in moduli:
            K, (_, ratios) = _agm_chain(k)
            assert len(ratios) < _AGM_CAP
            want = mpmath.ellipk(mpmath.mpf(k) ** 2)
            assert abs(K - want) <= 4 * math.ulp(K), k


def test_quoted_periods():
    assert pendulum_period(0.02) == pytest.approx(6.283342396, rel=1e-8)
    assert pendulum_period(1.8) == pytest.approx(9.12219655, rel=1e-8)


def test_small_oscillation_limit():
    assert pendulum_period(1e-6) == pytest.approx(2.0 * math.pi, rel=1e-10)


def test_period_errors():
    with pytest.raises(InfinitePeriodError):
        pendulum_period(2.0)
    with pytest.raises(InfinitePeriodError):
        pendulum_period(-2.0)
    with pytest.raises(EquilibriumError):
        pendulum_period(0.0)


def test_classify_orbit():
    assert classify_orbit(1.8).regime == "libration"
    assert classify_orbit(1.8).k == 0.9
    assert classify_orbit(2.5).regime == "rotation"
    assert classify_orbit(2.5).k == 0.8
    assert classify_orbit(2.0).regime == "separatrix"
    assert classify_orbit(-1.0).regime == "libration"


def test_jacobi_trig_limit(rng):
    for _ in range(10):
        u = rng.uniform(-5, 5)
        sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
        assert sn == math.sin(u) and cn == math.cos(u) and dn == 1.0


@pytest.mark.parametrize("k", [1e-9, 1e-17])
def test_jacobi_tiny_modulus(k):
    # sqrt(1 - k^2) rounds to 1 here, so the AGM chain is empty; dn must
    # still be 1, not cos(u)
    for u in (0.5, 1.5, 2.0, 3.0, -3.0, 7.0):
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        assert sn == pytest.approx(math.sin(u), abs=1e-15)
        assert cn == pytest.approx(math.cos(u), abs=1e-15)
        assert dn == pytest.approx(1.0, abs=1e-15)
        assert jacobi_am(u, k) == pytest.approx(u, abs=1e-15)


def test_exact_fast_rotation():
    # k = 2/p0 is below 2^-27, where the AGM chain is empty
    for p0 in (1e9, 2e17):
        for t in (0.3, 1.0, 2.5, 3.0):
            s = pendulum_exact(p0, t / p0)
            assert s.p == pytest.approx(p0, rel=1e-15)
            assert s.x == pytest.approx(t, rel=1e-12)


def test_jacobi_at_zero(rng):
    for k in (0.1, 0.6, 0.95):
        sn, cn, dn = jacobi_sn_cn_dn(0.0, k)
        assert abs(sn) < 1e-15 and cn == pytest.approx(1.0) \
            and dn == pytest.approx(1.0)


def test_jacobi_identities(rng):
    for _ in range(100):
        u = rng.uniform(-8, 8)
        k = rng.uniform(0.0, 0.999)
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
        assert dn * dn + k * k * sn * sn == pytest.approx(1.0, abs=1e-11)


def test_jacobi_quarter_period():
    k = 0.7
    K = elliptic_K(k)
    sn, cn, dn = jacobi_sn_cn_dn(K, k)
    assert sn == pytest.approx(1.0, abs=1e-12)
    assert cn == pytest.approx(0.0, abs=1e-12)
    assert dn == pytest.approx(math.sqrt(1.0 - k * k), rel=1e-10)


def test_jacobi_am_monotone():
    k = 0.9
    vals = [jacobi_am(u, k) for u in (0.0, 1.0, 2.0, 5.0, 10.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_exact_initial_condition():
    for p0 in (0.02, 1.8, 2.001, 3.0, -1.8, 2.0):
        s = pendulum_exact(p0, 0.0)
        assert abs(s.x) < 1e-13
        assert s.p == pytest.approx(p0, rel=1e-13)


def test_exact_full_period_return():
    T = pendulum_period(1.8)
    s = pendulum_exact(1.8, T)
    assert abs(s.x) < 1e-8
    assert s.p == pytest.approx(1.8, abs=1e-8)


def test_energy_conservation(rng):
    for _ in range(100):
        p0 = rng.choice([0.02, 0.9, 1.8, 1.99, 2.001, 2.5, 4.0])
        t = rng.uniform(0.0, 200.0)
        s = pendulum_exact(p0, t)
        e = 0.5 * s.p ** 2 - math.cos(s.x)
        assert e == pytest.approx(0.5 * p0 ** 2 - 1.0, abs=1e-12)


def test_satisfies_equation_of_motion(rng):
    d = 1e-5
    for _ in range(100):
        p0 = rng.choice([0.5, 1.8, 2.001, 3.0])
        t = rng.uniform(0.1, 50.0)
        sm = pendulum_exact(p0, t - d)
        s0 = pendulum_exact(p0, t)
        sp = pendulum_exact(p0, t + d)
        assert (sp.x - sm.x) / (2 * d) == pytest.approx(s0.p, abs=1e-8)
        assert (sp.p - sm.p) / (2 * d) == pytest.approx(-math.sin(s0.x),
                                                        abs=1e-8)


def test_periodicity_libration():
    T = pendulum_period(1.8)
    for t in (0.3, 2.7, 8.1):
        a = pendulum_exact(1.8, t)
        b = pendulum_exact(1.8, t + T)
        assert b.x == pytest.approx(a.x, abs=1e-9)
        assert b.p == pytest.approx(a.p, abs=1e-9)


def test_periodicity_rotation_unwrapped():
    T = pendulum_period(2.5)
    for t in (0.2, 1.9, 6.4):
        a = pendulum_exact(2.5, t)
        b = pendulum_exact(2.5, t + T)
        assert b.x == pytest.approx(a.x + 2.0 * math.pi, abs=1e-9)
        assert b.p == pytest.approx(a.p, abs=1e-9)


def test_separatrix_closed_form():
    s = pendulum_exact(2.0, 0.0)
    assert s.x == pytest.approx(0.0, abs=1e-15)
    assert s.p == pytest.approx(2.0)
    far = pendulum_exact(2.0, 40.0)
    assert far.x == pytest.approx(math.pi, abs=1e-12)
    assert far.p == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.3, 40.0, 1e3, 1e6])
def test_separatrix_within_one_ulp_of_mpmath(t):
    # 4 atan(e^t) - pi and 2 sech t at 60 digits; past t = 709.8 the
    # closed form in e^t overflows a double
    with mpmath.workdps(60):
        T = mpmath.mpf(t)
        want = (4 * mpmath.atan(mpmath.exp(T)) - mpmath.pi,
                2 / mpmath.cosh(T))
        for sign in (1.0, -1.0):
            s = pendulum_exact(2.0, sign * t)
            for got, ref in zip((s.x, s.p), (sign * want[0], want[1])):
                assert abs(got - ref) <= math.ulp(float(ref)), (sign, got)


def test_negative_momentum_symmetry():
    a = pendulum_exact(1.8, 1.7)
    b = pendulum_exact(-1.8, 1.7)
    assert b.x == -a.x and b.p == -a.p


def test_long_time_reduction():
    # t of order 1e7: compensated period reduction must keep phase accuracy
    T = pendulum_period(1.8)
    n = 10 ** 6
    a = pendulum_exact(1.8, 0.4)
    b = pendulum_exact(1.8, 0.4 + n * T)
    assert b.x == pytest.approx(a.x, abs=1e-6)
    assert b.p == pytest.approx(a.p, abs=1e-6)


def test_reduce_time_residual_correctly_rounded(rng):
    # r is within one ulp of the exact t - n*period, on every Python
    for p0 in (1.8, 2.5):
        period = pendulum_period(p0)
        for _ in range(2000):
            t = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 9.0)
            n, r = _reduce_time(t, period)
            assert n == round(t / period)
            exact = Fraction(t) - n * Fraction(period)
            assert abs(Fraction(r) - exact) <= Fraction(math.ulp(r))


def test_one_agm_chain_per_oracle_call(monkeypatch):
    calls = []

    def counting(k, *kc):
        calls.append(k)
        return _agm_chain(k, *kc)
    monkeypatch.setattr(reference, "_agm_chain", counting)
    reference._exact_orbit.cache_clear()
    # first call at a p0, the same p0 again, a new p0, the separatrix; -1.8
    # is the orbit of 1.8 mirrored
    for p0, chains in ((1.8, 1), (1.8, 0), (-1.8, 0), (2.5, 1), (2.5, 0),
                       (2.0, 0)):
        calls.clear()
        pendulum_exact(p0, 123.4)
        assert len(calls) == chains, p0
    # classify_orbit builds its own orbit every time
    calls.clear()
    assert classify_orbit(2.5) is not classify_orbit(2.5)
    assert len(calls) == 2


@given(st.lists(st.tuples(st.sampled_from([1.8, 2.5, -1.8, 0.02, 2.0005]),
                          st.floats(0.0, 1e4)), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_oracle_memo_changes_no_state(calls):
    # whatever p0 the memo holds, a call returns what a cold call returns
    for p0, t in calls:
        warm = pendulum_exact(p0, t)
        reference._exact_orbit.cache_clear()
        cold = pendulum_exact(p0, t)
        assert [v.hex() for v in (warm.x, warm.p)] == \
            [v.hex() for v in (cold.x, cold.p)]


def test_p0_without_a_finite_period_is_rejected():
    # not finite, or so large that kc = sqrt((p0 - 2)(p0 + 2))/p0 overflows
    # and the period comes out 0
    for p0 in (math.nan, math.inf, -math.inf, 1e308, -1e200, 1.4e154):
        for call in (classify_orbit, pendulum_period,
                     lambda p0: pendulum_exact(p0, 0.0),
                     lambda p0: pendulum_exact(p0, 10.0)):
            with pytest.raises(ValueError, match="p0 = ") as info:
                call(p0)
            assert not isinstance(info.value, InfinitePeriodError)
    # a p0 just below that overflow keeps working
    assert 0.0 < pendulum_period(1e153) < 1e-152
    assert pendulum_exact(1e153, 1e-160).p == 1e153
