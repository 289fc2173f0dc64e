"""Exact one-step maps for linear constant-coefficient systems."""

import math

import numpy as np
import pytest

from discgrad.errors import DegenerateStepError
from discgrad.exactlin import (AffineStepMap, exact_exp_growth_delta,
                               exact_harmonic_momentum,
                               exact_harmonic_recurrence, exact_step_map)
from discgrad.hamiltonian import LinearSystem, PhaseState, linearize


def _series_expm(A, h, terms=60):
    out = np.eye(2)
    term = np.eye(2)
    for k in range(1, terms):
        term = term @ (h * A) / k
        out = out + term
    return out


def _series_phi1_hb(A, b, h, terms=60):
    # phi1(hA) h b summed term by term
    out = np.zeros(2)
    term = h * b
    for k in range(2, terms):
        out = out + term
        term = (h * A) @ term / k
    return out


def _random_lin(rng):
    hxx = rng.uniform(-2, 2)
    hpp = rng.uniform(-2, 2)
    hxp = rng.uniform(-2, 2)
    A = np.array([[hxp, hpp], [-hxx, -hxp]])
    b = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
    return LinearSystem(A, b, hxx * hpp - hxp * hxp)


def test_quarter_rotation():
    lin = LinearSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2), 1.0)
    m = exact_step_map(lin, math.pi / 2)
    assert m.M == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]), abs=1e-15)
    assert m.w == pytest.approx(np.zeros(2))


def test_nilpotent_branch_against_series():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.0, 1.0])
    lin = LinearSystem(A, b, 0.0)
    m = exact_step_map(lin, 1.0)
    assert m.M == pytest.approx(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert m.w == pytest.approx(np.array([0.5, 1.0]))
    assert m.M == pytest.approx(_series_expm(A, 1.0), abs=1e-14)
    assert m.w == pytest.approx(_series_phi1_hb(A, b, 1.0), abs=1e-14)


def test_all_branches_match_series_exponential(rng):
    for _ in range(50):
        lin = _random_lin(rng)
        h = rng.uniform(0.05, 0.6)
        m = exact_step_map(lin, h)
        assert m.M == pytest.approx(_series_expm(lin.A, h), abs=1e-12)
        assert m.w == pytest.approx(_series_phi1_hb(lin.A, lin.b, h), abs=1e-12)


def test_rotation_determinant_one(rng):
    for _ in range(30):
        lin = _random_lin(rng)
        if lin.omega_sq <= 1e-6:
            continue
        m = exact_step_map(lin, 0.3)
        assert np.linalg.det(m.M) == pytest.approx(1.0, abs=1e-13)


def test_group_property(rng):
    for _ in range(30):
        lin = _random_lin(rng)
        h1, h2 = rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4)
        whole = exact_step_map(lin, h1 + h2)
        split = exact_step_map(lin, h2).compose(exact_step_map(lin, h1))
        assert whole.M == pytest.approx(np.asarray(split.M), abs=1e-12)
        assert whole.w == pytest.approx(split.w, abs=1e-12)


def test_small_h_limit(rng):
    h = 1e-6
    for _ in range(10):
        lin = _random_lin(rng)
        m = exact_step_map(lin, h)
        assert m.M == pytest.approx(np.eye(2) + h * lin.A, abs=1e-11)
        assert m.w == pytest.approx(h * lin.b, abs=1e-11)


def test_linearized_pendulum_inhomogeneous_solution(pendulum):
    # iterating the affine map from (0,0) must track the analytic solution
    # of the constant-coefficient system z' = A z + b
    lin = linearize(pendulum, PhaseState(0.0, 1.8))
    h = 0.25
    m = exact_step_map(lin, h)
    z = np.zeros(2)
    zp = -np.linalg.solve(lin.A, lin.b)   # equilibrium offset
    w = math.sqrt(lin.omega_sq)
    for n in range(1, 41):
        z = m.apply(z)
        t = n * h
        # z(t) = e^{tA}(z0 - zp) + zp with z0 = 0
        c, s = math.cos(w * t), math.sin(w * t) / w
        expz = (c * np.eye(2) + s * np.asarray(lin.A)) @ (-zp) + zp
        assert z == pytest.approx(expz, abs=1e-12)


def test_quadratic_invariant_long_run(rng):
    # linearized energy: 1/2 Hxx xi^2 + Hxp xi eta + 1/2 Hpp eta^2 + Hx xi + Hp eta
    hxx, hxp, hpp = 1.3, 0.4, 0.9
    hx, hp = 0.2, -0.7
    A = np.array([[hxp, hpp], [-hxx, -hxp]])
    b = np.array([hp, -hx])
    lin = LinearSystem(A, b, hxx * hpp - hxp * hxp)
    m = exact_step_map(lin, 0.31)

    def quad(z):
        xi, eta = z
        return (0.5 * hxx * xi * xi + hxp * xi * eta + 0.5 * hpp * eta * eta
                + hx * xi + hp * eta)

    z = np.array([0.4, -0.2])
    q0 = quad(z)
    worst = 0.0
    for _ in range(10 ** 4):
        z = m.apply(z)
        worst = max(worst, abs(quad(z) - q0))
    assert worst <= 1e-11


def test_exp_growth_delta():
    assert exact_exp_growth_delta(0.0, 0.37) == 0.37
    assert exact_exp_growth_delta(1.0, 1.0) == pytest.approx(math.e - 1.0,
                                                             rel=1e-15)
    assert exact_exp_growth_delta(-1.0, math.log(2.0)) == pytest.approx(0.5,
                                                                        rel=1e-14)
    # tiny a*h: expm1 form stays exact where (e^x - 1)/a would cancel
    assert exact_exp_growth_delta(1e-12, 0.25) == pytest.approx(0.25, rel=1e-10)


def test_exp_growth_scheme_is_exact():
    # (x_{n+1} - x_n)/delta = a x_n reproduces e^{a t} exactly
    a, h = 0.7, 0.2
    delta = exact_exp_growth_delta(a, h)
    x = 1.0
    for n in range(1, 50):
        x = x + delta * a * x
        assert x == pytest.approx(math.exp(a * n * h), rel=1e-13)


def test_harmonic_recurrence_values():
    assert exact_harmonic_recurrence(1.0, math.pi, 1.0, 0.0) == pytest.approx(-2.0)
    h = 0.25
    x2 = exact_harmonic_recurrence(1.0, h, math.cos(h), 1.0)
    assert x2 == pytest.approx(math.cos(2 * h), rel=1e-14)
    with pytest.raises(ValueError):
        exact_harmonic_recurrence(-1.0, 0.1, 0.0, 0.0)


def test_harmonic_recurrence_long_run():
    w, h = 1.7, 0.3
    xm, x = math.cos(-w * h), 1.0
    for n in range(1, 10 ** 4 + 1):
        xm, x = x, exact_harmonic_recurrence(w, h, x, xm)
        assert abs(x - math.cos(w * n * h)) <= 1e-12 * n ** 0.5 + 1e-13


def test_harmonic_momentum_and_delta_relation():
    w, h = 1.3, 0.4
    x0, x1 = math.cos(0.0), math.cos(w * h)
    p = exact_harmonic_momentum(w, h, x0, x1)
    assert p == pytest.approx(-math.sin(0.0), abs=1e-14)
    with pytest.raises(DegenerateStepError):
        exact_harmonic_momentum(1.0, 0.0, 1.0, 1.0)
    # delta = (2/w) sin(wh/2) satisfies 2(1 - cos(wh))/delta^2 = w^2
    delta = 2.0 / w * math.sin(0.5 * w * h)
    assert 2.0 * (1.0 - math.cos(w * h)) / delta ** 2 == pytest.approx(
        w * w, rel=1e-13)
