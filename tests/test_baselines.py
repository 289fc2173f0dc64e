"""Comparison integrators: leap-frog, RK-4, Taylor-N, composed symplectic."""

import dataclasses
import math
import random

import numpy as np
import pytest

from discgrad import jets
from discgrad.baselines import (SymplecticCoeffs, sp_coefficients,
                                step_leapfrog, step_rk4, step_symplectic,
                                step_taylor)
from discgrad.errors import UnsupportedSchemeError
from discgrad.hamiltonian import (HamiltonianSystem, PhaseState,
                                  eval_energy, make_harmonic, make_pendulum,
                                  system_from_name)
from discgrad.harness import ExperimentSpec, make_stepper, run_trajectory
from discgrad.reference import pendulum_exact


def _order_slope(step, exact, h_list, t_final):
    errs = []
    for h in h_list:
        n = round(t_final / h)
        s = PhaseState(0.0, 1.8)
        for _ in range(n):
            s = step(s, h)
        ex = exact(n * h)
        errs.append(max(abs(s.x - ex.x), abs(s.p - ex.p)))
    lh = np.log(h_list)
    le = np.log(errs)
    return float(np.polyfit(lh, le, 1)[0])


def _harmonic_exact(t):
    return PhaseState(1.8 * math.sin(t), 1.8 * math.cos(t))


def test_leapfrog_free_particle():
    free = make_harmonic(0.0)
    s = step_leapfrog(free, PhaseState(1.0, 2.0), 0.5)
    assert s.x == 2.0 and s.p == 2.0


def test_leapfrog_equals_sp2(pendulum, rng):
    coeffs = sp_coefficients(1)
    for _ in range(20):
        s = PhaseState(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = step_leapfrog(pendulum, s, 0.25)
        b = step_symplectic(pendulum, s, 0.25, coeffs)
        assert a == b


def test_leapfrog_rejects_nonseparable(crossterm):
    with pytest.raises(UnsupportedSchemeError):
        step_leapfrog(crossterm, PhaseState(0.0, 1.0), 0.25)
    with pytest.raises(UnsupportedSchemeError):
        step_symplectic(crossterm, PhaseState(0.0, 1.0), 0.25,
                        sp_coefficients(2))


def _quartic():
    """H = p^2/2 + x^4/4."""
    return HamiltonianSystem(
        name="quartic", energy=lambda x, p: 0.5 * p * p + 0.25 * x ** 4,
        dd_x=lambda x, x1, p, p1: 0.25 * (x + x1) * (x * x + x1 * x1),
        dd_p=lambda x, x1, p, p1: 0.5 * (p + p1),
        partials={
            "x": lambda x, p: x ** 3,
            "p": lambda x, p: p,
            "xx": lambda x, p: 3.0 * x * x,
            "xp": lambda x, p: 0.0,
            "pp": lambda x, p: 1.0,
        })


def test_kick_drift_runs_a_system_built_without_a_flag():
    # its p partial returns p, so sp-4 takes it
    quartic = _quartic()
    assert quartic.quadratic_kinetic
    step = make_stepper("sp-4", quartic)
    s, drift = PhaseState(0.0, 1.0), 0.0
    for _ in range(1000):
        s, _ = step(s, 0.1)
        drift = max(drift, abs(eval_energy(quartic, s) - 0.5))
    # bounded, O(h^4): the largest |dE| is 6.4e-5 (leap-frog: 2.4e-3)
    assert drift < 1e-4


def test_leapfrog_order_two():
    harm = make_harmonic(1.0)
    slope = _order_slope(lambda s, h: step_leapfrog(harm, s, h),
                         _harmonic_exact, [0.2, 0.1, 0.05, 0.025], 2.0)
    assert 1.7 <= slope <= 2.3


def test_rk4_linear_is_truncated_exponential():
    harm = make_harmonic(1.0)
    h = 0.3
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    T = np.eye(2)
    term = np.eye(2)
    for k in range(1, 5):
        term = term @ (h * A) / k
        T = T + term
    for z0 in (np.array([1.0, 0.0]), np.array([0.3, -1.2])):
        s = step_rk4(harm, PhaseState(*z0), h)
        assert np.array([s.x, s.p]) == pytest.approx(T @ z0, abs=1e-14)


def test_rk4_order_four(pendulum):
    slope = _order_slope(lambda s, h: step_rk4(pendulum, s, h),
                         lambda t: pendulum_exact(1.8, t),
                         [0.2, 0.1, 0.05, 0.025], 2.0)
    assert 3.7 <= slope <= 4.3


def test_rk4_energy_decreases_monotonically(pendulum):
    # the trend is monotone at sampling stride; per-step values carry a
    # small oscillation (~2e-5) on top of the decay
    s = PhaseState(0.0, 1.8)
    prev = eval_energy(pendulum, s)
    for _ in range(20):
        for _ in range(100):
            s = step_rk4(pendulum, s, 0.25)
        e = eval_energy(pendulum, s)
        assert e < prev
        prev = e


def test_taylor_one_is_euler(pendulum, rng):
    for _ in range(10):
        s = PhaseState(rng.uniform(-2, 2), rng.uniform(-2, 2))
        nxt = step_taylor(pendulum, s, 0.25, 1)
        assert nxt.x == pytest.approx(s.x + 0.25 * s.p, rel=1e-15)
        assert nxt.p == pytest.approx(s.p - 0.25 * math.sin(s.x), rel=1e-15)


def test_taylor_harmonic_matches_polynomial_rotation():
    harm = make_harmonic(1.0)
    h = 0.4
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    T = np.eye(2)
    term = np.eye(2)
    for k in range(1, 11):
        term = term @ (h * A) / k
        T = T + term
    z0 = np.array([0.7, 0.9])
    s = step_taylor(harm, PhaseState(*z0), h, 10)
    assert np.array([s.x, s.p]) == pytest.approx(T @ z0, abs=1e-14)


def test_taylor_truncation_ratio(pendulum):
    # step_taylor(N) - step_taylor(N+1) scales as h^(N+1)
    s0 = PhaseState(0.4, 1.3)
    for N in (3, 6):
        diffs = []
        for h in (0.2, 0.1):
            a = step_taylor(pendulum, s0, h, N)
            b = step_taylor(pendulum, s0, h, N + 1)
            diffs.append(max(abs(a.x - b.x), abs(a.p - b.p)))
        ratio = diffs[0] / diffs[1]
        assert ratio == pytest.approx(2.0 ** (N + 1), rel=0.15)


def test_taylor_five_energy_grows(pendulum):
    s = PhaseState(0.0, 1.8)
    e0 = eval_energy(pendulum, s)
    drift = []
    for n in range(1, 10 ** 4 + 1):
        s = step_taylor(pendulum, s, 0.25, 5)
        if n % 500 == 0:
            drift.append(abs(eval_energy(pendulum, s) - e0))
    assert drift[-1] > 1e-2
    assert all(b >= a * 0.99 for a, b in zip(drift, drift[1:]))


def test_sp_coefficient_sums():
    for M in (1, 2, 3, 4):
        co = sp_coefficients(M)
        assert len(co.d) == 3 ** (M - 1) and all(co.d)
        assert len(co.c) == len(co.d) + 1
        assert math.fsum(co.c) == pytest.approx(1.0, abs=1e-13)
        assert math.fsum(co.d) == pytest.approx(1.0, abs=1e-13)


def test_sp1_closed_form():
    co = sp_coefficients(1)
    assert co.c == [0.5, 0.5]
    assert co.d == [1.0]


def test_sp2_closed_form():
    co = sp_coefficients(2)
    r = 2.0 ** (1.0 / 3.0)
    c1 = 1.0 / (2.0 * (2.0 - r))
    c2 = (1.0 - r) / (2.0 * (2.0 - r))
    d1 = 1.0 / (2.0 - r)
    d2 = -r / (2.0 - r)
    assert co.c == pytest.approx([c1, c2, c2, c1], abs=1e-15)
    assert co.d == pytest.approx([d1, d2, d1], abs=1e-15)


def test_force_evaluations_per_step(monkeypatch):
    # a kick-drift step costs one V' per kick: 3^(M-1) for sp-2M, one for lf
    harm = make_harmonic(1.0)
    vprime = harm.partials["x"]
    calls = []

    def counted(x, p):
        calls.append(x)
        return vprime(x, p)
    harm = dataclasses.replace(harm, partials=dict(harm.partials, x=counted))
    s = PhaseState(0.3, 1.1)
    for M in (1, 2, 3, 4):
        calls.clear()
        step_symplectic(harm, s, 0.25, sp_coefficients(M))
        assert len(calls) == 3 ** (M - 1)
    # the generated block writes the recorded V' in once per kick; on the
    # pendulum, V' = gsin(x) is the step's only sine, and a block built
    # after this binds the counting one
    sines = []

    def counted_sin(v):
        sines.append(v)
        return math.sin(v)
    monkeypatch.setitem(jets.FLOAT_HELPERS, "gsin", counted_sin)
    pendulum = make_pendulum()
    for scheme, kicks in (("lf", 1), ("sp-2", 1), ("sp-4", 3), ("sp-6", 9),
                          ("sp-8", 27)):
        sines.clear()
        make_stepper(scheme, pendulum)(s, 0.25)
        assert len(sines) == kicks, scheme


def test_sp_bad_order():
    with pytest.raises(UnsupportedSchemeError):
        sp_coefficients(0)
    with pytest.raises(UnsupportedSchemeError):
        sp_coefficients(5)


def test_symplectic_jacobian_determinant(pendulum, rng):
    co = sp_coefficients(2)
    eps = 1e-6
    for _ in range(10):
        s = PhaseState(rng.uniform(-2, 2), rng.uniform(-2, 2))
        J = np.empty((2, 2))
        for j, (dx, dp) in enumerate(((eps, 0.0), (0.0, eps))):
            a = step_symplectic(pendulum, PhaseState(s.x + dx, s.p + dp),
                                0.25, co)
            b = step_symplectic(pendulum, PhaseState(s.x - dx, s.p - dp),
                                0.25, co)
            J[0, j] = (a.x - b.x) / (2 * eps)
            J[1, j] = (a.p - b.p) / (2 * eps)
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_sp_empirical_order(M):
    harm = make_harmonic(1.0)
    co = sp_coefficients(M)
    slope = _order_slope(lambda s, h: step_symplectic(harm, s, h, co),
                         _harmonic_exact, [0.2, 0.1, 0.05, 0.025], 2.0)
    assert slope >= 2 * M - 0.3


def test_lf_sp4_energy_bounded(pendulum):
    co = sp_coefficients(2)
    for step in (lambda s: step_leapfrog(pendulum, s, 0.25),
                 lambda s: step_symplectic(pendulum, s, 0.25, co)):
        s = PhaseState(0.0, 1.8)
        e0 = eval_energy(pendulum, s)
        early = 0.0
        worst = 0.0
        for n in range(1, 10 ** 5 + 1):
            s = step(s)
            err = abs(eval_energy(pendulum, s) - e0)
            worst = max(worst, err)
            if n == 10 ** 3:
                early = worst
        assert worst < 10.0 * early


def _hand_written(scheme, sys):
    """The hand-written step of an explicit scheme id, the reference its
    generated block must equal."""
    if scheme == "rk4":
        return lambda s, h: step_rk4(sys, s, h)
    if scheme.startswith("tay-"):
        return lambda s, h: step_taylor(sys, s, h, int(scheme[4:]))
    if scheme == "lf":
        return lambda s, h: step_leapfrog(sys, s, h)
    co = sp_coefficients(int(scheme[3:]) // 2)
    return lambda s, h: step_symplectic(sys, s, h, co)


@pytest.mark.parametrize("scheme, system", [
    (scheme, system)
    for scheme in ("lf", "sp-4", "sp-6", "rk4", "tay-1", "tay-10", "tay-16")
    for system in ("pendulum", "harmonic:1.3", "crossterm:0.5")
    # the kick-drift schemes need H = p^2/2 + V(x)
    if system != "crossterm:0.5" or not scheme.startswith(("lf", "sp-"))])
def test_block_equals_the_hand_written_step(scheme, system):
    # a run's block makes the hand-written step's operations in their
    # order: the state after 200 steps is the same to the bit
    rng = random.Random(26)
    sys = system_from_name(system)
    step = _hand_written(scheme, sys)
    for _ in range(4):
        x0, p0 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        for h in (0.25, 0.1):
            s = PhaseState(x0, p0)
            for _ in range(200):
                s = step(s, h)
            rec = run_trajectory(ExperimentSpec(scheme, system, p0, h, 200,
                                                x0=x0, sample_stride=200))
            assert (rec.samples[-1].x, rec.samples[-1].p) == (s.x, s.p)
            assert rec.metadata["iterations"]["histogram"] == {0: 200}


def test_kick_drift_block_rejects_nonseparable():
    # resolving the block refuses the system before any step
    for scheme in ("lf", "sp-4", "sp-6"):
        with pytest.raises(UnsupportedSchemeError,
                           match=r"need H = p\^2/2 \+ V\(x\), got "
                                 "'crossterm:0.5'"):
            run_trajectory(ExperimentSpec(scheme, "crossterm:0.5", 1.0, 0.25,
                                          10))


def test_taylor_keeps_a_negative_zero_momentum():
    # from (0, -0.0) sin's series sums its -0.0 terms onto its zero seed
    # 0.0 * sin(0) = +0.0, so p2 = s1 / -2 and every p_k is -0.0, and p
    # stays -0.0 at every step; without the seed p2 and p would be +0.0
    for scheme in ("tay-3", "tay-10"):
        rec = run_trajectory(ExperimentSpec(scheme, "pendulum", -0.0, 0.25,
                                            40, sample_stride=1))
        assert len(rec.samples) == 41
        for s in rec.samples:
            assert s.x == 0.0 and math.copysign(1.0, s.p) == -1.0, s
