"""Discrete-gradient steps and the denominator-function variants."""

import cmath
import math

import numpy as np
import pytest

from discgrad.errors import DivergenceError, ResonanceStepError
from discgrad.exactlin import exact_step_map
from discgrad.hamiltonian import (PhaseState, eval_energy, linearize,
                                  make_harmonic, system_from_name)
from discgrad.schemes import (DeltaRule, SolverConfig, delta_lex,
                              delta_series, delta_series_coefficients,
                              discrete_gradient_residual,
                              local_exactness_matrix, omega_sq_at,
                              step_gradient, step_gradient_info)


def rand_state(rng, span=2.5):
    return PhaseState(rng.uniform(-span, span), rng.uniform(-span, span))


def test_delta_lex_values():
    assert delta_lex(1.0, math.pi / 2) == pytest.approx(2.0, rel=1e-14)
    assert delta_lex(0.0, 0.25) == 0.25
    assert delta_lex(-1.0, 0.25) == pytest.approx(2.0 * math.tanh(0.125),
                                                  rel=1e-14)


def test_delta_lex_negative_branch_vs_complex(rng):
    # (2/w) tan(h w / 2) with imaginary w collapses to the tanh form
    for _ in range(25):
        mu2 = rng.uniform(0.05, 4.0)
        h = rng.uniform(0.05, 0.8)
        w = complex(0.0, math.sqrt(mu2))
        ref = (2.0 / w) * cmath.tan(0.5 * h * w)
        assert abs(ref.imag) < 1e-15
        assert delta_lex(-mu2, h) == pytest.approx(ref.real, rel=1e-13)


def test_delta_lex_resonance_and_domain():
    with pytest.raises(ResonanceStepError):
        delta_lex(1.0, math.pi)
    with pytest.raises(ValueError):
        delta_lex(1.0, 0.0)


def test_delta_rules_consistency_limit(pendulum):
    # every rule satisfies delta/h -> 1
    s = PhaseState(0.8, 1.1)
    h = 1e-6
    rules = [DeltaRule.gr(), DeltaRule.mod_gr(0.0), DeltaRule.lex(),
             DeltaRule.slex(), DeltaRule.series(5),
             DeltaRule(lambda sys, x, p, hh: hh * (1.0 + hh))]
    for rule in rules:
        d = rule.value_at(pendulum, s, h)
        assert d / h == pytest.approx(1.0, abs=1e-4)


def test_mod_gr_caches_per_h(pendulum):
    rule = DeltaRule.mod_gr(0.0)
    d1 = rule.value_at(pendulum, PhaseState(0.5, 0.5), 0.25)
    d2 = rule.value_at(pendulum, PhaseState(-1.0, 2.0), 0.25)
    assert d1 == d2 == delta_lex(1.0, 0.25)
    # the remembered delta belongs to one system: another gets its own
    other = make_harmonic(2.0)
    d3 = rule.value_at(other, PhaseState(0.5, 0.5), 0.25)
    assert d3 == delta_lex(4.0, 0.25) != d1
    assert rule.value_at(pendulum, PhaseState(0.5, 0.5), 0.25) == d1


def test_series_coefficients_closed_forms(pendulum, rng):
    for _ in range(50):
        s = rand_state(rng)
        a = delta_series_coefficients(pendulum, s, 5)
        x, p = s.x, s.p
        a3 = math.cos(x) / 12.0
        a4 = -p * math.sin(x) / 24.0
        a5 = (-9.0 * p * p * math.cos(x) + 12.0 * math.sin(x) ** 2
              + 6.0 * math.cos(x) ** 2) / 720.0
        assert a[0] == 1.0
        assert a[1] == pytest.approx(0.0, abs=1e-12)
        assert a[2] == pytest.approx(a3, rel=1e-10, abs=1e-12)
        assert a[3] == pytest.approx(a4, rel=1e-10, abs=1e-12)
        assert a[4] == pytest.approx(a5, rel=1e-10, abs=1e-11)


def test_series_coefficients_nonseparable_lead(crossterm, rng):
    for _ in range(20):
        s = rand_state(rng)
        a = delta_series_coefficients(crossterm, s, 4)
        assert a[0] == pytest.approx(1.0, rel=1e-12)
        assert a[1] == pytest.approx(0.0, abs=1e-11)


def test_series_stable_near_turning_point(pendulum):
    # the quotient is ill conditioned where H_p ~ 0; the extended-precision
    # fallback must keep coefficients smooth through the whole band
    x = 2.24
    ref = delta_series_coefficients(pendulum, PhaseState(x, 0.0), 9)
    for p in (1e-4, 1e-7, 1e-10, 1e-13):
        a = delta_series_coefficients(pendulum, PhaseState(x, p), 9)
        for got, want in zip(a, ref):
            # coefficients are smooth in p, so they sit within O(p) of the
            # limit; without the fallback the high orders blow up by 1e10+
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8 + 10.0 * p)


def test_series_trivial_flow_returns_h(harmonic):
    # equilibrium: the flow is constant, the quotient degenerates to h
    assert delta_series(harmonic, PhaseState(0.0, 0.0), 0.3, 5) == 0.3


def test_series_order_bounds(pendulum):
    with pytest.raises(ValueError):
        delta_series(pendulum, PhaseState(0.0, 1.0), 0.1, 0)
    with pytest.raises(ValueError):
        DeltaRule.series(17)
    # order N needs N + 2 flow coefficients, and the flow stops at 16
    for N in (15, 16):
        with pytest.raises(ValueError, match=r"\[1, 14\]"):
            DeltaRule.series(N)
        with pytest.raises(ValueError):
            delta_series_coefficients(pendulum, PhaseState(0.0, 1.0), N)
    assert len(delta_series_coefficients(pendulum, PhaseState(0.0, 1.0),
                                         14)) == 14


def test_gr1_gr2_identical_to_gr(pendulum, rng):
    cfg = SolverConfig()
    for _ in range(10):
        s = rand_state(rng)
        base = step_gradient(pendulum, DeltaRule.gr(), s, 0.25, cfg)
        for N in (1, 2):
            alt = step_gradient(pendulum, DeltaRule.series(N), s, 0.25, cfg)
            assert abs(alt.x - base.x) <= 1e-14
            assert abs(alt.p - base.p) <= 1e-14


def test_residual_zero_at_solution(pendulum, rng):
    cfg = SolverConfig()
    for _ in range(10):
        s = rand_state(rng)
        nxt = step_gradient(pendulum, DeltaRule.gr(), s, 0.25, cfg)
        r_x, r_p = discrete_gradient_residual(pendulum, s, nxt, 0.25)
        assert abs(r_x) <= 1e-12 and abs(r_p) <= 1e-12


def test_residual_midpoint_limit(pendulum):
    # p unchanged: the x-equation divided difference is the exact midpoint
    s = PhaseState(0.3, 1.2)
    nxt = PhaseState(0.6, 1.2)
    r_x, _ = discrete_gradient_residual(pendulum, s, nxt, 0.25)
    assert r_x == pytest.approx((0.6 - 0.3) / 0.25 - 1.2, rel=1e-14)


def test_energy_preserved_for_random_delta(pendulum, rng):
    # the conservation property holds for ANY positive denominator
    h = 0.25
    cfg = SolverConfig()
    s = PhaseState(0.0, 1.8)
    e0 = eval_energy(pendulum, s)
    state = {"d": h}
    rule = DeltaRule(lambda sys, x, p, hh: state["d"])
    worst = 0.0
    for _ in range(10 ** 4):
        state["d"] = h * rng.uniform(0.5, 1.5)
        s = step_gradient(pendulum, rule, s, h, cfg)
        worst = max(worst, abs(eval_energy(pendulum, s) - e0))
    assert worst <= 1e-10


def test_energy_preserved_nonseparable(crossterm):
    cfg = SolverConfig()
    s = PhaseState(0.3, 0.9)
    e0 = eval_energy(crossterm, s)
    for _ in range(2000):
        s = step_gradient(crossterm, DeltaRule.gr(), s, 0.2, cfg)
        assert abs(eval_energy(crossterm, s) - e0) <= 1e-11


def test_gr_lex_exact_on_harmonic(rng):
    # quadratic H: the linearization is global, so the lex step is exact
    sysq = make_harmonic(1.0)
    cfg = SolverConfig()
    h = 0.25
    for _ in range(10):
        s = rand_state(rng)
        nxt = step_gradient(sysq, DeltaRule.lex(), s, h, cfg)
        cx = s.x * math.cos(h) + s.p * math.sin(h)
        cp = -s.x * math.sin(h) + s.p * math.cos(h)
        assert nxt.x == pytest.approx(cx, abs=5e-14)
        assert nxt.p == pytest.approx(cp, abs=5e-14)


def test_time_reversal_symmetry(pendulum, rng):
    cfg = SolverConfig()
    h = 0.25
    s = PhaseState(0.4, 1.3)
    for rule in (DeltaRule.gr(), DeltaRule.slex()):
        fwd = step_gradient(pendulum, rule, s, h, cfg)
        back = step_gradient(pendulum, rule, fwd, -h, cfg)
        assert max(abs(back.x - s.x), abs(back.p - s.p)) <= 1e-13
    # the start-point lex rule is not symmetric
    rule = DeltaRule.lex()
    fwd = step_gradient(pendulum, rule, s, h, cfg)
    back = step_gradient(pendulum, rule, fwd, -h, cfg)
    assert max(abs(back.x - s.x), abs(back.p - s.p)) > 1e-13 * 100


def test_iteration_counts_reported(pendulum):
    nxt, its = step_gradient_info(pendulum, DeltaRule.gr(),
                                  PhaseState(0.0, 1.8), 0.25)
    assert its >= 2
    assert nxt.t == pytest.approx(0.25)


def test_equilibrium_kept_where_newton_matrix_is_singular(pendulum):
    # at the saddle (pi, 0), w^2 = -1 and gr's J = I - (h/2) A is singular
    # for h = +-2; the step must still return the equilibrium
    for h in (2.0, -2.0, 1.999999):
        nxt = step_gradient(pendulum, DeltaRule.gr(), PhaseState(math.pi, 0.0),
                            h)
        assert abs(nxt.x - math.pi) <= 1e-15 and abs(nxt.p) <= 1e-15


def test_overflowing_predictor_is_divergence(pendulum):
    with pytest.raises(DivergenceError, match="Euler predictor"):
        step_gradient(pendulum, DeltaRule.gr(), PhaseState(0.0, 1.8), 1e308)


def test_linear_systems_converge_at_any_h():
    # the Newton matrix is exact for a quadratic H
    for name in ("harmonic:1", "crossterm:0.5"):
        sys = system_from_name(name)
        s = PhaseState(0.0, 1.0)
        e0 = eval_energy(sys, s)
        for _ in range(20):
            s, its = step_gradient_info(sys, DeltaRule.gr(), s, 10.0)
            assert its <= 3
            assert abs(eval_energy(sys, s) - e0) <= 1e-13


def test_convergence_domain():
    # every one of these 792 inputs converges (none meets the tan pole of a
    # locally exact delta); the plain fixed-point solve failed on 45
    rules = (DeltaRule.gr(), DeltaRule.mod_gr(0.0), DeltaRule.lex(),
             DeltaRule.slex(), DeltaRule.series(3), DeltaRule.series(7))
    p0s = (0.02, 0.5, 1.0, 1.5, 1.8, 1.99, 2.001, 2.2, 2.5, 3.0, 4.0, 5.0,
           10.0, 20.0)
    inputs = 0
    for name in ("pendulum", "harmonic:1.3", "crossterm:0.5"):
        sys = system_from_name(name)
        for rule in rules:
            for p0 in p0s:
                for h in (0.25, 0.5, 0.75, 1.0):
                    if h * p0 > 2.5:
                        continue
                    inputs += 1
                    s = PhaseState(0.0, p0)
                    for _ in range(40):
                        s = step_gradient(sys, rule, s, h)
    assert inputs == 792


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_local_exactness_lex_equals_exact_map(pendulum, rng):
    h = 0.25
    for _ in range(100):
        s = rand_state(rng)
        if omega_sq_at(pendulum, s.x, s.p) > (math.pi / h) ** 2:
            continue
        lem = local_exactness_matrix(pendulum, DeltaRule.lex(), s, h)
        ex = exact_step_map(linearize(pendulum, s), h)
        assert np.max(np.abs(lem.M - ex.M)) <= 1e-12
        assert np.max(np.abs(lem.w - ex.w)) <= 1e-12


def test_local_exactness_gr_is_cayley(harmonic):
    h = 0.25
    lem = local_exactness_matrix(harmonic, DeltaRule.gr(),
                                 PhaseState(0.7, -0.4), h)
    A = linearize(harmonic, PhaseState(0.7, -0.4)).A
    cayley = (np.eye(2) + 0.5 * h * A) @ np.linalg.inv(np.eye(2) - 0.5 * h * A)
    assert lem.M == pytest.approx(cayley, abs=1e-13)
    assert np.linalg.det(lem.M) == pytest.approx(1.0, abs=1e-14)


def test_local_exactness_w_identity_any_delta(pendulum, rng):
    # w == (M - I) A^{-1} b holds for every denominator choice
    h = 0.25
    for rule in (DeltaRule.gr(), DeltaRule.lex(), DeltaRule.series(4),
                 DeltaRule(lambda sys, x, p, hh: 1.17 * hh)):
        for _ in range(10):
            s = rand_state(rng)
            lin = linearize(pendulum, s)
            if abs(np.linalg.det(lin.A)) < 1e-3:
                continue
            try:
                lem = local_exactness_matrix(pendulum, rule, s, h)
            except ResonanceStepError:
                continue
            want = (lem.M - np.eye(2)) @ np.linalg.solve(lin.A, lin.b)
            assert lem.w == pytest.approx(want, abs=1e-12)


def test_lex_trig_identities(pendulum, rng):
    # (1 - w^2 d^2/4)/(1 + w^2 d^2/4) = cos(hw), d/(1 + w^2 d^2/4) = sin(hw)/w
    h = 0.25
    for _ in range(30):
        s = rand_state(rng)
        w2 = omega_sq_at(pendulum, s.x, s.p)
        if w2 <= 1e-6:
            continue
        d = delta_lex(w2, h)
        w = math.sqrt(w2)
        den = 1.0 + 0.25 * w2 * d * d
        assert (1.0 - 0.25 * w2 * d * d) / den == pytest.approx(
            math.cos(h * w), rel=1e-13, abs=1e-13)
        assert d / den == pytest.approx(math.sin(h * w) / w, rel=1e-13)
