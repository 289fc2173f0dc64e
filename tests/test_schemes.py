"""Discrete-gradient steps and the denominator-function variants."""

import ast
import cmath
import collections
import dataclasses
import functools
import itertools
import math
import random

import mpmath

import numpy as np
import pytest

from discgrad import hamiltonian, harness, jets, schemes
from discgrad.errors import (DivergenceError, NonConvergenceError,
                             ResonanceStepError, StepError)
from discgrad.exactlin import exact_step_map
from discgrad.hamiltonian import (HamiltonianSystem, PhaseState, eval_energy,
                                  linearize, make_harmonic, system_from_name,
                                  taylor_flow_coeffs)
from discgrad.harness import ExperimentSpec, run_trajectory
from discgrad.jets import Jet, gcos, gsin, horner
from discgrad.schemes import (_DEFLATE_EXTRA, _ROOT_NEAR, MAX_ITER,
                              DeltaRule, _cancel_and_divide, _deflate,
                              _parts_function, _plain_amp_limit,
                              _series_delta, _series_function,
                              _shared_root, delta_lex,
                              delta_series, delta_series_coefficients,
                              discrete_gradient_residual,
                              local_exactness_matrix, omega_sq_at,
                              step_gradient, step_gradient_info)
from test_baselines import _quartic
from test_hamiltonian import _drift, _relativistic_softplus


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


def tan_series(omega_sq, N):
    """[a_1, ..., a_N] of the locally exact (2/w) tan(h w / 2)."""
    w = math.sqrt(omega_sq)
    sin, cos = Jet([0.0, 0.5 * w] + [0.0] * (N - 1)).sin_cos()
    return [2.0 / w * c for c in (sin / cos).coeffs[1:]]


# a start and two states 1.2e-12 apart on one crossterm:0.5 trajectory from
# (0, 20) at h = 1; a quotient of energies, which cancel, gives gr-7 deltas
# 2.5e-7 apart there
CROSSTERM_STATES = ((0.0, 20.0),
                    (11.944279749508999, -23.089401219639726),
                    (11.944279749507796, -23.08940121963975))


def test_series_of_linear_flow_is_locally_exact():
    # on a quadratic H the step with (2/w) tan(h w / 2) is exact, so the
    # order-N delta is that series whatever the state
    for name, omega_sq in (("crossterm:0.5", 0.75), ("harmonic:1.3", 1.69)):
        sys = system_from_name(name)
        for x, p in CROSSTERM_STATES:
            for N in (3, 7, 12):
                a = delta_series_coefficients(sys, PhaseState(x, p), N)
                assert a == pytest.approx(tan_series(omega_sq, N),
                                          rel=1e-12, abs=1e-16)


def four_term_series(sys, x, p, N):
    """[a_1, ..., a_N] of 2 (X - x)(P - p) / [H(X,P) + H(x,P) - H(X,p)
    - H(x,p)] on the flow jets, at 50 digits: the quotient written with
    energies alone, which cancels too much to run in floats."""
    with mpmath.workdps(50):
        x, p = mpmath.mpf(x), mpmath.mpf(p)
        X, P = taylor_flow_coeffs(sys, PhaseState(x, p), N + 2)
        H = sys.energy
        num = 2.0 * ((X - x) * (P - p))
        den = H(X, P) + H(x, P) - H(X, p) - H(x, p)
        scale = max(map(abs, den.coeffs))
        k = next(i for i, c in enumerate(den.coeffs) if abs(c) > 1e-30 * scale)
        return [float(c) for c in _cancel_and_divide(num.coeffs, den.coeffs,
                                                      k, N)]


def test_series_matches_four_term_energy_quotient():
    rng = random.Random(7)
    for name in ("pendulum", "harmonic:1.3", "crossterm:0.5"):
        sys = system_from_name(name)
        checked = 0
        while checked < 100:
            x, p = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
            if abs(sys.partials["p"](x, p)) < 0.1:
                continue
            checked += 1
            ref = four_term_series(sys, x, p, 7)
            scale = max(map(abs, ref))
            for N in range(1, 8):
                a = delta_series_coefficients(sys, PhaseState(x, p), N)
                assert max(abs(u - v) for u, v in zip(a, ref)) \
                    <= 1e-10 * scale, (name, x, p, N)


def test_series_with_constant_h_p():
    # H = 2p + x^2/2: dd_p is the plain constant 2, and the flow's
    # X - x = 2h meets the x-equation with delta = h
    sys = HamiltonianSystem(
        name="drift", energy=lambda x, p: 2.0 * p + 0.5 * x * x,
        dd_x=lambda x, x1, p, p1: 0.5 * (x + x1),
        dd_p=lambda x, x1, p, p1: 2.0,
        partials={"x": lambda x, p: x, "p": lambda x, p: 2.0,
                  "xx": lambda x, p: 1.0, "xp": lambda x, p: 0.0,
                  "pp": lambda x, p: 0.0})
    assert delta_series_coefficients(sys, PhaseState(0.3, -0.7), 5) \
        == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_series_stable_near_turning_point(pendulum):
    # the plain quotient is ill conditioned where H_p ~ 0; deflating the
    # root that X - x and dd_p share must keep coefficients smooth through
    # the whole band
    x = 2.24
    ref = delta_series_coefficients(pendulum, PhaseState(x, 0.0), 9)
    for p in (1e-4, 1e-7, 1e-10, 1e-13):
        a = delta_series_coefficients(pendulum, PhaseState(x, p), 9)
        for got, want in zip(a, ref):
            # coefficients are smooth in p, so they sit within O(p) of the
            # limit; divided plainly the high orders blow up by 1e10+
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8 + 10.0 * p)


def _final_state(name, scheme, p0, h, n):
    rec = run_trajectory(ExperimentSpec(scheme=scheme, system=name, p0=p0,
                                        h=h, n_steps=n, sample_stride=n))
    return rec.samples[-1]


def test_gr_n_error_falls_with_order_to_14():
    # t = 500 at h = 0.25; a plain division near turning points left gr-12
    # and gr-14 at 3.6e-3 and 7.4e-2 from p0 1.8 (8.7e-2 and 0.3 from 0.5)
    for p0 in (0.5, 1.8):
        errs = [_final_state("pendulum", f"gr-{N}", p0, 0.25, 2000).global_err
                for N in (7, 9, 12, 14)]
        assert all(a > b for a, b in zip(errs, errs[1:])), (p0, errs)
        assert errs[2] <= 1e-10 and errs[3] <= 1e-11, (p0, errs)
    # crossterm:0.5 is linear, so its exact flow is the linearized one
    sys = system_from_name("crossterm:0.5")
    end = _final_state("crossterm:0.5", "gr-12", 1.0, 0.25, 2000)
    want = exact_step_map(linearize(sys, PhaseState(0.0, 0.0)),
                          500.0).apply((0.0, 1.0))
    assert max(abs(end.x - want[0]), abs(end.p - want[1])) <= 1e-10


def reference_series_coefficients(sys, s, N):
    """[a_1, ..., a_N] at 400 digits: the generated parts on mpmath.mpf
    inputs, then the plain division, which that precision makes exact to
    far below a float's eps."""
    code = sys._code
    with mpmath.workdps(400):
        num, den = _parts_function(code, N)(mpmath.mpf(s.x), mpmath.mpf(s.p))
        scale = max(map(abs, den))
        k = next(i for i, c in enumerate(den) if abs(c) > 1e-13 * scale)
        return [float(c) for c in _cancel_and_divide(num, den, k, N)]


def _reference_bands(rng, n):
    """Seeded (system, x, p) in four bands: generic; H_p from 1e-8 to 0.1;
    the pendulum saddle; fast rotation."""
    names = ("pendulum", "harmonic:1.3", "crossterm:0.5")

    def sign():
        return rng.choice((1.0, -1.0))
    generic = [(name, rng.uniform(-3, 3), rng.uniform(-3, 3))
               for name in names for _ in range(n)]
    near_hp = []
    for name in names:
        for _ in range(n):
            x, hp = rng.uniform(-3, 3), sign() * 10.0 ** rng.uniform(-8, -1)
            near_hp.append((name, x, hp - 0.5 * x if name == "crossterm:0.5"
                            else hp))
    saddle = [("pendulum", rng.uniform(2.5, math.pi - 4e-9),
               sign() * 10.0 ** rng.uniform(-6, -2)) for _ in range(3 * n)]
    fast = [(name, rng.uniform(-3, 3), sign() * rng.uniform(5, 20))
            for name in names for _ in range(n)]
    return {"generic": generic, "near H_p = 0": near_hp, "saddle": saddle,
            "fast rotation": fast}


def test_series_coefficients_match_400_digit_reference():
    # a plain float division was off by up to 1e16 of the largest
    # coefficient near H_p = 0 and 8e15 in the saddle band
    systems = {}
    for band, states in _reference_bands(random.Random(14), 8).items():
        for name, x, p in states:
            sys = systems.setdefault(name, system_from_name(name))
            s = PhaseState(x, p)
            for N in (3, 7, 12, 14):
                ref = reference_series_coefficients(sys, s, N)
                got = delta_series_coefficients(sys, s, N)
                err = max(abs(a - b) for a, b in zip(got, ref))
                assert err <= 1e-8 * max(map(abs, ref)), (band, name, x, p, N)


def test_deflate_divides_out_a_linear_factor():
    # (h - r)(2 - h + 3h^2) = -2r + (2 + r) h - (1 + 3r) h^2 + 3 h^3
    r = 0.125
    assert _deflate([-2 * r, 2 + r, -(1 + 3 * r), 3.0], r) == [2.0, -1.0, 3.0]
    # the remainder, here 1, is dropped
    assert _deflate([1 - 2 * r, 2 + r, -(1 + 3 * r), 3.0], r) \
        == [2.0, -1.0, 3.0]


def test_shared_root_found_or_a_typed_failure():
    b = [-0.25, 2.0, 1.0]
    assert _shared_root(b, 0.0, 0.0) == pytest.approx(-1.0 + math.sqrt(1.25),
                                                       rel=1e-15)
    # 1 + h + h^2 has no real root: Newton wanders and the state is named
    with pytest.raises(NonConvergenceError, match=r"series delta at \(0\.3, "):
        _shared_root([1.0, 1.0, 1.0], 0.3, 1e-9)
    # 1 + 2h + 2h^2 has a flat point at the first guess -1/2: Newton's
    # derivative is 0 there, and the failure is typed at once
    with pytest.raises(NonConvergenceError, match="no shared turning-point"):
        _shared_root([1.0, 2.0, 2.0], 0.3, 1e-9)


def test_series_trivial_flow_returns_h(harmonic):
    # equilibrium: the flow is constant, the quotient degenerates to h
    assert delta_series(harmonic, PhaseState(0.0, 0.0), 0.3, 5) == 0.3


def test_series_order_bounds(pendulum):
    with pytest.raises(ValueError):
        delta_series(pendulum, PhaseState(0.0, 1.0), 0.1, 0)
    with pytest.raises(ValueError):
        DeltaRule.series(17)
    # past N = 14 the error rises again at larger h
    for N in (15, 16):
        with pytest.raises(ValueError, match=r"\[1, 14\]"):
            DeltaRule.series(N)
        with pytest.raises(ValueError):
            delta_series_coefficients(pendulum, PhaseState(0.0, 1.0), N)
    assert len(delta_series_coefficients(pendulum, PhaseState(0.0, 1.0),
                                         14)) == 14


def test_cancel_and_divide_tan_like():
    # (h^2 + h^4/3) / h, with the common h cancelled: tan(h)/h to order 2
    num = Jet([0.0, 0.0, 1.0, 0.0, 1.0 / 3.0])
    den = Jet([0.0, 1.0, 0.0, 0.0, 0.0])
    assert _cancel_and_divide(num.coeffs, den.coeffs, 1, 3) \
        == [1.0, 0.0, 1.0 / 3.0]


def shift_divide_truncate(num, den, k, N):
    """The reference quotient on jets: num shifted down by k + 1 and den
    by k, each zero-filled at the top by zeros of its constant term's sign,
    divided at full order and truncated to N coefficients."""
    def down(jet, m):
        zero = 0.0 * jet.coeffs[0]
        return Jet(jet.coeffs[m:] + [zero] * m)
    return (down(num, k + 1) / down(den, k)).coeffs[:N]


def test_cancel_and_divide_equals_jet_division(rng):
    # from k = 3 on, the shifted num runs out within N = 1 coefficients
    for k in (0, 1, 2, 3):
        for N in (1, 7, 14):
            for _ in range(20):
                # the cancelled leading coefficients are dropped whatever
                # they hold; their signs set the signs of the padding zeros
                num = Jet([rng.uniform(-2.0, 2.0) for _ in range(N + 3)])
                den = Jet([0.0] * k + [rng.uniform(-2.0, 2.0)
                                       for _ in range(N + 3 - k)])
                assert repr(_cancel_and_divide(num.coeffs, den.coeffs, k, N)) \
                    == repr(shift_divide_truncate(num, den, k, N))


def test_gr1_gr2_identical_to_gr(pendulum, rng):
    for _ in range(10):
        s = rand_state(rng)
        base = step_gradient(pendulum, DeltaRule.gr(), s, 0.25)
        for N in (1, 2):
            alt = step_gradient(pendulum, DeltaRule.series(N), s, 0.25)
            assert abs(alt.x - base.x) <= 1e-14
            assert abs(alt.p - base.p) <= 1e-14


def test_residual_zero_at_solution(pendulum, rng):
    for _ in range(10):
        s = rand_state(rng)
        nxt = step_gradient(pendulum, DeltaRule.gr(), s, 0.25)
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
    s = PhaseState(0.0, 1.8)
    e0 = eval_energy(pendulum, s)
    state = {"d": h}
    rule = DeltaRule(lambda sys, x, p, hh: state["d"])
    worst = 0.0
    for _ in range(10 ** 4):
        state["d"] = h * rng.uniform(0.5, 1.5)
        s = step_gradient(pendulum, rule, s, h)
        worst = max(worst, abs(eval_energy(pendulum, s) - e0))
    assert worst <= 1e-10


def test_energy_preserved_nonseparable(crossterm):
    s = PhaseState(0.3, 0.9)
    e0 = eval_energy(crossterm, s)
    for _ in range(2000):
        s = step_gradient(crossterm, DeltaRule.gr(), s, 0.2)
        assert abs(eval_energy(crossterm, s) - e0) <= 1e-11


def test_gr_lex_exact_on_harmonic(rng):
    # quadratic H: the linearization is global, so the lex step is exact
    sysq = make_harmonic(1.0)
    h = 0.25
    for _ in range(10):
        s = rand_state(rng)
        nxt = step_gradient(sysq, DeltaRule.lex(), s, h)
        cx = s.x * math.cos(h) + s.p * math.sin(h)
        cp = -s.x * math.sin(h) + s.p * math.cos(h)
        assert nxt.x == pytest.approx(cx, abs=5e-14)
        assert nxt.p == pytest.approx(cp, abs=5e-14)


def test_time_reversal_symmetry(pendulum, rng):
    h = 0.25
    s = PhaseState(0.4, 1.3)
    for rule in (DeltaRule.gr(), DeltaRule.slex()):
        fwd = step_gradient(pendulum, rule, s, h)
        back = step_gradient(pendulum, rule, fwd, -h)
        assert max(abs(back.x - s.x), abs(back.p - s.p)) <= 1e-13
    # the start-point lex rule is not symmetric
    rule = DeltaRule.lex()
    fwd = step_gradient(pendulum, rule, s, h)
    back = step_gradient(pendulum, rule, fwd, -h)
    assert max(abs(back.x - s.x), abs(back.p - s.p)) > 1e-13 * 100


def test_iteration_counts_reported(pendulum):
    _, its = step_gradient_info(pendulum, DeltaRule.gr(),
                                PhaseState(0.0, 1.8), 0.25)
    assert its >= 2


def test_equilibrium_kept_where_newton_matrix_is_singular(pendulum):
    # at the saddle (pi, 0), w^2 = -1 and gr's J = I - (h/2) A is singular
    # for h = +-2; the step must still return the equilibrium
    for h in (2.0, -2.0, 1.999999):
        nxt = step_gradient(pendulum, DeltaRule.gr(), PhaseState(math.pi, 0.0),
                            h)
        assert abs(nxt.x - math.pi) <= 1e-15 and abs(nxt.p) <= 1e-15


def test_overflowing_predictor_is_divergence(pendulum):
    # gr-3's delta coefficients are finite at (0, 1.8); its flow start at
    # h = 1e308 is not
    for rule, message in ((DeltaRule.gr(), "Euler predictor"),
                          (DeltaRule.series(3), "not finite")):
        with pytest.raises(DivergenceError, match=message):
            step_gradient(pendulum, rule, PhaseState(0.0, 1.8), 1e308)


def test_gr_n_start_is_delta_and_its_flow(pendulum):
    # the generated delta hands back the flow to order N + 2 at h, summed as
    # horner sums the flow's own coefficients; (1.0, 1e-4) deflates
    for N, s in ((3, PhaseState(0.3, 1.2)), (7, PhaseState(-1.0, -0.8)),
                 (12, PhaseState(1.0, 1e-4))):
        X, P = taylor_flow_coeffs(pendulum, s, N + 2)
        assert _series_function(pendulum, N)(s.x, s.p, 0.25) == (
            delta_series(pendulum, s, 0.25, N), horner(X.coeffs, 0.25),
            horner(P.coeffs, 0.25))


def test_gr_n_starts_near_its_fixed_point(pendulum):
    # from the flow (X(h), P(h)) one iteration reaches tol where the Euler
    # predictor takes two; at the deflating (1.0, 1e-4) Euler takes five
    _, its = step_gradient_info(pendulum, DeltaRule.series(7),
                                PhaseState(0.0, 0.02), 0.0125)
    assert its == 1
    _, its = step_gradient_info(pendulum, DeltaRule.series(12),
                                PhaseState(1.0, 1e-4), 0.25)
    assert its <= 3


def test_overflowing_series_flow_is_divergence():
    # the flow coefficients overflow to inf or nan; the series rule used to
    # fail on them with an untyped ValueError or IndexError
    for name, x, p, h, N in (("pendulum", 0.0, 1e300, 1.0, 3),
                             ("crossterm:0.5", 0.0, 1.7e308, 1.0, 3),
                             ("pendulum", 0.0, 1e200, 1e200, 7),
                             ("pendulum", 0.0, 1e154, 1.0, 3),
                             ("harmonic:1.3", 0.0, math.inf, 1.0, 3)):
        with pytest.raises(DivergenceError, match="series delta"):
            delta_series(system_from_name(name), PhaseState(x, p), h, N)
    # at p = 1e300 the flow and dd_p stay finite, whereas H = p^2/2 + ...
    # does not: delta is 1 + w^2 / 12 with w^2 = 3/4
    assert delta_series(system_from_name("crossterm:0.5"),
                        PhaseState(0.0, 1e300), 1.0, 3) == 1.0625


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


def reference_step(sys, rule, s_n, h, max_iter=MAX_ITER):
    """The hand-written step the generated one replaced, on the system's
    own callables: (x, p, iterations), the reference it must equal.  A
    gr-N ``fn`` starts from the flow its generated delta computes, any
    other from explicit Euler."""
    x, p = s_n.x, s_n.p
    fn, midpoint = rule.fn, rule.midpoint
    dd_x, dd_p = sys.dd_x, sys.dd_p
    d = sys.partials

    def newton_inverse(c, hxx, hxp, hpp):
        det = 1.0 + c * c * (hxx * hpp - hxp * hxp)
        if not 0.5 <= abs(det) < math.inf:
            return 1.0, 0.0, 0.0, 1.0
        c /= det
        return 1.0 / det + c * hxp, c * hpp, -c * hxx, 1.0 / det - c * hxp
    flow = isinstance(fn, functools.partial) and fn.func is _series_delta
    if flow:
        delta, xc, pc = _series_function(sys, fn.args[0])(x, p, h)
    else:
        delta = None if midpoint else fn(sys, x, p, h)
        xc = x + h * d["p"](x, p)
        pc = p - h * d["x"](x, p)
    if not (math.isfinite(xc) and math.isfinite(pc)):
        raise DivergenceError(
            f"{'flow start' if flow else 'Euler predictor'} "
            f"({xc:.3g}, {pc:.3g}) is not finite")
    xm, pm = 0.5 * (x + xc), 0.5 * (p + pc)
    hxx, hxp, hpp = d["xx"](xm, pm), d["xp"](xm, pm), d["pp"](xm, pm)
    if math.isnan(hxx) or math.isnan(hxp) or math.isnan(hpp):
        raise DivergenceError(
            f"Hessian ({hxx:.3g}, {hxp:.3g}, {hpp:.3g}) at the predicted "
            f"midpoint ({xm:.3g}, {pm:.3g}) is not a number")
    if not midpoint:
        j11, j12, j21, j22 = newton_inverse(0.5 * delta, hxx, hxp, hpp)
    inc = prev_inc = math.inf
    for it in range(1, max_iter + 1):
        if midpoint:
            delta = fn(sys, 0.5 * (x + xc), 0.5 * (p + pc), h)
            j11, j12, j21, j22 = newton_inverse(0.5 * delta, hxx, hxp, hpp)
        rx = x + delta * dd_p(x, xc, p, pc) - xc
        rp = p - delta * dd_x(x, xc, p, pc) - pc
        dx = j11 * rx + j12 * rp
        dp = j21 * rx + j22 * rp
        xc += dx
        pc += dp
        inc = max(abs(dx), abs(dp))
        if inc <= 1e-15:
            return xc, pc, it
        if (inc >= prev_inc
                and inc <= 64.0 * 2.220446049250313e-16
                * max(1.0, abs(xc), abs(pc))):
            return xc, pc, it
        prev_inc = inc
        if inc > 1e6 or not math.isfinite(inc):
            raise DivergenceError(
                f"fixed-point increment {inc:.3g} exceeded guard "
                f"{1e6:.3g}")
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations "
        f"(last increment {inc:.3g})")


def _step_outcome(step, *args):
    """repr of step(*args) as (x, p, iterations), or the type and message
    of what it raised."""
    try:
        out = step(*args)
    except (ArithmeticError, ValueError, StepError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out[0], PhaseState):
        out = (out[0].x, out[0].p, out[1])
    return repr(out)


STEP_RULES = {"gr": DeltaRule.gr(), "mod-gr": DeltaRule.mod_gr(0.0),
              "gr-lex": DeltaRule.lex(), "gr-slex": DeltaRule.slex(),
              **{f"gr-{N}": DeltaRule.series(N) for N in (1, 3, 7, 14)}}


def _step_systems():
    # the built-in systems and the test files' own, whose divided
    # differences are quotients of energies and whose partials use every
    # helper
    return [system_from_name(name) for name in ("pendulum", "harmonic:1.3",
                                                 "crossterm:0.5")] + [
        _drift_system(), _relativistic_softplus(), _drift(), _quartic()]


@pytest.mark.parametrize("rule", STEP_RULES)
def test_generated_step_equals_the_hand_written_one(rule):
    rule = STEP_RULES[rule]
    rng = random.Random(24)
    states = [rand_state(rng) for _ in range(200)]
    for sys in _step_systems():
        for s in states:
            for h in (0.25, -0.25, 1.0, -1.0):
                assert _step_outcome(step_gradient_info, sys, rule, s, h) \
                    == _step_outcome(reference_step, sys, rule, s, h), \
                    (sys.name, s, h)


@pytest.mark.parametrize("x, p, h, max_iter, scheme, error", [
    # the saddle, where gr's J = I - (h/2) A is singular at h = 2 and
    # nearly so at 1.999999: the solve falls back to J = I
    (math.pi, 0.0, 2.0, 100, "gr", None),
    (math.pi, 0.0, 1.999999, 100, "gr", None),
    # h w >= pi
    (0.0, 0.0, 3.2, 100, "gr-lex", ResonanceStepError),
    (0.3, 1.8, 50.0, 20, "gr", NonConvergenceError),
    (0.3, 1.8, 50.0, 20, "gr-7", DivergenceError),
    (0.0, 1.8, 1e308, 100, "gr", DivergenceError),
    (0.0, 1.8, 1e308, 100, "gr-14", DivergenceError),
])
def test_generated_step_equals_the_hand_written_one_at_the_edges(
        pendulum, x, p, h, max_iter, scheme, error):
    # every rule's block, run for one step at the row's cap, equals the
    # reference; the named one ends as stated
    def block_step(rule):
        hist = [0] * (max_iter + 1)
        x1, p1 = schemes.gradient_block(pendulum, rule)(x, p, h, 1, hist,
                                                        max_iter)
        return x1, p1, hist.index(1)
    s = PhaseState(x, p)
    for name, rule in STEP_RULES.items():
        got = _step_outcome(block_step, rule)
        assert got == _step_outcome(reference_step, pendulum, rule, s, h,
                                    max_iter), name
        if name == scheme:
            # a state's repr starts with "(", an error is (type, message)
            assert got[0] == (error.__name__ if error else "(")


def test_step_compiled_once_per_system_and_rule_value():
    # a rule built anew for every step, with its own closure (mod-gr's x_bar,
    # gr-N's N, a user's fn), finds the step generated for its value; a
    # second system of the same structure runs the same code
    pendulum = hamiltonian.make_pendulum()

    def steps():
        return {k: f for k, f in pendulum._code.functions.items()
                if isinstance(k, tuple) and k[0] == "step"}
    s = PhaseState(0.0, 1.8)
    for new_rule in (lambda i: DeltaRule.gr(),
                     lambda i: DeltaRule(lambda *args: 0.25),
                     lambda i: DeltaRule.mod_gr(1e-3 * i),
                     lambda i: DeltaRule.series(1 + i % 14)):
        s = step_gradient(pendulum, new_rule(0), s, 0.25)
        functions = steps()
        for i in range(1000):
            s = step_gradient(pendulum, new_rule(i), s, 0.25)
        assert steps() == functions
    assert len(steps()) == 4
    compiled = len(jets._CODE)
    other = hamiltonian.make_pendulum()
    assert step_gradient_info(other, DeltaRule.gr(), s, 0.25) \
        == step_gradient_info(pendulum, DeltaRule.gr(), s, 0.25)
    assert len(jets._CODE) == compiled
    (key,) = (k for k in other._code.functions
              if isinstance(k, tuple) and k[0] == "step")
    assert other._code.functions[key].__code__ \
        is pendulum._code.functions[key].__code__


def test_rules_that_share_fn_or_midpoint_run_steps_of_their_own():
    # rules equal in fn but not in midpoint, or in midpoint but not in fn,
    # each run the hand-written step, whichever of them ran first on the
    # system
    gr, lex, slex = DeltaRule.gr(), DeltaRule.lex(), DeltaRule.slex()
    series = DeltaRule.series(3)
    rules = [gr, lex, slex, DeltaRule(lambda sys, x, p, h: 1.01 * h),
             dataclasses.replace(gr, midpoint=True),
             dataclasses.replace(slex, midpoint=False),
             dataclasses.replace(lex, midpoint=True),
             DeltaRule(DeltaRule.mod_gr(0.5).fn, midpoint=True),
             series, DeltaRule(series.fn),
             dataclasses.replace(series, midpoint=True),
             dataclasses.replace(series, fn=lex.fn)]
    s = PhaseState(0.3, 1.2)
    for order in (rules, rules[::-1]):
        pendulum = hamiltonian.make_pendulum()
        for rule in order:
            assert _step_outcome(step_gradient_info, pendulum, rule, s, 0.5) \
                == _step_outcome(reference_step, pendulum, rule, s, 0.5), \
                rule


def test_every_fn_and_midpoint_runs_the_hand_written_step():
    # each built-in fn and a user's, with and without midpoint: a midpoint
    # rule takes delta from fn at the iterate's midpoint, and gr-N's fn
    # starts from its flow with or without it
    fns = [DeltaRule.gr().fn, DeltaRule.mod_gr(0.3).fn, DeltaRule.lex().fn,
           DeltaRule.series(3).fn, lambda sys, x, p, h: 1.01 * h]
    rng = random.Random(27)
    states = [rand_state(rng) for _ in range(10)]
    for sys in _step_systems():
        for fn, midpoint in itertools.product(fns, (False, True)):
            rule = DeltaRule(fn, midpoint)
            for s in states:
                for h in (0.5, -1.0, 3.5):
                    assert _step_outcome(step_gradient_info, sys, rule, s,
                                         h) \
                        == _step_outcome(reference_step, sys, rule, s, h), \
                        (sys.name, rule, s, h)


def test_delta_rule_is_fn_and_midpoint():
    # the starting guess, tol and the guard belong to the solver
    assert [f.name for f in dataclasses.fields(DeltaRule)] == ["fn",
                                                               "midpoint"]


def test_gr_n_fn_alone_starts_from_its_flow(pendulum):
    # a rule made of gr-N's fn alone is gr-N: it starts from the flow, with
    # the same states and iteration counts
    rng = random.Random(29)
    states = [rand_state(rng) for _ in range(20)] + [PhaseState(1.0, 1e-4)]
    for N in (3, 7, 12):
        rule, alone = DeltaRule.series(N), DeltaRule(DeltaRule.series(N).fn)
        for s in states:
            for h in (0.25, -0.5):
                assert _step_outcome(step_gradient_info, pendulum, alone, s,
                                     h) \
                    == _step_outcome(step_gradient_info, pendulum, rule, s,
                                     h), (N, s, h)
    _, its = step_gradient_info(pendulum,
                                DeltaRule(DeltaRule.series(7).fn),
                                PhaseState(0.0, 0.02), 0.0125)
    assert its == 1


def test_a_system_compiles_one_step_kind_per_fn_and_midpoint():
    # rules built anew with values of their own (x_bar, N, a user's
    # closure) find the step of their kind: the built-in fn or another,
    # and midpoint, at most 10 kinds
    pendulum = hamiltonian.make_pendulum()
    new_fns = [lambda i: DeltaRule.gr().fn,
               lambda i: DeltaRule.mod_gr(1e-3 * i).fn,
               lambda i: DeltaRule.lex().fn,
               lambda i: DeltaRule.series(1 + i % 14).fn,
               lambda i: lambda sys, x, p, h: (1.0 + 1e-3 * i) * h]
    s = PhaseState(0.3, 1.2)
    for new_fn, midpoint in itertools.product(new_fns, (False, True)):
        for i in range(30):
            step_gradient(pendulum, DeltaRule(new_fn(i), midpoint), s, 0.25)
    kinds = {k[1:] for k in pendulum._code.functions
             if isinstance(k, tuple) and k[0] == "step"}
    assert kinds == set(itertools.product(
        [schemes._gr_delta, schemes._mod_gr_delta, schemes._delta_lex_at,
         _series_delta, None], (False, True)))


def _literal_value(node):
    """The value of an expression made of number literals alone, else
    None."""
    if all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator,
                          ast.unaryop)) for n in ast.walk(node)):
        return eval(compile(ast.Expression(node), "<text>", "eval"))
    return None


def _reads_outside_raises(tree):
    """How often each name is read, messages of raised errors left out."""
    reads = collections.Counter()

    def walk(node):
        if isinstance(node, ast.Raise):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        for child in ast.iter_child_nodes(node):
            walk(child)
    walk(tree)
    return reads


@pytest.mark.parametrize("name", ["pendulum", "harmonic:1.3",
                                  "crossterm:0.5"])
def test_step_texts_fold_the_recorded_constants(name, monkeypatch):
    # the 10 kinds of implicit block (each built-in fn and a user's, with
    # and without midpoint): no * 1.0 and no - 0.0 is left, no Hessian
    # entry the recording knows is a local, so no NaN test and no product
    # reads one, and every midpoint coordinate set is read outside an error
    # message
    texts = []
    generate = jets.generate

    def spy(params, body, result, namespace):
        if params.startswith("x0, p0, h, m, hist"):
            texts.append("\n    ".join([f"def generated({params}):", *body,
                                        f"return {result}"]))
        return generate(params, body, result, namespace)
    monkeypatch.setattr(jets, "generate", spy)
    sys = system_from_name(name)
    fns = [DeltaRule.gr().fn, DeltaRule.mod_gr(0.3).fn, DeltaRule.lex().fn,
           DeltaRule.series(3).fn, lambda sys, x, p, h: 1.01 * h]
    for fn, midpoint in itertools.product(fns, (False, True)):
        step_gradient(sys, DeltaRule(fn, midpoint), PhaseState(0.3, 1.2),
                      0.25)
    assert len(texts) == 10
    for text in texts:
        tree = ast.parse(text)
        literal = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                target, value = node.targets[-1], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple)
                         else [(target, value)])
                literal.update(t.id for t, v in pairs
                               if isinstance(t, ast.Name)
                               and _literal_value(v) is not None)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                assert 1 not in map(_literal_value, (node.left, node.right)), \
                    ast.unparse(node)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                assert _literal_value(node.right) != 0, ast.unparse(node)
            if (isinstance(node, ast.Compare)
                    and isinstance(node.ops[0], ast.NotEq)
                    and ast.dump(node.left) == ast.dump(node.comparators[0])):
                assert _literal_value(node.left) is None, ast.unparse(node)
                assert getattr(node.left, "id", None) not in literal, \
                    ast.unparse(node)
        assert not literal & {"hxx", "hxp", "hpp"}, text
        reads = _reads_outside_raises(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and node.id in ("xm", "pm", "xh", "ph"):
                assert reads[node.id], f"{node.id} is never read:\n{text}"


_EDGE_RULES = {"gr": DeltaRule.gr(), "gr-lex": DeltaRule.lex(),
               "gr-slex": DeltaRule.slex(), "mod-gr": DeltaRule.mod_gr(0.0),
               "mod-gr near pi": DeltaRule.mod_gr(3.0),
               "gr-3": DeltaRule.series(3)}


def _hex_outcome(step, *args):
    """step(*args) as the float hex of x and p and the iterations, or the
    type and message of what it raised."""
    try:
        out = step(*args)
    except (ArithmeticError, ValueError, StepError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out[0], PhaseState):
        out = (out[0].x, out[0].p, out[1])
    x, p, iterations = out
    if not (math.isfinite(x) and math.isfinite(p)):
        # as a step ends that does not end in a finite state
        return "DivergenceError", f"state ({x:.3g}, {p:.3g}) is not finite"
    return x.hex(), p.hex(), iterations


def _nan_hessian_systems():
    # inf - inf and 0 * inf at a finite midpoint, in each entry: the other
    # two stay the literals the recording knows
    pendulum = hamiltonian.make_pendulum()
    overflow = {
        "xx": lambda x, p: gcos(x) + (x * 1e300 * 1e300 - x * 1e300 * 1e300),
        "xp": lambda x, p: 0.0 * (x * 1e300 * 1e300),
        "pp": lambda x, p: 1.0 + 0.0 * (p * 1e300 * 1e300)}
    return [dataclasses.replace(pendulum, name=f"nan-{key}", partials=dict(
        pendulum.partials, **{key: f})) for key, f in overflow.items()]


@pytest.mark.parametrize("rule", _EDGE_RULES)
def test_folded_step_equals_the_hand_written_one_at_edge_states(rule):
    # the folds hold where IEEE arithmetic is at its edges: the J = I
    # fallback (the pendulum near x = pi, where det = 1 + c^2 cos(x_m) is
    # below 0.5 for delta > sqrt(2), and 0 at gr's h = 2 from pi), det
    # overflowing to inf (h 1e200), signed zeros and subnormals, h = +-0
    # (gr-lex and gr-slex raise, gr-slex before its loop), a Hessian that
    # is not a number at a finite midpoint, and an H_xp whose square
    # overflows (crossterm:1e200), which keeps gr-slex's h test in the loop
    rule = _EDGE_RULES[rule]
    near_pi = [PhaseState(x, p) for x in (math.pi, 3.1, 3.2, -math.pi)
               for p in (0.0, 1e-3, -0.05)]
    signed = [PhaseState(x, p) for x in (0.0, -0.0, 5e-324, -1e-310)
              for p in (0.0, -0.0, 5e-324, -2.5e-308)]
    cases = [(s, h) for s in near_pi for h in (1.5, 2.0, -2.0, 3.0)]
    cases += [(s, h) for s in near_pi + signed
              for h in (1e200, -1e200, 0.0, -0.0, 5e-324, 0.25)]
    cases += [(PhaseState(x, p), 1e200) for x, p in ((0.3, 1.2), (0.0, 0.0),
                                                     (1.0, -1.0))]
    systems = [system_from_name(name) for name in (
        "pendulum", "harmonic:1.3", "crossterm:0.5", "crossterm:1e200")]
    for sys in systems + _nan_hessian_systems():
        for s, h in cases + [(PhaseState(0.3, 1.2), 0.25),
                             (PhaseState(0.3, 1.2), 0.0)]:
            assert _hex_outcome(step_gradient_info, sys, rule, s, h) \
                == _hex_outcome(reference_step, sys, rule, s, h), \
                (sys.name, s, h)


@pytest.mark.parametrize("system", ["pendulum", "crossterm:0.5"])
@pytest.mark.parametrize("scheme", ["gr", "mod-gr", "gr-lex", "gr-slex",
                                    "gr-1", "gr-7", "gr-14"])
def test_run_stepper_and_step_share_one_block(monkeypatch, scheme, system):
    # a run, make_stepper and step_gradient_info on one system object run
    # one generated block, the one the hand-written steps check
    sys = system_from_name(system)
    monkeypatch.setattr(harness, "system_from_name", lambda name: sys)
    compile_, blocks, ran = sys._code.source.compile, [], set()

    def recording(params, *args):
        fn = compile_(params, *args)
        if not params.startswith("x0, p0, h, m, hist"):
            return fn
        blocks.append(fn)

        def block(*args, **kwargs):
            ran.add(fn)
            return fn(*args, **kwargs)
        return block
    monkeypatch.setattr(sys._code.source, "compile", recording)
    s = PhaseState(0.0, 1.8)
    spec = ExperimentSpec(scheme, system, 1.8, 0.25, 20, sample_stride=7)
    for call in (lambda: run_trajectory(spec),
                 lambda: harness.make_stepper(scheme, sys)(s, 0.25),
                 lambda: step_gradient_info(sys, STEP_RULES[scheme], s,
                                            0.25)):
        ran.clear()
        call()
        assert len(blocks) == 1 and ran == set(blocks)


@pytest.mark.parametrize("scheme", ["gr", "mod-gr", "gr-lex", "gr-slex",
                                    "gr-1", "gr-3", "gr-7", "gr-14"])
def test_scheme_block_equals_the_hand_written_steps(scheme):
    # a run's block, which writes mod-gr's delta in and calls gr-N's
    # generated delta directly, makes in one call the states, the iteration
    # counts and the errors of the hand-written steps
    rule = STEP_RULES[scheme]
    rng = random.Random(26)

    def outcome(run):
        try:
            return repr(run())
        except (ArithmeticError, ValueError, StepError) as exc:
            return type(exc).__name__, str(exc)
    for sys in _step_systems():
        block = harness._block_maker(scheme)(sys)
        for s0 in [rand_state(rng) for _ in range(5)]:
            for h in (0.25, -1.0):
                def by_hand():
                    s, hist = s0, [0] * 101
                    for _ in range(50):
                        x, p, its = reference_step(sys, rule, s, h)
                        s = PhaseState(x, p)
                        hist[its] += 1
                    return s.x, s.p, hist

                def by_block():
                    hist = [0] * 101
                    return (*block(s0.x, s0.p, h, 50, hist, 100), hist)
                assert outcome(by_block) == outcome(by_hand), (sys.name, s0,
                                                               h)


@pytest.mark.parametrize("key, leak", [
    ("xx", lambda x, p: math.cos(x)),
    ("xp", lambda x, p: 0.0 * math.sin(x)),
    ("pp", lambda x, p: float(p) * 0.0 + 1.0),
], ids=["xx", "xp", "pp"])
def test_hessian_that_makes_a_plain_number_is_divergence(pendulum, key,
                                                         leak):
    # a recorded argument holds no number to take out, so building the
    # system raises, before a step could run a Hessian the recording did
    # not see
    with pytest.raises(ValueError, match="system contract allows no "
                                         "branches"):
        dataclasses.replace(pendulum, partials=dict(pendulum.partials,
                                                    **{key: leak}))


@pytest.mark.parametrize("key, overflow", [
    ("xx", lambda x, p: gcos(x) + (x * 1e300 * 1e300 - x * 1e300 * 1e300)),
    ("xp", lambda x, p: 0.0 * (x * 1e300 * 1e300)),
    ("pp", lambda x, p: 1.0 + 0.0 * (p * 1e300 * 1e300)),
], ids=["xx", "xp", "pp"])
def test_hessian_that_is_not_a_number_is_divergence(pendulum, key, overflow):
    # inf - inf and 0 * inf at a finite predicted midpoint: a NaN Hessian
    # must not pass for a J = I solve
    sys = dataclasses.replace(pendulum, partials=dict(pendulum.partials,
                                                      **{key: overflow}))
    for rule in STEP_RULES.values():
        with pytest.raises(DivergenceError, match="is not a number"):
            step_gradient(sys, rule, PhaseState(0.3, 1.2), 0.25)


def test_dd_x_that_makes_a_plain_number_is_divergence(pendulum):
    with pytest.raises(ValueError, match="system contract allows no "
                                         "branches"):
        dataclasses.replace(pendulum, dd_x=lambda x, x1, p, p1: (
            gsin(0.5 * (x + x1)) + 0.0 * math.sin(x)))


def test_local_exactness_lex_equals_exact_map(pendulum, rng):
    h = 0.25
    for _ in range(100):
        s = rand_state(rng)
        if omega_sq_at(pendulum, s.x, s.p) > (math.pi / h) ** 2:
            continue
        lem = local_exactness_matrix(pendulum, DeltaRule.lex(), s, h)
        ex = exact_step_map(linearize(pendulum, s), h)
        assert np.max(np.abs(np.subtract(lem.M, ex.M))) <= 1e-12
        assert np.max(np.abs(np.subtract(lem.w, ex.w))) <= 1e-12


def test_local_exactness_gr_is_cayley(harmonic):
    h = 0.25
    lem = local_exactness_matrix(harmonic, DeltaRule.gr(),
                                 PhaseState(0.7, -0.4), h)
    A = np.asarray(linearize(harmonic, PhaseState(0.7, -0.4)).A)
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


def _drift_system():
    # test_series_with_constant_h_p's system: dd_p is the plain constant 2
    return HamiltonianSystem(
        name="drift", energy=lambda x, p: 2.0 * p + 0.5 * x * x,
        dd_x=lambda x, x1, p, p1: 0.5 * (x + x1),
        dd_p=lambda x, x1, p, p1: 2.0,
        partials={"x": lambda x, p: x, "p": lambda x, p: 2.0,
                  "xx": lambda x, p: 1.0, "xp": lambda x, p: 0.0,
                  "pp": lambda x, p: 0.0})


def flow_jets(sys, x, p, n):
    """The flow through (x, p) to order n on finished jets, by n Picard
    passes (as tests/test_hamiltonian.py's reference): beyond the order
    taylor_flow_coeffs takes, which the deflation's longer flow needs."""
    hp, hx = sys.partials["p"], sys.partials["x"]
    X, P = Jet.constant(x, 0), Jet.constant(p, 0)
    for i in range(1, n + 1):
        fx, fp = hp(X, P), hx(X, P)
        fxc = fx.coeffs if isinstance(fx, Jet) else [fx] + [0.0] * (i - 1)
        fpc = fp.coeffs if isinstance(fp, Jet) else [fp] + [0.0] * (i - 1)
        X = Jet([x] + [fxc[k] / (k + 1) for k in range(i)])
        P = Jet([p] + [-fpc[k] / (k + 1) for k in range(i)])
    return X, P


def jet_quotient_coefficients(sys, s, N):
    """[a_1, ..., a_N] the way the general path forms them, on finished
    jets: sys.dd_p on the flow jets, X - x, the checks, the shift, and the
    division, after deflating the shared turning-point root where the
    general path deflates it."""
    def parts(n):
        X, P = flow_jets(sys, s.x, s.p, n + 2)
        den = sys.dd_p(s.x, X, s.p, P)
        den = den if isinstance(den, Jet) else Jet.constant(den, n + 2)
        return (X - s.x).coeffs, den.coeffs

    num, dc = parts(N)
    if not all(map(math.isfinite, dc)):
        raise DivergenceError(f"series delta at ({s.x:.3g}, {s.p:.3g}): the "
                              "flow coefficients are not finite")
    scale = max(map(abs, dc))
    if scale == 0.0:
        return [1.0] + [0.0] * (N - 1)
    k = next(i for i, c in enumerate(dc) if abs(c) > 1e-13 * scale)
    if (scale / abs(dc[k]) > _plain_amp_limit(N)
            and abs(dc[k + 1]) * _ROOT_NEAR >= scale):
        num, dc = parts(N + _DEFLATE_EXTRA)
        r = _shared_root(dc[k:], s.x, s.p)
        num = num[:k + 1] + _deflate(num[k + 1:], r)
        dc = dc[:k] + _deflate(dc[k:], r)
    return _cancel_and_divide(num, dc, k, N)


def _outcome(fn, *args):
    """fn(*args) by repr, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, DivergenceError) as exc:
        return type(exc).__name__, str(exc)


def _series_states(rng):
    """Seeded states: generic, within 1e-3 of p = 0 (where most deflate),
    near crossterm:0.5's turning line p = -x/2, p = +-0 and below the
    leading-index cut (k > 0), signed zeros in x, the trivial flow and one
    that overflows."""
    states = [PhaseState(0.0, 0.0), PhaseState(-0.0, 0.0),
              PhaseState(0.0, -0.0), PhaseState(1.2, 0.0),
              PhaseState(-1.2, -0.0), PhaseState(2.0, 1e-17),
              PhaseState(-0.0, 0.7), PhaseState(1e300, 1e300),
              PhaseState(1.3, -0.65 + 2e-4), PhaseState(-2.1, 1.05 - 3e-6)]
    for _ in range(6):
        states.append(PhaseState(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        states.append(PhaseState(rng.uniform(-3, 3),
                                 rng.uniform(-1e-3, 1e-3)))
    return states


@pytest.mark.parametrize("name", ["pendulum", "harmonic:1.3",
                                  "crossterm:0.5", "drift"])
def test_generated_delta_equals_jet_quotient(name):
    # one system object for every state and order, so most calls run code
    # recorded at another state
    sys = _drift_system() if name == "drift" else system_from_name(name)
    states = _series_states(random.Random(12))
    for N in range(1, 15):
        for i, s in enumerate(states):
            h = (0.1, 0.25, 0.5, -0.25)[i % 4]
            want = _outcome(jet_quotient_coefficients, sys, s, N)
            assert _outcome(delta_series_coefficients, sys, s, N) == want, \
                (s, N)
            want = _outcome(lambda: h * horner(
                jet_quotient_coefficients(sys, s, N), h))
            assert _outcome(delta_series, sys, s, h, N) == want, (s, N)


def _scalar_dd_p_systems(pendulum):
    # dd_p forms that compute with the scalars x and p before they meet
    # the jets x1 and p1: each must take x and p from the state of the
    # call, never from the state it was recorded at
    return [
        dataclasses.replace(pendulum,
                            dd_p=lambda x, x1, p, p1: 0.5 * p + 0.5 * p1),
        dataclasses.replace(pendulum, dd_p=lambda x, x1, p, p1: (
            (p + 1.0) * 0.5 - 0.5 + p1 / 2.0 + 1.0 / (3.0 + x) * 0.0
            + (gcos(x) ** 2 - gcos(x) * gcos(x)) - -p * 0.0)),
    ]


def test_dd_p_takes_x_and_p_from_each_call(pendulum):
    for sys in _scalar_dd_p_systems(pendulum):
        delta_series(sys, PhaseState(0.4, 1.1), 0.25, 7)
        for s in (PhaseState(-1.3, 0.6), PhaseState(2.0, -1.7),
                  PhaseState(0.0, -0.0), PhaseState(0.9, 2e-4)):
            want = jet_quotient_coefficients(sys, s, 7)
            assert repr(delta_series_coefficients(sys, s, 7)) == repr(want)
            assert repr(delta_series(sys, s, 0.25, 7)) \
                == repr(0.25 * horner(want, 0.25))


@pytest.mark.parametrize("leak", [
    lambda x, x1, p, p1: 0.5 * (abs(p) + p1),
    lambda x, x1, p, p1: 0.5 * (float(p) + p1),
    lambda x, x1, p, p1: 0.5 * (p + p1) + 0.0 * math.cos(x),
], ids=["abs", "float", "math.cos"])
def test_dd_p_that_makes_a_plain_number_is_divergence(pendulum, leak):
    # a recorded argument holds no number to take out, so building the
    # system raises
    with pytest.raises(ValueError, match="system contract allows no "
                                         "branches"):
        dataclasses.replace(pendulum, dd_p=leak)


def test_dd_p_recorded_once_per_system_object(pendulum):
    calls = []

    def dd_p(x, x1, p, p1):
        calls.append(1)
        return pendulum.dd_p(x, x1, p, p1)
    sys = dataclasses.replace(pendulum, dd_p=dd_p)
    rng = random.Random(5)
    for i in range(200):
        # deflating states included: their longer parts are generated code
        # as well
        s = PhaseState(rng.uniform(-3, 3),
                       rng.uniform(-3, 3) * 10.0 ** -(i % 6))
        delta_series(sys, s, 0.25, (3, 7, 12)[i % 3])
        delta_series_coefficients(sys, s, 5)
    assert len(calls) == 1
    delta_series(dataclasses.replace(sys), PhaseState(0.3, 1.0), 0.25, 3)
    assert len(calls) == 2


def test_generated_delta_makes_no_jet(pendulum, monkeypatch):
    states = [PhaseState(0.3, 1.2), PhaseState(-2.0, 0.4)]
    for N in (1, 7, 14):
        delta_series(pendulum, states[0], 0.25, N)

    def no_jet(*args, **kwargs):
        raise AssertionError("a jet was made")
    for owner in (jets, hamiltonian):
        monkeypatch.setattr(owner, "_wrap", no_jet)
    monkeypatch.setattr(Jet, "__init__", no_jet)
    for N in (1, 7, 14):
        for s in states:
            delta_series(pendulum, s, 0.25, N)


@pytest.mark.parametrize("key", ["x", "p", "dd_p"])
def test_a_jet_of_its_own_breaks_the_contract(pendulum, key):
    def own(*args):
        return Jet([1.0, 0.0])
    with pytest.raises(ValueError, match=r"system contract.*no jets of its "
                                         r"own"):
        if key == "dd_p":
            dataclasses.replace(pendulum, dd_p=own)
        else:
            dataclasses.replace(pendulum, partials=dict(pendulum.partials,
                                                        **{key: own}))


@pytest.mark.parametrize("key, branching", [
    ("dd_x", lambda x, x1, p, p1: ((gcos(x) - gcos(x1)) / (x1 - x)
                                   if abs(x1 - x) > 1e-8 else gsin(x))),
    ("dd_x", lambda x, x1, p, p1: (gsin(x) if x1 == x
                                   else (gcos(x) - gcos(x1)) / (x1 - x))),
    ("xx", lambda x, p: max(gcos(x), -1.0)),
    ("pp", lambda x, p: 1.0 if p else 1.0),
    # a branch on a plain number taken out of an argument
    ("dd_x", lambda x, x1, p, p1: (gsin(0.5 * (x + x1))
                                   * gsinc(0.5 * (x1 - x))
                                   if math.cos(x) > 2.0
                                   else 0.0 * x + gsin(x))),
], ids=["guarded-quotient", "equal", "max", "truth", "math.cos"])
def test_a_branch_on_an_argument_breaks_the_contract(pendulum, key,
                                                     branching):
    # a recording is straight-line, so one that branched would keep one
    # branch for every state; building the system raises instead
    with pytest.raises(ValueError, match="system contract allows no "
                                         "branches"):
        if key == "dd_x":
            dataclasses.replace(pendulum, dd_x=branching)
        else:
            dataclasses.replace(pendulum, partials=dict(pendulum.partials,
                                                        **{key: branching}))
