"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (run with -s to see them on
success).  The long-time ordering check (criterion 10) takes a few
minutes; everything else is seconds.
"""

import math
import random

import numpy as np
import pytest

from discgrad.baselines import sp_coefficients, step_symplectic
from discgrad.exactlin import (exact_exp_growth_delta,
                               exact_harmonic_recurrence, exact_step_map)
from discgrad.hamiltonian import (PhaseState, eval_energy, linearize,
                                  make_harmonic, make_pendulum)
from discgrad.harness import (ExperimentSpec, estimate_order,
                              _final_global_error, run_trajectory)
from discgrad.reference import pendulum_period
from discgrad.schemes import (DeltaRule, SolverConfig, delta_series_coefficients,
                              local_exactness_matrix, omega_sq_at,
                              step_gradient)


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_periods():
    t1 = pendulum_period(0.02)
    t2 = pendulum_period(1.8)
    ok = (abs(t1 - 6.283342396) <= 1e-8 * 6.283342396
          and abs(t2 - 9.12219655) <= 1e-8 * 9.12219655)
    _report(1, ok, f"T(0.02) = {t1:.9f}, T(1.8) = {t2:.8f}")


def test_criterion_02_energy_preservation():
    worst = {}
    for scheme in ("gr", "mod-gr", "gr-lex", "gr-slex", "gr-3", "gr-7"):
        rec = run_trajectory(
            ExperimentSpec(scheme=scheme, system="pendulum", p0=1.8,
                           h=0.25, n_steps=10 ** 5, sample_stride=100),
            cfg=SolverConfig(tol=1e-15))
        worst[scheme] = max(abs(s.energy_err) for s in rec.samples)
    ok = all(v <= 1e-10 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report(2, ok, f"max |dE| over 1e5 steps: {detail}")


def test_criterion_03_energy_any_delta():
    pend = make_pendulum()
    rng = random.Random(7)
    h = 0.25
    holder = {"d": h}
    rule = DeltaRule(lambda sys, x, p, hh: holder["d"])
    s = PhaseState(0.0, 1.8)
    e0 = eval_energy(pend, s)
    worst = 0.0
    for _ in range(10 ** 4):
        holder["d"] = h * rng.uniform(0.5, 1.5)
        s = step_gradient(pend, rule, s, h)
        worst = max(worst, abs(eval_energy(pend, s) - e0))
    _report(3, worst <= 1e-10,
            f"max |dE| with per-step random delta: {worst:.2e}")


def test_criterion_04_local_exactness():
    pend = make_pendulum()
    rng = random.Random(11)
    h = 0.25
    worst = 0.0
    done = 0
    while done < 100:
        s = PhaseState(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if omega_sq_at(pend, s.x, s.p) * h * h >= math.pi ** 2:
            continue
        lem = local_exactness_matrix(pend, DeltaRule.lex(), s, h)
        ex = exact_step_map(linearize(pend, s), h)
        worst = max(worst, np.max(np.abs(lem.M - ex.M)),
                    np.max(np.abs(lem.w - ex.w)))
        done += 1
    harm = make_harmonic(1.0)
    s = PhaseState(0.3, 1.1)
    worst_h = 0.0
    for _ in range(200):
        nxt = step_gradient(harm, DeltaRule.lex(), s, h)
        cx = s.x * math.cos(h) + s.p * math.sin(h)
        cp = -s.x * math.sin(h) + s.p * math.cos(h)
        worst_h = max(worst_h, abs(nxt.x - cx), abs(nxt.p - cp))
        s = nxt
    ok = worst <= 1e-12 and worst_h <= 1e-13
    _report(4, ok, f"matrix defect {worst:.2e}, "
                   f"harmonic per-step defect {worst_h:.2e}")


def test_criterion_05_exact_linear():
    harm = make_harmonic(1.0)
    lin = linearize(harm, PhaseState(0.0, 0.0))
    h = 0.31
    m = exact_step_map(lin, h)
    z = np.array([1.0, 0.0])
    worst = 0.0
    for n in range(1, 10 ** 4 + 1):
        z = m.apply(z)
        t = n * h
        worst = max(worst, abs(z[0] - math.cos(t)), abs(z[1] + math.sin(t)))
    # scalar growth: (x+ - x)/delta = a x reproduces e^{at}
    a, hs = 0.6, 0.2
    delta = exact_exp_growth_delta(a, hs)
    x = 1.0
    worst_g = 0.0
    for n in range(1, 200):
        x = x + delta * a * x
        worst_g = max(worst_g, abs(x - math.exp(a * n * hs)) / math.exp(a * n * hs))
    # oscillator three-point recurrence on exact cosine samples
    w, hr = 1.3, 0.4
    xm, xc = math.cos(-w * hr), 1.0
    worst_r = 0.0
    for n in range(1, 500):
        xm, xc = xc, exact_harmonic_recurrence(w, hr, xc, xm)
        worst_r = max(worst_r, abs(xc - math.cos(w * n * hr)))
    ok = worst <= 1e-12 and worst_g <= 1e-13 and worst_r <= 1e-13
    _report(5, ok, f"rotation {worst:.2e}, growth {worst_g:.2e}, "
                   f"recurrence {worst_r:.2e}")


@pytest.mark.filterwarnings("ignore::discgrad.errors.PrecisionFloorWarning")
def test_criterion_06_convergence_orders():
    hs = [0.2, 0.1, 0.05, 0.025]
    targets = {
        "gr": (2.0, 0.3), "gr-lex": (3.0, 0.3), "gr-slex": (4.0, 0.3),
        "rk4": (4.0, 0.3), "lf": (2.0, 0.3), "sp-4": (4.0, 0.3),
        "tay-4": (4.0, 0.3), "tay-5": (5.0, 0.3), "tay-10": (10.0, 0.3),
    }
    floors = {"gr-3": 3.0, "gr-5": 5.0, "gr-7": 7.0}
    def richardson(scheme):
        # successive-refinement estimate at the finest pair above the
        # round-off floor; the coarsest pairs still carry the next-order
        # error term for the fifth-order schemes
        est = estimate_order(scheme, 1.8, hs, 2.0)
        return est.pair_slopes[-1]

    slopes = {}
    ok = True
    for scheme, (want, tol) in targets.items():
        slopes[scheme] = richardson(scheme)
        ok = ok and abs(slopes[scheme] - want) <= tol
    for scheme, want in floors.items():
        slopes[scheme] = richardson(scheme)
        ok = ok and slopes[scheme] >= want - 0.3
    detail = ", ".join(f"{k} {v:.2f}" for k, v in slopes.items())
    _report(6, ok, detail)


def test_criterion_07_delta_series_closed_forms():
    pend = make_pendulum()
    rng = random.Random(3)
    worst = 0.0
    ok = True
    for _ in range(50):
        s = PhaseState(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a = delta_series_coefficients(pend, s, 5)
        x, p = s.x, s.p
        want = [1.0, 0.0, math.cos(x) / 12.0, -p * math.sin(x) / 24.0,
                (-9 * p * p * math.cos(x) + 12 * math.sin(x) ** 2
                 + 6 * math.cos(x) ** 2) / 720.0]
        ok = ok and a[0] == 1.0 and abs(a[1]) <= 1e-12
        for got, ref in zip(a[2:], want[2:]):
            err = abs(got - ref) / max(abs(ref), 1e-4)
            worst = max(worst, err)
            ok = ok and err <= 1e-10
    for sysname in (make_harmonic(1.3), make_pendulum()):
        a = delta_series_coefficients(sysname, PhaseState(0.9, 0.4), 3)
        ok = ok and abs(a[0] - 1.0) <= 1e-12 and abs(a[1]) <= 1e-11
    _report(7, ok, f"worst relative defect of a3..a5 at 50 points: {worst:.2e}")


def test_criterion_08_symplectic_coefficients():
    co = sp_coefficients(2)
    r = 2.0 ** (1.0 / 3.0)
    want_c = [1.0 / (2.0 * (2.0 - r)), (1.0 - r) / (2.0 * (2.0 - r))]
    want_c = [want_c[0], want_c[1], want_c[1], want_c[0]]
    want_d = [1.0 / (2.0 - r), -r / (2.0 - r), 1.0 / (2.0 - r), 0.0]
    worst = max(max(abs(a - b) for a, b in zip(co.c, want_c)),
                max(abs(a - b) for a, b in zip(co.d, want_d)))
    harm = make_harmonic(1.0)
    co6 = sp_coefficients(3)
    errs = []
    hs = [0.2, 0.1, 0.05]
    for h in hs:
        n = round(2.0 / h)
        s = PhaseState(0.0, 1.8)
        for _ in range(n):
            s = step_symplectic(harm, s, h, co6)
        t = n * h
        errs.append(max(abs(s.x - 1.8 * math.sin(t)),
                        abs(s.p - 1.8 * math.cos(t))))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = worst <= 1e-15 and slope >= 5.7
    _report(8, ok, f"coefficient defect {worst:.1e}, "
                   f"order-6 composition slope {slope:.2f}")


def test_criterion_09_energy_drift_characters():
    def run(scheme):
        rec = run_trajectory(ExperimentSpec(
            scheme=scheme, system="pendulum", p0=1.8, h=0.25,
            n_steps=10 ** 4, sample_stride=100))
        return [abs(s.energy_err) for s in rec.samples[1:]]

    tay5 = run("tay-5")
    grows = all(b >= a * 0.99 for a, b in zip(tay5, tay5[1:]))
    tay5_ok = grows and tay5[-1] > 1e-2

    rec = run_trajectory(ExperimentSpec(
        scheme="rk4", system="pendulum", p0=1.8, h=0.25, n_steps=10 ** 4,
        sample_stride=100))
    es = [s.energy_err for s in rec.samples]
    rk4_ok = all(b < a for a, b in zip(es, es[1:]))

    tay10 = max(run("tay-10"))
    grad_worst = max(max(run(sc)) for sc in ("gr", "gr-lex", "gr-slex",
                                             "gr-3", "gr-7"))
    tay10_ok = tay10 >= 1e4 * grad_worst

    sym_ok = True
    for scheme in ("lf", "sp-4"):
        errs = run(scheme)
        early = max(errs[:10])
        bounded = max(errs) < 10.0 * early
        ts = np.arange(1, len(errs) + 1, dtype=float)
        slope, icpt = np.polyfit(ts, errs, 1)
        resid = np.array(errs) - (slope * ts + icpt)
        se = math.sqrt(float(np.sum(resid ** 2)) / (len(ts) - 2)
                       / float(np.sum((ts - ts.mean()) ** 2)))
        sym_ok = sym_ok and bounded and abs(slope) <= 2.0 * se
    ok = tay5_ok and rk4_ok and tay10_ok and sym_ok
    _report(9, ok, f"tay-5 final {tay5[-1]:.2e} growing={grows}, "
                   f"rk4 monotone={rk4_ok}, tay-10/gradient ratio "
                   f"{tay10 / grad_worst:.1e}, lf/sp-4 trendless={sym_ok}")


def test_criterion_10_long_time_error_ordering():
    errs = {}
    for scheme in ("sp-4", "gr", "gr-lex", "gr-7"):
        errs[scheme] = _final_global_error(scheme, 2.001, 0.25, 10 ** 6)
    ok = errs["gr-7"] < errs["gr-lex"] < errs["gr"] < errs["sp-4"]
    detail = ", ".join(f"{k} {v:.3e}" for k, v in errs.items())
    _report(10, ok, f"final global error at n=1e6: {detail}")


def test_criterion_11_time_reversal():
    pend = make_pendulum()
    h = 0.25
    s = PhaseState(0.4, 1.3)
    defects = {}
    for name, rule in (("gr", DeltaRule.gr()), ("gr-slex", DeltaRule.slex()),
                       ("gr-lex", DeltaRule.lex())):
        fwd = step_gradient(pend, rule, s, h)
        back = step_gradient(pend, rule, fwd, -h)
        defects[name] = max(abs(back.x - s.x), abs(back.p - s.p))
    ok = (defects["gr"] <= 1e-13 and defects["gr-slex"] <= 1e-13
          and defects["gr-lex"] > 1e-10)
    detail = ", ".join(f"{k} {v:.2e}" for k, v in defects.items())
    _report(11, ok, f"round-trip defects: {detail}")
