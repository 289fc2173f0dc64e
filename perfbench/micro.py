"""Microbenchmarks of single public functions, untraced, at fixed inputs.

States are the ROADMAP's reference points (pendulum, h = 0.25, p0 = 1.8 on
libration and 2.001 on rotation), so the numbers compare across workloads
and seeds.  Each figure is the median over repeats of a timed batch,
scaled to reference host speed like the end-to-end times.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

from discgrad import baselines, harness, reference, schemes
from discgrad.hamiltonian import PhaseState, make_pendulum, taylor_flow_coeffs
from discgrad.jets import Jet
from workloads import LIBRATION, ROTATION, SMALL_AMPLITUDE, scaled_seconds

H = 0.25
P0_LIBRATION = 1.8
P0_ROTATION = 2.001
JET_ORDERS = (9, 12)
FLOW_ORDERS = (5, 9, 10)         # N+2 for gr-3 and gr-7, N for tay-10
STEP_SCHEMES = ("lf", "sp-4", "gr", "gr-lex", "gr-slex", "gr-3", "gr-7",
                "tay-10")
CSV_ROWS = 2000
ORACLE_LIMIT_S = 0.02
# 32 evenly spaced p0 in each band the workloads draw from
HANG_GRID = [lo + (hi - lo) * i / 31
             for lo, hi in (LIBRATION, ROTATION, SMALL_AMPLITUDE)
             for i in range(32)]


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def oracle_returns(p0: float) -> bool:
    """Whether reference.pendulum_period(p0) returns within ORACLE_LIMIT_S
    (see workloads.agm_settles for why it may not)."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, ORACLE_LIMIT_S)
        reference.pendulum_period(p0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        return True
    except _Timeout:
        return False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def per_call_us(fn, batch_s=0.01, repeats=5) -> float:
    """Median time of one fn() call in microseconds at reference host
    speed (see workloads.scaled_seconds)."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        elapsed = perf_counter() - t0
        if elapsed >= batch_s / 4:
            break
        n *= 4
    n = max(1, round(n * batch_s / elapsed))

    def batch():
        for _ in range(n):
            fn()
    return statistics.median(
        scaled_seconds(batch)[1] / n for _ in range(repeats)) * 1e6


def _walker(step, p0=P0_LIBRATION):
    """fn() that advances one trajectory by one step per call."""
    state = [PhaseState(0.0, p0)]

    def fn():
        state[0] = step(state[0])
    return fn


def run_all(outdir) -> dict:
    pend = make_pendulum()
    s = PhaseState(0.3, P0_LIBRATION)
    m = {}
    for order in JET_ORDERS:
        a = Jet([0.3] + [(-0.6) ** k / (k + 1) for k in range(1, order + 1)])
        b = Jet([1.8] + [0.4 ** k for k in range(1, order + 1)])
        m[f"jets.mul.us.o{order}"] = per_call_us(lambda: a * b)
        m[f"jets.div.us.o{order}"] = per_call_us(lambda: a / b)
        m[f"jets.sin_cos.us.o{order}"] = per_call_us(a.sin_cos)
    for n in FLOW_ORDERS:
        m[f"hamiltonian.flow_coeffs.us.N{n}"] = per_call_us(
            lambda: taylor_flow_coeffs(pend, s, n))
    rules = {"gr": schemes.DeltaRule.gr(),
             "mod-gr": schemes.DeltaRule.mod_gr(0.0),
             "lex": schemes.DeltaRule.lex(),
             "slex": schemes.DeltaRule.slex(),
             "series3": schemes.DeltaRule.series(3),
             "series7": schemes.DeltaRule.series(7)}
    for name, rule in rules.items():
        m[f"schemes.delta.us.{name}"] = per_call_us(
            lambda: rule.value_at(pend, s, H))
    start = PhaseState(0.0, P0_LIBRATION)
    gr = schemes.DeltaRule.gr()
    m["schemes.solve.us"] = per_call_us(
        lambda: schemes.step_gradient_info(pend, gr, start, H))
    m["schemes.solve.iters"] = schemes.step_gradient_info(
        pend, gr, start, H)[1]
    for regime, p0 in (("libration", P0_LIBRATION),
                       ("rotation", P0_ROTATION)):
        t = [0.0]

        def exact(p0=p0):
            t[0] += H
            reference.pendulum_exact(p0, t[0])
        m[f"reference.exact.us.{regime}"] = per_call_us(exact)
    m["reference.period.hang_frac"] = sum(
        not oracle_returns(p0) for p0 in HANG_GRID) / len(HANG_GRID)
    sp4 = baselines.sp_coefficients(2)
    for name, step in (
            ("lf", lambda st: baselines.step_leapfrog(pend, st, H)),
            ("sp-4", lambda st: baselines.step_symplectic(pend, st, H, sp4)),
            ("tay-10", lambda st: baselines.step_taylor(pend, st, H, 10))):
        m[f"baselines.step.us.{name}"] = per_call_us(_walker(step))
    for scheme in STEP_SCHEMES:
        stepper = harness.make_stepper(scheme, pend)
        m[f"harness.step_us.{scheme}"] = per_call_us(
            _walker(lambda st: stepper(st, H)[0]))
    record = harness.run_trajectory(harness.ExperimentSpec(
        "lf", "pendulum", P0_LIBRATION, H, CSV_ROWS - 1))
    path = outdir / "micro.csv"
    m["harness.emit_csv.us_per_row"] = per_call_us(
        lambda: harness.emit_csv(record, path), batch_s=0.05,
        repeats=3) / CSV_ROWS
    return m
