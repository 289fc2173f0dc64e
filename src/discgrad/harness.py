"""Experiment runner: trajectories, error sweeps, order estimation, and
CSV / gnuplot-script emission for the standard benchmark figures."""

from __future__ import annotations

import csv
import math
import time
import warnings
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines, reference, schemes
from .errors import (DivergenceError, NonConvergenceError,
                     PrecisionFloorWarning, ResonanceStepError,
                     UnsupportedSchemeError)
from .hamiltonian import (HamiltonianSystem, PhaseState, check_flow_order,
                          eval_energy, system_from_name)

# measured errors below this sit at the round-off floor of a unit-scale state
PRECISION_FLOOR = 100.0 * np.finfo(float).eps


@dataclass(slots=True)
class ExperimentSpec:
    scheme: str
    system: str
    p0: float
    h: float
    n_steps: int
    x0: float = 0.0
    sample_stride: int = 1

    def __post_init__(self):
        if (not 0.0 < self.h < math.inf or self.n_steps < 1
                or self.sample_stride < 1):
            raise ValueError(
                "need a finite h > 0, n_steps >= 1, sample_stride >= 1")


@dataclass(slots=True)
class Sample:
    n: int
    t: float
    x: float
    p: float
    energy_err: float
    global_err: float = None
    global_err_mod: float = None


@dataclass(slots=True)
class TrajectoryRecord:
    samples: list
    metadata: dict = field(default_factory=dict)


def make_stepper(scheme: str, sys: HamiltonianSystem,
                 cfg: schemes.SolverConfig = None):
    """Resolve a scheme id to a callable (state, h) -> (state, iterations).

    Ids: gr, mod-gr, gr-lex, gr-slex, gr-N, lf, rk4, tay-N, sp-2M.
    """
    if cfg is None:
        cfg = schemes.SolverConfig()

    def gradient(rule):
        def step(s, h):
            return schemes.step_gradient_info(sys, rule, s, h, cfg)
        return step

    if scheme == "gr":
        return gradient(schemes.DeltaRule.gr())
    if scheme == "mod-gr":
        return gradient(schemes.DeltaRule.mod_gr(0.0))
    if scheme == "gr-lex":
        return gradient(schemes.DeltaRule.lex())
    if scheme == "gr-slex":
        return gradient(schemes.DeltaRule.slex())
    if scheme.startswith("gr-") and scheme[3:].isdigit():
        return gradient(schemes.DeltaRule.series(int(scheme[3:])))
    if scheme == "lf":
        return lambda s, h: (baselines.step_leapfrog(sys, s, h), 0)
    if scheme == "rk4":
        return lambda s, h: (baselines.step_rk4(sys, s, h), 0)
    if scheme.startswith("tay-") and scheme[4:].isdigit():
        N = int(scheme[4:])
        check_flow_order(N)
        return lambda s, h: (baselines.step_taylor(sys, s, h, N), 0)
    if scheme.startswith("sp-") and scheme[3:].isdigit():
        order = int(scheme[3:])
        if order % 2 or order < 2:
            raise UnsupportedSchemeError(f"bad symplectic order in {scheme!r}")
        coeffs = baselines.sp_coefficients(order // 2)
        return lambda s, h: (baselines.step_symplectic(sys, s, h, coeffs), 0)
    raise UnsupportedSchemeError(f"unknown scheme id {scheme!r}")


def _advance(stepper, s: PhaseState, h: float, start: int, stop: int,
             iterations: defaultdict) -> PhaseState:
    """Take steps start+1 .. stop from s, counting each step's solver
    iterations into the histogram `iterations`.

    This is the only place the harness calls a stepper.  Solver failures
    gain the index of the step that failed.
    """
    n = start
    try:
        for n in range(start + 1, stop + 1):
            s, its = stepper(s, h)
            iterations[its] += 1
    except (NonConvergenceError, DivergenceError, ResonanceStepError) as exc:
        exc.args = (f"step {n}: {exc.args[0]}",) + exc.args[1:]
        raise
    return s


def _global_errors(p0: float, t: float, s: PhaseState):
    """Max-norm distance of s from the exact pendulum state at t, plain and
    with the phase difference reduced mod 2 pi."""
    ex = reference.pendulum_exact(p0, t)
    dx, dp = s.x - ex.x, abs(s.p - ex.p)
    return max(abs(dx), dp), max(abs(math.remainder(dx, 2.0 * math.pi)), dp)


def run_trajectory(spec: ExperimentSpec,
                   cfg: schemes.SolverConfig = None) -> TrajectoryRecord:
    """Integrate one trajectory, sampling every sample_stride steps.

    energy_err is H(s_n) - H(s_0); global_err compares against the exact
    elliptic-function solution in the max norm over (x, p), with the mod-2pi
    phase distance as a secondary column.  That solution starts at x = 0, so
    both columns are None unless the system is the pendulum and x0 = 0.
    """
    sys = system_from_name(spec.system)
    stepper = make_stepper(spec.scheme, sys, cfg)
    want_global = spec.system == "pendulum" and spec.x0 == 0.0
    s = PhaseState(spec.x0, spec.p0, 0.0)
    e0 = eval_energy(sys, s)
    samples = []
    iterations = defaultdict(int)

    def record(n, s):
        t = n * spec.h
        g = gm = None
        if want_global:
            g, gm = _global_errors(spec.p0, t, s)
        samples.append(Sample(n, t, s.x, s.p, eval_energy(sys, s) - e0,
                              g, gm))

    t_start = time.perf_counter()
    record(0, s)
    for start in range(0, spec.n_steps, spec.sample_stride):
        stop = min(start + spec.sample_stride, spec.n_steps)
        s = _advance(stepper, s, spec.h, start, stop, iterations)
        record(stop, s)
    wall = time.perf_counter() - t_start
    meta = {
        "spec": spec,
        "wall_time": wall,
        "iterations": {
            "min": min(iterations),
            "max": max(iterations),
            "mean": sum(k * v for k, v in iterations.items()) / spec.n_steps,
        },
    }
    return TrajectoryRecord(samples, meta)


def _final_global_error(scheme: str, p0: float, h: float, n: int) -> float:
    stepper = make_stepper(scheme, system_from_name("pendulum"))
    s = _advance(stepper, PhaseState(0.0, p0, 0.0), h, 0, n, defaultdict(int))
    return _global_errors(p0, n * h, s)[0]


def _error_near(scheme: str, p0: float, h: float, target: float):
    """(n, final global error) of the trajectory whose end n*h lies nearest
    to time target (at least one step)."""
    n = max(1, round(target / h))
    return n, _final_global_error(scheme, p0, h, n)


def _sweep_entry(args):
    scheme, p0, h, n_periods, period = args
    target = n_periods * period
    n, err = _error_near(scheme, p0, h, target)
    return {"scheme": scheme, "h": h, "n": n, "t": n * h, "error": err,
            "residual_fraction": (n * h - target) / period}


def sweep(schemes_list, p0: float, h_list, n_periods: int,
          parallel: bool = True):
    """Global error for every scheme x h combination, merged in spec order."""
    pendulum = system_from_name("pendulum")
    for sc in schemes_list:
        make_stepper(sc, pendulum)     # a bad id fails before any entry runs
    period = reference.pendulum_period(p0)
    tasks = [(sc, p0, h, n_periods, period)
             for sc in schemes_list for h in h_list]
    if parallel and len(tasks) > 1:
        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_sweep_entry, tasks))
    else:
        results = [_sweep_entry(t) for t in tasks]
    return results


@dataclass(slots=True)
class OrderEstimate:
    slope: float          # None when every point sat on the precision floor
    pair_slopes: list
    used: list            # (h, error) pairs that entered the fit
    excluded: list        # (h, error) pairs below the precision floor


def estimate_order(scheme: str, p0: float, h_list,
                   t_final: float) -> OrderEstimate:
    """Least-squares slope of log(error) against log(h), on the pendulum."""
    if len(h_list) < 3:
        raise ValueError("need at least 3 step sizes")
    used, excluded = [], []
    for h in h_list:
        _, err = _error_near(scheme, p0, h, t_final)
        if err < PRECISION_FLOOR:
            warnings.warn(
                f"{scheme} at h={h:g}: error {err:.2e} is at the round-off "
                "floor; excluded from the order fit", PrecisionFloorWarning)
            excluded.append((h, err))
        else:
            used.append((h, err))
    pair_slopes = [
        math.log(e1 / e2) / math.log(h1 / h2)
        for (h1, e1), (h2, e2) in zip(used, used[1:])
    ]
    if len(used) < 2:
        return OrderEstimate(None, pair_slopes, used, excluded)
    lh = np.log([h for h, _ in used])
    le = np.log([e for _, e in used])
    slope = float(np.polyfit(lh, le, 1)[0])
    return OrderEstimate(slope, pair_slopes, used, excluded)


# -- output --------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit_csv(data, path) -> None:
    """Write a trajectory record or a list of row dicts as CSV.

    Floats carry 17 significant digits, so parsing the file recovers them
    bit for bit.
    """
    if isinstance(data, TrajectoryRecord):
        header = ["n", "t", "x", "p", "energy_err", "global_err",
                  "global_err_mod"]
        rows = [[s.n, s.t, s.x, s.p, s.energy_err, s.global_err,
                 s.global_err_mod] for s in data.samples]
    else:
        data = list(data)
        header = list(data[0].keys()) if data else []
        rows = [[r[k] for k in header] for r in data]
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


_FIGOPTS = {
    # figure id -> (xlabel, ylabel, logx, logy, column expression)
    "fig1": ("t", "energy error", False, False, "energy"),
    "fig2": ("t", "energy error", False, False, "energy"),
    "fig3": ("t", "|energy error|", False, True, "energy_err"),
    "fig4": ("h", "global error", True, True, "sweep"),
    "fig5": ("h", "global error", True, True, "sweep"),
    "fig6": ("t", "global error", False, True, "global_err"),
}


def emit_plotscript(csv_paths, figure: str, path) -> None:
    """Write a gnuplot script reproducing the layout of one benchmark figure."""
    if figure not in _FIGOPTS:
        raise ValueError(f"unknown figure id {figure!r}")
    if not csv_paths:
        raise ValueError("need at least one CSV path")
    xlabel, ylabel, logx, logy, mode = _FIGOPTS[figure]
    lines = [
        f"# gnuplot script for {figure}",
        "set datafile separator ','",
        "set key outside",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
    ]
    if logx:
        lines.append("set logscale x")
    if logy:
        lines.append("set logscale y")
    plots = []
    for p in csv_paths:
        title = str(p).rsplit("/", 1)[-1].removesuffix(".csv")
        if mode == "sweep":
            plots.append(f"'{p}' skip 1 using 2:5 with linespoints title '{title}'")
        elif mode == "energy":
            # signed energy drift H(s_n) - H(s_0), the energy_err column
            plots.append(f"'{p}' skip 1 using 2:5 with lines title '{title}'")
        elif mode == "energy_err":
            plots.append(f"'{p}' skip 1 using 2:(abs($5)) with lines title '{title}'")
        else:
            plots.append(f"'{p}' skip 1 using 2:6 with lines title '{title}'")
    lines.append("plot \\")
    lines.append(", \\\n".join("    " + p for p in plots))
    lines.append("")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
