"""Experiment runner: trajectories, error sweeps, order estimation, and
CSV / gnuplot-script emission for the standard benchmark figures.

A scheme id resolves to one stride block per system object (the implicit
ones from :func:`discgrad.schemes.gradient_block`, the explicit ones from
:mod:`discgrad.baselines`): a generated function that runs m steps.  A run
is one block call, which walks the run in sample strides and records its
own samples; only a run that fails calls the block again, one step a call.

:func:`run_trajectory` runs on the system object it is given, or on one
it builds anew from the spec's name.  The entries of a sweep or an order
estimate pass one system object per name and process, so a process records
the pendulum and writes each scheme's block once, not once per entry.
"""

from __future__ import annotations

import functools
import io
import math
import operator
import time
import warnings
from dataclasses import KW_ONLY, dataclass, field

from . import baselines, reference, schemes
from .errors import (DivergenceError, PrecisionFloorWarning,
                     SaturationWarning, StepError, UnsupportedSchemeError)
from .hamiltonian import (HamiltonianSystem, Sample, check_flow_order,
                          system_from_name)

# measured errors below this sit at the round-off floor of a unit-scale state
PRECISION_FLOOR = 100.0 * math.ulp(1.0)
# measured errors from this up are not small against a unit-scale state: the
# orbit is off by a swing or by whole turns, not by C h^r
SATURATION_ERROR = 1.0


@dataclass(slots=True)
class ExperimentSpec:
    scheme: str
    system: str
    p0: float
    h: float
    n_steps: int
    _: KW_ONLY
    x0: float = 0.0
    sample_stride: int = 1

    def __post_init__(self):
        for name in ("n_steps", "sample_stride"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"need an integer {name}, got {name} = "
                                 f"{value!r}") from None
        if (not 0.0 < self.h < math.inf or self.n_steps < 1
                or self.sample_stride < 1):
            raise ValueError(
                "need a finite h > 0, n_steps >= 1, sample_stride >= 1")
        if not (math.isfinite(self.p0) and math.isfinite(self.x0)):
            raise ValueError(
                f"need a finite p0 and x0, got p0 = {self.p0!r}, "
                f"x0 = {self.x0!r}")


@dataclass(slots=True)
class TrajectoryRecord:
    samples: list
    metadata: dict = field(default_factory=dict)


# the implicit scheme ids that name one rule each
_RULES = {"gr": schemes.DeltaRule.gr,
          "mod-gr": lambda: schemes.DeltaRule.mod_gr(0.0),
          "gr-lex": schemes.DeltaRule.lex, "gr-slex": schemes.DeltaRule.slex}


def _block_maker(scheme: str):
    """Resolve a scheme id to the function sys -> the scheme's stride block
    on sys (see :meth:`discgrad.hamiltonian._SystemCode.block`); a bad id
    raises here, before any system is built.

    Ids: gr, mod-gr, gr-lex, gr-slex, gr-N, lf, rk4, tay-N, sp-2M.
    """
    if scheme == "lf":
        scheme = "sp-2"         # leap-frog is the order-2 composition

    def gradient(rule):
        return lambda sys: schemes.gradient_block(sys, rule)

    if scheme in _RULES:
        return gradient(_RULES[scheme]())
    if scheme == "rk4":
        return baselines.rk4_block
    # ASCII digits only: str.isdigit also takes "٤", which int reads, and "²"
    name, _, order = scheme.partition("-")
    try:
        if order.isascii() and order.isdigit():
            N = int(order)
            if name == "gr":
                return gradient(schemes.DeltaRule.series(N))
            if name == "tay":
                check_flow_order(N)
                return lambda sys: baselines.taylor_block(sys, N)
            if name == "sp":
                M, odd = divmod(N, 2)
                # an odd order has no M; M = 0 is out of range as well
                baselines.sp_coefficients(0 if odd else M)
                return lambda sys: baselines.kick_drift_block(sys, M)
    except ValueError as exc:
        raise UnsupportedSchemeError(
            f"unknown scheme id {scheme!r}: {exc}") from None
    raise UnsupportedSchemeError(f"unknown scheme id {scheme!r}")


def make_stepper(scheme: str, sys: HamiltonianSystem):
    """Resolve a scheme id to a callable (state, h) -> (state, iterations):
    one step of the scheme's stride block on sys."""
    block = _block_maker(scheme)(sys)
    return lambda s, h: schemes.one_step(block, s, h)


def run_trajectory(spec: ExperimentSpec,
                   sys: HamiltonianSystem = None) -> TrajectoryRecord:
    """Integrate one trajectory, sampling every sample_stride steps.

    The run is one call of the scheme's stride block on sys, which makes
    the steps and records the samples; without sys, the call builds the
    system from spec.system, so it records it and writes its scheme's
    block anew.  energy_err is H(s_n) - H(s_0); global_err compares
    against the exact elliptic-function solution in the max norm over
    (x, p), with the mod-2pi phase distance as a secondary column.  That
    solution is the pendulum's from x = 0, so both columns are None
    unless sys.name is "pendulum" and x0 = 0.
    """
    if sys is None:
        sys = system_from_name(spec.system)
    block = _block_maker(spec.scheme)(sys)
    exact = None
    if sys.name == "pendulum" and spec.x0 == 0.0:
        exact = reference.exact_solution(spec.p0)      # t -> (x, p)
    samples = []
    # solver iterations -> the number of steps that took them
    hist = [0] * (schemes.MAX_ITER + 1)
    h = spec.h
    t_start = time.perf_counter()
    try:
        block(spec.x0, spec.p0, h, spec.n_steps, hist, schemes.MAX_ITER,
              samples=samples, stride=spec.sample_stride, exact=exact)
    except (StepError, ArithmeticError, ValueError):
        # A block checks each step's state as it is made, so a state that
        # leaves float range fails at the step that made it, and every
        # step starts from a finite state.  A failed block does not say
        # which of its steps failed: the stride after the last sample runs
        # again from that sample's state, one step per block call, where
        # the same step fails and gains its index.  Where every step of it
        # passes, the sample at its end failed, and its error stands.
        start, x, p = ((samples[-1].n, samples[-1].x, samples[-1].p)
                       if samples else (0, spec.x0, spec.p0))
        end = min(start + spec.sample_stride, spec.n_steps)
        for n in range(start + 1, end + 1):
            try:
                x, p = block(x, p, h, 1, hist, schemes.MAX_ITER)
            except StepError as exc:
                exc.args = (f"step {n}: {exc}",)
                raise
            except (ArithmeticError, ValueError) as exc:
                raise DivergenceError(f"step {n}: {exc} from state "
                                      f"({x:.3g}, {p:.3g})") from exc
        raise
    wall = time.perf_counter() - t_start
    histogram = {k: v for k, v in enumerate(hist) if v}
    meta = {
        "spec": spec,
        "wall_time": wall,
        "iterations": {
            "min": min(histogram),
            "max": max(histogram),
            "mean": sum(k * v for k, v in histogram.items()) / spec.n_steps,
            "histogram": histogram,
        },
    }
    return TrajectoryRecord(samples, meta)


# the system of every sweep entry and order point, one object per name in
# a process: its recording and its generated blocks serve every entry
_entry_system = functools.cache(system_from_name)


def _final_global_error(scheme: str, p0: float, h: float, n: int) -> float:
    """The final global error of an n-step pendulum run from (0, p0): what
    run_trajectory reports, on the process's one pendulum object."""
    spec = ExperimentSpec(scheme, "pendulum", p0, h, n, sample_stride=n)
    record = run_trajectory(spec, _entry_system("pendulum"))
    return record.samples[-1].global_err


def _step_counts(target: float, h_list, name: str) -> list:
    """The step count round(target / h) of every h: each error is taken at
    n*h, the end nearest to time target.  Every h must be finite and > 0,
    and every count finite and at least 1; name says what target is."""
    counts = []
    for h in h_list:
        if not 0.0 < h < math.inf:
            raise ValueError(f"need a finite h > 0, got h = {h!r}")
        if not math.isfinite(target / h):
            raise ValueError(f"the step count {name} / h = {target!r} / "
                             f"{h!r} is not finite")
        n = round(target / h)
        if n < 1:
            raise ValueError(f"need h < twice {name} = {target!r}, so that "
                             f"a step ends near it; got h = {h!r}")
        counts.append(n)
    return counts


def _sweep_entry(args):
    """The pool task: (scheme, p0, h, n) -> final global error."""
    return _final_global_error(*args)


def sweep(schemes_list, p0: float, h_list, n_periods: int,
          parallel: bool = True):
    """Global error for every scheme x h combination, merged in spec order.

    An entry that fails raises its error; where several fail, the first in
    spec order does, with or without the pool."""
    if not schemes_list:
        raise ValueError("need at least one scheme")
    for sc in schemes_list:
        _block_maker(sc)               # a bad id fails before any entry runs
    if n_periods < 1:
        raise ValueError(f"need periods >= 1, got periods = {n_periods!r}")
    period = reference.pendulum_period(p0)
    try:
        target = n_periods * period
    except OverflowError:          # an int periods beyond float range
        target = math.inf
    counts = _step_counts(target, h_list, "periods * period")
    tasks = [(sc, p0, h, n) for sc in schemes_list
             for h, n in zip(h_list, counts)]
    if parallel and len(tasks) > 1:
        # imported here: the pool's modules take about a fifth of the
        # package's import time, and only a sweep needs them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor() as pool:
            # the longest entries first, so that no long one starts last;
            # the results, and the first error, are taken in spec order,
            # and an error cancels the entries not yet started
            futures = {i: pool.submit(_sweep_entry, tasks[i]) for i in
                       sorted(range(len(tasks)), key=lambda i: tasks[i][3],
                              reverse=True)}
            try:
                errors = [futures[i].result() for i in range(len(tasks))]
            finally:
                pool.shutdown(cancel_futures=True)
    else:
        errors = [_sweep_entry(t) for t in tasks]
    return [{"scheme": sc, "h": h, "n": n, "t": n * h, "error": err,
             "residual_fraction": (n * h - target) / period}
            for (sc, _, h, n), err in zip(tasks, errors)]


@dataclass(slots=True)
class OrderEstimate:
    slope: float          # None when fewer than 2 points entered the fit
    pair_slopes: list
    used: list            # (h, error) pairs that entered the fit
    excluded: list        # (h, error) pairs at the floor or saturated


def estimate_order(scheme: str, p0: float, h_list,
                   t_final: float) -> OrderEstimate:
    """Least-squares slope of log(error) against log(h), on the pendulum,
    over the errors between PRECISION_FLOOR and SATURATION_ERROR."""
    if len(h_list) < 3:
        raise ValueError("need at least 3 step sizes")
    if len(set(h_list)) < len(h_list):
        raise ValueError(f"need distinct step sizes, got h = {h_list!r}")
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"need a finite t > 0, got t = {t_final!r}")
    used, excluded = [], []
    for h, n in zip(h_list, _step_counts(t_final, h_list, "t")):
        err = _final_global_error(scheme, p0, h, n)
        if err < PRECISION_FLOOR:
            warnings.warn(
                f"{scheme} at h={h:g}: error {err:.2e} is at the round-off "
                "floor; excluded from the order fit", PrecisionFloorWarning)
            excluded.append((h, err))
        elif err >= SATURATION_ERROR:
            warnings.warn(
                f"{scheme} at h={h:g}: error {err:.2e} is not small against "
                "the state (saturated); excluded from the order fit",
                SaturationWarning)
            excluded.append((h, err))
        else:
            used.append((h, err))
    pair_slopes = [
        math.log(e1 / e2) / math.log(h1 / h2)
        for (h1, e1), (h2, e2) in zip(used, used[1:])
    ]
    if len(used) < 2:
        return OrderEstimate(None, pair_slopes, used, excluded)
    # imported here: only an order fit needs it, and it takes several
    # modules with it
    import statistics
    slope = statistics.linear_regression(
        [math.log(h) for h, _ in used], [math.log(e) for _, e in used]).slope
    return OrderEstimate(slope, pair_slopes, used, excluded)


# -- output --------------------------------------------------------------

# lines of a trajectory CSV joined per write
_BLOCK_LINES = 1024


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _record_lines(samples):
    """The CSV text of a trajectory record, in blocks of up to _BLOCK_LINES
    lines, each sample through one printf template.

    A record has global errors in every sample or in none, so one template
    serves the whole record.  It prints what csv.writer prints of _fmt's
    strings (no field needs quoting, and every line ends in \\r\\n), except
    that an int of 1e17 or more in a float column (a hand-built record, or
    an int p0 or x0 given through the API) prints in exponent form.
    """
    yield "n,t,x,p,energy_err,global_err,global_err_mod\r\n"
    with_global = samples and samples[0].global_err is not None
    line = ("%d" + ",%.17g" * 6 + "\r\n" if with_global
            else "%d" + ",%.17g" * 4 + ",,\r\n")
    for i in range(0, len(samples), _BLOCK_LINES):
        block = samples[i:i + _BLOCK_LINES]
        if with_global:
            yield "".join([line % (s.n, s.t, s.x, s.p, s.energy_err,
                                   s.global_err, s.global_err_mod)
                           for s in block])
        else:
            yield "".join([line % (s.n, s.t, s.x, s.p, s.energy_err)
                           for s in block])


def _dict_lines(rows):
    """The CSV text of row dicts, with the first row's keys as header."""
    import csv                # only row dicts need it
    rows = list(rows)
    keys = list(rows[0].keys()) if rows else []
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(keys)
    writer.writerows([_fmt(r[k]) for k in keys] for r in rows)
    return [out.getvalue()]


def emit_csv(data, path) -> None:
    """Write a trajectory record or a list of row dicts as CSV.

    Floats carry 17 significant digits, so parsing the file recovers them
    bit for bit.  A record's lines are streamed to the file in blocks of
    _BLOCK_LINES lines, one write each, so no string holds the whole file.
    """
    lines = (_record_lines(data.samples) if isinstance(data, TrajectoryRecord)
             else _dict_lines(data))
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            f.writelines(lines)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


_FIGOPTS = {
    # figure id -> (xlabel, ylabel, log axes, gnuplot using clause); fig1
    # and fig2 plot the signed energy drift H(s_n) - H(s_0), energy_err
    "fig1": ("t", "energy error", "", "2:5 with lines"),
    "fig2": ("t", "energy error", "", "2:5 with lines"),
    "fig3": ("t", "|energy error|", "y", "2:(abs($5)) with lines"),
    "fig4": ("h", "global error", "xy", "2:5 with linespoints"),
    "fig5": ("h", "global error", "xy", "2:5 with linespoints"),
    "fig6": ("t", "global error", "y", "2:6 with lines"),
}


def emit_plotscript(csv_paths, figure: str, path) -> None:
    """Write a gnuplot script reproducing the layout of one benchmark figure."""
    if figure not in _FIGOPTS:
        raise ValueError(f"unknown figure id {figure!r}")
    if not csv_paths:
        raise ValueError("need at least one CSV path")
    xlabel, ylabel, log_axes, using = _FIGOPTS[figure]
    # gnuplot escapes ' inside a single-quoted string by doubling it
    plots = [f"    '{q}' skip 1 using {using} title "
             f"'{q.rsplit('/', 1)[-1].removesuffix('.csv')}'"
             for q in (str(p).replace("'", "''") for p in csv_paths)]
    lines = [
        f"# gnuplot script for {figure}",
        "set datafile separator ','",
        "set key outside",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        *(f"set logscale {axis}" for axis in log_axes),
        "plot \\",
        ", \\\n".join(plots),
        "",
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
