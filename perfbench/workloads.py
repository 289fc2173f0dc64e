"""The four workloads: inputs drawn from the seed, one round of CLI calls,
and the checks that decide which trajectories of a round failed.

Every workload runs the pendulum from x0 = 0, because pendulum_exact only
describes orbits through x = 0 (run_trajectory compares an x0 != 0 run
against that orbit without saying so).  The seed draws p0 only; all rounds
of one run repeat the same inputs, so counts per step repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import statistics
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
from time import perf_counter

from discgrad import cli, harness, reference

H = 0.25
LIBRATION = (1.7, 1.9)
# Criterion 10's ordering (stated at p0 = 2.001) is a near-separatrix
# property: sp-4's energy error turns into phase error there.  Further out
# gr and sp-4 swap places: at p0 = 2.01 for every run length up to 2e4
# steps, near 2.0015 over 4000 steps.  So the band stays close in, and the
# gr < sp-4 link is checked only by the workloads of 1e4 steps.
ROTATION = (2.0005, 2.0015)
SMALL_AMPLITUDE = (0.015, 0.025)
SWEEP_H = "0.4:0.0125:/2"
# criterion 10: the final global error on the rotation band increases
# along this chain
CHAIN = ("gr-7", "gr-lex", "gr", "sp-4")
# criterion 2: energy drift of a discrete-gradient trajectory
DRIFT_BOUND = 1e-10
# a sweep entry's final global error must agree with the scalar runner's to
# this share plus ROUND_OFF (harness.PRECISION_FLOOR's value), the error
# below which an algorithm change may legitimately move it
SWEEP_RTOL = 0.01
ROUND_OFF = 100.0 * sys.float_info.epsilon
TRAJECTORY_HEADER = ["n", "t", "x", "p", "energy_err", "global_err",
                     "global_err_mod"]


@dataclass(frozen=True)
class Workload:
    name: str
    schemes: tuple
    steps: int = 0           # per trajectory, for `integrate` workloads
    stride: int = 1
    periods: int = 0         # for the `sweep` workload

    @property
    def is_sweep(self) -> bool:
        return self.periods > 0


WORKLOADS = {w.name: w for w in (
    Workload("implicit-long", ("gr", "gr-lex", "gr-slex"),
             steps=10_000, stride=100),
    Workload("series-long", ("gr-3", "gr-7", "tay-10"),
             steps=4_000, stride=100),
    Workload("fig4-sweep", ("gr", "gr-3", "gr-7", "gr-lex", "sp-4", "tay-10"),
             periods=8),
    Workload("dense-output", ("lf", "sp-4"), steps=10_000, stride=1),
)}


# A copy of the seed commit's stopping test in reference.elliptic_K, so that
# which p0 a seed draws is decided by the benchmark, not by the program
# under test.  That loop stops once the relative gap of the AGM of 1 and
# sqrt(1 - k^2) is at most 1e-16, which is below double precision: for
# about a quarter of all moduli the two means settle one ulp apart and it
# never returns, and with it every oracle call (and so the CLI) at that p0.
AGM_TOL = 1e-16
AGM_CAP = 64             # the AGM converges quadratically in under 10 steps


def agm_settles(p0: float) -> bool:
    """Whether the seed commit's elliptic_K returns at the modulus of p0."""
    a = abs(p0)
    k = a / 2.0 if a < 2.0 else 2.0 / a
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(AGM_CAP):
        if not abs(a - b) > AGM_TOL * a:
            return True
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return False


def draw_inputs(w: Workload, seed: int):
    """p0 per band, the only values the seed decides, and the draws that
    were skipped because the seed commit's oracle hangs on them.  Both
    depend on the seed alone, so they are the same on every commit."""
    rng = random.Random(seed)
    bands = ({"small": SMALL_AMPLITUDE} if w.is_sweep
             else {"libration": LIBRATION, "rotation": ROTATION})
    inputs, skipped = {}, []
    for name, band in bands.items():
        p0 = rng.uniform(*band)
        while not agm_settles(p0):
            skipped.append(p0)
            p0 = rng.uniform(*band)
        inputs[name] = p0
    return inputs, skipped


@dataclass
class Call:
    """One CLI invocation of a round."""
    argv: list
    out: str
    scheme: str = None       # `integrate` calls only
    band: str = None


def plan_calls(w: Workload, inputs: dict, outdir, serial=False) -> list:
    if w.is_sweep:
        out = str(outdir / "sweep.csv")
        argv = ["sweep", "--schemes", ",".join(w.schemes),
                "--p0", repr(inputs["small"]), "--h", SWEEP_H,
                "--periods", str(w.periods), "--out", out]
        return [Call(argv + ["--serial"] if serial else argv, out)]
    calls = []
    for band in ("libration", "rotation"):
        for scheme in w.schemes:
            out = str(outdir / f"{scheme}-{band}.csv")
            argv = ["integrate", "--scheme", scheme,
                    "--p0", repr(inputs[band]), "--h", repr(H),
                    "--steps", str(w.steps), "--stride", str(w.stride),
                    "--out", out]
            calls.append(Call(argv, out, scheme, band))
    return calls


def chain_links(w: Workload) -> list:
    """The adjacent pairs of CHAIN that involve a scheme the workload runs;
    each is checked on the workload's own rotation-band trajectories."""
    return [(a, b) for a, b in zip(CHAIN, CHAIN[1:])
            if a in w.schemes or b in w.schemes]


def _final_error(scheme: str, p0: float, h: float, n: int) -> float:
    """Final global error of one trajectory through the scalar runner."""
    spec = harness.ExperimentSpec(scheme, "pendulum", p0, h, n,
                                  sample_stride=n)
    return harness.run_trajectory(spec).samples[-1].global_err


def chain_references(w: Workload, inputs: dict) -> dict:
    """Final global error on the rotation band of each scheme in a chain
    link that the workload does not run itself, at its p0, h and n."""
    needed = {s for link in chain_links(w) for s in link} - set(w.schemes)
    return {scheme: _final_error(scheme, inputs["rotation"], H, w.steps)
            for scheme in sorted(needed)}


def sweep_references(w: Workload, inputs: dict) -> dict:
    """(n, final global error) of every sweep entry, keyed by (scheme, h),
    from the scalar run_trajectory: the sweep's answer without its pool,
    merge or any batched core.  n puts t nearest to `periods` periods."""
    p0 = inputs["small"]
    target = w.periods * reference.pendulum_period(p0)
    refs = {}
    for scheme in w.schemes:
        for h in cli.parse_h_spec(SWEEP_H):
            n = max(1, round(target / h))
            refs[scheme, h] = (n, _final_error(scheme, p0, h, n))
    return refs


def references(w: Workload, inputs: dict) -> dict:
    """What the checks of every round compare against, made once a run."""
    return (sweep_references if w.is_sweep else chain_references)(w, inputs)


@dataclass
class Verdict:
    label: str
    reasons: list = field(default_factory=list)


# -- host speed ---------------------------------------------------------
# Other tenants' load can move a shared host's speed by tens of percent
# within seconds, in user time as much as in wall time.  A fixed kernel that
# uses no discgrad code, so that no change to discgrad can move it, is timed
# before and after every measured call; scaling the call's wall time by
# KERNEL_REF_S over the mean kernel time gives seconds at reference speed.
# Of the kernels tried (a frozen gr step, jet-like series loops, dict and
# closure calls, and this one), this one tracked the slowdowns of gr-slex,
# gr-7 and dense CSV output best: 2-3% spread left of 30-40% raw.
# KERNEL_REF_S is its time on the reference host (2 vCPUs, Xeon, 2.1 GHz).
KERNEL_REF_S = 0.0008


def _kernel_once() -> float:
    t0 = perf_counter()
    writer = csv.writer(io.StringIO())
    for i in range(150):
        a, b = 1.0, math.sqrt(1.0 - 0.81)
        while abs(a - b) > 1e-15 * a:
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        writer.writerow([format(v, ".17g") for v in
                         (a, b, i * 0.25, math.asin(0.3), 1e-3 * i)])
    return perf_counter() - t0


def kernel_seconds() -> float:
    """Time to write 150 CSV rows, each an arithmetic-geometric mean and
    four more floats at 17 digits: the median of three runs (which drops a
    run hit by an interrupt) on each allowed CPU in turn, averaged over the
    CPUs, since a call's work (or the sweep's pool) may run on any of them
    and each CPU's speed moves on its own."""
    cpus = os.sched_getaffinity(0)
    try:
        per_cpu = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(_kernel_once() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def at_reference_speed(wall: float, kernel_before: float) -> float:
    """wall seconds at reference host speed, given the kernel's time just
    before they started; the kernel is timed again now, so call this as
    soon as the measured work (and every process it started) has ended."""
    return wall * KERNEL_REF_S * 2.0 / (kernel_before + kernel_seconds())


def scaled_seconds(fn):
    """(fn's result, fn's wall seconds at reference host speed)."""
    before = kernel_seconds()
    t0 = perf_counter()
    result = fn()
    return result, at_reference_speed(perf_counter() - t0, before)


@dataclass
class Round:
    wall: float              # seconds inside the CLI calls, at reference speed
    steps: int               # integration steps completed
    verdicts: list           # one per trajectory or sweep entry

    @property
    def failed(self) -> int:
        return sum(1 for v in self.verdicts if v.reasons)


@contextlib.contextmanager
def _capture(name: str, sink: list):
    """Keep what the CLI's call of harness.<name> returns."""
    original = getattr(harness, name)

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(harness, name, capture)
    try:
        yield
    finally:
        setattr(harness, name, original)


def run_round(w: Workload, inputs: dict, refs: dict, outdir, main=cli.main,
              serial=False) -> Round:
    """Run the workload once through `main` and check what it produced.
    refs are what references() made for the same workload and inputs."""
    calls = plan_calls(w, inputs, outdir, serial)
    captured = []

    def run(call):
        """(exit code or crash text, what harness returned, seconds)."""
        def call_main():
            try:
                return main(call.argv)
            except Exception as exc:  # a crash fails the trajectory only
                return f"{type(exc).__name__}: {exc}"
        code, seconds = scaled_seconds(call_main)
        return code, (captured.pop() if captured else None), seconds

    with _capture("sweep" if w.is_sweep else "run_trajectory", captured), \
            contextlib.redirect_stdout(io.StringIO()):
        if w.is_sweep:
            return _check_sweep(w, calls[0], refs, *run(calls[0]))
        wall, steps, verdicts = 0.0, 0, []
        finals, rotation = dict(refs), {}
        for call in calls:
            code, record, seconds = run(call)
            wall += seconds
            v = _check_trajectory(w, call, code, record)
            verdicts.append(v)
            if record is not None and code == 0:
                steps += w.steps
                if call.band == "rotation":
                    finals[call.scheme] = record.samples[-1].global_err
                    rotation[call.scheme] = v
            # checked and let go before the next call, so that the peak
            # RSS is the CLI's own and not records the benchmark kept
            del record
    _check_chain(w, finals, rotation)
    return Round(wall, steps, verdicts)


def _check_trajectory(w, call, code, record) -> Verdict:
    v = Verdict(f"{call.scheme} {call.band}")
    if code != 0 or record is None:
        v.reasons.append(f"CLI exit code {code}")
        return v
    last = record.samples[-1]
    if not (last.n == w.steps and math.isfinite(last.x)
            and math.isfinite(last.p)):
        v.reasons.append(f"final state at n={last.n} is ({last.x}, {last.p})")
    if call.scheme.startswith("gr"):
        drift = max(abs(s.energy_err) for s in record.samples)
        if not drift <= DRIFT_BOUND:
            v.reasons.append(f"energy drift {drift:.3g} > {DRIFT_BOUND}")
    rows = ([s.n, s.t, s.x, s.p, s.energy_err, s.global_err,
             s.global_err_mod] for s in record.samples)
    if csv_bad_rows(call.out, TRAJECTORY_HEADER, rows) != set():
        v.reasons.append("CSV does not re-parse to the in-memory values")
    return v


def _check_chain(w, finals: dict, rotation: dict) -> None:
    """Criterion 10 on the rotation band: fail both trajectories of every
    chain link whose errors are out of order."""
    for a, b in chain_links(w):
        ea, eb = finals.get(a, math.nan), finals.get(b, math.nan)
        if not ea < eb:
            for s in (a, b):
                if s in rotation:
                    rotation[s].reasons.append(
                        f"criterion 10 order broken: {a} error {ea:.3g} "
                        f"is not below {b} error {eb:.3g}")


def _check_sweep(w, call, refs, code, rows, wall) -> Round:
    """One verdict per entry that refs expect.  An entry fails unless its
    n and final global error agree with the scalar runner's (the error to
    SWEEP_RTOL plus ROUND_OFF) and its CSV row re-parses bit for bit."""
    if code != 0 or not rows:
        return Round(wall, 0, [Verdict(f"{s} h={h:g}",
                                       [f"CLI exit code {code}"])
                               for s, h in refs])
    header = list(rows[0].keys())
    bad = csv_bad_rows(call.out, header,
                       ([r[k] for k in header] for r in rows))
    left = dict(refs)
    verdicts = []
    for i, r in enumerate(rows):
        v = Verdict(f"{r['scheme']} h={r['h']:g}")
        n, err = left.pop((r["scheme"], r["h"]), (None, None))
        if n is None:
            v.reasons.append("not an entry the sweep was asked for")
        elif r["n"] != n:
            v.reasons.append(f"n = {r['n']}, the scalar runner's is {n}")
        elif not abs(r["error"] - err) <= SWEEP_RTOL * err + ROUND_OFF:
            v.reasons.append(f"final global error {r['error']:.6g}, the "
                             f"scalar runner's is {err:.6g}")
        if bad is None or i in bad:
            v.reasons.append("CSV does not re-parse to the in-memory values")
        verdicts.append(v)
    verdicts += [Verdict(f"{s} h={h:g}", ["missing from the sweep result"])
                 for s, h in left]
    return Round(wall, sum(r["n"] for r in rows), verdicts)


def _same(text: str, value) -> bool:
    if value is None:
        return text == ""
    if isinstance(value, float):
        try:
            return float(text).hex() == value.hex()
        except ValueError:
            return False
    return text == str(value)


def csv_bad_rows(path, header, rows) -> set | None:
    """Indices of the rows whose CSV text does not parse back to the same
    values bit for bit; None when the file as a whole is wrong (unreadable,
    another header, another number of rows).  rows may be any iterable, so
    a long record is compared without a copy."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            if next(reader, None) != header:
                return None
            bad = set()
            for i, (text, row) in enumerate(zip_longest(reader, rows)):
                if text is None or row is None:
                    return None
                if len(text) != len(row) or not all(map(_same, text, row)):
                    bad.add(i)
            return bad
    except OSError:
        return None
