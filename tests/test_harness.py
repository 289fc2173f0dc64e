"""Experiment runner, order estimation and output emission."""

import csv
import math
import os
import re

import numpy as np
import pytest

from discgrad import hamiltonian, harness, jets, reference
from discgrad.errors import (DivergenceError, NonConvergenceError,
                             PrecisionFloorWarning, SaturationWarning,
                             StepError, UnsupportedSchemeError)
from discgrad.harness import (ExperimentSpec, TrajectoryRecord, emit_csv,
                              emit_plotscript, estimate_order, make_stepper,
                              run_trajectory, sweep)
from discgrad.hamiltonian import PhaseState, make_pendulum


def _spec(**kw):
    base = dict(scheme="gr", system="pendulum", p0=1.8, h=0.25,
                n_steps=100, sample_stride=10)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    for h in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            _spec(h=h)
    with pytest.raises(ValueError):
        _spec(n_steps=0)
    with pytest.raises(ValueError):
        _spec(sample_stride=0)


def test_spec_rejects_a_non_integer_count():
    # a float count used to build a spec whose run failed in the block,
    # after the first sample, with a bare TypeError
    for field, value in (("n_steps", 2.5), ("sample_stride", 1.5),
                         ("n_steps", 100.0), ("sample_stride", 100.0),
                         ("n_steps", "100")):
        with pytest.raises(ValueError, match=f"need an integer {field}, "
                           f"got {field} = {value!r}"):
            _spec(**{field: value})
    # what operator.index accepts is a count
    spec = _spec(n_steps=np.int64(20), sample_stride=np.int32(5))
    assert [s.n for s in run_trajectory(spec).samples] == [0, 5, 10, 15, 20]


def test_spec_takes_x0_and_stride_by_keyword_only():
    # a sixth positional argument once became x0, so a stride of 100 started
    # the run at x = 100, with no exact solution and no global error
    with pytest.raises(TypeError):
        ExperimentSpec("gr-7", "pendulum", 1.8, 0.25, 4000, 100)
    with pytest.raises(TypeError):
        ExperimentSpec("gr-7", "pendulum", 1.8, 0.25, 4000, 0.0, 100)
    spec = ExperimentSpec("gr-7", "pendulum", 1.8, 0.25, 4000,
                          sample_stride=100)
    assert (spec.x0, spec.sample_stride) == (0.0, 100)


def _count_systems(monkeypatch):
    """A list that gains an entry at every system object built."""
    built, init = [], hamiltonian._SystemCode.__init__

    def counting(self, sys):
        built.append(sys.name)
        init(self, sys)
    monkeypatch.setattr(hamiltonian._SystemCode, "__init__", counting)
    return built


def test_sweep_and_order_entries_share_one_system(monkeypatch):
    # every entry of a serial sweep, and every point of an order estimate,
    # runs on the process's one pendulum object: it is recorded once
    built = _count_systems(monkeypatch)
    harness._entry_system.cache_clear()
    rows = sweep(["gr", "gr-3", "sp-4"], 1.8, [0.2, 0.1, 0.05], 1,
                 parallel=False)
    assert len(rows) == 9 and built == ["pendulum"]
    harness._entry_system.cache_clear()
    built.clear()
    est = estimate_order("gr", 1.8, [0.2, 0.1, 0.05, 0.025], 2.0)
    assert len(est.used) == 4 and built == ["pendulum"]


def test_each_trajectory_builds_its_own_system(monkeypatch):
    # run_trajectory (so every integrate) records its system anew at each
    # call; perfbench's counter test needs that, since it counts the jet
    # operations a recording makes in each round
    built = _count_systems(monkeypatch)
    for _ in range(2):
        run_trajectory(_spec(n_steps=3))
    assert built == ["pendulum", "pendulum"]


def test_a_trajectory_on_a_given_system_builds_none(monkeypatch, tmp_path):
    # a system object passed in is the one the run steps: none is built,
    # and the CSV is the one a run on a system of its own writes
    pend = make_pendulum()
    built = _count_systems(monkeypatch)
    for scheme in ("gr", "gr-slex", "gr-7", "sp-4", "tay-10"):
        spec = _spec(scheme=scheme, n_steps=40, sample_stride=3)
        emit_csv(run_trajectory(spec, pend), tmp_path / "given.csv")
        assert built == [], scheme
        emit_csv(run_trajectory(spec), tmp_path / "own.csv")
        built.clear()
        assert (tmp_path / "given.csv").read_bytes() \
            == (tmp_path / "own.csv").read_bytes(), scheme


def test_sweep_and_order_entries_run_as_trajectories(monkeypatch):
    # every sweep entry and order point is a run_trajectory on the
    # process's one pendulum object
    calls, original = [], harness.run_trajectory

    def counting(spec, sys=None):
        calls.append((spec.scheme, sys))
        return original(spec, sys)
    monkeypatch.setattr(harness, "run_trajectory", counting)
    pend = harness._entry_system("pendulum")
    sweep(["gr", "sp-4"], 1.8, [0.2, 0.1], 1, parallel=False)
    assert calls == [("gr", pend)] * 2 + [("sp-4", pend)] * 2
    calls.clear()
    estimate_order("gr-3", 1.8, [0.2, 0.1, 0.05], 2.0)
    assert calls == [("gr-3", pend)] * 3


def test_the_oracle_is_bound_from_the_system_integrated():
    # a spec that names the pendulum, run on another system, is never
    # compared with the pendulum's orbit
    rec = run_trajectory(ExperimentSpec("gr", "pendulum", 1.0, 0.25, 8),
                         hamiltonian.make_harmonic(1.3))
    assert len(rec.samples) == 9
    assert all(s.global_err is None for s in rec.samples)


def test_make_stepper_ids(pendulum):
    for sid in ("gr", "mod-gr", "gr-lex", "gr-slex", "gr-3", "gr-14", "lf",
                "rk4", "tay-4", "sp-2", "sp-4"):
        step = make_stepper(sid, pendulum)
        s, its = step(PhaseState(0.0, 1.8), 0.25)
        assert math.isfinite(s.x) and math.isfinite(s.p)
    with pytest.raises(UnsupportedSchemeError):
        make_stepper("verlet3", pendulum)
    with pytest.raises(UnsupportedSchemeError):
        make_stepper("sp-3", pendulum)
    # the delta series' order stops at schemes.MAX_SERIES_ORDER = 14,
    # checked when the id is resolved
    for sid in ("gr-15", "gr-16"):
        with pytest.raises(ValueError, match=r"\[1, 14\]"):
            make_stepper(sid, pendulum)
    # tay-N is the flow series itself, checked when the id is resolved
    for sid in ("tay-0", "tay-17"):
        with pytest.raises(ValueError, match=r"\[1, 16\]"):
            make_stepper(sid, pendulum)


def test_sampling_contract():
    rec = run_trajectory(_spec(n_steps=95, sample_stride=10))
    ns = [s.n for s in rec.samples]
    assert ns == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95]
    for s in rec.samples:
        assert s.t == s.n * 0.25


def test_single_step_time():
    rec = run_trajectory(_spec(n_steps=1, sample_stride=1))
    assert rec.samples[-1].t == 0.25


def test_energy_error_small_for_gradient_scheme():
    rec = run_trajectory(_spec(n_steps=1000, sample_stride=100))
    assert max(abs(s.energy_err) for s in rec.samples) <= 1e-11


def test_global_error_column_present():
    rec = run_trajectory(_spec(n_steps=40, sample_stride=10))
    last = rec.samples[-1]
    assert last.global_err is not None and last.global_err > 0
    assert last.global_err_mod is not None
    assert last.global_err_mod <= last.global_err + 1e-15


def test_global_error_only_for_the_reference_orbit():
    # the exact orbit starts at x = 0; other starts have no reference
    for kw in (dict(x0=0.5), dict(system="harmonic:1")):
        rec = run_trajectory(_spec(n_steps=20, sample_stride=10, **kw))
        assert all(s.global_err is None and s.global_err_mod is None
                   for s in rec.samples)


def test_global_errors_are_max_norms_of_the_exact_state():
    # lf at h 0.5 from p0 1.8: the phase error passes pi on many samples, so
    # both ways of the mod-2pi column are taken
    rec = run_trajectory(_spec(scheme="lf", h=0.5, n_steps=4000,
                               sample_stride=1))
    assert len(rec.samples) == 4001
    past_pi = 0
    for s in rec.samples:
        want = reference.pendulum_exact(1.8, s.n * 0.5)
        dx, dp = s.x - want.x, abs(s.p - want.p)
        assert s.global_err.hex() == max(abs(dx), dp).hex(), s
        assert s.global_err_mod.hex() == max(
            abs(math.remainder(dx, 2.0 * math.pi)), dp).hex(), s
        past_pi += abs(dx) > math.pi
    assert 100 < past_pi < 4000


@pytest.mark.parametrize("scheme", ["lf", "sp-4", "gr"])
def test_sample_lines_call_no_energy(scheme, monkeypatch):
    # a sample computes H from the recorded energy, in the block's text
    texts = []
    generate = jets.generate

    def spy(params, body, result, namespace):
        texts.append("\n".join(body))
        return generate(params, body, result, namespace)
    monkeypatch.setattr(jets, "generate", spy)
    make_stepper(scheme, make_pendulum())
    (text,) = texts
    assert "_append(Sample(" in text
    assert "energy(" not in text
    assert "gcos(x0)" in text


def test_iteration_statistics():
    rec = run_trajectory(_spec(n_steps=50))
    it = rec.metadata["iterations"]
    assert 1 <= it["min"] <= it["mean"] <= it["max"] <= 100
    rec = run_trajectory(_spec(scheme="rk4", n_steps=10))
    assert rec.metadata["iterations"]["max"] == 0


def test_iteration_histogram():
    for scheme in ("gr-slex", "gr-7", "rk4"):
        rec = run_trajectory(_spec(scheme=scheme, n_steps=300))
        it = rec.metadata["iterations"]
        histogram = it["histogram"]
        assert sum(histogram.values()) == 300
        assert sum(k * v for k, v in histogram.items()) / 300 == it["mean"]
        assert (min(histogram), max(histogram)) == (it["min"], it["max"])
    assert histogram == {0: 300}        # rk4 solves nothing


def test_gr_n_iterations_from_the_flow_start():
    # from the Euler predictor both took 5.65 iterations per step here
    for scheme, most in (("gr-7", 4.0), ("gr-3", 5.2)):
        rec = run_trajectory(_spec(scheme=scheme, n_steps=1000,
                                   sample_stride=100))
        assert rec.metadata["iterations"]["mean"] <= most


def test_nonconvergence_reports_step_index():
    with pytest.raises(NonConvergenceError) as exc_info:
        run_trajectory(_spec(h=50.0, n_steps=10))
    assert str(exc_info.value).startswith(
        "step 1: no convergence in 100 iterations")
    # one step-failure family, which the CLI exits 3 on
    assert isinstance(exc_info.value, StepError)


def test_math_error_in_a_step_is_a_chained_divergence():
    # sp-4 on the pendulum overflows x within step 6, and that step's own
    # sin(x) then fails: the error names the step and keeps its cause
    with pytest.raises(DivergenceError) as exc_info:
        run_trajectory(_spec(scheme="sp-4", p0=1.0, h=1e154, n_steps=10,
                             sample_stride=10))
    assert str(exc_info.value).startswith("step 6: math domain error ")
    assert type(exc_info.value.__cause__) is ValueError


@pytest.mark.parametrize("scheme, system, p0, h, head", [
    # the solve stops converging in step 7; its increment passes the guard
    # in step 9
    ("gr", "pendulum", 1.8, 2.0, "step 7: no convergence in 100 "),
    ("gr-7", "pendulum", 1.8, 2.5, "step 9: fixed-point increment "),
    # h w = 2.5e7 and 2500 are far outside the stability intervals: the
    # state grows until it leaves float range
    ("rk4", "harmonic:1e8", 1.0, 0.25, "step 11: state ("),
    ("tay-10", "harmonic:1e4", 1.0, 0.25, "step 11: state ("),
    # mod-gr's delta is taken once per block, before its first step
    ("mod-gr", "pendulum", 1.8, 3.2, "step 1: h*omega = 3.2 >= pi"),
])
def test_a_failure_inside_a_stride_names_its_step(scheme, system, p0, h,
                                                   head):
    # a block that fails runs its stride again, one step per call, so the
    # error names the same step at every stride
    errors = set()
    for stride in (1, 7, 20):
        with pytest.raises(StepError) as exc_info:
            run_trajectory(_spec(scheme=scheme, system=system, p0=p0, h=h,
                                 n_steps=20, sample_stride=stride))
        errors.add(str(exc_info.value))
    (error,) = errors
    assert error.startswith(head)


@pytest.mark.parametrize("scheme", ["lf", "gr"])
@pytest.mark.parametrize("n_steps, stride", [(1000, 1), (20, 7)])
def test_a_run_is_one_block_call(monkeypatch, scheme, n_steps, stride):
    # the block walks the strides and records the samples itself
    calls = []
    block_maker = harness._block_maker

    def counting(sid):
        make = block_maker(sid)

        def made(sys):
            block = make(sys)

            def counted(*args, **kwargs):
                calls.append(args[3])
                return block(*args, **kwargs)
            return counted
        return made
    monkeypatch.setattr(harness, "_block_maker", counting)
    rec = run_trajectory(_spec(scheme=scheme, n_steps=n_steps,
                               sample_stride=stride))
    assert calls == [n_steps]
    assert [s.n for s in rec.samples] == [
        *range(0, n_steps, stride), n_steps]


@pytest.mark.parametrize("at", [0.0, 4.0, 10.0])
@pytest.mark.parametrize("stride", [1, 4])
def test_a_failing_sample_keeps_its_error(monkeypatch, at, stride):
    # an oracle error is no step's: it leaves the run as raised, with no
    # step index, whatever stride the sample ends
    exact_solution = reference.exact_solution

    def failing(p0):
        exact = exact_solution(p0)

        def oracle(t):
            if t == at:
                raise OverflowError(f"oracle overflow at t = {t}")
            return exact(t)
        return oracle
    monkeypatch.setattr(reference, "exact_solution", failing)
    with pytest.raises(OverflowError) as exc_info:
        run_trajectory(_spec(scheme="lf", h=0.5, n_steps=20,
                             sample_stride=stride))
    assert type(exc_info.value) is OverflowError
    assert str(exc_info.value) == f"oracle overflow at t = {at}"


@pytest.mark.parametrize("scheme", ["gr-slex", "gr-7"])
@pytest.mark.parametrize("p0", [1.8, 2.001])
def test_iteration_histogram_counts_every_step(scheme, p0):
    # the block's histogram is the one that one step at a time gives
    rec = run_trajectory(_spec(scheme=scheme, p0=p0, n_steps=500,
                               sample_stride=100))
    step = make_stepper(scheme, make_pendulum())
    s, want = PhaseState(0.0, p0), {}
    for _ in range(500):
        s, its = step(s, 0.25)
        want[its] = want.get(its, 0) + 1
    assert rec.metadata["iterations"]["histogram"] == dict(sorted(
        want.items()))
    assert (rec.samples[-1].x, rec.samples[-1].p) == (s.x, s.p)


def test_determinism_bitwise():
    a = run_trajectory(_spec(n_steps=200, sample_stride=20))
    b = run_trajectory(_spec(n_steps=200, sample_stride=20))
    for sa, sb in zip(a.samples, b.samples):
        assert (sa.x, sa.p, sa.energy_err, sa.global_err) == \
            (sb.x, sb.p, sb.energy_err, sb.global_err)


def test_csv_round_trip(tmp_path):
    rec = run_trajectory(_spec(n_steps=30, sample_stride=10))
    path = tmp_path / "run.csv"
    emit_csv(rec, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n", "t", "x", "p", "energy_err", "global_err",
                       "global_err_mod"]
    assert len(rows) == len(rec.samples) + 1
    for row, s in zip(rows[1:], rec.samples):
        assert float(row[2]) == s.x
        assert float(row[3]) == s.p
        assert float(row[5]) == s.global_err


def test_csv_row_dicts_and_empty(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv([{"h": 0.1, "error": 1e-3}, {"h": 0.05, "error": 1e-4}], path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["h", "error"]
    assert len(rows) == 3
    emit_csv([], path)
    with open(path, newline="") as f:
        assert f.read().strip() == ""
    with pytest.raises(OSError):
        emit_csv([], "/nonexistent-dir/t.csv")


def _reference_csv(data, path):
    """CSV through csv.writer, every float formatted with format(v,
    ".17g"): the bytes emit_csv must write."""
    def fmt(v):
        if v is None:
            return ""
        return format(v, ".17g") if isinstance(v, float) else str(v)
    if isinstance(data, TrajectoryRecord):
        header = ["n", "t", "x", "p", "energy_err", "global_err",
                  "global_err_mod"]
        rows = [[s.n, s.t, s.x, s.p, s.energy_err, s.global_err,
                 s.global_err_mod] for s in data.samples]
    else:
        header = list(data[0].keys()) if data else []
        rows = [[r[k] for k in header] for r in data]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def test_csv_bytes_match_reference_writer(tmp_path):
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -1e300, 0.1]
    # every odd value in every float column, beside small and huge n
    samples = [harness.Sample(n, *(odd[(i + j) % 7] for j in range(4)))
               for i, n in enumerate([0, 1, 10 ** 20, 2 ** 70 + 1, 5, 6, 7])]
    with_global = [harness.Sample(s.n, s.t, s.x, s.p, s.energy_err, g, -g)
                   for s, g in zip(samples, odd[4:] + odd[:4])]
    cases = [
        run_trajectory(_spec(scheme="lf", n_steps=40, sample_stride=1)),
        run_trajectory(_spec(scheme="sp-4", system="harmonic:1.3",
                             n_steps=40, sample_stride=3)),
        TrajectoryRecord(samples),
        TrajectoryRecord(with_global),
        [{"scheme": "gr-7", "n": 12, "error": 1.25e-9, "note": None},
         {"scheme": 'a,"b"\nc', "n": -3, "error": math.nan, "note": None}],
        [{"h": 0.1}],
        [],
    ]
    assert cases[0].samples[5].global_err is not None
    assert cases[1].samples[5].global_err is None
    for i, data in enumerate(cases):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        emit_csv(data, got)
        _reference_csv(data, want)
        assert got.read_bytes() == want.read_bytes(), i


def test_sweep_entry_rows():
    rows = sweep(["gr"], 1.8, [0.2], 1, parallel=False)
    assert len(rows) == 1
    r = rows[0]
    assert r["scheme"] == "gr" and r["h"] == 0.2
    assert r["n"] == round(9.12219655 / 0.2)
    assert r["t"] == pytest.approx(r["n"] * 0.2)
    assert abs(r["residual_fraction"]) <= 0.02
    assert r["error"] > 0


def test_sweep_resolves_every_id_before_running(monkeypatch):
    entries = []
    monkeypatch.setattr(harness, "_sweep_entry", entries.append)
    with pytest.raises(ValueError, match=r"\[1, 14\]"):
        sweep(["gr", "gr-7", "gr-15"], 0.02, [0.4, 0.2], 1, parallel=False)
    with pytest.raises(UnsupportedSchemeError):
        sweep(["gr", "warp"], 0.02, [0.4, 0.2], 1, parallel=False)
    assert entries == []


def test_sweep_error_is_the_trajectory_final_error():
    # a sweep entry, run on the process's shared pendulum in a worker or
    # not, reports bit for bit what a run_trajectory on a pendulum of its
    # own does
    schemes = ["gr", "gr-lex", "gr-slex", "gr-3", "gr-7", "sp-4", "tay-10"]
    for parallel in (False, True):
        rows = sweep(schemes, 1.8, [0.2, 0.1], 1, parallel=parallel)
        assert len(rows) == 2 * len(schemes)
        for r in rows:
            rec = run_trajectory(_spec(scheme=r["scheme"], h=r["h"],
                                       n_steps=r["n"], sample_stride=r["n"]))
            assert r["error"] == rec.samples[-1].global_err, (parallel, r)


def test_bad_step_sizes_rejected_before_any_entry(monkeypatch):
    def fail(*args):
        pytest.fail("an entry ran")
    monkeypatch.setattr(harness, "_sweep_entry", fail)
    monkeypatch.setattr(harness, "_final_global_error", fail)
    for h in (0.0, -0.1, math.nan, math.inf):
        names = re.escape(f"need a finite h > 0, got h = {h!r}")
        with pytest.raises(ValueError, match=names):
            sweep(["gr"], 0.5, [h], 1)
        with pytest.raises(ValueError, match=names):
            estimate_order("gr", 0.5, [0.1, h, 0.025], 2.0)


def test_step_count_below_one_rejected_before_any_entry(monkeypatch):
    # each error is taken at n*h with n = round(t / h); an h of twice t or
    # more gives n = 0, so no step ends near t
    def fail(*args):
        pytest.fail("an entry ran")
    monkeypatch.setattr(harness, "_final_global_error", fail)
    with pytest.raises(ValueError, match=r"twice t = 0\.01, .*h = 0\.2$"):
        estimate_order("gr", 1.8, [0.2, 0.1, 0.05], 0.01)
    with pytest.raises(ValueError, match=r"twice t = 2\.0, .*h = 4\.0$"):
        estimate_order("gr", 1.8, [0.2, 0.1, 4.0], 2.0)
    for parallel in (False, True):
        with pytest.raises(ValueError, match=r"got h = 20\.0$"):
            sweep(["lf"], 1.8, [20.0, 5.0], 1, parallel=parallel)


def test_estimate_order_rejects_p0_before_any_step(monkeypatch):
    monkeypatch.setattr(harness, "make_stepper",
                        lambda *args: pytest.fail("resolved a stepper"))
    for p0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="need a finite p0"):
            estimate_order("gr", p0, [0.2, 0.1, 0.05], 2.0)


def test_sweep_matches_serial_and_order():
    schemes = ["gr", "lf"]
    hs = [0.2, 0.1]
    par = sweep(schemes, 1.8, hs, 1, parallel=True)
    ser = sweep(schemes, 1.8, hs, 1, parallel=False)
    assert [r["scheme"] for r in par] == ["gr", "gr", "lf", "lf"]
    for a, b in zip(par, ser):
        assert a == b


def test_sweep_and_order_failures_report_step_index():
    # one step of h = 50 spans several periods at p0 = 1.8 (3 periods are
    # 27.4, so round(27.4 / 50) = 1 step); the implicit solve does not
    # converge on it
    for parallel in (False, True):
        with pytest.raises(NonConvergenceError, match=r"^step 1: "):
            sweep(["gr", "lf"], 1.8, [50.0], 3, parallel=parallel)
    with pytest.raises(NonConvergenceError, match=r"^step 1: "):
        estimate_order("gr", 1.8, [50.0, 40.0, 30.0], 100.0)


def test_sweep_raises_the_first_failing_entry_in_spec_order():
    # 3 periods at p0 = 1.8 are 27.4: h = 50 is 1 step, which does not
    # converge, and h = 2 is 14 steps, of which step 7 does not converge;
    # the pool starts the 14-step entry first
    for h_list, head in (([50.0, 2.0], "step 1: "),
                         ([2.0, 50.0], "step 7: ")):
        for parallel in (False, True):
            with pytest.raises(NonConvergenceError, match=f"^{head}"):
                sweep(["gr"], 1.8, h_list, 3, parallel=parallel)


def test_sweep_submits_the_longest_entry_first(monkeypatch):
    import concurrent.futures

    submitted = []

    class Pool:
        # runs each entry when it is submitted, whatever its size
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            submitted.append(task)
            future = concurrent.futures.Future()
            future.set_result(fn(task))
            return future

        def shutdown(self, cancel_futures=False):
            pass
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    # two usable CPUs, so that the pool starts on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    rows = sweep(["lf", "gr"], 1.8, [0.4, 0.1, 0.2], 1)
    assert [t[3] for t in submitted] == [91, 91, 46, 46, 23, 23]
    assert [t[0] for t in submitted] == ["lf", "gr"] * 3
    assert rows == sweep(["lf", "gr"], 1.8, [0.4, 0.1, 0.2], 1,
                         parallel=False)


def test_sweep_on_one_usable_cpu_starts_no_pool(monkeypatch):
    # two workers forked onto one CPU only share it; the entries run in
    # this process
    import concurrent.futures

    def no_pool(*args, **kwargs):
        pytest.fail("a pool was made")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    rows = sweep(["lf", "gr"], 1.8, [0.4, 0.2], 1)
    assert rows == sweep(["lf", "gr"], 1.8, [0.4, 0.2], 1, parallel=False)


def test_forked_sweep_workers_record_and_generate_nothing(monkeypatch):
    # the parent builds every entry's code on its pendulum before the pool
    # forks, so no worker records a system or generates code.  At p0 0.02
    # every entry passes turning points, where gr-N's delta takes its
    # general path and deflates
    import multiprocessing
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers that are not forked inherit nothing")
    parent = os.getpid()

    def parent_only(f, what):
        def wrapped(*args):
            if os.getpid() != parent:
                raise AssertionError(f"a sweep worker {what}")
            return f(*args)
        return wrapped
    for module in (jets, reference):
        monkeypatch.setattr(module, "generate",
                            parent_only(jets.generate, "generated code"))
    monkeypatch.setattr(hamiltonian._SystemCode, "__init__", parent_only(
        hamiltonian._SystemCode.__init__, "recorded a system"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    harness._entry_system.cache_clear()
    ids = ["gr", "gr-3", "gr-7", "gr-14", "gr-lex", "gr-slex", "mod-gr",
           "lf", "rk4", "sp-4", "tay-10"]
    rows = sweep(ids, 0.02, [0.4, 0.2], 2)
    assert rows == sweep(ids, 0.02, [0.4, 0.2], 2, parallel=False)


def test_estimate_order_gr():
    est = estimate_order("gr", 1.8, [0.2, 0.1, 0.05, 0.025], 2.0)
    assert est.slope == pytest.approx(2.0, abs=0.3)
    assert len(est.pair_slopes) == 3
    assert est.excluded == []


def test_estimate_order_floor_exclusion():
    # an exact-by-construction scheme on the pendulum does not exist, but
    # tay-10 at tiny h drops under the floor within a couple of points
    with pytest.warns(PrecisionFloorWarning):
        est = estimate_order("tay-10", 1.8, [0.1, 0.05, 0.025, 0.0125], 2.0)
    assert est.excluded
    assert all(e < 100 * np.finfo(float).eps for _, e in est.excluded)


def test_estimate_order_saturation_exclusion():
    # every orbit leaves the separatrix band and goes over the top, so the
    # errors count whole turns (44.0, 37.7, 31.4), not truncation
    with pytest.warns(SaturationWarning):
        est = estimate_order("gr", 2.0, [0.5, 0.25, 0.125], 800.0)
    assert est.slope is None and est.used == []
    assert len(est.excluded) == 3
    assert all(e >= harness.SATURATION_ERROR for _, e in est.excluded)


def test_estimate_order_validation():
    with pytest.raises(ValueError):
        estimate_order("gr", 1.8, [0.2, 0.1], 2.0)


def test_plotscript_modes(tmp_path):
    csv_path = tmp_path / "a.csv"
    emit_csv([{"h": 0.1, "n": 10, "t": 1.0, "error": 1e-3,
               "residual_fraction": 0.0}], csv_path)
    for fig, wants_log in (("fig1", False), ("fig3", True), ("fig4", True),
                           ("fig6", True)):
        out = tmp_path / f"{fig}.gp"
        emit_plotscript([str(csv_path)], fig, out)
        text = out.read_text()
        assert ("set logscale y" in text) == wants_log
        assert str(csv_path) in text
    assert "set logscale x" in (tmp_path / "fig4.gp").read_text()
    # a ' in the path is doubled, gnuplot's escape inside single quotes
    emit_plotscript([str(tmp_path / "it's.csv")], "fig4", out)
    assert f"'{tmp_path}/it''s.csv' skip 1" in out.read_text()
    assert "title 'it''s'" in out.read_text()
    with pytest.raises(ValueError):
        emit_plotscript([str(csv_path)], "fig7", tmp_path / "x.gp")
    with pytest.raises(ValueError):
        emit_plotscript([], "fig1", tmp_path / "x.gp")


def test_energy_drift_character_downscaled():
    # gradient-scheme |energy error| trends upward over time while the
    # composed symplectic one is trendless; checked at reduced step count
    n = 20000
    stride = 500

    def drift_slope(scheme):
        rec = run_trajectory(_spec(scheme=scheme, n_steps=n,
                                   sample_stride=stride))
        ts = np.array([s.t for s in rec.samples[1:]])
        es = np.array([abs(s.energy_err) for s in rec.samples[1:]])
        slope, _ = np.polyfit(ts, es, 1)
        resid = es - np.polyval(np.polyfit(ts, es, 1), ts)
        se = np.sqrt(np.sum(resid ** 2) / (len(ts) - 2) / np.sum(
            (ts - ts.mean()) ** 2))
        return slope, se

    s_gr, se_gr = drift_slope("gr")
    assert s_gr > 3.0 * se_gr
    s_sp, se_sp = drift_slope("sp-4")
    assert abs(s_sp) <= 3.0 * se_sp

