"""The benchmark's own checks: a corrupted result must count as failed.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import csv
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from discgrad import cli, harness  # noqa: E402
from micro import HANG_GRID, oracle_returns  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (Workload, agm_settles, draw_inputs,  # noqa: E402
                       plan_calls, references, run_round)

INPUTS = {"libration": 1.8, "rotation": 2.001}
# no criterion-10 scheme, so the chain check stays out of the way
TINY = Workload("tiny", ("gr-slex", "lf"), steps=200, stride=10)
SWEEP = Workload("sweep", ("gr", "sp-4"), periods=1)
SMALL = {"small": 0.02}


@pytest.fixture(scope="module")
def sweep_refs():
    return references(SWEEP, SMALL)


def failed_labels(rnd):
    return sorted(v.label for v in rnd.verdicts if v.reasons)


def test_clean_rounds_pass(tmp_path, sweep_refs):
    rnd = run_round(TINY, INPUTS, {}, tmp_path)
    assert (len(rnd.verdicts), rnd.failed, rnd.steps) == (4, 0, 800)
    rnd = run_round(SWEEP, SMALL, sweep_refs, tmp_path, serial=True)
    assert (len(rnd.verdicts), rnd.failed) == (12, 0)


def _nudge_csv(path, row, col):
    """Move one value of a CSV file by one ulp."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows[row][col] = format(math.nextafter(float(rows[row][col]), math.inf),
                            ".17g")
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def test_csv_off_by_one_ulp_fails(tmp_path):
    def main(argv):
        code = cli.main(argv)
        if "gr-slex" in argv and "1.8" in argv:
            _nudge_csv(argv[argv.index("--out") + 1], 3, 2)
        return code
    rnd = run_round(TINY, INPUTS, {}, tmp_path, main=main)
    assert failed_labels(rnd) == ["gr-slex libration"]


def test_sweep_csv_corruption_fails_that_entry(tmp_path, sweep_refs):
    def main(argv):
        code = cli.main(argv)
        _nudge_csv(argv[argv.index("--out") + 1], 2, 4)
        return code
    rnd = run_round(SWEEP, SMALL, sweep_refs, tmp_path, main=main,
                    serial=True)
    assert failed_labels(rnd) == ["gr h=0.2"]


@pytest.mark.parametrize("factor", [1.05, 0.5])
def test_sweep_wrong_finite_error_fails_that_entry(tmp_path, monkeypatch,
                                                   sweep_refs, factor):
    original = harness.sweep

    def wrong(*args, **kwargs):
        rows = original(*args, **kwargs)
        rows[7]["error"] *= factor     # sp-4 at h = 0.2; the CSV agrees
        return rows
    monkeypatch.setattr(harness, "sweep", wrong)
    rnd = run_round(SWEEP, SMALL, sweep_refs, tmp_path, serial=True)
    assert failed_labels(rnd) == ["sp-4 h=0.2"]
    assert "final global error" in next(
        v for v in rnd.verdicts if v.reasons).reasons[0]


def test_sweep_missing_entry_fails(tmp_path, monkeypatch, sweep_refs):
    original = harness.sweep
    monkeypatch.setattr(harness, "sweep",
                        lambda *a, **k: original(*a, **k)[:-1])
    rnd = run_round(SWEEP, SMALL, sweep_refs, tmp_path, serial=True)
    assert failed_labels(rnd) == ["sp-4 h=0.0125"]


@pytest.mark.parametrize("field, value, reason", [
    ("energy_err", 2e-10, "energy drift"),
    ("x", math.inf, "final state"),
])
def test_corrupted_record_fails(tmp_path, monkeypatch, field, value, reason):
    original = harness.run_trajectory

    def corrupted(spec, cfg=None):
        record = original(spec, cfg)
        if spec.scheme == "gr-slex":
            setattr(record.samples[-1], field, value)
        return record
    monkeypatch.setattr(harness, "run_trajectory", corrupted)
    rnd = run_round(TINY, INPUTS, {}, tmp_path)
    assert failed_labels(rnd) == ["gr-slex libration", "gr-slex rotation"]
    assert all(reason in v.reasons[0] for v in rnd.verdicts if v.reasons)


def test_crash_and_error_exit_fail(tmp_path):
    def main(argv):
        if "lf" in argv:
            raise RuntimeError("boom")
        return 3
    rnd = run_round(TINY, INPUTS, {}, tmp_path, main=main)
    assert rnd.failed == 4 and rnd.steps == 0


def test_criterion_10_order_is_checked(tmp_path):
    w = Workload("order", ("gr",), steps=200, stride=200)
    fine = {"gr-7": 1e-12, "gr-lex": 1e-11, "sp-4": 1e3}
    assert run_round(w, INPUTS, fine, tmp_path).failed == 0
    broken = dict(fine, **{"sp-4": 1e-10})
    assert failed_labels(run_round(w, INPUTS, broken, tmp_path)) == [
        "gr rotation"]


def test_drawn_p0_never_hang_the_oracle():
    # the benchmark's copy of the AGM stopping test: every p0 it lets
    # through returns from the program's oracle, whatever the commit
    kept = [p0 for p0 in HANG_GRID if agm_settles(p0)]
    assert kept and all(oracle_returns(p0) for p0 in kept)


def test_same_seed_same_inputs_and_counts(tmp_path):
    w = Workload("series", ("gr-3", "tay-10"), steps=50, stride=10)
    drawn = draw_inputs(w, 7)
    assert drawn == draw_inputs(w, 7) != draw_inputs(w, 8)
    inputs = drawn[0]
    original = harness.run_trajectory
    seen = []
    for _ in range(2):
        tracer = Tracer()
        main = tracer.install(cli.main)
        try:
            rnd = run_round(w, inputs, {}, tmp_path, main=main)
        finally:
            tracer.uninstall()
        assert rnd.failed == 0
        seen.append((dict(tracer.counts), dict(tracer.iterations)))
    assert seen[0] == seen[1] and seen[0][0]["jets.mul"] > 0
    assert harness.run_trajectory is original
    assert [c.out for c in plan_calls(w, inputs, tmp_path)] == [
        str(tmp_path / f"{s}-{b}.csv") for b in ("libration", "rotation")
        for s in w.schemes]
