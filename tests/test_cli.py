"""Command-line driver: subcommands, h-range parsing, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from discgrad import harness
from discgrad.cli import (EXIT_NO_CONVERGENCE, EXIT_PRECISION_FLOOR,
                          EXIT_USAGE, main, parse_h_spec)


def test_parse_h_comma_list():
    assert parse_h_spec("0.2,0.1,0.05") == [0.2, 0.1, 0.05]
    assert parse_h_spec("0.25") == [0.25]


def test_parse_h_geometric_range():
    hs = parse_h_spec("0.4:0.0125:/2")
    assert hs == pytest.approx([0.4, 0.2, 0.1, 0.05, 0.025, 0.0125])
    assert parse_h_spec("0.4:0.11:/2") == pytest.approx([0.4, 0.2])


def test_parse_h_rejects_garbage():
    for bad in ("0.4:0.1", "0.4:0.1:*2", "0.1:0.4:/2", "0.4:0.1:/0.5",
                # every h must be finite and > 0
                "0.2,0.1,0", "0.1,-0.05", "nan", "0.1,inf", "inf:0.1:/2",
                "0.4:nan:/2", "0.4:0.1:/nan", "0.4:0.1:/inf", "0.4:0:/2",
                "", ",",
                # about 3.5e13 step sizes: rejected before any is listed
                "0.4:0.0125:/1.0000000000001"):
        with pytest.raises(ValueError):
            parse_h_spec(bad)


def test_integrate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["integrate", "--scheme", "gr", "--p0", "1.8",
                 "--h", "0.25", "--steps", "50", "--stride", "10",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "n"
    assert len(rows) == 7   # header + samples at 0,10,...,50
    assert "wrote" in capsys.readouterr().out


def test_integrate_twice_in_one_process_takes_the_defaults(tmp_path):
    # the parser is built once per process: a call without --stride and
    # --x0 gets their defaults, not the values of the call before it
    def rows(*options):
        out = tmp_path / "run.csv"
        assert main(["integrate", "--scheme", "gr", "--p0", "1.8", "--h",
                     "0.25", "--steps", "10", *options, "--out",
                     str(out)]) == 0
        with open(out, newline="") as f:
            return list(csv.reader(f))[1:]
    first = rows("--stride", "5", "--x0", "0.1")
    assert [r[0] for r in first] == ["0", "5", "10"]
    assert float(first[0][2]) == 0.1
    second = rows()
    assert [r[0] for r in second] == [str(n) for n in range(11)]
    assert float(second[0][2]) == 0.0


@pytest.mark.filterwarnings("ignore::discgrad.errors.SaturationWarning")
def test_separatrix_runs_past_exp_overflow(tmp_path, capsys):
    # the oracle at t > 709.8, where e^t overflows a double
    out = tmp_path / "x.csv"
    assert main(["integrate", "--scheme", "gr", "--p0", "2", "--h", "0.25",
                 "--steps", "3000", "--out", str(out)]) == 0
    # every orbit leaves the separatrix and goes over the top: errors of
    # whole turns give no slope, and the message says why
    capsys.readouterr()
    code = main(["order", "--scheme", "gr", "--p0", "2",
                 "--h", "0.5,0.25,0.125", "--t", "800"])
    assert code == EXIT_PRECISION_FLOOR
    out = capsys.readouterr().out
    assert "3 saturated" in out and "fitted order" not in out


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--schemes", "gr,lf", "--p0", "1.8",
                 "--h", "0.2,0.1", "--periods", "1", "--serial",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 5


def test_order_command(capsys):
    code = main(["order", "--scheme", "gr", "--p0", "1.8",
                 "--h", "0.2,0.1,0.05,0.025", "--t", "2.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted order" in out


@pytest.mark.filterwarnings("ignore::discgrad.errors.PrecisionFloorWarning")
def test_order_precision_floor_exit(capsys):
    # exact-per-step scheme on the linear problem: every point at the floor
    code = main(["order", "--scheme", "tay-14", "--p0", "0.0001",
                 "--h", "0.2,0.1,0.05", "--t", "2.0"])
    assert code == EXIT_PRECISION_FLOOR
    assert "precision floor" in capsys.readouterr().out


def test_repeated_step_size_is_a_usage_error(capsys, monkeypatch):
    # log(h1 / h2) = 0 has no slope; rejected before any step is taken
    monkeypatch.setattr(harness, "_final_global_error",
                        lambda *args: pytest.fail("took a step"))
    code = main(["order", "--scheme", "gr", "--p0", "1.8",
                 "--h", "0.2,0.2,0.2", "--t", "2"])
    assert code == EXIT_USAGE
    assert "distinct step sizes" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::discgrad.errors.PrecisionFloorWarning")
def test_pendulum_at_rest_at_the_equilibrium(tmp_path, capsys):
    # the exact orbit of p0 = 0 is the state (0, 0) at every t
    out = tmp_path / "x.csv"
    for scheme in ("gr-7", "sp-4"):
        assert main(["integrate", "--scheme", scheme, "--p0", "0",
                     "--h", "0.25", "--steps", "20", "--stride", "5",
                     "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 5
        for r in rows:
            assert float(r["global_err"]) == float(r["global_err_mod"]) == 0.0
    capsys.readouterr()
    # every error sits at the precision floor: no slope
    assert main(["order", "--scheme", "gr", "--p0", "0",
                 "--h", "0.2,0.1,0.05", "--t", "2"]) == EXIT_PRECISION_FLOOR
    assert "3 at the precision floor" in capsys.readouterr().out
    # a sweep counts periods, and the equilibrium has none
    out.unlink()
    assert main(["sweep", "--schemes", "gr", "--p0", "0", "--h", "0.1",
                 "--periods", "1", "--serial", "--out", str(out)]) \
        == EXIT_USAGE
    assert "stable equilibrium" in capsys.readouterr().err
    assert not out.exists()


def test_empty_scheme_list_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--schemes", ",", "--p0", "1.8", "--h", "0.2,0.1",
                 "--periods", "1", "--serial", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "at least one scheme" in capsys.readouterr().err
    assert not out.exists()


def test_cli_and_steps_load_neither_numpy_nor_mpmath():
    # a fresh interpreter: the CLI's import, one gr-7 and one tay-10 step,
    # and a gr-12 step from a state that deflates the turning-point root
    # run on the standard library alone
    probe = """
import sys
import discgrad.cli
from discgrad.hamiltonian import PhaseState, make_pendulum
from discgrad.harness import make_stepper
loaded = [sorted({"numpy", "mpmath"} & set(sys.modules))]
for scheme, x, p in (("gr-7", 0.0, 1.8), ("tay-10", 0.0, 1.8),
                     ("gr-12", 1.0, 1e-4)):
    make_stepper(scheme, make_pendulum())(PhaseState(x, p), 0.25)
    loaded.append(sorted({"numpy", "mpmath"} & set(sys.modules)))
print(loaded)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[[], [], [], []]"


def test_plot_command(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    main(["sweep", "--schemes", "gr", "--p0", "1.8", "--h", "0.2,0.1",
          "--periods", "1", "--serial", "--out", str(csv_path)])
    out = tmp_path / "fig4.gp"
    code = main(["plot", "--figure", "fig4", "--csv", str(csv_path),
                 "--out", str(out)])
    assert code == 0
    assert "logscale" in out.read_text()


def test_usage_errors(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["integrate", "--scheme", "warp", "--p0", "1.8",
                 "--h", "0.25", "--steps", "5", "--out", str(out)]) \
        == EXIT_USAGE
    assert main(["sweep", "--schemes", "gr", "--p0", "1.8",
                 "--h", "0.4:0.1:*3", "--periods", "1", "--serial",
                 "--out", str(out)]) == EXIT_USAGE
    assert main(["plot", "--figure", "fig9", "--csv", "a.csv",
                 "--out", str(out)]) == EXIT_USAGE
    capsys.readouterr()
    # a step size that is not finite and > 0 is a usage error, not a
    # traceback or a row of numbers
    assert main(["sweep", "--schemes", "gr", "--p0", "1.8",
                 "--h", "0.2,0.1,0", "--periods", "1", "--serial",
                 "--out", str(out)]) == EXIT_USAGE
    assert main(["integrate", "--scheme", "lf", "--system", "harmonic:1",
                 "--p0", "1.8", "--h", "nan", "--steps", "3",
                 "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err.count("finite h > 0") == 2
    # a Taylor order outside the flow series is a usage error
    for scheme in ("tay-0", "tay-17"):
        assert main(["integrate", "--scheme", scheme, "--p0", "1.8",
                     "--h", "0.25", "--steps", "5", "--out", str(out)]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[1, 16]" in err
    # a symplectic order outside sp-2 .. sp-8, or an odd one, names the id
    # and the valid ids
    for scheme in ("sp-10", "sp-3"):
        assert main(["integrate", "--scheme", scheme, "--p0", "1.8",
                     "--h", "0.25", "--steps", "5", "--out", str(out)]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"'{scheme}'" in err and "sp-2, sp-4, sp-6 and sp-8" in err
    # every bad scheme id names itself, in integrate and in sweep
    run = ["--p0", "1.8", "--h", "0.25", "--out", str(out)]
    for scheme, argv in (
            ("gr-0", ["integrate", "--scheme", "gr-0", "--steps", "5"]),
            ("gr-15", ["integrate", "--scheme", "gr-15", "--steps", "5"]),
            ("tay-0", ["integrate", "--scheme", "tay-0", "--steps", "5"]),
            ("gr-15", ["sweep", "--schemes", "gr,gr-15", "--periods", "1",
                       "--serial"])):
        assert main(argv + run) == EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith(
            f"error: unknown scheme id '{scheme}': "), argv
        assert not out.exists(), argv
    # a run length or system parameter that cannot make a finite run is
    # a usage error, named in the message, before any step is taken
    order = ["order", "--scheme", "gr", "--p0", "1.8", "--h", "0.2,0.1,0.05"]
    sweep = ["sweep", "--schemes", "gr", "--p0", "1.8", "--serial",
             "--out", str(out)]
    integrate = ["integrate", "--p0", "1.8", "--h", "0.25", "--steps", "3",
                 "--out", str(out)]
    for argv, names in (
            (order + ["--t", "inf"], "t = inf"),
            (order + ["--t", "nan"], "t = nan"),
            (order + ["--t", "-1"], "t = -1.0"),
            (order + ["--t", "0"], "t = 0.0"),
            (order + ["--t", "1e308"], "t / h = 1e+308 / 0.2"),
            # round(t / h) = 0: no step ends near t
            (order + ["--t", "0.01"], "twice t = 0.01, so that a step ends "
             "near it; got h = 0.2"),
            (["sweep", "--schemes", "lf", "--p0", "1.8", "--h", "20,5",
              "--periods", "1", "--out", str(out)],
             "twice periods * period = 9.122196553691081, so that a step "
             "ends near it; got h = 20.0"),
            (sweep + ["--h", "0.2,0.1", "--periods", "0"], "periods = 0"),
            (sweep + ["--h", "0.2,0.1", "--periods", "-3"], "periods = -3"),
            (sweep + ["--h", "5e-324", "--periods", "1"], "/ 5e-324"),
            # an h range too long to list, in sweep and order alike
            (sweep + ["--h", "0.4:0.0125:/1.0000000000001", "--periods",
                      "1"], "step sizes; at most 1000"),
            (order + ["--h", "0.4:0.1:/1.001", "--t", "1"],
             "has 1387 step sizes; at most 1000"),
            (integrate + ["--scheme", "lf", "--system", "harmonic:nan"],
             "system 'harmonic:nan'"),
            (integrate + ["--scheme", "gr", "--system", "crossterm:inf"],
             "system 'crossterm:inf'"),
            (integrate + ["--scheme", "lf", "--system", "harmonic:abc"],
             "system 'harmonic:abc'"),
            # omega^2 overflows although omega is finite
            (integrate + ["--scheme", "lf", "--system", "harmonic:1e200"],
             "system 'harmonic:1e+200'"),
            # the kick-drift baselines need H = p^2/2 + V(x)
            (integrate + ["--scheme", "lf", "--system", "crossterm:0.5"],
             "lf and sp-2M need H = p^2/2 + V(x)"),
            # an int periods too large to convert to a float
            (sweep + ["--h", "0.2,0.1", "--periods", "1" + "0" * 400],
             "periods * period / h = inf / 0.2")):
        assert main(argv) == EXIT_USAGE, argv
        assert names in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_an_order_written_in_other_digits_is_an_unknown_id(tmp_path, capsys):
    # an order is ASCII digits: Arabic-Indic ones used to run gr-14 and
    # sp-4, and a superscript failed in int()
    out = tmp_path / "x.csv"
    for scheme in ("gr-١٤", "sp-٤", "gr-²"):
        assert main(["integrate", "--scheme", scheme, "--p0", "1.8",
                     "--h", "0.25", "--steps", "5", "--out", str(out)]) \
            == EXIT_USAGE, scheme
        assert capsys.readouterr().err \
            == f"error: unknown scheme id {scheme!r}\n"
        assert not out.exists(), scheme


def test_p0_the_oracle_cannot_take_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for p0, names in (("nan", "p0 = nan"), ("inf", "p0 = inf"),
                      ("1e308", "p0 = 1e+308")):
        assert main(["integrate", "--scheme", "lf", "--p0", p0,
                     "--h", "0.25", "--steps", "3", "--out", str(out)]) \
            == EXIT_USAGE
        assert names in capsys.readouterr().err
        assert main(["sweep", "--schemes", "gr", "--p0", p0, "--h", "0.1",
                     "--periods", "1", "--serial", "--out", str(out)]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert names in err and "separatrix" not in err
        assert main(["order", "--scheme", "gr", "--p0", p0,
                     "--h", "0.2,0.1,0.05", "--t", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert names in err and "step" not in err
    # x0 feeds no oracle, but a run from it would be all NaN rows
    assert main(["integrate", "--scheme", "lf", "--system", "harmonic:1",
                 "--p0", "1.0", "--x0", "inf", "--h", "0.25", "--steps", "3",
                 "--out", str(out)]) == EXIT_USAGE
    assert "x0 = inf" in capsys.readouterr().err
    assert not out.exists()


def test_solver_failure_exit(tmp_path, capsys):
    out = ["--out", str(tmp_path / "x.csv")]
    for argv in (
            ["integrate", "--scheme", "gr", "--p0", "1.8", "--h", "50",
             "--steps", "10"] + out,
            ["sweep", "--schemes", "gr", "--p0", "1.8", "--h", "50",
             "--periods", "3", "--serial"] + out,
            ["order", "--scheme", "gr", "--p0", "1.8", "--h", "50,40,30",
             "--t", "100"],
            # the series delta is finite; the Newton increments of order
            # p0 pass the divergence guard
            ["integrate", "--scheme", "gr-3", "--system", "crossterm:0.5",
             "--p0", "1e300", "--h", "1", "--steps", "3"] + out):
        assert main(argv) == EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err.startswith("error: step 1: ")
    # one step of h = 3 from p0 = 1.8 carries x past the saddle at pi; the
    # Newton matrix frozen at the predicted midpoint no longer contracts
    # there, and the increments double until they pass the divergence guard
    argv = ["integrate", "--scheme", "gr", "--p0", "1.8", "--h", "3",
            "--steps", "3"] + out
    assert main(argv) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err.startswith(
        "error: step 1: fixed-point increment ")
    # h * omega >= pi at the first step's start point: the locally exact
    # denominator has no value there
    argv = ["integrate", "--scheme", "gr-lex", "--p0", "1.0", "--h", "3.5",
            "--steps", "5"] + out
    assert main(argv) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err.startswith("error: step 1: h*omega")


def test_explicit_step_leaving_float_range_is_divergence(tmp_path, capsys):
    # explicit steps do not check their state, run_trajectory checks it
    # after every step: a state that overflows fails at the step that made
    # it, with the same line at every stride, and no file is written
    out = tmp_path / "x.csv"
    pendulum = ["--p0", "1", "--h", "1e154", "--steps", "10"]
    for argv, head in (
            (["--scheme", "rk4", "--system", "crossterm:1e300", "--p0", "1",
              "--h", "0.25", "--steps", "3"], "step 1: state ("),
            (["--scheme", "tay-4", "--system", "crossterm:1e300", "--p0",
              "1", "--h", "0.25", "--steps", "3"], "step 1: state ("),
            (["--scheme", "lf", "--system", "harmonic:1e150", "--p0", "1",
              "--h", "0.25", "--steps", "4"], "step 2: state ("),
            (["--scheme", "sp-4", "--system", "harmonic:1e150", "--p0", "1",
              "--h", "0.25", "--steps", "8"], "step 1: state ("),
            (["--scheme", "lf"] + pendulum, "step 4: state ("),
            (["--scheme", "tay-10"] + pendulum, "step 1: state ("),
            # sp-4 overflows inside step 6, whose sin(inf) raises
            (["--scheme", "sp-4"] + pendulum, "step 6: ")):
        errs = set()
        for stride in ("1", "3", "4", "10"):
            assert main(["integrate"] + argv + ["--stride", stride, "--out",
                                                str(out)]) \
                == EXIT_NO_CONVERGENCE
            errs.add(capsys.readouterr().err)
            assert not out.exists()
        assert len(errs) == 1
        err = errs.pop()
        assert err.startswith(f"error: {head}")
        assert ("is not finite" in err) == head.endswith("state (")
