"""Command-line driver: subcommands, h-range parsing, exit codes."""

import csv

import pytest

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
                "", ","):
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


def test_solver_failure_exit(tmp_path, capsys):
    out = ["--out", str(tmp_path / "x.csv")]
    for argv in (
            ["integrate", "--scheme", "gr", "--p0", "1.8", "--h", "50",
             "--steps", "10"] + out,
            ["sweep", "--schemes", "gr", "--p0", "1.8", "--h", "50",
             "--periods", "1", "--serial"] + out,
            ["order", "--scheme", "gr", "--p0", "1.8", "--h", "50,40,30",
             "--t", "100"]):
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
