"""Command-line benchmark driver.

    discgrad integrate --scheme gr-lex --system pendulum --p0 1.8 \
        --h 0.25 --steps 100000 --stride 100 --out run.csv
    discgrad sweep --schemes gr,gr-3,gr-7 --p0 0.02 --h 0.4:0.0125:/2 \
        --periods 120 --out fig4.csv
    discgrad order --scheme gr-slex --p0 1.8 --h 0.2,0.1,0.05,0.025 --t 18.2
    discgrad plot --figure fig4 --csv fig4.csv --out fig4.gp

Exit codes: 0 success, 2 usage error, 3 failure at a step, named in the
message (non-convergence, divergence, h*omega >= pi for a locally exact
denominator, or a state out of float range or a math error in a step),
4 order result with no slope: fewer than 2 errors lie between the
precision floor and saturation (error >= 1).
"""

from __future__ import annotations

import argparse
import math
import sys as _sys

from . import harness
from .errors import StepError

EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PRECISION_FLOOR = 4

# each step size is at least one trajectory; the README sweeps use 6
MAX_H_VALUES = 1000


def parse_h_spec(spec: str):
    """Comma list ('0.2,0.1') or geometric range ('0.4:0.0125:/2') of
    finite step sizes h > 0."""
    if ":" in spec:
        try:
            start_s, stop_s, op = spec.split(":")
            start, stop = float(start_s), float(stop_s)
            if not op.startswith("/"):
                raise ValueError
            factor = float(op[1:])
        except ValueError:
            raise ValueError(f"bad h range {spec!r}; expected start:stop:/factor")
        if not (0.0 < stop <= start < math.inf and 1.0 < factor < math.inf):
            raise ValueError(f"bad h range {spec!r}")
        count = 1 + int((math.log(start) - math.log(stop)) / math.log(factor))
        if count > MAX_H_VALUES:
            raise ValueError(f"h range {spec!r} has {count} step sizes; at "
                             f"most {MAX_H_VALUES} are allowed")
        out = []
        h = start
        while h >= stop * (1.0 - 1e-12):
            out.append(h)
            h /= factor
        return out
    out = [float(v) for v in spec.split(",") if v]
    if not out or not all(0.0 < h < math.inf for h in out):
        raise ValueError(f"bad h list {spec!r}; need one or more finite h > 0")
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="discgrad")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="run one trajectory to CSV")
    p.add_argument("--scheme", required=True)
    p.add_argument("--system", default="pendulum")
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="global error vs h for several schemes")
    p.add_argument("--schemes", required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--h", required=True, help="comma list or start:stop:/factor")
    p.add_argument("--periods", type=int, default=120)
    p.add_argument("--serial", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("order", help="estimate convergence order")
    p.add_argument("--scheme", required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("plot", help="emit a gnuplot script for a figure")
    p.add_argument("--figure", required=True)
    p.add_argument("--csv", required=True, help="comma-separated CSV paths")
    p.add_argument("--out", required=True)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "integrate":
            spec = harness.ExperimentSpec(
                scheme=args.scheme, system=args.system, p0=args.p0,
                x0=args.x0, h=args.h, n_steps=args.steps,
                sample_stride=args.stride)
            record = harness.run_trajectory(spec)
            harness.emit_csv(record, args.out)
            it = record.metadata["iterations"]
            print(f"wrote {args.out}: {len(record.samples)} samples, "
                  f"iterations min/mean/max = "
                  f"{it['min']}/{it['mean']:.2f}/{it['max']}")
        elif args.command == "sweep":
            schemes_list = [s for s in args.schemes.split(",") if s]
            h_list = parse_h_spec(args.h)
            rows = harness.sweep(schemes_list, args.p0, h_list,
                                 args.periods, parallel=not args.serial)
            harness.emit_csv(rows, args.out)
            print(f"wrote {args.out}: {len(rows)} rows")
        elif args.command == "order":
            est = harness.estimate_order(args.scheme, args.p0,
                                         parse_h_spec(args.h), args.t)
            for h, e in est.used + est.excluded:
                print(f"  h = {h:<10g} error = {e:.6e}")
            if est.slope is None:
                floor = sum(e < harness.PRECISION_FLOOR
                            for _, e in est.excluded)
                causes = [f"{n} {what}" for n, what in (
                    (floor, "at the precision floor"),
                    (len(est.excluded) - floor, "saturated (error >= 1)"))
                    if n]
                print(f"{' and '.join(causes)}; fewer than 2 points left, "
                      "no slope")
                return EXIT_PRECISION_FLOOR
            print(f"fitted order: {est.slope:.3f}  "
                  f"(pairwise: {', '.join(f'{s:.3f}' for s in est.pair_slopes)})")
        elif args.command == "plot":
            harness.emit_plotscript(
                [c for c in args.csv.split(",") if c], args.figure, args.out)
            print(f"wrote {args.out}")
    except StepError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
