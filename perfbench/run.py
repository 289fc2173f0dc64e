"""Benchmark of discgrad, run from the root of a source checkout:

    python3 perfbench/run.py --workload implicit-long --seed 1 --seconds 25 --trace 0

It imports discgrad from ./src, runs the workload (see workloads.py)
through `discgrad.cli.main` in rounds for --seconds, checks every
trajectory, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.

Every time is in seconds at reference host speed: wall time scaled by a
fixed kernel timed around each measured call (workloads.scaled_seconds),
because a shared host's speed can swing by tens of percent.  Workloads
that run in one process are pinned to one CPU, so the kernel is timed
where the work runs.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
reports the per-layer metrics: microbenchmarks (micro.py) plus traced
rounds (tracer.py) alternated with untraced ones, whose wall-time ratio is
the tracing overhead.  The spans and a summary are written under
.perfbench_out/<workload>/.

Limits: measurement is process-local.  There is no machine-wide tracing
and no cache dropping.  The load is this one process plus, for the sweep,
at most nproc pool workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
LIMITS = ("process-local measurement: no machine-wide tracing, no cache "
          "dropping; load is one process plus at most nproc pool workers")


def git_sha():
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "limits": LIMITS,
    }


def load_discgrad() -> str | None:
    """Import discgrad from the checkout's sources; an error text if not."""
    if not (SRC / "discgrad" / "__init__.py").is_file():
        return f"no discgrad sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import discgrad
    if Path(discgrad.__file__).resolve().parent != SRC / "discgrad":
        return f"imported discgrad from {discgrad.__file__}, not {SRC}"
    return None


def setup_seconds(schemes, p0: float) -> float:
    """Seconds, at reference host speed, from starting a fresh process to
    its `ready` line (setup_probe.py)."""
    from workloads import at_reference_speed, kernel_seconds
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(HERE / "setup_probe.py"), ",".join(schemes),
            repr(p0)]
    before = kernel_seconds()
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                          env=env) as proc:
        line = proc.stdout.readline()
        wall = perf_counter() - t0
        proc.stdout.read()
    # the probe has exited, so its teardown does not share the CPU with
    # the kernel that at_reference_speed times now
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return at_reference_speed(wall, before)


def pin_to_one_cpu() -> None:
    """Keep this process (and the children it starts) on one CPU, so that
    the speed kernel is timed where the measured work runs.  The sweep's
    pool rounds run unpinned and are scaled by the mean over all CPUs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def repeat_for(seconds: float, one) -> list:
    """Call one() at least once, and again while another call of the same
    length still ends within `seconds` of the start."""
    results, start = [], perf_counter()
    while True:
        t = perf_counter()
        results.append(one())
        now = perf_counter()
        if now + (now - t) - start > seconds:
            return results


def unit(name: str) -> str:
    if ".us" in name or "_us" in name:
        return "us"
    if name.endswith("calls_per_step"):
        return "calls/step"
    if name.endswith("per_1e5_steps"):
        return "count/1e5steps"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if ".iters" in name:
        return "count"
    return "ratio"


def tally(rounds) -> tuple:
    """(trajectories attempted, trajectories failed) over all rounds."""
    return (sum(len(r.verdicts) for r in rounds),
            sum(r.failed for r in rounds))


def untraced(w, inputs, refs, outdir, seconds):
    from workloads import run_round
    rounds = repeat_for(
        seconds, lambda: run_round(w, inputs, refs, outdir))
    rss = peak_rss_mb()   # before the set-up probes join RUSAGE_CHILDREN
    pin_to_one_cpu()      # the probes inherit it
    setup = statistics.median(
        setup_seconds(w.schemes, next(iter(inputs.values())))
        for _ in range(SETUP_REPEATS))
    attempted, failed = tally(rounds)
    metrics = {
        "setup_s": (setup, "s"),
        "steps_per_s": (statistics.median(r.steps / r.wall for r in rounds),
                        "steps/s"),
        "peak_rss_mb": (rss, "MB"),
        "passed_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return rounds, metrics, {}


def traced(w, inputs, refs, outdir, seconds):
    import micro
    from discgrad import cli
    from tracer import Tracer
    from workloads import plan_calls, run_round

    layers = micro.run_all(outdir)
    rounds, walls, first = [], {"pool": [], "serial": [], "traced": []}, []

    def one():
        base = run_round(w, inputs, refs, outdir)
        rounds.append(base)
        serial = base
        if w.is_sweep:
            # traced serially, as spans made in pool workers are lost
            serial = run_round(w, inputs, refs, outdir, serial=True)
            rounds.append(serial)
        tracer = Tracer()
        main = tracer.install(cli.main)
        try:
            traced_round = run_round(w, inputs, refs, outdir, main=main,
                                     serial=True)
        finally:
            tracer.uninstall()
        rounds.append(traced_round)
        if not first:
            first.extend((tracer, traced_round))
        for key, r in (("pool", base), ("serial", serial),
                       ("traced", traced_round)):
            walls[key].append(r.wall)

    repeat_for(seconds, one)
    tracer, traced_round = first
    layers.update(tracer.layer_metrics(traced_round.steps, traced_round.wall))
    wall = {k: statistics.median(v) for k, v in walls.items()}
    layers["harness.sweep.parallel_speedup"] = wall["serial"] / wall["pool"]
    layers["trace.overhead_frac"] = wall["traced"] / wall["serial"] - 1.0
    layers["harness.emit_csv.bytes"] = sum(
        os.path.getsize(c.out) for c in plan_calls(w, inputs, outdir))
    tracer.write(outdir / "spans.csv")
    summary = {"counts": dict(tracer.counts),
               "iterations": dict(sorted(tracer.iterations.items())),
               "layers": layers}
    metrics = {k: (v, unit(k)) for k, v in layers.items()}
    return rounds, metrics, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    error = load_discgrad()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, draw_inputs, references
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = environment()
    if not w.is_sweep:
        pin_to_one_cpu()
    inputs, skipped = draw_inputs(w, args.seed)
    outdir = OUT / w.name
    outdir.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"environment": env, "workload": w.name,
                      "seed": args.seed, "inputs": inputs,
                      "skipped_p0_oracle_hangs": skipped}))
    refs = references(w, inputs)
    run = traced if args.trace else untraced
    rounds, metrics, summary = run(w, inputs, refs, outdir, args.seconds)
    attempted, failed = tally(rounds)
    print(json.dumps({"round_s_at_reference_speed": [r.wall for r in rounds],
                      "round_steps": [r.steps for r in rounds]}))
    for r in rounds:
        for v in r.verdicts:
            for reason in v.reasons:
                print(f"perfbench: FAILED {v.label}: {reason}",
                      file=sys.stderr)
    if summary:
        summary.update(environment=env, workload=w.name, seed=args.seed,
                       inputs=inputs, rounds=len(rounds))
        (outdir / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
