"""Spans and counters recorded from outside the program.

The tracer replaces discgrad functions, under the names their callers look
them up by, with wrappers.  A span wrapper records (name, start, end,
parent span, trajectory id) in memory; a counting wrapper only counts.
Jet arithmetic and the mpmath fallback get counters, because a span per
`Jet.__mul__` would swamp the run.  Functions called once per fixed-point
iteration (omega_sq_at, delta_lex, the divided differences) are left
unwrapped for the same reason; their time is the solve's self time.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from time import perf_counter

# layers that carry spans; a span's layer is the prefix of its name
LAYERS = ("cli", "harness", "schemes", "hamiltonian", "baselines",
          "reference")
SOLVE = "schemes.step_gradient_info"
FLOW = "hamiltonian.taylor_flow_coeffs"
EXACT = "reference.pendulum_exact"
ENTRIES = ("harness.run_trajectory", "harness._sweep_entry")
LOOPS = ("harness.run_trajectory", "harness._final_global_error")


def _sites():
    """(owner, attribute, span name, starts a trajectory) for every span."""
    from discgrad import baselines, harness, reference, schemes
    return [
        # cli looks these up on the harness module
        (harness, "run_trajectory", "harness.run_trajectory", False),
        (harness, "sweep", "harness.sweep", False),
        (harness, "emit_csv", "harness.emit_csv", False),
        # called from inside harness by global name
        (harness, "make_stepper", "harness.make_stepper", False),
        (harness, "_sweep_entry", "harness._sweep_entry", True),
        (harness, "_final_global_error", "harness._final_global_error", False),
        (harness, "system_from_name", "hamiltonian.system_from_name", False),
        # steppers look these up on their modules at every step
        (schemes, "step_gradient_info", SOLVE, False),
        (baselines, "step_leapfrog", "baselines.step_leapfrog", False),
        (baselines, "step_rk4", "baselines.step_rk4", False),
        (baselines, "step_symplectic", "baselines.step_symplectic", False),
        (baselines, "step_taylor", "baselines.step_taylor", False),
        (reference, "pendulum_exact", EXACT, False),
        (reference, "pendulum_period", "reference.pendulum_period", False),
        # DeltaRule.value_at and the series quotient use schemes' globals;
        # step_taylor uses baselines' copy of taylor_flow_coeffs
        (schemes, "delta_series", "schemes.delta_series", False),
        (schemes, "taylor_flow_coeffs", FLOW, False),
        (baselines, "taylor_flow_coeffs", FLOW, False),
    ]


def _counter_sites():
    import mpmath
    from discgrad.jets import Jet
    return [
        (Jet, "__mul__", "jets.mul"),
        (Jet, "__rmul__", "jets.mul"),
        (Jet, "__truediv__", "jets.div"),
        (Jet, "sin_cos", "jets.sin_cos"),
        # schemes._delta_series_quotient enters mpmath.workdps on fallback
        (mpmath, "workdps", "schemes.series_fallback"),
    ]


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, trajectory)
        self.counts = Counter()
        self.iterations = Counter()   # fixed-point iterations per solved step
        self.trajectory = 0
        self._next_trajectory = 1
        self._stack = [-1]
        self._undo = []

    def wrap(self, name, fn, new_trajectory=False, observe=None):
        spans, stack, clock = self.spans, self._stack, perf_counter

        def traced(*args, **kwargs):
            outer = self.trajectory
            if new_trajectory:
                self.trajectory = self._next_trajectory
                self._next_trajectory += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.trajectory)
                self.trajectory = outer
            if observe is not None:
                observe(result)
            return result
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _observe_solve(self, result):
        self.iterations[result[1]] += 1

    def install(self, main):
        """Patch discgrad; return `main` wrapped as the per-call cli span."""
        for owner, attr, name, new in _sites():
            observe = self._observe_solve if name == SOLVE else None
            self._patch(owner, attr,
                        self.wrap(name, getattr(owner, attr), new, observe))
        for owner, attr, name in _counter_sites():
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))
        return self.wrap("cli.main", main, new_trajectory=True)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            setattr(*self._undo.pop())

    # -- analysis ---------------------------------------------------------

    def summarise(self) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - inner
        return stats

    def layer_metrics(self, steps: int, scaled_wall: float) -> dict:
        """Per-layer metrics of one traced round of `steps` steps that took
        `scaled_wall` seconds at reference host speed."""
        st = self.summarise()
        calls = lambda name: st[name][0] if name in st else 0
        incl = lambda name: st[name][1] if name in st else 0.0
        own = lambda name: st[name][2] if name in st else 0.0
        # every measured call is a cli.main span; shares are of their sum
        wall = incl("cli.main")
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_share"] = sum(
                s[2] for name, s in st.items()
                if name.startswith(layer + ".")) / wall
        for op in ("mul", "div", "sin_cos"):
            m[f"jets.{op}.calls_per_step"] = self.counts[f"jets.{op}"] / steps
        m["hamiltonian.flow_coeffs.share"] = incl(FLOW) / wall
        solved = sum(self.iterations.values())
        m["schemes.solve.iters_mean"] = (
            sum(k * v for k, v in self.iterations.items()) / solved
            if solved else 0.0)
        m["schemes.solve.iters_max"] = max(self.iterations, default=0)
        m["schemes.solve.share"] = own(SOLVE) / wall
        # a workload without implicit steps has no unconverged ones
        m["schemes.solve.converged_frac"] = (
            solved / calls(SOLVE) if calls(SOLVE) else 1.0)
        m["schemes.series_fallback.per_1e5_steps"] = (
            self.counts["schemes.series_fallback"] * 1e5 / steps)
        m["reference.exact.calls_per_step"] = calls(EXACT) / steps
        m["reference.exact.share"] = incl(EXACT) / wall
        m["harness.loop.self_share"] = sum(own(n) for n in LOOPS) / wall
        m["harness.emit_csv.share"] = incl("harness.emit_csv") / wall
        m["cli.self_s"] = (own("cli.main") / calls("cli.main")
                           * scaled_wall / wall)
        entries = [end - start for name, start, end, _, _ in self.spans
                   if name in ENTRIES]
        m["harness.sweep.entry_s.max_over_min"] = max(entries) / min(entries)
        return m

    def write(self, path) -> None:
        """Spans as CSV, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["index", "name", "start", "end", "parent",
                        "trajectory"])
            for i, (name, start, end, parent, traj) in enumerate(self.spans):
                w.writerow([i, name, repr(start - t0), repr(end - t0),
                            parent, traj])
