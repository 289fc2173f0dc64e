"""Exception types shared across the package."""


class SingularJetDivisionError(ZeroDivisionError):
    """Division by a truncated series whose constant term vanishes."""


class StepError(Exception):
    """A step of a run failed.  run_trajectory prefixes the message with
    "step n: ", n the index of the failed step; the CLI exits 3 on it."""


class ResonanceStepError(StepError, ValueError):
    """Step size too large for the locally exact denominator (tan pole)."""


class DegenerateStepError(ZeroDivisionError):
    """sin(omega*h) vanished where the momentum reconstruction needs it."""


class NonConvergenceError(StepError, RuntimeError):
    """The implicit solve ran out of solver iterations; the message states
    the last increment."""


class DivergenceError(StepError, RuntimeError):
    """A solver iteration's increment blew past the divergence guard, or a
    state left float range (chained to the math error it caused, if any)."""


class UnsupportedSchemeError(ValueError):
    """Scheme applied to a system it cannot handle (e.g. leap-frog on an H
    that is not p^2/2 + V(x)), or an unknown scheme id."""


class PrecisionFloorWarning(UserWarning):
    """Measured error sits at the round-off floor; point excluded from fits."""


class SaturationWarning(UserWarning):
    """Measured error is not small against the state, so it is outside the
    asymptotic regime; point excluded from fits."""
