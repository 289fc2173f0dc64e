"""Exception types shared across the package."""


class SingularJetDivisionError(ZeroDivisionError):
    """Division by a truncated series whose constant term vanishes."""


class ResonanceStepError(ValueError):
    """Step size too large for the locally exact denominator (tan pole)."""


class DegenerateStepError(ZeroDivisionError):
    """sin(omega*h) vanished where the momentum reconstruction needs it."""


class NonConvergenceError(RuntimeError):
    """The implicit solve ran out of solver iterations.

    Carries the last increment so callers can judge how close it got.
    The default lets pickle rebuild the error from its message alone, as a
    process pool does; the increment then comes back with its attributes.
    """

    def __init__(self, message, last_increment=None):
        super().__init__(message)
        self.last_increment = last_increment


class DivergenceError(RuntimeError):
    """A solver iteration's increment blew past the divergence guard."""


class UnsupportedSchemeError(ValueError):
    """Scheme applied to a system it cannot handle (e.g. leap-frog on an H
    that is not p^2/2 + V(x)), or an unknown scheme id."""


class PrecisionFloorWarning(UserWarning):
    """Measured error sits at the round-off floor; point excluded from fits."""


class SaturationWarning(UserWarning):
    """Measured error is not small against the state, so it is outside the
    asymptotic regime; point excluded from fits."""
