"""Exact pendulum solution via elliptic integrals and Jacobi functions.

Ground truth for the global-error experiments.  Everything is computed
with one pass of the arithmetic-geometric mean (``_agm_chain``), which
gives K(k) and the ratios that the descending Landen recursion on the
amplitude reads for sn/cn/dn/am.  The modulus convention is k (not
m = k^2) throughout.

Orbit regimes for H = p^2/2 - cos x started at x = 0:

    libration   |p0| < 2,  k = |p0|/2,  period 4 K(k)
    rotation    |p0| > 2,  k = 2/|p0|,  period (in x mod 2 pi) 2 k K(k)
    separatrix  |p0| = 2,  sech/tanh closed form, infinite period

A p0 that is not finite, or so large that its period is not a finite
positive number, raises ValueError.  The exact solution of one orbit is
one generated straight-line function t -> (x, p) (``_orbit_lines``):
the period reduction, the unrolled Landen recursion and sn/cn/dn, with
the orbit's constants bound by name.  Its asin and sqrt take their
arguments unclamped, because no orbit's argument leaves their domain (see
``_orbit_lines``); the per-call ``_amplitudes`` and ``_sn_cn_dn`` keep
their clamps.  So its text is a function of the regime and the chain
length, and ``jets.generate``, which compiles each text once, makes one
code object serve every orbit of a regime and chain length.
``pendulum_exact`` remembers that function for the last |p0| it was
asked for, so a trajectory sampled at every step runs the AGM and builds
it once; ``exact_solution`` hands it to a run, which calls it per
sample.  ``classify_orbit`` builds a fresh orbit on every call.  On the
separatrix the closed form is written in exp(-|t|), so it neither
overflows for large |t| nor cancels near 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .hamiltonian import PhaseState
from .jets import generate

# the AGM converges quadratically: from any k < 1 the gap reaches round-off
# in under 10 steps
_AGM_CAP = 32


class InfinitePeriodError(ValueError):
    """Separatrix orbit: the period diverges."""


class EquilibriumError(ValueError):
    """p0 = 0 sits at the stable equilibrium; no oscillation."""


def _check_modulus(k: float) -> None:
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")


def _agm_chain(k: float, kc: float = None):
    """The AGM of 1 and kc = sqrt(1 - k^2) (A&S 17.6), as K(k) and the
    Landen data that the descending recursion (A&S 16.4) reads: the start
    scale 2^n a_n and the ratios c_i / a_i for i = n .. 1, where c_0 = k
    and c_i = (a_{i-1} - b_{i-1}) / 2.

    kc defaults to sqrt((1 - k)(1 + k)), which, unlike 1 - k*k, does not
    cancel as k -> 1.  A caller that knows kc better than the rounded k
    passes it (the rotation orbit, where k = 2/|p0| is rounded).

    The chain stops once the gap a_n - b_n is zero or no smaller than the
    one before it: near convergence the two means may settle one ulp apart
    and never meet.
    """
    if kc is None:
        kc = math.sqrt((1.0 - k) * (1.0 + k))
    an, cn, b = 1.0, k, kc
    ratios = []
    for _ in range(_AGM_CAP):
        gap = an - b
        if not 0.0 < abs(gap) < 2.0 * abs(cn):
            break
        an, cn, b = 0.5 * (an + b), 0.5 * gap, math.sqrt(an * b)
        ratios.append(cn / an)
    return math.pi / (an + b), (2 ** len(ratios) * an, ratios[::-1])


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus k."""
    _check_modulus(k)
    return _agm_chain(k)[0]


def _amplitudes(u: float, landen):
    """Descending Landen recursion (see `_agm_chain`); returns the amplitude
    phi0 = am(u, k) and the next angle phi1."""
    scale, ratios = landen
    phi = scale * u
    # an empty chain (k so small that sqrt(1 - k^2) rounds to 1) is one
    # Landen step with c_1 = 0, whose next angle is exactly 2 phi
    phi1 = 2.0 * phi
    for ratio in ratios:
        phi1 = phi
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0,
                     ratio * math.sin(phi)))))
    return phi, phi1


def _sn_cn_dn(phi0: float, phi1: float, k: float):
    sn = math.sin(phi0)
    cn = math.cos(phi0)
    # amplitude-ratio form stays accurate where sqrt(1 - k^2 sn^2) would
    # cancel (k near 1), but degenerates to 0/0 at the quarter period where
    # cn itself vanishes; switch to the defining relation there
    den = math.cos(phi1 - phi0)
    if abs(den) > 0.5:
        dn = cn / den
    else:
        dn = math.sqrt(max(0.0, 1.0 - (k * sn) ** 2))
    return sn, cn, dn


def jacobi_am(u: float, k: float) -> float:
    """Jacobi amplitude am(u, k), monotone (not reduced mod 2 pi)."""
    _check_modulus(k)
    if k == 0.0:
        return u
    return _amplitudes(u, _agm_chain(k)[1])[0]


def jacobi_sn_cn_dn(u: float, k: float):
    """Jacobi elliptic sn, cn, dn by the descending Landen transformation."""
    _check_modulus(k)
    if k == 0.0:
        return math.sin(u), math.cos(u), 1.0
    return _sn_cn_dn(*_amplitudes(u, _agm_chain(k)[1]), k)


@dataclass(slots=True)
class PendulumOrbit:
    p0: float
    regime: str          # libration | rotation | separatrix
    k: float
    period: float        # inf on the separatrix


def _orbit(p0: float):
    """The orbit through (0, p0) and the Landen data of its modulus (see
    `_agm_chain`; None on the separatrix).

    Raises ValueError for a p0 that is not finite, and for one so large
    that its period is not a finite positive number (the complementary
    modulus overflows and K comes out 0)."""
    a = abs(p0)
    if not math.isfinite(a):
        raise ValueError(f"p0 = {p0!r} is not finite")
    if a == 0.0:
        raise EquilibriumError("p0 = 0 is the stable equilibrium")
    if a == 2.0:
        return PendulumOrbit(p0, "separatrix", 1.0, math.inf), None
    if a < 2.0:
        k = a / 2.0
        K, landen = _agm_chain(k)
        regime, period = "libration", 4.0 * K
    else:
        k = 2.0 / a
        # a - 2 is exact, so kc carries no cancellation near the separatrix
        K, landen = _agm_chain(k, math.sqrt((a - 2.0) * (a + 2.0)) / a)
        regime, period = "rotation", 2.0 * k * K
    if not 0.0 < period < math.inf:
        raise ValueError(
            f"p0 = {p0!r}: the orbit's period {period!r} is not finite and > 0")
    return PendulumOrbit(p0, regime, k, period), landen


def classify_orbit(p0: float) -> PendulumOrbit:
    return _orbit(p0)[0]


def pendulum_period(p0: float) -> float:
    """Period of the exact orbit (x advance of 2 pi in the rotation case)."""
    orbit = classify_orbit(p0)
    if orbit.regime == "separatrix":
        raise InfinitePeriodError("|p0| = 2: infinite period on the separatrix")
    return orbit.period


def _split(a: float):
    """Veltkamp split of a double into two halves of at most 26 bits."""
    c = 134217729.0 * a          # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _reduce_time(t: float, period: float):
    """Split t = n*period + r, |r| <= period/2, with r correctly rounded.

    n*period = prod + err exactly (Dekker's two-product), and t - prod is
    exact by Sterbenz's lemma (prod is zero or within a factor 2 of t), so
    r is rounded once.
    """
    n = round(t / period)
    prod = n * period
    n_hi, n_lo = _split(float(n))
    p_hi, p_lo = _split(period)
    err = ((n_hi * p_hi - prod) + n_hi * p_lo + n_lo * p_hi) + n_lo * p_lo
    return n, (t - prod) - err


def _orbit_lines(regime: str, n: int) -> list:
    """The lines of the exact solution t -> (x, p) on a libration or
    rotation orbit whose Landen chain has n ratios c0 .. c<n-1>:
    `_reduce_time`, then `_amplitudes` unrolled and `_sn_cn_dn`, in one
    function that computes what they compute, bit for bit.  They name
    their constants (see `_orbit_function`), so one code object serves
    every orbit of a regime and chain length.

    The lines leave out the clamps of `_amplitudes` and of libration's x,
    max(-1.0, min(1.0, v)), and rotation's max(0.0, v) under dn's square
    root, because each is the identity on every orbit.  Every ratio and k
    lies in (-1, 1) (the tests check 13,495 orbits from p0 = 5e-324 to
    1e150, dense near 2, where the largest is 1 - 2^-53), |sin| <= 1, and
    rounding is monotone, so |fl(c sin phi)| <= |c| < 1, and the square of
    k sin phi rounds to at most 1, so 1 - (k sin phi)^2 >= 0.  phi is
    finite, since t is (round raises on any other t).  A ratio of 1 or
    more would make asin raise, not return a clamped number."""
    libration = regime == "libration"
    body = ["n = round(t / period)",
            "prod = n * period",
            "c = 134217729.0 * n",          # Veltkamp split of n
            "n_hi = c - (c - n)",
            "n_lo = n - n_hi",
            "err = ((n_hi * p_hi - prod) + n_hi * p_lo + n_lo * p_hi) "
            "+ n_lo * p_lo",
            "r = (t - prod) - err",
            "phi = scale * r" if libration else "phi = scale * (r / k)"]
    # rotation reads phi1, the angle before the last Landen step
    if n == 0 and not libration:
        body.append("phi1 = 2.0 * phi")
    for i in range(n):
        if i == n - 1 and not libration:
            body.append("phi1 = phi")
        body.append(f"phi = 0.5 * (phi + asin(c{i} * sin(phi)))")
    if libration:
        body += ["x = 2.0 * asin(k * sin(phi))",
                 "p = 2.0 * k * cos(phi)"]
    else:
        # dn as `_sn_cn_dn` finds it; libration has no use for dn
        body += ["den = cos(phi1 - phi)",
                 "if abs(den) > 0.5:",
                 "    dn = cos(phi) / den",
                 "else:",
                 "    dn = sqrt(1.0 - (k * sin(phi)) ** 2)",
                 "x = 2.0 * phi + tau * n",
                 "p = 2.0 / k * dn"]
    return body


def _separatrix(t: float):
    e = math.exp(-abs(t))
    return 4.0 * math.atan(math.tanh(0.5 * t)), 4.0 * e / (1.0 + e * e)


def _orbit_function(p0: float):
    """The exact solution t -> (x, p) of the orbit through (0, p0), p0 > 0:
    the generated `_orbit_lines` with this orbit's period, its split
    halves, the Landen scale and ratios and k bound by name, or the
    separatrix closed form."""
    orbit, landen = _orbit(p0)
    if orbit.regime == "separatrix":
        return _separatrix
    scale, ratios = landen
    p_hi, p_lo = _split(orbit.period)
    return generate("t", _orbit_lines(orbit.regime, len(ratios)), "x, p", {
        "sin": math.sin, "cos": math.cos, "asin": math.asin,
        "sqrt": math.sqrt, "tau": 2.0 * math.pi, "k": orbit.k,
        "period": orbit.period, "p_hi": p_hi, "p_lo": p_lo, "scale": scale,
        **{f"c{i}": c for i, c in enumerate(ratios)}})


# the solution of the last |p0| asked for: a trajectory asks for one p0 at
# every sample, so it runs the AGM and builds its function once
_exact_orbit = functools.lru_cache(maxsize=1)(_orbit_function)


def _at_rest(t: float):
    return 0.0, 0.0


def exact_solution(p0: float):
    """The exact pendulum solution t -> (x, p) for x(0) = 0, p(0) = p0, as
    `pendulum_exact` gives it; a run binds it once and calls it per
    sample."""
    if p0 == 0.0:               # at rest at the stable equilibrium
        return _at_rest
    if p0 < 0.0:
        mirror = _exact_orbit(-p0)

        def mirrored(t):
            x, p = mirror(t)
            return -x, -p
        return mirrored
    return _exact_orbit(p0)


def pendulum_exact(p0: float, t: float) -> PhaseState:
    """Exact pendulum state at time t for x(0) = 0, p(0) = p0.

    In the rotation regime x is unwrapped: it accumulates 2 pi per period
    instead of being reduced to a fundamental interval.  The state comes
    from the generated solution of |p0|'s orbit (`_orbit_function`),
    which is remembered for the last |p0| asked for.
    """
    return PhaseState(*exact_solution(p0)(t))
