"""Hamiltonian systems, partials, linearization, flow Taylor coefficients."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from discgrad.hamiltonian import (MAX_FLOW_ORDER, HamiltonianSystem,
                                  PhaseState, eval_energy, eval_partials,
                                  linearize, make_crossterm, make_harmonic,
                                  make_pendulum, system_from_name,
                                  taylor_flow_coeffs)
from discgrad import jets
from discgrad.baselines import taylor_block
from discgrad.harness import make_stepper
from discgrad.jets import Jet, gcos, gexp, glog, gpow, gsin, gsqrt, horner
from discgrad.schemes import (_parts_function, _series_function, delta_series,
                              delta_series_coefficients)
from test_baselines import _quartic


def rand_state(rng, span=2.5):
    return PhaseState(rng.uniform(-span, span), rng.uniform(-span, span))


def test_energy_values(pendulum, harmonic):
    assert eval_energy(pendulum, PhaseState(0.0, 1.8)) == pytest.approx(0.62)
    assert eval_energy(pendulum, PhaseState(0.0, 0.0)) == -1.0
    assert eval_energy(harmonic, PhaseState(3.0, 4.0)) == 12.5


def test_contract_names_what_is_missing(pendulum):
    with pytest.raises(ValueError, match=r"partials\['xx'\].*dd_p"):
        HamiltonianSystem(
            name="bare", energy=pendulum.energy, dd_x=pendulum.dd_x,
            partials={k: v for k, v in pendulum.partials.items()
                      if k != "xx"})


def test_divided_differences_match_four_term_quotient(pendulum, harmonic,
                                                      crossterm, rng):
    # the closed forms against the generic discrete gradient of H, at
    # points far enough apart that the quotient does not cancel
    for sys in (pendulum, harmonic, crossterm, make_harmonic(1.3)):
        H = sys.energy
        for _ in range(50):
            x, p = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
            x1 = x + rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
            p1 = p + rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
            want_x = (H(x1, p1) + H(x1, p) - H(x, p1) - H(x, p)) \
                / (2.0 * (x1 - x))
            want_p = (H(x1, p1) + H(x, p1) - H(x1, p) - H(x, p)) \
                / (2.0 * (p1 - p))
            assert sys.dd_x(x, x1, p, p1) == pytest.approx(
                want_x, rel=1e-13, abs=1e-13)
            assert sys.dd_p(x, x1, p, p1) == pytest.approx(
                want_p, rel=1e-13, abs=1e-13)


def test_partials_point_values(pendulum):
    d = eval_partials(pendulum, PhaseState(0.0, 1.0))
    assert d["x"] == pytest.approx(0.0, abs=1e-15)
    assert d["p"] == 1.0
    assert d["xx"] == pytest.approx(1.0)
    assert d["xp"] == pytest.approx(0.0, abs=1e-15)
    assert d["pp"] == pytest.approx(1.0)
    d = eval_partials(pendulum, PhaseState(math.pi / 2, 0.0))
    assert d["x"] == pytest.approx(1.0)
    assert d["xx"] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="max_order"):
        eval_partials(pendulum, PhaseState(0.0, 1.0), max_order=4)


def test_partials_jet_vs_closed_form(pendulum, harmonic, crossterm, rng):
    for sys in (pendulum, harmonic, crossterm):
        for _ in range(100):
            s = rand_state(rng)
            jet = eval_partials(sys, s, max_order=2)
            for key, fn in sys.partials.items():
                assert jet[key] == pytest.approx(fn(s.x, s.p), rel=1e-13,
                                                 abs=1e-13)


def test_partials_crossterm_mixed(crossterm):
    d = eval_partials(crossterm, PhaseState(2.0, 3.0), max_order=3)
    assert d["x"] == pytest.approx(2.0 + 0.5 * 3.0)
    assert d["p"] == pytest.approx(3.0 + 0.5 * 2.0)
    assert d["xp"] == pytest.approx(0.5)
    assert d["xxx"] == pytest.approx(0.0, abs=1e-13)


def test_linearize_examples(pendulum):
    lin = linearize(pendulum, PhaseState(0.0, 0.0))
    assert lin.A == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert lin.b == pytest.approx(np.zeros(2))
    assert lin.omega_sq == pytest.approx(1.0)

    lin = linearize(pendulum, PhaseState(math.pi, 0.0))
    assert lin.A == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]), abs=1e-12)
    assert lin.omega_sq == pytest.approx(-1.0)

    lin = linearize(pendulum, PhaseState(0.0, 1.8))
    assert lin.b == pytest.approx(np.array([1.8, 0.0]))


def test_linearize_structure(pendulum, crossterm, rng):
    for sys in (pendulum, crossterm):
        for _ in range(25):
            lin = linearize(sys, rand_state(rng))
            assert np.trace(lin.A) == 0.0
            A = np.asarray(lin.A)
            resid = A @ A + lin.omega_sq * np.eye(2)
            assert np.max(np.abs(resid)) <= 1e-13 * max(1.0, abs(lin.omega_sq))


def _d38_coeffs(sys, s):
    """Leading flow coefficients from the total-derivative formulas."""
    d = eval_partials(sys, s, max_order=3)
    b1 = d["p"]
    b2 = d["p"] * d["xp"] - d["x"] * d["pp"]
    b3 = (d["x"] ** 2 * d["ppp"] + d["xxp"] * d["p"] ** 2
          - 2.0 * d["x"] * d["p"] * d["xpp"]
          + d["p"] * d["xp"] ** 2 - d["p"] * d["pp"] * d["xx"])
    c1 = -d["x"]
    c2 = d["x"] * d["xp"] - d["p"] * d["xx"]
    return b1, b2, b3, c1, c2


def test_flow_coeffs_against_total_derivative_forms(pendulum, crossterm, rng):
    for sys in (pendulum, crossterm):
        for _ in range(30):
            s = rand_state(rng)
            X, P = taylor_flow_coeffs(sys, s, 4)
            b1, b2, b3, c1, c2 = _d38_coeffs(sys, s)
            assert X.coeffs[1] == pytest.approx(b1, rel=1e-13, abs=1e-13)
            assert X.coeffs[2] == pytest.approx(b2 / 2.0, rel=1e-12, abs=1e-12)
            assert X.coeffs[3] == pytest.approx(b3 / 6.0, rel=1e-11, abs=1e-11)
            assert P.coeffs[1] == pytest.approx(c1, rel=1e-13, abs=1e-13)
            assert P.coeffs[2] == pytest.approx(c2 / 2.0, rel=1e-12, abs=1e-12)


def test_flow_coeffs_harmonic_cosine(harmonic):
    X, _ = taylor_flow_coeffs(harmonic, PhaseState(1.0, 0.0), 4)
    assert X.coeffs == pytest.approx([1.0, 0.0, -0.5, 0.0, 1.0 / 24.0],
                                     abs=1e-15)


def test_energy_first_integral_of_truncated_flow(pendulum, crossterm, rng):
    for sys in (pendulum, crossterm):
        for _ in range(20):
            s = rand_state(rng)
            X, P = taylor_flow_coeffs(sys, s, 8)
            e = sys.energy(X, P)
            scale = max(1.0, abs(e.coeffs[0]))
            for k in range(1, 9):
                assert abs(e.coeffs[k]) <= 1e-11 * scale


def test_system_from_name():
    assert system_from_name("pendulum").name == "pendulum"
    assert system_from_name("harmonic:2.5").name == "harmonic:2.5"
    assert system_from_name("crossterm:0.25").name == "crossterm:0.25"
    # a kind without a parameter takes its default
    assert system_from_name("harmonic").name == "harmonic:1"
    assert system_from_name("crossterm").name == "crossterm:0.5"
    w = system_from_name("harmonic:3")
    assert eval_energy(w, PhaseState(1.0, 0.0)) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        system_from_name("kepler")


def test_crossterm_matches_definition(rng):
    sys = make_crossterm(0.3)
    for _ in range(10):
        s = rand_state(rng)
        want = 0.5 * s.p ** 2 + 0.5 * s.x ** 2 + 0.3 * s.x * s.p
        assert eval_energy(sys, s) == pytest.approx(want, rel=1e-15)


def test_taylor_flow_rejects_bad_order(pendulum):
    with pytest.raises(ValueError):
        taylor_flow_coeffs(pendulum, PhaseState(0.0, 1.0), 0)
    with pytest.raises(ValueError):
        taylor_flow_coeffs(pendulum, PhaseState(0.0, 1.0), 17)


def picard_flow_coeffs(sys, s, N):
    """The flow series by N Picard passes over jets,

        x <- x0 + int H_p(x, p) dh,    p <- p0 - int H_x(x, p) dh,

    each pass re-evaluating H_p and H_x on the whole series and fixing one
    more coefficient: O(N^3), the reference the online recurrence of
    taylor_flow_coeffs must reproduce bit for bit.
    """
    hx = sys.partials["x"]
    hp = sys.partials["p"]
    x0, p0 = s.x, s.p
    X = Jet.constant(x0, 0)
    P = Jet.constant(p0, 0)
    # pass i fixes coefficient i, so derivatives are only needed at order i-1
    for i in range(1, N + 1):
        fx = hp(X, P)
        fp = hx(X, P)
        fxc = fx.coeffs if isinstance(fx, Jet) else [fx] + [0.0] * (i - 1)
        fpc = fp.coeffs if isinstance(fp, Jet) else [fp] + [0.0] * (i - 1)
        X = Jet([x0] + [fxc[k] / (k + 1) for k in range(i)])
        P = Jet([p0] + [-fpc[k] / (k + 1) for k in range(i)])
    return X, P


def _four_term_dd(H):
    def dd_x(x, x1, p, p1):
        return (H(x1, p1) + H(x1, p) - H(x, p1) - H(x, p)) / (2.0 * (x1 - x))

    def dd_p(x, x1, p, p1):
        return (H(x1, p1) + H(x, p1) - H(x1, p) - H(x, p)) / (2.0 * (p1 - p))
    return dd_x, dd_p


def _relativistic_softplus():
    """H = sqrt(1 + p^2) + log(1 + e^x) + (x + 3) log(x + 3) - x + sin x
    + (1 + x^2)^(3/2) / 3: partials that use /, 1.0 / y, integer and real
    powers, exp, log, sqrt and cos on the flow series (|x| < 3)."""
    def H(x, p):
        return (gsqrt(1.0 + p * p) + glog(1.0 + gexp(x))
                + (x + 3.0) * glog(x + 3.0) - x + gsin(x)
                + gpow(1.0 + x * x, 1.5) / 3.0)
    dd_x, dd_p = _four_term_dd(H)
    return HamiltonianSystem(
        name="relativistic-softplus", energy=H, dd_x=dd_x, dd_p=dd_p,
        partials={
            "x": lambda x, p: (1.0 / (1.0 + gexp(-x)) + glog(x + 3.0)
                               + gcos(x) + x * gpow(1.0 + x * x, 0.5)),
            "p": lambda x, p: p / gsqrt(1.0 + gpow(p, 2)),
            "xx": lambda x, p: (gexp(-x) / (1.0 + gexp(-x)) ** 2
                                + 1.0 / (x + 3.0) - gsin(x)
                                + (1.0 + 2.0 * x * x) / gsqrt(1.0 + x * x)),
            "xp": lambda x, p: 0.0,
            "pp": lambda x, p: (1.0 + p * p) ** -1.5,
        },
    )


def _drift():
    """H = p - cos x: H_p is the plain constant 1.0."""
    def H(x, p):
        return p - gcos(x)
    dd_x, dd_p = _four_term_dd(H)
    return HamiltonianSystem(
        name="drift", energy=H, dd_x=dd_x, dd_p=dd_p,
        partials={
            "x": lambda x, p: gsin(x),
            "p": lambda x, p: 1.0,
            "xx": lambda x, p: gcos(x),
            "xp": lambda x, p: 0.0,
            "pp": lambda x, p: 0.0,
        },
    )


FLOW_SYSTEMS = (make_pendulum(), make_harmonic(1.3), make_crossterm(0.5),
                _relativistic_softplus(), _drift())
# the signed zeros pin the sign of zero of each rule's seed 0.0 * s[0]
FLOW_STATES = [PhaseState(0.0, 1.8), PhaseState(0.3, -1.2),
               PhaseState(2.5, 0.7), PhaseState(-1.1, 2.2),
               PhaseState(0.0, 0.02), PhaseState(-0.0, 0.0),
               PhaseState(0.0, -0.0)]


@pytest.mark.parametrize("sys", FLOW_SYSTEMS, ids=lambda sys: sys.name)
def test_flow_coeffs_equal_picard(sys):
    for s in FLOW_STATES:
        for N in range(1, MAX_FLOW_ORDER + 1):
            assert repr(taylor_flow_coeffs(sys, s, N)) \
                == repr(picard_flow_coeffs(sys, s, N))


@pytest.mark.parametrize("sys", FLOW_SYSTEMS, ids=lambda sys: sys.name)
def test_flow_coeffs_equal_picard_in_mpmath(sys):
    with mpmath.workdps(60):
        s = PhaseState(mpmath.mpf("0.3"), mpmath.mpf("1.7"))
        got = taylor_flow_coeffs(sys, s, 11)
        assert isinstance(got[1].coeffs[5], mpmath.mpf)
        assert repr(got) == repr(picard_flow_coeffs(sys, s, 11))


def _counting(fn, calls, key):
    def counted(x, p):
        calls[key] += 1
        return fn(x, p)
    return counted


@pytest.mark.parametrize("sys", FLOW_SYSTEMS, ids=lambda sys: sys.name)
def test_replayed_flow_equals_a_new_recording(sys):
    # one system object, with states and orders alternating, then mpmath:
    # its partials run once, and every later call runs the code generated
    # from their tape
    calls = {"x": 0, "p": 0}
    counted = dataclasses.replace(sys, partials=dict(
        sys.partials, x=_counting(sys.partials["x"], calls, "x"),
        p=_counting(sys.partials["p"], calls, "p")))
    runs = [(s, N) for s, N in zip(FLOW_STATES + FLOW_STATES[::-1],
                                   (5, 10, 3, 16, 1, 2, 10, 7, 5, 3))]
    got = [repr(taylor_flow_coeffs(counted, s, N)) for s, N in runs]
    with mpmath.workdps(60):
        s_mp = PhaseState(mpmath.mpf("0.3"), mpmath.mpf("1.7"))
        got.append(repr(taylor_flow_coeffs(counted, s_mp, 11)))
        # a new system object for each call records a new tape
        want_mp = repr(taylor_flow_coeffs(dataclasses.replace(sys), s_mp, 11))
    want = [repr(taylor_flow_coeffs(dataclasses.replace(sys), s, N))
            for s, N in runs] + [want_mp]
    assert calls == {"x": 1, "p": 1}
    assert got == want


def _outcome(sys, s, flow=taylor_flow_coeffs):
    try:
        return repr(flow(sys, s, 4))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("hx", [
    lambda x, p: 1.0 / x,
    lambda x, p: gsqrt(x),
    lambda x, p: glog(x),
    lambda x, p: gpow(x, 1.5),
], ids=["reciprocal", "sqrt", "log", "real-power"])
def test_replayed_flow_raises_what_a_new_recording_raises(pendulum, hx):
    sys = dataclasses.replace(pendulum, partials=dict(pendulum.partials,
                                                      x=hx))
    for x in (0.0, -1.0):
        # recorded from no state, then run as generated code at x = 1,
        # where every partial has a value
        assert _outcome(sys, PhaseState(1.0, 0.5)).startswith("(Jet(")
        s = PhaseState(x, 0.5)
        # the same as a new system object's code and as the partials on
        # finished jets
        want = _outcome(sys, s, picard_flow_coeffs)
        assert _outcome(sys, s) == _outcome(dataclasses.replace(sys), s) \
            == want, x


def test_held_flow_unchanged_by_later_calls(pendulum):
    held = taylor_flow_coeffs(pendulum, PhaseState(0.3, 1.2), 8)
    text = repr(held)
    taylor_flow_coeffs(pendulum, PhaseState(-1.0, 0.4), 8)
    taylor_flow_coeffs(pendulum, PhaseState(2.0, -0.7), 3)
    assert repr(held) == text


def test_energy_first_integral_of_test_systems(rng):
    # the test systems' partials belong to their energies
    for sys in (_relativistic_softplus(), _drift()):
        for _ in range(10):
            s = rand_state(rng)
            X, P = taylor_flow_coeffs(sys, s, 8)
            e = sys.energy(X, P)
            scale = max(1.0, abs(e.coeffs[0]))
            for k in range(1, 9):
                assert abs(e.coeffs[k]) <= 1e-11 * scale


def _functions(sys, s):
    """The flow function of order 7 and the gr-7 delta function generated
    for sys."""
    taylor_flow_coeffs(sys, s, 7)
    delta_series(sys, s, 0.25, 7)
    functions = sys._code.functions
    return functions[7], functions[("delta", 7)]


def test_systems_of_one_structure_share_code():
    # the generated text names scalars, never their values, so it is
    # compiled once per process and run with each system's own scalars
    s = PhaseState(0.4, 1.0)
    first = _functions(make_pendulum(), s)
    second = _functions(make_pendulum(), s)
    for a, b in zip(first, second):
        assert a is not b and a.__code__ is b.__code__
    slow, fast = make_harmonic(1.3), make_harmonic(2.0)
    for a, b in zip(_functions(slow, s), _functions(fast, s)):
        assert a.__code__ is b.__code__
    # each runs with its own omega: P_1 = -omega^2 x
    for sys, w in ((slow, 1.3), (fast, 2.0)):
        assert taylor_flow_coeffs(sys, PhaseState(1.0, 0.0), 2)[1].coeffs[1] \
            == -(w * w)
        want = 0.25 * horner(delta_series_coefficients(sys, s, 7), 0.25)
        assert delta_series(sys, s, 0.25, 7) == want
    assert delta_series(slow, s, 0.25, 7) != delta_series(fast, s, 0.25, 7)


def test_each_system_object_records_once():
    # two pendulum objects used in turn each keep their own recording,
    # made when each is built
    calls = []

    def counted(sys, tag):
        return dataclasses.replace(sys, partials=dict(sys.partials, **{
            key: lambda x, p, f=sys.partials[key], key=key: (
                calls.append((tag, key)), f(x, p))[1]
            for key in ("x", "p")}))

    pendulums = [counted(make_pendulum(), tag) for tag in (1, 2)]
    want = [(1, "p"), (1, "x"), (2, "p"), (2, "x")]
    assert sorted(calls) == want
    s = PhaseState(0.4, 1.0)
    for _ in range(3):
        for sys in pendulums:
            taylor_flow_coeffs(sys, s, 7)
            delta_series(sys, s, 0.25, 7)
    assert sorted(calls) == want


def test_built_system_is_immutable(pendulum):
    # what a system recorded when it was built cannot go stale
    with pytest.raises(dataclasses.FrozenInstanceError):
        pendulum.dd_p = lambda x, x1, p, p1: p1
    with pytest.raises(TypeError):
        pendulum.partials["x"] = lambda x, p: x


def test_kick_drift_structure_is_read_from_the_recording(pendulum):
    # H = p^2/2 + V(x) exactly when partials['p'] returned its p argument
    assert pendulum.quadratic_kinetic
    assert make_harmonic(1.3).quadratic_kinetic
    assert not make_crossterm(0.5).quadratic_kinetic
    assert not make_crossterm(0.0).quadratic_kinetic
    scaled = dataclasses.replace(pendulum, partials=dict(
        pendulum.partials, p=lambda x, p: 1.0 * p))
    assert not scaled.quadratic_kinetic
    # it is not an argument, so it cannot be set wrong
    with pytest.raises(TypeError, match="quadratic_kinetic"):
        HamiltonianSystem(name="flagged", energy=pendulum.energy,
                          partials=dict(pendulum.partials),
                          dd_x=pendulum.dd_x, dd_p=pendulum.dd_p,
                          quadratic_kinetic=True)


# an assignment "name = text" whose text makes no call; an identity
# operation k = 1 leaves in a text
_CALL_FREE = re.compile(r"\s*([A-Za-z_]\w*) = ((?:(?!\w\s*\().)+)")
_IDENTITY = re.compile(r"/ 1\b(?!\.)|(?<![\w.])1 \*")


@pytest.mark.parametrize("name", ["pendulum", "harmonic:1.3",
                                  "crossterm:0.5"])
def test_generated_jet_texts_write_only_what_is_read(name, monkeypatch):
    # the flow, parts and gr-N delta functions and the tay-N and gr-N
    # blocks: every call-free assignment is read somewhere in its text, and
    # no identity operation is left
    texts = []
    generate = jets.generate

    def spy(params, body, result, namespace):
        texts.append("\n".join([*body, result]))
        return generate(params, body, result, namespace)
    monkeypatch.setattr(jets, "generate", spy)
    sys, s = system_from_name(name), PhaseState(0.4, 1.0)
    code = sys._code
    for N in range(1, MAX_FLOW_ORDER + 1):
        taylor_flow_coeffs(sys, s, N)
        taylor_block(sys, N)
    for N in range(1, 15):
        _series_function(sys, N)
        make_stepper(f"gr-{N}", sys)
    for N in range(1, 19):          # the deflation's orders included
        _parts_function(code, N)
    # each flow and tay-N block, each delta, the one gr-N block, each parts
    assert len(texts) >= 2 * MAX_FLOW_ORDER + 14 + 1 + 18
    for text in texts:
        assert not _IDENTITY.search(text), text
        for line in text.splitlines():
            m = _CALL_FREE.fullmatch(line)
            if m:
                reads = re.findall(rf"\b{m[1]}\b", text)
                assert len(reads) >= 2, f"{m[1]} is never read: {line}"


@pytest.mark.parametrize("name", ["pendulum", "harmonic:1.3",
                                  "crossterm:0.5"])
def test_flow_and_parts_lines_keep_only_output_copies(name):
    # a plain copy a = b is folded into its readers unless a is an output,
    # such as x1 = p0: dd_p's p + P would otherwise copy P's coefficients
    code = system_from_name(name)._code
    texts = [(code.flow_lines(N), []) for N in range(1, MAX_FLOW_ORDER + 1)]
    texts += [(body, dd) for body, _, dd in map(code.parts_lines,
                                                range(1, 19))]
    for body, dd in texts:
        for line in body:
            copy = re.fullmatch(r"(\w+) = (\w+)", line)
            assert not copy or re.fullmatch(r"[xp]\d+", copy[1]) \
                or copy[1] in dd, line


def _energy_function(sys):
    """The recorded energy of sys as a function of floats, written as a
    stride block writes it."""
    names = dict(jets.FLOAT_HELPERS)
    lines, (text,) = sys._code.scalar_lines(("energy",), {"x": "x", "p": "p"},
                                            "_eh", names)
    return jets.generate("x, p", lines, text, names)


def _energy_states(rng, n):
    """n states: plain, log-uniform magnitudes of either sign, signed zeros,
    subnormals and +-1e300 in each coordinate."""
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e300, -1e300]

    def coordinate(i):
        kind = i % 4
        if kind == 0:
            return rng.uniform(-3.0, 3.0)
        if kind == 1:
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 300)
        return rng.choice(special) if kind == 2 else rng.uniform(-1e3, 1e3)
    return [(coordinate(i), coordinate(i // 4 + rng.randrange(4)))
            for i in range(n)]


def _outcome_of(f, x, p):
    try:
        v = f(x, p)
    except Exception as exc:                # noqa: BLE001 - compared below
        return type(exc), str(exc)
    return float, v.hex()


@pytest.mark.parametrize("sys", [
    make_pendulum(), make_harmonic(1.3), make_crossterm(0.5),
    _relativistic_softplus(), _drift(), _quartic()], ids=lambda sys: sys.name)
def test_recorded_energy_equals_the_energy_callable(sys, rng):
    # the text a sample computes H with gives what sys.energy gives, bit for
    # bit, or raises the same error
    recorded = _energy_function(sys)
    raised = 0
    for x, p in _energy_states(rng, 3000):
        want = _outcome_of(sys.energy, x, p)
        assert _outcome_of(recorded, x, p) == want, (x, p)
        raised += want[0] is not float
    if sys.name == "relativistic-softplus":
        assert raised > 0               # log, exp and power errors compared


def test_recorded_energy_text_of_the_pendulum():
    # on the float helpers, with no call but the cosine
    lines, (text,) = make_pendulum()._code.scalar_lines(
        ("energy",), {"x": "x0", "p": "p0"}, "_eh", {})
    assert (lines, text) == ([], "((0.5 * p0) * p0) - (gcos(x0))")


def test_an_energy_that_cannot_be_recorded_fails_at_build(pendulum):
    with pytest.raises(ValueError, match=r"'pendulum': energy: .*system "
                                         r"contract allows no branches"):
        dataclasses.replace(pendulum,
                            energy=lambda x, p: 0.5 * p * p - math.cos(x))
    with pytest.raises(ValueError, match=r"'pendulum': energy returned a jet"):
        dataclasses.replace(pendulum, energy=lambda x, p: Jet([1.0, 0.0]))
