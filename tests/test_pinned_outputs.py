"""Pinned outputs: one sha256 per scheme id over what a run writes.

Each hash covers the ``emit_csv`` bytes of ``run_trajectory`` for the
scheme on the three built-in systems, at p0 0.02, 1.8 and 2.001, over
400 steps of h 0.25 sampled every 7 steps.  Where a run raises, the hash
covers the exception's type and message instead.  So a change that
leaves every result as it was passes, and one that moves a single bit of
a state, a sample or an error message fails here.

A change that alters results on purpose (a new algorithm, a fixed
defect) records the new hashes with :func:`pinned_hash` and says in
CHANGES.md which ids moved and why.  The hashes hold for a libm that
rounds the math functions as the one they were recorded on (CPython 3.11
on x86-64 Linux, glibc).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from discgrad import harness
from discgrad.errors import StepError

SYSTEMS = ("pendulum", "harmonic", "crossterm")
P0S = (0.02, 1.8, 2.001)

PINNED = {
    "gr":
        "36772c22b792402fd9fa6484e163d5af7015f77eac9e26a8be7a01975756786e",
    "mod-gr":
        "4aa765b3e62d90435ad21c84e0eb194f41d7754beae801030a7c455532243154",
    "gr-lex":
        "4110c46139caadadf19ea7042f970dc2fba1ee8f857395b0d5a9d9a5fb09a809",
    "gr-slex":
        "2079b5eeb9261b3eda274157a86cd995a8c7aa09691d17853f27f6db4a6d8804",
    "gr-1":
        "4720fadad1529728759cadda72b027738179a76efada85c886dda911fe602573",
    "gr-3":
        "9ee46888dbc13f92d66cef7787cd8edb24362d2322e8e181ddef2f8dc0411128",
    "gr-7":
        "7e7af37c2aef2187b414ce8889e1f7df0cfd1977b09b0d31d6e0c738983c439f",
    "gr-14":
        "769d6f0e72dcb7830b503d50a8c43870e8366f0d61154de2e09ef36af2a42c87",
    "lf":
        "d26adc0f4774a9d7e2db3594524979cbc0e4f63151b3b3767173dade933154e3",
    "rk4":
        "a2fc9a693dbbdca72fc431635bbf967e600c8d270fcbd62adb51e8770ac1383f",
    "tay-1":
        "b992f9b672883cf6ea241aa57d94c42f38d4085c342869812c9434ec3c8e034d",
    "tay-10":
        "ef71711b0cfcb6f164faf1b4b50040b449469894acfd0befbce8c7a0986eb66b",
    "sp-4":
        "0e54d52128d339b49e72cfa561787803e1e43a55b8763ff1b1585ca43dc2ff1c",
    "sp-8":
        "e1648c0a44917f8e9ea85c86139747678926e2e521bd337c2de4cbd703d9dc89",
}


def pinned_hash(scheme: str, path) -> str:
    """The sha256 of scheme's runs, each CSV written to path."""
    digest = hashlib.sha256()
    for system in SYSTEMS:
        for p0 in P0S:
            spec = harness.ExperimentSpec(scheme, system, p0, 0.25, 400,
                                          sample_stride=7)
            try:
                harness.emit_csv(harness.run_trajectory(spec), path)
            except (StepError, ArithmeticError, ValueError) as exc:
                digest.update(f"{type(exc).__name__}: {exc}\n".encode())
            else:
                digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("scheme", list(PINNED))
def test_run_outputs_are_pinned(scheme, tmp_path):
    assert pinned_hash(scheme, tmp_path / "run.csv") == PINNED[scheme]


# The sha256 of every text jets.generate compiles in a fresh interpreter
# for the runs of PINNED, the README sweep (serial; --periods 8 compiles
# what 120 does) and the README order run, sorted and joined by "\n\0\n".
# Kept with the code: the texts are the program every run executes.
PINNED_TEXTS = \
    "d5c0f4716bb1de8e7fabbd9a19f7ff9e9dcdf8f7ace631fdccc91172920b213d"

_TEXTS_SCRIPT = """
import contextlib, hashlib, io, json, os, sys
from discgrad import cli, harness, jets
from discgrad.errors import StepError
schemes, systems, p0s, out = json.loads(sys.argv[1])
for scheme in schemes:
    for system in systems:
        for p0 in p0s:
            spec = harness.ExperimentSpec(scheme, system, p0, 0.25, 400,
                                          sample_stride=7)
            try:
                harness.run_trajectory(spec)
            except (StepError, ArithmeticError, ValueError):
                pass
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    cli.main(["sweep", "--schemes", "gr,gr-3,gr-7,gr-lex,sp-4,tay-10",
              "--p0", "0.02", "--h", "0.4:0.0125:/2", "--periods", "8",
              "--serial", "--out", os.path.join(out, "sweep.csv")])
    cli.main(["order", "--scheme", "gr-slex", "--p0", "1.8",
              "--h", "0.2,0.1,0.05,0.025", "--t", "2.0"])
print(hashlib.sha256("\\n\\0\\n".join(sorted(jets._CODE)).encode())
      .hexdigest())
"""


def texts_hash(path) -> str:
    """The sha256 of the generated texts, as PINNED_TEXTS defines it, from
    a fresh interpreter: this one's caches (the finished jet operations,
    the sweep's shared pendulum, the oracle's) keep texts from earlier
    runs.  The sweep writes its CSV under path.

    A change that alters a generated text on purpose (a new fold, a new
    step) records the new hash from this function and says in CHANGES.md
    which texts moved and why; one that should not move them, such as a
    refactor of the generator, keeps this test passing."""
    src = str(Path(harness.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    args = json.dumps([list(PINNED), SYSTEMS, P0S, str(path)])
    done = subprocess.run([sys.executable, "-c", _TEXTS_SCRIPT, args],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return done.stdout.strip()


def test_generated_texts_are_pinned(tmp_path):
    assert texts_hash(tmp_path) == PINNED_TEXTS
