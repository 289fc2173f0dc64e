"""One fresh benchmark process's set-up: import discgrad, build the system
and a stepper per scheme, take one warm step with each (which runs any lazy
import the step needs), then print `ready`.

    python3 perfbench/setup_probe.py gr,gr-lex 1.8

discgrad must be importable, e.g. through PYTHONPATH=src.
"""

import sys


def main(schemes: str, p0: str) -> None:
    import discgrad.cli  # noqa: F401  (the workloads enter through the CLI)
    from discgrad.hamiltonian import PhaseState, system_from_name
    from discgrad.harness import make_stepper

    pend = system_from_name("pendulum")
    for scheme in schemes.split(","):
        make_stepper(scheme, pend)(PhaseState(0.0, float(p0)), 0.25)
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
