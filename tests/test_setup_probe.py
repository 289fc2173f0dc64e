"""The benchmark's set-up probe, run as the benchmark runs it.

`perfbench/setup_probe.py` measures `setup_s`: a fresh process imports
discgrad, resolves each scheme of a workload through `make_stepper` and
takes one step with each.  Nothing else in the suite starts it, so a change
to how a scheme id resolves could break the benchmark with the suite green.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_setup_probe_is_ready(workload):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
            ",".join(WORKLOADS[workload].schemes), "1.8"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ready"]
