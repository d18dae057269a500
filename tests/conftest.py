"""Hypothesis profiles, the pinned-BLAS runner of the golden tests and a
recorder of Adam steps' gradients.

With ``CI`` set in the environment (GitHub Actions sets ``CI=true``), the
``ci`` profile makes every property test draw the same examples on every
run, so a CI failure reproduces and a green run stays green.  Local runs
keep drawing fresh examples.  Example counts come from each test's own
``@settings`` in both cases.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import settings

import reconkit
from reconkit import tensor as T

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)

if os.environ.get("CI"):
    settings.load_profile("ci")

# OpenBLAS picks its GEMM kernel by the CPU it runs on, and each kernel
# sums in its own order, so the golden files pin the bytes computed with
# one kernel, which every x86-64 host with AVX2 runs.  OpenBLAS reads the
# choice when it loads, so a golden computation runs in a fresh
# interpreter.
GOLDEN_CORETYPE = "Haswell"


@pytest.fixture
def golden_python():
    """Run ``python *args`` under the golden kernel, with reconkit and the
    test modules importable; returns its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(reconkit.__file__)))
    env = {**os.environ, "OPENBLAS_CORETYPE": GOLDEN_CORETYPE,
           "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}

    def run(*args):
        out = subprocess.run([sys.executable, *map(str, args)], env=env,
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr
        return out.stdout

    return run


@pytest.fixture
def adam_steps(monkeypatch):
    """Every Adam step's parameter gradients, recorded as it is taken, in
    parameter order."""
    recorded, step = [], T.AdamOptimizer.step

    def recording_step(opt):
        recorded.append([p.grad.copy() for p in opt.params])
        step(opt)

    monkeypatch.setattr(T.AdamOptimizer, "step", recording_step)
    return recorded
