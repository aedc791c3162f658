"""Tests for the quasi-random sampling helpers.

The scrambled Halton sequence is written with numpy alone; scipy's
qmc.Halton is its oracle here, and only here, so that importing the
package does not load scipy.stats.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import rdlearn
from rdlearn._sampling import halton_box


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 1003])
def test_halton_box_equals_scipy_halton_bitwise(dim, seed):
    from scipy.stats import qmc

    lo = -np.arange(dim, dtype=float)
    hi = 1.0 + 0.5 * np.arange(dim)
    for n in (0, 1, 7, 4096):
        expected = lo + qmc.Halton(d=dim, scramble=True, seed=seed).random(n) * (hi - lo)
        ours = halton_box(n, lo, hi, seed=seed)
        assert ours.shape == expected.shape == (n, dim)
        assert ours.tobytes() == expected.tobytes()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # the child imports the same rdlearn sources as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(rdlearn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, rdlearn.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
