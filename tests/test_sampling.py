"""Tests for the quasi-random sampling helpers.

The scrambled Halton sequence is written with numpy alone; scipy's
qmc.Halton is its oracle here, and only here. Importing the package loads
scipy only for its LAPACK tridiagonal routines: not scipy.stats, nor
scipy.interpolate or scipy.integrate. Every name the package exports
resolves.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import rdlearn
from rdlearn._sampling import box_quadrature, halton_box


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


def test_box_quadrature_above_dimension_two_is_quasi_monte_carlo():
    """From three dimensions on, the rule is 32768 Halton points in the box
    with equal weights that sum to its volume, the same for the same seed."""
    lo, hi = np.array([-1.0, 0.0, 0.5]), np.array([1.0, 0.5, 2.0])
    pts, w = box_quadrature(lo, hi, seed=3)
    assert pts.shape == (32768, 3) and w.shape == (32768,)
    assert np.all((pts >= lo) & (pts <= hi))
    assert w.sum() == pytest.approx(np.prod(hi - lo), rel=1e-12)
    assert box_quadrature(lo, hi, seed=3)[0].tobytes() == pts.tobytes()


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.interpolate", "scipy.integrate"])
def test_importing_the_cli_leaves_scipy_module_unloaded(module):
    # the child imports the same rdlearn sources as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(rdlearn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, rdlearn.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from rdlearn import *", namespace)
    assert all(name in namespace for name in rdlearn.__all__)
