"""Tests for the bump kernel and smooth cutoff construction.

The oracle for the closed-form cutoff is a direct adaptive-quadrature
convolution of the step indicator with the rescaled bump, independent of
the tabulated antiderivative the implementation interpolates.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rdlearn.transition import (
    TransitionFunction,
    build_mollified_heaviside,
    default_kernel,
    derivative_bound,
)


def conv_oracle(kernel, eps, x):
    """(step * bump)(x) by adaptive quadrature: integral of eta_eps over
    {t >= x - eps} intersected with the kernel support [-eps/2, eps/2]."""
    lo = max(x - eps, -eps / 2.0)
    hi = eps / 2.0
    if lo >= hi:
        return 0.0
    val, _ = quad(
        lambda t: (2.0 / eps) * float(kernel(np.array([2.0 * t / eps]))[0]),
        lo,
        hi,
        epsabs=1e-13,
        limit=200,
    )
    return val


def test_kernel_normalization():
    k = default_kernel()
    total, err = quad(lambda t: float(k(np.array([t]))[0]), -1.0, 1.0, epsabs=1e-13, limit=200)
    assert abs(total - 1.0) < 1e-10
    # frozen from the quadrature oracle: normalization of exp(1/(x^2-1))
    assert k.c_eta == pytest.approx(2.2522836210435817, rel=1e-10)


def test_antiderivative_endpoints_and_symmetry():
    k = default_kernel()
    assert k.integral_of(np.array([-1.0]))[0] == 0.0
    assert k.integral_of(np.array([1.0]))[0] == 1.0
    assert k.integral_of(np.array([-2.0, 5.0])).tolist() == [0.0, 1.0]
    # even kernel: E(0) = 1/2
    assert k.integral_of(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-8)


def test_integral_of_matches_quadrature():
    """E from the one Hermite table against adaptive quadrature of eta, at
    every 64th node, at both float neighbours of those nodes and at random
    points: within 1e-13 everywhere. The quadrature starts from the nearer
    end of the support. The points just inside +-1, where (x + 1) / h
    rounds up to the panel count, evaluate without error, and chi stays
    non-increasing and within [0, 1] on sorted ramp points."""
    k = default_kernel()
    panels = k.coef.shape[0]
    nodes = -1.0 + (2.0 / panels) * np.arange(0, panels + 1, 64)
    pts = np.concatenate([
        nodes,
        np.nextafter(nodes, -np.inf),
        np.nextafter(nodes, np.inf),
        np.random.default_rng(3).uniform(-1.0, 1.0, 200),
    ])
    pts = pts[(pts > -1.0) & (pts < 1.0)]

    def eta(t):
        return float(k(np.array([t]))[0])

    def tail(a, b):
        return quad(eta, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    ref = np.array([tail(-1.0, p) if p <= 0.0 else 1.0 - tail(p, 1.0) for p in pts])
    assert np.max(np.abs(k.integral_of(pts) - ref)) <= 1e-13

    edges = k.integral_of(np.nextafter([-1.0, 1.0], 0.0))
    assert np.abs(edges - [0.0, 1.0]).max() < 1e-17

    chi = build_mollified_heaviside(0.2)
    x = np.sort(np.random.default_rng(4).uniform(chi.eps - chi.delta, chi.eps + chi.delta, 10**6))
    values = chi.evaluate(x)
    assert np.all(np.diff(values) <= 0.0)
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_closed_form_matches_convolution_oracle():
    k = default_kernel()
    eps = 0.2
    chi = build_mollified_heaviside(eps, k)
    assert chi.evaluate(0.05) == 1.0  # plateau, exact
    assert chi.evaluate(0.35) == 0.0  # plateau, exact
    assert chi.evaluate(0.2) == pytest.approx(0.5, abs=1e-9)  # ramp midpoint by symmetry
    for x in [0.11, 0.13, 0.17, 0.2, 0.23, 0.27, 0.29]:
        assert chi.evaluate(x) == pytest.approx(conv_oracle(k, eps, x), abs=1e-8)


def test_plateaus_bitwise_exact():
    chi = build_mollified_heaviside(0.2)
    left = chi.evaluate(np.array([-5.0, 0.0, 0.05, 0.1]))
    right = chi.evaluate(np.array([0.3, 0.35, 2.0, 1e9]))
    assert np.all(left == 1.0)
    assert np.all(right == 0.0)
    assert np.all(chi.derivative(np.array([0.05, 0.1, 0.3, 2.0])) == 0.0)


def test_non_finite_input_is_not_hidden_by_the_plateaus():
    chi = build_mollified_heaviside(0.2)
    x = np.array([np.nan, -np.inf, np.inf, 0.05, 2.0])
    value, slope = chi.evaluate(x), chi.derivative(x)
    assert np.isnan(value[0]) and np.isnan(slope[0])
    assert np.isnan(chi.evaluate(np.nan)) and np.isnan(chi.derivative(np.nan))
    assert np.isnan(chi.kernel.integral_of(x)).tolist() == [True] + [False] * 4
    eta = chi.kernel(x)
    assert np.isnan(eta[0]) and np.isnan(chi.kernel(np.nan))
    assert eta[1:3].tolist() == [0.0, 0.0] and eta[3] > 0.0 and eta[4] == 0.0
    # +-inf and the plateaus stay bitwise +1.0 / +0.0
    assert value[1:].view(np.uint64).tolist() == np.array([1.0, 0.0, 1.0, 0.0]).view(np.uint64).tolist()
    assert slope[1:].view(np.uint64).tolist() == np.zeros(4).view(np.uint64).tolist()


def masked_integral_of(kernel, x):
    """E(x) as the table was read before the clipped path: the plateaus
    and NaN filled by masks, the table read only strictly inside (-1, 1)."""
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, np.nan)
    out[x <= -1.0] = 0.0
    out[x >= 1.0] = 1.0
    inside = (x > -1.0) & (x < 1.0)
    if np.any(inside):
        t = (x[inside] + 1.0) * (kernel.coef.shape[0] / 2)
        k = np.minimum(t.astype(np.intp), kernel.coef.shape[0] - 1)
        s = t - k
        c0, c1, c2, c3 = kernel.coef.take(k, axis=0).T
        out[inside] = ((c3 * s + c2) * s + c1) * s + c0
    return out


def masked_evaluate(chi, x):
    """chi(x) with exact plateaus set by masks and only the ramp read."""
    x = np.asarray(x, dtype=float)
    below = x < chi.eps + chi.delta
    above = x > chi.eps - chi.delta
    ramp = above & below
    out = below.astype(float)
    out[~(above | below)] = np.nan
    out[ramp] = 1.0 - masked_integral_of(chi.kernel, (x[ramp] - chi.eps) / chi.delta)
    return out


@pytest.mark.parametrize("eps", [1.0, 2.0 ** -0.5, 3.0 ** -0.5, 0.3, 0.25])
def test_clipped_cutoff_path_is_the_masked_one_bitwise(eps):
    """The one clipped table path gives the bits of plateau masks and a
    ramp-only table read: on a dense ramp grid, at both ramp ends and their
    float neighbours, at +-inf, NaN and +-0.0, and on 2D batches."""
    chi = build_mollified_heaviside(eps)
    lo, hi = chi.eps - chi.delta, chi.eps + chi.delta
    ends = np.array([lo, hi, -1.0, 1.0])
    x = np.concatenate([
        np.linspace(lo - 0.1 * eps, hi + 0.1 * eps, 200_001),
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        [np.inf, -np.inf, np.nan, 0.0, -0.0],
    ])
    assert chi.evaluate(x).tobytes() == masked_evaluate(chi, x).tobytes()
    batch = x[: 2 * (x.size // 2)].reshape(-1, 2)
    # row-major, column-major and strided, as the solver's transposed state
    for b in (batch, np.asfortranarray(batch), batch[::3], batch.T.copy().T[::2]):
        assert chi.evaluate(b).shape == b.shape
        assert chi.evaluate(b).tobytes() == masked_evaluate(chi, b).tobytes()
    arg = (x - chi.eps) / chi.delta
    assert chi.kernel.integral_of(arg).tobytes() == masked_integral_of(chi.kernel, arg).tobytes()
    assert chi.evaluate(lo) == 1.0 and chi.evaluate(hi) == 0.0 and np.isnan(chi.evaluate(np.nan))


def test_table_end_panels_are_exact_plateaus():
    """The plateaus go through the table, so its first panel must be the
    cubic 0 and its last the cubic 1, with no slope or curvature."""
    coef = default_kernel().coef
    assert coef[0].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert coef[-1].tolist() == [1.0, 0.0, 0.0, 0.0]


def masked_eta(kernel, z):
    """eta(z) = c_eta exp(1/(z^2 - 1)) written out on a boolean mask of
    (-1, 1), zero outside; it reads only c_eta from the kernel."""
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    with np.errstate(under="ignore"):
        out[inside] = kernel.c_eta * np.exp(1.0 / (z[inside] * z[inside] - 1.0))
    return out


def masked_derivative(chi, x):
    """chi' gathered and scattered through a boolean ramp mask: the
    reference for the clipped path."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ramp = (x > chi.eps - chi.delta) & (x < chi.eps + chi.delta)
    out = np.zeros_like(x)
    out[np.isnan(x)] = np.nan
    out[ramp] = -masked_eta(chi.kernel, (x[ramp] - chi.eps) / chi.delta) / chi.delta
    return out


@pytest.mark.parametrize("eps", [1.0, 2.0 ** -0.5, 3.0 ** -0.5, 0.3, 0.25, 0.2])
def test_clipped_derivative_equals_the_masked_reference(eps):
    """Equal values, NaN for NaN, and +0.0 bitwise off the ramp, also at a
    ramp end whose z rounds inside (eps = 0.3: z(0.45) < 1)."""
    chi = build_mollified_heaviside(eps)
    lo, hi = chi.eps - chi.delta, chi.eps + chi.delta
    ends = [v for e in (lo, hi)
            for v in (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
    x = np.concatenate([np.linspace(-0.5 * eps, 2.5 * eps, 4001), np.linspace(lo, hi, 4001),
                        ends, [np.inf, -np.inf, np.nan, 0.0, -0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = chi.derivative(x)
    assert np.array_equal(got, masked_derivative(chi, x), equal_nan=True)
    off = (x <= lo) | (x >= hi)
    assert got[off].tobytes() == np.zeros(np.count_nonzero(off)).tobytes()


def test_derivative_matches_central_differences():
    from scipy.stats import qmc

    chi = build_mollified_heaviside(0.2)
    pts = qmc.Halton(d=1, scramble=True, seed=7).random(100).ravel()
    xs = chi.eps - chi.delta + 2.0 * chi.delta * pts
    h = 1e-6
    fd = (chi.evaluate(xs + h) - chi.evaluate(xs - h)) / (2.0 * h)
    an = chi.derivative(xs)
    assert np.all(an <= 0.0)
    # relative to the derivative scale: near the ramp edges the kernel
    # decays double-exponentially and any tabulated antiderivative is flat
    # to rounding, so the pointwise quotient is meaningless there
    assert np.max(np.abs(fd - an)) < 1e-6 * chi.slope_bound
    core = np.abs((xs - chi.eps) / chi.delta) <= 0.85
    rel = np.abs(fd[core] - an[core]) / np.abs(an[core])
    assert np.max(rel) < 1e-6


def test_slope_bound_sandwich():
    k = default_kernel()
    measured = {}
    for eps in [1.0, 1e-1, 1e-2, 1e-3, 1e-4]:
        chi = build_mollified_heaviside(eps, k)
        s = derivative_bound(chi)
        assert s >= 1.0 / eps
        assert s <= 4.0 * k.sup_abs_derivative / eps
        measured[eps] = eps * s
    vals = list(measured.values())
    assert max(vals) / min(vals) < 2.0
    # the midpoint slope is exactly eta(0)/delta = 2*eta(0)/eps
    assert vals[0] == pytest.approx(2.0 * k.sup_value, rel=1e-12)


def test_sup_abs_derivative_is_the_maximum_of_eta_prime():
    """The closed form eta(x*) 2 x* / (x*^2 - 1)^2 at x* = 3^(-1/4) bounds
    |eta'| = eta 2|z| / (z^2 - 1)^2 on a dense grid and is met there to 1e-9."""
    k = default_kernel()
    z = np.linspace(-1.0, 1.0, 200_001)[1:-1]
    q = z * z - 1.0
    slope = masked_eta(k, z) * 2.0 * np.abs(z) / (q * q)
    assert slope.max() <= k.sup_abs_derivative * (1.0 + 1e-15)
    assert slope.max() >= k.sup_abs_derivative * (1.0 - 1e-9)


def test_general_half_width():
    chi = TransitionFunction(eps=0.5, delta=0.1, kernel=default_kernel())
    assert chi.evaluate(0.4) == 1.0
    assert chi.evaluate(0.6) == 0.0
    assert 0.0 < chi.evaluate(0.55) < chi.evaluate(0.45) < 1.0
    assert derivative_bound(chi) == pytest.approx(chi.slope_bound, rel=1e-6)


def test_parameter_validation():
    k = default_kernel()
    with pytest.raises(ValueError, match="eps"):
        TransitionFunction(eps=0.0, delta=0.1, kernel=k)
    with pytest.raises(ValueError, match="delta"):
        TransitionFunction(eps=0.2, delta=0.2, kernel=k)
    with pytest.raises(ValueError, match="delta"):
        TransitionFunction(eps=0.2, delta=-0.05, kernel=k)


def test_default_kernel_is_cached():
    assert default_kernel() is default_kernel()


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(min_value=1e-3, max_value=10.0),
    a=st.floats(min_value=-1.0, max_value=3.0),
    b=st.floats(min_value=-1.0, max_value=3.0),
)
def test_monotone_and_bounded(eps, a, b):
    chi = build_mollified_heaviside(eps)
    x1, x2 = sorted((a * eps, b * eps))
    v1, v2 = chi.evaluate(x1), chi.evaluate(x2)
    assert 0.0 <= v2 <= v1 <= 1.0


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=0.101, max_value=0.299))
def test_strictly_decreasing_inside_ramp(x):
    chi = build_mollified_heaviside(0.2)
    assert chi.derivative(x) < 0.0
