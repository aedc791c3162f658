"""Smooth one-sided cutoffs built from the classical bump kernel.

A transition function chi drops from 1 to 0 across the ramp
[eps - delta, eps + delta]: it equals 1 for x <= eps - delta, equals 0 for
x >= eps + delta, and decreases strictly in between, infinitely smooth
throughout. The canonical construction mollifies the step indicator
1_{x <= eps} with a rescaled bump

    eta(x) = c * exp(1 / (x**2 - 1))  on (-1, 1),  0 outside,

normalized so that eta integrates to one. Convolution with
eta_delta(x) = eta(x / delta) / delta collapses to the closed form

    chi(x) = 1 - E((x - eps) / delta),
    chi'(x) = -eta((x - eps) / delta) / delta,

where E is the antiderivative of eta with E(-1) = 0 and E(1) = 1. The
choice delta = eps / 2 is the mollified heaviside; its slope satisfies

    1 / eps <= sup |chi'| <= 4 * sup|eta'| / eps,

the lower bound because chi must cross from 1 to 0 inside a ramp of width
eps, the upper bound from the kernel rescaling.

The antiderivative has no elementary closed form, so it is tabulated once
by composite Simpson quadrature on a fine grid and interpolated with a
monotone (shape-preserving) cubic. A batch of 1024 points or more is
evaluated straight from the PCHIP coefficients, its interval found from
the uniform node spacing instead of a search, with the same bits as the
interpolant's own call, which serves smaller batches. Plateau values are still returned exactly, never through the table, so
downstream exactness checks can compare against 1.0 and 0.0 bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator


def _bump_raw(x: np.ndarray) -> np.ndarray:
    """Unnormalized bump exp(1/(x^2-1)) on (-1, 1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    with np.errstate(under="ignore"):
        out[inside] = np.exp(1.0 / (xi * xi - 1.0))
    return out


class MollifierKernel:
    """Normalized bump kernel with a tabulated antiderivative.

    Attributes
    ----------
    c_eta : float
        Normalization constant, 1 / integral of the raw bump.
    nodes : ndarray
        Tabulation grid on [-1, 1], at least 2049 points (2048 panels).
    antiderivative : PchipInterpolator
        Monotone cubic interpolant of E, the antiderivative of eta with
        E(-1) = 0 and E(1) = 1.
    sup_value : float
        sup eta = eta(0) = c_eta / e.
    sup_abs_derivative : float
        sup |eta'|, located numerically on the tabulation grid and
        refined by golden-section search.
    """

    def __init__(self, panels: int = 32_768):
        if panels < 2048:
            raise ValueError(f"kernel table needs >= 2048 panels, got {panels}")
        if panels % 2:
            raise ValueError("panel count must be even for Simpson quadrature")
        self.panels = panels
        self.nodes = np.linspace(-1.0, 1.0, panels + 1)
        raw = _bump_raw(self.nodes)
        cumulative = cumulative_simpson(raw, x=self.nodes, initial=0.0)
        total = cumulative[-1]
        self.c_eta = 1.0 / total
        table = np.minimum(cumulative / total, 1.0)
        # Cumulative Simpson of a nonnegative integrand on this grid is
        # nondecreasing, which PCHIP preserves.
        self.antiderivative = PchipInterpolator(self.nodes, table, extrapolate=False)
        self.sup_value = self.c_eta * np.exp(-1.0)
        self.sup_abs_derivative = self._locate_sup_derivative()

    def __call__(self, x) -> np.ndarray:
        """Evaluate eta(x), vectorized; exact zeros outside (-1, 1)."""
        return self.c_eta * _bump_raw(x)

    def derivative(self, x) -> np.ndarray:
        """eta'(x) = eta(x) * (-2x) / (x^2 - 1)^2, zero outside (-1, 1)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        q = xi * xi - 1.0
        out[inside] = self(xi) * (-2.0 * xi) / (q * q)
        return out

    def integral_of(self, x) -> np.ndarray:
        """E(x) with exact plateaus: 0 for x <= -1, 1 for x >= 1; NaN stays NaN.

        Inside (-1, 1) a batch of fewer than 1024 points goes through the
        interpolant's own call: its search starts from the last point's
        interval, so on points ordered along a grid it costs less at that
        size. A larger batch goes through `_table`. Both give the same bits.
        """
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, np.nan)
        out[x <= -1.0] = 0.0
        out[x >= 1.0] = 1.0
        inside = (x > -1.0) & (x < 1.0)
        if np.any(inside):
            xi = x[inside]
            out[inside] = self.antiderivative(xi) if xi.size < 1024 else self._table(xi)
        return out

    def _table(self, x: np.ndarray) -> np.ndarray:
        """The interpolant at points of (-1, 1), summed from its coefficients.

        Each cubic piece is summed term by term in the order the
        interpolant's own evaluation uses, so the value equals
        `antiderivative(x)` bit for bit. The nodes are uniform up to
        rounding, so floor((x + 1) / h) is the interval of x or one next to
        it, and one comparison with the nodes on each side replaces the
        binary search.
        """
        nodes, c = self.nodes, self.antiderivative.c
        k = np.minimum(((x + 1.0) / (2.0 / self.panels)).astype(np.intp), self.panels - 1)
        k -= x < nodes[k]
        k += x >= nodes[k + 1]
        s = x - nodes[k]
        s2 = s * s
        return c[3, k] + c[2, k] * s + c[1, k] * s2 + c[0, k] * (s2 * s)

    def _locate_sup_derivative(self) -> float:
        grid = np.linspace(0.0, 1.0 - 1e-9, 20_001)
        vals = np.abs(self.derivative(grid))
        k = int(np.argmax(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        for _ in range(80):
            c = b - phi * (b - a)
            d = a + phi * (b - a)
            if abs(self.derivative(np.array([c]))[0]) > abs(self.derivative(np.array([d]))[0]):
                b = d
            else:
                a = c
        x_star = 0.5 * (a + b)
        return float(abs(self.derivative(np.array([x_star]))[0]))

    def __repr__(self) -> str:
        return f"MollifierKernel(panels={self.panels}, c_eta={self.c_eta:.12g})"


@lru_cache(maxsize=4)
def default_kernel(panels: int = 32_768) -> MollifierKernel:
    """Shared kernel instance; the table is built once per panel count."""
    return MollifierKernel(panels)


@dataclass(frozen=True)
class TransitionFunction:
    """Smooth cutoff equal to 1 below eps - delta and 0 above eps + delta.

    Parameters
    ----------
    eps : float
        Ramp center, must be positive.
    delta : float
        Ramp half-width, must lie in (0, eps).
    kernel : MollifierKernel
        Bump kernel supplying the ramp profile.
    """

    eps: float
    delta: float
    kernel: MollifierKernel = field(repr=False)

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.delta < self.eps:
            raise ValueError(
                f"delta must lie in (0, eps) = (0, {self.eps}), got {self.delta}"
            )

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def _regions(self, x: np.ndarray):
        """Masks of x below eps + delta, inside the ramp, and NaN: the one
        value that fails both comparisons, as eps - delta < eps + delta."""
        below = x < self.eps + self.delta
        above = x > self.eps - self.delta
        return below, above & below, ~(above | below)

    def evaluate(self, x) -> np.ndarray:
        """chi(x), vectorized. Plateau values are exact 1.0 / 0.0; NaN stays NaN."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        below, ramp, nan = self._regions(x)
        out = below.astype(float)
        out[nan] = np.nan
        if np.any(ramp):
            arg = (x[ramp] - self.eps) / self.delta
            out[ramp] = 1.0 - self.kernel.integral_of(arg)
        return out[0] if scalar else out

    def derivative(self, x) -> np.ndarray:
        """chi'(x) = -eta((x - eps)/delta) / delta, exact zero off-ramp; NaN stays NaN."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        _, ramp, nan = self._regions(x)
        out = np.zeros_like(x)
        out[nan] = np.nan
        if np.any(ramp):
            out[ramp] = -self.kernel((x[ramp] - self.eps) / self.delta) / self.delta
        return out[0] if scalar else out

    @property
    def slope_bound(self) -> float:
        """Exact sup |chi'| = eta(0) / delta (the ramp midpoint slope)."""
        return self.kernel.sup_value / self.delta

    def __repr__(self) -> str:
        return f"TransitionFunction(eps={self.eps}, delta={self.delta})"


def build_mollified_heaviside(eps: float, kernel: MollifierKernel | None = None) -> TransitionFunction:
    """Transition function from mollifying the step 1_{x <= eps}.

    Uses ramp half-width delta = eps / 2, the value produced by convolving
    the step with the bump rescaled to support [-eps/2, eps/2].
    """
    if kernel is None:
        kernel = default_kernel()
    return TransitionFunction(eps=float(eps), delta=float(eps) / 2.0, kernel=kernel)


def derivative_bound(chi: TransitionFunction, samples: int = 20_001) -> float:
    """Measured sup |chi'| over a dense ramp grid including the midpoint.

    For the mollified heaviside (delta = eps/2) the result lies between
    1/eps and 4 * sup|eta'| / eps; the grid contains the exact maximizer
    x = eps, so the measurement is tight to rounding.
    """
    if samples < 3:
        raise ValueError("need at least 3 samples across the ramp")
    if samples % 2 == 0:
        samples += 1  # keep the ramp midpoint on the grid
    grid = np.linspace(chi.eps - chi.delta, chi.eps + chi.delta, samples)
    return float(np.max(np.abs(chi.derivative(grid))))
