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

The antiderivative has no elementary closed form, so it is tabulated once:
per-panel Simpson sums on 32768 uniform panels give E at the nodes, and
each panel carries the cubic Hermite piece through those values with the
exact slopes E' = eta. The pieces join with matching value and slope, and
every batch is evaluated by the same numpy path: the argument is clipped
to [-1, 1], the panel index comes from the uniform spacing, the cubic from
Horner's rule. The bump underflows to zero in the first and last panels,
so the first panel is exactly the cubic (0, 0, 0, 0) and the last exactly
(1, 0, 0, 0): plateau values come out of the table as exact 1.0 / 0.0,
and downstream exactness checks can compare against them bitwise. The
tail below 1e-17 near -1 is left as the table gives it, not clipped, so E
may dip below 0 there by far less than an ulp of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

_PANELS = 32_768  # a power of two, so the nodes and the scaling by _PANELS / 2 are exact


def _bump(x) -> np.ndarray:
    """Unnormalized bump exp(1/(x^2-1)) on (-1, 1), zero outside; NaN stays NaN.

    x is clipped to [-1, 1], and the exponent is written -1/(1 - x^2), the
    same bits as 1/(x^2 - 1), so at x = +-1 it is -1/+0 = -inf and the bump
    exactly 0.0, with no mask.
    """
    z = np.minimum(np.maximum(x, -1.0), 1.0)
    with np.errstate(divide="ignore", under="ignore"):
        return np.exp(-1.0 / (1.0 - z * z))


class MollifierKernel:
    """Normalized bump kernel with a tabulated antiderivative.

    Calling it evaluates eta, on the one clipped path of `_bump`, which the
    table build and chi' share; `integral_of` evaluates E. eta' is not
    evaluated anywhere: its sup is a closed form.

    Attributes
    ----------
    c_eta : float
        Normalization constant, 1 / integral of the raw bump.
    coef : ndarray, shape (32768, 4)
        Per panel [-1 + k h, -1 + (k + 1) h], h = 2 / 32768, the cubic
        Hermite piece of E in s = (x + 1) / h - k, lowest power first. It
        interpolates E and its exact slope eta at both panel ends. It is
        the transpose of a contiguous (4, 32768) array: each coefficient
        is one row, gathered by the panel indices in the memory order of
        the batch, so the cubic's products never mix layouts.
    sup_value : float
        sup eta = eta(0) = c_eta / e.
    sup_abs_derivative : float
        sup |eta'| = |eta'(x*)| = eta(x*) 2 x* / (x*^2 - 1)^2 at x* = 3^(-1/4),
        where (log |eta'|)' vanishes (3 x^4 = 1).
    """

    def __init__(self):
        h = 2.0 / _PANELS
        nodes = -1.0 + h * np.arange(_PANELS + 1)
        raw = _bump(nodes)
        mid = _bump(nodes[:-1] + 0.5 * h)
        cumulative = np.concatenate(([0.0], np.cumsum(h / 6.0 * (raw[:-1] + 4.0 * mid + raw[1:]))))
        # normalizing by the last partial sum puts exactly 1.0 at x = 1
        self.c_eta = 1.0 / cumulative[-1]
        value = cumulative / cumulative[-1]
        slope = h * self(nodes)
        rise = np.diff(value)
        self.coef = np.array((
            value[:-1],
            slope[:-1],
            3.0 * rise - 2.0 * slope[:-1] - slope[1:],
            slope[:-1] + slope[1:] - 2.0 * rise,
        )).T
        self.sup_value = self.c_eta * np.exp(-1.0)
        x = 3.0 ** -0.25
        q = x * x - 1.0
        self.sup_abs_derivative = float(self(x) * (2.0 * x) / (q * q))

    def __call__(self, x) -> np.ndarray:
        """Evaluate eta(x), vectorized; exact zeros outside (-1, 1), NaN stays NaN."""
        return self.c_eta * _bump(x)

    def integral_of(self, x) -> np.ndarray:
        """E(x) with exact plateaus: 0 for x <= -1, 1 for x >= 1; NaN stays NaN.

        x is clipped to [-1, 1] (NaN passes), and t = (x + 1) / h picks panel
        k = floor(t), the last panel for t = 32768 (x = 1, or an x just
        below it that rounds up); the panel's cubic is summed at s = t - k.
        `fmin` sends NaN to the last panel with s = NaN, so NaN stays NaN.
        Pieces join with matching value and slope, so a point on a node is
        right in either neighbour.
        """
        t = (np.minimum(np.maximum(x, -1.0), 1.0) + 1.0) * (_PANELS / 2)
        k = np.fmin(t, _PANELS - 1).astype(np.intp)
        s = t - k
        c0, c1, c2, c3 = (row[k] for row in self.coef.T)
        return ((c3 * s + c2) * s + c1) * s + c0

    def __repr__(self) -> str:
        return f"MollifierKernel(c_eta={self.c_eta:.12g})"


@cache
def default_kernel() -> MollifierKernel:
    """Shared kernel instance; the table is built once."""
    return MollifierKernel()


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

    def evaluate(self, x) -> np.ndarray:
        """chi(x) = 1 - E((x - eps) / delta), vectorized. Plateau values are
        exact 1.0 / 0.0, from the table's end panels; NaN stays NaN."""
        return 1.0 - self.kernel.integral_of((np.asarray(x, dtype=float) - self.eps) / self.delta)

    def derivative(self, x) -> np.ndarray:
        """chi'(x) = -eta((x - eps)/delta) / delta, through the kernel's one
        clipped path; NaN stays NaN. Every zero is +0.0: the slope is
        subtracted from 0.0, not negated, since off the ramp (and where the
        bump underflows just inside it) eta is +0.0."""
        return 0.0 - self.kernel((np.asarray(x, dtype=float) - self.eps) / self.delta) / self.delta

    @property
    def slope_bound(self) -> float:
        """Exact sup |chi'| = eta(0) / delta (the ramp midpoint slope)."""
        return self.kernel.sup_value / self.delta


def build_mollified_heaviside(eps: float, kernel: MollifierKernel | None = None) -> TransitionFunction:
    """Transition function from mollifying the step 1_{x <= eps}.

    Uses ramp half-width delta = eps / 2, the value produced by convolving
    the step with the bump rescaled to support [-eps/2, eps/2].
    """
    if kernel is None:
        kernel = default_kernel()
    return TransitionFunction(eps=float(eps), delta=float(eps) / 2.0, kernel=kernel)


def derivative_bound(chi: TransitionFunction) -> float:
    """Measured sup |chi'| over 20001 evenly spaced points across the ramp.

    For the mollified heaviside (delta = eps/2) the result lies between
    1/eps and 4 * sup|eta'| / eps; the point count is odd, so the grid
    contains the exact maximizer x = eps (the ramp midpoint) and the
    measurement is tight to rounding.
    """
    grid = np.linspace(chi.eps - chi.delta, chi.eps + chi.delta, 20_001)
    return float(np.max(np.abs(chi.derivative(grid))))
