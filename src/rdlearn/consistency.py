"""Wrapping Lipschitz reaction terms into physically consistent ones.

The wrapped term replaces each component f_n by

    fbar_n(u) = (P_+(f_n(u)) - f_n(u)) * chi(u_n) + f_n(u)
              = f_n(u) - P_-(f_n(u)) * chi(u_n),

where P_+ / P_- are the positive/negative parts (f = P_+ f + P_- f) and
chi is a smooth cutoff equal to 1 on [0, eps - delta] and 0 above
eps + delta. On the face u_n = 0 the cutoff is exactly 1, so
fbar_n = P_+(f_n) there: quasipositivity holds by construction, with no
tolerance. Away from the cutoff support fbar_n = f_n bit-exactly.

The construction keeps the other consistency conditions with explicit
constants (mass weights c_n given to `consistency_constants`, default all
ones, L a Lipschitz bound of the base term, beta_n = |f_n(0)|):

    mass control   K_0 = sum_n c_n P_+(f_n(0)),  K_1 = L sqrt(N) sum_n c_n,
    growth         K   = 4 max(L, max_n |f_n(0)|),
    local Lipschitz on a ball of radius M:
                   L_M = (L M + max_n beta_n) sup|chi'| + 2 L.

The almost-everywhere gradient of the wrapped term is

    grad fbar_n = -1_{f_n(u) < 0} chi(u_n) grad f_n
                  - P_-(f_n(u)) chi'(u_n) e_n^T + grad f_n,

with the convention that the indicator is false at the kink f_n(u) = 0.

Level-indexed schedules eps_m = m^{-gamma} keep approximation rates: if
the target is strictly quasipositive with rate alpha (sup of |P_- f_n|
over the layer {|u_n| <= eps} decays like eps^alpha) and the raw
approximants converge like m^{-beta}, the wrapped approximants converge
like m^{-min(alpha*gamma, beta)}; gamma = beta/alpha recovers the full
rate beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from rdlearn._sampling import as_batch, as_box, as_weights, ball_radius, fitted_rate, sup_sample
from rdlearn.reaction import ConsistencyConstants, MLPReaction, ReactionTerm, mass_growth_constants
from rdlearn.transition import TransitionFunction, build_mollified_heaviside


def lift(f, chi_u):
    """The wrapped value f - P_-(f) chi: the negative part of f ramped off."""
    return f - np.minimum(f, 0.0) * chi_u


def lift_partials(f, cut: Cutoffs):
    """The partials of `lift` at a batch: (d/df, d/du_n through chi).

    d/df = 1 - 1_{f<0} chi(u_n), with the indicator false at the kink
    f = 0, and d/du_n = -P_-(f) chi'(u_n).
    """
    return (1.0 - (f < 0.0) * cut.values,
            -(np.minimum(f, 0.0) * cut.derivatives))


class Cutoffs:
    """chi(u_n) for every entry of a batch (S, N), and chi'(u_n) on first use.

    Hold one for a point set that does not change, and its cutoff is
    evaluated once. Given the base term's values f, the cutoff is
    evaluated only for a batch the lift reads: one with an entry f_n < 0,
    or a NaN u_n. Otherwise its values and derivatives are exact zeros,
    which `lift` and `lift_partials` multiply by P_-(f) = 0 or by the
    indicator f < 0, so the result keeps its bits. A batch that is read is
    read whole, in one call: gathering its negative entries and scattering
    their cutoffs back costs more than the cutoff on the other entries.
    """

    def __init__(self, chi: TransitionFunction, u: np.ndarray, f: np.ndarray | None = None):
        self.chi, self.u = chi, u
        self.read = f is None or bool((f < 0.0).any()) or bool(np.isnan(u).any())
        self.values = chi.evaluate(u) if self.read else np.zeros_like(u)
        self._derivatives = None

    @property
    def derivatives(self) -> np.ndarray:
        if self._derivatives is None:
            self._derivatives = self.chi.derivative(self.u) if self.read else np.zeros_like(self.u)
        return self._derivatives


@dataclass(frozen=True)
class WrappedTape:
    """The forward pass of a wrapped network over a batch (S, N).

    `value` is the wrapped term and `f` the base network's output, both
    (S, N); `acts` is the network's points-last tape (the input of every
    layer, each (width, S)), and `cut` the batch's cutoffs, which the
    reverse pass (`ConsistentReaction.value_vjp`) replays.
    """

    cut: Cutoffs
    f: np.ndarray
    acts: list
    value: np.ndarray


class ConsistentReaction(ReactionTerm):
    """A reaction term wrapped for physical consistency.

    Use `wrap` to construct. `chi` is one TransitionFunction, the cutoff
    of every component.
    """

    def __init__(self, base: ReactionTerm, chi: TransitionFunction, lipschitz=None):
        if not isinstance(chi, TransitionFunction):
            raise TypeError(f"chi must be one TransitionFunction, got {type(chi).__name__}")
        self.base = base
        self.n_species = base.n_species
        self.chi = chi
        self._given_lip = None if lipschitz is None else (float(lipschitz), "sampled")

    @cached_property
    def _lip(self) -> tuple:
        """(L, label): the bound given at construction, else the base's own
        certificate, computed on first read."""
        if self._given_lip is not None:
            return self._given_lip
        cert = self.base.lipschitz_bound()
        return cert, "certified" if cert is not None else "unavailable"

    # -- evaluation ----------------------------------------------------

    def eval(self, u):
        """fbar(u) = f - P_-(f) chi(u_n). The base term runs first, so a
        batch with no f_n < 0 (and no NaN u_n) evaluates no cutoff."""
        ub, single = as_batch(u, self.n_species)
        f = self.base.eval(ub)
        out = lift(f, Cutoffs(self.chi, ub, f).values)
        return out[0] if single else out

    def jacobian(self, u, cut: Cutoffs | None = None):
        """Almost-everywhere gradient of the wrapped term.

        Row n is (1 - 1_{f_n<0} chi(u_n)) * grad f_n, with the extra
        rank-one piece -P_-(f_n) chi'(u_n) on the diagonal. `cut` may
        carry the batch's cutoffs when they are already known; otherwise
        they are read only if some f_n < 0.
        """
        ub, single = as_batch(u, self.n_species)
        f, J = self.base.value_and_jacobian(ub)
        scale, d_u = lift_partials(f, Cutoffs(self.chi, ub, f) if cut is None else cut)
        out = scale[:, :, None] * J
        diag = np.arange(self.n_species)
        out[:, diag, diag] += d_u
        return out[0] if single else out

    # -- reverse-mode helpers for parameterized bases -------------------

    def forward(self, u, cut: Cutoffs | None = None) -> WrappedTape:
        """The wrapped value of a batch (S, N) with the tape of its pass.

        `cut` may carry the batch's cutoffs when they are already known;
        otherwise they are read only if some f_n < 0. chi' is evaluated
        only if the tape is replayed.
        """
        self._require_param()
        ub, _ = as_batch(u, self.n_species)
        f, acts = self.base.forward(ub)
        cut = Cutoffs(self.chi, ub, f) if cut is None else cut
        return WrappedTape(cut, f, acts, lift(f, cut.values))

    def value_vjp(self, cotangent, tape: WrappedTape):
        """(theta_grad, u_grad) of <cotangent, fbar(u)> for an MLP base.

        `tape` is the result of `forward` on a batch u (S, N), which this
        pass replays; the cotangent and u_grad are (S, N) too.
        """
        scale, d_u = lift_partials(tape.f, tape.cut)
        theta_grad, u_grad = self.base.vjp(cotangent * scale, (tape.f, tape.acts))
        return theta_grad, u_grad + cotangent * d_u

    def jac_vjp(self, u, cot_jac):
        """theta-gradient of <cot_jac, grad fbar(u)> on a batch u (S, N),
        with cot_jac (S, N, N).

        The base network's value and Jacobian pass runs once: its f sets
        the lift's partials, and its tape is what `MLPReaction.jac_vjp`
        replays.
        """
        self._require_param()
        state = self.base._value_jac_state(u)
        f = state[0]
        cut = Cutoffs(self.chi, u, f)
        scale, _ = lift_partials(f, cut)
        base_cot_jac = scale[:, :, None] * cot_jac
        diag = np.arange(self.n_species)
        base_cot_val = -((f < 0.0) * cut.derivatives * cot_jac[:, diag, diag])
        return self.base.jac_vjp(base_cot_jac, base_cot_val, state)

    def _require_param(self):
        if not isinstance(self.base, MLPReaction):
            raise TypeError("reverse-mode helpers need a parameterized base")

    # -- derived constants ----------------------------------------------

    def consistency_constants(self, c=None) -> ConsistencyConstants:
        """Mass-control and growth constants for the weights c, all ones by default."""
        c = as_weights(c, self.n_species)
        L, label = self._lip
        return mass_growth_constants(self.base.eval(np.zeros(self.n_species)), L, label, c)

    def lipschitz_bound(self, lo=None, hi=None):
        """Certified bound on the box [lo, hi], from the origin ball of radius
        M that holds it: (L M + max_n |f_n(0)|) sup|chi'| + 2 L. None without
        a box or without a bound L of the base term."""
        L = self._lip[0]
        if lo is None or hi is None or L is None:
            return None
        M = ball_radius(*as_box(lo, hi, self.n_species))
        beta_max = float(np.max(np.abs(self.base.eval(np.zeros(self.n_species)))))
        return (L * M + beta_max) * self.chi.slope_bound + 2.0 * L

    def __repr__(self):
        return f"ConsistentReaction(base={self.base!r}, chi={self.chi!r})"


def wrap(f: ReactionTerm, chi, lipschitz=None) -> ConsistentReaction:
    """Wrap a Lipschitz reaction term into a physically consistent one.

    Parameters
    ----------
    f : ReactionTerm
        Base term; must be (globally) Lipschitz for the derived constants
        to mean anything. A certified bound is taken from the term when it
        has one (parameterized family); otherwise pass `lipschitz` or the
        constants are flagged unavailable.
    chi : TransitionFunction
        The cutoff of every component; any other type raises TypeError.
    lipschitz : float, optional
        Externally supplied Lipschitz bound (labelled "sampled").
    """
    return ConsistentReaction(f, chi, lipschitz=lipschitz)


@dataclass(frozen=True)
class WrapperSchedule:
    """Level-indexed cutoff schedule eps_m = m^(-gamma).

    alpha > 1 is the strict-quasipositivity rate of the target, beta > 0
    the raw approximation rate, gamma in (0, beta] the cutoff exponent.
    The preserved rate is min(alpha*gamma, beta); gamma = beta/alpha
    recovers beta. The general admissibility condition (cutoff slope times
    approximation error vanishing) is strictly wider, but only this
    power-law instantiation is shipped.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.gamma <= self.beta:
            raise ValueError(
                f"gamma must lie in (0, beta] = (0, {self.beta}], got {self.gamma}"
            )

    def eps(self, m: int) -> float:
        if m < 1:
            raise ValueError(f"level index must be >= 1, got {m}")
        return float(m) ** (-self.gamma)

    @property
    def preserved_rate(self) -> float:
        return min(self.alpha * self.gamma, self.beta)


@dataclass
class RateStudy:
    """Per-level sup errors of raw and wrapped approximants; the rate they
    should keep is the schedule's `preserved_rate`."""

    levels: np.ndarray
    eps: np.ndarray
    sup_raw: np.ndarray
    sup_wrapped: np.ndarray
    fitted_slope: float

    def rows(self):
        for i in range(self.levels.size):
            yield (int(self.levels[i]), float(self.eps[i]),
                   float(self.sup_raw[i]), float(self.sup_wrapped[i]),
                   self.fitted_slope)


def _sup_error(a: ReactionTerm, b: ReactionTerm, points) -> float:
    return float(np.max(np.abs(a.eval(points) - b.eval(points))))


def rate_preservation_study(f_target: ReactionTerm, approx_family,
                            sched: WrapperSchedule, lo, hi, levels,
                            seed: int = 0) -> RateStudy:
    """Sup errors of raw vs wrapped approximants across levels.

    approx_family maps a level index m to a ReactionTerm with raw rate
    beta. The fitted least-squares slope of log sup_wrapped against log m
    should not fall short of -min(alpha*gamma, beta) by more than the
    sampling slack.
    """
    levels = [int(m) for m in levels]
    if len(levels) < 3:
        raise ValueError(f"need at least 3 levels for a rate fit, got {len(levels)}")
    lo, hi = as_box(lo, hi, f_target.n_species)
    points = sup_sample(lo, hi, seed=seed)
    eps = np.array([sched.eps(m) for m in levels])
    raw = np.empty(len(levels))
    wrapped = np.empty(len(levels))
    for i, m in enumerate(levels):
        fm = approx_family(m)
        raw[i] = _sup_error(f_target, fm, points)
        wrapped[i] = _sup_error(f_target, wrap(fm, build_mollified_heaviside(eps[i])), points)
    slope = fitted_rate(levels, wrapped)
    if slope is None:
        raise ValueError("wrapped sup errors below floor at all levels; nothing to fit")
    return RateStudy(np.array(levels), eps, raw, wrapped, slope)


def strict_rate_estimate(f: ReactionTerm, lo, hi, component: int,
                         eps_list, seed: int = 0) -> float:
    """Fitted strict-quasipositivity rate alpha of one component.

    For each eps, samples the layer {u in box : |u_n| <= eps} densely and
    records sup |P_-(f_n)|; returns the least-squares slope of log sup
    against log eps, ignoring levels whose sup is below 1e-14. If every
    level is below the floor the component is nonnegative near its face
    and the rate is +inf.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ValueError(f"need at least 3 eps levels, got {len(eps_list)}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    lo, hi = as_box(lo, hi, f.n_species)
    n = int(component)
    if not 0 <= n < f.n_species:
        raise ValueError(f"component {n} out of range for N={f.n_species}")
    sups = []
    for eps in eps_list:
        clo, chi_ = lo.copy(), hi.copy()
        clo[n] = max(lo[n], -eps)
        chi_[n] = min(hi[n], eps)
        if not clo[n] < chi_[n]:
            sups.append(0.0)
            continue
        pts = sup_sample(clo, chi_, seed=seed)
        sups.append(float(np.max(-np.minimum(f.eval(pts)[:, n], 0.0))))
    rate = fitted_rate(eps_list, sups)
    return math.inf if rate is None else rate
