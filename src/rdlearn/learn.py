"""Learning reaction terms from indirect, noisy trajectory measurements.

The problem is all-at-once: diffusion coefficients, the full space-time
state, the initial condition, and the network parameters are decision
variables simultaneously, with the PDE entering as a penalized residual.
All trajectories form one batch: the network sees the points of every
trajectory in one pass, and the Laplacian, the measurement operator and
the reverse pass act on the whole (trajectories, species, time, nodes)
block at once.
The residual is the simulator's IMEX step, and it imports the simulator's
mirror-ghost Laplacian (`rdsolve.mirror_laplacian` and its transpose)
rather than keeping a copy, so a simulated trajectory inserted as the
state has residual zero up to rounding. Regularization weights
follow per-level schedules whose products vanish along the level list;
measurement data lives behind linear operators with explicit adjoints.

Gradients are assembled by hand from the reverse-mode passes of the
wrapped network (value and Jacobian cotangents) plus the adjoints of the
linear pieces. Nonsmooth spots use fixed one-sided conventions: the
negative-part kink contributes nothing at zero, the parameter norm has
gradient zero at the origin, and the sampled sup picks the lowest argmax
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rdlearn._sampling import as_box, as_tuple, box_quadrature, halton_box, split, trapezoid_weights
from rdlearn.consistency import ConsistentReaction, Cutoffs, WrapperSchedule, wrap
from rdlearn.rdsolve import (D_MIN, DiffusionSpec, SpaceTimeGrid, StateField, mirror_laplacian,
                              mirror_laplacian_transpose, solve)
from rdlearn.reaction import MLPReaction
from rdlearn.transition import build_mollified_heaviside


# the defaults of a level sweep, which `rdlearn learn` reads too: the
# reaction box [lo, hi] of every species, the optimizer's step and
# iteration cap, and the number of sampled sup points
BOX = (0.0, 1.2)
STEP = 0.05
MAX_ITERS = 8000
SUP_POINTS = 1024


_BLOCK = 4096


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two flat arrays, summed in a fixed order: one np.dot per
    block of _BLOCK consecutive entries, the partials added in block order.

    It rests on one premise: OpenBLAS runs a dot product of _BLOCK entries
    on one thread, so each partial, and so the sum, has the same bits under
    every thread count. One np.dot over 10001 or more entries is split
    across threads, and its rounding follows the split.
    """
    total = 0.0
    for i in range(0, a.size, _BLOCK):
        total += float(np.dot(a[i:i + _BLOCK], b[i:i + _BLOCK]))
    return total


# ---------------------------------------------------------------------------
# measurement operators


def _cosine_basis(grid: SpaceTimeGrid, modes: int) -> np.ndarray:
    x = grid.axis(0)
    j = np.arange(modes)
    return np.cos(np.outer(x, j) * np.pi / grid.extents[0])


@dataclass(frozen=True)
class MeasurementOperator:
    """Linear observation map on trajectories.

    kind "subsample" keeps every stride-th node and time step; at the
    default stride 1 it returns the grid state unchanged. "fourier"
    projects each time sample onto the first `modes` cosine modes
    (weighted inner products, so the map stays linear and its adjoint is
    explicit). Every method acts on the last two axes (time,
    nodes) and maps any leading axes through, so one call measures a
    whole (trajectories, species, ...) block.
    """

    kind: str = "subsample"
    stride: int = 1
    modes: int | None = None

    def __post_init__(self):
        if self.kind not in ("subsample", "fourier"):
            raise ValueError(f"kind must be 'subsample' or 'fourier', got {self.kind!r}")
        if self.kind == "subsample":
            if as_tuple(self.stride, int, "stride")[0] < 1:
                raise ValueError(f"stride must be a positive integer, got {self.stride}")
            object.__setattr__(self, "stride", int(self.stride))
        elif self.stride != 1:
            raise ValueError(f"stride applies to subsample operators only")
        if self.kind == "fourier":
            if self.modes is None or as_tuple(self.modes, int, "modes")[0] < 1:
                raise ValueError("fourier operators need modes >= 1")
            object.__setattr__(self, "modes", int(self.modes))
        elif self.modes is not None:
            raise ValueError("modes apply to fourier operators only")

    def check_grid(self, grid: SpaceTimeGrid) -> None:
        """Raises ValueError unless the grid resolves every measured mode:
        above its node count, cosine modes alias on the nodes and the
        measurement is no longer injective on them."""
        if self.kind == "fourier" and self.modes > grid.nodes[0]:
            raise ValueError(f"modes = {self.modes} exceeds the grid's {grid.nodes[0]} nodes, "
                             f"on which higher cosine modes alias")

    def apply(self, u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
        """Measure states of shape (..., steps+1, nodes)."""
        if self.kind == "fourier":
            phi = _cosine_basis(grid, self.modes)
            return (u * grid.quadrature_weights()) @ phi
        return np.array(u[..., :: self.stride, :: self.stride])

    def adjoint(self, y: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
        """Transpose of apply, back onto the full grid."""
        if self.kind == "fourier":
            phi = _cosine_basis(grid, self.modes)
            return (y @ phi.T) * grid.quadrature_weights()
        out = np.zeros(y.shape[:-2] + (grid.steps + 1, grid.nodes[0]))
        out[..., :: self.stride, :: self.stride] = y
        return out

    def reconstruct(self, y: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
        """Cheap full-grid guess from data, for optimizer warm starts."""
        if self.kind == "fourier":
            phi = _cosine_basis(grid, self.modes)
            gram = phi.T @ (grid.quadrature_weights()[:, None] * phi)
            coeff = np.linalg.solve(gram, y.reshape(-1, self.modes).T)
            return (phi @ coeff).T.reshape(y.shape[:-1] + (grid.nodes[0],))
        # piecewise linear in x along each kept time row, then in t; at
        # stride 1 np.interp returns its node values bit for bit
        s = self.stride
        K, M = grid.steps, grid.nodes[0]
        in_x = np.apply_along_axis(
            lambda row: np.interp(np.arange(M), np.arange(0, M, s), row), -1, y)
        return np.apply_along_axis(
            lambda col: np.interp(np.arange(K + 1), np.arange(0, K + 1, s), col),
            -2, in_x)


def generate_measurements(truth: StateField, operator: MeasurementOperator,
                          delta: float, seed: int = 0) -> np.ndarray:
    """Measure a trajectory and add Gaussian noise of norm exactly 0.9 delta.

    The rescaling keeps the noise strictly inside the radius the theory
    budgets for, never on it; delta = 0 returns the clean measurement.
    """
    if delta < 0:
        raise ValueError(f"noise radius must be nonnegative, got {delta}")
    clean = operator.apply(truth.values, truth.grid)
    if delta == 0.0:
        return clean
    noise = np.random.default_rng(seed).standard_normal(clean.shape)
    noise *= 0.9 * delta / np.linalg.norm(noise)
    return clean + noise


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class LevelSchedule:
    """Regularization weights, noise radius and cutoff width for one level m.

    The objective reads these values only: the state norm, the residual
    and the data misfit all enter squared (exponents p = q = r = 2).
    """

    m: int
    eps: float
    lam: float
    mu: float
    nu: float
    delta: float
    psi: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"level must be >= 1, got {self.m}")
        for name in ("eps", "lam", "mu", "psi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.nu < 0 or self.delta < 0:
            raise ValueError("nu and delta must be nonnegative")


def check_levels(levels) -> list[int]:
    """The level indices as ints, checked: strictly increasing from 1 up."""
    levels = [int(m) for m in levels]
    if len(levels) < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if levels[0] < 1:
        raise ValueError("levels start at 1")
    return levels


def make_schedule(alpha: float, beta: float, gamma: float, levels=(1, 2, 3),
                  lam0: float = 1.0, mu0: float = 1.0,
                  nu0: float = 1.0) -> list[LevelSchedule]:
    """One admissible weight schedule per level.

    The cutoff width eps_m and the preserved rate come from
    `WrapperSchedule`. The noise radius is delta_m = 2^-m, lam grows like
    m to the preserved rate, mu like the inverse noise radius, and the
    parameter bound is psi = m^2, so nu decays like 1/(psi m). The
    vanishing-product requirements are checked numerically: each product
    must strictly decrease along the levels and end below half its
    initial value. The prefactors lam0/mu0/nu0 tune constants the theory
    leaves free.
    """
    if not 0 < gamma < beta:
        raise ValueError(
            f"gamma must satisfy 0 < gamma < beta, got gamma={gamma}, beta={beta}"
        )
    wrapper = WrapperSchedule(alpha, beta, gamma)
    levels = check_levels(levels)
    rate = wrapper.preserved_rate
    out = []
    for m in levels:
        delta = 2.0 ** -m
        psi = float(m * m)
        out.append(LevelSchedule(
            m=m, eps=wrapper.eps(m),
            lam=lam0 * float(m) ** rate,
            mu=mu0 / delta,
            nu=nu0 * (1.0 / (psi * m)),
            delta=delta, psi=psi,
        ))
    if len(out) > 1:
        products = {
            "lam * m^(-2 rate)": [s.lam * s.m ** (-rate * 2.0) for s in out],
            "mu * delta^2": [s.mu * s.delta ** 2 for s in out],
            "nu * psi": [s.nu * s.psi for s in out],
        }
        for name, vals in products.items():
            if any(b >= a for a, b in zip(vals, vals[1:])) or not vals[-1] < 0.5 * vals[0]:
                raise ValueError(f"schedule product {name} does not vanish: {vals}")
        if any(b.lam <= a.lam or b.mu <= a.mu or b.nu >= a.nu
               for a, b in zip(out, out[1:])):
            raise ValueError("weights must have lam, mu increasing and nu decreasing")
    return out


# ---------------------------------------------------------------------------
# the problem


class AllAtOnceProblem:
    """Objective and gradient of the discretized joint recovery problem.

    Decision variables, packed flat in this order: diffusion coefficients
    D (trajectories x species), states u (trajectories x species x time x
    nodes), initial conditions u0, network parameters theta. The feasible
    set is D >= D_MIN = 1e-6 and |theta| <= psi: `project` maps onto it,
    and `hold` fixes what a descent step would push out of it. Everything
    else (data, operator, schedule, quadrature rules on the box) is fixed.
    All trajectories form one batch: each pass evaluates the network once
    over the points of every trajectory, and the trajectory terms are sums
    over the leading trajectory axis.
    """

    def __init__(self, grid: SpaceTimeGrid, widths, chi, schedule: LevelSchedule,
                 operator: MeasurementOperator, data, *,
                 box_lo=BOX[0], box_hi=BOX[1], l2_nodes: int = 129,
                 sup_points: int = SUP_POINTS):
        if grid.ndim != 1:
            raise ValueError("learning problems are posed on 1D grids")
        self.grid = grid
        self.widths = tuple(int(w) for w in widths)
        self.n_species = self.widths[0]
        self.chi = chi
        self.schedule = schedule
        operator.check_grid(grid)
        self.operator = operator

        data = np.asarray(data, dtype=float)
        single = operator.apply(
            np.zeros((self.n_species, grid.steps + 1, grid.nodes[0])), grid
        ).shape
        if data.shape == single:
            data = data[None]
        if data.shape[1:] != single:
            raise ValueError(
                f"data shape {data.shape} does not end with one measurement {single}"
            )
        self.data = data
        self.n_traj = data.shape[0]

        self.box_lo, self.box_hi = as_box(box_lo, box_hi, self.n_species)
        self._l2_pts, self._l2_w = box_quadrature(
            self.box_lo, self.box_hi, nodes_per_dim=l2_nodes
        )
        self._sup_pts = halton_box(int(sup_points), self.box_lo, self.box_hi)

        # the quadrature and sup points never move: their cutoffs are
        # evaluated once
        self._l2_cut = Cutoffs(chi, self._l2_pts)
        self._sup_cut = Cutoffs(chi, self._sup_pts)
        self._w = grid.quadrature_weights()
        self._tw = trapezoid_weights(grid.steps + 1, grid.dt)
        self._last = None  # (x, terms, reverse) of the last point evaluated
        K, M = grid.steps, grid.nodes[0]
        L, N = self.n_traj, self.n_species
        self._shapes = ((L, N), (L, N, K + 1, M), (L, N, M),
                        (MLPReaction.parameter_count(self.widths),))

    # ------------------------------------------------------------- packing

    @property
    def n_variables(self) -> int:
        return sum(math.prod(s) for s in self._shapes)

    def pack(self, D, u, u0, theta) -> np.ndarray:
        x = np.empty(self.n_variables)
        for block, a in zip(split(x, self._shapes), (D, u, u0, theta)):
            if np.size(a) != block.size:
                raise ValueError(f"variable block of size {np.size(a)}, expected {block.size}")
            block[...] = np.reshape(a, block.shape)
        return x

    def unpack(self, x: np.ndarray):
        """(D, u, u0, theta): views of the packed x, which write through to it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_variables,):
            raise ValueError(f"expected {self.n_variables} packed variables, got {x.shape}")
        return tuple(split(x, self._shapes))

    def project(self, x: np.ndarray) -> np.ndarray:
        """The packed point projected onto the feasible set: D onto
        [D_MIN, inf), then theta radially onto the psi ball. A float array
        is projected in place and returned."""
        x = np.asarray(x, dtype=float)
        D, _, _, theta = self.unpack(x)
        np.maximum(D, D_MIN, out=D)
        tn = np.linalg.norm(theta)
        if tn > self.schedule.psi:
            theta *= self.schedule.psi / tn
        return x

    def hold(self, x: np.ndarray, g: np.ndarray):
        """The map P that holds fixed, in place on a packed vector, what a
        descent step from x along minus its gradient g would push out of
        the feasible set (Bertsekas' projected Newton method, SIAM J.
        Control Optim. 1982): it zeroes each D at its floor with a positive
        gradient, and the radial part of theta when theta is on the psi
        sphere (|theta|^2 within a relative 1e-12 of psi^2) and -g points
        outward. P is an orthogonal projection, so -P H P g is a descent
        direction for every positive definite H unless P g = 0."""
        D, _, _, theta = self.unpack(x)
        gD, _, _, gth = self.unpack(g)
        frozen = (D <= D_MIN) & (gD > 0.0)
        tt = _dot(theta, theta)
        radial = tt >= self.schedule.psi ** 2 * (1.0 - 1e-12) and _dot(gth, theta) < 0.0

        def free(v):
            vD, _, _, vth = self.unpack(v)
            vD[frozen] = 0.0
            if radial:
                vth -= (_dot(vth, theta) / tt) * theta
            return v

        return free

    def reaction(self, theta) -> ConsistentReaction:
        return wrap(MLPReaction(self.widths, theta), self.chi)

    def initial_iterate(self, seed: int = 0) -> np.ndarray:
        """Data-driven state, floor diffusion and a small random theta, unprojected."""
        u = self.operator.reconstruct(self.data, self.grid)
        theta = 0.05 * np.random.default_rng(seed).standard_normal(self._shapes[3])
        return self.pack(np.full(self._shapes[0], D_MIN), u, u[:, :, 0], theta)

    # ----------------------------------------------------------- objective

    def objective(self, x) -> float:
        return float(sum(self.objective_terms(x).values()))

    def objective_terms(self, x) -> dict:
        return dict(self._forward(x)[0])

    def gradient(self, x) -> np.ndarray:
        return self._forward(x)[1]()

    def _forward(self, x):
        """Objective terms at x and the reverse pass that returns the packed
        gradient there.

        `reverse` closes over this pass's locals and writes into none of
        them, so calling it again gives the same bytes. The terms and
        reverse pass of the last point are kept with a copy of it, so the
        gradient (or the terms) at the point a line search has just
        accepted costs no second forward pass. `reverse` holds no reference
        to the problem, so the kept copy makes no reference cycle and a
        dropped problem is freed at once.
        """
        x = np.asarray(x, dtype=float)
        if (self._last is not None and self._last[0].shape == x.shape
                and self._last[0].tobytes() == x.tobytes()):
            return self._last[1], self._last[2]
        x = x.copy()
        D, u, u0, theta = self.unpack(x)
        sched = self.schedule
        grid = self.grid
        dt, h = grid.dt, grid.h[0]
        K, M = grid.steps, grid.nodes[0]
        L, N = self.n_traj, self.n_species
        w, tw = self._w, self._tw
        l2_pts, l2_w, sup_pts = self._l2_pts, self._l2_w, self._sup_pts
        operator = self.operator
        shapes = self._shapes
        fbar = self.reaction(theta)
        terms = {}

        # base regularization R0 = |D|^2 + |u|_V^2 + |u0|_H^2
        terms["diffusion_reg"] = float(np.sum(D * D))
        diff = np.diff(u, axis=-1)
        terms["state_reg"] = float(np.einsum("k,lnkm,m->", tw, u * u, w)
                                   + np.einsum("k,lnkm->", tw, diff * diff) / h)
        terms["initial_reg"] = float(np.einsum("lnm,m->", u0 * u0, w))

        # nu |theta|
        tn = float(np.linalg.norm(theta))
        terms["theta_reg"] = sched.nu * tn

        # |fbar|^2 on the reaction box, fixed trapezoid rule
        l2 = fbar.forward(l2_pts, self._l2_cut)
        terms["reaction_l2"] = float(np.sum(l2_w * np.sum(l2.value ** 2, axis=1)))

        # sampled sup of |grad fbar| on the box (Frobenius, lowest argmax)
        J = fbar.jacobian(sup_pts, self._sup_cut)
        norms = np.sqrt(np.sum(J * J, axis=(1, 2)))
        idx = int(np.argmax(norms))
        terms["reaction_grad_sup"] = float(norms[idx])
        sup_cot = J[idx] / norms[idx] if norms[idx] > 0.0 else None

        # trajectory terms: the points (l, k, m) of every trajectory form one
        # network batch, and each squared norm is summed per trajectory first
        pts = np.moveaxis(u[:, :, :-1], 1, -1).reshape(-1, N)
        traj = fbar.forward(pts)
        fvals = np.moveaxis(traj.value.reshape(L, K, M, N), -1, 1)
        lap_next = mirror_laplacian(u[:, :, 1:], h)
        res = (u[:, :, 1:] - u[:, :, :-1]) / dt - D[:, :, None, None] * lap_next - fvals
        terms["residual"] = sched.lam * float(np.sum(dt * np.einsum("lnkm,m->l", res * res, w)))

        d0 = u[:, :, 0] - u0
        terms["init_misfit"] = sched.lam * float(np.einsum("lnm,m->", d0 * d0, w))

        dmis = operator.apply(u, grid) - self.data
        terms["data_misfit"] = sched.mu * float(np.sum(np.einsum("lnkm->l", dmis * dmis)))

        for name, value in terms.items():
            if not math.isfinite(value):
                raise FloatingPointError(f"objective term '{name}' is not finite")

        def reverse() -> np.ndarray:
            # each block is a view of one zeroed packed gradient; sums start
            # from +0.0, so an entry whose first term is -0.0 comes out +0.0
            grad = np.zeros(x.size)
            gD, gu, gu0, gth = split(grad, shapes)

            gD += 2.0 * D
            gu += 2.0 * tw[None, None, :, None] * u * w
            dadj = np.zeros_like(u)
            dadj[..., :-1] -= diff
            dadj[..., 1:] += diff
            gu += 2.0 * tw[None, None, :, None] * dadj / h
            gu0 += 2.0 * u0 * w
            if tn > 0.0:
                gth += sched.nu * theta / tn
            tg, _ = fbar.value_vjp(2.0 * l2_w[:, None] * l2.value, l2)
            gth += tg
            if sup_cot is not None:
                gth += fbar.jac_vjp(sup_pts[idx][None], sup_cot[None])

            G = sched.lam * 2.0 * dt * res * w
            gu[:, :, 1:] += G / dt - D[:, :, None, None] * mirror_laplacian_transpose(G, h)
            gu[:, :, :-1] -= G / dt
            tg, ug = fbar.value_vjp(-np.moveaxis(G, 1, -1).reshape(-1, N), traj)
            gth += tg
            gu[:, :, :-1] += np.moveaxis(ug.reshape(L, K, M, N), -1, 1)
            gD -= np.einsum("lnkm,lnkm->ln", G, lap_next)

            gu[:, :, 0] += 2.0 * sched.lam * d0 * w
            gu0 -= 2.0 * sched.lam * d0 * w

            gy = sched.mu * 2.0 * dmis
            gu += operator.adjoint(gy, grid)

            return grad

        self._last = (x, terms, reverse)
        return terms, reverse


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class LevelResult:
    """Outcome of one level solve.

    state_containment is the fraction of recovered state values inside the
    reaction box; the learned term is only identified where states visit,
    so values well below 1 flag an extrapolating fit. stop_reason is why
    the loop ended: "converged", "iteration cap" or "step underflow".
    """

    D: np.ndarray
    u: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    history: np.ndarray = field(repr=False)
    terms: dict
    stop_reason: str
    state_containment: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @property
    def objective(self) -> float:
        return float(self.history[-1])


def _two_loop(memory, g: np.ndarray) -> np.ndarray:
    """H g for the L-BFGS inverse-Hessian model H of the curvature pairs
    (s, y, 1 / s.y) in memory, oldest first, whose initial metric is the
    scalar s.y / y.y of the newest pair (Nocedal and Wright, §7.2)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * _dot(s, q))
        q -= alphas[-1] * y
    _, y, rho = memory[-1]
    q *= 1.0 / (rho * _dot(y, y))
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * _dot(y, q)) * s
    return q


def solve_level(prob: AllAtOnceProblem, x0=None, *, step: float = STEP,
                max_iters: int = MAX_ITERS, seed: int = 0) -> LevelResult:
    """Minimize one level by projected L-BFGS under a monotone guard.

    The start, x0 or `initial_iterate`, is projected onto the feasible set
    first. Each iteration takes the gradient at the current point, forms
    the curvature pair (x - x_prev, g - g_prev) and keeps the last ten with
    positive s.y. The direction is minus the two-loop product
    (`_two_loop`) with the gradient, or with no pairs the gradient's
    steepest descent scaled to max-norm length `step`, so `step` sets the
    first step and the step after a memory reset. `AllAtOnceProblem.hold`
    removes the coordinates it holds fixed from the gradient and from the
    direction. Each trial point is projected (`AllAtOnceProblem.project`)
    and the step halved, at most 40 times, until the objective rises by no
    more than 1e-12; when no trial passes, a nonempty memory is dropped and
    the iteration retried once.

    Stops "converged" when the objective fell by less than 1e-6 relative
    over the last 50 iterations, "step underflow" when no trial passes
    without a memory, and "iteration cap" at max_iters. An iteration costs
    one reverse pass and one forward pass per trial; its dot products go
    through `_dot`, so the iterates do not depend on the BLAS thread count.
    """
    tol, window, pairs = 1e-6, 50, 10
    x = prob.project(prob.initial_iterate(seed) if x0 is None else np.array(x0, dtype=float))
    obj = prob.objective(x)
    history = [obj]
    memory = []  # (s, y, 1 / s.y), oldest first
    stop_reason = "iteration cap"

    for it in range(1, max_iters + 1):
        g = prob.gradient(x)
        if it > 1:
            s, y = x - x_prev, g - g_prev
            sy = _dot(s, y)
            if sy > 1e-10 * _dot(y, y):
                memory = memory[1 - pairs:] + [(s, y, 1.0 / sy)]
        x_prev, g_prev = x, g

        free = prob.hold(x, g)
        pg = free(g.copy())
        while True:
            if memory:
                d = -free(_two_loop(memory, pg))
            else:
                top = float(np.max(np.abs(pg)))
                d = -pg * (step / top if top > 0.0 else 0.0)
            t = 1.0
            for _ in range(41):  # the trial steps 2^-k d, k = 0 .. 40
                x_new = prob.project(x + t * d)
                obj_new = prob.objective(x_new)
                if obj_new <= obj + 1e-12:
                    break
                t *= 0.5
            else:
                x_new = None
            if x_new is not None or not memory:
                break
            memory = []
        if x_new is None:
            stop_reason = "step underflow"
            break
        x, obj = x_new, obj_new
        history.append(obj)
        if it > window:
            past = history[-window - 1]
            if past - obj < tol * max(1.0, abs(past)):
                stop_reason = "converged"
                break

    D, u, _, theta = prob.unpack(x)
    inside = ((u >= prob.box_lo[None, :, None, None])
              & (u <= prob.box_hi[None, :, None, None]))
    return LevelResult(D=D, u=u, theta=theta, history=np.asarray(history),
                       terms=prob.objective_terms(x), stop_reason=stop_reason,
                       state_containment=float(inside.mean()))


# ---------------------------------------------------------------------------
# the identifiable-toy level sweep


@dataclass
class SweepRow:
    """What a sweep computes at one level beyond its `LevelResult`: sup and D errors."""

    m: int
    sup_error: float
    d_error: float


def identification_sweep(f_true, d_true: float, u0_profiles, grid: SpaceTimeGrid,
                         schedules, operators, widths, *, box_lo=BOX[0],
                         box_hi=BOX[1], seed: int = 0, step: float = STEP,
                         max_iters: int = MAX_ITERS, sup_points: int = SUP_POINTS,
                         lipschitz=None):
    """Recover a known scalar reaction at increasing measurement quality.

    For each level: simulate the truth from every initial profile, measure
    through that level's operator, perturb with noise of radius delta(m),
    solve the all-at-once problem over all trajectories jointly, and score
    the learned wrapped reaction against the true one in sup norm over the
    reaction box. u0_profiles is (L, n, *grid.nodes), one initial state per
    trajectory. Good recovery across the whole box needs the trajectory
    family to cover it; a single profile identifies the reaction only on
    the states it visits. Returns (rows, results).
    """
    if len(schedules) != len(operators):
        raise ValueError("one operator per schedule level")
    n = widths[0]
    u0_profiles = np.asarray(u0_profiles, dtype=float)
    if u0_profiles.shape[1:] != (n,) + grid.nodes or u0_profiles.size == 0:
        raise ValueError(f"u0_profiles has shape {u0_profiles.shape}, expected (L, n, *grid.nodes)"
                         f" = (L, {n}, {', '.join(map(str, grid.nodes))}) with L >= 1")
    D_true = DiffusionSpec.uniform(d_true, n)
    truths = [solve(f_true, D_true, u0, grid, lipschitz=lipschitz)
              for u0 in u0_profiles]

    lo, hi = as_box(box_lo, box_hi, n)
    # the sup error's points: 481 even nodes for one species, else 4096 Halton points per species
    probe = np.linspace(lo[0], hi[0], 481)[:, None] if n == 1 else \
        halton_box(4096 * n, lo, hi, seed=1)
    true_vals = f_true.eval(probe)

    rows, results = [], []
    for sched, op in zip(schedules, operators):
        y = np.stack([
            generate_measurements(t, op, sched.delta, seed=seed + sched.m + 977 * l)
            for l, t in enumerate(truths)
        ])
        prob = AllAtOnceProblem(grid, widths, build_mollified_heaviside(sched.eps), sched, op, y,
                                box_lo=lo, box_hi=hi, sup_points=sup_points)
        res = solve_level(prob, step=step, max_iters=max_iters, seed=seed)
        learned = prob.reaction(res.theta)
        sup_err = float(np.max(np.abs(learned.eval(probe) - true_vals)))
        d_err = float(np.max(np.abs(res.D - d_true)))
        rows.append(SweepRow(sched.m, sup_err, d_err))
        results.append(res)
    return rows, results
