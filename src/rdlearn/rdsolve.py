"""Forward simulation of reaction-diffusion systems on 1D/2D grids.

Time stepping is IMEX: diffusion is treated implicitly (second-order
central differences, dimensional splitting in 2D), the reaction
explicitly. The boundary is zero-flux Neumann, by mirror ghost nodes, and
there is no other. Each species' tridiagonal matrix I - r * Laplacian is
LU-factored once per solve and axis, so a step runs only the two
triangular solves of each factorization. The implicit part removes the
diffusion time-step limit; the explicit part keeps the reaction's
possible kinks out of the linear solves but requires the guard
dt * L <= 1/2 on the reaction's Lipschitz constant.

The mirror-ghost Laplacian L is defined once (`mirror_bands`); the
implicit matrices and the learning residual (`rdlearn.learn`) both use
it, so a simulated trajectory has residual zero. With trapezoid weights
w, w^T L = 0 exactly, so pure diffusion conserves the discrete total
mass of every species to rounding. Negative values are never clipped:
they are a diagnostic for wrapper failures, not a defect to hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from rdlearn._sampling import as_tuple, as_weights, fitted_rate, trapezoid_weights

D_MIN = 1e-6  # the positive floor of every diffusion coefficient


class StabilityError(ValueError):
    """The explicit reaction step would violate dt * L <= 1/2."""

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class BlowUpError(ArithmeticError):
    """The state left the representable range; `step` is the first bad step."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on [0, extent] x ... with a uniform time step.

    extents/nodes may be scalars (1D) or pairs (2D). The reaction guard is
    checked against a Lipschitz bound at solve time: the explicit step is
    a contraction-friendly Euler step only while dt * L <= 1/2.
    """

    extents: tuple
    nodes: tuple
    horizon: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "extents", as_tuple(self.extents, float, "extents"))
        object.__setattr__(self, "nodes", as_tuple(self.nodes, int, "nodes"))
        if len(self.extents) != len(self.nodes):
            raise ValueError("extents and nodes must agree per axis")
        if not 1 <= len(self.nodes) <= 2:
            raise ValueError(f"only 1D and 2D grids are supported, got {len(self.nodes)} axes")
        if not all(0 < e < np.inf for e in self.extents):  # NaN fails too
            raise ValueError(f"extents must be positive and finite, got {self.extents}")
        if any(m < 3 for m in self.nodes):
            raise ValueError(f"need at least 3 nodes per axis, got {self.nodes}")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"time horizon must be positive and finite, got {self.horizon}")
        if as_tuple(self.steps, int, "steps")[0] < 1:
            raise ValueError(f"need at least one time step, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def ndim(self) -> int:
        return len(self.nodes)

    @property
    def h(self) -> tuple:
        return tuple(e / (m - 1) for e, m in zip(self.extents, self.nodes))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def axis(self, k: int) -> np.ndarray:
        return np.linspace(0.0, self.extents[k], self.nodes[k])

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def refined(self, space: int = 2, time: int = 2) -> "SpaceTimeGrid":
        """Same domain with each spacing divided by `space` and dt by `time`."""
        nodes = tuple(space * (m - 1) + 1 for m in self.nodes)
        return SpaceTimeGrid(self.extents, nodes, self.horizon, time * self.steps)

    def check_reaction_guard(self, lipschitz: float) -> None:
        if not 0 <= lipschitz < np.inf:  # NaN fails too
            raise ValueError(f"Lipschitz bound must be a finite number >= 0, got {lipschitz}")
        if self.dt * lipschitz > 0.5:
            good = 0.5 / lipschitz
            raise StabilityError(
                f"explicit reaction step unstable: dt * L = {self.dt * lipschitz:.4g} "
                f"> 0.5; use dt <= {good:.6g} ({int(np.ceil(self.horizon / good))} steps)",
                suggested_dt=good,
            )

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoid weights over the spatial grid, shape = nodes."""
        axes = [trapezoid_weights(m, h) for m, h in zip(self.nodes, self.h)]
        return np.multiply.outer(*axes) if self.ndim == 2 else axes[0]


@dataclass(frozen=True)
class DiffusionSpec:
    """Per-species diffusion coefficients, none below the floor D_MIN."""

    d: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", as_tuple(self.d, float, "d"))
        if not all(D_MIN <= v < np.inf for v in self.d):  # NaN fails too
            raise ValueError(
                f"diffusion coefficients {self.d} must lie above the floor {D_MIN} and be finite"
            )

    @classmethod
    def uniform(cls, value: float, n_species: int) -> "DiffusionSpec":
        return cls((float(value),) * n_species)

    @property
    def n_species(self) -> int:
        return len(self.d)


@dataclass
class StateField:
    """A full trajectory: values[n, k] is species n at time index k.

    masses[k] is the c-weighted sum of per-species trapezoid integrals at
    step k; species_mass[n, k] the unweighted integral of one species.
    """

    values: np.ndarray
    grid: SpaceTimeGrid
    weights: np.ndarray
    species_mass: np.ndarray = field(repr=False)

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def masses(self) -> np.ndarray:
        return self.weights @ self.species_mass


def mirror_bands(m: int) -> np.ndarray:
    """Bands (sub, diag, sup) of the mirror-ghost Laplacian L on m nodes at
    unit spacing: (L u)[j] = sub[j] u[j-1] + diag[j] u[j] + sup[j] u[j+1].

    The stencil (1, -2, 1), with the ghosts u[-1] = u[1] and u[m] = u[m-2]
    folded onto the inner neighbour of each end: sup[0] = sub[m-1] = 2.
    """
    bands = np.array([[1.0], [-2.0], [1.0]]).repeat(m, axis=1)
    bands[0, 0] = bands[2, -1] = 0.0
    bands[2, 0] = bands[0, -1] = 2.0
    return bands


def mirror_laplacian(u: np.ndarray, h: float) -> np.ndarray:
    """L u / h^2 along the last axis of u."""
    sub, diag, sup = mirror_bands(u.shape[-1])
    out = diag * u
    out[..., 1:] += sub[1:] * u[..., :-1]
    out[..., :-1] += sup[:-1] * u[..., 1:]
    return out / h ** 2


def mirror_laplacian_transpose(w: np.ndarray, h: float) -> np.ndarray:
    """L^T w / h^2 along the last axis of w: row j holds sup[j-1], diag[j]
    and sub[j+1]. The stencil's unit off-diagonals are summed first and the
    mirror entries' excess over them last, as the ghosts fold back."""
    sub, diag, sup = mirror_bands(w.shape[-1])
    out = diag * w
    out[..., 1:] += w[..., :-1]
    out[..., :-1] += w[..., 1:]
    out[..., 1] += (sup[0] - 1.0) * w[..., 0]
    out[..., -2] += (sub[-1] - 1.0) * w[..., -1]
    return out / h ** 2


def heat_bands(m: int, r: float) -> np.ndarray:
    """Bands of I - r L in the layout of `mirror_bands`."""
    bands = -r * mirror_bands(m)
    bands[1] += 1.0
    return bands


def _factor_heat_matrix(m: int, r: float) -> tuple:
    """LU factors of `heat_bands(m, r)`, the arguments `dgttrs` takes
    before the right-hand side."""
    sub, diag, sup = heat_bands(m, r)
    *factors, info = dgttrf(sub[1:], diag, sup[:-1])
    if info != 0:
        raise np.linalg.LinAlgError(
            f"implicit diffusion matrix is singular (dgttrf info = {info})"
        )
    return tuple(factors)


def _box_lipschitz(f, u: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(L, lo, hi): a Lipschitz bound of f on the box of the state u's
    per-species range, widened by 1 and reaching down to -1 at least; lo
    and hi are columns, one row per species."""
    flat = u.reshape(u.shape[0], -1)
    lo = np.minimum(flat.min(axis=1), 0.0) - 1.0
    hi = flat.max(axis=1) + 1.0
    bound = f.lipschitz_bound(lo, hi)
    if bound is None:
        bound = f.sampled_lipschitz(lo, hi, samples=2000)
    return float(bound), lo[:, None], hi[:, None]


def solve(f, D: DiffusionSpec, u0, grid: SpaceTimeGrid, c=None,
          source=None, lipschitz: float | None = None) -> StateField:
    """March the IMEX scheme and return the full trajectory.

    f may be None for pure diffusion; otherwise any reaction term
    (wrapped or not) evaluated explicitly at the current state. source, if
    given, is a callable t -> array broadcastable to the state shape,
    added explicitly. The boundary is zero-flux Neumann (mirror ghosts),
    the only one: it is what makes w^T L = 0, and so mass conservation.

    Raises StabilityError when dt times the reaction's Lipschitz bound
    exceeds 1/2 (pass `lipschitz` to override the bound used) and
    BlowUpError at the first non-finite state. A bound certified on a box
    around u0 is certified again around any state that leaves the box.
    The species count n is D's: u0 has shape (n, *grid.nodes), f (if
    given) n species, and u0 must be finite and componentwise nonnegative.
    """
    c = as_weights(c, D.n_species)
    values = np.empty((D.n_species, grid.steps + 1) + grid.nodes)
    return StateField(values, grid, c, _march(f, D, u0, grid, source, lipschitz, values))


def _march(f, D: DiffusionSpec, u0, grid: SpaceTimeGrid, source, lipschitz,
           values: np.ndarray) -> np.ndarray:
    """`solve`'s march: step k is written into values[:, k % R], R =
    values.shape[1], so R = K + 1 keeps the trajectory and R = 2 the last
    two states. Returns the species masses of every step, shape (n, K + 1)."""
    n = D.n_species
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (n,) + grid.nodes:
        raise ValueError(f"u0 has shape {u0.shape}, expected {(n,) + grid.nodes}: "
                         f"the diffusion spec carries {n} species")
    if f is not None and f.n_species != n:
        raise ValueError(f"the reaction has {f.n_species} species, "
                         f"the diffusion spec carries {n}")
    if not np.isfinite(u0).all():
        raise ValueError("u0 must be finite")
    if np.any(u0 < 0.0):
        raise ValueError("u0 must be componentwise nonnegative")
    # each state lies in [lo, hi]: the box the reaction bound holds on, or the finite floats
    hi = np.full((n, 1), np.finfo(float).max)
    lo = -hi
    if f is not None:
        L = f.lipschitz_bound() if lipschitz is None else lipschitz
        if L is None:
            L, lo, hi = _box_lipschitz(f, u0)
        grid.check_reaction_guard(float(L))

    dt = grid.dt
    h = grid.h
    # one factorization per species and axis, reused at every step
    factors = [
        [_factor_heat_matrix(grid.nodes[ax], dt * dn / h[ax] ** 2)
         for ax in range(grid.ndim)]
        for dn in D.d
    ]

    w = grid.quadrature_weights().ravel()
    K = grid.steps
    R = values.shape[1]
    values[:, 0] = u0
    species_mass = np.empty((n, K + 1))
    species_mass[:, 0] = (u0.reshape(n, -1) * w).sum(axis=1)

    u = values[:, 0]
    times = grid.times()
    # Overflow on the way to a blow-up is reported via BlowUpError below,
    # not as numpy warnings mid-flight.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            # the right-hand side is assembled in place of the next state
            new = values[:, (k + 1) % R]
            new[...] = u
            if f is not None:
                flat = u.reshape(n, -1).T
                new += dt * f.eval(flat).T.reshape(u.shape)
            if source is not None:
                new += dt * np.broadcast_to(source(times[k]), u.shape)
            for i in range(n):
                if grid.ndim == 1:
                    # a contiguous row of values: solved in place
                    dgttrs(*factors[i][0], new[i], overwrite_b=True)
                else:
                    half = dgttrs(*factors[i][0], new[i])[0]
                    new[i] = dgttrs(*factors[i][1], half.T)[0].T
            state = new.reshape(n, -1)
            # NaN fails both comparisons and inf lies outside every box
            if not ((state >= lo) & (state <= hi)).all():
                at = f"step {k + 1} (t = {times[k + 1]:.6g})"
                if not np.isfinite(state).all():
                    raise BlowUpError(f"non-finite state at {at}", step=k + 1)
                L, lo, hi = _box_lipschitz(f, new)
                try:
                    grid.check_reaction_guard(L)
                except StabilityError as exc:
                    raise StabilityError(f"the state left the box its reaction bound was "
                                         f"certified on at {at}: {exc}", exc.suggested_dt) from None
            species_mass[:, k + 1] = (state * w).sum(axis=1)
            u = new
    return species_mass


def _check_finite(**constants) -> None:
    """Raise a ValueError naming the first constant that is not a finite number."""
    for name, value in constants.items():
        if not (isinstance(value, (int, float, np.number)) and np.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass
class MassAudit:
    """Discrete mass-control margins per step.

    margin[k] compares the discrete derivative of the weighted total mass
    between steps k and k+1 against K0 |Omega| + K1 * (unweighted total
    mass at step k); positive margins violate the bound by that amount.
    """

    margins: np.ndarray
    tol: float | None = None

    @property
    def worst(self) -> float:
        return float(self.margins.max())

    @property
    def passed(self) -> bool:
        if self.tol is None:
            raise ValueError("no tolerance attached to this audit")
        return self.worst <= self.tol


def mass_audit(traj: StateField, K0: float = 0.0, K1: float = 0.0,
               tol: float | None = None) -> MassAudit:
    """Check d/dt sum_n c_n int u_n <= K0 |Omega| + K1 sum_n int u_n per step,
    with the weights c the trajectory was solved with."""
    _check_finite(K0=K0, K1=K1, tol=0.0 if tol is None else tol)
    volume = float(np.prod(traj.grid.extents))
    total = traj.species_mass.sum(axis=0)
    rate = np.diff(traj.masses) / traj.grid.dt
    margins = rate - (K0 * volume + K1 * total[:-1])
    return MassAudit(margins, tol)


def estimate_mass_tolerance(f, D: DiffusionSpec, u0_builder, grid: SpaceTimeGrid,
                            K0: float = 0.0, K1: float = 0.0) -> float:
    """Discretization slack C * (h^2 + dt) for unit-weight mass audits.

    Solves the same problem on `grid` and on a space-and-time-refined
    copy, attributes the change in worst margin to the leading error model
    C * (h^2 + dt), and returns 4 C (h^2 + dt) for the coarse grid (at
    least 1e-10). u0_builder maps a grid to its initial state.

    Each solve keeps only its last two states: the audit reads its masses.
    """
    _check_finite(K0=K0, K1=K1)
    fine = grid.refined()
    worst = []
    scales = []
    for g in (grid, fine):
        values = np.empty((D.n_species, 2) + g.nodes)
        t = StateField(values, g, as_weights(None, D.n_species),
                       _march(f, D, u0_builder(g), g, None, None, values))
        worst.append(mass_audit(t, K0=K0, K1=K1).worst)
        scales.append(max(g.h) ** 2 + g.dt)
    C = abs(worst[0] - worst[1]) / (scales[0] - scales[1])
    return max(4.0 * C * scales[0], 1e-10)


@dataclass
class ConvergenceStudy:
    """Observed orders against the separable decaying-cosine solution."""

    spatial_h: np.ndarray
    spatial_errors: np.ndarray
    spatial_order: float
    temporal_dt: np.ndarray
    temporal_errors: np.ndarray
    temporal_order: float


def manufactured_convergence(diffusion: float = 0.7, extent: float = 1.0,
                             horizon: float = 0.5) -> ConvergenceStudy:
    """Convergence orders of the scheme against u*(t,x) = e^-t (1 + cos(pi x / Lx)).

    The manufactured solution has zero flux at both ends, so it lives in
    the scheme's boundary conditions; the matching source term is fed
    through the solver's explicit source hook. Four spatial refinements
    from 9 nodes scale dt ~ h^2 so both error terms shrink at second
    order; the temporal study fixes a grid of 257 nodes and halves dt four
    times from 4 steps.
    """
    Lx = float(extent)
    D = DiffusionSpec.uniform(diffusion, 1)
    factor = np.pi / Lx

    def final_error(grid):
        """Max error at the horizon of the solve on grid, fed the matching source."""
        x = grid.axis(0)
        profile = 1.0 + np.cos(np.pi * x / Lx)  # u*(t, x) = e^-t profile(x)
        cos = np.cos(factor * x)

        def source(t):
            return (np.exp(-t) * (-1.0 - cos + diffusion * factor ** 2 * cos))[None]

        values = np.empty((1, 2) + grid.nodes)  # the last two states
        _march(None, D, profile[None], grid, source, None, values)
        return np.max(np.abs(values[0, grid.steps % 2] - np.exp(-horizon) * profile))

    spatial = [SpaceTimeGrid(Lx, nodes, horizon,
                             max(4, int(round(horizon * (nodes - 1) ** 2 / Lx ** 2))))
               for nodes in (8 * 2 ** level + 1 for level in range(4))]
    temporal = [SpaceTimeGrid(Lx, 257, horizon, 4 * 2 ** level) for level in range(4)]
    h = np.array([g.h[0] for g in spatial])
    dt = np.array([g.dt for g in temporal])
    h_errors, dt_errors = (np.array([final_error(g) for g in grids])
                           for grids in (spatial, temporal))
    return ConvergenceStudy(h, h_errors, fitted_rate(h, h_errors),
                            dt, dt_errors, fitted_rate(dt, dt_errors))
