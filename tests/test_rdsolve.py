"""Solver tests: conservation identities, convergence orders, guard rails."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from rdlearn import (
    AnalyticReaction,
    BlowUpError,
    DiffusionSpec,
    MLPReaction,
    SpaceTimeGrid,
    StabilityError,
    build_mollified_heaviside,
    estimate_mass_tolerance,
    make_reaction,
    manufactured_convergence,
    mass_audit,
    solve,
    wrap,
)
from rdlearn._sampling import trapezoid_weights
from rdlearn.rdsolve import heat_bands, mirror_bands, mirror_laplacian, mirror_laplacian_transpose


def cosine_profile(grid, base=0.5, amp=0.4):
    x = grid.axis(0)
    return (base + amp * np.cos(np.pi * x / grid.extents[0]))[None]


# ---------------------------------------------------------------- grids


def test_grid_spacings_and_axes():
    g = SpaceTimeGrid(2.0, 101, 1.0, 200)
    assert g.ndim == 1
    assert g.h == (0.02,)
    assert g.dt == 0.005
    x = g.axis(0)
    assert x[0] == 0.0 and x[-1] == 2.0 and len(x) == 101
    assert len(g.times()) == 201


def test_grid_refinement_halves_spacings():
    g = SpaceTimeGrid((1.0, 3.0), (11, 31), 0.5, 20)
    f = g.refined()
    assert f.nodes == (21, 61)
    assert f.steps == 40
    assert f.h == (g.h[0] / 2, g.h[1] / 2)


def test_quadrature_weights_sum_to_volume():
    g1 = SpaceTimeGrid(2.5, 37, 1.0, 10)
    assert np.isclose(g1.quadrature_weights().sum(), 2.5, rtol=1e-14)
    g2 = SpaceTimeGrid((1.5, 2.0), (9, 13), 1.0, 10)
    w = g2.quadrature_weights()
    assert w.shape == (9, 13)
    assert np.isclose(w.sum(), 3.0, rtol=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError, match="at least 3 nodes"):
        SpaceTimeGrid(1.0, 2, 1.0, 10)
    with pytest.raises(ValueError, match="agree per axis"):
        SpaceTimeGrid((1.0, 1.0), 41, 1.0, 10)
    with pytest.raises(ValueError, match="positive"):
        SpaceTimeGrid(-1.0, 5, 1.0, 10)
    with pytest.raises(ValueError, match="horizon"):
        SpaceTimeGrid(1.0, 5, 0.0, 10)
    with pytest.raises(ValueError, match="time step"):
        SpaceTimeGrid(1.0, 5, 1.0, 0)
    with pytest.raises(ValueError, match="1D and 2D"):
        SpaceTimeGrid((1.0, 1.0, 1.0), (5, 5, 5), 1.0, 10)


def test_diffusion_floor():
    with pytest.raises(ValueError, match="floor"):
        DiffusionSpec((0.5, 1e-9))
    spec = DiffusionSpec.uniform(0.3, 3)
    assert spec.n_species == 3
    assert spec.d == (0.3, 0.3, 0.3)


# ------------------------------------------------------- exact identities


def test_pure_diffusion_conserves_mass_per_step():
    """Mirror-ghost stencil makes w^T L = 0, so mass drift is pure rounding."""
    g = SpaceTimeGrid(2.0, 101, 1.0, 200)
    x = g.axis(0)
    u0 = (1.0 + 0.5 * np.sin(3 * x) + 0.3 * np.cos(7 * x)).clip(min=0.0)[None]
    traj = solve(None, DiffusionSpec.uniform(0.8, 1), u0, g)
    assert np.abs(np.diff(traj.masses)).max() < 1e-10


def test_pure_diffusion_conserves_mass_2d():
    g = SpaceTimeGrid((1.0, 1.5), (33, 49), 0.5, 80)
    X, Y = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
    u0 = (1.0 + 0.4 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y / 1.5))[None]
    traj = solve(None, DiffusionSpec.uniform(0.3, 1), u0, g)
    assert np.abs(np.diff(traj.masses)).max() < 1e-10


def test_zero_data_stays_identically_zero():
    g = SpaceTimeGrid(1.0, 21, 1.0, 30)
    traj = solve(None, DiffusionSpec.uniform(1.0, 1), np.zeros((1,) + g.nodes), g)
    assert np.all(traj.values == 0.0)


def test_constant_state_is_a_fixed_point_of_diffusion():
    g = SpaceTimeGrid(1.0, 11, 1.0, 50)
    traj = solve(None, DiffusionSpec.uniform(0.7, 1), np.full((1,) + g.nodes, 2.5), g)
    assert np.max(np.abs(traj.values - 2.5)) < 1e-13


def test_source_hook_reduces_to_scalar_recursion():
    """A spatially constant source keeps the state flat, so the trajectory
    must match the forward-Euler recursion computed by hand."""
    g = SpaceTimeGrid(1.0, 11, 1.0, 50)
    c0 = 3.0
    traj = solve(
        None,
        DiffusionSpec.uniform(1.0, 1),
        np.full((1,) + g.nodes, c0),
        g,
        source=lambda t: np.full((1,) + g.nodes, -np.exp(-t) * c0),
    )
    v = c0
    for t in g.times()[:-1]:
        v = v + g.dt * (-np.exp(-t) * c0)
    assert np.max(np.abs(traj.values[0, -1] - v)) < 1e-12
    assert traj.values[0, -1].max() - traj.values[0, -1].min() < 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 2.0))
def test_diffusion_keeps_nonnegativity_and_mass(seed, d):
    """The implicit step inverts an M-matrix, so nonnegative data stays
    nonnegative for any diffusion coefficient and the mass identity holds."""
    rng = np.random.default_rng(seed)
    g = SpaceTimeGrid(1.0, 17, 0.3, 12)
    u0 = rng.uniform(0.0, 1.0, size=(1,) + g.nodes)
    traj = solve(None, DiffusionSpec.uniform(d, 1), u0, g)
    assert traj.min_value >= -1e-12
    assert np.abs(np.diff(traj.masses)).max() < 1e-12


# ----------------------------------------------------- closed-form decay


def test_heat_decay_matches_closed_form_1d():
    g = SpaceTimeGrid(2.0, 201, 0.25, 800)
    x = g.axis(0)
    d = 0.5
    traj = solve(None, DiffusionSpec.uniform(d, 1), (1.0 + np.cos(np.pi * x / 2.0))[None], g)
    exact = 1.0 + np.exp(-d * (np.pi / 2.0) ** 2 * 0.25) * np.cos(np.pi * x / 2.0)
    assert np.max(np.abs(traj.values[0, -1] - exact)) < 2e-4


def test_heat_decay_matches_closed_form_2d():
    g = SpaceTimeGrid((1.0, 1.0), (41, 41), 0.2, 200)
    X, Y = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
    d = 0.2
    u0 = (1.0 + np.cos(np.pi * X) * np.cos(np.pi * Y))[None]
    traj = solve(None, DiffusionSpec.uniform(d, 1), u0, g)
    exact = 1.0 + np.exp(-d * 2 * np.pi**2 * 0.2) * np.cos(np.pi * X) * np.cos(np.pi * Y)
    assert np.max(np.abs(traj.values[0, -1] - exact)) < 2e-3


# -------------------------------------------------------------- orders


def test_manufactured_solution_orders():
    study = manufactured_convergence()
    assert 1.8 <= study.spatial_order <= 2.2
    assert 0.8 <= study.temporal_order <= 1.2
    assert np.all(np.diff(study.spatial_errors) < 0)
    assert np.all(np.diff(study.temporal_errors) < 0)
    assert study.spatial_h.size == study.spatial_errors.size == 4
    assert study.temporal_dt.size == study.temporal_errors.size == 4


def test_manufactured_orders_are_stable():
    study = manufactured_convergence()
    assert study.spatial_order == pytest.approx(2.0020580989456023, abs=1e-6)
    assert study.temporal_order == pytest.approx(0.9949589332154984, abs=1e-6)


def test_richardson_self_convergence_of_wrapped_fisher():
    wrapped = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2), lipschitz=3.0)
    D = DiffusionSpec.uniform(0.05, 1)
    base = SpaceTimeGrid(2.0, 61, 1.0, 240)
    finals = []
    for s in (1, 2, 4):
        g = base.refined(s, s * s) if s > 1 else base
        finals.append(solve(wrapped, D, cosine_profile(g), g).values[0, -1][::s])
    order = np.log2(
        np.max(np.abs(finals[0] - finals[1])) / np.max(np.abs(finals[1] - finals[2]))
    )
    assert order >= 1.8


# -------------------------------------------------------- wrapped runs


def test_wrapped_fisher_stays_in_physical_band():
    wrapped = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2), lipschitz=3.0)
    g = SpaceTimeGrid(2.0, 61, 1.0, 240)
    traj = solve(wrapped, DiffusionSpec.uniform(0.05, 1), cosine_profile(g), g)
    assert traj.min_value >= -1e-8
    assert traj.values.max() <= 1.0 + 1e-6


def test_wrapped_fisher_close_to_refined_reference():
    wrapped = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2), lipschitz=3.0)
    D = DiffusionSpec.uniform(0.05, 1)
    g = SpaceTimeGrid(2.0, 61, 1.0, 240)
    coarse = solve(wrapped, D, cosine_profile(g), g).values[0, -1]
    fine_grid = g.refined(4, 4)
    fine = solve(wrapped, D, cosine_profile(fine_grid), fine_grid).values[0, -1][::4]
    rel = np.max(np.abs(coarse - fine)) / np.max(np.abs(fine))
    assert rel <= 0.01
    assert rel < 5e-4  # observed 2.7e-4; flag regressions well before the contract


def test_2d_reaction_run_keeps_logistic_band():
    fisher = make_reaction("fisher-kpp")
    g = SpaceTimeGrid((1.0, 1.0), (25, 25), 0.3, 120)
    X, Y = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
    u0 = (0.3 + 0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y))[None]
    traj = solve(fisher, DiffusionSpec.uniform(0.02, 1), u0, g, lipschitz=3.0)
    assert 0.0 < traj.min_value
    assert traj.values.max() < 1.0
    assert np.all(np.diff(traj.masses) > 0)  # logistic growth from below 1


# ------------------------------------------------------------ guard rails


def test_stability_guard_suggests_a_time_step():
    wrapped = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2), lipschitz=3.0)
    g = SpaceTimeGrid(2.0, 61, 1.0, 4)
    with pytest.raises(StabilityError, match="use dt <=") as info:
        solve(wrapped, DiffusionSpec.uniform(0.05, 1), cosine_profile(g), g)
    err = info.value
    assert err.suggested_dt is not None
    assert err.suggested_dt * 2 <= g.dt  # the failing dt was way too big


def test_guard_uses_explicit_override():
    g = SpaceTimeGrid(2.0, 61, 1.0, 100)
    fisher = make_reaction("fisher-kpp")
    with pytest.raises(StabilityError):
        solve(fisher, DiffusionSpec.uniform(0.05, 1), cosine_profile(g), g, lipschitz=1000.0)
    solve(fisher, DiffusionSpec.uniform(0.05, 1), cosine_profile(g), g, lipschitz=3.0)


@pytest.mark.parametrize("lipschitz", [np.nan, np.inf, -1.0])
def test_guard_refuses_a_bound_that_is_not_a_finite_number_at_least_0(lipschitz):
    """3u(1 - u) needs more than 4 steps at L = 3; a NaN bound fails both of
    the guard's comparisons, and must not switch the guard off."""
    logistic = AnalyticReaction("logistic", 1, lambda u: 3.0 * u * (1.0 - u))
    args = (logistic, DiffusionSpec.uniform(0.1, 1), np.full((1, 11), 0.5),
            SpaceTimeGrid(1.0, 11, 1.0, 4))
    with pytest.raises(StabilityError):
        solve(*args, lipschitz=3.0)
    with pytest.raises(ValueError, match="finite number >= 0, got"):
        solve(*args, lipschitz=lipschitz)


def test_guard_refuses_a_sampled_bound_of_nan():
    """A term that is NaN on part of its box gets a sampled bound of NaN."""
    f = AnalyticReaction("nan-below-0", 1, lambda u: np.where(u < 0.0, np.nan, u * (1.0 - u)))
    with pytest.raises(ValueError, match="finite number >= 0, got nan"):
        solve(f, DiffusionSpec.uniform(0.1, 1), np.full((1, 11), 0.5),
              SpaceTimeGrid(1.0, 11, 1.0, 4))


def box_leaving_problem():
    """(f, D, u0, grid): f = tanh(u) + 1 wrapped grows the state out of the
    box u0 +- 1 its bound is certified on, and dt fits that first box only."""
    f = wrap(MLPReaction((1, 1, 1), [1.0, 0.0, 1.0, 1.0]), build_mollified_heaviside(0.2))
    steps = int(np.ceil(2.0 * f.lipschitz_bound([-1.0], [1.5]) / 0.5))
    grid = SpaceTimeGrid(1.0, 11, 2.0, steps)
    return f, DiffusionSpec.uniform(0.1, 1), np.full((1, 11), 0.5), grid


def test_state_leaving_its_box_is_certified_again():
    """f = tanh(u) + 1 grows the state out of the box u0 +- 1 that the
    wrapped network's bound is certified on. The solver certifies the bound
    again on each grown box; when dt is too large for a grown box it raises
    StabilityError at the step that left."""
    f, D, u0, g = box_leaving_problem()
    steps = g.steps
    boxes = []
    certify = f.lipschitz_bound

    def spy(lo=None, hi=None):
        if lo is not None:
            boxes.append(float(hi[0]))
        return certify(lo, hi)

    f.lipschitz_bound = spy
    top = solve(f, D, u0, g, lipschitz=0.0).values[0].max(axis=1)
    left = int(np.argmax(top > 1.5))
    assert left > 0
    with pytest.raises(StabilityError, match=f"certified on at step {left} ") as info:
        solve(f, D, u0, g)
    assert info.value.suggested_dt < g.dt
    assert boxes == [1.5, top[left] + 1.0]

    boxes.clear()
    fine = SpaceTimeGrid(1.0, 11, 2.0, 8 * steps)
    traj = solve(f, D, u0, fine)
    top = traj.values[0].max(axis=1)
    assert len(boxes) >= 3 and boxes[0] == 1.5
    assert all(b > a for a, b in zip(boxes, boxes[1:]))
    assert top.max() <= boxes[-1]
    assert boxes[1] == top[np.argmax(top > 1.5)] + 1.0


def test_blow_up_reports_first_bad_step():
    boom = AnalyticReaction("boom", 1, lambda u: 2000.0 * u * u)
    g = SpaceTimeGrid(1.0, 21, 1.0, 400)
    u0 = np.full((1,) + g.nodes, 2.0)
    with pytest.raises(BlowUpError, match="non-finite") as info:
        solve(boom, DiffusionSpec.uniform(0.01, 1), u0, g, lipschitz=0.0)
    assert info.value.step == 9  # doubling cascade overflows at a fixed step


def test_non_finite_state_in_a_certified_box_is_a_blow_up():
    """NaN fails both box comparisons, so a NaN source stops the solve as a
    blow-up, not as a box exit to certify again."""
    f = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2))
    g = SpaceTimeGrid(1.0, 21, 1.0, 40)
    with pytest.raises(BlowUpError, match="non-finite") as info:
        solve(f, DiffusionSpec.uniform(0.01, 1), cosine_profile(g), g,
              source=lambda t: np.nan if t >= 0.5 else 0.0)
    assert info.value.step == 21


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_grid_and_diffusion_are_rejected(bad):
    with pytest.raises(ValueError, match="extents"):
        SpaceTimeGrid(bad, 5, 1.0, 4)
    with pytest.raises(ValueError, match="horizon"):
        SpaceTimeGrid(1.0, 5, bad, 4)
    with pytest.raises(ValueError, match="diffusion coefficients"):
        DiffusionSpec((0.5, bad))


@pytest.mark.parametrize("nodes, steps, named", [
    (5.5, 2, "nodes must be integers"),
    (np.inf, 2, "nodes must be integers"),
    (5, 2.5, "steps must be integers"),
    (5, np.inf, "steps must be integers"),
    (5, np.nan, "steps must be integers"),
])
def test_grid_counts_are_integers_not_truncated(nodes, steps, named):
    with pytest.raises(ValueError, match=named):
        SpaceTimeGrid(1.0, nodes, 1.0, steps)


def test_solver_input_validation():
    g = SpaceTimeGrid(1.0, 11, 1.0, 10)
    u0 = np.ones((1,) + g.nodes)
    with pytest.raises(ValueError, match="nonnegative"):
        solve(None, DiffusionSpec.uniform(1.0, 1), -u0, g)
    with pytest.raises(ValueError, match="carries 2 species"):
        solve(None, DiffusionSpec.uniform(1.0, 2), u0, g)
    with pytest.raises(ValueError, match="positive"):
        solve(None, DiffusionSpec.uniform(1.0, 1), u0, g, c=np.array([-1.0]))
    with pytest.raises(ValueError, match="expected"):
        solve(None, DiffusionSpec.uniform(1.0, 1), np.ones((2, 5)), g)
    # a non-finite u0 is named up front, with a wrapped term or without one
    wrapped = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2))
    for bad in (np.nan, np.inf):
        u_bad = u0.copy()
        u_bad[0, 3] = bad
        for f in (None, wrapped):
            with pytest.raises(ValueError, match="u0 must be finite"):
                solve(f, DiffusionSpec.uniform(1.0, 1), u_bad, g)


# ------------------------------------------------------------ mass audit


def test_fisher_mass_margin_is_negative():
    """d/dt int u = int u(1-u) <= int u exactly on the discrete level,
    with strict slack int u^2, so every margin must be negative."""
    fisher = make_reaction("fisher-kpp")
    g = SpaceTimeGrid(2.0, 61, 1.0, 240)
    traj = solve(fisher, DiffusionSpec.uniform(0.05, 1), cosine_profile(g), g, lipschitz=3.0)
    audit = mass_audit(traj, K0=0.0, K1=1.0)
    assert audit.worst < 0.0


def test_conserved_audit_is_flat():
    g = SpaceTimeGrid(2.0, 101, 1.0, 100)
    x = g.axis(0)
    u0 = (1.0 + 0.3 * np.cos(2 * x))[None]
    traj = solve(None, DiffusionSpec.uniform(0.8, 1), u0, g)
    audit = mass_audit(traj, K0=0.0, K1=0.0, tol=1e-10)
    assert audit.passed
    assert abs(audit.worst) < 1e-10


def test_audit_reads_the_weights_the_trajectory_was_solved_with():
    """The audited rate is that of the weighted masses of the solve, so
    weights c = (1, 0.5) give other margins than unit weights."""
    g = SpaceTimeGrid(1.0, 21, 0.2, 20)
    x = g.axis(0)
    u0 = np.stack([0.6 + 0.2 * np.cos(np.pi * x), 0.2 + 0.1 * np.cos(2 * np.pi * x)])
    gs = wrap(make_reaction("gray-scott"), build_mollified_heaviside(0.2))
    D = DiffusionSpec((0.01, 0.005))
    traj = solve(gs, D, u0, g, c=(1.0, 0.5))
    audit = mass_audit(traj, K0=0.1, K1=0.2)
    total = traj.species_mass.sum(axis=0)
    expected = np.diff(traj.masses) / g.dt - (0.1 * 1.0 + 0.2 * total[:-1])
    assert audit.margins.tobytes() == expected.tobytes()
    unit = mass_audit(solve(gs, D, u0, g), K0=0.1, K1=0.2)
    assert not np.allclose(audit.margins, unit.margins)


def test_audit_requires_tolerance_for_passed():
    g = SpaceTimeGrid(1.0, 11, 0.1, 5)
    traj = solve(None, DiffusionSpec.uniform(1.0, 1), np.ones((1,) + g.nodes), g)
    audit = mass_audit(traj)
    with pytest.raises(ValueError, match="tolerance"):
        audit.passed


def network_builder(g):
    """Two random cosine profiles, the same on every grid."""
    x = g.axis(0)
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(2):
        a = rng.uniform(0.2, 0.8)
        b = rng.uniform(0.1, 0.4)
        k = rng.integers(1, 4)
        rows.append(a + b * np.cos(k * np.pi * x / g.extents[0]))
    return np.array(rows)


def network_problem():
    """(wrapped, D, grid): a wrapped random (2,16,2) network on a 100x500 grid."""
    chi = build_mollified_heaviside(0.25)
    wrapped = wrap(MLPReaction.from_seed((2, 16, 2), seed=3, scale=1.0), chi)
    return wrapped, DiffusionSpec.uniform(0.1, 2), SpaceTimeGrid(2.0, 100, 1.0, 500)


def test_wrapped_network_passes_certified_audit():
    """The wrapper's certified constants bound the discrete mass growth of
    a simulated two-species network once discretization slack is added."""
    wrapped, D, g = network_problem()
    cc = wrapped.consistency_constants()
    traj = solve(wrapped, D, network_builder(g), g)
    assert traj.min_value >= -1e-8
    tol = estimate_mass_tolerance(wrapped, D, network_builder, g, K0=cc.K0, K1=cc.K1)
    audit = mass_audit(traj, K0=cc.K0, K1=cc.K1, tol=tol)
    assert tol > 0
    assert audit.passed


def reference_tolerance(f, D, u0_builder, grid, K0, K1):
    """The docstring's formula over two full solves and their audits."""
    worst, scales = [], []
    for g in (grid, grid.refined()):
        worst.append(mass_audit(solve(f, D, u0_builder(g), g), K0=K0, K1=K1).worst)
        scales.append(max(g.h) ** 2 + g.dt)
    C = abs(worst[0] - worst[1]) / (scales[0] - scales[1])
    return max(4.0 * C * scales[0], 1e-10)


def tolerance_problems():
    """(f, D, u0_builder, grid, K0, K1): a wrapped network, wrapped
    Fisher-KPP, and wrapped Gray-Scott on a small 2D grid."""
    wrapped, D, g = network_problem()
    cc = wrapped.consistency_constants()
    yield wrapped, D, network_builder, SpaceTimeGrid(2.0, 40, 1.0, 200), cc.K0, cc.K1
    fisher = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2), lipschitz=3.0)
    yield (fisher, DiffusionSpec.uniform(0.05, 1), cosine_profile,
           SpaceTimeGrid(2.0, 61, 1.0, 240), 0.0, 1.0)

    def gray_scott_builder(g):
        a, b = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
        return np.stack([0.6 + 0.2 * np.cos(np.pi * a), 0.2 + 0.1 * np.cos(np.pi * b)])

    gs = wrap(make_reaction("gray-scott"), build_mollified_heaviside(0.2))
    yield (gs, DiffusionSpec((0.01, 0.005)), gray_scott_builder,
           SpaceTimeGrid((1.0, 1.5), (9, 11), 0.2, 20), 0.1, 0.2)


@pytest.mark.parametrize("case", range(3), ids=["network-1d", "fisher-1d", "gray-scott-2d"])
def test_mass_tolerance_equals_two_full_solves_bitwise(case):
    """Keeping two states instead of the trajectory changes no bit of the tolerance."""
    f, D, u0_builder, g, K0, K1 = list(tolerance_problems())[case]
    got = estimate_mass_tolerance(f, D, u0_builder, g, K0=K0, K1=K1)
    assert got.hex() == reference_tolerance(f, D, u0_builder, g, K0, K1).hex()


def test_mass_tolerance_keeps_less_than_one_coarse_trajectory():
    """The tolerance marches keep two states each, so the peak of the whole
    estimate stays below the bytes of one coarse trajectory."""
    wrapped, D, g = network_problem()
    cc = wrapped.consistency_constants()
    estimate_mass_tolerance(wrapped, D, network_builder, g, K0=cc.K0, K1=cc.K1)  # warm caches
    tracemalloc.start()
    try:
        estimate_mass_tolerance(wrapped, D, network_builder, g, K0=cc.K0, K1=cc.K1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trajectory = 8 * D.n_species * (g.steps + 1) * g.nodes[0]
    assert peak < trajectory, (peak, trajectory)


def test_mass_tolerance_raises_what_solve_raises():
    """A negative initial state and a state leaving its certified box fail
    the tolerance's marches as they fail `solve`."""
    wrapped, D, g = network_problem()
    with pytest.raises(ValueError, match="componentwise nonnegative"):
        estimate_mass_tolerance(wrapped, D, lambda grid: -network_builder(grid), g)
    f, D, u0, g = box_leaving_problem()
    top = solve(f, D, u0, g, lipschitz=0.0).values[0].max(axis=1)
    left = int(np.argmax(top > 1.5))
    with pytest.raises(StabilityError, match=f"certified on at step {left} "):
        solve(f, D, u0, g)
    with pytest.raises(StabilityError, match=f"certified on at step {left} "):
        estimate_mass_tolerance(f, D, lambda grid: np.full((1,) + grid.nodes, 0.5), g)


@pytest.mark.parametrize("name, value", [("K0", np.nan), ("K1", np.inf), ("K1", None)])
def test_mass_tolerance_rejects_constants_that_are_not_finite(name, value):
    fisher = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2), lipschitz=3.0)
    g = SpaceTimeGrid(2.0, 61, 1.0, 240)
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        estimate_mass_tolerance(fisher, DiffusionSpec.uniform(0.05, 1), cosine_profile, g,
                                **{name: value})


@pytest.mark.parametrize("name, value", [("K0", np.nan), ("K1", -np.inf), ("K1", None),
                                         ("tol", np.nan), ("tol", np.inf)])
def test_mass_audit_rejects_constants_that_are_not_finite(name, value):
    g = SpaceTimeGrid(1.0, 11, 0.1, 5)
    traj = solve(None, DiffusionSpec.uniform(1.0, 1), np.ones((1,) + g.nodes), g)
    kwargs = {"K0": 0.0, "K1": 0.0, "tol": 1e-3, name: value}
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        mass_audit(traj, **kwargs)


# -------------------------------------------------------------- fields


def test_state_field_round_trip():
    g = SpaceTimeGrid(1.0, 11, 0.5, 20)
    u0 = cosine_profile(g, base=1.0, amp=0.5)
    traj = solve(None, DiffusionSpec.uniform(0.2, 1), u0, g)
    assert traj.values.shape == (1, 21, 11)
    assert np.array_equal(traj.values[:, 0], u0)
    assert traj.masses.shape == (21,)
    assert traj.min_value <= traj.values.max()


# ------------------------------------------------- factored implicit solves


def reference_march(f, D, u0, grid, source=None):
    """The IMEX march with one `solve_banded` call per species, axis and
    step, and a per-species mass sum: values and species masses."""
    n = u0.shape[0]
    dt, h = grid.dt, grid.h

    def banded(m, r):  # heat_bands in the layout solve_banded takes
        sub, diag, sup = heat_bands(m, r)
        return np.array([np.roll(sup, 1), diag, np.roll(sub, -1)])

    mats = [[banded(grid.nodes[ax], dt * dn / h[ax] ** 2) for ax in range(grid.ndim)]
            for dn in D.d]

    w = grid.quadrature_weights()
    traj = np.empty((n, grid.steps + 1) + grid.nodes)
    mass = np.empty((n, grid.steps + 1))
    traj[:, 0] = u0
    mass[:, 0] = [float(np.sum(w * u0[i])) for i in range(n)]
    u = u0.copy()
    times = grid.times()
    for k in range(grid.steps):
        rhs = u.copy()
        if f is not None:
            rhs += dt * f.eval(u.reshape(n, -1).T).T.reshape(u.shape)
        if source is not None:
            rhs = rhs + dt * np.broadcast_to(source(times[k]), u.shape)
        new = np.empty_like(u)
        for i in range(n):
            if grid.ndim == 1:
                new[i] = solve_banded((1, 1), mats[i][0], rhs[i])
            else:
                half = solve_banded((1, 1), mats[i][0], rhs[i])
                new[i] = solve_banded((1, 1), mats[i][1], half.T).T
        u = new
        traj[:, k + 1] = u
        mass[:, k + 1] = [float(np.sum(w * u[i])) for i in range(n)]
    return traj, mass


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("term", ["diffusion", "wrapped", "source"])
# the ids name the boundary the march runs under
@pytest.mark.parametrize("ndim", [1, 2], ids=["1-neumann", "2-neumann"])
def test_factored_solve_equals_the_banded_reference_bitwise(ndim, term, n):
    """Factoring each matrix once per solve changes no bit of the march."""
    if ndim == 1:
        grid = SpaceTimeGrid(1.3, 37, 0.4, 50)
        x = grid.axis(0)
    else:
        grid = SpaceTimeGrid((1.0, 1.7), (13, 19), 0.3, 30)
        a, b = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
        x = a + 0.5 * b
    u0 = np.array([0.5 + 0.3 * np.cos((i + 1) * np.pi * x / 1.3) for i in range(n)])
    D = DiffusionSpec(tuple(0.03 + 0.05 * i for i in range(n)))
    f, source = None, None
    if term == "wrapped":
        f = wrap(MLPReaction.from_seed((n, 8, n), seed=4 + n, scale=0.5),
                 build_mollified_heaviside(0.4))
    elif term == "source":
        def source(t):
            return 0.2 * np.sin(3.0 * t) * np.cos(np.pi * x)

    got = solve(f, D, u0, grid, source=source)
    values, mass = reference_march(f, D, u0, grid, source=source)
    assert got.values.tobytes() == values.tobytes()
    assert got.species_mass.tobytes() == mass.tobytes()


# ----------------------------------------------- the mirror-ghost operator


def dense(bands):
    sub, diag, sup = bands
    return np.diag(diag) + np.diag(sup[:-1], 1) + np.diag(sub[1:], -1)


@pytest.mark.parametrize("m", [3, 4, 8, 41])
def test_mirror_laplacian_and_its_transpose_apply_the_bands(m):
    """Both applies of the operator are the dense matrix of its bands."""
    h = 0.13
    L = dense(mirror_bands(m)) / h ** 2
    rows = np.eye(m)  # row j of the batch is e_j
    assert mirror_laplacian(rows, h).T.tobytes() == L.tobytes()
    assert mirror_laplacian_transpose(rows, h).T.tobytes() == L.T.tobytes()


@pytest.mark.parametrize("m", [3, 8, 41])
def test_mirror_laplacian_transpose_identity(m):
    """<L u, w> = <u, L^T w> row by row on random batches."""
    rng = np.random.default_rng(m)
    h = 0.07
    u = rng.standard_normal((3, 5, m))
    w = rng.standard_normal((3, 5, m))
    lhs = np.sum(mirror_laplacian(u, h) * w, axis=-1)
    rhs = np.sum(u * mirror_laplacian_transpose(w, h), axis=-1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 / h ** 2)


@pytest.mark.parametrize("m", [3, 8, 41])
def test_heat_bands_are_identity_minus_r_h2_laplacian(m):
    """The implicit matrix is I - r h^2 L with the same L."""
    h, r = 0.13, 0.37
    L = mirror_laplacian(np.eye(m), h).T
    np.testing.assert_allclose(dense(heat_bands(m, r)), np.eye(m) - r * h ** 2 * L,
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("m", [3, 8, 41, 399])
def test_trapezoid_weights_annihilate_the_laplacian(m):
    """w^T L = 0: pure diffusion conserves the trapezoid mass."""
    h = 2.5 / (m - 1)
    L = mirror_laplacian(np.eye(m), h).T
    w = trapezoid_weights(m, h)
    np.testing.assert_allclose(w @ L, 0.0, atol=1e-12 / h)
    assert SpaceTimeGrid(2.5, m, 1.0, 1).quadrature_weights().tobytes() == w.tobytes()
