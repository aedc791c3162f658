"""All-at-once learning tests: operators, schedules, objective, optimizer.

Measurement adjoint identities and the noise-norm rescaling are exact and
asserted without tolerance where floats allow it. The hand-assembled
gradient is validated against central differences on the same small
problem shape the acceptance suite uses. Frozen values come from seeded
runs of this module's own code on 2026-08-19 and protect against silent
regressions, not against modeling errors; those are covered by the
truth-insertion and stationarity tests, whose expected values (zero, up
to solver rounding) need no freezing.
"""

import gc
import os
import subprocess
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdlearn
from rdlearn.learn import (
    AllAtOnceProblem,
    LevelSchedule,
    MeasurementOperator,
    generate_measurements,
    identification_sweep,
    make_schedule,
    solve_level,
)
from rdlearn.rdsolve import D_MIN, DiffusionSpec, SpaceTimeGrid, solve
from rdlearn.reaction import MLPReaction, make_reaction
from rdlearn.transition import build_mollified_heaviside


GRID = SpaceTimeGrid(1.0, 9, 0.2, 8)


def diffusion_truth(grid=GRID, d=0.05):
    u0 = 0.3 + 0.5 * grid.axis(0)[None] ** 2
    return solve(None, DiffusionSpec((d,)), u0, grid)


def small_problem(operator=None, data=None, sched=None, widths=(1, 4, 1),
                  **kw):
    operator = operator or MeasurementOperator()
    if data is None:
        truth = diffusion_truth()
        data = operator.apply(truth.values, GRID)
    sched = sched or make_schedule(2.0, 1.0, 0.5)[0]
    kw.setdefault("sup_points", 64)
    kw.setdefault("l2_nodes", 33)
    return AllAtOnceProblem(GRID, widths, build_mollified_heaviside(1.0),
                            sched, operator, data, **kw)


# ---------------------------------------------------------------------------
# measurement operators


def test_full_operator_is_identity():
    """The default operator is the stride-1 subsample: it returns the grid
    state unchanged, bit for bit, -0.0, inf and NaN included."""
    u = np.random.default_rng(0).standard_normal((2, 9, 9))
    u[0, 0, :4] = [-0.0, np.inf, -np.inf, np.nan]
    u[1, 3, 8] = -0.0
    u[1, 8, 2] = np.nan
    for op in (MeasurementOperator(), MeasurementOperator("subsample", stride=1)):
        for method in (op.apply, op.adjoint, op.reconstruct):
            out = method(u, GRID)
            assert out.shape == u.shape and out.tobytes() == u.tobytes(), (op, method)
            assert not np.shares_memory(out, u)


def test_subsample_keeps_every_stride_th_sample():
    op = MeasurementOperator("subsample", stride=2)
    u = np.arange(2 * 9 * 9, dtype=float).reshape(2, 9, 9)
    y = op.apply(u, GRID)
    np.testing.assert_array_equal(y, u[:, ::2, ::2])


def test_subsample_reconstruct_of_a_stack_is_the_stack_of_reconstructs():
    op = MeasurementOperator("subsample", stride=3)
    y = np.random.default_rng(5).standard_normal((3, 2, 3, 3))
    stacked = op.reconstruct(y, GRID)
    assert stacked.shape == (3, 2, 9, 9)
    single = np.stack([op.reconstruct(y[l], GRID) for l in range(3)])
    assert stacked.tobytes() == single.tobytes()


def test_subsample_reconstruct_matches_at_kept_nodes():
    op = MeasurementOperator("subsample", stride=4)
    truth = diffusion_truth()
    y = op.apply(truth.values, GRID)
    back = op.reconstruct(y, GRID)
    assert back.shape == truth.values.shape
    np.testing.assert_array_equal(back[:, ::4, ::4], y)


@settings(max_examples=25, deadline=None)
@given(stride=st.sampled_from([1, 2, 3, 4]), seed=st.integers(0, 1000))
def test_subsample_adjoint_identity(stride, seed):
    op = MeasurementOperator("subsample", stride=stride)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((3, 2, 9, 9))
    y = rng.standard_normal(op.apply(u, GRID).shape)
    lhs = float(np.vdot(op.apply(u, GRID), y))
    rhs = float(np.vdot(u, op.adjoint(y, GRID)))
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_fourier_adjoint_identity():
    grid = SpaceTimeGrid(2.0, 33, 0.3, 6)
    op = MeasurementOperator("fourier", modes=4)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((2, 1, 7, 33))
    y = rng.standard_normal(op.apply(u, grid).shape)
    lhs = float(np.vdot(op.apply(u, grid), y))
    rhs = float(np.vdot(u, op.adjoint(y, grid)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fourier_reconstruct_recovers_band_limited_field():
    grid = SpaceTimeGrid(2.0, 33, 0.3, 6)
    x = grid.axis(0)
    profile = (0.4 + 0.2 * np.cos(np.pi * x / 2.0)
               - 0.1 * np.cos(2.0 * np.pi * x / 2.0))
    u = np.broadcast_to(profile, (1, 7, 33)).copy()
    op = MeasurementOperator("fourier", modes=4)
    back = op.reconstruct(op.apply(u, grid), grid)
    np.testing.assert_allclose(back, u, atol=1e-13)


@pytest.mark.parametrize("kwargs, match", [
    (dict(kind="nearest"), "kind must be"),
    (dict(kind="fourier", modes=3, stride=2), "stride applies to subsample"),
    (dict(kind="subsample", stride=0), "stride"),
    (dict(kind="fourier"), "modes >= 1"),
    (dict(kind="subsample", stride=2, modes=3), "modes apply to fourier"),
    (dict(kind="subsample", stride=2.5), "stride must be integers"),
    (dict(kind="subsample", stride=np.inf), "stride must be integers"),
    (dict(kind="fourier", modes=3.7), "modes must be integers"),
    (dict(kind="fourier", modes=np.nan), "modes must be integers"),
])
def test_operator_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        MeasurementOperator(**kwargs)


def test_problem_rejects_more_fourier_modes_than_grid_nodes():
    """Up to the node count the cosine modes stay independent on the grid
    and `reconstruct` recovers a measured state; one mode more aliases."""
    op = MeasurementOperator("fourier", modes=9)
    u = diffusion_truth().values
    np.testing.assert_allclose(op.reconstruct(op.apply(u, GRID), GRID), u, atol=1e-12)
    small_problem(op)
    too_many = MeasurementOperator("fourier", modes=10)
    with pytest.raises(ValueError, match="modes = 10 exceeds the grid's 9 nodes"):
        small_problem(too_many, data=np.zeros((1, 1, 9, 10)))


# ---------------------------------------------------------------------------
# noise


def test_noise_norm_is_exactly_ninety_percent_of_radius():
    truth = diffusion_truth()
    op = MeasurementOperator()
    y = generate_measurements(truth, op, delta=0.25, seed=4)
    clean = op.apply(truth.values, GRID)
    assert np.linalg.norm(y - clean) == pytest.approx(0.225, rel=1e-12)


def test_zero_radius_returns_clean_measurement():
    truth = diffusion_truth()
    op = MeasurementOperator("subsample", stride=2)
    y = generate_measurements(truth, op, delta=0.0, seed=9)
    np.testing.assert_array_equal(y, op.apply(truth.values, GRID))


def test_noise_seeds_give_different_draws_of_equal_norm():
    truth = diffusion_truth()
    op = MeasurementOperator()
    clean = op.apply(truth.values, GRID)
    y1 = generate_measurements(truth, op, delta=0.1, seed=0)
    y2 = generate_measurements(truth, op, delta=0.1, seed=1)
    assert not np.array_equal(y1, y2)
    assert np.linalg.norm(y1 - clean) == pytest.approx(np.linalg.norm(y2 - clean))


def test_negative_radius_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        generate_measurements(diffusion_truth(), MeasurementOperator(), -0.1)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_arithmetic_for_default_exponents():
    scheds = make_schedule(2.0, 1.0, 0.5)
    assert [s.m for s in scheds] == [1, 2, 3]
    np.testing.assert_allclose([s.eps for s in scheds],
                               [1.0, 2.0 ** -0.5, 3.0 ** -0.5], rtol=1e-15)
    # preserved rate min(alpha*gamma, beta) = 1, so lam grows linearly
    np.testing.assert_allclose([s.lam for s in scheds], [1.0, 2.0, 3.0])
    # mu = 1 / delta with delta = 2^-m
    np.testing.assert_allclose([s.mu for s in scheds], [2.0, 4.0, 8.0])
    np.testing.assert_allclose([s.nu for s in scheds],
                               [1.0, 1.0 / 8.0, 1.0 / 27.0])
    np.testing.assert_allclose([s.delta for s in scheds], [0.5, 0.25, 0.125])
    np.testing.assert_allclose([s.psi for s in scheds], [1.0, 4.0, 9.0])
    # a level carries the values the objective reads, nothing copied from the wrapper
    assert [f.name for f in fields(LevelSchedule)] == [
        "m", "eps", "lam", "mu", "nu", "delta", "psi"]


def test_schedule_prefactors_scale_linearly():
    base = make_schedule(2.0, 1.0, 0.5)
    tuned = make_schedule(2.0, 1.0, 0.5, lam0=300.0, mu0=10.0, nu0=0.5)
    for s0, s1 in zip(base, tuned):
        assert s1.lam == pytest.approx(300.0 * s0.lam)
        assert s1.mu == pytest.approx(10.0 * s0.mu)
        assert s1.nu == pytest.approx(0.5 * s0.nu)


@pytest.mark.parametrize("args, kwargs, match", [
    ((1.0, 1.0, 0.5), {}, "alpha must exceed 1"),
    ((2.0, 1.0, 1.0), {}, "gamma must satisfy 0 < gamma < beta"),
    ((2.0, 1.0, 0.0), {}, "gamma must satisfy"),
    ((2.0, 1.0, 0.5), dict(levels=(2, 1)), "strictly increasing"),
    ((2.0, 1.0, 0.5), dict(levels=(0, 1)), "start at 1"),
])
def test_schedule_validation(args, kwargs, match):
    with pytest.raises(ValueError, match=match):
        make_schedule(*args, **kwargs)


def test_two_level_schedule_with_non_vanishing_product_rejected():
    # the lam product only halves between the two levels, which is not
    # strictly below half, so the vanishing check must fire
    with pytest.raises(ValueError, match="does not vanish"):
        make_schedule(2.0, 1.0, 0.5, levels=(1, 2))


def test_level_schedule_field_validation():
    with pytest.raises(ValueError, match="level must be >= 1"):
        LevelSchedule(m=0, eps=1.0, lam=1.0, mu=1.0, nu=0.1, delta=0.5, psi=1.0)
    with pytest.raises(ValueError, match="lam must be positive"):
        LevelSchedule(m=1, eps=1.0, lam=0.0, mu=1.0, nu=0.1, delta=0.5, psi=1.0)


# ---------------------------------------------------------------------------
# problem assembly and objective identities


def test_pack_unpack_round_trip():
    prob = small_problem()
    rng = np.random.default_rng(11)
    D = rng.standard_normal((1, 1))
    u = rng.standard_normal((1, 1, 9, 9))
    u0 = rng.standard_normal((1, 1, 9))
    theta = rng.standard_normal(MLPReaction.parameter_count(prob.widths))
    D2, u2, u02, th2 = prob.unpack(prob.pack(D, u, u0, theta))
    np.testing.assert_array_equal(D2, D)
    np.testing.assert_array_equal(u2, u)
    np.testing.assert_array_equal(u02, u0)
    np.testing.assert_array_equal(th2, theta)


def test_project_lifts_d_and_scales_theta_onto_the_ball():
    prob = small_problem()
    psi = prob.schedule.psi
    rng = np.random.default_rng(12)
    u = rng.standard_normal((1, 1, 9, 9))
    u0 = rng.standard_normal((1, 1, 9))
    theta = rng.standard_normal(MLPReaction.parameter_count(prob.widths))
    outside = 3.0 * psi * theta / np.linalg.norm(theta)
    x = prob.pack([[-0.5]], u, u0, outside)
    y = prob.project(x)
    assert y is x
    D, u2, u02, th = prob.unpack(y)
    assert D[0, 0] == D_MIN
    assert u2.tobytes() == u.tobytes() and u02.tobytes() == u0.tobytes()
    assert np.linalg.norm(th) == pytest.approx(psi, rel=1e-14)
    np.testing.assert_allclose(th, outside / 3.0, rtol=1e-14)
    again = prob.project(y.copy())
    assert again.tobytes() == y.tobytes()

    inside = 0.5 * psi * theta / np.linalg.norm(theta)
    x = prob.pack([[0.25]], u, u0, inside)
    assert prob.project(x.copy()).tobytes() == x.tobytes()


def test_hold_fixes_only_what_a_descent_step_would_push_out():
    """`hold` zeroes each D at the floor whose gradient is positive, and
    removes theta's radial part only when theta is on the psi sphere and
    -g points outward: not inside the ball, nor on the sphere with -g
    inward. It leaves u and u0 alone, works in place, and is an orthogonal
    projection, idempotent and symmetric up to rounding."""
    prob = small_problem(data=np.zeros((3, 1, 9, 9)))
    psi = prob.schedule.psi
    rng = np.random.default_rng(21)
    n_theta = MLPReaction.parameter_count(prob.widths)
    direction = rng.standard_normal(n_theta)
    direction /= np.linalg.norm(direction)
    tangent = rng.standard_normal(n_theta)
    tangent -= np.dot(tangent, direction) * direction
    D = [[D_MIN], [D_MIN], [0.3]]
    gD = [[1.0], [-1.0], [1.0]]
    cases = {"inside, -g outward": (0.5 * psi, -1.0, False),
             "sphere, -g inward": (psi, 1.0, False),
             "sphere, -g outward": (psi, -1.0, True)}
    for label, (radius, sign, radial) in cases.items():
        theta = radius * direction
        x = prob.pack(D, rng.standard_normal((3, 1, 9, 9)), rng.standard_normal((3, 1, 9)), theta)
        g = prob.pack(gD, rng.standard_normal((3, 1, 9, 9)), rng.standard_normal((3, 1, 9)),
                      tangent + sign * direction)
        free = prob.hold(x, g)
        v, w = rng.standard_normal((2, prob.n_variables))
        pv = v.copy()
        assert free(pv) is pv, label
        (vD, vu, vu0, vth), (pD, pu, pu0, pth) = prob.unpack(v), prob.unpack(pv)
        assert pD.ravel().tolist() == [0.0, vD[1, 0], vD[2, 0]], label
        assert pu.tobytes() == vu.tobytes() and pu0.tobytes() == vu0.tobytes(), label
        if radial:
            np.testing.assert_allclose(pth, vth - np.dot(vth, direction) * direction,
                                       rtol=1e-12, atol=1e-14)
            assert abs(np.dot(pth, theta)) <= 1e-14 * np.linalg.norm(vth), label
        else:
            assert pth.tobytes() == vth.tobytes(), label
        np.testing.assert_allclose(free(pv.copy()), pv, rtol=1e-12, atol=1e-15)
        pw = free(w.copy())
        assert np.dot(pv, w) == pytest.approx(np.dot(v, pw), rel=1e-12), label


def test_zero_variables_cost_only_diffusion_floor():
    # zero states, zero data, zero parameters: every term vanishes except
    # |D|^2, and the initial iterate puts D at the floor
    op = MeasurementOperator()
    prob = small_problem(op, data=np.zeros((1, 1, 9, 9)))
    x = prob.pack(np.full((1, 1), D_MIN), np.zeros((1, 1, 9, 9)),
                  np.zeros((1, 1, 9)), np.zeros(MLPReaction.parameter_count(prob.widths)))
    terms = prob.objective_terms(x)
    assert terms["diffusion_reg"] == D_MIN ** 2
    nonzero = {k: v for k, v in terms.items() if v != 0.0}
    assert set(nonzero) == {"diffusion_reg"}
    assert prob.objective(x) == D_MIN ** 2


def test_truth_insertion_zeroes_the_data_terms():
    """A simulated trajectory inserted as the iterate has residual at
    solver rounding and misfits exactly zero, because the residual uses
    the same implicit-diffusion stencil the simulator stepped with."""
    truth = diffusion_truth()
    op = MeasurementOperator()
    prob = small_problem(op, data=op.apply(truth.values, GRID))
    x = prob.pack(np.full((1, 1), 0.05), truth.values[None],
                  truth.values[:, 0][None], np.zeros(MLPReaction.parameter_count(prob.widths)))
    terms = prob.objective_terms(x)
    assert terms["data_misfit"] == 0.0
    assert terms["init_misfit"] == 0.0
    assert terms["residual"] <= 1e-10


def test_doubling_lam_doubles_exactly_the_trajectory_blocks():
    truth = diffusion_truth()
    op = MeasurementOperator()
    data = generate_measurements(truth, op, delta=0.1, seed=2)
    base = make_schedule(2.0, 1.0, 0.5)[0]
    doubled = replace(base, lam=2.0 * base.lam)
    p1 = small_problem(op, data=data, sched=base)
    p2 = small_problem(op, data=data, sched=doubled)
    x = p1.initial_iterate(seed=3)
    t1 = p1.objective_terms(x)
    t2 = p2.objective_terms(x)
    assert t2["residual"] == 2.0 * t1["residual"]
    assert t2["init_misfit"] == 2.0 * t1["init_misfit"]
    for name in ("diffusion_reg", "state_reg", "initial_reg", "theta_reg",
                 "reaction_l2", "reaction_grad_sup", "data_misfit"):
        assert t2[name] == t1[name]


def test_objective_symmetric_under_trajectory_permutation():
    truth = diffusion_truth()
    op = MeasurementOperator()
    y0 = generate_measurements(truth, op, delta=0.1, seed=5)
    y1 = generate_measurements(truth, op, delta=0.1, seed=6)
    prob_a = small_problem(op, data=np.stack([y0, y1]))
    prob_b = small_problem(op, data=np.stack([y1, y0]))
    rng = np.random.default_rng(8)
    D = rng.standard_normal((2, 1)) ** 2 + 0.01
    u = rng.standard_normal((2, 1, 9, 9))
    u0 = rng.standard_normal((2, 1, 9))
    theta = rng.standard_normal(MLPReaction.parameter_count(prob_a.widths))
    xa = prob_a.pack(D, u, u0, theta)
    xb = prob_b.pack(D[::-1], u[::-1], u0[::-1], theta)
    assert prob_a.objective(xa) == prob_b.objective(xb)


OPERATORS = {
    "full": MeasurementOperator(),
    "subsample": MeasurementOperator("subsample", stride=2),
    "fourier": MeasurementOperator("fourier", modes=3),
}


@pytest.mark.parametrize("trajectories, species", [(1, 1), (3, 2)])
@pytest.mark.parametrize("kind", list(OPERATORS))
def test_gradient_matches_central_differences(kind, trajectories, species):
    """Directional derivatives on the problem shape the acceptance suite
    reuses (82 variables for one trajectory, one species and subsampled
    data), and on three trajectories of two species, where a layout error
    in the trajectory batch would show; observed worst relative error is
    about 2e-7, with the fourier operator, and 6e-8 with the others."""
    grid = SpaceTimeGrid(1.0, 8, 0.1, 5)
    sched = make_schedule(2.0, 1.0, 0.5)[0]
    rng = np.random.default_rng(7)
    op = OPERATORS[kind]
    L, N = trajectories, species
    data = rng.standard_normal(op.apply(np.zeros((L, N, 6, 8)), grid).shape)
    prob = AllAtOnceProblem(grid, (N, 8, N), build_mollified_heaviside(1.0),
                            sched, op, data, sup_points=128, l2_nodes=65)
    if (kind, L, N) == ("subsample", 1, 1):
        assert prob.n_variables == 82
    x = prob.initial_iterate(seed=1)
    x += 0.1 * rng.standard_normal(x.size)
    x[:L * N] = np.abs(x[:L * N]) + 0.05
    g = prob.gradient(x)
    h = 1e-6
    for _ in range(20):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        fd = (prob.objective(x + h * v) - prob.objective(x - h * v)) / (2.0 * h)
        assert abs(fd - float(g @ v)) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("kind", list(OPERATORS))
def test_trajectory_terms_are_the_sums_of_one_trajectory_problems(kind):
    """The batch over trajectories changes no trajectory term: each equals
    the sum of the same term over one-trajectory problems."""
    rng = np.random.default_rng(21)
    op = OPERATORS[kind]
    L, N = 3, 2
    data = rng.standard_normal(op.apply(np.zeros((L, N, 9, 9)), GRID).shape)
    whole = small_problem(op, data, widths=(N, 5, N))
    D, u, u0, theta = whole.unpack(
        whole.initial_iterate(seed=6) + 0.1 * rng.standard_normal(whole.n_variables))
    terms = whole.objective_terms(whole.pack(D, u, u0, theta))
    parts = []
    for l in range(L):
        one = small_problem(op, data[l:l + 1], widths=(N, 5, N))
        parts.append(one.objective_terms(
            one.pack(D[l:l + 1], u[l:l + 1], u0[l:l + 1], theta)))
    for name in ("residual", "init_misfit", "data_misfit"):
        total = sum(p[name] for p in parts)
        assert terms[name] == pytest.approx(total, rel=1e-13, abs=0.0), name


def test_a_gradient_makes_one_value_pass_for_all_trajectories(monkeypatch):
    """One network reverse pass for the L2 term and one over the points of
    every trajectory together, however many trajectories there are."""
    rng = np.random.default_rng(3)
    prob = small_problem(MeasurementOperator(), rng.standard_normal((3, 1, 9, 9)))
    x = prob.initial_iterate(seed=0)
    rows = []
    original = MLPReaction.vjp

    def counted(self, u, *args, **kwargs):
        rows.append(len(u))
        return original(self, u, *args, **kwargs)

    monkeypatch.setattr(MLPReaction, "vjp", counted)
    prob.gradient(x)
    assert rows == [len(prob._l2_pts), 3 * 8 * 9]


def test_gradient_from_a_kept_forward_pass_is_bitwise_fresh():
    """The problem keeps the forward pass of the last point it evaluated;
    a gradient taken from it, once or twice, equals one from a fresh
    problem, and neither another point nor an in-place change of x reuses
    a stale pass."""
    rng = np.random.default_rng(11)
    op = MeasurementOperator("subsample", stride=2)
    data = rng.standard_normal((2, 1, 5, 5))

    def fresh():
        return small_problem(op, data, widths=(1, 6, 1))

    prob = fresh()
    x = prob.initial_iterate(seed=2) + 0.1 * rng.standard_normal(prob.n_variables)
    y = x + 0.05 * rng.standard_normal(x.size)
    expected = fresh().gradient(x)

    prob.objective(x)
    assert prob.gradient(x).tobytes() == expected.tobytes()
    assert prob.gradient(x).tobytes() == expected.tobytes()
    assert prob.objective_terms(x) == fresh().objective_terms(x)

    prob.objective(y)
    assert prob.gradient(x).tobytes() == expected.tobytes()
    assert prob.gradient(y).tobytes() == fresh().gradient(y).tobytes()

    z = x.copy()
    prob.objective(z)
    z[-1] += 0.25
    assert prob.gradient(z).tobytes() == fresh().gradient(z).tobytes()
    assert prob.objective(z) == fresh().objective(z)


def test_a_dropped_problem_is_freed_without_the_cycle_collector():
    """The kept reverse pass holds no reference to its problem, so a level
    sweep frees each finished problem and its arrays at once."""
    prob = small_problem()
    prob.gradient(prob.initial_iterate(seed=1))
    ref = weakref.ref(prob)
    gc.disable()
    try:
        del prob
        assert ref() is None
    finally:
        gc.enable()


def test_objective_computes_no_lipschitz_certificate(monkeypatch):
    """`reaction(theta)` wraps once per objective evaluation; the wrapped
    term's certificate (one SVD per weight matrix) waits for its first read."""
    prob = small_problem(widths=(1, 6, 1))
    x = prob.initial_iterate(seed=4)
    theta = prob.unpack(x)[3]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", _refuse)
        patch.setattr(MLPReaction, "lipschitz_bound", _refuse)
        fbar = prob.reaction(theta)
        prob.objective(x)
        prob.gradient(x)
    cons = fbar.consistency_constants()
    assert cons.label == "certified"
    assert cons.lipschitz == MLPReaction(prob.widths, theta).lipschitz_bound()


def _refuse(*args, **kwargs):
    raise AssertionError("the Lipschitz certificate was computed")


def test_parameter_norm_gradient_is_the_unit_radial_field():
    # two schedules differing only in nu isolate the |theta| term
    truth = diffusion_truth()
    op = MeasurementOperator()
    data = op.apply(truth.values, GRID)
    base = make_schedule(2.0, 1.0, 0.5)[0]
    bumped = replace(base, nu=base.nu + 1.0)
    p1 = small_problem(op, data=data, sched=base)
    p2 = small_problem(op, data=data, sched=bumped)
    x = p1.initial_iterate(seed=12)
    diff = p2.gradient(x) - p1.gradient(x)
    _, _, _, theta = p1.unpack(x)
    expected = p1.pack(np.zeros((1, 1)), np.zeros((1, 1, 9, 9)),
                       np.zeros((1, 1, 9)), theta / np.linalg.norm(theta))
    np.testing.assert_allclose(diff, expected, atol=1e-12)


def test_non_finite_state_is_reported_by_term_name():
    prob = small_problem()
    x = prob.initial_iterate(seed=0)
    x[5] = np.nan
    with pytest.raises(FloatingPointError, match="state_reg"):
        prob.objective(x)


def test_two_dimensional_grids_rejected():
    grid = SpaceTimeGrid((1.0, 1.0), (5, 5), 0.1, 4)
    with pytest.raises(ValueError, match="1D grids"):
        AllAtOnceProblem(grid, (1, 4, 1), build_mollified_heaviside(1.0),
                         make_schedule(2.0, 1.0, 0.5)[0],
                         MeasurementOperator(),
                         np.zeros((1, 5, 5, 5)))


def test_data_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="does not end with one measurement"):
        small_problem(MeasurementOperator(), data=np.zeros((1, 1, 4, 4)))


# ---------------------------------------------------------------------------
# optimizer


def test_solve_level_history_is_monotone_and_projects_diffusion():
    truth = diffusion_truth()
    op = MeasurementOperator()
    prob = small_problem(op, data=op.apply(truth.values, GRID))
    res = solve_level(prob, step=0.02, max_iters=120, seed=0)
    assert np.all(np.diff(res.history) <= 1e-12)
    assert res.objective < res.history[0]
    assert np.all(res.D >= D_MIN)
    assert np.linalg.norm(res.theta) <= prob.schedule.psi + 1e-12
    assert res.iterations == len(res.history) - 1
    assert 0.0 <= res.state_containment <= 1.0


def test_solve_level_projects_an_infeasible_start():
    """The start is projected onto the feasible set before its objective is
    taken: a given x0 with D below the floor and theta outside the psi
    ball, which stays as given, and the initial iterate of a wide network
    at level 1, whose random theta has norm about 3.3 against psi = 1."""
    prob = small_problem()
    psi = prob.schedule.psi
    _, u, u0, theta = prob.unpack(prob.initial_iterate(0))
    x0 = prob.pack([[-0.5]], u, u0, 6.74 * theta / np.linalg.norm(theta))
    given = x0.copy()
    res = solve_level(prob, x0, max_iters=0)
    assert x0.tobytes() == given.tobytes()
    assert res.D[0, 0] == D_MIN
    assert np.linalg.norm(res.theta) <= psi * (1.0 + 1e-12)
    assert list(res.history) == [prob.objective(prob.project(x0.copy()))]

    wide = small_problem(widths=(1, 64, 64, 1))
    assert np.linalg.norm(wide.unpack(wide.initial_iterate(0))[3]) > 3.0 * psi
    res = solve_level(wide, max_iters=0, seed=0)
    assert np.linalg.norm(res.theta) <= psi * (1.0 + 1e-12)
    assert list(res.history) == [wide.objective(wide.project(wide.initial_iterate(0)))]


def test_solve_level_descends_along_a_small_psi_sphere(monkeypatch):
    """With Fisher-KPP data and psi = 0.05 the iterates reach the psi
    sphere and stay on it while -g points outward, so `hold` removes
    theta's radial part there; the history stays monotone and every
    iterate feasible."""
    u0 = 0.2 + 0.6 * GRID.axis(0)[None]
    truth = solve(make_reaction("fisher-kpp"), DiffusionSpec((0.05,)), u0, GRID)
    op = MeasurementOperator()
    sched = LevelSchedule(m=1, eps=1.0, lam=5.0, mu=10.0, nu=1e-3, delta=0.0625, psi=0.05)
    prob = small_problem(op, data=op.apply(truth.values, GRID), sched=sched)
    radial = []
    hold = prob.hold

    def recording_hold(x, g):
        free = hold(x, g)
        theta = prob.unpack(x)[3]
        probe = np.zeros(prob.n_variables)
        prob.unpack(probe)[3][:] = theta
        radial.append(np.linalg.norm(prob.unpack(free(probe))[3]) <= 1e-12 * np.linalg.norm(theta))
        return free

    monkeypatch.setattr(prob, "hold", recording_hold)
    res = solve_level(prob, step=0.02, max_iters=150, seed=0)
    assert len(radial) == res.iterations and sum(radial) > res.iterations // 2
    assert np.all(np.diff(res.history) <= 1e-12)
    assert np.linalg.norm(res.theta) <= 0.05 * (1.0 + 1e-12)
    assert np.all(res.D >= D_MIN)


def test_solve_level_says_why_it_stopped(monkeypatch):
    """The loop ends at its iteration cap, converged (a flat objective has
    no relative decrease over 50 iterations), or in a step underflow (every
    trial step, halved down to step 2^-40, raises the objective)."""
    prob = small_problem()
    res = solve_level(prob, step=0.02, max_iters=3)
    assert (res.stop_reason, res.iterations, res.converged) == ("iteration cap", 3, False)

    monkeypatch.setattr(prob, "objective", lambda x: 1.0)
    res = solve_level(prob, step=0.02, max_iters=100)
    assert (res.stop_reason, res.iterations, res.converged) == ("converged", 51, True)

    calls = []

    def rising(x):
        calls.append(x)
        return float(len(calls))

    monkeypatch.setattr(prob, "objective", rising)
    res = solve_level(prob, step=0.02, max_iters=100)
    assert (res.stop_reason, res.iterations, res.converged) == ("step underflow", 0, False)
    assert len(calls) == 1 + 41


def test_step_is_the_max_norm_length_of_first_and_reset_steps(monkeypatch):
    """The first step is steepest descent of max-norm length `step`. When
    all 41 trials along the L-BFGS direction fail, the memory is dropped
    and the same iteration retries steepest descent of that length."""
    prob = small_problem()
    trials = []

    def scripted(x):
        trials.append(np.array(x))
        # x0, the first trial of iteration 1, then 41 rejected trials and
        # one accepted trial in iteration 2
        return {1: 1.0, 2: 0.9, 44: 0.8}.get(len(trials), 2.0)

    monkeypatch.setattr(prob, "objective", scripted)
    res = solve_level(prob, step=0.02, max_iters=2)
    assert (res.stop_reason, res.iterations) == ("iteration cap", 2)
    assert list(res.history) == [1.0, 0.9, 0.8]
    assert len(trials) == 44
    assert np.max(np.abs(trials[1] - trials[0])) == pytest.approx(0.02, rel=1e-12)
    assert np.max(np.abs(trials[2] - trials[1])) != pytest.approx(0.02, rel=1e-6)
    assert np.max(np.abs(trials[43] - trials[1])) == pytest.approx(0.02, rel=1e-12)


def test_optimizer_never_lifts_misfit_off_its_floor(monkeypatch):
    """With clean full data, the truth inserted and a huge misfit weight,
    no accepted step may raise the data misfit above rounding scale.

    Every step starts with the gradient at the last accepted iterate, so
    recording the terms there sees x0 and each accepted iterate but the
    last, whose terms the result carries."""
    truth = diffusion_truth()
    op = MeasurementOperator()
    data = op.apply(truth.values, GRID)
    sched = LevelSchedule(m=1, eps=1.0, lam=5.0, mu=1e12, nu=1e-3,
                          delta=0.0625, psi=50.0)
    prob = small_problem(op, data=data, sched=sched)
    x0 = prob.pack(np.full((1, 1), 0.05), truth.values[None],
                   truth.values[:, 0][None], np.zeros(MLPReaction.parameter_count(prob.widths)))
    seen = []
    gradient = prob.gradient

    def recording_gradient(x):
        seen.append(prob.objective_terms(x))
        return gradient(x)

    monkeypatch.setattr(prob, "gradient", recording_gradient)
    res = solve_level(prob, x0, step=0.01, max_iters=50)
    assert len(seen) == res.iterations
    worst = max(t["data_misfit"] for t in seen + [res.terms])
    assert worst <= 1e-10
    # the truth lives in [0.3, 0.8], well inside the default box
    assert res.state_containment >= 0.99


def test_solve_level_loads_no_scipy_optimize():
    """The level solve is numpy alone: importing the CLI and running one
    level leaves scipy.optimize unloaded (its import costs about 19 MB)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rdlearn.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys, rdlearn.cli\n"
            f"sys.path.insert(0, {tests!r})\n"
            "from test_learn import small_problem\n"
            "from rdlearn.learn import solve_level\n"
            "solve_level(small_problem(), step=0.02, max_iters=5)\n"
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_blocked_dot_is_the_same_under_one_and_two_blas_threads():
    """Over 15006 entries one np.dot is split across two threads, and its
    rounding follows the split; the blocked dot gives the same bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rdlearn.__file__)))
    code = ("import numpy as np\n"
            "from rdlearn.learn import _dot\n"
            "rng = np.random.default_rng(5)\n"
            "a, b = rng.standard_normal(15006), rng.standard_normal(15006)\n"
            "print(_dot(a, b).hex(), _dot(a, a).hex())")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                   text=True, check=True, env=env).stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].split()) == 2


def test_learned_reaction_is_exactly_quasipositive_on_the_face():
    truth = diffusion_truth()
    op = MeasurementOperator()
    prob = small_problem(op, data=op.apply(truth.values, GRID))
    res = solve_level(prob, step=0.02, max_iters=60, seed=1)
    fbar = prob.reaction(res.theta)
    face = np.zeros((64, 1))
    assert np.all(fbar.eval(face) >= 0.0)


def test_identification_sweep_runs_the_level_loop():
    fisher = make_reaction("fisher-kpp")
    grid = SpaceTimeGrid(1.0, 9, 0.2, 8)
    u0 = (0.2 + 0.6 * grid.axis(0))[None, None]
    scheds = make_schedule(2.0, 1.0, 0.5, lam0=10.0)
    ops = [MeasurementOperator() for _ in scheds]
    rows, results = identification_sweep(
        fisher, 0.05, u0, grid, scheds, ops, (1, 4, 1), seed=0,
        step=0.05, max_iters=40, sup_points=32)
    assert [r.m for r in rows] == [1, 2, 3]
    for row, res in zip(rows, results):
        assert np.isfinite(row.sup_error) and row.sup_error > 0.0
        assert res.objective == sum(res.terms.values())
        assert res.theta.shape == (13,)
    assert len({tuple(r.theta) for r in results}) == 3


def test_identification_sweep_runs_two_species():
    """Two species reach the Halton sup-error probe and the 2D quadrature
    of the reaction box."""
    lv = make_reaction("lotka-volterra")
    grid = SpaceTimeGrid(1.0, 9, 0.2, 8)
    x = grid.axis(0)
    u0 = np.stack([np.stack([0.3 + 0.5 * x, 0.8 - 0.4 * x]),
                   np.stack([np.full(9, 0.6), 0.2 + 0.3 * x])])
    scheds = make_schedule(2.0, 1.0, 0.5, lam0=10.0)
    ops = [MeasurementOperator() for _ in scheds]
    rows, results = identification_sweep(
        lv, 0.05, u0, grid, scheds, ops, (2, 4, 2), seed=0,
        step=0.05, max_iters=5, sup_points=32)
    assert [r.m for r in rows] == [1, 2, 3]
    for row, res in zip(rows, results):
        assert np.isfinite([res.objective, res.terms["residual"], res.terms["data_misfit"],
                            row.sup_error, row.d_error]).all()
        assert res.theta.shape == (22,)
        assert res.D.shape == (2, 2)


def test_identification_sweep_takes_one_layout_of_initial_states():
    """Two one-species profiles given as (2, M) lack the species axis of
    the (L, n, M) layout; the error names u0_profiles and that layout."""
    fisher = make_reaction("fisher-kpp")
    grid = SpaceTimeGrid(1.0, 9, 0.2, 8)
    u0 = np.stack([0.2 + 0.6 * grid.axis(0), np.full(9, 0.4)])
    scheds = make_schedule(2.0, 1.0, 0.5)
    ops = [MeasurementOperator() for _ in scheds]
    with pytest.raises(ValueError, match=r"u0_profiles has shape \(2, 9\), expected \(L, n"):
        identification_sweep(fisher, 0.05, u0, grid, scheds, ops, (1, 4, 1))


def test_identification_sweep_rejects_mismatched_operator_count():
    fisher = make_reaction("fisher-kpp")
    grid = SpaceTimeGrid(1.0, 9, 0.2, 8)
    u0 = np.full((1, 9), 0.4)
    scheds = make_schedule(2.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="one operator per schedule level"):
        identification_sweep(fisher, 0.05, u0, grid, scheds,
                             [MeasurementOperator()], (1, 4, 1))
