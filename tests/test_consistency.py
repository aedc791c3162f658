"""Wrapper tests: exactness properties, derived constants, rate studies.

The wrapped-term identities (exact positivity on faces, bit-exact identity
off the cutoff support) hold with no tolerance and are asserted that way.
Gradients are checked against central differences away from the kink set
{f_n = 0}. Rate-study slopes are frozen from deterministic seeded runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdlearn.consistency
from rdlearn.consistency import (
    ConsistencyConstants,
    Cutoffs,
    WrapperSchedule,
    rate_preservation_study,
    strict_rate_estimate,
    wrap,
)
from rdlearn.reaction import AnalyticReaction, MLPReaction, check_conditions, make_reaction
from rdlearn.transition import TransitionFunction, build_mollified_heaviside


def constant_term(value):
    return AnalyticReaction(
        "const", 1,
        lambda u, v=value: np.full_like(u, v),
        lambda u: np.zeros((u.shape[0], 1, 1)),
    )


def test_negative_constant_wrapped_values():
    chi = build_mollified_heaviside(0.2)
    g = wrap(constant_term(-1.0), chi, lipschitz=0.0)
    assert g.eval(np.array([0.0]))[0] == 0.0
    # above eps + delta the cutoff is exactly zero, the term untouched
    assert g.eval(np.array([0.5]))[0] == -1.0


def test_two_species_product_example():
    def fn(u):
        p = u[:, 0] * u[:, 1] - 1.0
        return np.stack([p, p], axis=1)

    f = AnalyticReaction("prod", 2, fn)
    g = wrap(f, build_mollified_heaviside(0.2))
    np.testing.assert_array_equal(g.eval(np.array([1.0, 0.5])), [-0.5, -0.5])
    # on the first face only the first component is lifted
    np.testing.assert_array_equal(g.eval(np.array([0.0, 0.5])), [0.0, -1.0])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_face_values_equal_positive_part(seed):
    mlp = MLPReaction.from_seed((2, 8, 2), seed=seed, scale=1.5)
    g = wrap(mlp, build_mollified_heaviside(0.2))
    rng = np.random.default_rng(seed)
    pts = np.abs(rng.normal(size=(100, 2)))
    for n in range(2):
        face = pts.copy()
        face[:, n] = 0.0
        np.testing.assert_array_equal(
            g.eval(face)[:, n], np.maximum(mlp.eval(face)[:, n], 0.0)
        )


def test_sandwich_bounds():
    mlp = MLPReaction.from_seed((3, 16, 3), seed=11, scale=2.0)
    g = wrap(mlp, build_mollified_heaviside(0.2))
    rng = np.random.default_rng(5)
    W = rng.normal(size=(5000, 3))
    fb, f = g.eval(W), mlp.eval(W)
    assert np.all(fb <= np.maximum(f, 0.0))
    assert np.all(np.abs(fb) <= np.abs(f))


def test_identity_off_cutoff_support():
    fk = make_reaction("fisher-kpp")
    g = wrap(fk, build_mollified_heaviside(0.2), lipschitz=5.0)
    u = np.linspace(1.5, 3.0, 40)[:, None]  # f < 0 here, cutoff zero
    np.testing.assert_array_equal(g.eval(u), fk.eval(u))
    np.testing.assert_array_equal(g.jacobian(u), fk.jacobian(u))


def test_wrap_takes_one_cutoff():
    """Every component is lifted with the one cutoff chi; a sequence of
    cutoffs is not a cutoff."""
    chi = build_mollified_heaviside(0.2)
    f = make_reaction("lotka-volterra")
    for chis in ((chi, chi), [chi, chi], (chi,)):
        with pytest.raises(TypeError, match="one TransitionFunction"):
            wrap(f, chis, lipschitz=4.0)
    assert wrap(f, chi, lipschitz=4.0).chi is chi


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rows", [150, 1500, 4000])
def test_shared_cutoff_is_one_call_with_per_column_bits(n, rows, monkeypatch):
    """The cutoff is evaluated on the whole batch in one call, with the
    bits of a per-column evaluation, and so is its derivative."""
    chi = build_mollified_heaviside(0.3)
    rng = np.random.default_rng(rows + n)
    u = rng.uniform(0.0, 0.6, (rows, n))  # about half inside the ramp (0.15, 0.45)
    u[::37, 0] = np.nan
    u[5::41, n - 1] = np.nan
    calls = []

    def counted(name):
        method = getattr(TransitionFunction, name)

        def counting(self, x):
            calls.append(name)
            return method(self, x)
        return counting

    for name in ("evaluate", "derivative"):
        monkeypatch.setattr(TransitionFunction, name, counted(name))
    # the batch is read whole when f is not given, when some f_n < 0, or
    # when some u_n is NaN
    f = np.ones_like(u)
    negative = f.copy()
    negative[3, n - 1] = -1.0
    for given in (None, negative, f):
        calls.clear()
        cut = Cutoffs(chi, u, given)
        values, derivatives = cut.values, cut.derivatives
        assert calls == ["evaluate", "derivative"]
        expected = np.column_stack([chi.evaluate(u[:, k]) for k in range(n)])
        assert values.tobytes() == expected.tobytes()
        expected = np.column_stack([chi.derivative(u[:, k]) for k in range(n)])
        assert derivatives.tobytes() == expected.tobytes()
        assert np.isnan(values[::37, 0]).all()
    # otherwise its values and derivatives are exact zeros, and no call is made
    calls.clear()
    finite = np.nan_to_num(u)
    cut = Cutoffs(chi, finite, f)
    assert cut.values.tobytes() == cut.derivatives.tobytes() == np.zeros_like(u).tobytes()
    assert calls == []


def cross_term():
    """f_0 = 0.3 - u_1, f_1 = u_0 - 0.2: f_0 does not read u_0, so a NaN
    u_0 leaves f_0 finite and possibly nonnegative."""
    def fn(u):
        return np.stack([0.3 - u[:, 1], u[:, 0] - 0.2], axis=1)

    def jac(u):
        J = np.zeros((u.shape[0], 2, 2))
        J[:, 0, 1], J[:, 1, 0] = -1.0, 1.0
        return J

    return AnalyticReaction("cross", 2, fn, jac)


class EveryCutoff(Cutoffs):
    """`Cutoffs` that reads chi on every batch: the reference, lift(f, chi(u))."""

    def __init__(self, chi, u, f=None):
        super().__init__(chi, u)


@pytest.mark.parametrize("base", ["mlp", "analytic"])
def test_unread_cutoffs_keep_the_results_of_every_cutoff(base, monkeypatch):
    """Skipping the cutoffs of a batch with no f_n < 0 keeps the values of
    lift(f, chi(u)) bit for bit; gradients may differ only in the sign of a
    zero. The batches: mixed signs, f >= 0 everywhere, f_1 >= 0 with f_0
    mixed, and f >= 0 with a NaN u_0 in one row."""
    chi = build_mollified_heaviside(0.3)
    f = MLPReaction.from_seed((2, 8, 2), seed=6, scale=1.5) if base == "mlp" else cross_term()
    g = wrap(f, chi, lipschitz=1.0)
    rng = np.random.default_rng(12)
    u = rng.uniform(0.0, 0.6, (2000, 2))
    fu = f.eval(u)
    batches = {"mixed": u[:400], "nonnegative": u[(fu >= 0.0).all(axis=1)][:50],
               "f_1 nonnegative": u[fu[:, 1] >= 0.0][:80]}
    assert 0.0 < (f.eval(batches["f_1 nonnegative"])[:, 0] < 0.0).mean() < 1.0
    assert len(batches["nonnegative"]) == 50
    with_nan = batches["nonnegative"].copy()
    with_nan[7, 0] = np.nan
    batches["nonnegative with NaN"] = with_nan

    def results(v):
        n = len(v)
        cot = rng.normal(size=v.shape)
        cot_jac = rng.normal(size=(n, 2, 2))
        out = {"eval": g.eval(v), "point": g.eval(v[7]), "jacobian": g.jacobian(v)}
        if base == "mlp":
            tape = g.forward(v)
            out["forward"], out["forward_f"] = tape.value, tape.f
            out["value_vjp"] = np.concatenate(g.value_vjp(cot, tape), axis=None)
            out["jac_vjp"] = g.jac_vjp(v, cot_jac)
        return out

    for label, v in batches.items():
        state = rng.bit_generator.state
        got = results(v)
        rng.bit_generator.state = state
        with monkeypatch.context() as m:
            m.setattr(rdlearn.consistency, "Cutoffs", EveryCutoff)
            ref = results(v)
        for name in ("eval", "point", "forward", "forward_f"):
            if name in ref:
                assert got[name].tobytes() == ref[name].tobytes(), (label, name)
        for name in ("jacobian", "value_vjp", "jac_vjp"):
            if name in ref:
                assert np.array_equal(got[name], ref[name], equal_nan=True), (label, name)
    # a NaN u_0 gives a NaN fbar_0, also where f_0 >= 0
    assert np.isnan(g.eval(with_nan)[7, 0])
    if base == "analytic":
        assert f.eval(with_nan)[7, 0] >= 0.0


def test_a_batch_with_no_negative_value_reads_no_cutoff(monkeypatch):
    """Where f >= 0 the lift reads no cutoff, so none is evaluated: a batch
    with no negative entry makes no `TransitionFunction.evaluate` call. A
    batch with one negative component is read whole, in one call."""
    widths = (2, 8, 2)
    theta = np.zeros(MLPReaction.parameter_count(widths))
    theta[-2:] = 0.5  # the output bias: f = (0.5, 0.5) everywhere
    chi = build_mollified_heaviside(0.3)
    u = np.random.default_rng(2).uniform(0.0, 0.6, (300, 2))  # half in the ramp
    calls = []
    evaluate = TransitionFunction.evaluate

    def counting(self, x):
        calls.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(TransitionFunction, "evaluate", counting)
    g = wrap(MLPReaction(widths, theta), chi)
    g.eval(u)
    tape = g.forward(u)
    g.value_vjp(np.ones_like(u), tape)
    g.jacobian(u)
    g.jac_vjp(u, np.ones((300, 2, 2)))
    wrap(make_reaction("fisher-kpp"), chi, lipschitz=5.0).eval(u[:, :1])
    assert calls == []

    theta[-2] = -0.5  # f_0 < 0 everywhere, f_1 > 0
    values = wrap(MLPReaction(widths, theta), chi).eval(u)
    assert calls == [600]
    np.testing.assert_array_equal(values[:, 0], -0.5 + 0.5 * evaluate(chi, u[:, 0]))
    np.testing.assert_array_equal(values[:, 1], 0.5)


def test_weight_validation():
    f = make_reaction("fisher-kpp")
    with pytest.raises(ValueError, match="positive"):
        wrap(f, build_mollified_heaviside(0.2)).consistency_constants(c=[0.0])


def test_jacobian_matches_finite_differences_away_from_kinks():
    mlp = MLPReaction.from_seed((3, 16, 3), seed=11, scale=2.0)
    g = wrap(mlp, build_mollified_heaviside(0.2))
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.05, 0.35, size=(50, 3))
    keep = np.all(np.abs(mlp.eval(pts)) > 1e-3, axis=1)
    pts = pts[keep]
    J = g.jacobian(pts)
    h = 1e-6
    Jfd = np.zeros_like(J)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        Jfd[:, :, j] = (g.eval(pts + e) - g.eval(pts - e)) / (2 * h)
    np.testing.assert_allclose(J, Jfd, rtol=1e-5, atol=1e-6)


def test_jacobian_equals_base_where_positive():
    fk = make_reaction("fisher-kpp")
    g = wrap(fk, build_mollified_heaviside(0.2), lipschitz=5.0)
    u = np.linspace(0.05, 0.25, 30)[:, None]  # f = u(1-u) > 0 on the ramp
    np.testing.assert_array_equal(g.jacobian(u), fk.jacobian(u))


def test_value_vjp_matches_finite_differences():
    mlp = MLPReaction.from_seed((3, 16, 3), seed=11, scale=2.0)
    chi = build_mollified_heaviside(0.2)
    g = wrap(mlp, chi)
    rng = np.random.default_rng(5)
    P = rng.uniform(0.0, 0.4, size=(9, 3))
    cot = rng.normal(size=(9, 3))
    theta_grad, u_grad = g.value_vjp(cot, g.forward(P))

    def scalar(theta):
        return float(np.sum(wrap(MLPReaction(mlp.widths, theta), chi).eval(P) * cot))

    h = 1e-6
    for i in rng.choice(mlp.theta.size, 20, replace=False):
        e = np.zeros(mlp.theta.size)
        e[i] = h
        fd = (scalar(mlp.theta + e) - scalar(mlp.theta - e)) / (2 * h)
        assert theta_grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    for s in range(P.shape[0]):
        for j in range(3):
            e = np.zeros_like(P)
            e[s, j] = h
            fd = (float(np.sum(g.eval(P + e) * cot))
                  - float(np.sum(g.eval(P - e) * cot))) / (2 * h)
            assert u_grad[s, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_jac_vjp_matches_finite_differences():
    mlp = MLPReaction.from_seed((3, 16, 3), seed=11, scale=2.0)
    chi = build_mollified_heaviside(0.2)
    g = wrap(mlp, chi)
    rng = np.random.default_rng(5)
    P = rng.uniform(0.0, 0.4, size=(9, 3))
    cj = rng.normal(size=(9, 3, 3))
    grad = g.jac_vjp(P, cj)

    def scalar(theta):
        gg = wrap(MLPReaction(mlp.widths, theta), chi)
        return float(np.sum(gg.jacobian(P) * cj))

    h = 1e-6
    for i in rng.choice(mlp.theta.size, 20, replace=False):
        e = np.zeros(mlp.theta.size)
        e[i] = h
        fd = (scalar(mlp.theta + e) - scalar(mlp.theta - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-7)


def test_jac_vjp_runs_the_base_forward_pass_once(monkeypatch):
    """The lift's partials take f from the base network's value and
    Jacobian pass, and the base's second-order pass replays that pass."""
    g = wrap(MLPReaction.from_seed((2, 8, 2), seed=4), build_mollified_heaviside(0.2))
    rows = []
    original = MLPReaction.forward

    def counted(self, U):
        rows.append(len(U))
        return original(self, U)

    monkeypatch.setattr(MLPReaction, "forward", counted)
    P = np.random.default_rng(6).uniform(0.0, 0.4, size=(5, 2))
    g.jac_vjp(P, np.ones((5, 2, 2)))
    assert rows == [5]


def test_reverse_helpers_require_parameterized_base():
    """`value_vjp` replays a tape that only `forward` makes."""
    g = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2))
    with pytest.raises(TypeError, match="parameterized"):
        g.forward(np.array([[0.1]]))
    with pytest.raises(TypeError, match="parameterized"):
        g.jac_vjp(np.array([[0.1]]), np.array([[[1.0]]]))


def test_constants_for_negative_constant():
    g = wrap(constant_term(-1.0), build_mollified_heaviside(0.2), lipschitz=0.0)
    cons = g.consistency_constants()
    assert cons == ConsistencyConstants(0.0, 0.0, 4.0, 0.0, "sampled")


def test_constants_certified_for_parameterized():
    mlp = MLPReaction.from_seed((3, 16, 3), seed=11, scale=2.0)
    g = wrap(mlp, build_mollified_heaviside(0.2))
    cons = g.consistency_constants()
    assert cons.label == "certified"
    assert cons.K0 == 0.0  # zero biases make f(0) = 0
    assert cons.lipschitz == pytest.approx(11.681803159964042, rel=1e-10)
    assert cons.K1 == pytest.approx(cons.lipschitz * math.sqrt(3) * 3, rel=1e-12)
    assert cons.growth_K == pytest.approx(4.0 * cons.lipschitz, rel=1e-12)
    # a bound passed in wins over the base's certificate
    given = wrap(mlp, build_mollified_heaviside(0.2), lipschitz=2.5)
    assert given.consistency_constants().lipschitz == 2.5
    assert given.consistency_constants().label == "sampled"


@pytest.mark.parametrize("c", [[-1.0, 0.0], [1.0]], ids=["nonpositive", "short"])
def test_constants_reject_the_weights_check_conditions_rejects(c):
    """Mass weights are given where mass is measured, and both places
    reject a bad one with the same message."""
    mlp = MLPReaction.from_seed((2, 4, 2), seed=0)
    wrapped = wrap(mlp, build_mollified_heaviside(0.2))
    with pytest.raises(ValueError) as at_check:
        check_conditions(wrapped, [0.0, 0.0], [1.0, 1.0], samples=10, c=c)
    with pytest.raises(ValueError) as at_constants:
        wrapped.consistency_constants(c=c)
    assert str(at_constants.value) == str(at_check.value)


def test_constants_without_a_lipschitz_bound_are_unavailable():
    """A catalog term carries no certificate: wrapped without `lipschitz`,
    only K0 is derived, and the constants say they are unavailable."""
    g = wrap(make_reaction("fisher-kpp"), build_mollified_heaviside(0.2))
    assert g.consistency_constants() == ConsistencyConstants(0.0, None, None, None, "unavailable")


def test_local_lipschitz_profile():
    """The box bound on boxes held by origin balls of radius M: 2 for the
    corner (1.2, 1.6), 1 for [-1, 1]."""
    mlp = MLPReaction.from_seed((2, 8, 2), seed=2)
    chi = build_mollified_heaviside(0.2)
    g = wrap(mlp, chi)
    L = mlp.lipschitz_bound()
    M = 2.0
    expected = L * M * chi.slope_bound + 2.0 * L  # f(0) = 0 here
    assert g.lipschitz_bound([-1.2, -1.6], [1.2, 1.6]) == pytest.approx(expected, rel=1e-12)
    lo, hi = [-1.0, -1.0], [1.0, 1.0]
    assert g.sampled_lipschitz(lo, hi, samples=2000) <= g.lipschitz_bound(lo, hi)
    assert wrap(make_reaction("fisher-kpp"), chi).lipschitz_bound([-1.0], [1.0]) is None


def test_box_ball_radius_is_the_norm_of_the_farthest_corner():
    """lo = (-3, 0), hi = (0.5, 5): the lower corner dominates the first
    coordinate and the upper corner the second, so the farthest corner is
    (-3, 5) at sqrt(34), beyond both |lo| = 3 and |hi| = 5.02."""
    g = wrap(MLPReaction.from_seed((2, 8, 2), seed=2), build_mollified_heaviside(0.2))
    lo, hi = [-3.0, 0.0], [0.5, 5.0]
    L, slope = g.base.lipschitz_bound(), g.chi.slope_bound
    assert g.lipschitz_bound(lo, hi) == L * math.sqrt(34.0) * slope + 2.0 * L  # f(0) = 0
    assert check_conditions(g, lo, hi, samples=200).ball_radius == math.sqrt(34.0)


def test_mass_inequality_with_derived_constants():
    mlp = MLPReaction.from_seed((3, 16, 3), seed=11, scale=2.0)
    g = wrap(mlp, build_mollified_heaviside(0.2))
    cons = g.consistency_constants()
    rng = np.random.default_rng(5)
    U = np.abs(rng.normal(size=(5000, 3)))
    margin = g.eval(U) @ np.ones(3) - (cons.K0 + cons.K1 * U.sum(axis=1))
    assert margin.max() < 0.0


def test_check_conditions_on_wrapped_term():
    mlp = MLPReaction.from_seed((2, 10, 2), seed=4, scale=2.0)
    g = wrap(mlp, build_mollified_heaviside(0.1))
    report = check_conditions(g, [0, 0], [2, 2], samples=2000)
    assert report.quasipos_ok
    assert report.mass_ok
    assert report.growth_ok
    assert report.constants.label == "certified"


def test_check_conditions_summary_shows_the_certified_bound():
    mlp = MLPReaction.from_seed((2, 4, 2), seed=3)
    g = wrap(mlp, build_mollified_heaviside(0.2))
    lo, hi = [0.0, 0.0], [1.0, 1.0]
    report = check_conditions(g, lo, hi, samples=500)
    assert report.constants.label == "certified"
    assert report.constants.lipschitz == g.lipschitz_bound(lo, hi)
    assert report.lipschitz_estimate <= report.constants.lipschitz
    line = report.summary().splitlines()[1]
    assert line.startswith("(L) Lipschitz estimate on ball radius ")
    assert line.endswith(f" (certified bound {report.constants.lipschitz:.6g})")


def test_schedule_properties():
    sched = WrapperSchedule(alpha=2.0, beta=1.0, gamma=0.5)
    assert sched.eps(4) == 0.5
    assert sched.preserved_rate == 1.0  # gamma = beta/alpha recovers beta
    assert sched.eps(16) < sched.eps(4)
    chi = build_mollified_heaviside(sched.eps(4))
    assert chi.eps == 0.5
    assert chi.delta == 0.25
    half = WrapperSchedule(alpha=4.0, beta=1.0, gamma=0.125)
    assert half.preserved_rate == 0.5


def test_schedule_validation():
    with pytest.raises(ValueError, match="alpha"):
        WrapperSchedule(alpha=1.0, beta=1.0, gamma=0.5)
    with pytest.raises(ValueError, match="beta"):
        WrapperSchedule(alpha=2.0, beta=0.0, gamma=0.5)
    with pytest.raises(ValueError, match="gamma"):
        WrapperSchedule(alpha=2.0, beta=1.0, gamma=1.5)
    with pytest.raises(ValueError, match="gamma"):
        WrapperSchedule(alpha=2.0, beta=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="level index"):
        WrapperSchedule(alpha=2.0, beta=1.0, gamma=0.5).eps(0)


def cubic_target():
    return AnalyticReaction("t", 1, lambda u: -(u ** 2) * (1.0 - u))


def test_rate_preservation_shift_family():
    """Raw rate 1 family with eps_m = m^(-1/2): the full rate survives."""
    target = cubic_target()
    sched = WrapperSchedule(alpha=2.0, beta=1.0, gamma=0.5)

    def family(m):
        return AnalyticReaction(
            "shift", 1, lambda u, m=m: -(u ** 2) * (1.0 - u) + 1.0 / m
        )

    study = rate_preservation_study(target, family, sched, [0.0], [1.0],
                                    [4, 8, 16, 32, 64])
    levels = np.array([4, 8, 16, 32, 64], dtype=float)
    np.testing.assert_allclose(study.sup_raw, 1.0 / levels, rtol=1e-12)
    assert study.fitted_slope == pytest.approx(-0.9842316432901194, abs=1e-8)
    assert -1.15 <= study.fitted_slope <= -0.85
    assert sched.preserved_rate == 1.0
    rows = list(study.rows())
    assert rows[0][0] == 4 and rows[0][1] == 0.5


def test_rate_preservation_exact_approximants():
    """With a perfect family the wrapping error alone decays like eps^alpha.

    Here sup |negative part| over the layer {u <= 1.5 eps} is at most
    (1.5 eps)^2 = 2.25/m, and the fitted slope approaches -alpha*gamma = -1
    from above as the levels grow.
    """
    target = cubic_target()
    sched = WrapperSchedule(alpha=2.0, beta=1.0, gamma=0.5)
    small = rate_preservation_study(target, lambda m: target, sched,
                                    [0.0], [1.0], [4, 8, 16, 32, 64])
    assert np.all(small.sup_raw == 0.0)
    bound = 2.25 / small.levels.astype(float)
    assert np.all(small.sup_wrapped <= bound)
    large = rate_preservation_study(target, lambda m: target, sched,
                                    [0.0], [1.0], [16, 32, 64, 128, 256])
    assert large.fitted_slope == pytest.approx(-0.9333, abs=2e-3)
    assert -1.15 <= large.fitted_slope <= -0.85


def test_rate_study_needs_three_levels():
    sched = WrapperSchedule(alpha=2.0, beta=1.0, gamma=0.5)
    with pytest.raises(ValueError, match="3 levels"):
        rate_preservation_study(cubic_target(), lambda m: cubic_target(),
                                sched, [0.0], [1.0], [4, 8])


def test_strict_rate_estimates():
    box = ([0.0], [1.0])
    eps = [0.4, 0.2, 0.1, 0.05]
    quad = AnalyticReaction("q", 1, lambda u: -(u ** 2))
    frac = AnalyticReaction("q", 1, lambda u: -np.abs(u) ** 1.5)
    nonneg = AnalyticReaction("q", 1, lambda u: u.copy())
    assert strict_rate_estimate(quad, *box, 0, eps) == pytest.approx(2.0, abs=1e-6)
    assert strict_rate_estimate(frac, *box, 0, eps) == pytest.approx(1.5, abs=1e-6)
    assert strict_rate_estimate(nonneg, *box, 0, eps) == math.inf


def test_strict_rate_validation():
    f = AnalyticReaction("q", 1, lambda u: -(u ** 2))
    with pytest.raises(ValueError, match="decreasing"):
        strict_rate_estimate(f, [0.0], [1.0], 0, [0.1, 0.2, 0.4])
    with pytest.raises(ValueError, match="3 eps"):
        strict_rate_estimate(f, [0.0], [1.0], 0, [0.4, 0.2])
    with pytest.raises(ValueError, match="out of range"):
        strict_rate_estimate(f, [0.0], [1.0], 3, [0.4, 0.2, 0.1])
