"""Boundary-layer membership, layer measures, and modification tests.

Monte-Carlo checks compare against closed-form volume oracles computed in
this file (box volume minus the offset-box volume; 5/3 for the level-1
nonlinear section of the plane, from integrating the x^{-4} tail).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdlearn.quasipos import (
    BoundaryLayer,
    BoundaryMeasure,
    approximation_experiment,
    modify,
    nonlinear_volume_report,
    sample_members,
    section_profile,
)
from rdlearn.reaction import make_reaction


def test_metric_membership_is_distance_to_faces():
    layer = BoundaryLayer(eps=0.1, mode="metric", hi=(1.0, 1.0))
    assert layer.members((0.05, 0.7))  # distance 0.05 to the face x1 = 0
    assert not layer.members((0.15, 0.7))
    assert not layer.members((0.1, 0.7))  # strict inequality at the shell


def test_nonlinear_membership_via_profile_product():
    layer = BoundaryLayer(eps=8.0, mode="nonlinear", dim=2)
    assert layer.level_value((0.25, 4.0)) == 8.0  # sqrt(0.25) * 4^2
    assert layer.members((0.25, 4.0))
    assert not dataclasses.replace(layer, eps=7.9).members((0.25, 4.0))


def test_componentwise_membership():
    layer = BoundaryLayer(eps=0.05, mode="componentwise", hi=(1.0, 1.0), component=1)
    assert layer.members((0.3, 0.05))  # closed inequality
    assert not BoundaryLayer(eps=0.05, mode="componentwise", hi=(1.0, 1.0),
                             component=0).members((0.3, 0.05))


def test_face_points_are_members_at_every_width():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, size=(200, 3))
    pts[:, 1] = 0.0
    for eps in (1e-9, 1e-3, 0.5):
        assert np.all(BoundaryLayer(eps=eps, mode="metric", hi=(1, 1, 1)).members(pts))
        assert np.all(BoundaryLayer(eps=eps, mode="nonlinear", dim=3).members(pts))
        assert np.all(BoundaryLayer(eps=eps, mode="componentwise", hi=(1, 1, 1),
                                    component=1).members(pts))


@settings(max_examples=30, deadline=None)
@given(e1=st.floats(0.01, 1.0), scale=st.floats(1.01, 5.0),
       mode=st.sampled_from(["metric", "componentwise", "nonlinear"]))
def test_membership_monotone_in_eps(e1, scale, mode):
    hi = None if mode == "nonlinear" else (1.0, 1.0)
    dim = 2 if mode == "nonlinear" else None
    narrow = BoundaryLayer(eps=e1, mode=mode, hi=hi, dim=dim)
    wide = dataclasses.replace(narrow, eps=e1 * scale)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(500, 2))
    inner, outer = narrow.members(pts), wide.members(pts)
    assert np.all(outer[inner])


def test_membership_monotone_dense():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
    levels = [0.02, 0.05, 0.1, 0.2, 0.4]
    for mode, kw in (("metric", {"hi": (1.0, 1.0)}),
                     ("componentwise", {"hi": (1.0, 1.0)}),
                     ("nonlinear", {"dim": 2})):
        prev = None
        for eps in levels:
            cur = BoundaryLayer(eps=eps, mode=mode, **kw).members(pts)
            if prev is not None:
                assert np.all(cur[prev])
            prev = cur


def test_domain_validation():
    layer = BoundaryLayer(eps=0.1, mode="metric", hi=(1.0, 1.0))
    with pytest.raises(ValueError, match="negative"):
        layer.members((-0.1, 0.5))
    with pytest.raises(ValueError, match="box"):
        layer.members((0.5, 1.5))
    with pytest.raises(ValueError, match="expected points"):
        layer.members((0.5, 0.5, 0.5))


def test_layers_read_points_by_the_rule_of_reaction_terms():
    """A 1-D array is one point for a one-dimensional layer too, as it is
    for a one-species reaction term: three numbers are not three points."""
    layer = BoundaryLayer(eps=0.2, mode="metric", hi=(1.0,))
    three = np.array([0.05, 0.5, 0.9])
    with pytest.raises(ValueError, match=r"expected points in R\^1"):
        layer.members(three)
    with pytest.raises(ValueError, match=r"expected points in R\^1"):
        make_reaction("fisher-kpp").eval(three)
    one = layer.members(np.array([0.05]))
    assert np.ndim(one) == 0 and one
    assert layer.members(three[:, None]).tolist() == [True, False, False]
    lifted = modify(lambda p: p[:, 0] - 0.1, layer, 0.1)(np.array([0.0]))
    assert np.ndim(lifted) == 0 and lifted == 0.0


def test_layer_validation():
    with pytest.raises(ValueError, match="eps"):
        BoundaryLayer(eps=0.0, mode="metric", hi=(1.0,))
    with pytest.raises(ValueError, match="mode"):
        BoundaryLayer(eps=0.1, mode="radial", hi=(1.0,))
    with pytest.raises(ValueError, match="dim"):
        BoundaryLayer(eps=0.1, mode="nonlinear")
    with pytest.raises(ValueError, match="component"):
        BoundaryLayer(eps=0.1, mode="componentwise", hi=(1.0, 1.0), component=2)
    with pytest.raises(ValueError, match="disagrees"):
        BoundaryLayer(eps=0.1, mode="metric", hi=(1.0, 1.0), dim=3)


@pytest.mark.parametrize("corner", [(np.nan, 1.0), (np.inf, 1.0), (0.0, 1.0)])
def test_box_corners_must_be_positive_and_finite(corner):
    with pytest.raises(ValueError, match="upper corner"):
        BoundaryMeasure(corner)
    with pytest.raises(ValueError, match="upper corner"):
        BoundaryLayer(eps=0.1, hi=corner)


def test_unit_cube_measure_closed_form():
    phi2 = BoundaryMeasure([1.0, 1.0])
    assert phi2.measure(0.5) == 0.75
    assert phi2.measure(0.0) == 0.0
    assert phi2.measure(2.0) == 1.0  # saturates once the layer swallows the cube
    phi3 = BoundaryMeasure([1.0, 1.0, 1.0])
    assert phi3.measure(0.1) == pytest.approx(0.271, rel=1e-12)
    widths = np.linspace(0.0, 1.2, 50)
    vals = [phi3.measure(w) for w in widths]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError, match=">= 0"):
        phi3.measure(-0.1)


def test_measure_monte_carlo_matches_closed_form():
    phi = BoundaryMeasure([1.0, 1.0, 1.0], samples=200_000)
    for x in (0.1, 0.25, 0.5):
        exact = 1.0 - (1.0 - x) ** 3
        est, half = phi.estimate(x)
        assert half > 0.0
        assert abs(est - exact) <= 3.0 * half


def test_measure_general_box_against_offset_oracle():
    hi = (2.0, 1.5)
    phi = BoundaryMeasure(hi, samples=200_000)
    assert not phi.is_unit_cube
    for x in (0.2, 0.3, 0.7):
        exact = np.prod(hi) - np.prod([max(h - x, 0.0) for h in hi])
        est, half = phi.estimate(x)
        assert abs(est - exact) <= 3.0 * half
        assert phi.measure(x) == est  # measure falls back to the estimate off the cube


def test_modify_keeps_nonnegative_functions():
    layer = BoundaryLayer(eps=0.2, mode="metric", hi=(1.0,))
    f = lambda p: p[:, 0] + 0.2
    fmod = modify(f, layer, 0.1)
    grid = np.linspace(0.0, 1.0, 501)[:, None]
    np.testing.assert_array_equal(fmod(grid), f(grid))


def test_modify_negative_constant():
    layer = BoundaryLayer(eps=0.2, mode="metric", hi=(1.0,))
    fmod = modify(lambda p: np.full(p.shape[0], -1.0), layer, 0.1)
    assert fmod(np.array([0.0])) == 0.0
    assert np.all(fmod(np.linspace(0.3, 1.0, 50)[:, None]) == -1.0)


def test_modify_linear_sup_error():
    layer = BoundaryLayer(eps=0.2, mode="metric", hi=(1.0,))
    f = lambda p: p[:, 0] - 0.05
    fmod = modify(f, layer, 0.1)
    grid = np.linspace(0.0, 1.0, 20_001)[:, None]
    sup = np.max(np.abs(fmod(grid) - f(grid)))
    assert sup == 0.05  # attained at x = 0 where the value is lifted to 0


def test_modify_plateau_identities():
    layer = BoundaryLayer(eps=0.3, mode="metric", hi=(1.0, 1.0))
    f = lambda p: np.sin(7.0 * p[:, 0]) * np.cos(5.0 * p[:, 1]) - 0.2
    fmod = modify(f, layer, 0.1)
    rng = np.random.default_rng(3)
    inner = rng.uniform(0.0, 0.19, size=(300, 2))
    np.testing.assert_array_equal(fmod(inner), np.maximum(f(inner), 0.0))
    outer = rng.uniform(0.41, 1.0, size=(300, 2))
    np.testing.assert_array_equal(fmod(outer), f(outer))


def test_modified_is_exactly_nonnegative_on_faces():
    layer = BoundaryLayer(eps=0.15, mode="metric", hi=(1.0, 1.0))
    f = lambda p: np.sin(9.0 * p[:, 0] + 4.0) + np.sin(5.0 * p[:, 1]) - 0.2
    fmod = modify(f, layer, 0.05)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 1.0, size=(500, 2))
    for n in range(2):
        face = pts.copy()
        face[:, n] = 0.0
        assert np.any(f(face) < 0.0)  # the raw check would fail here
        assert np.all(fmod(face) >= 0.0)


def test_modify_validation():
    layer = BoundaryLayer(eps=0.2, mode="metric", hi=(1.0,))
    with pytest.raises(ValueError, match="delta"):
        modify(lambda p: p[:, 0], layer, 0.2)
    with pytest.raises(ValueError, match="delta"):
        modify(lambda p: p[:, 0], layer, 0.0)


def test_approximation_experiment_alternating_family():
    layer = BoundaryLayer(eps=0.5, mode="metric", hi=(1.0,))

    def family(m):
        return lambda p, m=m: p[:, 0] + ((-1.0) ** m) / m

    levels = range(1, 7)
    study = approximation_experiment(
        lambda p: p[:, 0], family,
        [0.4 / m for m in levels], [0.2 / m for m in levels], layer,
    )
    inv_m = 1.0 / study.levels.astype(float)
    np.testing.assert_allclose(study.raw_error, inv_m, rtol=1e-12)
    assert np.all(study.modified_error <= inv_m + 1e-12)
    assert np.all(np.diff(study.modified_error) < 0.0)
    assert study.modified_error[-1] < study.modified_error[0]
    assert np.all(study.boundary_min >= 0.0)  # exact face check, no tolerance
    first = next(iter(study.rows()))
    assert first == (1, 0.4, 0.2, pytest.approx(1.0), pytest.approx(1.0))


def test_approximation_experiment_zero_target():
    layer = BoundaryLayer(eps=0.4, mode="metric", hi=(1.0,))

    def family(m):
        return lambda p, m=m: np.full(p.shape[0], ((-1.0) ** m) * 2.0 ** (-m))

    errors = 2.0 ** (-np.arange(1, 6, dtype=float))
    study = approximation_experiment(
        lambda p: np.zeros(p.shape[0]), family,
        list(0.4 * errors), list(0.2 * errors), layer,
    )
    assert np.all(study.modified_error <= 2.0 * errors)
    assert np.all(study.boundary_min >= 0.0)


def test_approximation_experiment_lp_bound():
    layer = BoundaryLayer(eps=0.3, mode="metric", hi=(1.0, 1.0))

    def family(m):
        return lambda p, m=m: p[:, 0] + p[:, 1] - 1.0 / m

    levels = range(1, 5)
    study = approximation_experiment(
        lambda p: p[:, 0] + p[:, 1], family,
        [0.3 / m for m in levels], [0.15 / m for m in levels], layer,
        norm="lp", p=2.0,
    )
    phi = BoundaryMeasure([1.0, 1.0])
    for i, m in enumerate(study.levels):
        ceiling = study.raw_error[i] + (1.0 / m) * phi.measure(study.eps[i] + study.delta[i]) ** 0.5
        assert study.modified_error[i] <= ceiling + 1e-9


def test_approximation_experiment_validation():
    layer = BoundaryLayer(eps=0.5, mode="metric", hi=(1.0,))
    f = lambda p: p[:, 0]
    fam = lambda m: f
    with pytest.raises(ValueError, match="decrease strictly"):
        approximation_experiment(f, fam, [0.2, 0.3], [0.1, 0.1], layer)
    with pytest.raises(ValueError, match="delta < eps"):
        approximation_experiment(f, fam, [0.4, 0.2], [0.5, 0.1], layer)
    with pytest.raises(ValueError, match="equal length"):
        approximation_experiment(f, fam, [0.4, 0.2], [0.1], layer)
    with pytest.raises(ValueError, match="norm"):
        approximation_experiment(f, fam, [0.4, 0.2], [0.2, 0.1], layer, norm="l1")
    unbounded = BoundaryLayer(eps=0.5, mode="nonlinear", dim=1)
    with pytest.raises(ValueError, match="bounded box"):
        approximation_experiment(f, fam, [0.4, 0.2], [0.2, 0.1], unbounded)


def test_nonlinear_distance_bound_for_sampled_members():
    for eps in (0.5, 0.1):
        layer = BoundaryLayer(eps=eps, mode="nonlinear", dim=2)
        members = sample_members(layer, 2_000, seed=3)
        assert members.min(axis=1).max() <= eps ** (2.0 / 2.0) * (1 + 1e-12)
    layer3 = BoundaryLayer(eps=0.5, mode="nonlinear", dim=3)
    members3 = sample_members(layer3, 2_000, seed=3)
    assert members3.min(axis=1).max() <= 0.5 ** (2.0 / 3.0) * (1 + 1e-12)


def test_nonlinear_level_one_volume():
    report = nonlinear_volume_report(2, samples=200_000)
    assert report.stable
    # the plane section below level 1 is the unit square plus two x^{-4} tails
    assert abs(report.estimates[-1] - 5.0 / 3.0) <= 3.0 * report.halfwidths[-1]
    assert list(report.rows())[0][0] == 2.0
    with pytest.raises(ValueError, match="increase"):
        nonlinear_volume_report(2, box_sizes=(4.0, 2.0))


def test_sample_members_validation():
    layer = BoundaryLayer(eps=1e-9, mode="metric", hi=(4.0, 4.0))
    with pytest.raises(RuntimeError, match="too thin"):
        sample_members(layer, 100, max_draws=50_000)
    with pytest.raises(ValueError, match="count"):
        sample_members(layer, 0)


def test_section_profile_shape():
    assert section_profile(0.25) == 0.5
    assert section_profile(4.0) == 16.0
    assert section_profile(1.0) == 1.0
    x = np.linspace(0.0, 3.0, 301)
    vals = section_profile(x)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0.0)
