"""Reaction catalog, parameterized family, and condition-check tests.

Oracles: Jacobians and reverse-mode passes are checked against central
finite differences; the Lipschitz layer-norm product is checked against
sampled difference quotients.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdlearn.reaction import (
    AnalyticReaction,
    MLPReaction,
    check_conditions,
    load_params,
    make_reaction,
    save_params,
)


def test_catalog_fixed_points():
    lv = make_reaction("lotka-volterra")
    assert lv.eval(np.array([1.0, 1.0])).tolist() == [0.0, 0.0]
    fk = make_reaction("fisher-kpp")
    assert fk.eval(np.array([0.0]))[0] == 0.0
    assert fk.eval(np.array([1.0]))[0] == 0.0
    gs = make_reaction("gray-scott", feed=0.03, kill=0.055)
    v = gs.eval(np.array([1.0, 0.0]))
    assert v.tolist() == [0.0, 0.0]


def test_zero_network_is_zero():
    widths = (2, 8, 2)
    mlp = MLPReaction(widths, np.zeros(MLPReaction.parameter_count(widths)))
    u = np.array([[0.3, -1.2], [5.0, 2.0]])
    assert np.all(mlp.eval(u) == 0.0)


def test_linear_term_jacobian_is_constant():
    A = np.array([[1.0, 2.0], [-0.5, 0.25]])

    def fn(u):
        return u @ A.T

    def jac(u):
        return np.broadcast_to(A, (u.shape[0], 2, 2)).copy()

    lin = AnalyticReaction("linear", 2, fn, jac)
    rng = np.random.default_rng(0)
    for u in rng.normal(size=(5, 2)):
        np.testing.assert_allclose(lin.jacobian(u), A, rtol=0, atol=0)


def test_fisher_jacobian_at_half_is_zero():
    fk = make_reaction("fisher-kpp")
    assert fk.jacobian(np.array([0.5]))[0, 0] == 0.0


@pytest.mark.parametrize("name", ["fisher-kpp", "lotka-volterra", "gray-scott"])
def test_catalog_jacobian_matches_finite_differences(name):
    f = make_reaction(name)
    rng = np.random.default_rng(42)
    u = rng.uniform(0.1, 2.0, size=(20, f.n_species))
    analytic = f.jacobian(u)
    fallback = super(AnalyticReaction, f).jacobian(u)
    np.testing.assert_allclose(analytic, fallback, rtol=1e-5, atol=1e-8)


def test_mlp_jacobian_matches_finite_differences():
    mlp = MLPReaction.from_seed((2, 8, 5, 2), seed=3)
    rng = np.random.default_rng(1)
    u = rng.normal(size=(20, 2))
    analytic = mlp.jacobian(u)
    fd = super(MLPReaction, mlp).jacobian(u)
    rel = np.abs(analytic - fd) / (1e-8 + np.abs(fd))
    assert rel.max() < 1e-5


def test_value_vjp_matches_finite_differences():
    mlp = MLPReaction.from_seed((2, 6, 2), seed=7)
    rng = np.random.default_rng(2)
    U = rng.normal(size=(5, 2))
    cot = rng.normal(size=(5, 2))
    theta_grad, u_grad = mlp.vjp(U, cot)

    def scalar(theta):
        return float(np.sum(mlp.with_theta(theta).eval(U) * cot))

    h = 1e-6
    for i in rng.choice(mlp.theta.size, 15, replace=False):
        e = np.zeros(mlp.theta.size)
        e[i] = h
        fd = (scalar(mlp.theta + e) - scalar(mlp.theta - e)) / (2 * h)
        assert theta_grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    for s in range(U.shape[0]):
        for j in range(2):
            e = np.zeros_like(U)
            e[s, j] = h
            fd = (float(np.sum(mlp.eval(U + e) * cot))
                  - float(np.sum(mlp.eval(U - e) * cot))) / (2 * h)
            assert u_grad[s, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_jacobian_cotangent_pass_matches_finite_differences():
    """Second-order reverse pass: d<C, df/du>/dtheta against differences."""
    mlp = MLPReaction.from_seed((2, 7, 4, 2), seed=5)
    rng = np.random.default_rng(3)
    U = rng.normal(size=(4, 2))
    cot_jac = rng.normal(size=(4, 2, 2))
    cot_val = rng.normal(size=(4, 2))
    grad = mlp.jac_vjp(U, cot_jac, cot_val)

    def scalar(theta):
        m = mlp.with_theta(theta)
        f, J = m.value_and_jacobian(U)
        return float(np.sum(J * cot_jac) + np.sum(f * cot_val))

    h = 1e-6
    for i in rng.choice(mlp.theta.size, 20, replace=False):
        e = np.zeros(mlp.theta.size)
        e[i] = h
        fd = (scalar(mlp.theta + e) - scalar(mlp.theta - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def test_lipschitz_product_bounds_sampled_estimate():
    mlp = MLPReaction.from_seed((2, 10, 2), seed=13, scale=1.5)
    sampled = mlp.sampled_lipschitz([-3, -3], [3, 3], samples=4000)
    assert sampled <= mlp.lipschitz_bound()
    # doubling every weight of a 2-layer network quadruples the product
    doubled = mlp.with_theta(2.0 * mlp.theta)
    assert doubled.lipschitz_bound() == pytest.approx(4.0 * mlp.lipschitz_bound())
    assert doubled.sampled_lipschitz([-3, -3], [3, 3], samples=4000) <= doubled.lipschitz_bound()


def test_architecture_validation():
    with pytest.raises(ValueError, match="mismatched ends"):
        MLPReaction((2, 4, 3), np.zeros(MLPReaction.parameter_count((2, 4, 3))))
    with pytest.raises(ValueError, match="entries"):
        MLPReaction((2, 4, 2), np.zeros(3))


def test_eval_dimension_mismatch():
    fk = make_reaction("fisher-kpp")
    with pytest.raises(ValueError, match="expected"):
        fk.eval(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="batch"):
        fk.eval(np.zeros((3, 2)))


def test_check_conditions_lotka_volterra():
    lv = make_reaction("lotka-volterra")
    report = check_conditions(lv, [0, 0], [2, 2], samples=3000)
    assert report.quasipos_ok
    assert report.mass_ok
    assert report.growth_ok
    assert report.constants_label == "sampled"
    assert "no violation found" in report.summary()


def test_check_conditions_flags_negative_constant():
    neg = AnalyticReaction("neg", 1, lambda u: np.full_like(u, -1.0))
    report = check_conditions(neg, [0.0], [1.0], samples=50)
    assert not report.quasipos_ok
    point, comp, value = report.quasipos_violations[0]
    assert value == -1.0
    # the witness reproduces on re-evaluation
    assert neg.eval(np.array(point))[comp] == value


def test_check_conditions_input_validation():
    fk = make_reaction("fisher-kpp")
    with pytest.raises(ValueError, match="samples"):
        check_conditions(fk, [0.0], [1.0], samples=0)
    with pytest.raises(ValueError, match="lo < hi"):
        check_conditions(fk, [1.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        check_conditions(fk, [0.0], [1.0], c=np.array([-1.0]))


def test_unknown_catalog_name():
    with pytest.raises(ValueError, match="unknown reaction"):
        make_reaction("brusselator")


def test_parameter_file_roundtrip(tmp_path):
    mlp = MLPReaction.from_seed((1, 6, 1), seed=9, level=3)
    path = tmp_path / "weights.params"
    save_params(path, mlp, seed=9, eps=0.5)
    back, meta = load_params(path)
    assert np.array_equal(back.theta, mlp.theta)
    assert back.widths == mlp.widths
    assert back.level == 3
    assert meta == {"seed": 9, "eps": 0.5, "species": 1}


def test_parameter_file_header_validation(tmp_path):
    path = tmp_path / "broken.params"
    path.write_text("not a header\n0.0\n")
    with pytest.raises(ValueError, match="header"):
        load_params(path)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_single_point_matches_batch_row(seed, x, y):
    mlp = MLPReaction.from_seed((2, 5, 2), seed=seed)
    u = np.array([x, y])
    batch = np.vstack([u, 2 * u])
    np.testing.assert_allclose(mlp.eval(u), mlp.eval(batch)[0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(mlp.jacobian(u), mlp.jacobian(batch)[0],
                               rtol=1e-12, atol=1e-14)
