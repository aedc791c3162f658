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
    _product,
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
    gs = make_reaction("gray-scott")
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


ROW_MAJOR_CATALOG = {
    "lotka-volterra": lambda a, b: np.stack([a * (1.0 - b), b * (a - 1.0)], axis=1),
    "gray-scott": lambda a, b: np.stack([-(a * b * b) + 0.04 * (1.0 - a),
                                         a * b * b - (0.04 + 0.06) * b], axis=1),
}


@pytest.mark.parametrize("name", sorted(ROW_MAJOR_CATALOG))
def test_catalog_f_is_column_major_on_the_solver_view(name):
    """On the solver's view u.reshape(n, -1).T of a (species, x, y) state,
    f comes back column-major like the state, with the row-major values."""
    u = np.random.default_rng(3).uniform(0.0, 1.5, size=(2, 7, 9))
    view = u.reshape(2, -1).T
    f = make_reaction(name).eval(view)
    assert f.flags.f_contiguous
    assert f.tobytes(order="C") == ROW_MAJOR_CATALOG[name](*view.T).tobytes()


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
    theta_grad, u_grad = mlp.vjp(cot, mlp.forward(U))

    def scalar(theta):
        return float(np.sum(MLPReaction(mlp.widths, theta).eval(U) * cot))

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
    grad = mlp.jac_vjp(cot_jac, cot_val, mlp._value_jac_state(U))

    def scalar(theta):
        m = MLPReaction(mlp.widths, theta)
        f, J = m.value_and_jacobian(U)
        return float(np.sum(J * cot_jac) + np.sum(f * cot_val))

    h = 1e-6
    for i in rng.choice(mlp.theta.size, 20, replace=False):
        e = np.zeros(mlp.theta.size)
        e[i] = h
        fd = (scalar(mlp.theta + e) - scalar(mlp.theta - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-8)


# A row-major reference of the network passes: batch (S, N), one row per
# point, every layer's input (S, width). It unpacks theta on its own.


def _ref_layers(widths, theta):
    layers, off = [], 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        W = theta[off:off + n_in * n_out].reshape(n_out, n_in)
        off += n_in * n_out
        layers.append((W, theta[off:off + n_out]))
        off += n_out
    return layers


def _ref_forward(layers, U):
    acts, a = [U], U
    for i, (W, b) in enumerate(layers):
        z = a @ W.T + b
        if i < len(layers) - 1:
            a = np.tanh(z)
            acts.append(a)
    return z, acts


def _ref_jacobian_state(layers, U):
    S, N = U.shape
    _, acts = _ref_forward(layers, U)
    A_list, Z_list = [np.broadcast_to(np.eye(N), (S, N, N))], []
    for i, (W, _) in enumerate(layers):
        Z_list.append(np.einsum("oi,sij->soj", W, A_list[i]))
        if i + 1 < len(layers):
            A_list.append((1.0 - acts[i + 1] ** 2)[:, :, None] * Z_list[i])
    return acts, A_list, Z_list


def _ref_vjp(layers, U, cot):
    _, acts = _ref_forward(layers, U)
    grads, delta = [], cot
    for i in reversed(range(len(layers))):
        W, _ = layers[i]
        grads[:0] = [(delta.T @ acts[i]).ravel(), delta.sum(axis=0)]
        delta = delta @ W
        if i > 0:
            delta = delta * (1.0 - acts[i] ** 2)
    return np.concatenate(grads), delta


def _ref_jac_vjp(layers, U, cot_jac, cot_val):
    acts, A_list, Z_list = _ref_jacobian_state(layers, U)
    grads, z_hat, Z_hat = [], cot_val, cot_jac
    for i in reversed(range(len(layers))):
        W, _ = layers[i]
        gW = z_hat.T @ acts[i] + np.einsum("soj,sij->oi", Z_hat, A_list[i])
        grads[:0] = [gW.ravel(), z_hat.sum(axis=0)]
        if i > 0:
            s = 1.0 - acts[i] ** 2
            A_hat = np.einsum("oi,soj->sij", W, Z_hat)
            z_hat = ((z_hat @ W) * s
                     + np.einsum("sij,sij->si", A_hat, Z_list[i - 1]) * (-2.0 * acts[i] * s))
            Z_hat = s[:, :, None] * A_hat
    return np.concatenate(grads)


def _close_to_reference(got, ref, rows):
    """The points-last passes differ from the reference only in the order
    of their sums: over at most `rows` terms along the batch, or 16 along
    a width. So each entry agrees to gamma_n = n eps of the reference's
    largest entry, n the longer sum; the factor 4 covers the chained
    layers. The bound is fixed from float64, not from any observed error.
    """
    tol = 4 * max(rows, 16) * np.finfo(float).eps
    assert got.shape == ref.shape
    scale = max(1.0, float(np.max(np.abs(ref)))) if ref.size else 1.0
    assert np.max(np.abs(got - ref), initial=0.0) <= tol * scale


@pytest.mark.parametrize("rows", [1, 5, 7380])
@pytest.mark.parametrize("widths", [(1, 16, 1), (2, 16, 2), (2, 8, 8, 2)])
def test_points_last_passes_match_a_row_major_reference(widths, rows):
    rng = np.random.default_rng(rows + 31 * len(widths) + widths[0])
    theta = rng.normal(0.0, 0.7, size=MLPReaction.parameter_count(widths))
    mlp = MLPReaction(widths, theta)
    layers = _ref_layers(widths, theta)
    N = widths[0]
    U = rng.uniform(-2.0, 2.0, size=(rows, N))
    cot = rng.normal(size=(rows, N))
    cot_jac = rng.normal(size=(rows, N, N))

    f, acts = mlp.forward(U)
    ref_f, ref_acts = _ref_forward(layers, U)
    _close_to_reference(f, ref_f, rows)
    assert [a.shape for a in acts] == [r.T.shape for r in ref_acts]
    for a, r in zip(acts, ref_acts):
        _close_to_reference(a, r.T, rows)
    _close_to_reference(mlp.eval(U), ref_f, rows)

    ref_state = _ref_jacobian_state(layers, U)
    _close_to_reference(mlp.jacobian(U), ref_state[2][-1], rows)

    ref_theta_grad, ref_u_grad = _ref_vjp(layers, U, cot)
    theta_grad, u_grad = mlp.vjp(cot, (f, acts))
    _close_to_reference(theta_grad, ref_theta_grad, rows)
    _close_to_reference(u_grad, ref_u_grad, rows)

    state = mlp._value_jac_state(U)
    for cot_val in (cot, np.zeros_like(U)):
        _close_to_reference(mlp.jac_vjp(cot_jac, cot_val, state),
                            _ref_jac_vjp(layers, U, cot_jac, cot_val), rows)


@pytest.mark.parametrize("shape", [(16, 1, 7380), (16, 1, 5), (2, 1, 14760), (1, 1, 3)])
def test_width_one_broadcast_is_the_matmul_bitwise(shape):
    """Where the contracted width is 1, `_product` multiplies by broadcast;
    numpy's matmul computes the same single products."""
    n_out, n_in, cols = shape
    rng = np.random.default_rng(cols)
    W = rng.normal(size=(n_out, n_in))
    a = rng.normal(size=(n_in, cols))
    assert _product(W, a).tobytes() == (W @ a).tobytes()


def test_lipschitz_product_bounds_sampled_estimate():
    mlp = MLPReaction.from_seed((2, 10, 2), seed=13, scale=1.5)
    sampled = mlp.sampled_lipschitz([-3, -3], [3, 3], samples=4000)
    assert sampled <= mlp.lipschitz_bound()
    # doubling every weight of a 2-layer network quadruples the product
    doubled = MLPReaction(mlp.widths, 2.0 * mlp.theta)
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
    assert report.constants.label == "sampled"
    assert "no violation found" in report.summary()


def test_check_conditions_flags_negative_constant():
    neg = AnalyticReaction("neg", 1, lambda u: np.full_like(u, -1.0))
    report = check_conditions(neg, [0.0], [1.0], samples=50)
    assert not report.quasipos_ok
    point, comp, value = report.quasipos_violations[0]
    assert value == -1.0
    # the witness reproduces on re-evaluation
    assert neg.eval(np.array(point))[comp] == value


def test_check_conditions_summary_names_the_worst_face_value():
    shift = AnalyticReaction("shift", 1, lambda u: u - 0.5)
    report = check_conditions(shift, [0.0], [1.0], samples=50)
    assert report.quasipos_ok is False
    assert len(report.quasipos_violations) == 50
    assert "(Q) quasipositivity: 50 violations, worst -0.5" in report.summary().splitlines()


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
    mlp = MLPReaction.from_seed((1, 6, 1), seed=9)
    path = tmp_path / "weights.params"
    save_params(path, mlp, level=3, seed=9, eps=0.5)
    assert path.read_text().splitlines()[3] == "# level: 3"
    back, meta = load_params(path)
    assert np.array_equal(back.theta, mlp.theta)
    assert back.widths == mlp.widths
    assert meta == {"level": 3, "seed": 9, "eps": 0.5, "species": 1}


def test_parameter_file_header_validation(tmp_path):
    path = tmp_path / "broken.params"
    path.write_text("not a header\n0.0\n")
    with pytest.raises(ValueError, match="header"):
        load_params(path)


def test_parameter_file_missing_header_key_names_file_and_key(tmp_path):
    path = tmp_path / "weights.params"
    save_params(path, MLPReaction.from_seed((1, 6, 1), seed=9), level=3, seed=9, eps=0.5)
    path.write_text(path.read_text().replace("# count:", "# counted:"))
    with pytest.raises(ValueError, match="weights.params: header has no 'count' line"):
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
