import numpy as np
import pytest
from scipy import linalg as sla

from mlpgp.data import gen_sine, gen_smooth_xor
from mlpgp.gp import (FactorizationError, GPModel, _chol_stack,
                      _chol_with_jitter, circle_traversal,
                      log_marginal_likelihood, perturbation_bound,
                      posterior_predictive, sample_prior)
from mlpgp.kernels import LayerHyper, NetworkHyper, constant_hyper, \
    kernel_matrix

SQRT2 = np.sqrt(2.0)

# frozen by the first build: gen_sine(0), (mu, sigma^2) = (0, 2), L=2, s^2=0.1
LML_SINE_SNAPSHOT = -7.387144225798071


def _simple_net(depth=2, mu=0.0, sigma=SQRT2, dim=1, a=0.0):
    return constant_hyper(mu, sigma, depth, dim, a)


def test_sample_prior_variance_and_determinism():
    net = _simple_net(dim=2)
    model = GPModel(net, 0.0)
    X = np.array([[0.7, -0.3]])
    k = kernel_matrix(X, X, net)[0, 0]
    draws = sample_prior(X, model, 10_000, seed=3)
    assert abs(draws.var() - k) < 6 * k * np.sqrt(2.0 / 10_000)
    again = sample_prior(X, model, 10_000, seed=3)
    assert np.array_equal(draws, again)
    assert not np.array_equal(draws, sample_prior(X, model, 10_000, seed=4))


def test_sample_prior_deep_near_constant_on_circle():
    # deep zero-mean kernels flatten toward the constant covariance, so
    # single draws are almost constant along the circle; depth 512 pushes
    # the worst-case (antipodal) correlation past 0.999
    pts = circle_traversal(10, 40, seed=0)
    net = constant_hyper(0.0, SQRT2, 512, 10, 0.0)
    model = GPModel(net, 0.0)
    K = kernel_matrix(pts, pts, net)
    corr = K / np.sqrt(np.outer(np.diag(K), np.diag(K)))
    assert corr.min() >= 0.999
    draws = sample_prior(pts, model, 8, seed=1)
    scale = np.sqrt(np.mean(np.diag(K)))
    spread = (draws.max(axis=1) - draws.min(axis=1)) / scale
    assert np.all(spread < 0.1)


def test_posterior_predictive_no_training_points():
    net = _simple_net(dim=2)
    Xs = np.array([[1.0, 0.0], [0.0, 1.0]])
    pp = posterior_predictive(Xs, np.zeros((0, 2)), np.zeros(0),
                              GPModel(net, 0.1))
    assert np.array_equal(pp.mean, np.zeros(2))
    assert np.array_equal(pp.var, np.diag(kernel_matrix(Xs, Xs, net)))


def test_posterior_predictive_interpolates_noiseless():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    pp = posterior_predictive(X, X, y, GPModel(_simple_net(dim=2), 0.0))
    assert np.max(np.abs(pp.mean - y)) < 1e-8


def test_posterior_predictive_scalar_closed_form():
    net = _simple_net(dim=1)
    X = np.array([[0.8]])
    Xs = np.array([[0.5]])
    y = np.array([1.3])
    s2 = 0.2
    k_tt = kernel_matrix(X, X, net)[0, 0]
    k_st = kernel_matrix(Xs, X, net)[0, 0]
    k_ss = kernel_matrix(Xs, Xs, net)[0, 0]
    pp = posterior_predictive(Xs, X, y, GPModel(net, s2))
    assert abs(pp.mean[0] - k_st * y[0] / (k_tt + s2)) < 1e-12
    assert abs(pp.var[0] - (k_ss - k_st ** 2 / (k_tt + s2))) < 1e-12


def test_posterior_predictive_matches_the_full_test_gram():
    # the variance from the test Gram's diagonal alone has the bits of the
    # diagonal of K_ss - v^T v from the full Gram, and so does the mean
    for ds in (gen_sine(0), gen_smooth_xor(0)):
        for depth, mu, sigma2 in ((2, 0.0, 2.0), (8, -0.7, 3.0),
                                  (16, -1.05, 3.06)):
            net = _simple_net(depth, mu, np.sqrt(sigma2), ds.input_dim)
            pp = posterior_predictive(ds.X_test, ds.X_train, ds.y_train,
                                      GPModel(net, 0.1))
            K_ss = kernel_matrix(ds.X_test, ds.X_test, net)
            K_sx = kernel_matrix(ds.X_test, ds.X_train, net)
            K_xx = kernel_matrix(ds.X_train, ds.X_train, net)
            L, jit = _chol_with_jitter(K_xx + 0.1 * np.eye(len(ds.y_train)))
            v = sla.solve_triangular(L, K_sx.T, lower=True)
            assert np.array_equal(pp.var, np.diag(K_ss - v.T @ v))
            assert np.array_equal(
                pp.mean, K_sx @ sla.cho_solve((L, True), ds.y_train))
            assert pp.jitter == jit


def test_posterior_variance_below_prior_variance():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    Xs = rng.normal(size=(20, 2))
    net = _simple_net(dim=2, mu=-0.4)
    model = GPModel(net, 0.1)
    pp = posterior_predictive(Xs, X, y, model)
    prior_var = np.diag(kernel_matrix(Xs, Xs, net))
    assert np.all(pp.var <= prior_var + 1e-8)


def test_posterior_predictive_continuous_in_noise():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(5, 1))
    y = rng.normal(size=5)
    Xs = rng.normal(size=(7, 1))
    net = _simple_net()
    base = posterior_predictive(Xs, X, y, GPModel(net, 0.1)).mean
    bumped = posterior_predictive(Xs, X, y, GPModel(net, 0.1 + 1e-7)).mean
    assert np.max(np.abs(base - bumped)) < 1e-5


def test_log_marginal_likelihood_closed_form_n1():
    # k(x, x) = 1 at x = 1 for the one-layer linear net with sigma = 1, n0 = 1
    net = NetworkHyper(0.0, 1, (LayerHyper(0.0, 1.0),), True)
    X = np.array([[1.0]])
    lml = log_marginal_likelihood(X, np.array([0.0]), GPModel(net, 0.1))
    assert abs(lml - (-0.5 * np.log(2 * np.pi * 1.1))) < 1e-12


def test_log_marginal_likelihood_quadratic_scaling():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    model = GPModel(_simple_net(dim=2), 0.1)
    l1 = log_marginal_likelihood(X, y, model)
    l2 = log_marginal_likelihood(X, 2.0 * y, model)
    l3 = log_marginal_likelihood(X, np.zeros(6), model)
    # quadratic fit term: lml(c y) = lml(0) + c^2 (lml(y) - lml(0))
    assert abs((l2 - l3) - 4.0 * (l1 - l3)) < 1e-9


def test_log_marginal_likelihood_snapshot():
    from mlpgp.data import gen_sine
    ds = gen_sine(0)
    net = NetworkHyper(0.0, 1, (LayerHyper(0.0, SQRT2), LayerHyper(0.0, 1.0)), True)
    first = log_marginal_likelihood(ds.X_train, ds.y_train, GPModel(net, 0.1))
    second = log_marginal_likelihood(ds.X_train, ds.y_train, GPModel(net, 0.1))
    assert first == second
    assert abs(first - LML_SINE_SNAPSHOT) < 1e-9


def test_log_marginal_likelihood_duplicate_point_reproducible():
    # a duplicated training point with s^2 > 0 stays finite and bit-stable
    from mlpgp.data import gen_sine
    ds = gen_sine(0)
    X = np.vstack([ds.X_train, ds.X_train[:1]])
    y = np.append(ds.y_train, ds.y_train[0])
    model = GPModel(_simple_net(), 0.1)
    first = log_marginal_likelihood(X, y, model)
    assert np.isfinite(first)
    assert first == log_marginal_likelihood(X, y, model)
    # per-point average fit stays in a sane band relative to the original
    base = log_marginal_likelihood(ds.X_train, ds.y_train, model)
    assert abs(first / (len(y)) - base / len(ds.y_train)) < 1.0


def test_gp_model_rejects_a_bad_noise_variance():
    net = _simple_net()
    for noise_var in (-1e-3, -np.inf, np.nan, np.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            GPModel(net, noise_var)
    assert GPModel(net, 0.0).noise_var == 0.0


def test_factorization_error_on_bad_matrix():
    net = _simple_net(dim=1)
    X = np.array([[1.0], [1.0]])  # duplicate rows, zero noise
    y = np.array([0.0, 1.0])
    # duplicates + jitter ladder still factorises (jitter rescues)
    pp = posterior_predictive(X, X, y, GPModel(net, 0.0))
    assert pp.jitter > 0.0
    with pytest.raises(FactorizationError):
        from mlpgp.gp import _chol_with_jitter
        _chol_with_jitter(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_chol_with_jitter_survives_an_overflowing_mean_diagonal():
    # a finite Gram whose mean diagonal overflows factors at rung 0, as
    # np.linalg.cholesky does; if rung 0 fails, the ladder ends there with a
    # FactorizationError, not a NaN factor
    K = np.diag([1e308, 1e308])
    L, jit = _chol_with_jitter(K)
    assert L.tobytes() == np.linalg.cholesky(K).tobytes()
    assert jit == 0.0
    with np.errstate(over="ignore"), pytest.raises(FactorizationError):
        _chol_with_jitter(np.full((2, 2), 1e308))


def _spd_stack(rng, g, n):
    B = rng.standard_normal((g, n, n))
    return B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(n)


def test_chol_stack_has_the_bits_of_the_ladder_per_slice():
    # each slice's (L, jitter), or its FactorizationError, is that of
    # _chol_with_jitter on the slice: a stack that factors at rung 0 (one
    # slice with -0.0 off the diagonal), one with a slice that needs jitter,
    # so the stacked call raises, one with a non-finite slice and one with a
    # slice that fails every rung
    rng = np.random.default_rng(4)
    base = _spd_stack(rng, 5, 4)
    base[1] = np.diag([2.0, 3.0, 1.0, 5.0]) * np.where(np.eye(4), 1.0, -0.0)
    singular, nan, negative = base.copy(), base.copy(), base.copy()
    singular[2] = np.ones((4, 4))
    nan[3, 0, 1] = np.nan
    negative[0] = -np.eye(4)
    for A in (base, singular, nan, negative):
        factor = _chol_stack(A)
        for j in range(len(A)):
            try:
                want = _chol_with_jitter(A[j])
            except FactorizationError:
                with pytest.raises(FactorizationError):
                    factor(j)
                continue
            L, jit = factor(j)
            assert L.tobytes() == want[0].tobytes()
            assert jit == want[1]
    assert _chol_with_jitter(singular[2])[1] > 0.0


def test_perturbation_bound():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(5, 3))
    Xs = rng.normal(size=(7, 3))
    y = rng.normal(size=5)
    net = _simple_net(depth=3, dim=3)
    lhs, bound = perturbation_bound(Xs, X, y, net, 1.0, 1.0, 0.05)
    assert lhs == 0.0 and lhs <= bound
    lhs, bound = perturbation_bound(Xs, X, y, net, 0.8, 1.3, 0.0)
    assert lhs == 0.0 and bound == 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        Xr = r.normal(size=(5, 3))
        Xsr = r.normal(size=(4, 3))
        yr = r.normal(size=5)
        lhs, bound = perturbation_bound(Xsr, Xr, yr, net, 0.9, 1.4, 0.02)
        assert lhs <= bound


def test_perturbation_bound_proviso():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(5, 3))
    Xs = rng.normal(size=(3, 3))
    y = rng.normal(size=5)
    net = _simple_net(depth=3, dim=3)
    with pytest.raises(ValueError, match="proviso"):
        perturbation_bound(Xs, X, y, net, 1e-4, 1.0, 10.0)


def test_perturbation_bound_rejects_non_finite_numbers():
    # a nan scale or noise std-dev passed the c <= 0 and s < 0 checks and
    # gave (nan, nan)
    rng = np.random.default_rng(13)
    X, Xs = rng.normal(size=(5, 3)), rng.normal(size=(3, 3))
    y = rng.normal(size=5)
    net = _simple_net(depth=3, dim=3)
    for bad in (np.nan, np.inf):
        for c1, c2 in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="scales"):
                perturbation_bound(Xs, X, y, net, c1, c2, 0.05)
        with pytest.raises(ValueError, match="noise std-dev"):
            perturbation_bound(Xs, X, y, net, 0.8, 1.3, bad)


def test_circle_traversal():
    pts = circle_traversal(10, 64, seed=5)
    assert pts.shape == (64, 10)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    # the two generating directions are orthonormal
    e1 = pts[0]
    e2 = pts[16]  # quarter turn for n_points = 64
    assert abs(e1 @ e2) < 1e-12
    assert np.array_equal(pts, circle_traversal(10, 64, seed=5))
    with pytest.raises(ValueError):
        circle_traversal(1, 8, seed=0)
