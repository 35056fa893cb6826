import tracemalloc
import warnings

import numpy as np
import pytest

from mlpgp.kernels import (VANISHED_TOL, DegenerateInputError, LayerHyper,
                           NetworkHyper, VanishedSignalError,
                           _first_layer_preactivation, _moment_step,
                           abs_kernel, arccos_reference, constant_hyper,
                           cross_term, deep_kernel, folded_mean,
                           kernel_diag, kernel_matrix, linear_kernel,
                           lrelu_kernel,
                           lrelu_mean, single_layer_kernel_with_bias)

from mlpgp import kernels, special
from mlpgp.data import gen_sine, gen_smooth_xor
from mlpgp.gp import circle_traversal

from _oracles import bivariate_mc, bivariate_moment_oracle, leaky_relu, \
    univariate_expect, weightspace_kernel_mc

SQRT2 = np.sqrt(2.0)

# values pinned from the conditional-moment quadrature oracle in _oracles.py
ABS_GENERIC = 1.5145414110076927          # (1.3, 0.8, -0.35, 0.7, -1.1)
CROSS_SPEC = 0.04879307465793131          # (1, 1, 0.5, 0.2, -0.3)
CROSS_GENERIC = -0.6557451772285137       # (0.9, 1.7, -0.6, -0.4, 0.25)
LRELU_GENERIC = 0.3765625590469272        # (1.1, 0.6, 0.3, -0.5, 0.8), a=-0.25
LAYER_KXY = 0.33848644588774396           # (sqrt2, sqrt2, 0.5, -0.4, -0.4), a=0
BIAS_GENERIC = 0.3439509608096999         # see test_single_layer_bias_generic


def test_linear_kernel():
    assert linear_kernel(1.0, 1.0, 1.0, 0.0, 0.0) == 1.0
    assert linear_kernel(1.0, 1.0, 0.0, 2.0, 3.0) == 6.0
    assert abs(linear_kernel(1.3, 0.7, 0.4, 0.5, -0.2) - 0.264) < 1e-15


def test_folded_mean():
    assert abs(folded_mean(0.0, 1.0) - np.sqrt(2 / np.pi)) < 1e-15
    assert abs(folded_mean(8.0, 1.0) - 8.0) < 1e-10
    assert abs(folded_mean(1.0, 1.0) - 1.1666309411753726) < 1e-14
    # scale: E|N(m, s^2)| = s E|N(m/s, 1)|
    assert np.isclose(folded_mean(1.0, 2.0), 2.0 * folded_mean(0.5, 1.0),
                      rtol=1e-14)


def test_abs_kernel_zero_mean_closed_form():
    for theta in (0.2, 1.1, 2.5):
        got = abs_kernel(1.0, 1.0, np.cos(theta), 0.0, 0.0)
        want = (2 / np.pi) * (np.sin(theta) + (np.pi / 2 - theta) * np.cos(theta))
        assert abs(got - want) < 1e-13


def test_abs_kernel_examples():
    assert abs(abs_kernel(1, 1, 1.0, 0.0, 0.0) - 1.0) < 1e-14
    got = abs_kernel(1.0, 1.0, 0.0, 1.0, -0.5)
    want = folded_mean(1.0, 1.0) * folded_mean(-0.5, 1.0)
    assert abs(got - want) < 1e-14
    assert abs(abs_kernel(1.3, 0.8, -0.35, 0.7, -1.1) - ABS_GENERIC) < 1e-12


def test_abs_kernel_colinear_limits():
    for rho, t1, t2 in [(1.0, 0.5, -0.8), (-1.0, 0.5, -0.8), (1.0, 0.3, 0.3)]:
        got = abs_kernel(1.2, 0.9, rho, 1.2 * t1, 0.9 * t2)
        want = bivariate_moment_oracle("abs", "abs", 1.2, 0.9,
                                       rho * (1 - 1e-13), 1.2 * t1, 0.9 * t2)
        assert abs(got - want) < 1e-10
    # continuity across the degenerate switch at sin(theta) = 1e-7
    lo = abs_kernel(1, 1, np.cos(0.9999999e-7), 0.4, -0.7)
    hi = abs_kernel(1, 1, np.cos(1.0000001e-7), 0.4, -0.7)
    assert abs(lo - hi) < 1e-12


def test_cross_term():
    assert cross_term(1.3, 0.8, 0.5, 0.0, 0.0) == 0.0
    got = cross_term(1.1, 0.9, 0.0, 1.1 * 0.6, 0.9 * -0.4)
    want = (1.1 * 0.6) * folded_mean(0.9 * -0.4, 0.9)
    assert abs(got - want) < 1e-14
    assert abs(cross_term(1, 1, 0.5, 0.2, -0.3) - CROSS_SPEC) < 1e-12
    assert abs(cross_term(0.9, 1.7, -0.6, -0.4, 0.25) - CROSS_GENERIC) < 1e-12


def test_lrelu_kernel():
    p = (1.1, 0.6, 0.3, -0.5, 0.8)
    assert lrelu_kernel(*p, 1.0) == linear_kernel(*p)
    got = lrelu_kernel(SQRT2, SQRT2, 0.0, 0.0, 0.0, 0.0)
    assert abs(got - 1 / np.pi) < 1e-14
    assert abs(lrelu_kernel(1, 1, 1.0, 0.0, 0.0, 0.0) - 0.5) < 1e-14
    assert abs(lrelu_kernel(*p, -0.25) - LRELU_GENERIC) < 1e-12


def test_lrelu_kernel_scale_equivariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s1, s2 = rng.uniform(0.2, 2, 2)
        rho = rng.uniform(-1, 1)
        t1, t2 = rng.normal(0, 1, 2)
        a = rng.uniform(-0.9, 0.9)
        c = rng.uniform(0.1, 3)
        base = lrelu_kernel(s1, s2, rho, t1, t2, a)
        scaled = lrelu_kernel(c * s1, c * s2, rho, c * t1, c * t2, a)
        assert np.isclose(scaled, c * c * base, rtol=1e-12, atol=1e-14)


def test_lrelu_mean():
    assert lrelu_mean(0.7, 1.3, 1.0) == 0.7
    assert abs(lrelu_mean(0.0, 1.0, 0.0) - 1 / np.sqrt(2 * np.pi)) < 1e-15
    want = 0.5 * (1.0 + 1.1666309411753726)
    assert abs(lrelu_mean(1.0, 1.0, 0.0) - want) < 1e-14


def test_monte_carlo_agreement_single_layer_moments():
    # lrelu_kernel / cross_term / abs_kernel vs plain MC, 4 standard errors
    rng = np.random.default_rng(2024)
    n = 10 ** 6
    for _ in range(8):
        s1, s2 = rng.uniform(0.3, 1.8, 2)
        rho = rng.uniform(-0.98, 0.98)
        t1, t2 = rng.normal(0, 1, 2)
        a = rng.uniform(-0.8, 0.8)
        for func, f in [
            (lambda *q: lrelu_kernel(*q, a),
             lambda g1, g2: leaky_relu(g1, a) * leaky_relu(g2, a)),
            (cross_term, lambda g1, g2: g1 * np.abs(g2)),
            (abs_kernel, lambda g1, g2: np.abs(g1) * np.abs(g2)),
        ]:
            est, se = bivariate_mc(f, s1, s2, rho, t1, t2, n, rng)
            assert abs(func(s1, s2, rho, t1, t2) - est) < 4.0 * se + 1e-12


def _pair_step(s1, s2, rho, t1, t2, a):
    # _moment_step on two points and the one pair between them, viewed as
    # _first_layer_preactivation views a row of X and a row of Y:
    # (k_xx, k_yy, k_xy, m_x, m_y)
    *_, rows, cols = _first_layer_preactivation([1.0], [2.0],
                                                LayerHyper(0.0, 1.0), 1)
    k, m, k_xy = _moment_step(np.array([[s1], [s2]]), np.array([[t1], [t2]]),
                              np.array([[rho]]), rows, cols, a)
    return k[0, 0], k[1, 0], k_xy[0, 0], m[0, 0], m[1, 0]


def test_first_layer_preactivation_canonical_values():
    # one LReLU layer whose pre-activation is standard normal for unit inputs
    net = NetworkHyper(0.0, 2, (LayerHyper(0.0, SQRT2),), False)
    x, y = [1.0, 0.0], [0.0, 1.0]
    diag = deep_kernel(x, x, net)
    assert abs(diag - 0.5) < 1e-14
    assert diag == deep_kernel(y, y, net)
    k_xx, k_yy, k_xy, m_x, m_y = _pair_step(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    assert k_xx == k_yy == k_xy == diag
    assert m_x == m_y
    assert abs(m_x - 1 / np.sqrt(2 * np.pi)) < 1e-15
    orth = deep_kernel(x, y, net)
    assert abs(orth - 1 / (2 * np.pi)) < 1e-14
    assert abs(orth / diag - arccos_reference(np.pi / 2, 0.0, 1)) < 1e-13


def test_first_layer_preactivation_nonzero_mean_matches_quadrature():
    layer = LayerHyper(-0.9, 1.3)
    x = np.array([0.6, -0.2, 1.1])
    y = np.array([-0.4, 0.9, 0.3])
    got = deep_kernel(x, y, NetworkHyper(0.2, 3, (layer,), False))
    s1 = layer.sigma * np.linalg.norm(x) / np.sqrt(3)
    s2 = layer.sigma * np.linalg.norm(y) / np.sqrt(3)
    rho = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
    t1 = layer.mu * x.mean()
    t2 = layer.mu * y.mean()
    want = bivariate_moment_oracle("lrelu", "lrelu", s1, s2, rho, t1, t2, a=0.2)
    assert abs(got - want) < 1e-10


def test_first_layer_preactivation_degenerate_input():
    net = constant_hyper(0.0, 1.0, 2, 2)
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        kernel_matrix(X, X, net)


def test_moment_step_relu_unit():
    # hidden layer (mu, sigma) = (0, sqrt2) on the state (1, 1, 0, 0, 0)
    k_xx, _, k_xy, m_x, _ = _pair_step(SQRT2, SQRT2, 0.0, 0.0, 0.0, 0.0)
    assert abs(k_xx - 1.0) < 1e-14
    assert abs(k_xy - 1 / np.pi) < 1e-14
    assert abs(m_x - 1 / np.sqrt(np.pi)) < 1e-14
    # rho = 1 is a fixed point of the normalised recursion
    k_xx, _, k_xy, _, _ = _pair_step(SQRT2, SQRT2, 1.0, 0.0, 0.0, 0.0)
    assert abs(k_xy - k_xx) < 1e-14


def test_moment_step_generic_oracle():
    # hidden layer (mu, sigma) = (-1, sqrt2) on the state (1, 1, 0.5, 0.4, 0.4)
    k_xy = lrelu_kernel(SQRT2, SQRT2, 0.5, -0.4, -0.4, 0.0)
    assert abs(k_xy - LAYER_KXY) < 1e-12
    want_m = univariate_expect(lambda g: leaky_relu(g, 0.0), -0.4, SQRT2)
    assert abs(lrelu_mean(-0.4, SQRT2, 0.0) - want_m) < 1e-10


def test_moment_step_vanished_signal():
    # layer two's sigma of 1e-160 squares into a subnormal k_xx = 2.5e-321
    net = NetworkHyper(0.0, 2, (LayerHyper(0.0, SQRT2), LayerHyper(0.0, 1e-160),
                                LayerHyper(0.0, 1.0)), False)
    X = np.array([[1.0, 0.0], [0.6, 0.8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(VanishedSignalError) as err:
            kernel_matrix(X, X, net)
    assert err.value.layer == 3
    assert 0.0 < err.value.value < VANISHED_TOL
    assert np.isclose(err.value.value, 2.5e-321, rtol=1e-2, atol=0.0)


def test_moment_step_preserves_cauchy_schwarz():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        kxx, kyy = rng.uniform(0.05, 4.0, 2)
        rho = rng.uniform(-1, 1)
        kxy = rho * np.sqrt(kxx * kyy)
        mx, my = rng.normal(0, 1, 2)
        layer = LayerHyper(rng.normal(0, 1), rng.uniform(0.3, 2.0))
        a = rng.uniform(-0.9, 0.9)
        out_xx, out_yy, out_xy, _, _ = _pair_step(
            layer.sigma * np.sqrt(kxx), layer.sigma * np.sqrt(kyy),
            np.clip(kxy / np.sqrt(kxx * kyy), -1.0, 1.0),
            layer.mu * mx, layer.mu * my, a)
        assert out_xy ** 2 <= out_xx * out_yy * (1 + 1e-12)
        assert out_xx >= 0 and out_yy >= 0


def test_two_layer_nonzero_mean_matches_nested_quadrature():
    # layer-one moments by quadrature, mapped to the layer-two pre-activation
    # (sigma sqrt(k), k_xy / sqrt(k_xx k_yy), mu m), then quadrature again
    a = -0.3
    layers = (LayerHyper(0.7, 1.2), LayerHyper(-0.8, 1.5))
    net = NetworkHyper(a, 3, layers, False)
    X = np.array([[0.6, -0.2, 1.1], [0.3, 0.5, -0.9]])
    Y = np.array([[-0.4, 0.9, 0.3], [1.0, 0.2, 0.4]])
    K = kernel_matrix(X, Y, net)

    def relu_a(g):
        return leaky_relu(g, a)

    def layer_one(v):
        s = layers[0].sigma * np.linalg.norm(v) / np.sqrt(3)
        t = layers[0].mu * v.mean()
        return (s, t, univariate_expect(lambda g: relu_a(g) ** 2, t, s),
                univariate_expect(relu_a, t, s))

    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            s1, t1, k_xx, m_x = layer_one(x)
            s2, t2, k_yy, m_y = layer_one(y)
            rho = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
            k_xy = bivariate_moment_oracle("lrelu", "lrelu", s1, s2, rho,
                                           t1, t2, a=a)
            mu, sigma = layers[1].mu, layers[1].sigma
            want = bivariate_moment_oracle(
                "lrelu", "lrelu", sigma * np.sqrt(k_xx), sigma * np.sqrt(k_yy),
                k_xy / np.sqrt(k_xx * k_yy), mu * m_x, mu * m_y, a=a)
            assert abs(K[i, j] - want) < 1e-10


def test_deep_kernel_zero_mean_equivalence():
    for a in (-0.5, 0.0, 0.3):
        net_sigma = np.sqrt(2.0 / (1 + a * a))
        for L in (1, 2, 8):
            for theta in np.linspace(0, np.pi, 7):
                x = np.array([1.0, 0.0])
                y = np.array([np.cos(theta), np.sin(theta)])
                net = constant_hyper(0.0, net_sigma, L, 2, a,
                                     final_layer_linear=False)
                norm = deep_kernel(x, y, net) / np.sqrt(
                    deep_kernel(x, x, net) * deep_kernel(y, y, net))
                assert abs(norm - arccos_reference(theta, a, L)) < 1e-10


def test_deep_kernel_diagonal_and_linear():
    rng = np.random.default_rng(1)
    x = rng.normal(size=4)
    net = NetworkHyper(0.2, 4, (LayerHyper(-0.5, 1.2), LayerHyper(0.3, 0.9)), True)
    kxx = deep_kernel(x, x, net)
    assert kxx >= 0.0
    # single linear layer reduces to the linear kernel of the raw inputs
    lin = NetworkHyper(0.0, 4, (LayerHyper(-0.5, 1.2),), True)
    y = rng.normal(size=4)
    want = (1.2 ** 2 / 4) * (x @ y) + (0.5 ** 2) * x.mean() * y.mean()
    assert abs(deep_kernel(x, y, lin) - want) < 1e-14


def test_deep_kernel_reparameterisation_scaling():
    # fixed mu/sigma ratio, all sigmas scaled by c => kernel scales by c^(2L)
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(2, 3))
    layers = (LayerHyper(-0.7, 1.4), LayerHyper(0.5, 1.1), LayerHyper(-0.3, 0.9))
    net = NetworkHyper(0.1, 3, layers, True)
    c = 1.37
    scaled = NetworkHyper(0.1, 3, tuple(LayerHyper(l.mu * c, l.sigma * c)
                                        for l in layers), True)
    k0 = deep_kernel(x, y, net)
    k1 = deep_kernel(x, y, scaled)
    assert np.isclose(k1, c ** 6 * k0, rtol=1e-12)


def test_arccos_reference():
    assert abs(arccos_reference(np.pi / 2, 0.0, 1) - 1 / np.pi) < 1e-15
    for a in (-0.5, 0.0, 0.7):
        for L in (1, 3, 10):
            assert arccos_reference(0.0, a, L) == 1.0
    assert arccos_reference(np.pi / 2, 0.0, 64) >= 0.99


def test_kernel_matrix_properties():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(6, 3))
    net = NetworkHyper(0.0, 3, (LayerHyper(-0.6, 1.3), LayerHyper(0.2, 1.0),
                                LayerHyper(0.0, 1.0)), True)
    K = kernel_matrix(X, X, net)
    assert np.array_equal(K, K.T)
    assert np.linalg.eigvalsh(K).min() >= -1e-8
    # single row
    k11 = kernel_matrix(X[:1], X[:1], net)
    assert k11.shape == (1, 1)
    assert abs(k11[0, 0] - deep_kernel(X[0], X[0], net)) < 1e-15
    # entrywise agreement with the scalar path
    Y = rng.normal(size=(4, 3))
    Kxy = kernel_matrix(X, Y, net)
    for i in range(6):
        for j in range(4):
            assert abs(Kxy[i, j] - deep_kernel(X[i], Y[j], net)) < 1e-13


def test_kernel_matrix_normalisation_identity():
    # two unit rows at angle pi/2 under a zero-mean net
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    for a, L in [(0.0, 3), (-0.5, 5)]:
        net = constant_hyper(0.0, np.sqrt(2 / (1 + a * a)), L, 2, a,
                             final_layer_linear=False)
        K = kernel_matrix(X, X, net)
        got = K[0, 1] / np.sqrt(K[0, 0] * K[1, 1])
        assert abs(got - arccos_reference(np.pi / 2, a, L)) < 1e-12


def test_kernel_matrix_rho_survives_tiny_diagonals():
    # zero-mean nets are positively homogeneous, so the normalised kernel is
    # arccos_reference at every sigma, also once k_xx k_yy underflows
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sigma, L in [(1e-30, 4), (1e-40, 3), (1e-50, 3)]:
            K = kernel_matrix(X, X, constant_hyper(0.0, sigma, L, 2, 0.0,
                                                   final_layer_linear=False))
            got = K[0, 1] / (np.sqrt(K[0, 0]) * np.sqrt(K[1, 1]))
            assert abs(got - arccos_reference(np.pi / 2, 0.0, L)) < 1e-12


def test_deep_kernel_rejects_a_batch_of_nets():
    net = constant_hyper(0.0, np.full((2, 1, 1), 1.3), 3, 2)
    with pytest.raises(ValueError, match="kernel_matrix"):
        deep_kernel(np.array([1.0, 0.0]), np.array([0.0, 1.0]), net)


def _batch(values):
    return np.asarray(values, dtype=float).reshape(-1, 1, 1)


def _per_slice(X, Y, nets):
    # unbatched Grams; a slice whose signal vanishes is None
    grams = []
    for net in nets:
        try:
            grams.append(kernel_matrix(X, Y, net))
        except VanishedSignalError:
            grams.append(None)
    return grams


def _assert_batch_matches(X, Y, batched, nets):
    K, vanished = kernel_matrix(X, Y, batched)
    want = _per_slice(X, Y, nets)
    assert vanished.tolist() == [w is None for w in want]
    for got, w in zip(K, want):
        if w is None:
            assert np.all(np.isnan(got))
        else:
            assert np.array_equal(got, w)
    return vanished


def test_kernel_matrix_batch_equals_slices():
    # every slice of a batched Gram has the bits of its own unbatched call;
    # BLAS gemv rounds a row by its place in the call, so this needs one
    # quadrature gemv per slice
    x = np.linspace(-np.sqrt(3.0), np.sqrt(3.0), 10)[:, None]
    mus, sig2s = (g.ravel() for g in np.meshgrid(np.linspace(-2.5, 1.0, 4),
                                                 np.linspace(0.1, 8.0, 4)))
    out = LayerHyper(0.0, 1.0)

    def deep(mu, sigma):
        return NetworkHyper(0.0, 1, (LayerHyper(mu, sigma),) * 15 + (out,))

    batched = deep(_batch(mus), _batch(np.sqrt(sig2s)))
    nets = [deep(m, np.sqrt(s)) for m, s in zip(mus, sig2s)]
    # X = Y at depth 16: the (-2.5, 0.1) corner vanishes
    assert _assert_batch_matches(x, x, batched, nets).any()
    # X != Y
    y = np.linspace(-1.5, 1.6, 7)[:, None]
    _assert_batch_matches(x, y, batched, nets)
    # f4-style: unbatched Gaussian ends around batched hidden layers
    A = np.random.default_rng(4).uniform(-np.sqrt(3.0), np.sqrt(3.0), (2, 12))
    end = LayerHyper(0.0, SQRT2)

    def f4(A1, A2):
        hidden = (LayerHyper(-0.1 * A * A - 0.4, 2.0 * np.abs(A + np.sqrt(3.0)))
                  for A in (A1, A2))
        return NetworkHyper(0.0, 3, (end, *hidden, end))

    X = np.random.default_rng(5).standard_normal((4, 3))
    _assert_batch_matches(X, X, f4(_batch(A[0]), _batch(A[1])),
                          [f4(a1, a2) for a1, a2 in zip(*A)])
    # a middle slice whose k_xx k_yy underflows, among slices whose does not
    sigmas = [1.3, 1e-30, 0.7]
    X = np.array([[1.0, 0.0], [0.0, 1.0]])

    def zero_mean(sigma):
        return constant_hyper(0.0, sigma, 4, 2, 0.0, final_layer_linear=False)

    _assert_batch_matches(X, X, zero_mean(_batch(sigmas)),
                          [zero_mean(s) for s in sigmas])


def _count_blocks(monkeypatch):
    # per _bvn_cdf_at call of the moment maps, the branch of each quadrature
    # block it evaluates and the block's rows, as (name, rows) pairs
    calls = []

    def spy(*args, real=special._bvn_cdf_at):
        calls.append([])
        return real(*args)

    def counted(name, real):
        def branch(h, *rest):
            calls[-1].append((name, h.size))
            return real(h, *rest)
        return branch

    monkeypatch.setattr(kernels, "_bvn_cdf_at", spy)
    for name in ("_bvn_cdf_strong", "_bvn_cdf_moderate"):
        monkeypatch.setattr(special, name,
                            counted(name, getattr(special, name)))
    return calls


def test_kernel_matrix_keeps_its_bits_across_quadrature_blocks(monkeypatch):
    # the Grams and diagonals of batched and unbatched calls keep their bits
    # at every quadrature block size and pair block size: 1 row, a few rows
    # and the whole array.  A batch of two 84-point Grams has up to 14,112
    # regular pairs per layer and evaluates each mirrored pair once, so at
    # the default size a branch fills more than one quadrature block.  Its
    # antipodal rows, and Xs's copies of X's rows, put pairs on the colinear
    # branch at rho = -1 and +1, and the ridge nets put pairs on the strong
    # and moderate branches.  bvn_cdf's own degenerate branch lies inside
    # the colinear cutoff, so only direct calls reach it (test_special)
    X = circle_traversal(10, 80, 0)
    X = np.concatenate((X, -X[:4]))
    Xs = np.concatenate((X[::7], -X[1::9],
                         np.random.default_rng(7).standard_normal((6, 10))))
    mus, sigmas = [-1.05, -0.5], np.sqrt([3.06, 2.0])

    def ridge(a, mu, sigma):
        return NetworkHyper(a, 10, (LayerHyper(mu, sigma),) * 5
                            + (LayerHyper(0.0, 1.0),))

    def evaluate(net):
        return kernel_matrix(X, X, net), kernel_matrix(Xs, X, net), \
            kernel_diag(Xs, net)

    slopes = (0.0, 0.3, -0.5)
    want = {a: [evaluate(ridge(a, m, s)) for m, s in zip(mus, sigmas)]
            for a in slopes}
    calls = _count_blocks(monkeypatch)
    for rows, entries in ((4, 1), (8, 3 * len(X)), (12, 2 ** 62),
                          (special.QUAD_ROWS, kernels._PAIR_BLOCK)):
        monkeypatch.setattr(special, "QUAD_ROWS", rows)
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", entries)
        calls.clear()
        for a in slopes:
            (K, vanished), (Ks, vs), (kd, vd) = evaluate(
                ridge(a, _batch(mus), _batch(sigmas)))
            assert not (vanished.any() or vs.any() or vd.any())
            batched = list(zip(K, Ks, kd))
            for got in (batched, [evaluate(ridge(a, m, s))
                                  for m, s in zip(mus, sigmas)]):
                for g, w in zip(got, want[a]):
                    assert all(np.array_equal(gi, wi) for gi, wi in zip(g, w))
    # at the default sizes: a call with both branches, and a branch of more
    # than one block
    names = [[name for name, _ in blocks] for blocks in calls]
    assert any(len(set(n)) == 2 for n in names)
    assert any(n.count(b) > 1 for n in names for b in set(n))


def test_kernel_matrix_memory_is_bounded():
    # each hidden layer holds the pairs' state and a few whole-layer arrays
    # (bvn_cdf's inputs, indices and output); the moment maps' other terms
    # are formed a block of pairs at a time.  27x the Gram's bytes when the
    # whole layer's terms were formed at once
    X = circle_traversal(10, 600, 0)
    net = NetworkHyper(0.0, 10, (LayerHyper(-1.05, np.sqrt(3.06)),) * 3
                       + (LayerHyper(0.0, 1.0),))
    tracemalloc.start()
    try:
        K = kernel_matrix(X, X, net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * K.nbytes


def _one_call(monkeypatch, branches):
    # Grams take bvn_cdf over all of each slice's regular pairs in one call,
    # in C order, with no copies; each slice's strong and moderate row counts
    # go to `branches`
    def one_call(h, k, rho, mask, real=special._bvn_cdf_at):
        part = np.atleast_2d(mask)
        r = np.abs(np.broadcast_to(rho, part.shape))
        for p, rp in zip(part.reshape(-1, *part.shape[-2:]),
                         r.reshape(-1, *part.shape[-2:])):
            strong = np.count_nonzero(rp[p] > special.STRONG_RHO)
            branches.append((strong, np.count_nonzero(p) - strong))
        return real(h, k, rho, mask)

    monkeypatch.setattr(kernels, "_bvn_cdf_at", one_call)
    monkeypatch.setattr(special, "_copies",
                        lambda h, k, rho, mask: np.zeros(mask.shape, bool))


def _evaluated_rows(monkeypatch):
    # the rows that the quadrature branches evaluate, summed into rows[0]
    rows = [0]

    def counted(real):
        def branch(h, *rest):
            rows[0] += h.size
            return real(h, *rest)
        return branch

    for name in ("_bvn_cdf_strong", "_bvn_cdf_moderate"):
        monkeypatch.setattr(special, name, counted(getattr(special, name)))
    return rows


def _crafted_rho(n, rng):
    # a symmetric moderate rho with strong pairs of either sign, then up to
    # three single entries that break the symmetry: moved onto the moderate,
    # strong or colinear branch, or 1 ulp toward 0 from their mirror
    rho = rng.uniform(-0.9, 0.9, (n, n))
    strong = rng.uniform(size=(n, n)) < 0.3
    rho[strong] = rng.uniform(0.93, 0.999, strong.sum()) \
        * rng.choice([-1.0, 1.0], strong.sum())
    rho = np.tril(rho) + np.tril(rho, -1).T
    np.fill_diagonal(rho, 1.0)
    for _ in range(rng.integers(0, 4)):
        i, j = rng.integers(0, n, 2)
        rho[i, j] = rng.choice([0.5, 0.95, -0.95, np.nextafter(rho[i, j], 0.0),
                                1.0, -1.0])
    return rho


def test_square_gram_evaluates_mirrored_pairs_once(monkeypatch):
    # a square Gram evaluates Phi2 at the upper pairs and at the lower pairs
    # that cannot copy their mirror, and keeps the bits of one call per
    # slice over every regular pair: on ridge circles at three slopes,
    # batched and not, and on crafted rho whose branches hold 1, 2 and 3
    # rows mod 4 and a single row (that row is a 1-row gemv, which numpy
    # sends to dot).  Each slice of the batch keeps its unbatched bits
    X = circle_traversal(10, 60, 0)
    slopes = (0.0, 0.3, -0.5)
    ridges = ((-1.05, 3.06), (-0.5, 2.0))

    def ridge(a, mu, s2):
        return NetworkHyper(a, 10, (LayerHyper(mu, np.sqrt(s2)),) * 5
                            + (LayerHyper(0.0, 1.0),))

    rng = np.random.default_rng(12)
    crafted = [(np.array([[1.0, 0.5, 0.3], [0.5, 0.95, -0.2],
                          [0.3, -0.2, 1.0]]), np.array([0.8, 1.3, 0.6]),
                np.array([-0.4, 0.9, 0.1]))]
    for n in (1, 2, 3, 5, 6, 7, 9, 13) * 6:
        crafted.append((_crafted_rho(n, rng), rng.uniform(0.5, 2.0, n),
                        rng.normal(size=n)))
    mus, sig2s = (_batch(v) for v in zip(*ridges))

    def evaluate():
        with monkeypatch.context() as m:
            rows = _evaluated_rows(m)
            out = [kernel_matrix(X, X, ridge(a, *r))
                   for a in slopes for r in ridges]
            for a in slopes:
                out += [f(s[:, None], s[None, :], rho, t[:, None], t[None, :])
                        for rho, s, t in crafted
                        for f in (abs_kernel, lambda *ops: lrelu_kernel(
                            *ops, a))]
            n_single = rows[0]
            batched = [kernel_matrix(X, X, ridge(a, mus, sig2s))[0]
                       for a in slopes]
        return out, [K for Ks in batched for K in Ks], n_single, \
            rows[0] - n_single

    got, got_batched, n_got, nb_got = evaluate()
    assert all(np.array_equal(g, w) for g, w in zip(got_batched, got))
    branches = []
    _one_call(monkeypatch, branches)
    want, want_batched, n_want, nb_want = evaluate()
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert all(np.array_equal(g, w) for g, w in zip(want_batched, want))
    assert n_got < n_want and nb_got < nb_want
    counts = [c for branch in branches for c in branch]
    assert {c % 4 for c in counts} == {0, 1, 2, 3} and 1 in counts


def test_square_gram_sends_at_most_65_percent_of_its_pairs_to_bvn_cdf(
        monkeypatch):
    # the prior draws' ridge Gram at depth 4: 56% of its regular pairs reach
    # the quadrature, and it keeps the bits of one call over all of them
    X = circle_traversal(10, 600, 0)
    net = NetworkHyper(0.0, 10, (LayerHyper(-1.05, np.sqrt(3.06)),) * 3
                       + (LayerHyper(0.0, 1.0),))
    with monkeypatch.context() as m:
        rows = _evaluated_rows(m)
        K = kernel_matrix(X, X, net)
    branches = []
    _one_call(monkeypatch, branches)
    assert np.array_equal(K, kernel_matrix(X, X, net))
    assert rows[0] <= 0.65 * np.sum(branches)


def test_kernel_matrix_batch_marks_vanished_slice():
    # the vanishing net of test_moment_step_vanished_signal, as the middle
    # slice of a batch: it is marked, and the other slices are untouched
    sigmas = [1.3, 1e-160, 0.7]
    X = np.array([[1.0, 0.0], [0.6, 0.8]])

    def net(sigma):
        return NetworkHyper(0.0, 2, (LayerHyper(0.0, SQRT2),
                                     LayerHyper(0.0, sigma),
                                     LayerHyper(0.0, 1.0)), False)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vanished = _assert_batch_matches(X, X, net(_batch(sigmas)),
                                         [net(s) for s in sigmas])
    assert vanished.tolist() == [False, True, False]


def _grid_nets(depth, dim, mus, sig2s, a=0.0):
    # one net per (mu, sigma^2): every LReLU layer shares it, as in a grid
    return [NetworkHyper(a, dim, (LayerHyper(mu, np.sqrt(s2)),) * (depth - 1)
                         + (LayerHyper(0.0, 1.0),))
            for mu in mus for s2 in sig2s]


def _diag_inputs():
    return [x for ds in (gen_sine(0), gen_smooth_xor(0))
            for x in (ds.X_train, ds.X_test)]


def test_kernel_diag_is_the_gram_diagonal():
    # the diagonal alone has the bits of the full Gram's diagonal, and a
    # vanishing net raises the same error, at the same layer and value
    n_vanished = 0
    for X in _diag_inputs():
        for depth in (2, 4, 8, 16):
            for net in _grid_nets(depth, X.shape[1], np.linspace(-2.5, 1.0, 4),
                                  np.linspace(0.1, 8.0, 4)):
                try:
                    K = kernel_matrix(X, X, net)
                except VanishedSignalError as full:
                    with pytest.raises(VanishedSignalError) as diag:
                        kernel_diag(X, net)
                    assert (diag.value.layer, diag.value.value) == \
                        (full.layer, full.value)
                    n_vanished += 1
                    continue
                assert np.array_equal(kernel_diag(X, net), np.diag(K))
    assert n_vanished > 0
    # slope 0 at depth 32: cancellation moves a diagonal pair off the
    # colinear branch into bvn_cdf's gemv, which rounds a row by its place in
    # the call, so one entry differs in its last bits (README)
    X = gen_smooth_xor(0).X_train
    net = _grid_nets(32, 2, [np.linspace(-2.5, 1.0, 12)[4]], [0.1])[0]
    assert np.allclose(kernel_diag(X, net), np.diag(kernel_matrix(X, X, net)),
                       rtol=1e-12, atol=0.0)


def test_kernel_diag_batch_equals_slices():
    # each slice of a batched diagonal is its own unbatched call; the
    # vanishing (-2.5, 0.1) corner is marked and NaN
    mus, sig2s = (g.ravel() for g in np.meshgrid(np.linspace(-2.5, 1.0, 3),
                                                 np.linspace(0.1, 8.0, 3)))
    for X in _diag_inputs():
        for depth in (8, 16):
            template = _grid_nets(depth, X.shape[1], [0.0], [1.0])[0]
            batched = NetworkHyper(
                0.0, X.shape[1],
                (LayerHyper(_batch(mus), _batch(np.sqrt(sig2s))),)
                * (depth - 1) + template.layers[-1:])
            k, vanished = kernel_diag(X, batched)
            assert k.shape == (mus.size, X.shape[0])
            for got, gone, mu, s2 in zip(k, vanished, mus, sig2s):
                net = _grid_nets(depth, X.shape[1], [mu], [s2])[0]
                if gone:
                    assert np.all(np.isnan(got))
                    with pytest.raises(VanishedSignalError):
                        kernel_diag(X, net)
                else:
                    assert np.array_equal(got, kernel_diag(X, net))
            if depth == 16:
                assert vanished[0] and mus[0] == -2.5 and sig2s[0] == 0.1


def test_moment_maps_receive_clipped_rho(monkeypatch):
    # the moment maps trust |rho| <= 1: the first layer, every hidden layer
    # and the diagonal pairs hand the pair map a rho clipped into [-1, 1]
    real = kernels._pair_blocks
    n_calls = 0

    def checked(moment, s1, s2, rho, *ops):
        nonlocal n_calls
        assert np.all(np.abs(rho) <= 1.0)
        n_calls += 1
        return real(moment, s1, s2, rho, *ops)

    monkeypatch.setattr(kernels, "_pair_blocks", checked)
    mus, sig2s = np.linspace(-2.5, 1.0, 3), np.linspace(0.1, 8.0, 3)
    mu_b, s2_b = (g.ravel() for g in np.meshgrid(mus, sig2s))
    for ds in (gen_sine(0), gen_smooth_xor(0)):
        # some Smooth XOR test rows have x.x / (|x| |x|) > 1 before the clip
        X, Y = ds.X_test[:20], ds.X_train
        for depth in (2, 3, 4, 8, 16):
            for a in (-0.5, 0.0, 0.3):
                batched = NetworkHyper(
                    a, X.shape[1],
                    (LayerHyper(_batch(mu_b), _batch(np.sqrt(s2_b))),)
                    * (depth - 1) + (LayerHyper(0.0, 1.0),))
                for net in _grid_nets(depth, X.shape[1], mus, sig2s, a) \
                        + [batched]:
                    try:
                        kernel_matrix(X, X, net)
                        kernel_matrix(X, Y, net)
                        kernel_diag(X, net)
                    except VanishedSignalError:
                        pass
    assert n_calls > 0


def test_regular_mask_needs_no_square_root():
    # sin^2 theta < _SIN2_THETA_TOL marks the pairs that sin theta <
    # SIN_THETA_TOL marks: at the threshold's neighbours, on the rho that
    # land near it, over all of [-1, 1], and at NaN
    tol2 = kernels._SIN2_THETA_TOL
    x = np.concatenate([tol2 + np.spacing(tol2) * np.arange(-2000, 2001),
                        np.geomspace(1e-300, 1.0, 10001), [0.0, np.nan]])
    assert np.array_equal(x < tol2, np.sqrt(x) < kernels.SIN_THETA_TOL)
    edge = np.sqrt(1.0 - tol2)
    rho = np.concatenate([edge + np.spacing(edge) * np.arange(-500, 501),
                          np.linspace(-1.0, 1.0, 200001), [np.nan]])
    rho = np.concatenate([rho, -rho])
    rho = rho[~(np.abs(rho) > 1.0)]
    s2 = (1.0 - rho) * (1.0 + rho)
    assert np.array_equal(s2 < tol2, np.sqrt(s2) < kernels.SIN_THETA_TOL)
    assert 0 < np.count_nonzero(s2 < tol2) < len(rho) - 1000


def test_each_layer_maps_every_point_and_pair_once(monkeypatch):
    # a hidden LReLU layer forms its points' terms in one call, which its
    # points' own moments and means read, and maps its pairs in one pair-map
    # call, whether Y is X, Y is another set or only the diagonal pairs are
    # asked for
    names = ("_point_terms", "_lrelu_mean", "_pair_blocks")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, real=getattr(kernels, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(kernels, name, counted)
    ds = gen_smooth_xor(0)
    X, Xs = ds.X_train, ds.X_test
    depth = 8
    mu_b, s2_b = (g.ravel() for g in np.meshgrid(np.linspace(-1.5, 0.5, 3),
                                                 np.linspace(1.0, 4.0, 3)))
    batched = NetworkHyper(0.0, 2, (LayerHyper(_batch(mu_b),
                                               _batch(np.sqrt(s2_b))),)
                           * (depth - 1) + (LayerHyper(0.0, 1.0),))
    for net in _grid_nets(depth, 2, [-0.4], [2.1]) + [batched]:
        for evaluate in (lambda: kernel_matrix(X, X, net),
                         lambda: kernel_matrix(Xs, X, net),
                         lambda: kernel_diag(Xs, net)):
            calls.update(dict.fromkeys(names, 0))
            evaluate()
            assert calls == dict.fromkeys(names, depth - 1)


def test_point_moments_are_the_public_moment_maps():
    # the recursion's per-point (k, m), read from each point's terms, has the
    # bits of lrelu_kernel(s, s, 1, t, t, a) and lrelu_mean(t, s, a), and its
    # pairs those of lrelu_kernel on the same operands: t/s over [-8, 8],
    # for X with itself, X with Y and the diagonal pairs, batched and not
    rng = np.random.default_rng(23)
    X, Y = rng.standard_normal((40, 3)), rng.standard_normal((25, 3))
    for layer in (LayerHyper(0.0, 1.3),
                  LayerHyper(0.0, _batch([0.4, 1.3, 2.2]))):
        for y in (X, Y, None):
            s, _, rho, rows, cols = _first_layer_preactivation(X, y, layer, 3)
            ratio = rng.permutation(np.linspace(-8.0, 8.0, s.size))
            t = s * ratio.reshape(s.shape)
            for a in (-0.5, 0.0, 0.3):
                k, m, k_xy = _moment_step(s, t, rho, rows, cols, a)
                assert k.tobytes() == lrelu_kernel(s, s, 1.0, t, t, a).tobytes()
                assert m.tobytes() == lrelu_mean(t, s, a).tobytes()
                want = lrelu_kernel(s[rows], s[cols], rho, t[rows], t[cols], a)
                assert k_xy.tobytes() == want.tobytes()


def test_y_equal_to_x_is_decided_by_value():
    # a copy of X is X: kernel_matrix(X, X.copy()) has the bits of
    # kernel_matrix(X, X) and is symmetric in every bit.  60 points in
    # dimension 3: there the syrk of X @ X.T and the gemm of X @ X.copy().T
    # round differently
    X = np.random.default_rng(6).standard_normal((60, 3))
    single, batch = (NetworkHyper(0.2, 3, (LayerHyper(mu, np.sqrt(s2)),) * 5
                                  + (LayerHyper(0.0, 1.0),))
                     for mu, s2 in ((-0.4, 2.1), (_batch([-0.4, 0.3]),
                                                  _batch([2.1, 1.2]))))
    K = kernel_matrix(X, X.copy(), single)
    assert np.array_equal(K, kernel_matrix(X, X, single))
    assert np.array_equal(K, K.T)
    (K, vanished), (want, _) = (kernel_matrix(X, Y, batch)
                                for Y in (X.copy(), X))
    assert not vanished.any()
    assert np.array_equal(K, want)
    assert np.array_equal(K, np.swapaxes(K, -1, -2))


def test_single_layer_bias_relu_diagonal():
    got = single_layer_kernel_with_bias([1.0, 0.0], [1.0, 0.0],
                                        np.zeros(3), np.ones(3), 0.0)
    assert abs(got - 1.0) < 1e-14


def test_single_layer_bias_orthogonal_zero_mean():
    # augmented vectors (1,0,1) and (-1,1,1) are orthogonal
    got = single_layer_kernel_with_bias([1.0, 0.0], [-1.0, 1.0],
                                        np.zeros(3), np.ones(3), 0.0)
    s1 = np.sqrt(2.0)
    s2 = np.sqrt(3.0)
    want = s1 * s2 / (2 * np.pi)
    assert abs(got - want) < 1e-13


def test_single_layer_bias_generic_oracle():
    got = single_layer_kernel_with_bias([0.8, -0.4], [-0.2, 1.1],
                                        [0.3, -0.6, 0.5], [1.2, 0.8, 0.5], 0.1)
    assert abs(got - BIAS_GENERIC) < 1e-12
    # weight-space Monte-Carlo cross-check
    rng = np.random.default_rng(77)
    est, se = weightspace_kernel_mc([0.8, -0.4, 1.0], [-0.2, 1.1, 1.0],
                                    [0.3, -0.6, 0.5], [1.2, 0.8, 0.5], 0.1,
                                    10 ** 6, rng)
    assert abs(got - est) < 4 * se


def test_single_layer_bias_degenerate():
    with pytest.raises(DegenerateInputError):
        single_layer_kernel_with_bias([1.0, 0.0], [0.0, 1.0],
                                      np.zeros(3), np.zeros(3), 0.0)


def test_hyper_validation():
    with pytest.raises(ValueError):
        LayerHyper(0.0, 0.0)
    with pytest.raises(ValueError):
        LayerHyper(0.0, _batch([1.0, 0.0]))
    with pytest.raises(ValueError):
        LayerHyper(_batch([0.0, np.inf]), 1.0)
    with pytest.raises(ValueError):
        NetworkHyper(1.0, 2, (LayerHyper(0.0, 1.0),), True)
    with pytest.raises(ValueError):
        NetworkHyper(0.0, 0, (LayerHyper(0.0, 1.0),), True)
    with pytest.raises(ValueError):
        single_layer_kernel_with_bias([1.0, 0.0], [0.0, 1.0],
                                      np.zeros(3), np.ones(3), 1.5)
