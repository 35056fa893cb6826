import numpy as np
import pytest

from mlpgp.finite_net import (END_SIGMA, IIDGaussian, NetworkShape,
                              activations, dump_weights, forward, get_scheme,
                              layer_prior, load_weights, sample_weights)
from mlpgp.kernels import arccos_reference

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def test_network_shape():
    shape = NetworkShape(10, (32, 16), 1)
    assert shape.n_layers == 3
    assert shape.layer_dims() == [(32, 10), (16, 32), (1, 16)]
    with pytest.raises(ValueError):
        NetworkShape(0, (4,), 1)


def test_scheme_hyperparams_table():
    assert get_scheme("f1").hyperparams() == (0.0, SQRT2)
    assert get_scheme("f2").hyperparams() == (-0.5, np.sqrt(8.0))
    assert get_scheme("f3").hyperparams(0.9) == (0.0, SQRT2)
    mu, sigma = get_scheme("f4").hyperparams(0.0)
    assert abs(mu + 0.4) < 1e-15
    assert abs(sigma - 2 * SQRT3) < 1e-15
    # the analytic variance of sqrt(2) D (A + sqrt3) disagrees with the
    # table entry by a factor sqrt(2); both conventions stay available
    mu2, sigma2 = get_scheme("f4", f4_sigma="analytic").hyperparams(0.7)
    assert abs(sigma2 - SQRT2 * abs(0.7 + SQRT3)) < 1e-15
    assert abs(get_scheme("f4").hyperparams(0.7)[1]
               - 2 * abs(0.7 + SQRT3)) < 1e-15
    with pytest.raises(ValueError):
        get_scheme("f9")


def test_f4_analytic_sigma_matches_generator_variance():
    # Var_D of the f4 generator, conditional on (A, C), against the analytic
    # convention
    scheme = get_scheme("f4", f4_sigma="analytic")
    rng = np.random.default_rng(0)
    A = 0.8
    D = rng.uniform(-SQRT3, SQRT3, 200_000)
    scale, shift = scheme.affine(A, 1.0)
    F = scale * D + shift
    _, sigma_analytic = scheme.hyperparams(A)
    assert abs(F.std() - sigma_analytic) < 0.01


def test_f1_element_moments():
    # >= 1e6 elements; element mean 0 and variance 2/n within 3 SE
    n = 1024
    shape = NetworkShape(n, (n, n), 1)  # middle layer is the RCE one
    netw = sample_weights(shape, get_scheme("f1"), 0.0, seed=11)
    W = netw.weights[1]
    assert W.size >= 10 ** 6
    se_mean = np.sqrt(2.0 / n) / np.sqrt(W.size)
    assert abs(W.mean()) < 3 * se_mean
    # sample variance of m iid values: SE ~ var * sqrt(2/m) for light tails
    se_var = (2.0 / n) * np.sqrt(2.0 / W.size)
    assert abs(W.var() - 2.0 / n) < 3 * se_var


def test_f2_effective_hyperparameters():
    n = 1024
    shape = NetworkShape(n, (n, n), 1)
    netw = sample_weights(shape, get_scheme("f2"), 0.0, seed=21)
    W = netw.weights[1]
    se_mean = np.sqrt(8.0 / n) / np.sqrt(W.size)
    assert abs(W.mean() - (-0.5 / n)) < 4 * se_mean
    assert abs(W.var() * n - 8.0) < 0.05


def test_f3_column_means_average_out():
    # scaled column means follow -1.5 A C_i plus noise of std sqrt(2); a
    # regression on C recovers the slope, and the average tends to zero
    n = 4096
    shape = NetworkShape(n, (n, n), 1)
    netw = sample_weights(shape, get_scheme("f3"), 0.0, seed=31)
    W = netw.weights[1]
    A, B, C = netw.latents[1]
    c = C[0]
    col_mu = W.mean(axis=0) * n
    slope = np.cov(col_mu, c)[0, 1] / np.var(c)
    se_slope = np.sqrt(2.0) / (np.sqrt(n) * c.std())
    assert abs(slope - (-1.5 * A)) < 4 * se_slope
    # Cesaro average: noise term sqrt(2/n) plus signal term 1.5|A|/sqrt(n)
    se_avg = np.sqrt(2.0 + (1.5 * A) ** 2) / np.sqrt(n)
    assert abs(col_mu.mean()) < 3 * se_avg


def test_centring_identity():
    # mean of W - mu_ji / n over all elements shrinks like 1/sqrt(width * n)
    n = 4096
    shape = NetworkShape(n, (n, n), 1)
    for name in ("f2", "f3", "f4"):
        scheme = get_scheme(name)
        netw = sample_weights(shape, scheme, 0.0, seed=5)
        W = netw.weights[1]
        A, B, C = netw.latents[1]
        _, shift = scheme.affine(A, C)
        mu = np.broadcast_to(np.atleast_2d(shift), W.shape)
        resid = W - mu / n
        se = resid.std() / np.sqrt(resid.size)
        assert abs(resid.mean()) < 4 * se


def test_rce_permutation_invariance():
    # permuting rows and columns leaves the first two sample moments alone
    shape = NetworkShape(256, (256, 256), 1)
    netw = sample_weights(shape, get_scheme("f4"), 0.0, seed=8)
    W = netw.weights[1]
    rng = np.random.default_rng(0)
    P = W[rng.permutation(256)][:, rng.permutation(256)]
    assert np.isclose(W.mean(), P.mean(), rtol=0, atol=1e-15)
    assert np.isclose(W.var(), P.var(), rtol=0, atol=1e-15)


def test_iid_he_scaling_preserves_signal_norm():
    # with sigma^2 = 2 and a = 0 the mean squared signal stays flat across
    # layers in expectation; average a few draws to beat the 1/sqrt(width)
    # fluctuation
    width = 4096
    shape = NetworkShape(64, (width, width, width), 1)
    x = np.random.default_rng(1).standard_normal(64)
    base = float(np.mean(x ** 2))
    sums = np.zeros(3)
    n_nets = 6
    for seed in range(n_nets):
        netw = sample_weights(shape, IIDGaussian(0.0, SQRT2), 0.0, seed=seed)
        acts = activations(netw, x)
        sums += [float(np.mean(h ** 2)) for h in acts[:-1]]
    for nv in sums / n_nets:
        assert abs(nv - base) / base < 0.05


def test_forward_linear_and_relu_cases():
    # one linear layer reproduces the matrix product
    shape = NetworkShape(3, (4,), 2)
    netw = sample_weights(shape, IIDGaussian(0.0, 1.0), 0.0, seed=0)
    X = np.random.default_rng(2).standard_normal((5, 3))
    out = forward(netw, X)
    want = np.maximum(X @ netw.weights[0].T, 0.0) @ netw.weights[1].T
    assert np.allclose(out, want, atol=0)
    # all-negative pre-activations die under ReLU
    netw.weights[0] = -np.abs(netw.weights[0])
    hidden = activations(netw, np.abs(X))[0]
    assert np.all(hidden == 0.0)
    with pytest.raises(ValueError):
        forward(netw, np.zeros((2, 7)))


def test_forward_empirical_kernel_matches_limit():
    # Fig-2 style protocol: normalised hidden-unit kernel at width 3000
    theta = 1.2
    x = np.array([1.0, 0.0])
    y = np.array([np.cos(theta), np.sin(theta)])
    shape = NetworkShape(2, (3000,), 1)
    vals = []
    for seed in range(3):
        netw = sample_weights(shape, IIDGaussian(0.0, SQRT2), 0.0, seed=seed)
        acts = activations(netw, np.stack([x, y]))[0]
        g = acts @ acts.T / acts.shape[1]
        vals.append(g[0, 1] / np.sqrt(g[0, 0] * g[1, 1]))
    assert abs(np.mean(vals) - arccos_reference(theta, 0.0, 1)) < 0.05


def test_sampling_determinism_and_substreams():
    shape = NetworkShape(8, (16, 16), 1)
    a = sample_weights(shape, get_scheme("f2"), 0.1, seed=9)
    b = sample_weights(shape, get_scheme("f2"), 0.1, seed=9)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = sample_weights(shape, get_scheme("f2"), 0.1, seed=10)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_layer_prior_keeps_gaussian_ends_for_rce_nets():
    f3 = get_scheme("f3")
    ends = IIDGaussian(0.0, END_SIGMA)
    assert [layer_prior(f3, l, 4) for l in (1, 2, 3, 4)] == [ends, f3, f3, ends]
    assert layer_prior(f3, 1, 1) == ends
    iid = IIDGaussian(-0.5, 1.3)
    assert all(layer_prior(iid, l, 3) is iid for l in (1, 2, 3))
    with pytest.raises(TypeError):
        layer_prior(object(), 2, 3)
    # the sampler reads the same rule: an RCE net's ends are the draws of
    # an iid net at (0, END_SIGMA) from the same layer substreams
    shape = NetworkShape(10, (16, 16, 16), 1)
    rce = sample_weights(shape, get_scheme("f4"), 0.0, seed=5)
    gauss = sample_weights(shape, ends, 0.0, seed=5)
    for l in (0, -1):
        assert rce.weights[l].tobytes() == gauss.weights[l].tobytes()
        assert rce.latents[l] is None
    assert all(lat is not None for lat in rce.latents[1:-1])


def test_weight_dump_roundtrip(tmp_path):
    shape = NetworkShape(5, (7,), 1)
    netw = sample_weights(shape, IIDGaussian(-0.3, 1.1), 0.2, seed=4)
    manifest = dump_weights(netw, tmp_path)
    assert manifest.exists()
    loaded = load_weights(tmp_path)
    assert loaded.slope_a == netw.slope_a
    for wa, wb in zip(netw.weights, loaded.weights):
        assert np.array_equal(wa, wb)
    # files really are little-endian float64
    raw = np.fromfile(tmp_path / "layer_00.bin", dtype="<f8")
    assert np.array_equal(raw.reshape(7, 5), netw.weights[0])
