"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte-Carlo and MMD
criteria are the heavy ones (a few minutes each); everything else is fast.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr, ttest_1samp

from mlpgp.data import NOISE_VAR, gen_sine, gen_smooth_xor
from mlpgp.finite_net import get_scheme
from mlpgp.gp import GPModel, perturbation_bound, posterior_predictive
from mlpgp.hyper import (Chain, GridSpec, MHConfig, grid_eval,
                         marginal_predictive, random_walk_mh,
                         substitute_hyper)
from mlpgp.kernels import (LayerHyper, NetworkHyper, arccos_reference,
                           constant_hyper, deep_kernel, lrelu_kernel,
                           single_layer_kernel_with_bias)
from mlpgp.mmd import convergence_experiment
from mlpgp.special import bvn_cdf

from _oracles import bivariate_mc, leaky_relu, weightspace_kernel_mc


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description} "
              f"[{time.time() - start:.1f}s]")
        raise
    print(f"PASS criterion {number}: {description} "
          f"[{time.time() - start:.1f}s]")


def test_criterion_01_bvn_closed_form():
    with criterion(1, "bvn_cdf(0,0,rho) = 1/4 + arcsin(rho)/2pi within 1e-12"):
        start = time.time()
        rhos = np.linspace(-0.999, 0.999, 50)
        got = bvn_cdf(0.0, 0.0, rhos)
        want = 0.25 + np.arcsin(rhos) / (2 * np.pi)
        assert np.max(np.abs(got - want)) < 1e-12
        assert time.time() - start < 1.0


def test_criterion_02_zero_mean_equivalence():
    with criterion(2, "normalised deep kernel matches the angle recursion "
                      "within 1e-10"):
        start = time.time()
        worst = 0.0
        for a in (-0.5, 0.0, 0.3):
            sigma = np.sqrt(2.0 / (1 + a * a))
            for L in (1, 2, 8, 32):
                net = constant_hyper(0.0, sigma, L, 2, a,
                                     final_layer_linear=False)
                for theta in np.arange(0.0, np.pi + 1e-12, np.pi / 8):
                    x = np.array([1.0, 0.0])
                    y = np.array([np.cos(theta), np.sin(theta)])
                    num = deep_kernel(x, y, net)
                    den = np.sqrt(deep_kernel(x, x, net)
                                  * deep_kernel(y, y, net))
                    worst = max(worst, abs(num / den
                                           - arccos_reference(theta, a, L)))
        assert worst < 1e-10
        assert time.time() - start < 5.0


def test_criterion_03_fixed_point():
    with criterion(3, "depth-64 normalised kernel flattens to >= 0.99"):
        start = time.time()
        ref = arccos_reference(np.pi / 2, 0.0, 64)
        assert ref >= 0.99
        net = constant_hyper(0.0, np.sqrt(2.0), 64, 2, 0.0,
                             final_layer_linear=False)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        norm = deep_kernel(x, y, net) / np.sqrt(
            deep_kernel(x, x, net) * deep_kernel(y, y, net))
        assert abs(norm - ref) < 1e-9
        assert norm >= 0.99
        assert time.time() - start < 1.0


def test_criterion_04_monte_carlo_oracles():
    with criterion(4, "non-zero-mean kernels within 4 SE of 1e7-sample "
                      "Monte-Carlo oracles at 50 random points"):
        start = time.time()
        rng = np.random.default_rng(20240)
        n = 10 ** 7
        for _ in range(25):
            # single-layer kernel with bias, checked in weight space
            dim = int(rng.integers(2, 4))
            x1 = rng.normal(0, 1, dim)
            x2 = rng.normal(0, 1, dim)
            mu = rng.normal(0, 0.8, dim + 1)
            sig = rng.uniform(0.2, 1.5, dim + 1)
            a = float(rng.uniform(-0.6, 0.6))
            got = single_layer_kernel_with_bias(x1, x2, mu, sig, a)
            est, se = weightspace_kernel_mc(np.append(x1, 1.0),
                                            np.append(x2, 1.0), mu, sig, a,
                                            n, rng)
            assert abs(got - est) <= 4 * se
        for _ in range(25):
            # one hidden-layer update, checked against correlated draws
            kxx, kyy = rng.uniform(0.2, 2.0, 2)
            rho = float(rng.uniform(-0.97, 0.97))
            mx, my = rng.normal(0, 0.8, 2)
            layer = LayerHyper(float(rng.normal(0, 0.8)),
                               float(rng.uniform(0.5, 1.6)))
            a = float(rng.uniform(-0.6, 0.6))
            s1 = layer.sigma * np.sqrt(kxx)
            s2 = layer.sigma * np.sqrt(kyy)
            k_xy = lrelu_kernel(s1, s2, rho, layer.mu * mx, layer.mu * my, a)
            est, se = bivariate_mc(
                lambda g1, g2: leaky_relu(g1, a) * leaky_relu(g2, a),
                s1, s2, rho, layer.mu * mx, layer.mu * my, n, rng)
            assert abs(k_xy - est) <= 4 * se
        assert time.time() - start < 120.0


def test_criterion_05_mmd_convergence():
    with criterion(5, "MMD^2 decreases with width (F1/F2, depths 4 and 8) "
                      "and vanishes at width 1024"):
        start = time.time()
        widths = (16, 64, 256, 1024)
        trends = []
        for name in ("f1", "f2"):
            for depth in (4, 8):
                for seed in range(5):
                    res = convergence_experiment(
                        get_scheme(name), depth, widths, d_probe=4,
                        n_samples=1000, input_dim=10, seed=seed, n_perm=200)
                    trends.append(spearmanr(widths, res.mmd2).statistic)
                    if seed == 0:
                        assert res.null_lo[-1] <= res.mmd2[-1] <= res.null_hi[-1]
        trends = np.asarray(trends)
        test = ttest_1samp(trends, 0.0, alternative="less")
        assert test.pvalue < 0.05
        assert trends.mean() < 0
        assert time.time() - start < 600.0


def test_criterion_06_sine_regression_sanity():
    with criterion(6, "Sine grid-MLE regression beats half the test-target "
                      "variance"):
        start = time.time()
        ds = gen_sine(1)
        template = NetworkHyper(0.0, 1,
                                (LayerHyper(0.0, 1.0), LayerHyper(0.0, 1.0)),
                                True)
        res = grid_eval(ds.X_train, ds.y_train, template,
                        GridSpec((-2.5, 1.0), (0.1, 8.0), 50), "log-ml",
                        noise_var=NOISE_VAR)
        net = substitute_hyper(template, res.argmax[0], res.argmax[1])
        pp = posterior_predictive(ds.X_test, ds.X_train, ds.y_train,
                                  GPModel(net, NOISE_VAR))
        mse = float(np.mean((pp.mean - ds.y_test) ** 2))
        assert mse <= 0.5 * float(np.var(ds.y_test))
        assert time.time() - start < 120.0


def test_criterion_07_nonzero_mean_evidence():
    with criterion(7, "Smooth-XOR evidence maximum strictly beats the "
                      "mu = 0 constrained maximum at depths 4 and 8"):
        start = time.time()
        ds = gen_smooth_xor(1)
        for depth in (4, 8):
            template = NetworkHyper(0.0, 2,
                                    tuple([LayerHyper(0.0, 1.0)] * depth),
                                    True)
            res = grid_eval(ds.X_train, ds.y_train, template,
                            GridSpec((-2.5, 1.0), (0.1, 8.0), 50), "log-ml",
                            noise_var=NOISE_VAR)
            assert res.argmax[2] > res.argmax_mu0[2]
            assert res.argmax[0] != 0.0
        assert time.time() - start < 300.0


def test_criterion_08_mh_on_analytic_target():
    with criterion(8, "MH recovers an analytic 2-d Gaussian within 3 SE "
                      "over 10 chains"):
        start = time.time()
        m = np.array([-1.0, 3.0])
        cov = np.array([[2.0, 0.5], [0.5, 1.5]])
        prec = np.linalg.inv(cov)

        def logp(theta):
            d = np.asarray(theta) - m
            return float(-0.5 * d @ prec @ d)

        means = []
        covs = []
        for seed in range(10):
            chain = random_walk_mh(logp, tuple(m),
                                   MHConfig(n_samples=100, seed=seed))
            means.append(chain.samples.mean(axis=0))
            covs.append(np.cov(chain.samples.T))
        means = np.asarray(means)
        covs = np.asarray(covs)
        se_mean = means.std(axis=0, ddof=1) / np.sqrt(10)
        assert np.all(np.abs(means.mean(axis=0) - m) <= 3 * se_mean)
        se_cov = covs.std(axis=0, ddof=1) / np.sqrt(10)
        assert np.all(np.abs(covs.mean(axis=0) - cov) <= 3 * se_cov)
        assert time.time() - start < 30.0


def test_criterion_09_point_mass_marginalisation():
    with criterion(9, "single-atom chain marginal predictive is bit-identical "
                      "to the conditional predictive"):
        ds = gen_sine(1)
        template = NetworkHyper(0.0, 1,
                                (LayerHyper(0.0, 1.0), LayerHyper(0.0, 1.0)),
                                True)
        atom = (-0.4, 2.2)
        chain = Chain(np.array([atom]), np.array([0.0]), 1.0)
        mp = marginal_predictive(ds.X_test, ds.X_train, ds.y_train, template,
                                 chain, noise_var=NOISE_VAR)
        net = substitute_hyper(template, *atom)
        pp = posterior_predictive(ds.X_test, ds.X_train, ds.y_train,
                                  GPModel(net, NOISE_VAR))
        assert np.array_equal(mp.mean, pp.mean)
        assert np.array_equal(mp.var, pp.var)


def test_criterion_10_perturbation_bound():
    with criterion(10, "posterior-mean shift obeys the perturbation bound on "
                       "20 random instances; exact zero at s = 0"):
        net = constant_hyper(0.0, np.sqrt(2.0), 3, 3, 0.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(5, 3))
            Xs = rng.normal(size=(6, 3))
            y = rng.normal(size=5)
            c1, c2 = rng.uniform(0.7, 1.6, 2)
            lhs, bound = perturbation_bound(Xs, X, y, net, c1, c2, s=0.05)
            assert lhs <= bound
            lhs0, bound0 = perturbation_bound(Xs, X, y, net, c1, c2, s=0.0)
            assert abs(lhs0) < 1e-10
            assert bound0 == 0.0


def test_criterion_11_sigma_insensitivity():
    with criterion(11, "mu = 0 MLE and MAP predictive means differ by "
                       "< 1e-2 RMS on Sine"):
        ds = gen_sine(3)
        template = NetworkHyper(0.0, 1,
                                (LayerHyper(0.0, 1.0), LayerHyper(0.0, 1.0)),
                                True)
        spec = GridSpec((-2.5, 1.0), (0.1, 8.0), 50)
        mle = grid_eval(ds.X_train, ds.y_train, template, spec, "log-ml",
                        noise_var=NOISE_VAR)
        mapr = grid_eval(ds.X_train, ds.y_train, template, spec,
                         "log-posterior", noise_var=NOISE_VAR)
        means = []
        for point in (mle.argmax_mu0, mapr.argmax_mu0):
            net = substitute_hyper(template, point[0], point[1])
            means.append(posterior_predictive(
                ds.X_test, ds.X_train, ds.y_train,
                GPModel(net, NOISE_VAR)).mean)
        rms = float(np.sqrt(np.mean((means[0] - means[1]) ** 2)))
        assert rms < 1e-2
