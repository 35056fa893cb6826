"""Independent reference oracles used to pin expected values in the tests.

Everything here is built directly on scipy quadrature / plain Monte Carlo and
never imports mlpgp, so agreement between the two is meaningful.
"""

import numpy as np
from scipy import integrate
from scipy.stats import norm

SQRT3 = np.sqrt(3.0)


def leaky_relu(z, a):
    return np.maximum(a * z, z)


def bvn_cdf_oracle(h, k, rho):
    """P(Z1 <= h, Z2 <= k) for standard bivariate normals, by 1-d quadrature.

    Integrates phi(z) * Phi((k - rho z)/sqrt(1-rho^2)) over z <= h.
    """
    if abs(rho) == 1.0:
        if rho > 0:
            return norm.cdf(min(h, k))
        return max(0.0, norm.cdf(h) + norm.cdf(k) - 1.0)
    denom = np.sqrt(1.0 - rho * rho)

    def integrand(z):
        return norm.pdf(z) * norm.cdf((k - rho * z) / denom)

    val, _ = integrate.quad(integrand, -12.0, h, epsabs=1e-14, epsrel=1e-13,
                            limit=400)
    return val


def bivariate_expect(f, s1, s2, rho, t1, t2, lim=10.0):
    """E[f(G1, G2)] with Gi = ti + si Zi, corr(Z1, Z2) = rho, by dblquad.

    Accurate to ~1e-7 for kinked f; prefer the conditional-moment oracles
    below for tight tolerances.
    """
    root = np.sqrt(max(0.0, 1.0 - rho * rho))

    def integrand(z2, z1):
        g1 = t1 + s1 * z1
        g2 = t2 + s2 * (rho * z1 + root * z2)
        return f(g1, g2) * np.exp(-0.5 * (z1 * z1 + z2 * z2)) / (2.0 * np.pi)

    val, _ = integrate.dblquad(integrand, -lim, lim, -lim, lim,
                               epsabs=1e-11, epsrel=1e-11)
    return val


def _mean_abs_normal(m, s):
    # E|N(m, s^2)|, the standard folded-normal mean identity
    return m * (2.0 * norm.cdf(m / s) - 1.0) + 2.0 * s * norm.pdf(m / s)


def _inner_mean(kind, m, s, a):
    if kind == "id":
        return m
    if kind == "abs":
        return _mean_abs_normal(m, s)
    if kind == "lrelu":
        return 0.5 * ((1.0 + a) * m + (1.0 - a) * _mean_abs_normal(m, s))
    raise ValueError(kind)


def _outer_fn(kind, g, a):
    if kind == "id":
        return g
    if kind == "abs":
        return abs(g)
    if kind == "lrelu":
        return max(a * g, g)
    raise ValueError(kind)


def bivariate_moment_oracle(kind1, kind2, s1, s2, rho, t1, t2, a=0.0,
                            lim=12.0):
    """E[f1(G1) f2(G2)] via conditioning on Z1 and 1-d adaptive quadrature.

    The inner conditional expectation uses the classical univariate
    folded-normal identity (verified separately against pure quadrature);
    the outer integral is split at the kink of f1 so scipy.quad resolves it
    to ~1e-13.  This route never touches the bivariate-CDF machinery.
    """
    s_in = s2 * np.sqrt(max(0.0, 1.0 - rho * rho))

    def outer(z1):
        g1 = t1 + s1 * z1
        m_in = t2 + s2 * rho * z1
        if s_in == 0.0:
            inner = _outer_fn(kind2, m_in, a)
        else:
            inner = _inner_mean(kind2, m_in, s_in, a)
        return _outer_fn(kind1, g1, a) * inner * norm.pdf(z1)

    kink = -t1 / s1
    pieces = sorted({-lim, lim, min(max(kink, -lim), lim)})
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        if hi > lo:
            val, _ = integrate.quad(outer, lo, hi, epsabs=1e-14,
                                    epsrel=1e-13, limit=500)
            total += val
    return total


def univariate_expect(f, mu, sigma, lim=10.0):
    """E[f(G)] with G ~ N(mu, sigma^2), by quad."""
    def integrand(z):
        return f(mu + sigma * z) * norm.pdf(z)

    val, _ = integrate.quad(integrand, -lim, lim, epsabs=1e-13, epsrel=1e-12,
                            limit=400)
    return val


def lrelu_cross_moment_oracle(s1, s2, rho, t1, t2, a):
    """E[psi_a(G1) psi_a(G2)] by quadrature."""
    return bivariate_expect(lambda g1, g2: leaky_relu(g1, a) * leaky_relu(g2, a),
                            s1, s2, rho, t1, t2)


def weightspace_kernel_mc(x1hat, x2hat, mu, sigma_diag, a, n_draws, rng):
    """Monte-Carlo E[psi(W.x1)psi(W.x2)], W = mu + Sigma^(1/2) Z elementwise.

    Returns (estimate, standard_error).
    """
    x1hat = np.asarray(x1hat, dtype=float)
    x2hat = np.asarray(x2hat, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sd = np.sqrt(np.asarray(sigma_diag, dtype=float))
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 2_000_000
    while done < n_draws:
        m = min(chunk, n_draws - done)
        w = mu + sd * rng.standard_normal((m, x1hat.size))
        vals = leaky_relu(w @ x1hat, a) * leaky_relu(w @ x2hat, a)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += m
    mean = total / n_draws
    var = total_sq / n_draws - mean * mean
    return mean, np.sqrt(max(var, 0.0) / n_draws)


def bivariate_mc(f, s1, s2, rho, t1, t2, n_draws, rng):
    """Monte-Carlo E[f(G1, G2)] for the correlated-Gaussian pair.

    Returns (estimate, standard_error).
    """
    root = np.sqrt(max(0.0, 1.0 - rho * rho))
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 2_000_000
    while done < n_draws:
        m = min(chunk, n_draws - done)
        z1 = rng.standard_normal(m)
        z2 = rng.standard_normal(m)
        vals = f(t1 + s1 * z1, t2 + s2 * (rho * z1 + root * z2))
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += m
    mean = total / n_draws
    var = total_sq / n_draws - mean * mean
    return mean, np.sqrt(max(var, 0.0) / n_draws)


def random_walk_mh_oracle(log_density, init, proposal_cov, burn_in, thin,
                          n_samples, seed):
    """Random-walk Metropolis that scores one proposal per density call.

    The proposal is current + chol(proposal_cov) @ z with z ~ N(0, I); the
    uniform of the accept test is drawn only for a finite density.  Runs
    burn_in + thin * n_samples steps and keeps every thin-th state after
    burn-in.  Returns (samples, log densities, acceptance rate, number of
    proposals with a non-finite density).
    """
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(proposal_cov)
    current = np.asarray(init, dtype=float).copy()
    cur_ld = float(log_density(current))
    total = burn_in + thin * n_samples
    samples, lds = [], []
    accepted = 0
    n_neg_inf = 0
    for it in range(1, total + 1):
        prop = current + L @ rng.standard_normal(2)
        ld = float(log_density(prop))
        n_neg_inf += not np.isfinite(ld)
        if np.isfinite(ld) and np.log(rng.uniform()) < ld - cur_ld:
            current = prop
            cur_ld = ld
            accepted += 1
        if it > burn_in and (it - burn_in) % thin == 0:
            samples.append(current)
            lds.append(cur_ld)
    return np.array(samples), np.array(lds), accepted / total, n_neg_inf
