"""Level-II inference over the kernel hyperparameters (mu, sigma^2).

Hyper-prior, grid evaluation of evidence / hyper-posterior surfaces,
random-walk Metropolis-Hastings, and the hyperparameter-marginalised
predictive.
"""

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Tuple

import numpy as np

from .data import NOISE_VAR
from .gp import FactorizationError, GPModel, _chol_stack, _lml_from_factor, \
    _predict_from_factor
from .kernels import LayerHyper, NetworkHyper, _batch_slices, kernel_diag, \
    kernel_matrix

__all__ = [
    "HyperPrior",
    "MHConfig",
    "Chain",
    "GridSpec",
    "GridResult",
    "MarginalPredictive",
    "hyper_prior_logpdf",
    "substitute_hyper",
    "gp_log_posterior",
    "grid_eval",
    "random_walk_mh",
    "mh_sample",
    "marginal_predictive",
]


@dataclass(frozen=True)
class HyperPrior:
    """Independent N(mu_mean, mu_var) x Inv-Gamma(ig_shape, ig_scale) prior.

    The four numbers are fixed; the class names the prior at call sites.
    """

    mu_mean: ClassVar[float] = -1.0
    mu_var: ClassVar[float] = 2.0
    ig_shape: ClassVar[float] = 2.5
    ig_scale: ClassVar[float] = 6.0


# random-walk MH proposal: variances (2.38, 4.76) for (mu, sigma^2) with
# correlation -0.9, roughly tracking the diagonal ridge of the target
_PROPOSAL_OFF = -0.9 * math.sqrt(2.38 * 4.76)
PROPOSAL_COV = np.array([[2.38, _PROPOSAL_OFF], [_PROPOSAL_OFF, 4.76]])
# steps `mh_sample` drafts per kernel call: the all-rejected path and, for
# each of its proposals, the path that accepts it, at most 8 + 28 = 36 rows;
# the chain is the same for every value
PREFETCH = 8


@dataclass(frozen=True)
class MHConfig:
    """Fixed-proposal random-walk MH settings.

    Steps are drawn from N(0, PROPOSAL_COV).  burn_in iterations are
    discarded, then every thin-th state is kept until n_samples are
    collected.
    """

    burn_in: int = 20
    thin: int = 20
    n_samples: int = 100
    seed: int = 0

    def __post_init__(self):
        if min(self.burn_in, self.thin, self.n_samples) < 1:
            raise ValueError("burn_in, thin and n_samples must be >= 1")


@dataclass
class Chain:
    """Retained MH states: (mu, sigma^2) rows with their log densities.

    n_neg_inf counts the proposals rejected for a -inf (non-finite) density,
    invalid or evaluated.
    """

    samples: np.ndarray
    log_densities: np.ndarray
    acceptance_rate: float
    n_neg_inf: int = 0

    def __len__(self) -> int:
        return self.samples.shape[0]

    def map_estimate(self) -> Tuple[float, float]:
        """Retained sample with the largest target density."""
        i = int(np.argmax(self.log_densities))
        return float(self.samples[i, 0]), float(self.samples[i, 1])


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (mu, sigma^2) grid.

    The default ranges cover the sigma^2 = 2 ridge and the negative-mu
    diagonal that the evidence surfaces develop with depth.
    """

    mu_range: Tuple[float, float] = (-2.5, 1.0)
    sig2_range: Tuple[float, float] = (0.1, 8.0)
    resolution: int = 200

    def __post_init__(self):
        if not np.all(np.isfinite([*self.mu_range, *self.sig2_range])):
            raise ValueError("grid range ends must be finite")
        if self.mu_range[0] >= self.mu_range[1] and self.resolution > 1:
            raise ValueError("mu_range must be increasing")
        if self.sig2_range[0] <= 0.0:
            raise ValueError("sigma^2 range must be positive")
        if self.sig2_range[0] >= self.sig2_range[1] and self.resolution > 1:
            raise ValueError("sig2_range must be increasing")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")

    def axes(self) -> Tuple[np.ndarray, np.ndarray]:
        return (np.linspace(*self.mu_range, self.resolution),
                np.linspace(*self.sig2_range, self.resolution))


@dataclass
class GridResult:
    """Evaluated surface plus its maximisers."""

    mu_axis: np.ndarray
    sig2_axis: np.ndarray
    values: np.ndarray
    argmax: Tuple[float, float, float]
    argmax_mu0: Tuple[float, float, float]
    n_failed: int = 0
    jitter_events: int = 0
    n_vanished: int = 0  # of the n_failed cells, those whose signal vanished


@dataclass
class MarginalPredictive:
    """Per-point mean and variance of the hyperparameter mixture."""

    mean: np.ndarray
    var: np.ndarray
    n_skipped: int = 0


def hyper_prior_logpdf(mu: float, sigma2: float) -> float:
    """Log density of the fixed hyper-prior `HyperPrior` at (mu, sigma^2)."""
    mu = np.asarray(mu, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 <= 0.0):
        raise ValueError("sigma2 must be positive")
    a, b = HyperPrior.ig_shape, HyperPrior.ig_scale
    log_mu = (-0.5 * np.log(2.0 * np.pi * HyperPrior.mu_var)
              - (mu - HyperPrior.mu_mean) ** 2 / (2.0 * HyperPrior.mu_var))
    log_s2 = (a * np.log(b) - math.lgamma(a) - (a + 1.0) * np.log(sigma2)
              - b / sigma2)
    return log_mu + log_s2


def substitute_hyper(net_template: NetworkHyper, mu, sigma2) -> NetworkHyper:
    """Place (mu, sqrt(sigma2)) in every LReLU layer of the template.

    mu and sigma2 are floats, or (G, 1, 1) arrays for a batch of G nets.  A
    final linear layer keeps its template values, unless it is the
    template's only layer.
    """
    if np.any(sigma2 <= 0.0):
        raise ValueError("sigma2 must be positive")
    sub = LayerHyper(mu, np.sqrt(sigma2))
    layers = list(net_template.layers)
    stop = len(layers)
    if net_template.final_layer_linear and stop > 1:
        stop -= 1
    for i in range(stop):
        layers[i] = sub
    return NetworkHyper(net_template.slope_a, net_template.input_dim,
                        tuple(layers), net_template.final_layer_linear)


def _evaluated(mu, sigma2):
    """Where the level-II target is evaluated: sigma^2 > 0 and mu and sigma^2
    finite.  Elsewhere it is -inf, with jitter 0 and not vanished, without a
    kernel call, and an MH proposal there draws no uniform.
    """
    return np.isfinite(mu) & (sigma2 > 0.0) & (sigma2 < np.inf)


def _lazy_log_targets(X, y, net_template: NetworkHyper,
                      prior: Optional[HyperPrior], noise_var: float, mu,
                      sigma2) -> Callable:
    """Row i -> (log p(y | mu, sigma^2) [+ log hyper-prior], jitter, vanished)
    at (mu[i], sigma2[i]) of the 1-D arrays mu, sigma2; -inf, with jitter 0,
    where `_evaluated` is false, the signal vanished, the Gram is not
    factorisable or the value not finite.

    The evaluated rows' Grams come a chunk at a time from one batched kernel
    call, made when a row of the chunk is first asked for, so rows asked for
    in increasing order compute each chunk at most once.  One stacked
    Cholesky of the chunk's K + s^2 I (`gp._chol_stack`) then gives every
    row's factor at rung 0 of the jitter ladder, and only a row asked for
    walks the ladder when that call raises.  The likelihood and the
    hyper-prior are computed only at the rows asked for.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    evaluated = _evaluated(mu, sigma2)
    rows = np.flatnonzero(evaluated)
    position = np.cumsum(evaluated) - 1  # of each evaluated row in `rows`
    chunks = _batch_slices(rows.size, X.shape[0] ** 2)
    chunk, factor, vanished = None, None, None  # the chunk last computed

    def target(i):
        nonlocal chunk, factor, vanished
        if not evaluated[i]:
            return -np.inf, 0.0, False
        k = position[i] // chunks[0].stop  # every chunk is that long
        with np.errstate(over="ignore", invalid="ignore"):
            if chunk != k:
                g = rows[chunks[k]]
                net = substitute_hyper(net_template, mu[g, None, None],
                                       sigma2[g, None, None])
                chunk = k
                K, vanished = kernel_matrix(X, X, net)
                factor = _chol_stack(K + noise_var * np.eye(X.shape[0]))
            j = position[i] - chunks[k].start
            if vanished[j]:
                return -np.inf, 0.0, True
            try:
                L, jit = factor(j)
                lml = _lml_from_factor(L, y)
            except (FactorizationError, FloatingPointError):
                return -np.inf, 0.0, False
            if not np.isfinite(lml):
                return -np.inf, 0.0, False
            if prior is not None:
                lml += hyper_prior_logpdf(mu[i], sigma2[i])
        return lml, jit, False

    return target


def _log_targets(X, y, net_template: NetworkHyper,
                 prior: Optional[HyperPrior], noise_var: float, mu, sigma2):
    """Values, jitters and vanished mask of `_lazy_log_targets` at every
    row, one batched kernel call per chunk.
    """
    target = _lazy_log_targets(X, y, net_template, prior, noise_var, mu,
                               sigma2)
    values, jitters, vanished = np.reshape(
        [target(i) for i in range(mu.size)], (mu.size, 3)).T
    return values, jitters, vanished.astype(bool)


def gp_log_posterior(X, y, net_template: NetworkHyper,
                     prior: Optional[HyperPrior], noise_var: float) -> Callable:
    """log p(y | mu, sigma^2) (+ log hyper-prior when one is given).

    Returns -inf for sigma^2 <= 0 and for hyperparameters where the Gram
    matrix cannot be factorised, so the result plugs straight into MH.
    """
    GPModel(net_template, noise_var)  # rejects a bad noise variance

    def logp(theta) -> float:
        return _lazy_log_targets(X, y, net_template, prior, noise_var,
                                 *np.array([theta], float).T)(0)[0]

    return logp


def grid_eval(X, y, net_template: NetworkHyper, spec: GridSpec,
              target: str = "log-ml",
              noise_var: float = NOISE_VAR) -> GridResult:
    """Evaluate the evidence or hyper-posterior surface on the grid.

    Cell (i, j) holds the target at (mu_axis[i], sig2_axis[j]); failed
    factorisations become -inf cells without aborting the sweep.  Returns
    the unconstrained argmax and the argmax along the mu-row nearest zero.
    """
    if target not in ("log-ml", "log-posterior"):
        raise ValueError("target must be 'log-ml' or 'log-posterior'")
    GPModel(net_template, noise_var)  # rejects a bad noise variance
    prior = HyperPrior() if target == "log-posterior" else None
    mu_axis, sig2_axis = spec.axes()
    mu, sig2 = (a.ravel() for a in np.meshgrid(mu_axis, sig2_axis,
                                               indexing="ij"))
    values, jitters, vanished = _log_targets(X, y, net_template, prior,
                                             noise_var, mu, sig2)
    values = values.reshape(mu_axis.size, sig2_axis.size)
    n_failed = int(np.count_nonzero(values == -np.inf))
    n_vanished = int(np.count_nonzero(vanished))
    jitter_events = int(np.count_nonzero(jitters > 0.0))
    if not np.any(np.isfinite(values)):
        raise FactorizationError(
            f"every grid cell is -inf ({n_vanished} signal vanished, "
            f"{n_failed - n_vanished} not factorisable or non-finite)")
    i0 = np.argmin(np.abs(mu_axis))
    argmax, argmax_mu0 = (
        (float(mu_axis[i]), float(sig2_axis[j]), float(values[i, j]))
        for i, j in (np.unravel_index(np.argmax(values), values.shape),
                     (i0, np.argmax(values[i0]))))
    return GridResult(mu_axis, sig2_axis, values, argmax, argmax_mu0, n_failed,
                      jitter_events, n_vanished)


def random_walk_mh(log_density: Callable, init, config: MHConfig) -> Chain:
    """No-frills random-walk Metropolis with a fixed Gaussian proposal.

    Proposals landing where log_density is -inf are rejected outright.
    Runs burn_in + thin * n_samples iterations and is deterministic for a
    fixed config.seed.  log_density is called once per proposal the chain
    makes, and on no other point.
    """
    def densities(thetas):
        return lambda i: float(log_density(thetas[i]))

    return _metropolis(densities, lambda theta: True, init, config, 1)


def _metropolis(densities: Callable, evaluated: Callable, init,
                config: MHConfig, prefetch: int) -> Chain:
    """The MH loop of `random_walk_mh`, walking a draft tree of up to
    `prefetch` steps per `densities` call.

    densities maps the (k, 2) drafted points to a function of the row index
    that returns its log density; the walk calls it once at each row it
    visits, in increasing row order.  evaluated(theta) is false where the
    density is -inf without an evaluation; such a proposal draws no uniform.

    The draft's trunk takes the next steps as if every proposal is rejected.
    For each evaluated trunk proposal, a branch takes the steps after
    accepting it, every later proposal rejected: at most
    prefetch (prefetch + 1) / 2 rows.  Each path draws its normals and
    uniforms on from the generator state after its parent's uniform.  The
    walk follows the trunk, turns onto a branch at its first acceptance, and
    stops at the second acceptance or at an evaluated -inf density, whose
    uniform the one-proposal loop would not draw.  The generator then takes
    the state saved after the last step's last draw, or after its normals at
    an evaluated -inf, so the chain has the bits of one proposal per call.
    """
    rng = np.random.default_rng(config.seed)
    L = np.linalg.cholesky(PROPOSAL_COV)
    current = np.asarray(init, dtype=float).copy()
    cur_ld = densities(current[None])(0)
    if not np.isfinite(cur_ld):
        raise ValueError("initial state has zero target density")
    total = config.burn_in + config.thin * config.n_samples
    samples = np.empty((config.n_samples, 2))
    lds = np.empty(config.n_samples)
    kept = 0
    accepted = 0
    n_neg_inf = 0
    it = 0
    while it < total:
        drafted = min(prefetch, total - it)
        # per row: proposal, log uniform (nan where unevaluated) and the
        # generator states after its normals and after its uniform (the same
        # where unevaluated)
        props, log_u, after_z, after_u = [], [], [], []

        def draft(theta, steps):
            # rows of `steps` rejections in a row from theta
            for _ in range(steps):
                props.append(theta + L @ rng.standard_normal(2))
                after_z.append(rng.bit_generator.state)
                log_u.append(np.log(rng.uniform()) if evaluated(props[-1])
                             else np.nan)
                after_u.append(rng.bit_generator.state)
            return list(range(len(props) - steps, len(props)))

        trunk = draft(current, drafted)
        branch = {}
        for j in trunk:
            if not np.isnan(log_u[j]):
                rng.bit_generator.state = after_u[j]
                branch[j] = trunk[:j + 1] + draft(props[j], drafted - 1 - j)
        log_density = densities(np.array(props))
        path = trunk
        for step in range(drafted):
            r = path[step]
            ld = log_density(r)
            it += 1
            finite = np.isfinite(ld)
            accept = finite and log_u[r] < ld - cur_ld
            if accept:
                current, cur_ld = props[r], ld
                accepted += 1
            n_neg_inf += not finite
            if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
                samples[kept] = current
                lds[kept] = cur_ld
                kept += 1
            if not (finite or np.isnan(log_u[r])):
                break  # an evaluated -inf: its uniform is not the chain's
            if accept:
                if path is not trunk:
                    break
                path = branch[r]
        rng.bit_generator.state = (after_u if finite else after_z)[r]
    return Chain(samples[:kept], lds[:kept], accepted / total, n_neg_inf)


def mh_sample(X, y, net_template: NetworkHyper, prior: HyperPrior,
              config: MHConfig, init: Tuple[float, float],
              noise_var: float = NOISE_VAR) -> Chain:
    """Sample the hyper-posterior over (mu, sigma^2) by random-walk MH.

    init is typically the MAP over a grid_eval surface.  Each kernel call
    scores a draft tree of the next PREFETCH steps, with the chain of
    `random_walk_mh` on `gp_log_posterior` in every bit; the likelihood is
    computed only at the proposals the chain makes.
    """
    GPModel(net_template, noise_var)  # rejects a bad noise variance

    def densities(thetas):
        target = _lazy_log_targets(X, y, net_template, prior, noise_var,
                                   *thetas.T)
        return lambda i: target(i)[0]

    return _metropolis(densities, lambda theta: _evaluated(*theta), init,
                       config, PREFETCH)


def marginal_predictive(Xstar, X, y, net_template: NetworkHyper, chain: Chain,
                        noise_var: float = NOISE_VAR) -> MarginalPredictive:
    """Predictive mixture over the chain's hyperparameter samples.

    Mixture mean averages the conditional means; the mixture variance is
    E[var] + E[mean^2] - (E[mean])^2 per test point.  The samples' Grams
    come from batched kernel calls and their factors from one stacked
    Cholesky per chunk; samples whose signal vanished or whose Gram cannot
    be factorised are skipped and counted.
    """
    if len(chain) == 0:
        raise ValueError("chain is empty")
    GPModel(net_template, noise_var)  # rejects a bad noise variance
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    mu, sigma2 = chain.samples.T
    means, variances = [], []
    n_vanished = 0
    entries = max(Xstar.shape[0], X.shape[0]) * X.shape[0]
    for chunk in _batch_slices(len(chain), entries):
        net = substitute_hyper(net_template, mu[chunk, None, None],
                               sigma2[chunk, None, None])
        K_xx, vanished = kernel_matrix(X, X, net)
        K_sx, vanished_sx = kernel_matrix(Xstar, X, net)
        k_ss, vanished_ss = kernel_diag(Xstar, net)
        vanished |= vanished_sx | vanished_ss
        n_vanished += int(np.count_nonzero(vanished))
        factor = _chol_stack(K_xx + noise_var * np.eye(X.shape[0]))
        for i in np.flatnonzero(~vanished):
            try:
                L, jit = factor(i)
            except FactorizationError:
                continue
            pp = _predict_from_factor(L, jit, K_sx[i], k_ss[i], y)
            means.append(pp.mean)
            variances.append(pp.var)
    n_skipped = len(chain) - len(means)
    if not means:
        raise FactorizationError(
            f"every chain sample was skipped ({n_vanished} signal vanished, "
            f"{n_skipped - n_vanished} not factorisable)")
    if len(means) == 1:
        return MarginalPredictive(means[0], variances[0], n_skipped)
    means = np.asarray(means)
    variances = np.asarray(variances)
    mix_mean = means.mean(axis=0)
    mix_var = (variances + means ** 2).mean(axis=0) - mix_mean ** 2
    return MarginalPredictive(mix_mean, mix_var, n_skipped)
