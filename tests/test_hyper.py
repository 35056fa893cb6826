import numpy as np
import pytest

from mlpgp import gp, hyper, kernels
from mlpgp.data import gen_sine, gen_smooth_xor
from mlpgp.gp import (FactorizationError, GPModel, _lml_from_gram,
                      log_marginal_likelihood, posterior_predictive)
from mlpgp.hyper import (Chain, GridSpec, HyperPrior, MHConfig, grid_eval,
                         gp_log_posterior, hyper_prior_logpdf,
                         marginal_predictive, mh_sample, random_walk_mh,
                         substitute_hyper)
from mlpgp.kernels import (LayerHyper, NetworkHyper, VanishedSignalError,
                           kernel_matrix)

from _oracles import random_walk_mh_oracle

TEMPLATE = NetworkHyper(0.0, 1, (LayerHyper(0.0, 1.0), LayerHyper(0.0, 1.0)), True)
SMALL_GRID = GridSpec((-2.5, 1.0), (0.1, 8.0), 30)


def test_hyper_prior_modes():
    prior = HyperPrior()
    mode_s2 = prior.ig_scale / (prior.ig_shape + 1.0)
    assert abs(mode_s2 - 6.0 / 3.5) < 1e-12
    s2 = np.linspace(0.3, 6.0, 400)
    vals = hyper_prior_logpdf(-1.0, s2)
    assert abs(s2[np.argmax(vals)] - mode_s2) < 0.02
    mus = np.linspace(-4, 2, 400)
    vals = hyper_prior_logpdf(mus, mode_s2)
    assert abs(mus[np.argmax(vals)] + 1.0) < 0.02
    assert hyper_prior_logpdf(-1.0, mode_s2) > hyper_prior_logpdf(-1.0, 10.0)
    with pytest.raises(ValueError):
        hyper_prior_logpdf(0.0, -1.0)


def test_substitute_hyper():
    net = substitute_hyper(TEMPLATE, -0.5, 3.0)
    assert net.layers[0] == LayerHyper(-0.5, np.sqrt(3.0))
    assert net.layers[-1] == TEMPLATE.layers[-1]
    with pytest.raises(ValueError):
        substitute_hyper(TEMPLATE, 0.0, 0.0)


def test_grid_eval_surfaces():
    ds = gen_sine(1)
    ml = grid_eval(ds.X_train, ds.y_train, TEMPLATE, SMALL_GRID, "log-ml", 0.1)
    post = grid_eval(ds.X_train, ds.y_train, TEMPLATE, SMALL_GRID,
                     "log-posterior", 0.1)
    # posterior surface = evidence surface + prior surface, cellwise
    mu, s2 = SMALL_GRID.axes()
    prior = hyper_prior_logpdf(mu[:, None], s2[None, :])
    finite = np.isfinite(ml.values)
    assert np.allclose(post.values[finite], (ml.values + prior)[finite],
                       rtol=0, atol=1e-10)
    # the constrained argmax sits on the mu-row nearest zero
    i0 = np.argmin(np.abs(mu))
    assert ml.argmax_mu0[0] == mu[i0]
    assert ml.argmax[2] >= ml.argmax_mu0[2]


def test_grid_eval_degenerate_and_errors():
    ds = gen_sine(1)
    one = grid_eval(ds.X_train, ds.y_train, TEMPLATE,
                    GridSpec((0.0, 0.0), (2.0, 2.0), 1), "log-ml", 0.1)
    assert one.values.shape == (1, 1)
    net = substitute_hyper(TEMPLATE, 0.0, 2.0)
    want = log_marginal_likelihood(ds.X_train, ds.y_train, GPModel(net, 0.1))
    assert one.values[0, 0] == want
    with pytest.raises(ValueError):
        grid_eval(ds.X_train, ds.y_train, TEMPLATE, SMALL_GRID, "nonsense")


def test_grid_eval_failed_cells_become_neg_inf():
    # very negative mu with small sigma^2 kills the post-activation signal a
    # few layers in; those cells must turn into -inf without aborting
    ds = gen_sine(1)
    deep = NetworkHyper(0.0, 1, tuple([LayerHyper(0.0, 1.0)] * 8), True)
    res = grid_eval(ds.X_train, ds.y_train, deep,
                    GridSpec((-2.5, 1.0), (0.1, 8.0), 8), "log-ml", 0.1)
    assert res.n_failed > 0
    assert np.isneginf(res.values).sum() == res.n_failed
    assert np.isfinite(res.argmax[2])


def test_all_failed_errors_name_both_counts(monkeypatch):
    # at depth 16 the signal of every (mu, sigma^2) below vanishes; where it
    # survives, factorisation is made to fail.  When nothing is left, the
    # error says how many cells or samples failed for which reason
    ds = gen_sine(1)
    deep = NetworkHyper(0.0, 1, (LayerHyper(0.0, 1.0),) * 16, True)
    vanishing = np.array([[-2.5, 1e-3], [-2.4, 2e-3]])
    with pytest.raises(FactorizationError, match=r"\(4 signal vanished, 0 "
                       r"not factorisable or non-finite\)"):
        grid_eval(ds.X_train, ds.y_train, deep,
                  GridSpec((-2.5, -2.4), (1e-3, 2e-3), 2), "log-ml", 0.1)
    with pytest.raises(FactorizationError,
                       match=r"\(2 signal vanished, 0 not factorisable\)"):
        marginal_predictive(ds.X_test, ds.X_train, ds.y_train, deep,
                            Chain(vanishing, np.zeros(2), 0.5), 0.1)

    def fail(j):
        raise FactorizationError("not positive definite")

    # every Gram of a chunk fails to factorise, whichever the row
    monkeypatch.setattr(hyper, "_chol_stack", lambda A: fail)
    with pytest.raises(FactorizationError, match=r"\(1 signal vanished, 3 "
                       r"not factorisable or non-finite\)"):
        grid_eval(ds.X_train, ds.y_train, deep,
                  GridSpec((-2.5, 0.0), (1e-3, 2.0), 2), "log-ml", 0.1)
    chain = Chain(np.array([vanishing[0], [0.0, 2.0], [-0.4, 1.2]]),
                  np.zeros(3), 0.5)
    with pytest.raises(FactorizationError,
                       match=r"\(1 signal vanished, 2 not factorisable\)"):
        marginal_predictive(ds.X_test, ds.X_train, ds.y_train, deep, chain,
                            0.1)


def _unbatched_target(X, y, template, prior, noise_var, mu, s2):
    # (value, jitter, vanished) at one point from one unbatched kernel_matrix
    # call
    net = substitute_hyper(template, mu, s2)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            lml, jit = _lml_from_gram(kernel_matrix(X, X, net), y, noise_var)
    except VanishedSignalError:
        return -np.inf, 0.0, True
    except FactorizationError:
        return -np.inf, 0.0, False
    if not np.isfinite(lml):
        return -np.inf, 0.0, False
    if prior is not None:
        lml += hyper_prior_logpdf(mu, s2)
    return lml, jit, False


def test_grid_eval_cells_match_gp_log_posterior(monkeypatch):
    # every cell, -inf ones included, equals the MH target and an unbatched
    # per-point evaluation at the same (mu, sigma^2), and the counts are
    # those of the per-point evaluation; noise_var 0 needs the jitter
    # ladder, and the shrunk chunk budget splits the grid into 18 chunks
    ds = gen_sine(1)
    spec = GridSpec((-2.5, 1.0), (0.1, 8.0), 6)
    for depth, noise_var, chunk in ((8, 0.1, kernels.BATCH_ENTRIES),
                                    (16, 0.1, kernels.BATCH_ENTRIES),
                                    (8, 0.0, 250), (16, 0.0, 250)):
        monkeypatch.setattr(kernels, "BATCH_ENTRIES", chunk)
        deep = NetworkHyper(0.0, 1, tuple([LayerHyper(0.0, 1.0)] * depth),
                            True)
        for target, prior in (("log-ml", None),
                              ("log-posterior", HyperPrior())):
            res = grid_eval(ds.X_train, ds.y_train, deep, spec, target,
                            noise_var)
            logp = gp_log_posterior(ds.X_train, ds.y_train, deep, prior,
                                    noise_var)
            assert np.array_equal(res.values,
                                  [[logp((mu, s2)) for s2 in res.sig2_axis]
                                   for mu in res.mu_axis])
            ref = np.array([[_unbatched_target(ds.X_train, ds.y_train, deep,
                                               prior, noise_var, mu, s2)
                             for s2 in res.sig2_axis] for mu in res.mu_axis])
            assert np.array_equal(res.values, ref[..., 0])
            assert res.n_failed == np.count_nonzero(ref[..., 0] == -np.inf)
            assert res.n_vanished == np.count_nonzero(ref[..., 2])
            assert res.jitter_events == np.count_nonzero(ref[..., 1] > 0.0)
            assert res.n_failed > 0
            assert res.jitter_events > 0 or noise_var > 0.0
            assert type(res.n_failed) is int and type(res.jitter_events) is int
            assert type(res.n_vanished) is int


def test_log_targets_leaves_invalid_points_unevaluated(monkeypatch):
    # sigma^2 <= 0 and nan or inf coordinates come back -inf with jitter 0
    # and not vanished, never reach kernel_matrix, and leave the bits of the
    # valid rows, here batched two to a call
    ds = gen_sine(1)
    deep = NetworkHyper(0.0, 1, (LayerHyper(0.0, 1.0),) * 8, True)
    mu = np.array([-0.5, 0.0, -1.0, np.nan, 0.3, -1.5, 0.2, -0.8, 0.1])
    s2 = np.array([2.0, 0.0, -1.0, 1.5, np.inf, 3.0, 1.0, 2.5, 0.5])
    invalid = np.array([0, 1, 1, 1, 1, 0, 0, 0, 0], bool)
    monkeypatch.setattr(kernels, "BATCH_ENTRIES",
                        2 * ds.X_train.shape[0] ** 2)
    sizes = []

    def recording(*args, **kwargs):
        K, vanished = kernel_matrix(*args, **kwargs)
        sizes.append(len(vanished))
        return K, vanished

    monkeypatch.setattr(hyper, "kernel_matrix", recording)
    args = (ds.X_train, ds.y_train, deep, HyperPrior(), 0.1)
    values, jitters, vanished = hyper._log_targets(*args, mu, s2)
    assert sizes == [2, 2, 1]
    assert np.all(values[invalid] == -np.inf)
    assert np.all(jitters[invalid] == 0.0) and not np.any(vanished[invalid])
    assert np.all(np.isfinite(values[~invalid]))
    alone = hyper._log_targets(*args, mu[~invalid], s2[~invalid])
    for got, ref in zip((values, jitters, vanished), alone):
        assert np.array_equal(got[~invalid], ref)
    # every row invalid: no kernel call at all
    sizes.clear()
    values = hyper._log_targets(*args, np.array([0.0, np.inf]),
                                np.array([-2.0, 1.0]))[0]
    assert sizes == [] and np.all(values == -np.inf)
    for init in ((0.0, 0.0), (0.0, -1.0), (np.nan, 2.0)):
        with pytest.raises(ValueError, match="zero target density"):
            mh_sample(*args[:4], MHConfig(), init, 0.1)


def test_level_two_entry_points_reject_a_bad_noise_variance(monkeypatch):
    # grid_eval, gp_log_posterior, mh_sample and marginal_predictive share
    # GPModel's rule, and apply it before any kernel call
    ds = gen_smooth_xor(0)
    deep = NetworkHyper(0.0, 2, (LayerHyper(0.0, 1.0),) * 4, True)
    X, y = ds.X_train, ds.y_train
    chain = Chain(np.array([[-0.5, 2.0]]), np.zeros(1), 1.0)

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel call")

    monkeypatch.setattr(hyper, "kernel_matrix", no_kernel)
    entry_points = (
        lambda nv: grid_eval(X, y, deep, GridSpec(resolution=5), "log-ml", nv),
        lambda nv: gp_log_posterior(X, y, deep, HyperPrior(), nv),
        lambda nv: mh_sample(X, y, deep, HyperPrior(), MHConfig(),
                             (-0.5, 2.0), nv),
        lambda nv: marginal_predictive(ds.X_test, X, y, deep, chain, nv))
    for call in entry_points:
        for noise_var in (-1.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError, match="non-negative and finite"):
                call(noise_var)


def test_entry_points_reject_a_misshapen_y(monkeypatch):
    # every entry point that takes training targets checks, before any
    # kernel call, that y is 1-D with one value per training row
    ds = gen_smooth_xor(0)
    deep = NetworkHyper(0.0, 2, (LayerHyper(0.0, 1.0),) * 4, True)
    X = ds.X_train
    chain = Chain(np.array([[-0.5, 2.0]]), np.zeros(1), 1.0)

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel call")

    for module in (gp, hyper):
        for name in ("kernel_matrix", "kernel_diag"):
            monkeypatch.setattr(module, name, no_kernel)
    model = GPModel(deep, 0.1)
    entry_points = (
        lambda y: grid_eval(X, y, deep, GridSpec(resolution=5)),
        lambda y: gp_log_posterior(X, y, deep, HyperPrior(), 0.1),
        lambda y: mh_sample(X, y, deep, HyperPrior(), MHConfig(), (-0.5, 2.0)),
        lambda y: marginal_predictive(ds.X_test, X, y, deep, chain),
        lambda y: gp.posterior_predictive(ds.X_test, X, y, model),
        lambda y: gp.log_marginal_likelihood(X, y, model),
        lambda y: gp.perturbation_bound(ds.X_test, X, y, deep, 0.8, 1.3, 0.1))
    y = ds.y_train
    for call in entry_points:
        for bad in (y[:-1], np.append(y, 0.0), y[:, None]):
            with pytest.raises(ValueError, match="one value per training row"):
                call(bad)


def test_grid_constrained_max_tracks_stable_ridge():
    # for deeper nets the mu = 0 evidence maximum sits near sigma^2 = 2
    ds = gen_sine(1)
    for depth in (4, 8):
        tmpl = NetworkHyper(0.0, 1, tuple([LayerHyper(0.0, 1.0)] * depth), True)
        res = grid_eval(ds.X_train, ds.y_train, tmpl,
                        GridSpec((-2.5, 1.0), (0.1, 8.0), 60), "log-ml", 0.1)
        assert 1.4 <= res.argmax_mu0[1] <= 3.0


def test_random_walk_mh_gaussian_target():
    m = np.array([-1.0, 3.0])
    cov = np.array([[2.0, 0.5], [0.5, 1.5]])
    prec = np.linalg.inv(cov)

    def logp(theta):
        d = np.asarray(theta) - m
        return float(-0.5 * d @ prec @ d)

    means = []
    for seed in range(6):
        ch = random_walk_mh(logp, m, MHConfig(n_samples=100, seed=seed))
        assert len(ch) == 100
        means.append(ch.samples.mean(axis=0))
    means = np.array(means)
    se = means.std(axis=0, ddof=1) / np.sqrt(len(means))
    assert np.all(np.abs(means.mean(axis=0) - m) < 3 * se)


def test_random_walk_mh_determinism_and_acceptance():
    def logp(theta):
        return -0.5 * float(theta[0] ** 2 + theta[1] ** 2)

    cfg = MHConfig(n_samples=50, seed=7)
    a = random_walk_mh(logp, (0.0, 0.0), cfg)
    b = random_walk_mh(logp, (0.0, 0.0), cfg)
    assert np.array_equal(a.samples, b.samples)
    assert a.acceptance_rate == b.acceptance_rate

    # flat target: every rejection is a sigma2 <= 0 proposal
    n_invalid = 0

    def flat(theta):
        nonlocal n_invalid
        if theta[1] <= 0.0:
            n_invalid += 1
            return -np.inf
        return 0.0

    cfg = MHConfig(n_samples=100, seed=3)
    ch = random_walk_mh(flat, (0.0, 6.0), cfg)
    total = cfg.burn_in + cfg.thin * cfg.n_samples
    assert ch.acceptance_rate == 1.0 - n_invalid / total


def test_random_walk_mh_always_accepts_uphill():
    # strictly increasing density along mu: every uphill move accepted
    def logp(theta):
        return float(theta[0])

    ch = random_walk_mh(logp, (0.0, 0.0), MHConfig(n_samples=50, seed=1))
    assert ch.acceptance_rate > 0.5


def test_mh_sample_and_map():
    ds = gen_sine(1)
    post = grid_eval(ds.X_train, ds.y_train, TEMPLATE, SMALL_GRID,
                     "log-posterior", 0.1)
    cfg = MHConfig(n_samples=40, seed=2)
    chain = mh_sample(ds.X_train, ds.y_train, TEMPLATE, HyperPrior(), cfg,
                      post.argmax[:2], noise_var=0.1)
    assert np.all(chain.samples[:, 1] > 0)
    mu_map, s2_map = chain.map_estimate()
    logp = gp_log_posterior(ds.X_train, ds.y_train, TEMPLATE, HyperPrior(), 0.1)
    assert abs(chain.log_densities.max() - logp((mu_map, s2_map))) < 1e-9
    with pytest.raises(ValueError):
        mh_sample(ds.X_train, ds.y_train, TEMPLATE, HyperPrior(), cfg,
                  (0.0, -1.0))


def _oracle_chain(log_density, init, config):
    return random_walk_mh_oracle(log_density, init, hyper.PROPOSAL_COV,
                                 config.burn_in, config.thin,
                                 config.n_samples, config.seed)


def _assert_same_chain(chain, ref):
    samples, lds, rate, n_neg_inf = ref
    assert np.array_equal(chain.samples, samples)
    assert np.array_equal(chain.log_densities, lds)
    assert chain.acceptance_rate == rate
    assert chain.n_neg_inf == n_neg_inf and type(chain.n_neg_inf) is int


def _unbatched_density(X, y, template, banned=lambda mu: False):
    # the hyper-posterior at one point from one unbatched kernel_matrix call,
    # -inf at sigma^2 <= 0 and, on top, wherever banned(mu)
    def logp(theta):
        mu, s2 = float(theta[0]), float(theta[1])
        if s2 <= 0.0 or banned(mu):
            return -np.inf
        return _unbatched_target(X, y, template, HyperPrior(), 0.1, mu, s2)[0]
    return logp


def test_prefetched_chain_is_the_one_proposal_chain(monkeypatch):
    # every PREFETCH gives the chain of one proposal per kernel call, bit for
    # bit: samples, log densities, acceptance rate and -inf count
    cfg = dict(burn_in=6, thin=4, n_samples=10)
    n_neg_inf = 0
    for ds in (gen_sine(1), gen_smooth_xor(0)):
        for depth in (4, 8):
            template = NetworkHyper(0.0, ds.input_dim,
                                    (LayerHyper(0.0, 1.0),) * depth, True)
            logp = _unbatched_density(ds.X_train, ds.y_train, template)
            for seed in range(4):
                config = MHConfig(**cfg, seed=seed)
                ref = _oracle_chain(logp, (-0.5, 2.0), config)
                n_neg_inf += ref[3]
                for prefetch in (1, 3, 8):
                    monkeypatch.setattr(hyper, "PREFETCH", prefetch)
                    chain = mh_sample(ds.X_train, ds.y_train, template,
                                      HyperPrior(), config, (-0.5, 2.0), 0.1)
                    _assert_same_chain(chain, ref)
    assert n_neg_inf > 0  # sigma^2 <= 0 proposals, never evaluated


def test_prefetched_chain_replays_past_evaluated_neg_inf(monkeypatch):
    # evaluated proposals in bands of mu are -inf (with sigma^2 > 0): the
    # walk stops there, on the draft's trunk or on a branch after an
    # acceptance, draws no uniform for them, and must put the generator back
    # to keep the one-proposal chain
    ds = gen_smooth_xor(0)
    template = NetworkHyper(0.0, 2, (LayerHyper(0.0, 1.0),) * 4, True)

    def banned(mu):
        return np.floor(4.0 * mu) % 3 == 0

    stops = []  # per banded stop: whether it fell on a branch
    lazy_log_targets = hyper._lazy_log_targets

    def banded(X, y, net_template, prior, noise_var, mu, sigma2):
        target = lazy_log_targets(X, y, net_template, prior, noise_var, mu,
                                  sigma2)
        asked = []

        def banded_target(i):
            # the walk asks for rows in increasing order; the trunk's rows
            # come first, so a row past its place in that order is a branch's
            assert not asked or i > asked[-1]
            asked.append(i)
            if sigma2[i] > 0.0 and banned(mu[i]):
                stops.append(i != len(asked) - 1)
                return -np.inf, 0.0, False
            return target(i)

        return banded_target

    monkeypatch.setattr(hyper, "_lazy_log_targets", banded)
    logp = _unbatched_density(ds.X_train, ds.y_train, template, banned)
    for seed in range(6):
        config = MHConfig(burn_in=6, thin=4, n_samples=10, seed=seed)
        ref = _oracle_chain(logp, (-0.2, 2.0), config)
        for prefetch in (1, 2, 3, 8):
            monkeypatch.setattr(hyper, "PREFETCH", prefetch)
            chain = mh_sample(ds.X_train, ds.y_train, template, HyperPrior(),
                              config, (-0.2, 2.0), 0.1)
            _assert_same_chain(chain, ref)
    # evaluated -inf proposals stopped the walk on the trunk and on branches
    assert not all(stops) and any(stops)


def test_mh_sample_scores_several_proposals_per_kernel_call(monkeypatch):
    # the hyper-fit benchmark's chain: 220 steps at depth 8 on Smooth XOR
    # from the grid MAP; one kernel call per evaluated proposal makes 209
    # (221 less its 12 proposals with sigma^2 <= 0), and the draft tree 40.
    # The likelihood is evaluated once per evaluated step plus the initial
    # state, 209 times; scoring every drafted row took 569.  Each kernel
    # call's Grams are factored by at most one stacked Cholesky
    ds = gen_smooth_xor(0)
    sub = LayerHyper(0.0, float(np.sqrt(2.0)))
    template = NetworkHyper(0.0, 2, (sub,) * 7 + (LayerHyper(0.0, 1.0),),
                            True)
    surface = grid_eval(ds.X_train, ds.y_train, template,
                        GridSpec(resolution=24), "log-posterior", 0.1)
    calls, likelihoods, stacks = [], [], []

    def counting(record, fn):
        def wrapped(*args, **kwargs):
            record.append(None)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(hyper, "kernel_matrix", counting(calls, kernel_matrix))
    monkeypatch.setattr(hyper, "_lml_from_factor",
                        counting(likelihoods, gp._lml_from_factor))
    monkeypatch.setattr(hyper, "_chol_stack",
                        counting(stacks, gp._chol_stack))
    config = MHConfig(burn_in=20, thin=10, n_samples=20, seed=0)
    mh_sample(ds.X_train, ds.y_train, template, HyperPrior(), config,
              surface.argmax[:2], 0.1)
    assert 0 < len(calls) <= 50
    assert 0 < len(likelihoods) <= 210
    assert 0 < len(stacks) <= len(calls)


def test_marginal_predictive_point_mass_identity():
    ds = gen_sine(1)
    atom = (-0.3, 1.7)
    chain = Chain(np.array([atom]), np.array([0.0]), 1.0)
    mp = marginal_predictive(ds.X_test, ds.X_train, ds.y_train, TEMPLATE,
                             chain, 0.1)
    net = substitute_hyper(TEMPLATE, *atom)
    pp = posterior_predictive(ds.X_test, ds.X_train, ds.y_train,
                              GPModel(net, 0.1))
    assert np.array_equal(mp.mean, pp.mean)
    assert np.array_equal(mp.var, pp.var)
    assert mp.n_skipped == 0


def test_marginal_predictive_mixture_identities():
    ds = gen_sine(1)
    # two samples, same mean but different variances -> variance averages
    chain = Chain(np.array([[0.0, 1.5], [0.0, 1.5]]), np.zeros(2), 1.0)
    mp = marginal_predictive(ds.X_test, ds.X_train, ds.y_train, TEMPLATE,
                             chain, 0.1)
    net = substitute_hyper(TEMPLATE, 0.0, 1.5)
    pp = posterior_predictive(ds.X_test, ds.X_train, ds.y_train,
                              GPModel(net, 0.1))
    assert np.allclose(mp.mean, pp.mean, atol=1e-12)
    assert np.allclose(mp.var, pp.var, atol=1e-10)
    # mixture variance dominates the smallest component variance
    chain2 = Chain(np.array([[0.0, 1.0], [-0.5, 3.0]]), np.zeros(2), 1.0)
    mp2 = marginal_predictive(ds.X_test, ds.X_train, ds.y_train, TEMPLATE,
                              chain2, 0.1)
    comp_vars = []
    for mu, s2 in chain2.samples:
        net = substitute_hyper(TEMPLATE, mu, s2)
        comp_vars.append(posterior_predictive(
            ds.X_test, ds.X_train, ds.y_train, GPModel(net, 0.1)).var)
    assert np.all(mp2.var >= np.minimum(*comp_vars) - 1e-12)
    with pytest.raises(ValueError):
        marginal_predictive(ds.X_test, ds.X_train, ds.y_train, TEMPLATE,
                            Chain(np.zeros((0, 2)), np.zeros(0), 0.0), 0.1)


def _per_sample_mixture(Xstar, X, y, template, chain, noise_var):
    # the mixture from one posterior_predictive call per chain sample
    means, variances = [], []
    for mu, s2 in chain.samples:
        net = substitute_hyper(template, float(mu), float(s2))
        try:
            pp = posterior_predictive(Xstar, X, y, GPModel(net, noise_var))
        except (FactorizationError, VanishedSignalError):
            continue
        means.append(pp.mean)
        variances.append(pp.var)
    n_skipped = len(chain) - len(means)
    if len(means) == 1:
        return means[0], variances[0], n_skipped
    means, variances = np.asarray(means), np.asarray(variances)
    mix_mean = means.mean(axis=0)
    return (mix_mean, (variances + means ** 2).mean(axis=0) - mix_mean ** 2,
            n_skipped)


def test_marginal_predictive_matches_per_sample_reference(monkeypatch):
    # the batched chain gives the bits of one predictive call per sample;
    # the chain repeats samples and holds one, (-2.5, 0.1), whose signal
    # vanishes at depth 8; the shrunk chunk budget splits it into 4 chunks
    samples = np.array([[-0.4, 2.1], [-0.4, 2.1], [-2.5, 0.1], [0.3, 1.2],
                        [-1.1, 3.4], [0.3, 1.2], [-0.4, 2.1], [-0.9, 4.0]])
    chain = Chain(samples, np.zeros(len(samples)), 0.5)
    for ds, chunk in ((gen_sine(2), kernels.BATCH_ENTRIES),
                      (gen_smooth_xor(1), kernels.BATCH_ENTRIES),
                      (gen_smooth_xor(1), 2 * 100 * 4)):
        monkeypatch.setattr(kernels, "BATCH_ENTRIES", chunk)
        template = NetworkHyper(0.0, ds.input_dim,
                                (LayerHyper(0.0, 1.0),) * 8, True)
        for Xstar in (ds.X_test, ds.X_train):
            mp = marginal_predictive(Xstar, ds.X_train, ds.y_train, template,
                                     chain, 0.1)
            mean, var, n_skipped = _per_sample_mixture(
                Xstar, ds.X_train, ds.y_train, template, chain, 0.1)
            assert np.array_equal(mp.mean, mean)
            assert np.array_equal(mp.var, var)
            assert mp.n_skipped == n_skipped == 1
    # one surviving sample is returned as it is
    single = Chain(samples[1:3], np.zeros(2), 0.5)
    mp = marginal_predictive(ds.X_test, ds.X_train, ds.y_train, template,
                             single, 0.1)
    mean, var, n_skipped = _per_sample_mixture(
        ds.X_test, ds.X_train, ds.y_train, template, single, 0.1)
    assert np.array_equal(mp.mean, mean) and np.array_equal(mp.var, var)
    assert mp.n_skipped == n_skipped == 1


def test_predictives_never_build_the_test_by_test_gram(monkeypatch):
    # of the (N*, N*) test Gram only the diagonal is ever evaluated
    ds = gen_smooth_xor(0)
    n_test = ds.X_test.shape[0]
    shapes = []

    def recording(evaluate):
        def wrapped(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            shapes.append(np.shape(out[0] if isinstance(out, tuple) else out))
            return out
        return wrapped

    for module in (gp, hyper):
        monkeypatch.setattr(module, "kernel_matrix",
                            recording(module.kernel_matrix))
    monkeypatch.setattr(kernels, "_recurse", recording(kernels._recurse))
    template = NetworkHyper(0.0, 2, (LayerHyper(0.0, 1.0),) * 8, True)
    chain = Chain(np.array([[-0.4, 2.1], [0.3, 1.2]]), np.zeros(2), 0.5)
    posterior_predictive(ds.X_test, ds.X_train, ds.y_train,
                         GPModel(substitute_hyper(template, -0.4, 2.1), 0.1))
    marginal_predictive(ds.X_test, ds.X_train, ds.y_train, template, chain,
                        0.1)
    assert shapes
    assert not [s for s in shapes if s[-2:] == (n_test, n_test)]


def test_marginal_predictive_sine_sanity():
    ds = gen_sine(1)
    post = grid_eval(ds.X_train, ds.y_train, TEMPLATE, SMALL_GRID,
                     "log-posterior", 0.1)
    chain = mh_sample(ds.X_train, ds.y_train, TEMPLATE, HyperPrior(),
                      MHConfig(n_samples=30, seed=9), post.argmax[:2], 0.1)
    mp = marginal_predictive(ds.X_test, ds.X_train, ds.y_train, TEMPLATE,
                             chain, 0.1)
    mse = float(np.mean((mp.mean - ds.y_test) ** 2))
    assert np.isfinite(mse)
    assert mse < ds.y_test.var()


def test_chain_map_against_grid_refinement():
    # nested grids (21 -> 41 points) can only improve the grid MAP, and the
    # best retained chain sample at most beats the fine grid by the
    # refinement gap
    ds = gen_sine(1)
    coarse = grid_eval(ds.X_train, ds.y_train, TEMPLATE,
                       GridSpec((-2.5, 1.0), (0.1, 8.0), 21),
                       "log-posterior", 0.1)
    fine = grid_eval(ds.X_train, ds.y_train, TEMPLATE,
                     GridSpec((-2.5, 1.0), (0.1, 8.0), 41),
                     "log-posterior", 0.1)
    assert coarse.argmax[2] <= fine.argmax[2] + 1e-12
    chain = mh_sample(ds.X_train, ds.y_train, TEMPLATE, HyperPrior(),
                      MHConfig(n_samples=50, seed=1), fine.argmax[:2], 0.1)
    gap = fine.argmax[2] - coarse.argmax[2]
    assert chain.log_densities.max() <= fine.argmax[2] + gap + 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        MHConfig(n_samples=0)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0), (-0.5, 2.0), 10)
    # nan fails every ordering check, and an infinite end gives nan axes
    for ends in ((0.0, np.nan, 1.0, 2.0), (np.nan, 1.0, 1.0, 2.0),
                 (-np.inf, 1.0, 1.0, 2.0), (0.0, 1.0, 1.0, np.inf),
                 (0.0, 1.0, np.nan, 2.0)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(ends[:2], ends[2:], 3)
