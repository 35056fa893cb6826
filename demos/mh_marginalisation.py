"""Point estimates versus full hyperparameter marginalisation.

Fits the Sine benchmark at a few depths with four estimators: evidence
maximiser (MLE), hyper-posterior maximiser (MAP), their mu = 0 constrained
versions, and the fully marginalised predictive mixture driven by a
random-walk Metropolis-Hastings chain over (mu, sigma^2).

The constrained MLE and MAP predictions land almost on top of each other:
with mu = 0 the remaining hyperparameter only rescales the kernel, and at
small noise the posterior mean barely feels that rescaling.
"""

import numpy as np

from mlpgp import (GPModel, GridSpec, HyperPrior, LayerHyper,
                   MHConfig, NetworkHyper, gen_sine, grid_eval,
                   marginal_predictive, mh_sample, posterior_predictive,
                   substitute_hyper)
from mlpgp.data import NOISE_VAR

GRID = GridSpec((-2.5, 1.0), (0.1, 8.0), 50)
ds = gen_sine(1)


def mse(pred):
    return float(np.mean((pred - ds.y_test) ** 2))


for depth in (2, 4, 8):
    template = NetworkHyper(0.0, 1, tuple([LayerHyper(0.0, 1.0)] * depth),
                            final_layer_linear=True)
    ml = grid_eval(ds.X_train, ds.y_train, template, GRID, "log-ml",
                   NOISE_VAR)
    post = grid_eval(ds.X_train, ds.y_train, template, GRID, "log-posterior",
                     NOISE_VAR)
    rows = {}
    for label, point in [("mle", ml.argmax), ("map", post.argmax),
                         ("mle-mu0", ml.argmax_mu0),
                         ("map-mu0", post.argmax_mu0)]:
        net = substitute_hyper(template, point[0], point[1])
        pp = posterior_predictive(ds.X_test, ds.X_train, ds.y_train,
                                  GPModel(net, NOISE_VAR))
        rows[label] = (point[0], point[1], mse(pp.mean), pp.mean)

    chain = mh_sample(ds.X_train, ds.y_train, template, HyperPrior(),
                      MHConfig(seed=depth), post.argmax[:2], NOISE_VAR)
    marg = marginal_predictive(ds.X_test, ds.X_train, ds.y_train, template,
                               chain, NOISE_VAR)

    print(f"\n=== sine, depth {depth} ===")
    for label, (mu, s2, err, _) in rows.items():
        print(f"{label:>8}: (mu, s2) = ({mu:+.2f}, {s2:.2f})  test MSE {err:.4f}")
    print(f"{'marginal':>8}: chain MAP ({chain.map_estimate()[0]:+.2f}, "
          f"{chain.map_estimate()[1]:.2f}), acceptance "
          f"{chain.acceptance_rate:.2f}, test MSE {mse(marg.mean):.4f}")
    rms = np.sqrt(np.mean((rows['mle-mu0'][3] - rows['map-mu0'][3]) ** 2))
    print(f"          mu=0 MLE vs MAP predictive RMS gap: {rms:.2e}")
