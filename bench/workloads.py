"""The three benchmark workloads.

Each workload builds its inputs for every job seed of the pool during
set-up, makes one warm-up call, and then runs one job at a time.  A job
returns its outputs (named float64 arrays, checked against the stored
reference), the count of operations it attempted inside the job, and its
failed operations by kind; the job itself counts as one more operation.

Every call into the library goes through a module attribute
(`hyper.grid_eval`, `gp.sample_prior`, ...), so the tracer's rebinding of
those attributes sees it.
"""

import numpy as np

from mlpgp import data, finite_net, gp, hyper, kernels, mmd

# job seeds with stored reference outputs; job j of a run with seed s uses
# job seed (s + j) % POOL
POOL = 8

NOISE_VAR = 0.1


def job_seed(run_seed, job_index):
    return (run_seed + job_index) % POOL


class HyperFit:
    """`mlpgp fit --estimator marginal` on Smooth XOR: grid, MH, predictive.

    About 810 kernel calls at N = 4 (grid cells, MH steps) and 40 at
    N = 100 (predictive Grams) per job, so per-call dispatch dominates.
    """

    name = "hyper-fit"
    # mostly small kernel calls: its ratio to the probe was steadiest with
    # the dispatch part in the probe (worker.Probe)
    probe_dispatch = True
    sizes = {"full": dict(depth=8, resolution=24, burn_in=20, thin=10, kept=20),
             "smoke": dict(depth=4, resolution=6, burn_in=4, thin=2, kept=4)}

    def __init__(self, size):
        p = self.sizes[size]
        self.p = p
        sub = kernels.LayerHyper(0.0, float(np.sqrt(2.0)))
        self.template = kernels.NetworkHyper(
            0.0, 2, (sub,) * (p["depth"] - 1) + (kernels.LayerHyper(0.0, 1.0),),
            True)
        self.spec = hyper.GridSpec(resolution=p["resolution"])
        self.inputs = [data.gen_smooth_xor(s) for s in range(POOL)]

    def warm_up(self):
        ds = self.inputs[0]
        gp.log_marginal_likelihood(ds.X_train, ds.y_train,
                                   gp.GPModel(self.template, NOISE_VAR))

    def run(self, seed):
        ds = self.inputs[seed]
        p = self.p
        surface = hyper.grid_eval(ds.X_train, ds.y_train, self.template,
                                  self.spec, target="log-posterior",
                                  noise_var=NOISE_VAR)
        config = hyper.MHConfig(burn_in=p["burn_in"], thin=p["thin"],
                                n_samples=p["kept"], seed=seed)
        chain = hyper.mh_sample(ds.X_train, ds.y_train, self.template,
                                hyper.HyperPrior(), config, surface.argmax[:2],
                                noise_var=NOISE_VAR)
        pred = hyper.marginal_predictive(ds.X_test, ds.X_train, ds.y_train,
                                         self.template, chain,
                                         noise_var=NOISE_VAR)
        outputs = {"grid": surface.values, "chain": chain.samples,
                   "chain_logp": chain.log_densities,
                   "pred_mean": pred.mean, "pred_var": pred.var}
        failures = {"-inf grid cells": surface.n_failed,
                    "skipped chain samples": pred.n_skipped}
        return outputs, surface.values.size + len(chain), failures


class PriorDraws:
    """`sample_prior` along a great circle on the README's ridge values.

    One large vectorised Gram whose cost is mostly `bvn_cdf`.
    """

    name = "prior-draws"
    # vectorised: its ratio to the probe was steadiest with the streaming
    # part alone
    probe_dispatch = False
    sizes = {"full": dict(n_points=600, dim=10, depth=16, n_draws=5),
             "smoke": dict(n_points=60, dim=10, depth=4, n_draws=2)}

    def __init__(self, size):
        p = self.sizes[size]
        self.p = p
        ridge = kernels.LayerHyper(-1.05, float(np.sqrt(3.06)))
        self.model = gp.GPModel(kernels.NetworkHyper(
            0.0, p["dim"],
            (ridge,) * (p["depth"] - 1) + (kernels.LayerHyper(0.0, 1.0),),
            True), 0.0)
        self.inputs = [gp.circle_traversal(p["dim"], p["n_points"], s)
                       for s in range(POOL)]

    def warm_up(self):
        gp.sample_prior(self.inputs[0][:8], self.model, 1, 0)

    def run(self, seed):
        draws = gp.sample_prior(self.inputs[seed], self.model,
                                self.p["n_draws"], seed)
        return {"draws": draws}, 0, {}


class MMDConvergence:
    """`convergence_experiment` for f2 (sampler-bound) and f4 (GP-draw-bound)."""

    name = "mmd-convergence"
    # its ratio to the probe was steadiest with the streaming part alone
    probe_dispatch = False
    sizes = {"full": dict(f2_depth=8, f2_widths=(16, 64, 256, 512),
                          f4_depth=4, f4_widths=(16, 64, 256), n_samples=300),
             "smoke": dict(f2_depth=4, f2_widths=(8, 32),
                           f4_depth=3, f4_widths=(8, 32), n_samples=40)}

    def __init__(self, size):
        self.p = self.sizes[size]
        self.f2 = finite_net.get_scheme("f2")
        self.f4 = finite_net.get_scheme("f4")

    def warm_up(self):
        mmd.convergence_experiment(self.f4, 3, (4,), n_samples=8, n_perm=8)

    def run(self, seed):
        p = self.p
        outputs = {}
        for label, scheme in (("f2", self.f2), ("f4", self.f4)):
            r = mmd.convergence_experiment(scheme, p[label + "_depth"],
                                           p[label + "_widths"],
                                           n_samples=p["n_samples"], seed=seed)
            outputs[label + "_mmd2"] = r.mmd2
            outputs[label + "_null_lo"] = r.null_lo
            outputs[label + "_null_hi"] = r.null_hi
        return outputs, 0, {}


WORKLOADS = {w.name: w for w in (HyperFit, PriorDraws, MMDConvergence)}
