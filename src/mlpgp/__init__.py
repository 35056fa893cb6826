"""Limiting Gaussian-process models of infinitely wide LReLU networks.

Kernel recursions for independent priors with general means and for
row-column-exchangeable priors, GP regression on top of them,
hyperparameter marginalisation by Metropolis-Hastings, finite-width
samplers, and an MMD-based convergence test harness.
"""

from .data import Dataset, gen_sine, gen_smooth_xor, load_snelson
from .finite_net import (IIDGaussian, NetworkShape, RCEScheme, SampledNetwork,
                         activations, dump_weights, forward, get_scheme,
                         load_weights, sample_weights)
from .gp import (FactorizationError, GPModel, PosteriorPredictive,
                 circle_traversal, log_marginal_likelihood,
                 perturbation_bound, posterior_predictive, sample_prior)
from .hyper import (Chain, GridSpec, HyperPrior, MHConfig, grid_eval,
                    hyper_prior_logpdf, marginal_predictive, mh_sample,
                    random_walk_mh, substitute_hyper)
from .kernels import (DegenerateInputError, LayerHyper, NetworkHyper,
                      VanishedSignalError, arccos_reference, constant_hyper,
                      deep_kernel, kernel_diag, kernel_matrix,
                      single_layer_kernel_with_bias)
from .mmd import convergence_experiment, limiting_hyper, mmd2_unbiased, \
    permutation_null
from .special import (DegenerateCorrelationError, bvn_cdf, bvn_pdf,
                      std_normal_cdf, std_normal_pdf)

__version__ = "0.1.0"
