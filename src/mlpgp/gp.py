"""Gaussian-process prior sampling, posterior prediction and diagnostics."""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .kernels import NetworkHyper, kernel_diag, kernel_matrix

__all__ = [
    "FactorizationError",
    "GPModel",
    "PosteriorPredictive",
    "sample_prior",
    "posterior_predictive",
    "log_marginal_likelihood",
    "perturbation_bound",
    "circle_traversal",
]

# jitter escalation ladder, as fractions of the mean diagonal
_JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


class FactorizationError(np.linalg.LinAlgError):
    """Gram matrix could not be factorised within the jitter budget."""


@dataclass(frozen=True)
class GPModel:
    """Limiting-network GP: kernel hyperparameters plus observation noise.

    The noise variance must be non-negative and finite; the level-II entry
    points of `hyper` check theirs by building a GPModel.
    """

    net: NetworkHyper
    noise_var: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.noise_var < np.inf:
            raise ValueError("noise variance must be non-negative and finite")


@dataclass
class PosteriorPredictive:
    """Posterior predictive mean and per-point variance at the test inputs."""

    mean: np.ndarray
    var: np.ndarray
    jitter: float = 0.0


def _rung0(A):
    # rung 0 of the jitter ladder over a matrix or a stack: A + 0.0, which
    # turns a -0.0 into +0.0 as the jitter of every later rung does
    return np.linalg.cholesky(A + 0.0)


def _chol_with_jitter(K: np.ndarray):
    """Lower Cholesky factor of K, escalating diagonal jitter as needed.

    Returns (L, jitter_added).  Deep off-ridge kernels are severely
    ill-conditioned, so plain factorisation routinely needs the ladder.  Its
    rungs add eps times the mean diagonal; where that mean is not finite,
    the ladder ends after rung 0.
    """
    if K.size == 0:
        return np.zeros((0, 0)), 0.0
    if not np.all(np.isfinite(K)):
        raise FactorizationError("gram matrix contains non-finite entries")
    try:
        return _rung0(K), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(K)))
    if not np.isfinite(scale):
        raise FactorizationError(
            "cholesky failed with no jitter, and the gram matrix's mean "
            "diagonal is not finite")
    if scale <= 0.0:
        scale = 1.0
    for eps in _JITTER_LADDER[1:]:
        try:
            L = np.linalg.cholesky(K + (eps * scale) * np.eye(K.shape[0]))
            return L, eps * scale
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        f"cholesky failed for {K.shape[0]}x{K.shape[0]} gram matrix even "
        f"with jitter {_JITTER_LADDER[-1]:g} * mean diagonal")


def _chol_stack(A):
    """Slice j -> (L, jitter) of the (G, n, n) stack A, with the bits of
    `_chol_with_jitter(A[j])`.

    One cholesky call over the finite slices is every slice's rung 0.  If it
    raises, each slice asked for walks `_chol_with_jitter`, as does a
    non-finite slice, which raises FactorizationError there.
    """
    finite = np.isfinite(A).all(axis=(-2, -1))
    try:
        L = _rung0(A[finite])
    except np.linalg.LinAlgError:
        return lambda j: _chol_with_jitter(A[j])
    index = np.cumsum(finite) - 1

    def factor(j):
        return (L[index[j]], 0.0) if finite[j] else _chol_with_jitter(A[j])

    return factor


def sample_prior(Xstar, model: GPModel, n_draws: int, seed: int) -> np.ndarray:
    """Draw n_draws functions from the GP prior at the rows of Xstar.

    Rows of the result are iid multivariate-normal draws with covariance
    kernel_matrix(Xstar, Xstar); fixed seeds give bit-identical output.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    K = kernel_matrix(Xstar, Xstar, model.net)
    L, _ = _chol_with_jitter(K)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, Xstar.shape[0]))
    return z @ L.T


def posterior_predictive(Xstar, X, y, model: GPModel) -> PosteriorPredictive:
    """Posterior mean and variance at each row of Xstar given (X, y).

    Everything goes through a Cholesky factorisation of K + s^2 I; no
    explicit inverse is ever formed, and of the test-by-test Gram only the
    diagonal is computed.
    """
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k_ss = kernel_diag(Xstar, model.net)
    if X.shape[0] == 0:
        return PosteriorPredictive(np.zeros(Xstar.shape[0]), k_ss)
    L, jit = _chol_with_jitter(kernel_matrix(X, X, model.net)
                               + model.noise_var * np.eye(X.shape[0]))
    return _predict_from_factor(L, jit, kernel_matrix(Xstar, X, model.net),
                                k_ss, np.asarray(y, dtype=float))


def _predict_from_factor(L, jit, K_sx, k_ss, y):
    # the posterior predictive from the factor L of K_xx + s^2 I (with jitter
    # jit added), K_sx and k_ss
    if y.shape[0] != L.shape[0]:
        raise ValueError("y length must match the training rows")
    alpha = sla.cho_solve((L, True), y)
    v = sla.solve_triangular(L, K_sx.T, lower=True)
    return PosteriorPredictive(K_sx @ alpha, k_ss - np.diag(v.T @ v), jit)


def _lml_from_gram(K, y, noise_var: float):
    # (log marginal likelihood, jitter) of y given the noise-free Gram K
    L, jit = _chol_with_jitter(K + noise_var * np.eye(K.shape[0]))
    return _lml_from_factor(L, y), jit


def _lml_from_factor(L, y):
    # log marginal likelihood of y from the factor L of K + s^2 I
    alpha = sla.cho_solve((L, True), y)
    return (-0.5 * float(y @ alpha)
            - float(np.sum(np.log(np.diag(L))))
            - 0.5 * L.shape[0] * np.log(2.0 * np.pi))


def log_marginal_likelihood(X, y, model: GPModel) -> float:
    """Gaussian log marginal likelihood of y under the model at inputs X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _lml_from_gram(kernel_matrix(X, X, model.net),
                          np.asarray(y, dtype=float), model.noise_var)[0]


def perturbation_bound(Xstar, X, y, net: NetworkHyper, c1: float, c2: float,
                       s: float):
    """Posterior-mean shift between kernel scales c1, c2 and its bound.

    With base matrices K_xx = kernel_matrix(X, X, net) and K_sx, the scaled
    model multiplies the kernel by c^2, so the posterior mean becomes
    K_sx (K_xx + (s^2/c^2) I)^{-1} y.  Returns (lhs, bound) where

        lhs   = || mean(c1) - mean(c2) ||_2
        bound = 2 ||K_sx|| ||K_xx^{-1} y|| max_c r_c / (1 - r_c),
                r_c = (s^2/c^2) ||K_xx^{-1}||

    in the spectral norm, valid under the proviso r_c < 1 for both scales.
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("scales must be positive")
    if s < 0.0:
        raise ValueError("noise std-dev must be non-negative")
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    K_xx = kernel_matrix(X, X, net)
    K_sx = kernel_matrix(Xstar, X, net)
    eigs = np.linalg.eigvalsh(K_xx)
    if eigs[0] <= 0.0:
        raise FactorizationError("base gram matrix is singular")
    inv_norm = 1.0 / eigs[0]
    r = [(s * s / (c * c)) * inv_norm for c in (c1, c2)]
    if max(r) >= 1.0:
        raise ValueError(
            f"perturbation proviso violated: s^2 ||K^-1|| / c^2 = {max(r):.3g} >= 1")
    means = [K_sx @ np.linalg.solve(K_xx + (s * s / (c * c)) * np.eye(X.shape[0]), y)
             for c in (c1, c2)]
    lhs = float(np.linalg.norm(means[0] - means[1]))
    inv_y_norm = float(np.linalg.norm(np.linalg.solve(K_xx, y)))
    ksx_norm = float(np.linalg.norm(K_sx, 2))
    bound = 2.0 * ksx_norm * inv_y_norm * max(r_c / (1.0 - r_c) for r_c in r)
    return lhs, bound


def circle_traversal(dim: int, n_points: int, seed: int) -> np.ndarray:
    """Points on a random great circle of the unit sphere in R^dim.

    Two orthogonal directions come from the QR factor of a seeded Gaussian
    matrix; rows are cos(t) e1 + sin(t) e2 on a uniform t-grid over [0, 2pi).
    """
    if dim < 2:
        raise ValueError("need dim >= 2 for a circle")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, 2)))
    q = q * np.sign(np.diag(r))
    t = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    return np.cos(t)[:, None] * q[:, 0] + np.sin(t)[:, None] * q[:, 1]
