"""Unbiased MMD^2 between finite-width network outputs and limiting-GP draws."""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from .finite_net import (IIDGaussian, WeightScheme, _uniform_latent,
                         layer_prior)
from .gp import FactorizationError, GPModel, _chol_with_jitter, sample_prior
from .kernels import LayerHyper, NetworkHyper, _batch_slices, kernel_matrix

__all__ = [
    "mmd2_unbiased",
    "permutation_null",
    "limiting_hyper",
    "ConvergenceResult",
    "convergence_experiment",
]


def _gram(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # fixed unit bandwidth, deliberately untuned
    return np.exp(-cdist(u, v, "sqeuclidean"))


def _mmd2_from_blocks(kxx, kyy, kxy) -> float:
    # unbiased MMD^2 from the within- and between-set gram blocks
    n, m = kxy.shape
    term_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    return float(term_x + term_y - 2.0 * kxy.mean())


def mmd2_unbiased(xs, ys) -> float:
    """Unbiased U-statistic estimate of MMD^2 with kernel exp(-||u - v||^2).

    Rows of xs / ys are samples (function values at the shared probe
    points).  May be negative; that is the price of unbiasedness.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    n, m = xs.shape[0], ys.shape[0]
    if n < 2 or m < 2:
        raise ValueError("unbiased MMD^2 needs at least two samples per set")
    if xs.shape[1] != ys.shape[1]:
        raise ValueError("sample sets must share the probe dimension")
    return _mmd2_from_blocks(_gram(xs, xs), _gram(ys, ys), _gram(xs, ys))


def _null_band_from_gram(G, n, m, n_perm, seed):
    # all permutations at once: one GEMM against a 0/1 mask matrix
    diag = np.diag(G)
    total = G.sum()
    rng = np.random.default_rng(seed)
    masks = np.zeros((n + m, n_perm))
    for p in range(n_perm):
        masks[rng.permutation(n + m)[:n], p] = 1.0
    V = G @ masks
    s_xx = np.einsum("ip,ip->p", masks, V)
    s_xy = V.sum(axis=0) - s_xx
    s_yy = total - s_xx - 2.0 * s_xy
    d_x = diag @ masks
    d_y = diag.sum() - d_x
    vals = ((s_xx - d_x) / (n * (n - 1)) + (s_yy - d_y) / (m * (m - 1))
            - 2.0 * s_xy / (n * m))
    return float(np.quantile(vals, 0.025)), float(np.quantile(vals, 0.975))


def permutation_null(xs, ys, n_perm: int = 200, seed: int = 0):
    """Null band for MMD^2 under random relabelling of the pooled samples.

    Returns the 2.5% and 97.5% points of the permuted estimates; gives the
    scale on which an observed MMD^2 counts as indistinguishable from zero.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    n, m = xs.shape[0], ys.shape[0]
    pooled = np.vstack([xs, ys])
    return _null_band_from_gram(_gram(pooled, pooled), n, m, n_perm, seed)


def limiting_hyper(scheme: WeightScheme, depth: int, input_dim: int,
                   a: float = 0.0,
                   A_values: Optional[Sequence[float]] = None) -> NetworkHyper:
    """Kernel hyperparameters of the GP limit of a sampled network.

    Layer l carries the hyperparameters of its layer_prior: (mu, sigma) of
    an iid scheme everywhere, zero-mean Gaussian ends and the scheme's
    effective values inside for an RCE scheme.  A_values supplies the
    global latents of the hidden layers 2..L-1 (one each, default 0), each
    a float or a (G, 1, 1) array for a batch of G nets; only a scheme with
    random_hyper reads them.
    """
    n_internal = max(depth - 2, 0)
    if A_values is None:
        A_values = [0.0] * n_internal
    if len(A_values) != n_internal:
        raise ValueError(f"need {n_internal} A values for depth {depth}")
    layers = tuple(LayerHyper(*layer_prior(scheme, l, depth).hyperparams(A))
                   for l, A in enumerate([0.0, *A_values, 0.0][:depth],
                                         start=1))
    return NetworkHyper(a, input_dim, layers, True)


@dataclass
class ConvergenceResult:
    """MMD^2 curve over widths with a permutation null band per width."""

    widths: Tuple[int, ...]
    mmd2: np.ndarray
    null_lo: np.ndarray
    null_hi: np.ndarray
    scheme: str
    depth: int


# raw float32 weight-buffer budget of one _mlp_samples chunk
CHUNK_BYTES = 2 ** 27


def _mlp_samples(scheme, depth, width, S, n_samples, a, seed_seq):
    """Finite-network output samples at the probe points S.

    A buffer-reusing chunked sampler: every sample is an independent
    network with the distribution of sample_weights, at much less
    allocator traffic than one sample_weights + forward call per sample.
    """
    rng = np.random.Generator(np.random.SFC64(seed_seq))
    d_in = S.shape[1]
    n_probe = S.shape[0]
    sizes = [d_in] + [width] * (depth - 1) + [1]
    k = max(1, min(n_samples, CHUNK_BYTES // (4 * width * width + 1)))
    # raw-draw float32 (k, n_in, n_out) buffers reused across chunks, so the
    # sampler is allocation-free after warm-up; weights are affine in the
    # raw draws, so their scale and shift fold into the (small) matmul
    # output instead of costing full passes over the buffers:
    #   h (c1 R + c2) = c1 (h R) + (h c2_col) 1^T
    bufs = {}
    for n_i, n_o in zip(sizes[:-1], sizes[1:]):
        bufs.setdefault((n_i, n_o), np.empty((k, n_i, n_o), dtype=np.float32))
    S32 = S.astype(np.float32)
    out = np.empty((n_samples, n_probe))
    done = 0
    sqrt3 = np.float32(np.sqrt(3.0))
    while done < n_samples:
        m = min(k, n_samples - done)
        h = np.broadcast_to(S32, (m, n_probe, d_in))
        for l, (n_i, n_o) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
            R = bufs[(n_i, n_o)][:m]
            prior = layer_prior(scheme, l, depth)
            if isinstance(prior, IIDGaussian):
                rng.standard_normal(out=R, dtype=np.float32)
                c1 = np.float32(prior.sigma / np.sqrt(n_i))
                col = prior.mu / n_i
            else:
                # latents are drawn only for the terms that read them
                A = C = None
                if callable(prior.scale) or callable(prior.shift):
                    A = _uniform_latent(rng, (m, 1, 1))
                    C = _uniform_latent(rng, (m, n_i, 1))
                scale, shift = prior.affine(A, C)
                scale = scale / np.sqrt(n_i)
                shift = shift / n_i
                rng.random(out=R, dtype=np.float32)
                # weight = scale*(2 sqrt3 u - sqrt3) + shift
                c1 = 2.0 * sqrt3 * np.asarray(scale, dtype=np.float32)
                col = shift - sqrt3 * np.asarray(scale)
            c2 = np.empty((m, n_i, 1), dtype=np.float32)
            c2[:] = col
            y = np.matmul(h, R)
            y *= c1
            y += np.matmul(h, c2)
            h = y
            if l < depth:
                np.maximum(np.float32(a) * h, h, out=h)
        out[done:done + m] = h[:, :, 0]
        done += m
    return out


def _gp_samples(scheme, depth, S, n_samples, a, seed_seq):
    if not scheme.random_hyper:
        net = limiting_hyper(scheme, depth, S.shape[1], a)
        return sample_prior(S, GPModel(net, 0.0), n_samples, seed_seq)
    rng = np.random.default_rng(seed_seq)
    n_internal = max(depth - 2, 0)
    n_probe = S.shape[0]
    A = np.empty((n_samples, n_internal))
    z = np.empty((n_samples, n_probe))
    for i in range(n_samples):
        A[i] = _uniform_latent(rng, n_internal)
        z[i] = rng.standard_normal(n_probe)
    out = np.zeros((n_samples, n_probe))
    for chunk in _batch_slices(n_samples, n_probe * n_probe):
        net = limiting_hyper(scheme, depth, S.shape[1], a,
                             [A[chunk, j, None, None]
                              for j in range(n_internal)])
        K = kernel_matrix(S, S, net)  # unbatched if no hidden layer holds A
        K, vanished = K if n_internal else ([K] * len(A), [False] * len(A))
        for i, K_i, gone in zip(range(n_samples)[chunk], K, vanished):
            # a draw whose signal vanished, or whose Gram is (numerically)
            # zero, is the zero function: the limit of a vanishing layer scale
            if gone:
                continue
            try:
                L, _ = _chol_with_jitter(K_i)
            except FactorizationError:
                if np.max(np.abs(K_i)) < 1e-12:
                    continue
                raise
            out[i] = L @ z[i]
    return out


def convergence_experiment(scheme: WeightScheme, depth: int,
                           widths: Sequence[int], d_probe: int = 4,
                           n_samples: int = 2000, input_dim: int = 10,
                           seed: int = 0, a: float = 0.0,
                           n_perm: int = 200) -> ConvergenceResult:
    """MMD^2 between finite networks and their GP limit, per hidden width.

    Probe points are drawn once (standard Gaussian rows) and shared across
    widths.  Every finite-network sample is an independent weight draw; for
    random-hyperparameter schemes every GP draw refreshes the global latents
    and hence the kernel.
    """
    widths = tuple(int(w) for w in widths)
    if any(b < a_ for a_, b in zip(widths, widths[1:])):
        raise ValueError("widths must be nondecreasing")
    if depth < 2:
        raise ValueError("need depth >= 2 for a hidden layer")
    if n_samples < 2:
        raise ValueError("unbiased MMD^2 needs n_samples >= 2")
    if d_probe < 1:
        raise ValueError("need d_probe >= 1 probe point")
    root = np.random.SeedSequence(seed)
    probe_ss, gp_root, perm_root, mlp_root = root.spawn(4)
    S = np.random.default_rng(probe_ss).standard_normal((d_probe, input_dim))
    gp_children = gp_root.spawn(len(widths))
    perm_children = perm_root.spawn(len(widths))
    mlp_children = mlp_root.spawn(len(widths))
    mmd2 = np.empty(len(widths))
    lo = np.empty(len(widths))
    hi = np.empty(len(widths))
    for i, w in enumerate(widths):
        xs = _mlp_samples(scheme, depth, w, S, n_samples, a, mlp_children[i])
        ys = _gp_samples(scheme, depth, S, n_samples, a, gp_children[i])
        # one pooled gram serves both the estimate and its null band
        n, m = xs.shape[0], ys.shape[0]
        G = _gram(np.vstack([xs, ys]), np.vstack([xs, ys]))
        mmd2[i] = _mmd2_from_blocks(G[:n, :n], G[n:, n:], G[:n, n:])
        lo[i], hi[i] = _null_band_from_gram(G, n, m, n_perm,
                                            perm_children[i])
    return ConvergenceResult(widths, mmd2, lo, hi, scheme.name, depth)
