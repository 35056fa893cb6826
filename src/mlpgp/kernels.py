"""Limiting kernels of wide LReLU networks with general weight means.

Single-layer second moments for linear / absolute-value / leaky-ReLU units
under Gaussian pre-activations with non-zero means, and the deep recursion
behind `deep_kernel`, `kernel_matrix` and `kernel_diag`.  The internal moment
maps take a pre-activation pair (G1, G2) as its correlation rho and each
point's terms (`_point_terms` of its std-dev s and mean t), plain
broadcast-compatible floats or arrays, and check nothing: `LayerHyper`,
`NetworkHyper` and the recursion's input and vanished-signal checks keep
them on their domain.  They trust rho too: each caller clips it into
[-1, 1] once, where it forms it.

The recursion is one loop in `_recurse` over the hidden layers.  It carries
three arrays: each point's own post-activation second moment k and mean m,
of shape (P, 1), and the pairs' second moments k_xy, of shape (N, M), or
(N, 1) for `kernel_diag`'s pairs (x_i, x_i).  The points are X's rows, then
Y's, or X's alone when Y equals X or for `kernel_diag`.  A pair reads its
points through (N, 1) and (1, M) views, so each layer maps every point's
moments once and every pair's once.  A hidden layer's pre-activation has
s = sigma sqrt(k), means mu m and, for pair (i, j), rho = k_xy /
sqrt(k_i k_j).  A batch of G nets (`LayerHyper` values of shape (G, 1, 1))
puts G in front of every shape, and each slice keeps the bits of its own
call.  With non-zero means the kernel is not a function of the input angle
alone, so normalised angles are never stored internally.

The moment maps form their elementwise terms (the linear, cross and absolute
moments and their weighted sum) a block of rows of the pair array at a time,
each block the same rows of every leading slice and at most `_PAIR_BLOCK`
entries (or one row), into one output array; calls of up to that many
entries are one block.  Each point's s, t, m = t/s, Phi(m), phi(m),
erf(m/sqrt2), folded mean E|Q| and E[Z|Q|] (Q = Z + m) are formed once per
layer, by `_point_terms`; the points' own second moments and means read
them, and so do the pairs, by broadcasting.  The public single-pair maps
form them from their operands, so each moment formula has one copy.  The
regular (off-colinear) pairs' Phi2 is one `special._bvn_cdf_at` call per
layer, which keeps the bits of one `bvn_cdf` call per Gram (see `special` for
why).
"""

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy.special import erf

from .special import (_SQRT2, _bvn_cdf_at, bvn_pdf, std_normal_cdf,
                      std_normal_pdf)

__all__ = [
    "ArrayLike",
    "DegenerateInputError",
    "VanishedSignalError",
    "LayerHyper",
    "NetworkHyper",
    "constant_hyper",
    "deep_kernel",
    "arccos_reference",
    "kernel_matrix",
    "kernel_diag",
    "single_layer_kernel_with_bias",
]

ArrayLike = Union[float, np.ndarray]

# below this sin(theta), the absolute-value moment switches to its exact
# |rho| = 1 limit; the deep recursion drives rho -> 1, so this is a hot path
SIN_THETA_TOL = 1e-7
# the least double whose correctly rounded root reaches SIN_THETA_TOL: sqrt
# is monotone, so sin^2 theta < it exactly when sin theta < SIN_THETA_TOL
_SIN2_THETA_TOL = np.nextafter(SIN_THETA_TOL ** 2, 1.0)
while np.sqrt(np.nextafter(_SIN2_THETA_TOL, 0.0)) >= SIN_THETA_TOL:
    _SIN2_THETA_TOL = np.nextafter(_SIN2_THETA_TOL, 0.0)

# second moments below this are treated as a vanished signal
VANISHED_TOL = 1e-300

# Gram entries per batched kernel_matrix call; bounds a sweep's memory
BATCH_ENTRIES = 2 ** 12

# pair entries whose moment terms are formed at a time; the whole-layer
# arrays, not these blocks, set the recursion's peak memory
_PAIR_BLOCK = 2 ** 15


class DegenerateInputError(ValueError):
    """Raised for inputs (zero norm / zero scale) that collapse a kernel."""


class VanishedSignalError(ArithmeticError):
    """Raised when the propagated signal variance underflows at some layer."""

    def __init__(self, layer: int, value: float):
        self.layer = layer
        self.value = value
        super().__init__(
            f"signal variance {value:.3e} vanished at layer {layer}; "
            "sigma^2 is too far below the stable ridge for this depth")


@dataclass(frozen=True)
class LayerHyper:
    """Per-layer prior hyperparameters: weight mean mu and std-dev sigma.

    mu is the layer-average mean before the extra 1/n scaling; sigma > 0.
    For row-column-exchangeable priors factored per Assumption-2 style
    schemes these are the effective per-layer values (first/second moment
    factors collapsed in), so the same recursion applies unchanged.  Either
    value may be a (G, 1, 1) array, for a batch of G nets.
    """

    mu: ArrayLike
    sigma: ArrayLike

    def __post_init__(self):
        if not np.all(np.isfinite(self.mu)):
            raise ValueError("layer mean must be finite")
        if not np.all((self.sigma > 0.0) & np.isfinite(self.sigma)):
            raise ValueError("layer sigma must be positive and finite")


@dataclass(frozen=True)
class NetworkHyper:
    """Hyperparameters that fully determine the limiting kernel.

    layers[0] feeds on the raw input; layers[-1] is the output layer and is
    linear when final_layer_linear is set (the usual architecture).  With L
    entries and a linear output this makes L - 1 LReLU applications.
    """

    slope_a: float
    input_dim: int
    layers: Tuple[LayerHyper, ...]
    final_layer_linear: bool = True

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not (-1.0 < self.slope_a < 1.0):
            raise ValueError("LReLU slope must lie in (-1, 1)")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if len(self.layers) < 1:
            raise ValueError("need at least one layer")

    @property
    def depth(self) -> int:
        return len(self.layers)


def constant_hyper(mu: float, sigma: float, depth: int, input_dim: int,
                   slope_a: float = 0.0,
                   final_layer_linear: bool = True) -> NetworkHyper:
    """Network with the same (mu, sigma) in every layer."""
    return NetworkHyper(slope_a, input_dim,
                        tuple(LayerHyper(mu, sigma) for _ in range(depth)),
                        final_layer_linear)


def linear_kernel(s1, s2, rho, t1, t2) -> ArrayLike:
    """E[G1 G2] = s1 s2 rho + t1 t2.  Domain: any finite floats."""
    return s1 * s2 * rho + t1 * t2


def _point_terms(s, t):
    # the univariate terms of each point's pre-activation N(t, s^2), s > 0,
    # for Q = Z + m with m = t/s and Z standard normal: the tuple
    # (s, t, m, Phi(m), phi(m), erf(m / sqrt2), E|Q|, E[Z |Q|], E[Q^2]).  The
    # moment maps read a point only through it; E[Z |Q|] = E[Q |Q|] - m E|Q|
    # with E[Q |Q|] = 2 E[Theta(Q) Q^2] - E[Q^2]
    m = t / s
    cdf, pdf, erf_m = std_normal_cdf(m), std_normal_pdf(m), erf(m / _SQRT2)
    e_abs = m * erf_m + 2.0 * pdf
    e_q2 = 1.0 + m * m
    e_q_abs = 2.0 * (e_q2 * cdf + m * pdf) - e_q2
    return s, t, m, cdf, pdf, erf_m, e_abs, e_q_abs - m * e_abs, e_q2


def _folded(p):
    # E|G| for the point's G ~ N(t, s^2), from erf(m / sqrt2) and phi(m)
    return p[1] * p[5] + 2.0 * p[0] * p[4]


def folded_mean(mu_t, sigma_t) -> ArrayLike:
    """E|G| for G ~ N(mu_t, sigma_t^2), sigma_t > 0: the folded mean."""
    return _folded(_point_terms(sigma_t, mu_t))


def _abs_moment_colinear(b1, b2):
    # E|Z + b1||Z + b2| for a single standard normal Z: the |rho| = 1 limit.
    # |(Z+b1)(Z+b2)| = (Z+b1)(Z+b2) minus twice the part where Z lies between
    # the roots -b1 and -b2.
    lo = np.minimum(-b1, -b2)
    hi = np.maximum(-b1, -b2)
    phi_lo = std_normal_pdf(lo)
    phi_hi = std_normal_pdf(hi)
    mid = ((1.0 + b1 * b2) * (std_normal_cdf(hi) - std_normal_cdf(lo))
           - (hi * phi_hi - lo * phi_lo)
           + (b1 + b2) * (phi_lo - phi_hi))
    return 1.0 + b1 * b2 - 2.0 * mid


def _abs_moment(rho, regular, p1, p2, phi2):
    # E|Z1 + m1||Z2 + m2| of one block, for standard normals of correlation
    # rho, from the parts of broadcast operands: the |rho| = 1 limit off
    # `regular`, and on it the quadrant form, whose Phi2(m1, m2; rho) is phi2
    (_, _, m1, cdf1, pdf1, *_), (_, _, m2, cdf2, pdf2, *_) = p1, p2
    colinear = ~regular
    if colinear.all():
        sign = np.where(rho > 0.0, 1.0, -1.0)
        return _abs_moment_colinear(m1, sign * m2)
    # the quadrant form over the whole block, with rho = 0 standing in at the
    # colinear pairs, which then take the limit
    r = np.where(regular, rho, 0.0)
    sin2 = (1.0 - r) * (1.0 + r)
    st = np.sqrt(sin2)
    total = (m1 * m2 + r) * (4.0 * phi2 - 2.0 * cdf1 - 2.0 * cdf2 + 1.0)
    total += 2.0 * m1 * pdf2 * erf((m1 - r * m2) / (_SQRT2 * st))
    total += 2.0 * m2 * pdf1 * erf((m2 - r * m1) / (_SQRT2 * st))
    total += 4.0 * sin2 * bvn_pdf(m1, m2, r)
    if colinear.any():
        sign = np.where(rho > 0.0, 1.0, -1.0)
        b1, b2 = (np.broadcast_to(b, total.shape)[colinear]
                  for b in (m1, sign * m2))
        total[colinear] = _abs_moment_colinear(b1, b2)
    return total


def _pair_blocks(moment, rho, p1, p2):
    # the pair map: moment(rho, p1, p2, E|Z1 + m1||Z2 + m2|) over the pairs'
    # broadcast array, where p1 and p2 are the two points' `_point_terms`,
    # written into one array in blocks of rows (axis -2) across every leading
    # axis, each of at most _PAIR_BLOCK entries or one row.  The regular
    # pairs' Phi2 is one _bvn_cdf_at call over the whole array: a call per
    # block would change the bits of the rows it puts in a call's tail
    shape = np.broadcast(rho, p1[2], p2[2]).shape
    # the pairs with sin theta >= SIN_THETA_TOL, or NaN, with no sqrt; it
    # needs the |rho| <= 1 that every caller keeps, as checked by
    # tests/test_kernels.py::test_moment_maps_receive_clipped_rho
    regular = ~((1.0 - rho) * (1.0 + rho) < _SIN2_THETA_TOL)
    if np.shape(regular) != shape:
        regular = np.broadcast_to(regular, shape)
    phi2 = _bvn_cdf_at(p1[2], p2[2], rho, regular) if regular.any() else None
    out = np.empty(shape)
    if out.ndim < 2 or out.size <= _PAIR_BLOCK:
        out[...] = moment(rho, p1, p2, _abs_moment(rho, regular, p1, p2, phi2))
        return out
    step = max(1, _PAIR_BLOCK * shape[-2] // out.size)
    for lo in range(0, shape[-2], step):
        rows = np.s_[..., lo:lo + step, :]

        def part(v):
            # v's rows in the block; a broadcast row axis stays whole
            return v[rows] if np.ndim(v) > 1 and np.shape(v)[-2] > 1 else v

        r, q1, q2 = part(rho), tuple(map(part, p1)), tuple(map(part, p2))
        out[rows] = moment(r, q1, q2, _abs_moment(r, regular[rows], q1, q2,
                                                  part(phi2)))
    return out


def _cross(ss, rho, p1, p2):
    # E[G1 |G2|] = s1 s2 (rho E[Z2 |Q2|] + m1 E|Q2|) from the points' terms.
    # Rotation trick: G1 = s1 (rho Z2 + m1 + sqrt(1 - rho^2) Z_perp)
    return ss * (rho * p2[7] + p1[2] * p2[6])


def _lrelu_sum(rho, p1, p2, e_abs, a):
    # E[psi_a(G1) psi_a(G2)] from the split psi(z) = ((1+a) z + (1-a)|z|)/2:
    # the quarter-weighted sum of the linear, two cross and absolute moments,
    # with E|G1||G2| = s1 s2 e_abs
    (s1, t1, *_), (s2, t2, *_) = p1, p2
    ss = s1 * s2
    cross = _cross(ss, rho, p1, p2) + _cross(ss, rho, p2, p1)
    return 0.25 * ((1.0 + a) ** 2 * linear_kernel(s1, s2, rho, t1, t2)
                   + (1.0 - a * a) * cross
                   + (1.0 - a) ** 2 * (ss * e_abs))


def _lrelu_mean(p, a: float):
    return 0.5 * ((1.0 + a) * p[1] + (1.0 - a) * _folded(p))


def abs_kernel(s1, s2, rho, t1, t2) -> np.ndarray:
    """E|G1||G2| (folded Gaussian cross moment); s1, s2 > 0, |rho| <= 1."""
    return _pair_blocks(lambda rho, p1, p2, e_abs: p1[0] * p2[0] * e_abs, rho,
                        _point_terms(s1, t1), _point_terms(s2, t2))


def cross_term(s1, s2, rho, t1, t2) -> ArrayLike:
    """E[G1 |G2|] for the pre-activation pair.

    Domain: s1, s2 > 0 and |rho| <= 1.  Rotation trick: with Q = Z + t2/s2,
    the moment reduces to univariate folded moments E|Q| and E[Theta(Q) Q^2].
    """
    return _cross(s1 * s2, rho, _point_terms(s1, t1), _point_terms(s2, t2))


def lrelu_kernel(s1, s2, rho, t1, t2, a: float) -> ArrayLike:
    """E[psi_a(G1) psi_a(G2)] with psi_a(z) = max(az, z).

    Domain: s1, s2 > 0, |rho| <= 1 and -1 < a <= 1.  Assembled from the
    split psi(z) = ((1+a) z + (1-a)|z|)/2 as the quarter-weighted sum of the
    linear, two cross, and absolute-value moments.
    """
    return _pair_blocks(lambda *ops: _lrelu_sum(*ops, a), rho,
                        _point_terms(s1, t1), _point_terms(s2, t2))


def lrelu_mean(mu_t, sigma_t, a: float) -> ArrayLike:
    """E[psi_a(G)] for G ~ N(mu_t, sigma_t^2), sigma_t > 0, -1 < a <= 1."""
    return _lrelu_mean(_point_terms(sigma_t, mu_t), a)


def _first_layer_preactivation(x, y, layer: LayerHyper, n0: int):
    # each point's (s, t) as (..., P, 1) arrays, the pairs' rho, and the
    # indices that view a per-point array as the pairs' x and y operands.  y
    # None gives the diagonal pairs (x_i, x_i), with rho from the same gemm as
    # the full Gram's; a y equal to x by value is x; else x's rows, then y's
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ys = x if y is None else np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != n0 or ys.shape[1] != n0:
        raise ValueError(f"inputs must have length n0 = {n0}")
    if np.array_equal(x, ys):
        ys = x
    pts = x if ys is x else np.concatenate((x, ys))
    if not np.isfinite(pts).all():
        raise ValueError("inputs must be finite")
    r = np.linalg.norm(pts, axis=1)[:, None]
    if (r == 0.0).any():
        raise DegenerateInputError("zero-norm input has no first-layer signal")
    rows = np.s_[..., :len(x), :]
    cols = rows if y is None else np.s_[..., None, len(pts) - len(ys):, 0]
    xy = np.diag(x @ x.T)[:, None] if y is None else x @ ys.T
    s = (layer.sigma / np.sqrt(n0)) * r
    t = layer.mu * np.mean(pts, axis=1)[:, None]
    return s, t, np.clip(xy / (r[rows] * r[cols]), -1.0, 1.0), rows, cols


def _moment_step(s, t, rho, rows, cols, a: float):
    # each point's terms, once; from them the LReLU moment maps of each
    # point's own pre-activation (rho = 1, where E|Q||Q| is E[Q^2]) and of its
    # mean, then the pair map: the next (k, m, k_xy)
    p = _point_terms(s, t)
    return (_lrelu_sum(1.0, p, p, p[8], a), _lrelu_mean(p, a),
            _pair_blocks(lambda *ops: _lrelu_sum(*ops, a), rho,
                         *(tuple(v[i] for v in p) for i in (rows, cols))))


def _sqrt_product(k_i, k_j):
    # the denominator of rho, sqrt(k_i k_j); sqrt(k_i) sqrt(k_j) only where the
    # product underflows (both points' moments below ~1.5e-154), so that every
    # other entry keeps the bits of the plain product
    prod = k_i * k_j
    low = prod < np.finfo(float).tiny
    np.sqrt(prod, out=prod)
    if low.any():
        prod[low] = (np.sqrt(k_i) * np.sqrt(k_j))[low]
    return prod


def _recurse(x, y, net: NetworkHyper):
    # shared by deep_kernel / kernel_matrix / kernel_diag (y None): the final
    # second moment, NaN in a batch's vanished slices, and the (G,) vanished
    # mask of a batch (0-d, and raising instead, if unbatched)
    layers = net.layers
    vanished = np.zeros(np.broadcast_shapes(*(
        np.shape(v) for lay in layers for v in (lay.mu, lay.sigma)))[:1], bool)
    s, t, rho, rows, cols = _first_layer_preactivation(
        x, y, layers[0], net.input_dim)
    last_hidden = len(layers) - 1 if net.final_layer_linear else len(layers)
    if last_hidden == 0:
        k_xy = linear_kernel(s[rows], s[cols], rho, t[rows], t[cols])
    else:
        k, m, k_xy = _moment_step(s, t, rho, rows, cols, net.slope_a)
        # the first-layer rho would stay alive through every hidden layer
        del rho
    for l in range(2, last_hidden + 1):
        low = (k < VANISHED_TOL).any((-2, -1))
        if low.any():
            if vanished.ndim == 0:
                raise VanishedSignalError(l, float(np.min(k)))
            # a vanished slice goes on from a unit state: no warnings
            vanished |= low
            k, m, k_xy = (np.where(vanished[:, None, None], 1.0, v)
                          for v in (k, m, k_xy))
        layer = layers[l - 1]
        # rho takes k_xy's place, so one pair array enters the moment maps
        k_xy /= _sqrt_product(k[rows], k[cols])
        k, m, k_xy = _moment_step(
            layer.sigma * np.sqrt(k), layer.mu * m,
            np.clip(k_xy, -1.0, 1.0, out=k_xy), rows, cols, net.slope_a)
    if last_hidden and net.final_layer_linear:  # a linear layer on LReLU ones
        out = layers[-1]
        k_xy = out.sigma ** 2 * k_xy + out.mu ** 2 * m[rows] * m[cols]
    if vanished.ndim:
        k_xy[vanished] = np.nan
    if y is not None and k_xy.shape[-1] == s.shape[-2]:
        # Y is X (its M points are all P points): K is symmetric in every bit
        k_xy = 0.5 * (k_xy + np.swapaxes(k_xy, -1, -2))
    return k_xy, vanished


def deep_kernel(x, y, net: NetworkHyper) -> float:
    """Limiting kernel k(x, y) of the network described by `net`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("deep_kernel expects single input vectors")
    K, vanished = _recurse(x, y, net)
    if vanished.ndim:
        raise ValueError("deep_kernel takes one net: use kernel_matrix")
    return float(K[0, 0])


def kernel_matrix(X, Y, net: NetworkHyper) -> np.ndarray:
    """Gram matrix with entry (i, j) = deep_kernel(X[i], Y[j]).

    The recursion runs vectorised over all pairs at once; output values do
    not depend on evaluation order.  A Y equal to X by value is X, and K is
    then symmetric in every bit.  A batch of G nets gives (K, vanished): the
    (G, N, M) stack of Grams, each slice bit-identical to its own net's, and
    the (G,) mask of slices whose signal vanished; they hold NaN.
    """
    K, vanished = _recurse(X, Y, net)
    return (K, vanished) if vanished.ndim else K


def kernel_diag(X, net: NetworkHyper) -> np.ndarray:
    """k(X[i], X[i]) for each row, at the cost of N points and N pairs.

    It has the bits of np.diag(kernel_matrix(X, X, net)) wherever every
    diagonal pair stays on the colinear branch of the absolute moment (see
    README, numerical notes).  A batch of G nets gives (k, vanished) with
    shapes (G, N) and (G,), as kernel_matrix does.
    """
    K, vanished = _recurse(X, None, net)
    return (K[..., 0], vanished) if vanished.ndim else K[..., 0]


def _batch_slices(n_nets, entries):
    # chunks of n_nets Grams of `entries` entries, BATCH_ENTRIES per chunk
    step = max(1, BATCH_ENTRIES // max(1, entries))
    return [slice(lo, lo + step) for lo in range(0, n_nets, step)]


def arccos_reference(theta0: float, a: float, L: int) -> float:
    """cos(theta_L) after L applications of the zero-mean LReLU angle map."""
    if not (0.0 <= theta0 <= np.pi):
        raise ValueError("theta0 must lie in [0, pi]")
    if L < 1:
        raise ValueError("L must be >= 1")
    theta = float(theta0)
    denom = 1.0 + a * a
    cos_t = np.cos(theta)
    for _ in range(L):
        cos_t = ((1.0 - a) ** 2 / (np.pi * denom)
                 * (np.sin(theta) + (np.pi - theta) * np.cos(theta))
                 + 2.0 * a / denom * np.cos(theta))
        cos_t = min(1.0, max(-1.0, cos_t))
        theta = np.arccos(cos_t)
    return float(cos_t)


def single_layer_kernel_with_bias(x1, x2, mu, sigma_diag, a: float) -> float:
    """One-layer LReLU kernel with bias handled by input augmentation.

    Inputs are augmented with a trailing 1; mu and sigma_diag cover the
    augmented coordinates (weights first, bias last), sigma_diag holding the
    diagonal of the weight covariance.  The slope a must lie in (-1, 1].
    """
    if not (-1.0 < a <= 1.0):
        raise ValueError("LReLU slope must lie in (-1, 1]")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValueError("x1 and x2 must be equal-length vectors")
    x1h = np.append(x1, 1.0)
    x2h = np.append(x2, 1.0)
    mu = np.asarray(mu, dtype=float)
    sig = np.asarray(sigma_diag, dtype=float)
    if mu.shape != x1h.shape or sig.shape != x1h.shape:
        raise ValueError("mu and sigma_diag must cover the augmented input")
    if np.any(sig < 0.0):
        raise ValueError("sigma_diag entries must be non-negative")
    s1 = np.sqrt(np.sum(sig * x1h * x1h))
    s2 = np.sqrt(np.sum(sig * x2h * x2h))
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateInputError("stretched input has zero scale")
    rho = float(np.clip(np.sum(sig * x1h * x2h) / (s1 * s2), -1.0, 1.0))
    return float(lrelu_kernel(s1, s2, rho, float(mu @ x1h), float(mu @ x2h), a))
