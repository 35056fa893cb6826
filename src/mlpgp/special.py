"""Special functions: the Gaussian pdf/cdf and their bivariate counterparts.

All functions accept scalars or numpy arrays, broadcast elementwise and
return numpy values (a 0-d array or numpy scalar for scalar input).  The
bivariate CDF follows the Drezner-Wesolowsky/Genz algorithm: Gauss-Legendre
quadrature on the single-integral form, with the usual change of variable for
correlations beyond 0.925.  Each branch runs over blocks of about
`QUAD_ROWS` rows: a block gathers its h, k and rho through the branch's
index array, forms its quadrature values and every other term, sums the
quadrature by gemv and writes its rows of the output.  So the n-length
arrays it makes are its output, the branch masks and one branch's indices,
and each row has the bits of one gemv per batch slice whatever the block
size.
"""

import numpy as np
from scipy import special as _sps

__all__ = [
    "DegenerateCorrelationError",
    "std_normal_pdf",
    "std_normal_cdf",
    "bvn_pdf",
    "bvn_cdf",
]

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_INV_2PI = 1.0 / (2.0 * np.pi)

# correlations within this distance of +-1 are treated as exactly degenerate
DEGENERATE_RHO_TOL = 1e-15

# |rho| beyond this takes the strong-correlation branch of bvn_cdf
STRONG_RHO = 0.925

# 20-point Gauss-Legendre rule on [-1, 1] (half table; nodes are symmetric)
_GL20_X = np.array([
    0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
    0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
    0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
    0.07652652113349733,
])
_GL20_W = np.array([
    0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
    0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
    0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
    0.1527533871307259,
])
# nodes/weights mapped to [0, 2] (so interval [0, u] uses (u/2) * node)
_GL_NODES = np.concatenate([1.0 - _GL20_X, 1.0 + _GL20_X])
_GL_WEIGHTS = np.concatenate([_GL20_W, _GL20_W])

# rows of quadrature values formed and summed at a time (a multiple of 4);
# at 20 nodes a block's temporaries stay within a 2 MB cache
QUAD_ROWS = 2 ** 12


class DegenerateCorrelationError(ValueError):
    """Raised where |rho| = 1 makes a density undefined."""


def std_normal_pdf(z):
    """Standard normal density phi(z)."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def std_normal_cdf(z):
    """Standard normal CDF Phi(z) via erfc for accuracy in both tails."""
    z = np.asarray(z, dtype=float)
    return 0.5 * _sps.erfc(-z / _SQRT2)


def bvn_pdf(h, k, rho):
    """Standard bivariate normal density at (h, k) with correlation rho.

    Raises DegenerateCorrelationError when |rho| is within machine tolerance
    of 1, where the density degenerates.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if (np.abs(rho) >= 1.0 - DEGENERATE_RHO_TOL).any():
        raise DegenerateCorrelationError(
            "bivariate normal density is degenerate at |rho| = 1")
    omr2 = (1.0 - rho) * (1.0 + rho)
    quad = (h * h - 2.0 * rho * h * k + k * k) / (2.0 * omr2)
    return np.exp(-quad) * _INV_2PI / np.sqrt(omr2)


def _gl_sum(n, slices):
    # n rows in blocks of about QUAD_ROWS, as (rows, gl_sum) pairs: gl_sum
    # forms the Gauss-Legendre sums of the block's (rows, 20) quadrature values
    # by gemv while they are in cache.  OpenBLAS gemv gives a row of a full
    # 4-row group the same bits wherever it sits, but the last n mod 4 rows of
    # a call other bits, and numpy sends a 1-row product to dot, which rounds
    # differently again.  So a batch slice is cut only at multiples of 4 from
    # its start and never one row before its end: every row keeps the bits of
    # one gemv per slice (Owen's T, with no quadrature, would delete this).
    starts = [0] if slices is None else \
        [0, *(np.flatnonzero(np.diff(slices)) + 1).tolist()]
    cuts = []
    for lo, hi in zip(starts, starts[1:] + [n]):
        cuts += [lo, *range(lo + QUAD_ROWS, hi - 1, QUAD_ROWS)]
    cuts.append(n)
    blocks, i = [], 0
    while i < len(cuts) - 1:
        j = i + 1
        while j + 1 < len(cuts) and cuts[j + 1] - cuts[i] <= QUAD_ROWS:
            j += 1
        segs = [slice(lo - cuts[i], hi - cuts[i])
                for lo, hi in zip(cuts[i:j], cuts[i + 1:j + 1])]
        blocks.append((slice(cuts[i], cuts[j]), lambda vals, segs=segs:
                       np.concatenate([vals[s] @ _GL_WEIGHTS for s in segs])))
        i = j
    return blocks


def _bvn_cdf_moderate(h, k, rho, gl_sum):
    # Phi2 = Phi(h)Phi(k) + (1/2pi) * int_0^asin(rho) exp((hk sin t - hs)/cos^2 t) dt
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = 0.5 * np.arcsin(rho)
    sn = np.sin(asr[:, None] * _GL_NODES[None, :])
    total = gl_sum(np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn)))
    return total * asr * _INV_2PI + std_normal_cdf(h) * std_normal_cdf(k)


def _bvn_cdf_strong(h, k, rho, gl_sum):
    # Change of variable x^2 = 1 - r^2 on the tail integral toward |rho| = 1;
    # the exp(-bs/2x^2) singular factor integrates in closed form against the
    # fourth-order Taylor expansion of the remaining smooth factor.
    sign = np.where(rho > 0, 1.0, -1.0)
    kk = k * sign
    hk = h * kk
    bs = (h - kk) ** 2
    b = np.sqrt(bs)
    a2 = (1.0 - rho) * (1.0 + rho)
    a = np.sqrt(a2)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0

    # closed-form part: exp(-hk/2) * int_0^a exp(-bs/2x^2)(1 + c x^2 + c d x^4) dx
    asr = -0.5 * (bs / a2 + hk)
    ea = np.where(asr > -100.0, np.exp(np.maximum(asr, -745.0)), 0.0)
    tail = a * ea * (1.0
                     + c * (a2 - bs) / 3.0
                     + c * d * (a2 * a2 / 5.0 - a2 * bs / 15.0 + bs * bs / 15.0))
    with np.errstate(over="ignore"):
        ehk = np.where(hk > -100.0, np.exp(np.minimum(-0.5 * hk, 700.0)), 0.0)
    tail = tail - (ehk * _SQRT_2PI * std_normal_cdf(-b / a) * b
                   * (1.0 - c * bs / 3.0 + c * d * bs * bs / 15.0))

    # Gauss-Legendre on the smooth residual over [0, a]
    xs = (0.5 * a[:, None] * _GL_NODES[None, :]) ** 2
    rs = np.sqrt(1.0 - xs)
    asr_q = -0.5 * (bs[:, None] / xs + hk[:, None])
    smooth = (np.exp(-hk[:, None] * xs / (2.0 * (1.0 + rs) ** 2)) / rs
              - (1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)))
    tail = tail + 0.5 * a * gl_sum(
        np.where(asr_q > -100.0, np.exp(np.maximum(asr_q, -745.0)) * smooth,
                 0.0))

    # Phi2(h, k; rho) = Phi(min(h, k)) - tail/2pi            for rho > 0
    # Phi2(h, k; rho) = Phi(h) - Phi2(h, -k; -rho)            for rho < 0
    pos = std_normal_cdf(np.minimum(h, kk)) - tail * _INV_2PI
    return np.where(sign > 0, pos, std_normal_cdf(h) - pos)


def bvn_cdf(h, k, rho, *, _slices=None):
    """P(Z1 <= h, Z2 <= k) for standard bivariate normals with correlation rho.

    Accurate to roughly 5e-15 away from |rho| = 1; correlations within 1e-15
    of +-1 return the exact degenerate limit.  `_slices`, private to the
    batched recursion, gives each 1-D entry its nondecreasing batch slice.
    """
    h, k, rho = np.broadcast_arrays(np.asarray(h, dtype=float),
                                    np.asarray(k, dtype=float),
                                    np.asarray(rho, dtype=float))
    if (np.abs(rho) > 1.0).any():
        raise ValueError("correlation must lie in [-1, 1]")
    shape = h.shape
    h = h.ravel()
    k = k.ravel()
    rho = rho.ravel()
    out = np.empty(h.shape)

    deg_pos = rho >= 1.0 - DEGENERATE_RHO_TOL
    deg_neg = rho <= -(1.0 - DEGENERATE_RHO_TOL)
    strong = (np.abs(rho) > STRONG_RHO) & ~deg_pos & ~deg_neg
    moderate = ~(deg_pos | deg_neg | strong)

    if deg_pos.any():
        out[deg_pos] = std_normal_cdf(np.minimum(h[deg_pos], k[deg_pos]))
    if deg_neg.any():
        lower = std_normal_cdf(h[deg_neg]) + std_normal_cdf(k[deg_neg]) - 1.0
        out[deg_neg] = np.maximum(0.0, lower)

    # each branch's blocks gather their rows through the branch's indices and
    # do all of its work on them, so no branch copies a whole-array operand
    for branch, mask in ((_bvn_cdf_strong, strong),
                         (_bvn_cdf_moderate, moderate)):
        if mask.any():
            at = mask.nonzero()[0]
            for rows, gl_sum in _gl_sum(
                    at.size, None if _slices is None else _slices[at]):
                i = at[rows]
                out[i] = branch(h[i], k[i], rho[i], gl_sum)

    return np.clip(out, 0.0, 1.0, out=out).reshape(shape)
