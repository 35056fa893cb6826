"""Special functions: the Gaussian pdf/cdf and their bivariate counterparts.

All functions accept scalars or numpy arrays, broadcast elementwise and
return numpy values (a 0-d array or numpy scalar for scalar input).  The
bivariate CDF follows the Drezner-Wesolowsky/Genz algorithm: Gauss-Legendre
quadrature on the single-integral form, with the usual change of variable for
correlations beyond 0.925.

Its quadrature is summed by OpenBLAS gemv, which gives a row of a full 4-row
group the same bits wherever it sits, but rounds the last n mod 4 rows of an
n-row call by their place; numpy sends a 1-row product to dot, which rounds
differently again.  So of a call's n rows on one branch, `bvn_cdf` sums the
last n mod 4 behind 4 zero rows (a lone row alone) and the others by gemv in
blocks of about `QUAD_ROWS` rows padded to whole 4-row groups: each value
has the bits of one gemv over the branch's rows, whatever the block size.  A
block gathers its h, k and rho and forms all of its terms, so the arrays of
the call's size are its output, masks and indices.  The kernel recursion
takes Phi2 at the masked pairs of a stack of Grams from `_bvn_cdf_at`, with
the bits of one `bvn_cdf` call per Gram.  In a square Gram that mirrors
itself, a lower pair whose rho has its mirror's bits copies the mirror's
value, unless it is in a call's last n mod 4 rows or on the strong branch at
rho < 0.  (Owen's T, with no quadrature, would delete this layout.)
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


def _bvn_cdf_degenerate(h, k, rho, gl_sum):
    # the exact limits at rho = +-1
    return np.where(rho > 0, std_normal_cdf(np.minimum(h, k)), np.maximum(
        0.0, std_normal_cdf(h) + std_normal_cdf(k) - 1.0))


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


def _stacked_gl_sum(segs):
    # gl_sum of a block whose rows are those of segs in order: each seg is a
    # (calls, rows) index array and the zero rows put in front of each call,
    # and its (calls, zeros + rows, 20) stack is one product per call
    def gl_sum(vals):
        sums, lo = [], 0
        for idx, pad in segs:
            v = vals[lo:lo + idx.size].reshape(*idx.shape, -1)
            lo += idx.size
            if pad:
                v = np.concatenate((np.zeros((len(v), pad, v.shape[2])), v), 1)
            sums.append((v @ _GL_WEIGHTS)[:, pad:].ravel())
        return np.concatenate(sums)
    return gl_sum


def _copies(h, k, rho, mask):
    # the lower entries of mask that take their mirror's Phi2: in a square
    # slice where h and k are bitwise transposes of each other, a pair whose
    # mirror is masked and has its rho's bits, off the strong branch at
    # rho < 0, where Phi(h) - pos is not symmetric
    n = mask.shape[-1]
    if n != mask.shape[-2]:
        return np.zeros(mask.shape, bool)
    h, k, bits = (v.view(np.int64) for v in (h, k, rho))
    copy = mask & (np.arange(n)[:, None] > np.arange(n))
    copy &= (h == np.swapaxes(k, -1, -2)).all((-2, -1), keepdims=True)
    copy &= np.swapaxes(mask, -1, -2)
    copy &= rho >= -STRONG_RHO
    copy &= bits == np.swapaxes(bits, -1, -2)
    return copy


def _gather(v, i):
    # v's values at the index arrays i of the array it broadcasts to
    if v.size == 1:
        return np.full(i[0].shape, v.flat[0])
    return v[tuple(j if n > 1 else 0 for j, n in zip(i[len(i) - v.ndim:],
                                                     v.shape))]


def _bvn_cdf_at(h, k, rho, mask):
    # Phi2(h, k; rho) at the True entries of mask, and 0 elsewhere, with the
    # bits of one bvn_cdf call per leading slice (all but the last two axes)
    # over that slice's masked entries in C order; h, k and rho broadcast to
    # mask's shape, and |rho| <= 1 at its entries
    shape = np.shape(mask)
    h, k, rho, mask = np.atleast_2d(h, k, rho, mask)
    out = np.zeros(mask.shape)
    copy = _copies(h, k, rho, mask)
    degenerate = mask & ((rho >= 1.0 - DEGENERATE_RHO_TOL)
                         | (rho <= -(1.0 - DEGENERATE_RHO_TOL)))
    strong = mask & ((rho > STRONG_RHO) | (rho < -STRONG_RHO))
    strong ^= degenerate
    moderate = mask ^ strong
    moderate ^= degenerate

    # each branch of a slice is one call (see the module docstring): its
    # last n mod 4 rows (key n mod 4) or lone row (key 4) are stacked with
    # the other calls' of that key and never copied
    for branch, rows in ((_bvn_cdf_degenerate, degenerate),
                         (_bvn_cdf_strong, strong),
                         (_bvn_cdf_moderate, moderate)):
        at = np.flatnonzero(rows)
        if not at.size:
            continue
        counts = rows.sum((-2, -1)).ravel()
        ends = counts.cumsum()
        keys = np.where(counts == 1, 4, counts % 4)
        stacks = [(ends[keys == key, None] + np.arange(-(key % 4 or 1), 0),
                   4 if key < 4 else 0) for key in set(keys.tolist()) - {0}]
        pos = np.concatenate([at[:0]] + [p.ravel() for p, _ in stacks])
        copy.ravel()[at[pos]] = False
        keep = ~copy.ravel()[at]
        keep[pos] = False
        tails = [(at[p], pad) for p, pad in stacks]
        full = at[keep]
        del at, keep
        parts = [full[lo:lo + QUAD_ROWS]
                 for lo in range(0, full.size, QUAD_ROWS)]
        blocks, size = [[]], 0
        for seg in [(p[None], -p.size % 4) for p in parts] + tails:
            if blocks[-1] and size + seg[0].size > QUAD_ROWS:
                blocks.append([])
                size = 0
            blocks[-1].append(seg)
            size += seg[0].size
        for block in blocks:
            i = np.unravel_index(np.concatenate(
                [idx.ravel() for idx, _ in block]), mask.shape)
            out[i] = branch(_gather(h, i), _gather(k, i), _gather(rho, i),
                            _stacked_gl_sum(block))
    if copy.any():
        out[copy] = np.swapaxes(out, -1, -2)[copy]
    return np.clip(out, 0.0, 1.0, out=out).reshape(shape)


def bvn_cdf(h, k, rho):
    """P(Z1 <= h, Z2 <= k) for standard bivariate normals with correlation rho.

    Accurate to roughly 5e-15 away from |rho| = 1; correlations within 1e-15
    of +-1 return the exact degenerate limit.
    """
    h, k, rho = np.broadcast_arrays(np.asarray(h, dtype=float),
                                    np.asarray(k, dtype=float),
                                    np.asarray(rho, dtype=float))
    if (np.abs(rho) > 1.0).any():
        raise ValueError("correlation must lie in [-1, 1]")
    return _bvn_cdf_at(h.reshape(1, -1), k.reshape(1, -1), rho.reshape(1, -1),
                       np.ones((1, h.size), bool)).reshape(h.shape)
