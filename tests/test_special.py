import tracemalloc

import numpy as np
import pytest

from mlpgp import special
from mlpgp.special import (DegenerateCorrelationError, bvn_cdf, bvn_pdf,
                           std_normal_cdf, std_normal_pdf)

from _oracles import bvn_cdf_oracle


def test_std_normal_pdf_cdf():
    assert abs(std_normal_pdf(0.0) - 1.0 / np.sqrt(2 * np.pi)) < 1e-16
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.96) - 0.9750021048517795) < 1e-12
    z = np.linspace(-8, 8, 200)
    cdf = std_normal_cdf(z)
    assert np.all(np.diff(cdf) > 0)
    # pdf integrates to one (trapezoid over a wide window)
    assert abs(np.trapezoid(std_normal_pdf(z), z) - 1.0) < 1e-10


def test_bvn_pdf_closed_forms():
    assert abs(bvn_pdf(0, 0, 0) - 1.0 / (2 * np.pi)) < 1e-16
    for rho in (-0.8, -0.2, 0.5, 0.9):
        want = 1.0 / (2 * np.pi * np.sqrt(1 - rho * rho))
        assert abs(bvn_pdf(0, 0, rho) - want) < 1e-14
    assert abs(bvn_pdf(1, -1, 0.3) - 0.039983310267730256) < 1e-15


def test_bvn_pdf_degenerate_raises():
    with pytest.raises(DegenerateCorrelationError):
        bvn_pdf(0.0, 0.0, 1.0)
    with pytest.raises(DegenerateCorrelationError):
        bvn_pdf(0.5, -0.5, -1.0)


def test_bvn_cdf_closed_forms():
    assert abs(bvn_cdf(0, 0, 0) - 0.25) < 1e-15
    want = 0.25 + np.arcsin(0.5) / (2 * np.pi)
    assert abs(bvn_cdf(0, 0, 0.5) - want) < 1e-14
    # independence product rule
    want = std_normal_cdf(1.2) * std_normal_cdf(-0.3)
    assert abs(bvn_cdf(1.2, -0.3, 0.0) - want) < 1e-15


def test_bvn_cdf_degenerate_limits():
    for h, k in [(0.7, -0.2), (-1.5, 1.1), (0.0, 0.0)]:
        assert bvn_cdf(h, k, 1.0) == std_normal_cdf(min(h, k))
        want = max(0.0, std_normal_cdf(h) + std_normal_cdf(k) - 1.0)
        assert bvn_cdf(h, k, -1.0) == want
        # snapping region just inside +-1
        assert abs(bvn_cdf(h, k, 1 - 1e-16) - bvn_cdf(h, k, 1.0)) < 1e-14


def test_bvn_cdf_matches_quadrature_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        h, k = rng.normal(0.0, 1.5, 2)
        rho = rng.uniform(-0.999, 0.999)
        assert abs(bvn_cdf(h, k, rho) - bvn_cdf_oracle(h, k, rho)) < 1e-10


def test_bvn_cdf_reflection_identity():
    # bvn(h,k,rho) + bvn(-h,k,-rho) = Phi(k)
    rng = np.random.default_rng(7)
    h = rng.normal(0, 1.5, 50)
    k = rng.normal(0, 1.5, 50)
    rho = rng.uniform(-0.999, 0.999, 50)
    lhs = bvn_cdf(h, k, rho) + bvn_cdf(-h, k, -rho)
    assert np.max(np.abs(lhs - std_normal_cdf(k))) < 1e-12


def test_bvn_cdf_symmetry_and_monotonicity():
    rng = np.random.default_rng(3)
    h = rng.normal(0, 1, 40)
    k = rng.normal(0, 1, 40)
    rho = rng.uniform(-0.99, 0.99, 40)
    assert np.max(np.abs(bvn_cdf(h, k, rho) - bvn_cdf(k, h, rho))) < 1e-15
    grid = np.linspace(-1, 1, 501)
    assert np.all(np.diff(bvn_cdf(0.4, -0.7, grid)) >= -1e-15)
    hs = np.linspace(-4, 4, 101)
    assert np.all(np.diff(bvn_cdf(hs, 0.3, 0.6)) >= 0)
    assert np.all(np.diff(bvn_cdf(-0.2, hs, -0.6)) >= 0)


def test_bvn_cdf_strong_correlation_accuracy():
    for rho in (0.93, 0.99, 0.999, -0.93, -0.999):
        for h, k in [(0.3, 0.5), (-1.2, 0.8), (2.0, -2.0)]:
            want = bvn_cdf_oracle(h, k, rho)
            assert abs(bvn_cdf(h, k, rho) - want) < 5e-14


def test_bvn_cdf_vectorized():
    h = np.array([0.0, 1.2, -0.5])
    out = bvn_cdf(h, 0.3, np.array([0.0, 0.95, -1.0]))
    assert out.shape == (3,)
    assert abs(out[0] - std_normal_cdf(0.0) * std_normal_cdf(0.3)) < 1e-15


def _block_case(rng):
    # a (5, 64, 130) mask whose slices hold 1, 2 and 5 entries, one
    # QUAD_ROWS + 1 and one more than 2 QUAD_ROWS, scattered in C order.  At
    # 12,302 rows one gemv has the same bits under 1 and 2 BLAS threads, so
    # one gemv per slice is a reference that does not depend on them.
    q = special.QUAD_ROWS
    lens = [q + 1, 1, 2 * q + 5, 2, 5]
    mask = np.zeros((len(lens), 64, 130), bool)
    for part, n in zip(mask, lens):
        part.flat[rng.choice(part.size, n, replace=False)] = True
    return mask, (4, 8, 12, q)


def test_gl_sum_blocks_keep_the_bits_of_one_gemv_per_slice(monkeypatch):
    # gemv rounds the last n mod 4 rows of a call by their place, and a 1-row
    # product goes to dot, so at every block size each entry's quadrature
    # sum must have the bits of one gemv over its slice's rows in C order, or
    # over all of them for a 2-D mask.  Each branch reads row h's values
    rng = np.random.default_rng(2)
    mask, sizes = _block_case(rng)
    vals = rng.uniform(0.0, 0.05, (np.count_nonzero(mask), 20))
    ids = np.zeros(mask.shape)
    ids[mask] = np.arange(len(vals))
    want = np.zeros(mask.shape)
    for g, part in enumerate(mask):
        want[g][part] = vals[ids[g][part].astype(int)] @ special._GL_WEIGHTS
    whole = np.zeros(mask.shape)
    whole[mask] = vals @ special._GL_WEIGHTS

    def read(h, k, rho, gl_sum):
        return gl_sum(vals[h.astype(int)])

    for branch in ("_bvn_cdf_moderate", "_bvn_cdf_strong"):
        monkeypatch.setattr(special, branch, read)
    for rows in sizes:
        monkeypatch.setattr(special, "QUAD_ROWS", rows)
        for rho in (0.5, 0.95):
            assert np.array_equal(special._bvn_cdf_at(ids, 0.0, rho, mask),
                                  want)
            assert np.array_equal(
                special._bvn_cdf_at(ids.reshape(-1, 130), 0.0, rho,
                                    mask.reshape(-1, 130)),
                whole.reshape(-1, 130))


def test_gemv_rounds_by_place_only_in_tails_and_one_row_products():
    # the rule that the quadrature blocks and the mirrored square Grams
    # rest on, on the installed BLAS: a row of a full 4-row group has the
    # same gemv bits wherever it sits; the last n mod 4 rows of an n-row call
    # have the bits of the same rows behind 4 zero rows (n >= 2); and a
    # 1-row product goes to dot, whose bits that padded call need not have
    # (here about half of them differ), so a 1-row branch is evaluated alone
    rng = np.random.default_rng(8)
    w = special._GL_WEIGHTS
    for n in [*range(2, 40), 4093, 4094, 4095, 4096]:
        vals = np.exp(rng.normal(size=(n, 20)))
        want = vals @ w
        perm = rng.permutation(n)
        got = np.empty(n)
        got[perm] = vals[perm] @ w
        full = n - n % 4
        grouped = (np.arange(n) < full) & (np.argsort(perm) < full)
        assert np.array_equal(got[grouped], want[grouped])
        padded = np.concatenate((np.zeros((4, 20)), vals[full:])) @ w
        assert np.array_equal(padded[4:], want[full:])
    vals = np.exp(rng.normal(size=(500, 20)))
    assert np.array_equal([(v[None] @ w)[0] for v in vals],
                          [v @ w for v in vals])
    # the stacked forms that bvn_cdf sums in: a (T, 1, 20) stack is T dots;
    # a (T, 4 + t, 20) stack gives each call's t-row tail behind its 4 zero
    # rows the bits of that call's tail; a (1, n, 20) stack is one gemv, so
    # rows of full groups behind up to 3 zero rows keep their bits
    assert np.array_equal((vals[:, None] @ w)[:, 0], [v @ w for v in vals])
    calls = [np.exp(rng.normal(size=(n, 20)))
             for n in rng.integers(2, 40, 900)]
    for t in (1, 2, 3):
        ends = [c[len(c) - t:] for c in calls if len(c) % 4 == t]
        stack = np.concatenate((np.zeros((len(ends), 4, 20)), ends), 1)
        assert np.array_equal((stack @ w)[:, 4:],
                              [(c @ w)[-t:] for c in calls if len(c) % 4 == t])
    for n in (4, 8, 36, 4096):
        vals = np.exp(rng.normal(size=(n, 20)))
        for pad in (1, 2, 3):
            stack = np.concatenate((np.zeros((pad, 20)), vals[pad:]))[None]
            assert np.array_equal((stack @ w)[0, pad:], (vals @ w)[pad:])


@pytest.mark.parametrize("strong", [False, True], ids=["moderate", "strong"])
def test_bvn_cdf_blocks_keep_the_bits_of_one_gemv_per_slice(monkeypatch,
                                                             strong):
    # each slice of a (G, N, M) mask has the bits of one bvn_cdf call over
    # its entries, and a 2-D mask those of one call over all of them, at
    # every block size
    rng = np.random.default_rng(3)
    mask, sizes = _block_case(rng)
    h, k = rng.normal(scale=2.0, size=(2, *mask.shape))
    if strong:
        rho = rng.uniform(0.93, 0.999, mask.shape) \
            * rng.choice([-1.0, 1.0], mask.shape)
    else:
        rho = rng.uniform(-0.92, 0.92, mask.shape)
    want = np.zeros(mask.shape)
    for g, part in enumerate(mask):
        want[g][part] = bvn_cdf(h[g][part], k[g][part], rho[g][part])
    whole = np.zeros(mask.shape)
    whole[mask] = bvn_cdf(h[mask], k[mask], rho[mask])
    flat = [v.reshape(-1, 130) for v in (h, k, rho, mask)]
    for rows in sizes:
        monkeypatch.setattr(special, "QUAD_ROWS", rows)
        assert np.array_equal(special._bvn_cdf_at(h, k, rho, mask), want)
        assert np.array_equal(special._bvn_cdf_at(*flat),
                              whole.reshape(-1, 130))
        assert np.array_equal(bvn_cdf(h[mask], k[mask], rho[mask]),
                              whole[mask])


def test_bvn_cdf_memory_stays_bounded():
    # the quadrature values are formed a block at a time, so the peak is a few
    # n-length arrays (1.6 MB each), not the (n, 20) arrays of 32 MB each
    rng = np.random.default_rng(0)
    h, k = rng.normal(scale=2.0, size=(2, 200_000))
    rho = rng.uniform(-0.999, 0.999, 200_000)
    tracemalloc.start()
    try:
        bvn_cdf(h, k, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
