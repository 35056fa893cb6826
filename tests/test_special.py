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


def _block_case():
    # slices of 1, 2 and 5 rows, one of QUAD_ROWS + 1 and one longer than
    # 2 QUAD_ROWS, in an order that starts slices off the 4-row grid.  At
    # 12,302 rows one gemv has the same bits under 1 and 2 BLAS threads, so
    # one gemv per slice is a reference that does not depend on them.
    q = special.QUAD_ROWS
    lens = [q + 1, 1, 2 * q + 5, 2, 5]
    return np.repeat(np.arange(len(lens)), lens), (4, 8, 12, q)


def test_gl_sum_blocks_keep_the_bits_of_one_gemv_per_slice(monkeypatch):
    # gemv rounds the last n mod 4 rows of a call by their place, and a 1-row
    # product goes to dot, so the blocks may cut a slice only at multiples of
    # 4 from its start and never one row before its end
    slices, sizes = _block_case()
    vals = np.exp(np.random.default_rng(2).normal(size=(slices.size, 20)))
    cuts = np.flatnonzero(np.diff(slices)) + 1
    want = (np.concatenate([v @ special._GL_WEIGHTS
                            for v in np.split(vals, cuts)]),
            vals @ special._GL_WEIGHTS)
    for rows in sizes:
        monkeypatch.setattr(special, "QUAD_ROWS", rows)
        got = tuple(np.concatenate([gl_sum(vals[block]) for block, gl_sum
                                    in special._gl_sum(slices.size, s)])
                    for s in (slices, None))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_gemv_rounds_by_place_only_in_tails_and_one_row_products():
    # the rule that the quadrature blocks and kernels' mirrored square Grams
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


@pytest.mark.parametrize("strong", [False, True], ids=["moderate", "strong"])
def test_bvn_cdf_blocks_keep_the_bits_of_one_gemv_per_slice(monkeypatch,
                                                             strong):
    slices, sizes = _block_case()
    rng = np.random.default_rng(3)
    h, k = rng.normal(scale=2.0, size=(2, slices.size))
    if strong:
        rho = rng.uniform(0.93, 0.999, slices.size) \
            * rng.choice([-1.0, 1.0], slices.size)
    else:
        rho = rng.uniform(-0.92, 0.92, slices.size)

    def evaluate(rows):
        monkeypatch.setattr(special, "QUAD_ROWS", rows)
        return bvn_cdf(h, k, rho), bvn_cdf(h, k, rho, _slices=slices)

    want = evaluate(2 ** 20)
    for rows in sizes:
        for got, w in zip(evaluate(rows), want):
            assert np.array_equal(got, w)


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
