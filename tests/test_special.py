import numpy as np
import pytest

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
