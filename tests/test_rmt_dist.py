"""Tests for the limiting-law engine (Tracy-Widom and small-GUE)."""

import math
from importlib import resources

import numpy as np
import pytest

from eigendetect.errors import DomainError, NumericError
from eigendetect.tracy_widom import (
    airy_ai,
    airy_ai_prime,
    build_tw2_table,
    default_table,
    dump_table_csv,
    gue_cdf,
    gue_pdf,
    invert_cdf,
    tw2_cdf,
    tw2_pdf,
    tw2_quantile,
)


# --- independent oracles ----------------------------------------------------

def airy_series(u, terms=80):
    """Maclaurin evaluation of Ai(u); accurate in float64 for |u| <= 2."""
    c1 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
    c2 = 1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
    u3 = u ** 3
    f = a = 1.0
    g = b = u
    for k in range(1, terms):
        a *= u3 / ((3 * k) * (3 * k - 1))
        b *= u3 / ((3 * k + 1) * (3 * k))
        f += a
        g += b
    return c1 * f - c2 * g


def airy_asymptotic(u, terms=14):
    """Large-argument expansion of Ai(u), u >> 1."""
    zeta = (2.0 / 3.0) * u ** 1.5
    total, uk = 1.0, 1.0
    for k in range(1, terms):
        uk *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k)
        total += (-1) ** k * uk / zeta ** k
    return math.exp(-zeta) / (2.0 * math.sqrt(math.pi) * u ** 0.25) * total


# Frozen from airy_series (80 terms, float64)
AI_AT_0 = 0.3550280538878172
AI_AT_1 = 0.13529241631288141


def test_airy_matches_series_oracle():
    assert airy_ai(0.0) == pytest.approx(AI_AT_0, rel=1e-10)
    assert airy_ai(1.0) == pytest.approx(AI_AT_1, rel=1e-10)
    for u in (0.0, 0.3, 1.0, 1.7, 2.0):
        assert airy_ai(u) == pytest.approx(airy_series(u), rel=1e-10)


def test_airy_matches_asymptotic_oracle_far_right():
    for u in (12.0, 15.0, 30.0, 80.0):
        ref = airy_asymptotic(u)
        assert abs(airy_ai(u) - ref) < 1e-12
        assert airy_ai(u) == pytest.approx(ref, rel=1e-8)


def test_airy_monotone_decay_positive_axis():
    us = np.linspace(0.0, 40.0, 200)
    vals = np.array([airy_ai(u) for u in us])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    assert airy_ai(150.0) < 1e-100


def test_airy_domain_errors():
    with pytest.raises(DomainError):
        airy_ai(float("nan"))
    with pytest.raises(DomainError):
        airy_ai(float("inf"))
    with pytest.raises(DomainError):
        airy_ai(201.0)
    with pytest.raises(DomainError):
        airy_ai_prime(-500.0)


# --- Tracy-Widom table ------------------------------------------------------

def test_table_structural_invariants():
    tab = default_table()
    assert tab.grid[0] <= -10.0 and tab.grid[-1] >= 6.0
    assert np.all(np.diff(tab.cdf_values) > 0.0)
    assert tab.cdf_values[0] >= 0.0 and tab.cdf_values[-1] <= 1.0
    assert np.all(tab.pdf_values >= 0.0)
    mass = np.trapezoid(tab.pdf_values, tab.grid)
    assert abs(mass - 1.0) <= 1e-4
    assert tab.cdf_values[0] <= 1e-8
    assert tab.cdf_values[-1] >= 1.0 - 1e-8


def test_committed_table_matches_fresh_solve():
    # the packaged rows log F, int q^2, q^2 are bit-identical to build_tw2_table()
    # where they were made.  A 1-ulp change of the initial value Ai(8) or Ai'(8) --
    # what another libm or scipy build can do -- moves them by up to 1.0e-11, 7.0e-11
    # and 7.2e-10 relative on x >= -6, and by up to 2.9e-7, 1.2e-6 and 2.2e-3 left of
    # it, where the backward solve has left the Hastings-McLeod solution; the bounds
    # are 10x that
    fresh, committed = build_tw2_table().columns, default_table().columns
    assert fresh.shape == committed.shape == (3, 1601)
    gap = np.abs(fresh - committed) / np.abs(committed)
    right = default_table().grid >= -6.0
    assert np.all(gap[:, right].max(axis=1) <= [1e-10, 7e-10, 7.2e-9])
    assert np.all(gap.max(axis=1) <= [2.9e-6, 1.2e-5, 2.2e-2])


def test_table_file_is_a_package_resource(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with resources.files("eigendetect").joinpath("tw2_table.npy").open("rb") as fh:
        data = np.load(fh)
    assert data.dtype == np.float64 and np.array_equal(data, default_table().columns)


def test_hermite_edges_nan_and_nodes():
    tab = default_table()
    assert tw2_cdf(-10.0 - 1e-9) == 0.0 and tw2_cdf(6.0 + 1e-9) == 1.0
    assert tw2_pdf(-10.0 - 1e-9) == 0.0 and tw2_pdf(6.0 + 1e-9) == 0.0
    x = np.array([-np.inf, np.nan, np.inf, -1e300, 1e300])
    assert np.array_equal(tw2_cdf(x), [0.0, np.nan, 1.0, 0.0, 1.0], equal_nan=True)
    assert np.array_equal(tw2_pdf(x), [0.0, 0.0, 0.0, 0.0, 0.0])
    assert isinstance(tw2_cdf(0.0), float) and tw2_cdf(np.zeros((2, 3))).shape == (2, 3)
    # the interpolant passes through every node, the grid ends included
    assert np.allclose(tw2_cdf(tab.grid), tab.cdf_values, rtol=1e-13, atol=0.0)
    assert np.allclose(tw2_pdf(tab.grid), tab.pdf_values, rtol=1e-13, atol=0.0)


def test_hermite_matches_spline_oracle():
    # a not-a-knot cubic spline through the same log values agrees to 7.0e-13 (log F)
    # and 8.8e-11 (log f) on [-8, 6]; with the interval index off by one, log F
    # misses by 4.7e-9
    from scipy.interpolate import CubicSpline

    tab = default_table()
    log_cdf, int_q2, _ = tab.columns
    xs = np.linspace(-8.0, 6.0, 14001)
    assert np.max(np.abs(np.log(tw2_cdf(xs)) - CubicSpline(tab.grid, log_cdf)(xs))) <= 1e-11
    log_pdf = CubicSpline(tab.grid, log_cdf + np.log(int_q2))(xs)
    assert np.max(np.abs(np.log(tw2_pdf(xs)) - log_pdf)) <= 1e-9


def test_cdf_monotone_on_dense_grid():
    xs = np.linspace(-10.0, 6.0, 4001)
    c = tw2_cdf(xs)
    assert np.all(np.diff(c) >= 0.0)
    assert tw2_cdf(-10.0) <= 1e-6
    assert tw2_cdf(-25.0) == 0.0 and tw2_cdf(9.0) == 1.0


def test_pdf_matches_cdf_finite_difference():
    xs = np.linspace(-9.5, 5.5, 3001)
    fd = (tw2_cdf(xs + 1e-4) - tw2_cdf(xs - 1e-4)) / 2e-4
    assert np.max(np.abs(tw2_pdf(xs) - fd)) <= 1e-5


def test_pdf_mode_location_and_fd_agreement():
    tab = default_table()
    i = int(np.argmax(tab.pdf_values))
    x_star = tab.grid[i]
    # order-2 law peaks near -1.87 (between median -1.80 and the bulk)
    assert -2.1 < x_star < -1.6
    fd = (tw2_cdf(x_star + 1e-4) - tw2_cdf(x_star - 1e-4)) / 2e-4
    assert abs(tw2_pdf(x_star) - fd) <= 1e-5


def test_quantile_roundtrip():
    for p in (1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6):
        x = tw2_quantile(p)
        assert abs(tw2_cdf(x) - p) <= 1e-9
    assert abs(tw2_cdf(tw2_quantile(0.5)) - 0.5) <= 1e-9


def test_invert_cdf_bisects_and_steps_over_a_jump():
    # uniform on [1, 3] mixed half and half with an atom at 2: F jumps from 0.25 to
    # 0.75 there, and the pdf is 0 off [1, 3], where Newton cannot step
    def cdf(x):
        return 0.5 * np.clip((x - 1.0) / 2.0, 0.0, 1.0) + 0.5 * (x >= 2.0)

    def pdf(x):
        return 0.25 * ((1.0 <= x) & (x <= 3.0))

    grid = np.array([0.0, 10.0])
    x, residual = invert_cdf(cdf, pdf, np.array([0.1, 0.6, 0.9]), grid, cdf(grid))
    assert x[0] == pytest.approx(1.4, abs=1e-10) and x[2] == pytest.approx(2.6, abs=1e-10)
    assert residual[0] <= 1e-11 and residual[2] <= 1e-11
    # 0.6 has no root: the better end of the collapsed bracket comes back
    assert x[1] == 2.0 and residual[1] == pytest.approx(0.15, abs=1e-15)


def test_quantile_domain_errors():
    with pytest.raises(DomainError):
        tw2_quantile(0.0)
    with pytest.raises(DomainError):
        tw2_quantile(1.0)
    with pytest.raises(DomainError):
        tw2_quantile(-0.2)
    with pytest.raises(NumericError):
        tw2_quantile(1e-300)  # below the tabulated left tail


def test_table_moments_against_frozen_mc_oracle():
    # Frozen ranges from a 1e4-trial largest-eigenvalue Monte Carlo of the
    # 400x400 Gaussian Hermitian ensemble (see the acceptance suite for the
    # live run): mean -1.766 +- 0.027, variance 0.823 +- 0.036.
    tab = default_table()
    assert abs(tab.mean() - (-1.7711)) < 5e-4
    assert abs(tab.variance() - 0.8132) < 5e-4


def test_csv_dump_format(tmp_path):
    path = tmp_path / "tw.csv"
    dump_table_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,cdf,pdf"
    assert len(lines) == 1 + default_table().grid.size
    first = lines[1].split(",")
    assert len(first) == 3
    assert float(first[0]) == -10.0


# --- finite-GUE laws --------------------------------------------------------

def test_gue_order1_is_standard_normal():
    assert gue_cdf(1, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert gue_pdf(1, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    xs = np.linspace(-4, 4, 101)
    from scipy.special import ndtr

    assert np.allclose(gue_cdf(1, xs), ndtr(xs), atol=1e-15)


def test_gue_order2_closed_form_values():
    assert gue_cdf(2, 0.0) == pytest.approx(0.25 - 1.0 / (2 * math.pi), rel=1e-12)
    assert gue_pdf(2, 0.0) == pytest.approx(0.5 / math.sqrt(2 * math.pi), rel=1e-12)


def test_gue_order2_cdf_pdf_consistency():
    xs = np.linspace(-5.0, 5.0, 1001)
    fd = (gue_cdf(2, xs + 1e-4) - gue_cdf(2, xs - 1e-4)) / 2e-4
    assert np.max(np.abs(fd - gue_pdf(2, xs))) <= 1e-6
    assert np.all(np.diff(gue_cdf(2, xs)) > 0.0)


def test_gue_order2_matches_2x2_monte_carlo():
    # closed-form largest eigenvalue of [[a, z], [conj(z), b]]
    rs = np.random.default_rng(1234)
    n = 100_000
    a = rs.standard_normal(n)
    b = rs.standard_normal(n)
    x = rs.standard_normal(n) * math.sqrt(0.5)
    y = rs.standard_normal(n) * math.sqrt(0.5)
    lmax = (a + b) / 2 + np.sqrt((a - b) ** 2 / 4 + x ** 2 + y ** 2)
    xs = np.sort(lmax)
    emp = np.arange(1, n + 1) / n
    assert np.max(np.abs(emp - gue_cdf(2, xs))) <= 0.02


def test_gue_unsupported_order():
    with pytest.raises(DomainError):
        gue_cdf(3, 0.0)
    with pytest.raises(DomainError):
        gue_pdf(0, 0.0)


def test_every_exported_name_resolves():
    from eigendetect import cli, performance, rng, simulate, spiked, tracy_widom

    for module in (cli, performance, rng, simulate, spiked, tracy_widom):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    namespace = {}
    exec("from eigendetect import *", namespace)
    assert "spike_spectrum" in namespace and "tw2_cdf" in namespace
