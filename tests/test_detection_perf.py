"""Tests for the analytical performance engine."""

import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigendetect import performance, tracy_widom
from eigendetect.errors import DomainError, NotIdentifiableError
from eigendetect.performance import (
    RatioLaw,
    build_lut,
    centering_constants,
    mu_minus,
    mu_plus,
    mu_spike,
    nu_minus,
    nu_plus,
    nu_spike,
    pfa,
    pmd,
    roc,
    threshold_from_pfa,
    threshold_from_pmd,
    write_lut_csv,
    write_roc_csv,
)
from eigendetect.spiked import DetectorDesign, Scenario, spike_spectrum

D50 = DetectorDesign(50, 1000, 1)


# --- centering constants ------------------------------------------------------

def test_edge_constants_closed_forms():
    assert mu_plus(0.05) == pytest.approx(1.49721, abs=1e-5)
    assert mu_minus(0.05) == pytest.approx(0.602786, abs=1e-6)
    assert mu_spike(1.5, 0.05) == pytest.approx(1.65, rel=1e-12)
    assert nu_spike(1.5, 0.05) == pytest.approx(1.5 * math.sqrt(0.8), rel=1e-12)
    for c in (0.01, 0.1, 0.5, 0.9):
        assert nu_minus(c) < 0.0
        assert nu_plus(c) > 0.0


def test_h0_law_population():
    law = centering_constants(D50, "H0")
    assert law.hypothesis == "H0" and law.t1 is None
    assert law.num_center == mu_plus(0.05)
    assert law.num_sigma == nu_plus(0.05) * 1000 ** (-2.0 / 3.0)
    assert law.den_center == mu_minus(0.05)
    assert law.den_sigma == abs(nu_minus(0.05)) * 1000 ** (-2.0 / 3.0)


def test_h1_law_population_uses_reduced_denominator_ratio():
    law = centering_constants(D50, "H1", t1=1.5)
    assert law.hypothesis == "H1" and law.t1 == 1.5
    assert law.num_center == mu_spike(1.5, 0.05)
    assert law.num_sigma == nu_spike(1.5, 0.05) * 1000 ** (-0.5)
    assert law.den_center == mu_minus(0.049)
    assert law.den_sigma == abs(nu_minus(0.049)) * 1000 ** (-2.0 / 3.0)


def test_ratio_law_is_design_and_t1():
    g = np.linspace(1.0, 4.0, 301)
    for t1, hypothesis in ((None, "H0"), (2.0, "H1")):
        law, cached = RatioLaw(D50, t1), centering_constants(D50, hypothesis, t1=t1)
        assert law == cached
        assert law.cdf(g).tobytes() == cached.cdf(g).tobytes()
        assert law.pdf(g).tobytes() == cached.pdf(g).tobytes()
    assert centering_constants(D50, "H1", t1=2.0) is performance._h1_law(D50, 2.0)
    # the benchmark clears these caches and reads their hit counts by name
    assert all(hasattr(f, "cache_info") for f in (performance._h0_law, performance._h1_law))


def test_h1_law_refuses_subcritical_spike():
    crit = D50.critical_t1
    with pytest.raises(NotIdentifiableError):
        centering_constants(D50, "H1", t1=crit)  # exactly at the transition
    with pytest.raises(NotIdentifiableError):
        centering_constants(D50, "H1", t1=1.1)
    with pytest.raises(DomainError):
        centering_constants(D50, "H1")  # t1 missing
    with pytest.raises(DomainError):
        centering_constants(D50, "H2", t1=2.0)
    # above-transition spikes separate strictly
    assert mu_spike(1.5, 0.05) > mu_plus(0.05)


# --- probabilities -------------------------------------------------------------

def test_pfa_boundaries():
    assert pfa(1.0, D50) == 1.0
    assert pfa(50.0, D50) <= 1e-9  # limited by the numerator window's Tracy-Widom edge
    with pytest.raises(DomainError):
        pfa(0.5, D50)


def test_pmd_boundaries():
    assert pmd(1.0, D50, 1.5) == 0.0
    assert pmd(50.0, D50, 1.5) >= 1.0 - 1e-9
    with pytest.raises(DomainError):
        pmd(0.5, D50, 1.5)
    with pytest.raises(NotIdentifiableError):
        pmd(2.0, D50, 1.0)


def test_error_probabilities_monotone_on_grid():
    gammas = np.linspace(1.0, 10.0, 100)
    pf = np.array([pfa(g, D50) for g in gammas])
    pm = np.array([pmd(g, D50, 1.5) for g in gammas])
    assert np.all(np.diff(pf) <= 1e-12)
    assert np.all(np.diff(pm) >= -1e-12)
    assert pf[0] == 1.0 and pm[0] == 0.0


def test_component_densities_normalized_inside_quadrature():
    d29 = DetectorDesign(2, 9)
    laws = (centering_constants(D50, "H0"), centering_constants(D50, "H1", t1=2.0),
            centering_constants(d29, "H0"))
    for law in laws:
        # the numerator rule's weights w * f_num(y) carry the density mass
        assert abs(float(np.sum(law._wy)) - 1.0) <= 1e-6
        assert law._y[0] == 0.0 and np.all(np.diff(law._y) > 0.0)
    assert laws[0]._wy[0] < 1e-30 and laws[1]._wy[0] < 1e-15
    # at K=2 the Tracy-Widom numerator puts mass at lambda_max <= 0; the y = 0
    # node keeps it, since lambda_max <= 0 < lambda_min puts T below every gamma
    below = tracy_widom.tw2_cdf(-laws[2].num_center / laws[2].num_sigma)
    assert below > 1e-4 and laws[2]._wy[0] == pytest.approx(below, rel=1e-12)


def test_ratio_pdf_matches_cdf_derivative():
    law = centering_constants(D50, "H0")
    for g in (2.3, 2.45, 2.6):
        fd = (law.cdf(g + 1e-5) - law.cdf(g - 1e-5)) / 2e-5
        assert law.pdf(g) == pytest.approx(fd, rel=1e-5, abs=1e-9)
    assert law.pdf(0.9) == 0.0


@pytest.mark.parametrize("K, N", [(50, 1000), (2, 10)])
@pytest.mark.parametrize("t1", [None, 6.0])
def test_ratio_law_bits_do_not_depend_on_the_call_shape(K, N, t1):
    # one gamma at a time, or in blocks, gives the whole-array call's doubles (a matrix
    # product over the gamma x node grid rounded them by the call's row count)
    law = RatioLaw(DetectorDesign(K, N, 1), t1)
    g = np.linspace(1.0, 3.0 * law.center_ratio(), 3001)
    for f in (law.cdf, law.pdf):
        whole = f(g)
        assert np.array_equal([f(x) for x in g], whole)
        for b in (2, 3, 5, 7, 33):
            assert np.array_equal(np.concatenate([f(g[i : i + b]) for i in range(0, g.size, b)]),
                                  whole)


def test_sigma_v2_never_enters_the_laws():
    # analytical laws carry no noise-variance parameter; under a signal the
    # only entry point is t1, unchanged by a joint power rescale
    rs = np.random.default_rng(6)
    H = (rs.standard_normal((10, 2)) + 1j * rs.standard_normal((10, 2))) / np.sqrt(2)
    base = Scenario(H, [1.0, 0.5], 1.0)
    scaled = Scenario(H, [10.0, 5.0], 10.0)
    d = DetectorDesign(10, 200, 2)
    t1a = spike_spectrum(base, d).t1
    t1b = spike_spectrum(scaled, d).t1
    assert abs(t1a - t1b) <= 1e-12 * t1a
    assert pmd(1.8, d, t1a) == pmd(1.8, d, t1b)


def test_center_separation_for_identifiable_spikes():
    # the signal-present center ratio exceeds the noise-only one once the
    # spike clears the transition by more than the crossover distance
    # sqrt(mu_plus * (mu_minus(c')/mu_minus(c) - 1) * sqrt(c)) that the
    # reduced-bulk denominator shift buys; immediately above the transition
    # the inequality genuinely reverses (mu_s is quadratically flat there)
    for K, N, P in ((50, 1000, 1), (20, 400, 1), (64, 800, 4)):
        d = DetectorDesign(K, N, P)
        h0 = mu_plus(d.c) / mu_minus(d.c)
        shift = mu_minus(d.c_prime) / mu_minus(d.c) - 1.0
        cross = d.critical_t1 + math.sqrt(mu_plus(d.c) * shift * math.sqrt(d.c))
        for t1 in (2.0 * cross - d.critical_t1, 1.5 * cross, 3.0 * cross):
            h1 = mu_spike(t1, d.c) / mu_minus(d.c_prime)
            assert h1 > h0
        barely = d.critical_t1 * (1.0 + 1e-5)
        assert mu_spike(barely, d.c) / mu_minus(d.c_prime) < h0


# --- threshold inversion --------------------------------------------------------

def test_threshold_roundtrip_pfa():
    for p in (0.1, 0.01, 0.001):
        g = threshold_from_pfa(p, D50)
        assert g > 1.0
        assert abs(pfa(g, D50) - p) <= 1e-6
    assert threshold_from_pfa(0.001, D50) > threshold_from_pfa(0.01, D50) > threshold_from_pfa(0.1, D50)


def test_threshold_roundtrip_pmd():
    for t1 in (1.5, 2.0, 5.0):
        for p in (0.1, 0.01, 0.001):
            g = threshold_from_pmd(p, D50, t1)
            assert abs(pmd(g, D50, t1) - p) <= 1e-6


def test_threshold_pmd_median_near_center_ratio():
    law = centering_constants(D50, "H1", t1=2.0)
    g = threshold_from_pmd(0.5, D50, 2.0)
    assert g == pytest.approx(law.center_ratio(), rel=0.05)


def test_threshold_pmd_grows_with_spike():
    gs = [threshold_from_pmd(0.1, D50, t1) for t1 in (1.5, 2.0, 3.0, 5.0, 8.0)]
    assert np.all(np.diff(gs) > 0.0)


def test_threshold_rejects_bad_targets():
    with pytest.raises(DomainError):
        threshold_from_pfa(0.0, D50)
    with pytest.raises(DomainError):
        threshold_from_pfa(1.5, D50)
    with pytest.raises(DomainError):
        threshold_from_pmd(-0.1, D50, 2.0)


@pytest.mark.parametrize("N", [100, 1000])
def test_threshold_range_sweeps_aspect_ratio(N):
    # every (c, P_fa) up to c = 0.99 either inverts to the 1e-6 residual or raises
    # a DomainError naming a law mass out of reach above P_fa (the lambda_min <= 0
    # mass), every case up to c = 0.85 inverts, and no c fails numerically
    for c in np.r_[np.linspace(0.05, 0.95, 19), 0.92, 0.97, 0.99]:
        d = DetectorDesign(max(2, round(c * N)), N)
        for p in (0.1, 1e-2, 1e-4, 1e-6):
            try:
                g = threshold_from_pfa(p, d)
            except DomainError as exc:
                lost = re.search(r"all but (\S+) of the law's mass", str(exc))
                assert d.c > 0.85 and lost and float(lost.group(1)) > p
                continue
            assert g > 1.0 and abs(pfa(g, d) - p) <= 1e-6


def test_threshold_beyond_truncated_mass_raises():
    law = centering_constants(D50, "H0")
    lost = 1.0 - law.cdf(1e6)
    assert 1e-12 < lost < 1e-6
    with pytest.raises(DomainError, match=f"all but {lost:.3g} of the law's mass"):
        threshold_from_pfa(lost / 2, D50)
    assert threshold_from_pfa(2 * lost, D50) > 1.0
    # at high c the law puts mass at lambda_min <= 0, where T has no finite value
    for K, N, p in ((990, 1000, 1e-6), (99, 100, 1e-4)):
        with pytest.raises(DomainError, match="of the law's mass"):
            threshold_from_pfa(p, DetectorDesign(K, N))


def test_target_inside_the_t_le_1_jump_raises():
    # the limiting law puts mass at T <= 1, which cdf folds into a jump at 1:
    # 0.035 for H0 and 2.1e-3 for H1 (t1 = 6) at (2, 10); no threshold reaches a
    # CDF level inside it, so the error names that mass
    d = DetectorDesign(2, 10)
    for target in (1e-4, 1e-7):
        with pytest.raises(DomainError, match="puts 0.0021 of its mass at T <= 1"):
            threshold_from_pmd(target, d, 6.0)
    with pytest.raises(DomainError, match="puts 0.035 of its mass at T <= 1"):
        threshold_from_pfa(0.97, d)
    g = threshold_from_pfa(0.96, d)  # just above the jump still inverts
    assert g > 1.0 and abs(pfa(g, d) - 0.96) <= 1e-6
    g = threshold_from_pmd(3e-3, d, 6.0)
    assert g > 1.0 and abs(pmd(g, d, 6.0) - 3e-3) <= 1e-6
    table = build_lut([2], [10], [0.01, 0.97])
    assert isinstance(table[1].error, DomainError) and table[0].error is None


def test_threshold_takes_at_most_8_cdf_calls(monkeypatch):
    calls = []
    cdf = RatioLaw.cdf
    monkeypatch.setattr(RatioLaw, "cdf", lambda law, g: calls.append(1) or cdf(law, g))
    for K, N in ((20, 1000), (50, 1000), (100, 1000), (50, 500)):
        for p in (0.1, 1e-2, 1e-4, 1e-6):
            calls.clear()
            g = threshold_from_pfa(p, DetectorDesign(K, N))
            assert len(calls) <= 8, (K, N, p, len(calls))
            assert abs(pfa(g, DetectorDesign(K, N)) - p) <= 1e-10 * p + 4e-15


def test_no_scipy_root_finder_left():
    for module in (performance, tracy_widom):
        source = inspect.getsource(module)
        assert "scipy.optimize" not in source and "brentq" not in source


def test_h0_path_imports_no_scipy(tmp_path):
    # neither hypothesis' analytic path loads scipy: the signal law enters as weights;
    # nor does tw-table, which writes the packaged table instead of solving Painleve II
    code = (
        "import sys, eigendetect, eigendetect.cli\n"
        "from eigendetect import DetectorDesign, threshold_from_pfa\n"
        "from eigendetect.performance import pmd, roc, threshold_from_pmd\n"
        "d = DetectorDesign(50, 1000)\n"
        "g = threshold_from_pfa(0.01, d)\n"
        "pmd(g, d, 1.5), roc(d, 1.5, [0.01, 0.1]), threshold_from_pmd(0.1, d, 1.5)\n"
        "assert eigendetect.cli.main(['tw-table', '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(performance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "tw.csv"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert out.read_text().startswith("x,cdf,pdf\n")


def test_threshold_independent_of_everything_but_geometry():
    assert threshold_from_pfa(0.01, D50) == threshold_from_pfa(0.01, DetectorDesign(50, 1000, 1))


# --- ROC and LUT -----------------------------------------------------------------

def test_roc_monotone_tradeoff():
    pts = roc(D50, 1.5, [0.01, 0.1, 0.5])
    assert pts[0][1] > pts[1][1] > pts[2][1]
    for bad in ([0.0, 0.1], [0.01, 0.0], [0.01, math.nan]):
        with pytest.raises(DomainError):
            roc(D50, 1.5, bad)
    assert roc(D50, 1.5, []).shape == (0, 2)


@pytest.mark.parametrize("K, N", [(20, 1000), (50, 1000), (100, 1000), (50, 500)])
def test_roc_matches_pointwise_inversion(K, N):
    d = DetectorDesign(K, N)
    grid = np.geomspace(1e-4, 0.5, 40)
    for t1 in (1.5, 2.0, 6.0):
        pts = roc(d, t1, grid)
        assert pts.shape == (40, 2) and pts.dtype == np.float64
        assert np.array_equal(pts[:, 0], grid)
        for p, q in pts:
            assert abs(q - pmd(threshold_from_pfa(p, d), d, t1)) <= 1e-9


def test_roc_high_snr_regime_nearly_ideal():
    grid = np.geomspace(1e-3, 0.5, 10)
    pts = roc(D50, 11.0, grid)
    assert all(q <= 1e-3 for _, q in pts)


def test_lut_single_cell_matches_direct_call():
    table = build_lut([50], [1000], [0.01])
    assert len(table) == 1
    assert table[0].gamma == threshold_from_pfa(0.01, D50)


def test_lut_cell_beyond_truncated_mass_fails_alone():
    for snr in (None, 0.04):
        table = build_lut([50], [1000], [0.01, 1e-13], snr=snr)
        assert [r.pfa for r in table] == [1e-13, 0.01]
        assert isinstance(table[0].error, DomainError) and math.isnan(table[0].gamma)
        assert table[1].error is None
        assert table[1].gamma == threshold_from_pfa(0.01, D50)
        if snr is not None:
            assert table[1].pmd == pytest.approx(pmd(table[1].gamma, D50, 3.0), rel=1e-12)
    with pytest.raises(DomainError):
        build_lut([50], [1000], [0.01, 1.0])
    for ks, ns in ((["3", 4], [10]), ([np.array([3])], [10]), ([3], [[10]])):
        with pytest.raises(DomainError, match="grids must hold numbers"):
            build_lut(ks, ns, [0.01])


def test_lut_grid_ordering_and_monotonicity():
    table = build_lut([100, 20, 50], [1000], [0.1, 0.001, 0.01])
    rows = list(table)
    assert [r.K for r in rows] == [20, 20, 20, 50, 50, 50, 100, 100, 100]
    for i in (0, 3, 6):
        group = rows[i : i + 3]
        assert group[0].pfa < group[1].pfa < group[2].pfa
        assert group[0].gamma > group[1].gamma > group[2].gamma
        assert all(r.gamma > 1.0 for r in group)


def test_lut_with_snr_records_pmd():
    table = build_lut([50], [1000], [0.01], snr=0.04)
    row = table[0]
    assert row.snr == 0.04
    assert row.pmd == pytest.approx(pmd(row.gamma, D50, 3.0), rel=1e-12)


def test_lut_row_failure_marker():
    # the small-K design is not identifiable at this SNR; its row carries the error
    table = build_lut([50, 4], [1000], [0.01], snr=0.01)
    errors = [r for r in table if r.error is not None]
    good = [r for r in table if r.error is None]
    assert len(errors) == 1 and len(good) == 1
    assert math.isnan(errors[0].gamma)
    # counts are integers: a non-integral K or N is an error row, not a truncated design
    table = build_lut([2.5, 3.7], [10.5, 40.9], [0.01])
    assert len(table) == 4
    for row in table:
        assert isinstance(row.error, DomainError) and math.isnan(row.gamma)
    assert build_lut([np.int64(50)], [np.int32(1000)], [0.01])[0].gamma == \
        threshold_from_pfa(0.01, D50)


def test_lut_csv_format(tmp_path):
    table = build_lut([20, 50], [1000], [0.1, 0.01])
    path = tmp_path / "lut.csv"
    write_lut_csv(path, table)
    lines = path.read_text().splitlines()
    assert lines[0] == "K,N,pfa,gamma"
    assert len(lines) == 5
    k, n, p, g = lines[1].split(",")
    assert (int(k), int(n)) == (20, 1000)
    assert float(g) > 1.0


def test_roc_csv_format(tmp_path):
    pts = roc(D50, 2.0, [0.01, 0.1])
    path = tmp_path / "roc.csv"
    write_roc_csv(path, pts)
    lines = path.read_text().splitlines()
    assert lines[0] == "pfa,pmd"
    assert len(lines) == 3


# --- quadrature internals ---------------------------------------------------------

def test_quadrature_node_doubling_agreement():
    for law in (centering_constants(D50, "H0"), centering_constants(D50, "H1", t1=1.5),
                centering_constants(DetectorDesign(950, 1000), "H0")):
        g = np.array([law.center_ratio()])
        y2, wy2 = law._rule(256)
        assert law._y.size == 129  # 128 Gauss-Legendre nodes after the y = 0 node
        a = law.cdf(g[0])
        b = (tracy_widom.tw2_cdf(law._den_z(g, y2)) @ wy2).item()
        assert abs(a - b) < 1e-8
