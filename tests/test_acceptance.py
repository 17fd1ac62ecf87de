"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``; every test here carries the
``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the rest.  Monte
Carlo batches are seeded and drawn whole by ``reference_sampler.direct_trials``,
the streams the criteria were recorded on, so every number below is
reproducible bit for bit.

Two criteria are implemented faithfully but expected to fail, with the
quantitative analysis in the companion physics tests next to them:

* criterion 5: at (K, N) = (50, 1000) the asymptotic signal-present law
  carries a finite-size offset of the smallest eigenvalue (the rank-2
  signal block drags the bulk edge down by ~0.17 of its fluctuation
  scale), which alone contributes KS ~ 0.05 > 0.04 for every channel
  realization tried;
* criterion 8 (sub-critical half): the mean of the largest eigenvalue
  sits below the bulk edge by the Tracy-Widom mean shift
  nu_plus * N^(-2/3) * 1.771 = 3.4% of the edge at N = 500, so a 2% band
  around the raw edge cannot contain it; the band around the shifted
  center does, at 0.2%.
"""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import ndtr

from eigendetect.performance import (
    centering_constants,
    mu_plus,
    mu_spike,
    nu_plus,
    nu_spike,
    pfa,
    pmd,
    roc,
    threshold_from_pfa,
    threshold_from_pmd,
)
from eigendetect.simulate import ks_distance, scenario_from_component_snrs, scenario_from_snr
from eigendetect.spiked import (
    DetectorDesign,
    critical_snr,
    spike_from_snr,
    spike_spectrum,
)
from eigendetect.tracy_widom import default_table, gue_cdf, gue_pdf

from reference_sampler import direct_trials

SEED = 20260809
TW_MEAN = -1.7710868074

pytestmark = [pytest.mark.acceptance, pytest.mark.filterwarnings("ignore::RuntimeWarning")]


def check(num, ok, detail):
    # written to the real stdout so the line survives pytest capture
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}", file=sys.__stdout__)
    assert ok, f"criterion {num}: {detail}"


def law_cdf(design, hypothesis, t1=None):
    return centering_constants(design, hypothesis, t1=t1).cdf


# --- shared Monte Carlo fixtures (module scope, seeded) -----------------------

def prefix(batch, m):
    """The first m trials of a batch: the batch of m trials with the same inputs."""
    return dataclasses.replace(batch, trials=m, lambda_max=batch.lambda_max[:m],
                               lambda_min=batch.lambda_min[:m])


@pytest.fixture(scope="module")
def h0_50_10k():
    return direct_trials(DetectorDesign(50, 1000, 1), None, trials=10000, seed=SEED)


@pytest.fixture(scope="module")
def h0_batches(h0_50_10k):
    return {
        K: prefix(h0_50_10k, 5000) if K == 50 else
        direct_trials(DetectorDesign(K, 1000, 1), None, trials=5000, seed=SEED)
        for K in (20, 50, 100)
    }


@pytest.fixture(scope="module")
def h1_batch_10db():
    d = DetectorDesign(50, 1000, 1)
    sc = scenario_from_snr(50, 0.1, seed=SEED + 2)
    return direct_trials(d, sc, trials=5000, seed=SEED)


@pytest.fixture(scope="module")
def h1_batch_20db():
    d = DetectorDesign(50, 1000, 1)
    sc = scenario_from_snr(50, 0.01, seed=SEED + 2)
    return direct_trials(d, sc, trials=5000, seed=SEED)


@pytest.fixture(scope="module")
def h1_batch_20db_10k():
    d = DetectorDesign(50, 1000, 1)
    sc = scenario_from_snr(50, 0.01, seed=SEED + 2)
    return direct_trials(d, sc, trials=10000, seed=SEED + 1)


# --- criterion 1: Tracy-Widom engine vs GUE Monte Carlo ----------------------

def test_c01_tracy_widom_table_against_gue_oracle():
    t_start = time.time()
    tab = default_table()
    mass = float(np.trapezoid(tab.pdf_values, tab.grid))

    # Oracle: largest eigenvalue of the 400x400 Gaussian Hermitian ensemble,
    # sampled through its Householder tridiagonal form (identical law,
    # diag ~ N(0,1), offdiag ~ chi_{2(n-k)} / sqrt(2)), 1e4 trials.
    n, trials = 400, 10000
    rs = np.random.default_rng(SEED)
    lam = np.empty(trials)
    dof = 2 * np.arange(n - 1, 0, -1)
    for i in range(trials):
        d = rs.standard_normal(n)
        e = np.sqrt(rs.chisquare(dof)) / math.sqrt(2.0)
        lam[i] = eigvalsh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1))[0]
    samples = (lam - 2.0 * math.sqrt(n)) * n ** (1.0 / 6.0)

    se_mean = samples.std(ddof=1) / math.sqrt(trials)
    m2 = samples.var(ddof=1)
    m4 = np.mean((samples - samples.mean()) ** 4)
    se_var = math.sqrt((m4 - m2 ** 2) / trials)
    elapsed = time.time() - t_start

    ok = (
        abs(mass - 1.0) <= 1e-4
        and abs(tab.mean() - samples.mean()) <= 3 * se_mean
        and abs(tab.variance() - m2) <= 3 * se_var
        and elapsed <= 300.0
    )
    check(
        1,
        ok,
        "pdf mass %.6f; mean %.4f vs MC %.4f +- %.4f; var %.4f vs MC %.4f +- %.4f; %.0fs"
        % (mass, tab.mean(), samples.mean(), 3 * se_mean,
           tab.variance(), m2, 3 * se_var, elapsed),
    )


# --- criterion 2: 2x2 GUE closed form -----------------------------------------

def test_c02_gue2_derivative_and_monte_carlo():
    xs = np.linspace(-5.0, 5.0, 2001)
    fd = (gue_cdf(2, xs + 1e-4) - gue_cdf(2, xs - 1e-4)) / 2e-4
    fd_gap = float(np.max(np.abs(fd - gue_pdf(2, xs))))

    rs = np.random.default_rng(SEED)
    m = 100000
    a = rs.standard_normal(m)
    b = rs.standard_normal(m)
    x = rs.standard_normal(m) * math.sqrt(0.5)
    y = rs.standard_normal(m) * math.sqrt(0.5)
    lmax = (a + b) / 2 + np.sqrt((a - b) ** 2 / 4 + x ** 2 + y ** 2)
    ks = ks_distance(lmax, lambda v: gue_cdf(2, v))

    ok = fd_gap <= 1e-6 and ks <= 0.02
    check(2, ok, "max |f - dF/dx| = %.2e; 2x2 GUE KS = %.4f" % (fd_gap, ks))


# --- criterion 3: noise-only fit ------------------------------------------------

def test_c03_h0_fit(h0_batches):
    t_start = time.time()
    kss = {
        K: ks_distance(batch, law_cdf(batch.design, "H0"))
        for K, batch in h0_batches.items()
    }
    elapsed = time.time() - t_start
    ok = all(ks <= 0.03 for ks in kss.values())
    check(3, ok, "KS(K=20,50,100) = %.4f, %.4f, %.4f" % (kss[20], kss[50], kss[100]))
    assert elapsed <= 600.0


# --- criterion 4: single-source fit ---------------------------------------------

def test_c04_h1_fit(h1_batch_10db, h1_batch_20db):
    ks10 = ks_distance(h1_batch_10db, law_cdf(h1_batch_10db.design, "H1", t1=6.0))
    ks20 = ks_distance(h1_batch_20db, law_cdf(h1_batch_20db.design, "H1", t1=1.5))
    ok = ks10 <= 0.03 and ks20 <= 0.03
    check(4, ok, "KS(-10dB) = %.4f, KS(-20dB) = %.4f" % (ks10, ks20))


# --- criterion 5: multi-source fit ----------------------------------------------

@pytest.fixture(scope="module")
def p2_batch():
    d = DetectorDesign(50, 1000, 2)
    sc = scenario_from_component_snrs(50, (0.06, 0.04), seed=SEED + 3)
    t1 = spike_spectrum(sc, d).t1
    return direct_trials(d, sc, trials=5000, seed=SEED), t1


@pytest.mark.xfail(
    strict=True,
    reason="finite-size offset of the bulk lower edge under a rank-2 signal "
    "(~0.17 fluctuation scales at N=1000) alone contributes KS ~ 0.05; "
    "measured 0.048-0.062 across channel realizations, bound 0.04",
)
def test_c05_multi_source_fit(p2_batch):
    batch, t1 = p2_batch
    ks = ks_distance(batch, law_cdf(batch.design, "H1", t1=t1))
    check(5, ks <= 0.04, "P=2 KS = %.4f (t1 = %.4f)" % (ks, t1))


def test_c05_multi_source_envelope(p2_batch):
    # achievable part of the multi-source fit: the ratio law within the
    # measured finite-size envelope, and the top-eigenvalue law itself tight
    batch, t1 = p2_batch
    ks = ks_distance(batch, law_cdf(batch.design, "H1", t1=t1))
    c = batch.design.c
    num_cdf = lambda v: ndtr(
        (np.asarray(v) - mu_spike(t1, c)) / (nu_spike(t1, c) / math.sqrt(1000))
    )
    ks_num = ks_distance(batch.lambda_max, num_cdf)
    ok = ks <= 0.075 and ks_num <= 0.04
    check("5b", ok, "P=2 ratio KS = %.4f (envelope 0.075), top-eigenvalue KS = %.4f" % (ks, ks_num))


# --- criterion 6: convergence along c = 0.1 --------------------------------------

def test_c06_convergence(h0_batches):
    sizes = ((100, 10), (250, 25), (500, 50), (1000, 100))
    seqs = {}
    for hyp in ("H0", "H1"):
        kss = []
        for N, K in sizes:
            d = DetectorDesign(K, N, 1)
            if hyp == "H0":
                # at N = 1000 this batch is a prefix of c03's
                b = (prefix(h0_batches[K], 2000) if N == 1000 else
                     direct_trials(d, None, trials=2000, seed=SEED))
                kss.append(ks_distance(b, law_cdf(d, "H0")))
            else:
                sc = scenario_from_snr(K, 1.0 / K, seed=SEED + 2)  # t1 = 2
                b = direct_trials(d, sc, trials=2000, seed=SEED)
                kss.append(ks_distance(b, law_cdf(d, "H1", t1=2.0)))
        seqs[hyp] = kss
    ok = all(
        all(s[i + 1] <= s[i] for i in range(len(s) - 1)) for s in seqs.values()
    )
    check(
        6,
        ok,
        "H0 KS %s; H1 KS %s"
        % (np.round(seqs["H0"], 4).tolist(), np.round(seqs["H1"], 4).tolist()),
    )


# --- criterion 7: identifiability algebra -----------------------------------------

def test_c07_identifiability():
    crit = DetectorDesign(10, 100, 1).critical_t1
    ok = abs(crit - 1.3162) <= 1e-4
    rs = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        K = int(rs.integers(2, 300))
        N = int(rs.integers(K + 1, 8000))
        d = DetectorDesign(K, N, 1)
        t1 = spike_from_snr(K, critical_snr(d))
        worst = max(worst, abs(t1 - d.critical_t1) / d.critical_t1)
    ok = ok and worst <= 1e-12
    check(7, ok, "critical t1(c=0.1) = %.6f; worst spike/limit mismatch = %.2e" % (crit, worst))


# --- criterion 8: phase transition -------------------------------------------------

@pytest.fixture(scope="module")
def transition_batches():
    d = DetectorDesign(50, 500, 1)
    out = {}
    for t1 in (1.2, 2.0):
        sc = scenario_from_snr(50, (t1 - 1.0) / 50.0, seed=SEED + 1)
        out[t1] = direct_trials(d, sc, trials=2000, seed=SEED)
    return out


@pytest.mark.xfail(
    strict=True,
    reason="the mean of the largest eigenvalue sits nu_plus*N^(-2/3)*1.771 = 3.4% "
    "below the raw bulk edge at N=500 (partly offset by the near-critical "
    "spike), measured -2.65%; a 2% band around mu_plus cannot hold it",
)
def test_c08_phase_transition(transition_batches):
    c = 0.1
    m_sub = transition_batches[1.2].lambda_max.mean()
    m_sup = transition_batches[2.0].lambda_max.mean()
    dev_sub = abs(m_sub / mu_plus(c) - 1.0)
    dev_sup = abs(m_sup / mu_spike(2.0, c) - 1.0)
    check(
        8,
        dev_sub <= 0.02 and dev_sup <= 0.02,
        "sub-critical mean %.4f vs mu_plus %.4f (%.2f%%); "
        "super-critical mean %.4f vs mu_spike %.4f (%.2f%%)"
        % (m_sub, mu_plus(c), 100 * dev_sub, m_sup, mu_spike(2.0, c), 100 * dev_sup),
    )


def test_c08_phase_transition_shifted_centers(transition_batches):
    # same batches, with the sub-critical comparison made against the bulk
    # edge shifted by the Tracy-Widom mean (the actual finite-N location);
    # the sub-critical spike must stay invisible: far below its would-be
    # separated position
    c, N = 0.1, 500
    edge = mu_plus(c) + nu_plus(c) * N ** (-2.0 / 3.0) * TW_MEAN
    m_sub = transition_batches[1.2].lambda_max.mean()
    m_sup = transition_batches[2.0].lambda_max.mean()
    dev_sub = abs(m_sub / edge - 1.0)
    dev_sup = abs(m_sup / mu_spike(2.0, c) - 1.0)
    invisible = m_sub < mu_spike(1.2, c) * 0.96
    ok = dev_sub <= 0.02 and dev_sup <= 0.02 and invisible
    check(
        "8b",
        ok,
        "sub-critical mean %.4f vs shifted edge %.4f (%.2f%%), below mu_spike(1.2)=%.2f; "
        "super-critical %.4f vs %.4f (%.2f%%)"
        % (m_sub, edge, 100 * dev_sub, mu_spike(1.2, c), m_sup, mu_spike(2.0, c), 100 * dev_sup),
    )


# --- criterion 9: threshold inversion ----------------------------------------------

def test_c09_threshold_inversion():
    d = DetectorDesign(50, 1000, 1)
    worst = 0.0
    for p in (0.1, 0.01, 0.001):
        worst = max(worst, abs(pfa(threshold_from_pfa(p, d), d) - p))
        for t1 in (1.5, 2.0, 5.0):
            worst = max(worst, abs(pmd(threshold_from_pmd(p, d, t1), d, t1) - p))
    check(9, worst <= 1e-6, "worst inversion residual = %.2e" % worst)


# --- criterion 10: noise blindness ---------------------------------------------------

def test_c10_noise_blindness(h0_50_10k):
    d = DetectorDesign(50, 1000, 1)
    b1 = prefix(h0_50_10k, 500)  # sigma_v2 = 1
    b10 = direct_trials(d, None, trials=500, seed=SEED, sigma_v2=10.0)
    t_gap = float(np.max(np.abs(b10.t_stat - b1.t_stat) / b1.t_stat))
    g1 = threshold_from_pfa(0.01, d)
    g2 = threshold_from_pfa(0.01, DetectorDesign(50, 1000, 1))
    ok = t_gap <= 1e-12 and g1 == g2
    check(10, ok, "max per-trial |dT/T| = %.1e; threshold exactly repeatable = %s" % (t_gap, g1 == g2))


# --- criterion 11: spike algebra ------------------------------------------------------

def test_c11_spike_algebra():
    from eigendetect.spiked import Scenario, approx_snr_dominant, snr

    rs = np.random.default_rng(SEED)
    worst_sum, worst_eig, dominance_ok = 0.0, 0.0, True
    for _ in range(100):
        P = int(rs.integers(1, 5))
        K = int(rs.integers(P + 1, 21))
        H = (rs.standard_normal((K, P)) + 1j * rs.standard_normal((K, P))) / math.sqrt(2)
        sc = Scenario(H, rs.uniform(0.2, 3.0, P), float(rs.uniform(0.2, 4.0)))
        d = DetectorDesign(K, 10 * K, P)
        sp = spike_spectrum(sc, d)
        target = K * snr(sc) + P
        worst_sum = max(worst_sum, abs(float(np.sum(sp.spikes)) - target) / target)
        brute = np.linalg.eigvalsh(sc.H @ np.diag(sc.sigma2) @ sc.H.conj().T)[::-1][:P]
        worst_eig = max(
            worst_eig, float(np.max(np.abs(sp.signal_eigs - brute) / np.abs(brute)))
        )
        approx_t1 = spike_from_snr(K, approx_snr_dominant(sc))
        dominance_ok = dominance_ok and approx_t1 <= sp.t1 + 1e-12
    ok = worst_sum <= 1e-10 and worst_eig <= 1e-9 and dominance_ok
    check(
        11,
        ok,
        "sum-rule %.1e; reduced-vs-brute %.1e; dominant-component t1 never above exact: %s"
        % (worst_sum, worst_eig, dominance_ok),
    )


# --- criterion 12: non-Gaussian robustness ---------------------------------------------

def test_c12_non_gaussian():
    d = DetectorDesign(50, 1000, 1)
    cdf = law_cdf(d, "H1", t1=1.5)
    kss = {}
    for mod in ("qpsk", "qpsk_srrc", "psk_noncoherent", "uniform_complex"):
        sc = scenario_from_snr(50, 0.01, modulation=mod, seed=SEED + 2)
        kss[mod] = ks_distance(direct_trials(d, sc, trials=5000, seed=SEED), cdf)

    sc10 = scenario_from_snr(50, 0.1, modulation="qpsk", seed=SEED + 2)
    b10 = direct_trials(d, sc10, trials=5000, seed=SEED)
    g10 = threshold_from_pmd(0.10, d, 6.0)
    emp10 = float(np.mean(b10.t_stat < g10))

    ok = all(v <= 0.04 for v in kss.values()) and emp10 <= 0.10
    check(
        12,
        ok,
        "-20dB KS: %s; qpsk -10dB empirical pmd at the analytical 10%% point = %.4f"
        % ({k: round(v, 4) for k, v in kss.items()}, emp10),
    )


# --- criterion 13: ROC -------------------------------------------------------------------

def test_c13_roc(h1_batch_20db_10k):
    d = h1_batch_20db_10k.design
    grid = np.geomspace(1e-3, 0.5, 20)
    pts = roc(d, 1.5, grid)
    gap = 0.0
    for p, analytical in pts:
        g = threshold_from_pfa(p, d)
        empirical = float(np.mean(h1_batch_20db_10k.t_stat < g))
        gap = max(gap, abs(analytical - empirical))
    check(13, gap <= 0.05, "max |analytical - empirical| missed-detection = %.4f" % gap)


# --- supporting oracle checks on the shared batches ---------------------------------------

def test_extreme_eigenvalues_asymptotically_uncorrelated(h0_batches):
    r = float(np.corrcoef(h0_batches[50].lambda_max, h0_batches[50].lambda_min)[0, 1])
    check("audit", abs(r) <= 0.1, "corr(lambda_max, lambda_min) = %.4f" % r)


def test_h0_top_eigenvalue_mean_location(h0_batches):
    # the batch mean tracks the bulk edge plus the Tracy-Widom mean shift;
    # against the raw edge alone it lands ~2.5% low at N=1000
    m = float(h0_batches[50].lambda_max.mean())
    shifted = mu_plus(0.05) + nu_plus(0.05) * 1000 ** (-2.0 / 3.0) * TW_MEAN
    ok = abs(m / shifted - 1.0) <= 0.02 and abs(m / mu_plus(0.05) - 1.0) <= 0.04
    check("edge", ok, "mean %.5f vs shifted edge %.5f and raw edge %.5f" % (m, shifted, mu_plus(0.05)))


def test_pfa_agrees_with_mc_tail(h0_50_10k):
    d = h0_50_10k.design
    q99 = float(np.quantile(h0_50_10k.t_stat, 0.99))
    p_at_q99 = pfa(q99, d)
    mc_err = math.sqrt(0.01 * 0.99 / h0_50_10k.trials)
    ok = abs(p_at_q99 - 0.01) <= 3 * mc_err
    check("tail", ok, "pfa(MC 99%% quantile) = %.5f (3 MC sigma = %.5f)" % (p_at_q99, 3 * mc_err))


def test_threshold_inside_mc_quantile_band(h0_50_10k):
    d = h0_50_10k.design
    g = threshold_from_pfa(0.01, d)
    xs = np.sort(h0_50_10k.t_stat)
    n = xs.size
    half = 3.0 * math.sqrt(n * 0.01 * 0.99)
    lo = xs[int(0.99 * n - half)]
    hi = xs[min(int(0.99 * n + half), n - 1)]
    check("band", lo <= g <= hi, "gamma(0.01) = %.4f in MC band [%.4f, %.4f]" % (g, lo, hi))


def test_pmd_curve_matches_mc(h1_batch_20db_10k):
    ks = ks_distance(h1_batch_20db_10k, law_cdf(h1_batch_20db_10k.design, "H1", t1=1.5))
    check("pmd-mc", ks <= 0.03, "KS over 1e4 signal trials = %.4f" % ks)


def test_h1_top_eigenvalue_mean_location(transition_batches):
    m = float(transition_batches[2.0].lambda_max.mean())
    check("spike", abs(m / mu_spike(2.0, 0.1) - 1.0) <= 0.02,
          "super-critical mean %.4f vs mu_spike %.4f" % (m, mu_spike(2.0, 0.1)))


def test_cli_simulate_full_size(capsys):
    from eigendetect.cli import main

    rc = main(["simulate", "--k", "50", "--n", "1000", "--trials", "5000", "--seed", "7"])
    out = capsys.readouterr().out
    ks = float(out.split()[1])
    check("cli", rc == 0 and ks <= 0.03, "simulate --seed 7 printed KS = %.4f" % ks)
