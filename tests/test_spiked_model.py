"""Tests for the scenario algebra: SNR, spikes, identifiability."""

import json
import math
import warnings

import numpy as np
import pytest

from eigendetect.errors import DomainError
from eigendetect.spiked import (
    DetectorDesign,
    Modulation,
    Scenario,
    approx_snr_dominant,
    critical_snr,
    is_identifiable,
    min_samples,
    scenario_from_json,
    snr,
    spike_from_snr,
    spike_spectrum,
)


def random_scenario(rs, K, P, sigma_v2=None):
    H = (rs.standard_normal((K, P)) + 1j * rs.standard_normal((K, P))) / math.sqrt(2)
    sigma2 = rs.uniform(0.2, 3.0, size=P)
    sv2 = sigma_v2 if sigma_v2 is not None else rs.uniform(0.1, 4.0)
    return Scenario(H, sigma2, sv2)


# --- construction and validation -------------------------------------------

def test_design_invariants():
    d = DetectorDesign(50, 1000)
    assert d.c == 0.05 and d.c_prime == 0.049
    assert d.critical_t1 == pytest.approx(1.2236068, rel=1e-7)
    with pytest.raises(DomainError):
        DetectorDesign(1000, 50)
    with pytest.raises(DomainError):
        DetectorDesign(50, 50)
    with pytest.raises(DomainError):
        DetectorDesign(50, 1000, P=50)
    with pytest.raises(DomainError):
        DetectorDesign(50, 1000, P=0)
    # K, N and P are counts: numpy integers pass; floats (even whole ones) and bools raise
    assert DetectorDesign(np.int64(4), np.int32(40), np.uint8(2)) == DetectorDesign(4, 40, 2)
    for K, N, P in ((2.5, 10.5, 1), (4, 40.5, 1), (3.5, 40, 1), (4.0, 40, 1), (True, 40, 1),
                    (4, 40, True), (4, 40, 1.0), (4, "40", 1)):
        with pytest.raises(DomainError, match="K, N and P must be integers"):
            DetectorDesign(K, N, P)
    for K, N in ((2.5, 10), (4, 40.5), (True, 10), (0, 10)):
        with pytest.raises(DomainError, match="K and N must be positive integers"):
            critical_snr(K, N)
    assert critical_snr(np.int64(4), 100) == critical_snr(4, 100) == 0.05


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario(np.ones((2, 3)), [1, 1, 1], 1.0)  # P >= K
    with pytest.raises(DomainError, match="1 <= P < K"):
        Scenario(np.zeros((5, 0)), [], 1.0)  # no source
    with pytest.raises(DomainError):
        Scenario(np.ones((5, 1)), [0.0], 1.0)  # zero power
    with pytest.raises(DomainError):
        Scenario(np.ones((5, 1)), [1.0], 0.0)  # zero noise
    with pytest.raises(DomainError):
        Scenario(np.ones((5, 1)), [1.0], 1.0, modulation="oqpsk")
    with pytest.raises(DomainError, match="H must be a K x P matrix"):
        Scenario(np.ones(5), [1.0], 1.0)
    with pytest.raises(DomainError, match="sigma2 must hold one power per source"):
        Scenario(np.ones((5, 2)), [1.0], 1.0)
    for H, sigma2, sigma_v2 in (
        (np.full((5, 1), np.nan), [1.0], 1.0),
        (np.full((5, 1), np.inf), [1.0], 1.0),
        (np.ones((5, 1)), [math.nan], 1.0),
        (np.ones((5, 1)), [math.inf], 1.0),
        (np.ones((5, 1)), [1.0], math.nan),
        (np.ones((5, 1)), [1.0], math.inf),
    ):
        with pytest.raises(DomainError):
            Scenario(H, sigma2, sigma_v2)
    sc = Scenario(np.ones((5, 2)), [1.0, 2.0], 1.0, modulation="qpsk")
    assert sc.K == 5 and sc.P == 2 and sc.modulation is Modulation.QPSK
    with pytest.raises(ValueError):
        sc.H[0, 0] = 0  # immutable


# --- SNR --------------------------------------------------------------------

def test_snr_single_source():
    h = np.ones(50)  # ||h||^2 = K
    sc = Scenario(h[:, None], [0.01 * 2.0], 2.0)
    assert snr(sc) == pytest.approx(0.01, rel=1e-12)


def test_snr_two_sources_adds_components():
    K, sv2 = 50, 1.0
    rs = np.random.default_rng(3)
    H = rs.standard_normal((K, 2)) + 1j * rs.standard_normal((K, 2))
    H[:, 0] *= math.sqrt(0.06 * K * sv2) / np.linalg.norm(H[:, 0])
    H[:, 1] *= math.sqrt(0.04 * K * sv2) / np.linalg.norm(H[:, 1])
    sc = Scenario(H, [1.0, 1.0], sv2)
    assert snr(sc) == pytest.approx(0.1, rel=1e-12)
    assert approx_snr_dominant(sc) == pytest.approx(0.06, rel=1e-12)


def test_snr_zero_channel():
    # zero channel is rejected by spike extraction but fine for the SNR itself
    sc = Scenario(np.zeros((5, 1)) + 0j, [1.0], 1.0)
    assert snr(sc) == 0.0


# --- spikes ------------------------------------------------------------------

def test_rank_one_spike_closed_form():
    rs = np.random.default_rng(11)
    for _ in range(20):
        sc = random_scenario(rs, K=12, P=1)
        d = DetectorDesign(12, 200, 1)
        sp = spike_spectrum(sc, d)
        s1 = float(np.sum(np.abs(sc.H[:, 0]) ** 2)) * sc.sigma2[0]
        assert sp.signal_eigs[0] == pytest.approx(s1, rel=1e-12)
        assert sp.t1 == pytest.approx(spike_from_snr(12, snr(sc)), rel=1e-12)


def test_spike_sum_rule_random_scenarios():
    rs = np.random.default_rng(7)
    for _ in range(100):
        P = int(rs.integers(1, 5))
        K = int(rs.integers(P + 1, 16))
        sc = random_scenario(rs, K, P)
        d = DetectorDesign(K, 10 * K, P)
        sp = spike_spectrum(sc, d)
        target = K * snr(sc) + P
        assert abs(float(np.sum(sp.spikes)) - target) <= 1e-10 * target
        assert np.all(sp.spikes > 1.0)
        assert np.all(np.diff(sp.spikes) <= 0.0)


def test_spike_reduced_matches_full_brute_force():
    # nonzero eigenvalues of the K x K signal covariance, solved directly
    rs = np.random.default_rng(19)
    for _ in range(50):
        P = int(rs.integers(1, 5))
        K = int(rs.integers(P + 1, 21))
        sc = random_scenario(rs, K, P)
        d = DetectorDesign(K, 10 * K, P)
        sp = spike_spectrum(sc, d)
        full = sc.H @ np.diag(sc.sigma2) @ sc.H.conj().T
        w = np.linalg.eigvalsh(full)[::-1][:P]
        assert np.allclose(sp.signal_eigs, w, rtol=1e-9)


def test_spike_ties_warn():
    H = np.eye(6)[:, :2] + 0j
    sc = Scenario(H, [1.0, 1.0], 1.0)
    with pytest.warns(RuntimeWarning):
        spike_spectrum(sc, DetectorDesign(6, 60, 2))


def test_spike_rejects_rank_deficient():
    H = np.zeros((6, 2), dtype=complex)
    H[0, 0] = 1.0  # second column vanishes
    sc = Scenario(H, [1.0, 1.0], 1.0)
    with pytest.raises(DomainError):
        spike_spectrum(sc, DetectorDesign(6, 60, 2))
    # finite entries whose signal covariance overflows: a typed error, no numpy warning
    huge = Scenario(np.full((6, 1), 1e200), [1e200], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            spike_spectrum(huge, DetectorDesign(6, 60))


def test_snr_overflow_raises_without_warning():
    # finite powers whose SNR overflows only after the division by sigma_v2
    sc = Scenario(np.ones((20, 1)), [1e10], 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^SNR overflows"):
            snr(sc)
        with pytest.raises(DomainError, match="^SNR overflows"):
            spike_spectrum(sc, DetectorDesign(20, 400))


def test_dominant_component_never_overshoots():
    rs = np.random.default_rng(23)
    for _ in range(100):
        sc = random_scenario(rs, K=10, P=2)
        d = DetectorDesign(10, 100, 2)
        exact = spike_spectrum(sc, d).t1
        approx = spike_from_snr(10, approx_snr_dominant(sc))
        assert approx <= exact + 1e-12


# --- identifiability ---------------------------------------------------------

def test_identifiability_strict_boundary():
    d = DetectorDesign(20, 1000)  # c = 0.02, critical 1.1414
    assert is_identifiable(2.25, d)
    d01 = DetectorDesign(10, 100)  # c = 0.1
    assert not is_identifiable(1.3162, d01)  # just below 1.31622...
    assert not is_identifiable(d01.critical_t1, d01)  # boundary not strict
    assert not is_identifiable(1.0, d01)
    for t1 in (0.5, math.nan):
        with pytest.raises(DomainError):
            is_identifiable(t1, d01)
    for rho in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            spike_from_snr(5, rho)
    for K in (2.5, True, 0, 5.0):
        with pytest.raises(DomainError, match="K must be a positive integer"):
            spike_from_snr(K, 0.1)
    assert spike_from_snr(np.int64(5), 0.1) == spike_from_snr(5, 0.1) == 1.5


def test_critical_snr_values():
    assert critical_snr(DetectorDesign(50, 1000)) == pytest.approx(0.00447214, rel=1e-6)
    assert critical_snr(1, 1) == 1.0
    # algebraic consistency with the spike map
    rs = np.random.default_rng(5)
    for _ in range(20):
        K = int(rs.integers(2, 200))
        N = int(rs.integers(K + 1, 5000))
        d = DetectorDesign(K, N)
        t1 = spike_from_snr(K, critical_snr(d))
        assert abs(t1 - d.critical_t1) <= 1e-12 * d.critical_t1


def test_identifiability_iff_above_critical_snr():
    rs = np.random.default_rng(9)
    for _ in range(200):
        K = int(rs.integers(2, 100))
        N = int(rs.integers(K + 1, 4000))
        d = DetectorDesign(K, N)
        rho = float(rs.uniform(0.2, 5.0)) * critical_snr(d)
        above = rho > critical_snr(d)
        assert is_identifiable(spike_from_snr(K, rho), d) == above


def test_min_samples():
    assert min_samples(50, 0.01) == 201
    assert min_samples(50, 1.0) == 1
    rs = np.random.default_rng(13)
    for _ in range(50):
        K = int(rs.integers(1, 100))
        rho = float(rs.uniform(0.001, 1.0))
        N = min_samples(K, rho)
        assert critical_snr(K, N) < rho <= critical_snr(K, N - 1) if N > 1 else rho > critical_snr(K, 1)
    with pytest.raises(DomainError):
        min_samples(50, 0.0)
    # K is a count: numpy integers pass, floats and bools raise
    assert min_samples(np.int64(50), 0.01) == 201
    for K in (2.5, True, 0, 4.0):
        with pytest.raises(DomainError, match="K must be a positive integer"):
            min_samples(K, 0.1)


# --- JSON loading ------------------------------------------------------------

def test_scenario_json_explicit(tmp_path):
    doc = {
        "K": 4,
        "N": 100,
        "sigma_v2": 2.0,
        "modulation": "qpsk",
        "Sigma": [1.5, 0.5],
        "H": [[[1, 0], [0, 1]], [[0, 0], [1, 0]], [[1, 1], [0, 0]], [[0, 0], [0, 0]]],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    sc, d = scenario_from_json(path)
    assert d.K == 4 and d.N == 100 and d.P == 2
    assert sc.H[0, 1] == 0 + 1j and sc.H[2, 0] == 1 + 1j
    assert sc.modulation is Modulation.QPSK
    assert sc.sigma_v2 == 2.0


def test_scenario_json_snr_shortcut():
    sc, d = scenario_from_json({"K": 50, "N": 1000, "snr": 0.01, "sigma_v2": 3.0})
    assert d.P == 1
    # a whole number written as a JSON float is the integer
    assert scenario_from_json('{"K": 50.0, "N": 1e3, "snr": 0.01}')[1] == DetectorDesign(50, 1000)
    assert snr(sc) == pytest.approx(0.01, rel=1e-12)
    sp = spike_spectrum(sc, d)
    assert sp.t1 == pytest.approx(1.5, rel=1e-12)


def test_scenario_json_rejects_ambiguous_forms():
    with pytest.raises(DomainError):
        scenario_from_json({"K": 5, "N": 50})
    with pytest.raises(DomainError):
        scenario_from_json({"K": 5, "N": 50, "snr": 0.1, "H": [], "Sigma": []})
    with pytest.raises(DomainError):
        scenario_from_json({"K": 5, "N": 50, "Sigma": [1.0]})  # H missing


@pytest.mark.parametrize(
    "source",
    [
        '{"K": 5, "N": 50, "snr": ',  # truncated JSON
        '{"K": 5, "N": 50, "snr": "abc"}',
        '{"K": "x", "N": 50, "snr": 0.1}',
        '{"K": 5, "N": null, "snr": 0.1}',
        '{"K": 5, "N": 50, "snr": 0.1, "sigma_v2": "loud"}',
        [5, 50, 0.1],
        {"K": 2, "N": 50, "Sigma": [1.0], "H": [[[1, 0, 0]], [[1, 0]]]},
        {"K": 2, "N": 50, "Sigma": [1.0], "H": [[1.0], [[1, 0]]]},
        {"K": 2, "N": 50, "Sigma": [1.0], "H": [[["a", "b"]], [[1, 0]]]},
        {"K": 2, "N": 50, "Sigma": [1.0], "H": 7},
        {"K": 2, "N": 50, "Sigma": "abc", "H": [[[1, 0]], [[1, 0]]]},
        {"K": 1e400, "N": 50, "snr": 0.1},
        '{"K": 5, "N": 50, "snr": NaN}',
        '{"K": 5, "N": 50, "snr": Infinity}',
        {"K": 4.7, "N": 100.9, "snr": 0.5},  # was truncated to (4, 100)
        {"K": 4, "N": 100.5, "snr": 0.5},
        '{"K": "4", "N": 100, "snr": 0.5}',
        {"K": 2, "N": 50.5, "Sigma": [1.0], "H": [[[1, 0]], [[1, 0]]]},
        {"N": 50, "snr": 0.1},  # missing field
        {"K": 3, "N": 50, "Sigma": [1.0], "H": [[[1, 0]], [[1, 0]]]},  # two rows for K = 3
    ],
)
def test_scenario_json_malformed_raises_domain_error(source):
    with pytest.raises(DomainError, match="^scenario JSON: "):
        scenario_from_json(source)


def _explicit_k20(power, gain):
    return json.dumps({"K": 20, "N": 400, "Sigma": [power], "H": [[[gain, 0]]] * 20})


@pytest.mark.parametrize(
    "text, argv, prefix",
    [
        ('{"K": 20, "N": 400, "snr": "abc"}', ("threshold", "--pfa", "0.01"),
         "error: scenario JSON: "),
        (_explicit_k20(math.nan, 1), ("pmd", "--gamma", "2.5"), "error: Scenario: "),
        (_explicit_k20(math.nan, 1), ("simulate", "--trials", "200"), "error: Scenario: "),
        (_explicit_k20(1e200, 1e200), ("pmd", "--gamma", "2.5"), "error: spike_spectrum: "),
        ('{"K": 20, "N": 400, "snr": 0.25}', ("pmd", "--n", "999", "--gamma", "2.5"),
         "error: --n contradicts"),
        (json.dumps({"K": 20, "N": 400, "sigma_v2": 1e-300, "Sigma": [1e10],
                     "H": [[[1, 0]]] * 20}), ("pmd", "--gamma", "2.5"), "error: SNR overflows"),
        ('{"K": 4.7, "N": 100.9, "snr": 0.5}', ("pmd", "--gamma", "2.5"),
         "error: scenario JSON: K and N must be whole numbers"),
        ('{"K": 4, "N": 100.9, "snr": 0.5}', ("simulate", "--trials", "200"),
         "error: scenario JSON: K and N must be whole numbers"),
    ],
    ids=["snr-not-a-number", "nan-power-pmd", "nan-power-simulate", "overflow-pmd",
         "n-contradicts-file", "snr-overflow-pmd", "fractional-k-n-pmd",
         "fractional-n-simulate"],
)
@pytest.mark.filterwarnings("error")
def test_scenario_json_malformed_file_exits_2(tmp_path, capsys, text, argv, prefix):
    from eigendetect.cli import main

    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([*argv, "--scenario", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(prefix) and out.out == ""
