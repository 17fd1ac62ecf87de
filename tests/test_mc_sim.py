"""Tests for the Monte Carlo harness: generators, batches, KS distances."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from eigendetect import simulate
from eigendetect.errors import DomainError, NumericError
from eigendetect.rng import SeededStream, mix
from eigendetect.simulate import (
    CHANNEL_TAG,
    SIGNAL_TAG,
    TrialBatch,
    WISHART_TAG,
    _RETRY_TAG,
    _trial_draw,
    _tridiagonal_extremes,
    dump_batch_csv,
    dump_cdf_comparison_csv,
    gen_noise,
    gen_signal,
    ks_distance,
    run_trials,
    scenario_from_component_snrs,
    scenario_from_snr,
    trial_seed,
)
from eigendetect.spiked import DetectorDesign, Modulation, Scenario, snr, spike_spectrum

from reference_bisection import bisect_extremes
from reference_sampler import NOISE_TAG, direct_trials


# --- pinned RNG --------------------------------------------------------------

def test_stream_is_reproducible_and_chunk_invariant():
    a = SeededStream(987654321).standard_normal(4096)
    b = SeededStream(987654321).standard_normal(4096)
    assert np.array_equal(a, b)
    s = SeededStream(5)
    split = np.concatenate([s.uniform_open(7), s.uniform_open(93)])
    whole = SeededStream(5).uniform_open(100)
    assert np.array_equal(split, whole)


def test_stream_words_match_reference_splitmix():
    # reference scalar SplitMix64 with pinned constants
    def ref_words(seed, n):
        mask = (1 << 64) - 1
        out = []
        state = seed
        for _ in range(n):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    got = SeededStream(42)._words(5)
    assert [int(w) for w in got] == ref_words(42, 5)


def test_uniforms_open_interval_and_moments():
    u = SeededStream(3).uniform_open(10 ** 6)
    assert u.min() > 0.0 and u.max() <= 1.0
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(u.var() - 1.0 / 12.0) < 2e-3


def test_gaussian_moments():
    z = SeededStream(17).standard_normal(10 ** 6)
    assert abs(z.mean()) < 5e-3
    assert abs(z.var() - 1.0) < 5e-3
    assert abs(np.mean(z ** 3)) < 1e-2
    assert abs(np.mean(z ** 4) - 3.0) < 3e-2


# a draw on a stream: (method name, its arguments)
STREAM_CALLS = st.one_of(
    st.tuples(st.just("uniform_open"), st.tuples(st.integers(1, 9))),
    st.tuples(st.just("standard_normal"), st.tuples(st.integers(1, 9))),
    st.tuples(st.just("standard_complex_normal"),
              st.tuples(st.one_of(st.integers(1, 7), st.tuples(st.integers(1, 3),
                                                               st.integers(1, 3))))),
    # shapes near 1 accept least often, so rows finish on different rounds
    st.tuples(st.just("standard_gamma"),
              st.tuples(st.lists(st.floats(1.0, 1.5), min_size=1, max_size=8))),
    st.tuples(st.just("wishart_factor"),
              st.integers(1, 5).flatmap(lambda K: st.tuples(st.just(K), st.integers(K, 12)))),
    # s = 0 (noise only) and s > 0: the gammas, then the trailing complex normal
    st.tuples(st.just("wishart_bidiagonal"),
              st.integers(2, 5).flatmap(lambda K: st.tuples(
                  st.just(K), st.integers(K + 1, 12),
                  st.one_of(st.just(0.0), st.floats(0.1, 10.0))))),
)


@settings(max_examples=80, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=6),
       calls=st.lists(STREAM_CALLS, min_size=1, max_size=6))
def test_multi_seed_rows_are_the_scalar_streams(seeds, calls):
    multi = SeededStream(np.array(seeds, dtype=np.uint64))
    scalars = [SeededStream(seed) for seed in seeds]
    for name, args in calls:
        rows = getattr(multi, name)(*args)
        assert rows.shape[0] == len(seeds)
        for t, scalar in enumerate(scalars):
            assert np.array_equal(rows[t], getattr(scalar, name)(*args))
        assert [int(c) for c in multi._cursor] == [int(s._cursor[0]) for s in scalars]


def test_multi_seed_gamma_rows_take_their_own_rounds():
    # 64 rows of eight shape-1 gammas: some rows accept in round one, some need more
    multi = SeededStream(np.arange(64, dtype=np.uint64))
    g = multi.standard_gamma(np.ones(8))
    cursors = {int(c) for c in multi._cursor}
    assert cursors >= {16, 32}
    for t in range(64):
        scalar = SeededStream(t)
        assert np.array_equal(g[t], scalar.standard_gamma(np.ones(8)))
        assert scalar._cursor[0] == multi._cursor[t]


def test_trial_seeds_of_an_index_array_are_the_scalar_seeds():
    idx = np.arange(5000, dtype=np.uint64)
    words = mix(idx)
    assert words.dtype == np.uint64
    assert [int(w) for w in words] == [mix(i) for i in range(5000)]
    assert [int(w) for w in mix(np.arange(3))] == [mix(i) for i in range(3)]  # int64 counters
    for seed in (0, 2 ** 64 - 1):
        seeds = trial_seed(seed, idx)
        assert seeds.dtype == np.uint64
        assert [int(s) for s in seeds] == [trial_seed(seed, i) for i in range(5000)]
        assert np.array_equal(trial_seed(seed, np.arange(5000)), seeds)  # int64 counters
    # a counter that is not an integer in [0, 2^64) raises instead of aliasing another one
    for counter in (1.5, True, "1", -1, 2 ** 64, np.array([0.5]), np.array([-1]),
                    np.array([True])):
        with pytest.raises(DomainError, match=r"index must be an integer in \[0, 2\^64\)"):
            trial_seed(5, counter)
        with pytest.raises(DomainError, match=r"counter must be an integer in \[0, 2\^64\)"):
            mix(counter)


# --- noise -------------------------------------------------------------------

def test_noise_power_and_determinism():
    V = gen_noise(100, 10000, 2.0, 77)  # 1e6 entries
    assert abs(np.mean(np.abs(V) ** 2) - 2.0) < 0.02 * 2.0
    assert np.array_equal(V, gen_noise(100, 10000, 2.0, 77))


def test_noise_circular_symmetry():
    V = gen_noise(100, 10000, 1.0, 78).ravel()
    re, im = V.real, V.imag
    corr = np.corrcoef(re, im)[0, 1]
    assert abs(corr) <= 0.01
    assert abs(re.var() - im.var()) < 0.01


def test_noise_rejects_bad_variance():
    for sigma_v2 in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            gen_noise(4, 8, sigma_v2, 1)
    for K, N in ((2.5, 4), (2, 4.0), (-1, 4), (0, 4), (True, 4)):
        with pytest.raises(DomainError, match="K and N must be positive integers"):
            gen_noise(K, N, 1.0, 1)
    assert np.array_equal(gen_noise(np.int64(4), np.uint8(8), 1.0, 1), gen_noise(4, 8, 1.0, 1))


# --- signals -----------------------------------------------------------------

@pytest.mark.parametrize(
    "mod", ["gaussian", "qpsk", "qpsk_srrc", "psk_noncoherent", "uniform_complex"]
)
def test_signal_variance_normalization(mod):
    S = gen_signal(1, 10 ** 6, mod, [1.7], 55)
    assert abs(np.mean(np.abs(S) ** 2) - 1.7) < 0.01 * 1.7
    assert abs(np.mean(S)) < 5e-3


def test_signal_rows_independent_and_scaled():
    S = gen_signal(3, 200000, "qpsk", [1.0, 2.0, 0.5], 91)
    var = np.mean(np.abs(S) ** 2, axis=1)
    assert np.allclose(var, [1.0, 2.0, 0.5], rtol=0.02)
    c01 = np.corrcoef(S[0].real, S[1].real)[0, 1]
    assert abs(c01) < 0.01


def test_qpsk_fourth_moment_constant_modulus():
    S = gen_signal(1, 100000, "qpsk", [2.0], 12)
    assert np.allclose(np.abs(S) ** 2, 2.0, rtol=1e-12)
    G = gen_signal(1, 10 ** 6, "gaussian", [1.0], 12)
    assert abs(np.mean(np.abs(G) ** 4) - 2.0) < 0.02


def test_uniform_complex_fourth_moment():
    # Re s uniform on [-a, a] with a = sigma * sqrt(3/2): E (Re s)^4 = a^4 / 5
    sigma2 = 1.3
    S = gen_signal(1, 4 * 10 ** 6, "uniform_complex", [sigma2], 44)
    a = math.sqrt(1.5 * sigma2)
    ref = a ** 4 / 5.0
    m4 = np.mean(S.real ** 4)
    assert abs(m4 - ref) < 0.005 * ref
    assert np.max(np.abs(S.real)) <= a + 1e-12


@pytest.mark.parametrize("N", [1, 7, 8, 64, 1000])
def test_srrc_norm_from_its_symbols_is_the_drawn_rows(N):
    # the one-source Wishart route takes ||z||^2 of an SRRC QPSK row from its symbols alone
    seeds = trial_seed(19, np.arange(300, dtype=np.uint64))
    drawn = np.sum(np.abs(gen_signal(1, N, "qpsk_srrc", [1.0], seeds)) ** 2, axis=(-2, -1))
    form = simulate._row_norm2(N, Modulation.QPSK_SRRC, seeds)
    np.testing.assert_allclose(form, drawn, rtol=1e-13, atol=0)
    alone = [simulate._row_norm2(N, Modulation.QPSK_SRRC, seeds[t : t + 1]) for t in range(300)]
    assert np.array_equal(np.concatenate(alone), form)


def test_unknown_modulation_rejected():
    with pytest.raises(DomainError):
        gen_signal(1, 10, "gmsk", [1.0], 0)
    with pytest.raises(DomainError):
        gen_signal(1, 8, "qpsk", [math.nan], 1)
    with pytest.raises(DomainError, match="sigma2 must hold one power per source"):
        gen_signal(2, 8, "qpsk", [1.0], 1)
    for P, N in ((1, 4.5), (1.0, 4), (1, 0), (True, 4)):
        with pytest.raises(DomainError, match="P and N must be positive integers"):
            gen_signal(P, N, "qpsk", [1.0], 1)


# --- channel -----------------------------------------------------------------

def test_channel_hits_target_snr_exactly():
    sc = scenario_from_snr(50, 0.01, seed=5)
    assert sc.P == 1 and np.array_equal(sc.sigma2, [1.0])
    assert snr(sc) == pytest.approx(0.01, rel=1e-12)
    assert np.array_equal(sc.H, scenario_from_snr(50, 0.01, seed=5).H)
    d = DetectorDesign(50, 1000, 1)
    assert spike_spectrum(sc, d).t1 == pytest.approx(1.5, abs=1e-9)
    for target_snr, sigma_v2 in ((math.nan, 1.0), (0.1, math.nan), (math.inf, 1.0)):
        with pytest.raises(DomainError, match="positive and finite"):
            scenario_from_snr(5, target_snr, sigma_v2, seed=1)


def test_channel_draws_are_pinned():
    # every seeded signal-present result in the suite rests on these channel bytes
    h = hashlib.sha256()
    for args in ((50, 0.1, 1.0, "gaussian", 3), (50, 0.01, 1.0, "qpsk", 5),
                 (10, 0.5, 2.0, "gaussian", 3), (6, 0.5, 1.0, "gaussian", 1)):
        h.update(scenario_from_snr(*args).H.tobytes())
    h.update(scenario_from_component_snrs(50, (0.06, 0.04), seed=8).H.tobytes())
    assert h.hexdigest() == "9c99f6b2593d9cc516a48e3f3925681aa8e43ffe691c4ca83e8bba20b0138924"


def test_component_snr_channel():
    sc = scenario_from_component_snrs(50, (0.06, 0.04), seed=8)
    col = np.sum(np.abs(sc.H) ** 2, axis=0) / 50.0
    assert np.allclose(col, [0.06, 0.04], rtol=1e-12)
    assert snr(sc) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(DomainError, match="1 <= P < K"):
        scenario_from_component_snrs(5, [])
    for call in (lambda: scenario_from_snr(3.0, 0.1), lambda: scenario_from_snr(0, 0.1),
                 lambda: scenario_from_component_snrs(2.5, [0.1])):
        with pytest.raises(DomainError, match="K must be a positive integer"):
            call()
    assert np.array_equal(scenario_from_snr(np.int64(50), 0.01, seed=5).H,
                          scenario_from_snr(50, 0.01, seed=5).H)


# --- batches -----------------------------------------------------------------

def test_batch_deterministic_and_valid():
    d = DetectorDesign(20, 200, 1)
    b1 = run_trials(d, None, trials=150, seed=4)
    b2 = run_trials(d, None, trials=150, seed=4)
    assert np.array_equal(b1.t_stat, b2.t_stat)
    assert np.array_equal(b1.lambda_max, b2.lambda_max)
    assert np.all(b1.lambda_min > 0.0)
    assert np.all(b1.t_stat >= 1.0)


def test_batch_noise_scale_cancels_in_ratio():
    d = DetectorDesign(20, 200, 1)
    b1 = run_trials(d, None, trials=100, seed=4, sigma_v2=1.0)
    b10 = run_trials(d, None, trials=100, seed=4, sigma_v2=10.0)
    assert np.allclose(b10.lambda_max, 10.0 * b1.lambda_max, rtol=1e-12)
    assert np.max(np.abs(b10.t_stat - b1.t_stat)) <= 1e-12 * np.max(b1.t_stat)


def test_batch_trace_identity():
    # reconstruct the reference's trials from its seed chain and compare traces
    d = DetectorDesign(8, 64, 1)
    b = direct_trials(d, None, trials=10, seed=21, sigma_v2=1.5)
    for i in range(10):
        ts = trial_seed(21, i)
        Y = gen_noise(8, 64, 1.5, ts ^ NOISE_TAG)
        R = Y @ Y.conj().T / 64
        w = np.linalg.eigvalsh(R)
        assert abs(np.sum(w) - np.trace(R).real) <= 1e-10 * abs(np.trace(R).real)
        assert w[-1] == pytest.approx(b.lambda_max[i], rel=1e-12)
        assert w[0] == pytest.approx(b.lambda_min[i], rel=1e-12)


def test_batch_h1_uses_scenario_noise():
    sc = scenario_from_snr(10, 0.5, sigma_v2=2.0, seed=3)
    d = DetectorDesign(10, 100, 1)
    b = run_trials(d, sc, trials=50, seed=9)
    assert b.sigma_v2 == 2.0
    # signal raises the top eigenvalue well above the noise bulk
    assert b.lambda_max.mean() > 2.0 * 1.3


def test_batch_redraw_channel_changes_trials_but_stays_seeded():
    sc = scenario_from_component_snrs(10, (0.3, 0.2), seed=3)
    d = DetectorDesign(10, 100, 2)
    b1 = run_trials(d, sc, trials=30, seed=9, redraw_channel=True)
    b2 = run_trials(d, sc, trials=30, seed=9, redraw_channel=True)
    b3 = run_trials(d, sc, trials=30, seed=9, redraw_channel=False)
    assert np.array_equal(b1.t_stat, b2.t_stat)
    assert not np.array_equal(b1.t_stat, b3.t_stat)
    # one source of any modulation: a redrawn channel keeps ||h||, so the law, and the
    # tridiagonal route draws nothing else, so the batch is the fixed-channel one
    d = DetectorDesign(10, 100, 1)
    for modulation in ("gaussian", "qpsk", "qpsk_srrc"):
        sc = scenario_from_snr(10, 0.5, modulation=modulation, seed=3)
        assert np.array_equal(run_trials(d, sc, trials=30, seed=9, redraw_channel=True).t_stat,
                              run_trials(d, sc, trials=30, seed=9).t_stat)


def test_batch_scenario_design_mismatch():
    sc = scenario_from_snr(10, 0.5, seed=3)
    for design, which in ((DetectorDesign(12, 100, 1), "K"), (DetectorDesign(10, 100, 2), "P")):
        message = f"design and scenario disagree on {which}"
        with pytest.raises(DomainError, match="run_trials: " + message):
            run_trials(design, sc, trials=5, seed=0)
        with pytest.raises(DomainError, match="spike_spectrum: " + message):
            spike_spectrum(sc, design)


def _eigvalsh_stacks(monkeypatch):
    """Keep every stack of matrices np.linalg.eigvalsh is given, in call order."""
    real, stacks = np.linalg.eigvalsh, []

    def record(a):
        stacks.append(a)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    return stacks


def _bidiagonal_draws(monkeypatch):
    """Keep every array SeededStream.wishart_bidiagonal draws, in call order."""
    real, draws = SeededStream.wishart_bidiagonal, []

    def record(self, *args):
        draws.append(real(self, *args))
        return draws[-1]

    monkeypatch.setattr(SeededStream, "wishart_bidiagonal", record)
    return draws


def _gram_matrices(monkeypatch, design, scenario, seeds):
    """The matrices np.linalg.eigvalsh factors for the trials drawn from these seeds."""
    stacks = _eigvalsh_stacks(monkeypatch)
    draw, _ = _trial_draw(design, scenario, 1.0, False)
    draw(np.array(sorted(seeds), dtype=np.uint64))
    monkeypatch.undo()
    return list(stacks[0])


def _flaky_eigvalsh(monkeypatch, failing):
    """Make np.linalg.eigvalsh raise LinAlgError on any stack holding one of these matrices."""
    real = np.linalg.eigvalsh

    def flaky(a):
        if any(np.any(np.all(a == g, axis=(-2, -1))) for g in failing):
            raise np.linalg.LinAlgError("injected eigensolver failure")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)


def _eigvalsh_batches():
    """(design, scenario) at K=8, N=64 for batches whose trials factor a Gram matrix with
    np.linalg.eigvalsh: two QPSK and two Gaussian sources.  Noise-only and one-source batches
    bisect a tridiagonal instead, and a bisection raises no LinAlgError."""
    for modulation in ("qpsk", "gaussian"):
        yield (DetectorDesign(8, 64, 2),
               scenario_from_component_snrs(8, (0.3, 0.2), modulation=modulation, seed=2))


def test_batch_retries_a_failed_eigensolve(monkeypatch):
    for d, sc in _eigvalsh_batches():
        clean = run_trials(d, sc, trials=10, seed=21)
        trial_3 = _gram_matrices(monkeypatch, d, sc, {trial_seed(21, 3)})
        batches = []
        for _ in range(2):
            _flaky_eigvalsh(monkeypatch, trial_3)  # the first attempt of trial 3
            batches.append(run_trials(d, sc, trials=10, seed=21))
            monkeypatch.undo()
        a, b = batches
        assert np.array_equal(a.t_stat, b.t_stat)
        assert (clean.retries, a.retries) == (0, 1)
        # trial 3 is redrawn from trial_seed ^ _RETRY_TAG; the others are untouched
        draw, _ = _trial_draw(d, sc, 1.0, False)
        (lo,), (hi,) = draw(np.array([trial_seed(21, 3) ^ _RETRY_TAG], dtype=np.uint64))
        assert (a.lambda_min[3], a.lambda_max[3]) == (lo, hi)
        assert (lo, hi) != (clean.lambda_min[3], clean.lambda_max[3])
        others = np.arange(10) != 3
        assert np.array_equal(a.t_stat[others], clean.t_stat[others])

    def no_eigensolve(a):
        raise np.linalg.LinAlgError("the tridiagonal route calls no eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    d = DetectorDesign(8, 64, 1)
    for sc in (None, *(scenario_from_snr(8, 0.5, modulation=m, seed=2)
                       for m in ("gaussian",) + EQ_MODULATIONS)):
        assert run_trials(d, sc, trials=10, seed=21).retries == 0


@pytest.mark.parametrize(
    "failing_calls",  # the trial seeds whose eigensolve fails
    [{trial_seed(21, 0), trial_seed(21, 1)},  # two failed trials (more than max(1, 10 // 1000))
     {trial_seed(21, 0), trial_seed(21, 0) ^ _RETRY_TAG}],  # a failed retry
)
def test_batch_eigensolver_failures_raise(monkeypatch, failing_calls):
    for d, sc in _eigvalsh_batches():
        failing = _gram_matrices(monkeypatch, d, sc, failing_calls)
        _flaky_eigvalsh(monkeypatch, failing)
        with pytest.raises(NumericError, match="eigensolver failed"):
            run_trials(d, sc, trials=10, seed=21)
        monkeypatch.undo()


# sha256 over the t_stat bytes of one batch per trial count, at (8, 64) (a wide/ case at
# (9, 10)) with batch seed 5 and sigma_v2 1.5 (the scenario's own elsewhere), recorded when
# every trial was drawn and solved alone.  The counts are 1, c - 1, c, c + 1 and 2c + 3 for
# the chunk size c of each case.  An @direct case runs reference_sampler.direct_trials:
# its digests were recorded on the library's retired "direct" sampler.
BATCH_PINS = {
    "h0": ((1, 4368, 4369, 4370, 8741),
        "3b6a295767a0809ec169a6482f6949a2927c9281b98c50658f1f19dc19685b44"),
    "p1_fixed": ((1, 4368, 4369, 4370, 8741),
        "bf7e627c22ddbf6f77c536fc713b614202fb715e8a8def171667f4a90ac21c7e"),
    "p2_fixed": ((1, 408, 409, 410, 821),
        "d3366778a546a087fa7cefc666d9954cac28a5efe65b6419fba58d3c48d122a3"),
    "p2_redraw": ((1, 408, 409, 410, 821),
        "5b58ebd641501fb11d759829e25bedf2502dd00943265909b475d8a74efb4069"),
    "qpsk/p1_fixed": ((1, 4368, 4369, 4370, 8741),
        "ef0b057330e2c94de207b394cb18884ae09332cc7a1bf6d3a035c12dedbde460"),
    "qpsk_srrc/p1_fixed": ((1, 4368, 4369, 4370, 8741),
        "9fef83c1e0446e4f9fea68fd3b10a9cddb8d797a1c52ccde8407654f5018ceb5"),
    "psk_noncoherent/p1_fixed": ((1, 4368, 4369, 4370, 8741),
        "ef0b057330e2c94de207b394cb18884ae09332cc7a1bf6d3a035c12dedbde460"),
    "uniform_complex/p1_fixed": ((1, 4368, 4369, 4370, 8741),
        "c6f320773763f132b0477cdd667ec9ecb4a69dd8b7d1ef87e71235f10ec69770"),
    "qpsk/p2_redraw": ((1, 156, 157, 158, 317),
        "847b7fe3d7b5020b2246a20dbcff0ecbeca7b968f5086d42340056b770032ace"),
    "h0@direct": ((1, 55, 56, 57, 115),
        "09919133e9c7da1e6436d968cd0dce537b0346f70c3d9649901ca1790f28a148"),
    "qpsk/p2_redraw@direct": ((1, 50, 51, 52, 105),
        "8c38c7dde8cb004c667dec194d1e0b8bccd6bb93096ed1c30ed9418b91c75490"),
    "wide/qpsk/p2_redraw": ((1, 274, 275, 276, 553),
        "63b31931f9a6e7e650ec3763681a40749ba9531fb52dbcae378ca92fa94d1d6d"),
}


def _pin_case(case):
    """(design, scenario, redraw_channel, batch function) of a BATCH_PINS key: an EQ case at
    (8, 64) (or at EQ_WIDE_KN for a wide/ case), on direct_trials for an @direct key."""
    case, _, direct = case.partition("@")
    return (*_eq_case(case, (8, 64)), direct_trials if direct else run_trials)


@pytest.mark.parametrize("case", BATCH_PINS)
def test_batches_are_pinned_across_chunk_edges(monkeypatch, case):
    counts, digest = BATCH_PINS[case]
    d, sc, redraw, run = _pin_case(case)
    # a chunk is one stack of Gram matrices, or one bidiagonal draw on the tridiagonal route
    stacks, draws = _eigvalsh_stacks(monkeypatch), _bidiagonal_draws(monkeypatch)
    h = hashlib.sha256()
    for n in counts:
        b = run(d, sc, trials=n, seed=5, sigma_v2=1.5, redraw_channel=redraw)
        h.update(b.t_stat.tobytes())
    c = counts[2]
    # the counts straddle the chunk edges
    assert [len(a) for a in draws or stacks] == [1, c - 1, c, c, 1, c, c, 3]
    assert h.hexdigest() == digest


@pytest.mark.parametrize("case", ["h0", "p1_fixed", "qpsk_srrc/p1_fixed", "qpsk/p2_redraw",
                                  "qpsk/p2_redraw@direct", "wide/qpsk/p2_redraw"])
def test_batches_are_prefix_and_chunk_invariant(monkeypatch, case):
    d, sc, redraw, run = _pin_case(case)
    counts, _ = BATCH_PINS[case]

    def batch(n):
        return run(d, sc, trials=n, seed=5, sigma_v2=1.5, redraw_channel=redraw)

    full = batch(counts[-1])
    for m in counts[:-1]:
        part = batch(m)
        assert np.array_equal(part.lambda_min, full.lambda_min[:m])
        assert np.array_equal(part.lambda_max, full.lambda_max[:m])
    monkeypatch.setattr(simulate, "_CHUNK_BYTES", 1)  # one trial per chunk
    alone = batch(counts[-1])
    assert np.array_equal(alone.lambda_min, full.lambda_min)
    assert np.array_equal(alone.lambda_max, full.lambda_max)


def test_batch_rejects_bad_trials_and_noise_before_any_trial(monkeypatch):
    stacks = _eigvalsh_stacks(monkeypatch)
    draws = _bidiagonal_draws(monkeypatch)  # a noise-only Wishart batch solves no Gram matrix
    d = DetectorDesign(8, 64, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma_v2 in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="sigma_v2 must be positive and finite"):
                run_trials(d, None, trials=2000, seed=1, sigma_v2=sigma_v2)
        for trials in (10.0, True, 0, -3, "10", None):
            with pytest.raises(DomainError, match="trials must be an integer >= 1"):
                run_trials(d, None, trials=trials, seed=1)
    assert stacks == draws == []
    assert run_trials(d, None, trials=np.int64(3), seed=1).trials == 3


def test_seeds_outside_64_bits_are_rejected_before_any_draw(monkeypatch):
    def no_draw(seed):
        raise AssertionError("a stream was drawn for a bad seed")

    monkeypatch.setattr(simulate, "SeededStream", no_draw)
    d = DetectorDesign(8, 64, 1)
    # -1 and 2^64 used to wrap onto the trials of 2^64 - 1 and 0
    seeded = (lambda seed: run_trials(d, None, trials=3, seed=seed),
              lambda seed: trial_seed(seed, 0),
              lambda seed: scenario_from_component_snrs(8, [0.5], seed=seed),
              lambda seed: gen_noise(4, 8, 1.0, seed),
              lambda seed: gen_signal(1, 8, "qpsk", [1.0], seed))
    for seed, call in itertools.product((-1, 2 ** 64, 1.0, True, "3", None), seeded):
        with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\^64\)"):
            call(seed)
    # a batch, its trial seeds and a channel take one seed, not a row of them
    rows = (np.array([1, 2], dtype=np.uint64), np.array([1], dtype=np.uint64))
    for seed, call in itertools.product(rows, seeded[:3]):
        with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\^64\)"):
            call(seed)
    monkeypatch.undo()
    # the stream itself raises too, and coerces no float, bool or negative numpy seed
    for seed in (-1, 2 ** 64 + 5, [3, -1], [2 ** 64], 1.5, True, [1.5], np.int64(-1),
                 np.array([-1])):
        with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\^64\)"):
            SeededStream(seed)
    assert np.array_equal(SeededStream(np.int64(5)).uniform_open(3),
                          SeededStream(5).uniform_open(3))
    top = run_trials(d, None, trials=3, seed=np.uint64(2 ** 64 - 1))
    assert top.seed == 2 ** 64 - 1
    assert np.array_equal(top.t_stat, run_trials(d, None, trials=3, seed=2 ** 64 - 1).t_stat)
    # a valid seed keeps its bits
    top_seed = 2 ** 64 - 1
    assert trial_seed(top_seed, 3) == trial_seed(np.uint64(top_seed), 3) == top_seed ^ mix(3)
    assert np.array_equal(trial_seed(7, np.arange(3, dtype=np.uint64)),
                          [7 ^ mix(i) for i in range(3)])
    # a chunk's uint64 trial seeds draw row by row
    chunk = np.array([0, 2 ** 64 - 1], dtype=np.uint64)
    assert np.array_equal(gen_noise(4, 8, 1.0, chunk)[1], gen_noise(4, 8, 1.0, 2 ** 64 - 1))
    assert np.array_equal(gen_signal(1, 8, "qpsk", [1.0], chunk)[0],
                          gen_signal(1, 8, "qpsk", [1.0], 0))


# --- samplers ----------------------------------------------------------------------
#
# run_trials must give the law of Y = H S + V drawn whole (reference_sampler.direct_trials).
# The constants below are fixed, not tuned to the outcome: the geometry (K=10, N=100), 2000
# trials per batch, direct batches on seed 101, Wishart batches on seed 202 (distinct, so a
# redrawn channel is independent across the two), scenario channels on seed 7, and a
# two-sample KS test on t_stat, lambda_max and lambda_min that rejects at p < 1e-3.  Each
# non-Gaussian modulation has one-source cases with a fixed and a redrawn channel and a
# two-source case with a redrawn channel.  Two "wide/" cases run at (K=9, N=10),
# declared with the rest, where K + P > N and the Bartlett factor is trapezoidal.
# The noise-only and one-source cases (EQ_TRIDIAGONAL) draw a bidiagonal, not a
# Bartlett factor, so their broken-model controls are a wrong bidiagonal.

EQ_DESIGN_KN = (10, 100)
EQ_WIDE_KN = (9, 10)  # the geometry of a "wide/" case: two sources, K + P > N
EQ_TRIALS = 2000
EQ_SEEDS = {"direct": 101, "wishart": 202}
EQ_ALPHA = 1e-3
EQ_MODULATIONS = ("qpsk", "qpsk_srrc", "psk_noncoherent", "uniform_complex")
EQ_NON_CENTRAL = tuple(f"{m}/{c}" for m in EQ_MODULATIONS for c in ("p1_fixed", "p1_redraw"))
EQ_TRIDIAGONAL = ("h0", "p1_fixed", "p1_redraw") + EQ_NON_CENTRAL
EQ_BARTLETT = ("p2_fixed", "p2_redraw") + tuple(f"{m}/p2_redraw" for m in EQ_MODULATIONS)
EQ_CASES = EQ_TRIDIAGONAL + EQ_BARTLETT
EQ_WIDE_CASES = ("wide/p2_fixed", "wide/qpsk/p2_redraw")


def _eq_case(case, K_N=EQ_DESIGN_KN):
    _, wide, case = case.rpartition("wide/")
    K, N = EQ_WIDE_KN if wide else K_N
    modulation, _, case = case.rpartition("/")
    modulation = modulation or "gaussian"
    if case == "h0":
        return DetectorDesign(K, N, 1), None, False
    if case in ("p1_fixed", "p1_redraw"):
        sc = scenario_from_snr(K, 0.5, sigma_v2=2.0, modulation=modulation, seed=7)
        return DetectorDesign(K, N, 1), sc, case == "p1_redraw"
    sc = scenario_from_component_snrs(K, (0.3, 0.2), modulation=modulation, seed=7)
    return DetectorDesign(K, N, 2), sc, case == "p2_redraw"


_DIRECT_BATCHES = {}


def _eq_pvalues(case):
    """Two-sample KS p-values of a fresh Wishart batch against the (cached) direct one."""
    d, sc, redraw = _eq_case(case)
    if case not in _DIRECT_BATCHES:
        _DIRECT_BATCHES[case] = direct_trials(d, sc, trials=EQ_TRIALS, seed=EQ_SEEDS["direct"],
                                              redraw_channel=redraw)
    a = _DIRECT_BATCHES[case]
    b = run_trials(d, sc, trials=EQ_TRIALS, seed=EQ_SEEDS["wishart"], redraw_channel=redraw)
    return {name: ks_2samp(getattr(a, name), getattr(b, name)).pvalue
            for name in ("t_stat", "lambda_max", "lambda_min")}


@pytest.mark.parametrize("case", EQ_CASES + EQ_WIDE_CASES)
def test_samplers_draw_the_same_law(case):
    p = _eq_pvalues(case)
    assert min(p.values()) >= EQ_ALPHA, p


def _strict_lower(K, N):
    """Row and column indices of the strictly lower cells of a K x min(K, N) factor."""
    return np.nonzero(np.tri(K, min(K, N), -1, dtype=bool))


def _factor(K, N, below, gammas):
    """Lower-trapezoidal factors (one per stream row) from strict-lower entries and gammas."""
    m = min(K, N)
    L = np.zeros(gammas.shape[:-1] + (K, m), dtype=complex)
    L[(..., *_strict_lower(K, N))] = below
    L[..., np.arange(m), np.arange(m)] = np.sqrt(gammas)
    return L


def _wrong_diagonal(self, K, N):
    # Gamma shapes two below Bartlett's N - i, held at 1 where that falls below it
    below = self.standard_complex_normal(_strict_lower(K, N)[0].size)
    shapes = np.maximum(N - np.arange(min(K, N)) - 2, 1)
    return _factor(K, N, below, self.standard_gamma(shapes))


def _real_off_diagonal(self, K, N):
    # unit-variance real entries below the diagonal instead of complex ones
    below = self.standard_normal(_strict_lower(K, N)[0].size)
    return _factor(K, N, below, self.standard_gamma(N - np.arange(min(K, N))))


# real off-diagonal entries keep every second moment, and at this geometry they were
# rejected only while noise-only batches drew a Bartlett factor (p = 2.4e-6; the
# two-source cases give 5e-4 to 0.02, the wide/ ones 2.1e-3 and 0.088), so they have no
# case here; the contract rebuild below catches them in every case
@pytest.mark.parametrize("wrong, case",
                         [(_wrong_diagonal, case) for case in EQ_BARTLETT + EQ_WIDE_CASES])
def test_sampler_equivalence_rejects_a_wrong_factor(monkeypatch, wrong, case):
    monkeypatch.setattr(SeededStream, "wishart_factor", wrong)
    p = _eq_pvalues(case)
    assert min(p.values()) < EQ_ALPHA, p


def _dropped_noise_block(P):
    """Control: Bartlett factors of K + P with the K x P noise block below the sources zeroed."""
    factor = SeededStream.wishart_factor

    def dropped(self, K, N):
        L = factor(self, K, N)
        L[..., P:, :P] = 0.0
        return L

    return dropped


@pytest.mark.parametrize("case", EQ_BARTLETT + EQ_WIDE_CASES)
def test_sampler_equivalence_rejects_a_dropped_noise_block(monkeypatch, case):
    d, _, _ = _eq_case(case)
    monkeypatch.setattr(SeededStream, "wishart_factor", _dropped_noise_block(d.P))
    p = _eq_pvalues(case)
    assert min(p.values()) < EQ_ALPHA, p


def _bidiagonal_shapes(K, N):
    """The contract's gamma shapes: N - 1, N - 1, N - 2, ..., N - K + 1, K - 1, ..., 1."""
    return np.concatenate([[N - 1], N - np.arange(1, K), np.arange(K - 1, 0, -1)])


def _wrong_degrees(self, K, N, s):
    # diagonal gamma shapes one above the contract's, so x_0^2 ~ Gamma(N + 1) at s = 0
    g = self.standard_gamma(_bidiagonal_shapes(K, N) + (np.arange(2 * K - 1) < K))
    g[..., 0] += np.abs(s + self.standard_complex_normal(())) ** 2
    return g


# the contract's draw, kept before a control replaces it
_BIDIAGONAL = SeededStream.wishart_bidiagonal


def _dropped_signal(self, K, N, s):
    # the signal term left out of x_0^2: |g|^2 + Gamma(N - 1)
    return _BIDIAGONAL(self, K, N, np.zeros_like(s))


def _signal_on_last(self, K, N, s):
    # the signal term on x_{K-1} instead of x_0: x_0^2 ~ Gamma(N), and x_{K-1}^2 is
    # |s + g|^2 + Gamma(N - K)
    shapes = _bidiagonal_shapes(K, N)
    shapes[[0, K - 1]] += (1, -1)
    g = self.standard_gamma(shapes)
    g[..., K - 1] += np.abs(s + self.standard_complex_normal(())) ** 2
    return g


# a signal term moved or dropped under noise only (s = 0) leaves the law as it is, so those
# controls have no h0 case
@pytest.mark.parametrize(
    "wrong, case",
    [(_wrong_degrees, case) for case in ("h0", "p1_fixed", "p1_redraw")]
    + [(wrong, case) for wrong in (_dropped_signal, _signal_on_last)
       for case in ("p1_fixed", "p1_redraw") + EQ_NON_CENTRAL])
def test_sampler_equivalence_rejects_a_wrong_bidiagonal(monkeypatch, wrong, case):
    monkeypatch.setattr(SeededStream, "wishart_bidiagonal", wrong)
    p = _eq_pvalues(case)
    assert min(p.values()) < EQ_ALPHA, p


def test_sampler_choice_follows_the_modulation(monkeypatch):
    # every modulation has a Wishart route: the bidiagonal for at most one source, the
    # factor of K + P for more, also where K > N - P (at (9, 10) the Bartlett factor of
    # K + P = 11 is 11 x 10, lower-trapezoidal)
    stacks, draws = _eigvalsh_stacks(monkeypatch), _bidiagonal_draws(monkeypatch)
    d = DetectorDesign(6, 40, 1)
    for sc in (None, scenario_from_snr(6, 0.5, seed=1),
               scenario_from_snr(6, 0.5, modulation="qpsk", seed=1)):
        assert run_trials(d, sc, trials=3, seed=1).retries == 0
    assert (len(draws), stacks) == (3, [])
    d = DetectorDesign(9, 10, 2)
    for modulation in ("qpsk", "gaussian"):
        sc = scenario_from_component_snrs(9, (0.5, 0.3), modulation=modulation, seed=1)
        assert run_trials(d, sc, trials=3, seed=1).retries == 0
    assert (len(draws), [a.shape for a in stacks]) == (3, [(3, 9, 9)] * 2)


def test_wishart_sampler_factors_a_rank_deficient_signal():
    # at N = 5 two QPSK rows are collinear in 1 trial of 256, and S S^H is singular
    d = DetectorDesign(3, 5, 2)
    sc = scenario_from_component_snrs(3, (0.5, 0.3), modulation="qpsk", seed=1)
    b = run_trials(d, sc, trials=2000, seed=4)
    assert b.retries == 0
    grams = [S @ S.conj().T for S in (gen_signal(2, 5, "qpsk", sc.sigma2,
                                                 trial_seed(4, i) ^ SIGNAL_TAG)
                                      for i in range(2000))]
    assert sum(abs(np.linalg.det(G)) < 1e-9 for G in grams) >= 2


# scalar reference of the rng.py contract; the elementary functions are numpy's
_MASK = (1 << 64) - 1


class _RefStream:
    def __init__(self, seed):
        self.seed, self.index = seed & _MASK, 0

    def uniforms(self, n):
        out = []
        for _ in range(n):
            self.index += 1
            z = (self.seed + self.index * 0x9E3779B97F4A7C15) & _MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            out.append(np.float64(((z >> 11) + 1) * 2.0 ** -53))
        return out

    def normals(self, n):
        m = (n + 1) // 2
        radius, angle = self.uniforms(m), self.uniforms(m)
        out = []
        for u, a in zip(radius, angle):
            r, theta = np.sqrt(-2.0 * np.log(u)), (2.0 * np.pi) * a
            out += [r * np.cos(theta), r * np.sin(theta)]
        return out[:n]

    def gammas(self, shapes):
        d = [np.float64(a) - 1.0 / 3.0 for a in shapes]
        c = [1.0 / np.sqrt(9.0 * dj) for dj in d]
        out = [None] * len(shapes)
        while None in out:
            x, u = self.normals(len(shapes)), self.uniforms(len(shapes))
            for j in range(len(shapes)):
                t = 1.0 + c[j] * x[j]
                v = t * t * t
                if out[j] is None and v > 0.0 and (
                    np.log(u[j]) < 0.5 * x[j] * x[j] + d[j] - d[j] * v + d[j] * np.log(v)
                ):
                    out[j] = d[j] * v
        return out

    def complex_normals(self, shape):
        n = int(np.prod(shape))
        x, y = np.array(self.normals(n)), np.array(self.normals(n))
        return ((x + 1j * y) * np.sqrt(0.5)).reshape(shape)

    def wishart_factor(self, K, N):
        m = min(K, N)
        cells = [(i, j) for i in range(K) for j in range(min(i, m))]
        x, y = self.normals(len(cells)), self.normals(len(cells))
        s = np.sqrt(0.5)
        L = np.zeros((K, m), dtype=complex)
        for (i, j), re, im in zip(cells, x, y):
            L[i, j] = complex(re * s, im * s)
        for i, g in enumerate(self.gammas([N - i for i in range(m)])):
            L[i, i] = np.sqrt(g)
        return L


# (case, N) on the Bartlett factor; at N = 10, K + P = 11 > N and L is 11 x 10,
# lower-trapezoidal
CONTRACT_CASES = (("gaussian/fixed", 40), ("gaussian/redraw", 40), ("qpsk/fixed", 40),
                  ("gaussian/fixed", 10), ("qpsk/redraw", 10))
# (case, N) on the tridiagonal route: noise only, and one source of each modulation
TRIDIAGONAL_CONTRACT_CASES = (("h0", 40), ("p1", 40), ("qpsk/p1", 40), ("qpsk_srrc/p1", 40),
                              ("psk_noncoherent/p1", 40), ("uniform_complex/p1", 40))


def _batch_and_rebuild(case, N, trials=6, seed=33, sigma_v2=1.5):
    """A Wishart batch at K=9 with two sources of unequal power, and its
    (lambda_min, lambda_max) rebuilt from the documented contract: the eigenvalues of
    sigma_v2 M M^H / N with M = [H Sigma^(1/2) / sigma_v, I_K] L, L the Bartlett factor of
    Wishart(N, I_{K+P}), whose leading P x P block is R^H for the unit-power Z = R^H Q^H
    of a non-Gaussian batch."""
    K, P = 9, 2
    modulation, _, channel = case.partition("/")
    H = scenario_from_component_snrs(K, (0.3, 0.2), sigma_v2=sigma_v2, seed=5).H
    sc, redraw = Scenario(H, [2.0, 0.5], sigma_v2, modulation), channel == "redraw"
    batch = run_trials(DetectorDesign(K, N, 2), sc, trials=trials, seed=seed,
                       sigma_v2=sigma_v2, redraw_channel=redraw)

    def norms(A):
        return np.sqrt(np.sum(np.abs(A) ** 2, axis=0))

    rebuilt = []
    for i in range(trials):
        ts = trial_seed(seed, i)
        M = _RefStream(ts ^ WISHART_TAG).wishart_factor(K + P, N)
        if sc.modulation.value != "gaussian":
            Z = gen_signal(P, N, sc.modulation, np.ones(P), ts ^ SIGNAL_TAG)
            M[:P, :P] = np.linalg.qr(Z.conj().T, mode="r").conj().T
        if redraw:  # a fresh channel with the scenario's column norms
            g = _RefStream(ts ^ CHANNEL_TAG).complex_normals((K, P))
            H = g * (norms(sc.H) / norms(g))
        M = np.hstack([H * np.sqrt(sc.sigma2 / sigma_v2), np.eye(K)]) @ M
        w = np.linalg.eigvalsh(M @ M.conj().T)
        rebuilt.append((w[0] * (sigma_v2 / N), w[-1] * (sigma_v2 / N)))
    return batch, np.array(rebuilt).T


def _srrc_form(N, seed):
    """||z||^2 of the SRRC QPSK row of ``seed`` from its symbols: re and im are the signs of
    the row's first n_sym uniforms and of its next n_sym (its stream is seed ^ mix(0)), and
    the form sums (G_0 / 2, G_1, ..., G_10)[d] * (re_j re_{j+d} + im_j im_{j+d}) over j, row
    by row, then over d."""
    gram = simulate._srrc_gram(N)
    n = gram[0].size
    u = np.array(_RefStream(seed ^ mix(0)).uniforms(2 * n))
    re, im = np.where(u[:n] > 0.5, 1.0, -1.0), np.where(u[n:] > 0.5, 1.0, -1.0)
    return sum(np.sum(g * (re[: n - d] * re[d:] + im[: n - d] * im[d:]))
               for d, g in enumerate(gram))


def _dense_tridiagonal(diag, offsq):
    """The K x K tridiagonal T of each row of ``diag`` and ``offsq`` (squared off-diagonal)."""
    C, K = diag.shape
    T = np.zeros((C, K, K))
    i = np.arange(K)
    T[:, i, i] = diag
    T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = np.sqrt(offsq)
    return T


def _tridiagonal_of(x2, y2):
    """(diagonal, squared off-diagonal) of T = B B^T for the lower-bidiagonal B with squared
    diagonal x2 and sub-diagonal y2: x_i^2 + y_{i-1}^2 and x_i^2 y_i^2."""
    diag = x2.copy()
    diag[..., 1:] += y2
    return diag, x2[..., :-1] * y2


def _bidiagonal_batch_and_rebuild(monkeypatch, case, N, trials=6, seed=33, sigma_v2=1.5):
    """A Wishart batch at K=9 on the tridiagonal route (one source of power 2 for "p1", of
    the modulation before the "/"), the squared entries of B it drew, and both rebuilt from
    the documented contract: 2K - 1 gammas of shapes N-1, N-1, N-2, ..., N-K+1, K-1, ..., 1
    are the squared diagonal and sub-diagonal of B, and the first entry gains |s + g|^2 for
    the complex normal g drawn next and s = sigma ||h|| ||z|| / sigma_v (0 under noise only),
    with ||z||^2 of the unit-power source row: one Gamma(N) from the signal stream for a
    Gaussian source, N for QPSK and non-coherent PSK, the form in the row's QPSK symbols for
    SRRC QPSK and the drawn row's sum for a uniform one; the extremes are those of
    sigma_v2 B B^T / N."""
    K, sc, spike = 9, None, 0.0
    modulation, _, case = case.rpartition("/")
    if case == "p1":
        h = scenario_from_snr(K, 0.4, sigma_v2=sigma_v2, seed=5).H
        sc = Scenario(h, [2.0], sigma_v2, modulation or "gaussian")
        spike = 2.0 * np.sum(np.abs(h) ** 2) / sigma_v2
    drawn = _bidiagonal_draws(monkeypatch)
    batch = run_trials(DetectorDesign(K, N, 1), sc, trials=trials, seed=seed, sigma_v2=sigma_v2)
    monkeypatch.undo()
    shapes = [N - 1] + [N - i for i in range(1, K)] + [K - 1 - i for i in range(K - 1)]
    gammas = []
    for i in range(trials):
        ts = trial_seed(seed, i)
        if sc is None:
            norm2 = 0.0
        elif not modulation:
            norm2 = _RefStream(ts ^ SIGNAL_TAG).gammas([N])[0]
        elif modulation in ("qpsk", "psk_noncoherent"):
            norm2 = float(N)
        elif modulation == "qpsk_srrc":
            norm2 = _srrc_form(N, ts ^ SIGNAL_TAG)
        else:
            norm2 = np.sum(np.abs(gen_signal(1, N, modulation, [1.0], ts ^ SIGNAL_TAG)) ** 2)
        stream = _RefStream(ts ^ WISHART_TAG)
        g = stream.gammas(shapes)
        g[0] += np.abs(np.sqrt(spike * norm2) + stream.complex_normals(1)[0]) ** 2
        gammas.append(g)
    gammas = np.array(gammas)
    w = np.linalg.eigvalsh(_dense_tridiagonal(*_tridiagonal_of(gammas[:, :K], gammas[:, K:])))
    w *= sigma_v2 / N
    return batch, np.concatenate(drawn), gammas, (w[:, 0], w[:, -1])


def test_wishart_trials_rebuild_from_the_contract(monkeypatch):
    for case, N in CONTRACT_CASES:
        b, (lam_min, lam_max) = _batch_and_rebuild(case, N)
        assert np.array_equal(b.lambda_min, lam_min), (case, N)
        assert np.array_equal(b.lambda_max, lam_max), (case, N)
    # the tridiagonal route draws the contract's gammas bit for bit; its bisection is not
    # LAPACK's eigensolver, so its extremes meet a dense one's to 1e-12
    for case, N in TRIDIAGONAL_CONTRACT_CASES:
        b, drawn, gammas, (lam_min, lam_max) = _bidiagonal_batch_and_rebuild(monkeypatch, case, N)
        assert np.array_equal(drawn, gammas), (case, N)
        np.testing.assert_allclose(b.lambda_min, lam_min, rtol=1e-12, atol=0, err_msg=case)
        np.testing.assert_allclose(b.lambda_max, lam_max, rtol=1e-12, atol=0, err_msg=case)


@pytest.mark.parametrize("wrong", [_wrong_diagonal, _real_off_diagonal])
def test_contract_rebuild_rejects_a_wrong_factor(monkeypatch, wrong):
    monkeypatch.setattr(SeededStream, "wishart_factor", wrong)
    for case, N in CONTRACT_CASES:
        b, (lam_min, lam_max) = _batch_and_rebuild(case, N)
        assert not np.any((b.lambda_min == lam_min) | (b.lambda_max == lam_max)), (case, N)


# --- tridiagonal eigensolver ----------------------------------------------------------
#
# Declared before any run: these shapes and spikes, 200 bidiagonals for each pair (the
# trial seeds of batch seed 17), and 1e-12 relative to a dense eigvalsh of the same T.

SOLVER_SHAPES = ((2, 3), (2, 1000), (9, 10), (10, 100), (50, 1000), (100, 1000))
SOLVER_SPIKES = (1.0, 1.5, 6.0, 1e6)
SOLVER_TRIALS = 200


@pytest.mark.parametrize("K, N", SOLVER_SHAPES)
def test_tridiagonal_extremes_match_a_dense_eigensolver(K, N):
    seeds = np.array([trial_seed(17, i) for i in range(SOLVER_TRIALS)], dtype=np.uint64)
    for t1 in SOLVER_SPIKES:
        g = SeededStream(seeds).wishart_bidiagonal(K, N, 0.0)
        g[:, 0] *= t1  # a Gaussian spike t1 scales the first row's squared norm
        diag, offsq = _tridiagonal_of(g[:, :K], g[:, K:])
        w = np.linalg.eigvalsh(_dense_tridiagonal(diag, offsq))
        lam_min, lam_max = _tridiagonal_extremes(diag, offsq)
        np.testing.assert_allclose(lam_min, w[:, 0], rtol=1e-12, atol=0, err_msg=str(t1))
        np.testing.assert_allclose(lam_max, w[:, -1], rtol=1e-12, atol=0, err_msg=str(t1))


def test_tridiagonal_extremes_guard_a_zero_pivot():
    # T = [[2, 1, 0], [1, 2, 0], [0, 0, 0.5]]: at each extreme (0.5 and 3, doubles that the
    # bisection meets exactly) one pivot is exactly 0, and at 3 the next division is 0 / 0
    # without the guard.  As -pivmin the zero counts the eigenvalue as below, so each
    # result is the double just under it.
    diag, offsq = np.array([[2.0, 2.0, 0.5]]), np.array([[1.0, 0.0]])
    lam = _tridiagonal_extremes(diag, offsq)[:, 0]
    w = np.linalg.eigvalsh(_dense_tridiagonal(diag, offsq))[0]
    np.testing.assert_allclose(lam, w[[0, -1]], rtol=1e-12, atol=0)
    assert list(lam) == [np.nextafter(0.5, 0.0), np.nextafter(3.0, 0.0)]


# The regula-falsi test points against the bit-midpoint bisection they replaced
# (reference_bisection.py), bit for bit.  Declared before any run: SOLVER_SHAPES plus
# (200, 1000), where det(T - s I) overflows a double unless rescaled, times SOLVER_SPIKES,
# SOLVER_TRIALS bidiagonals each from the trial seeds of batch seed 29, and at most
# _PREFIX + (_HALVING + 1) 64 sweeps with an f that points every step at the lower end.

BISECTION_SEED = 29


def _bisection_cases(shapes):
    seeds = trial_seed(BISECTION_SEED, np.arange(SOLVER_TRIALS, dtype=np.uint64))
    for (K, N), t1 in itertools.product(shapes, SOLVER_SPIKES):
        g = SeededStream(seeds).wishart_bidiagonal(K, N, 0.0)
        g[:, 0] *= t1
        yield (K, N, t1), _tridiagonal_of(g[:, :K], g[:, K:])


def test_tridiagonal_extremes_are_the_bisection_doubles():
    for case, (diag, offsq) in _bisection_cases(SOLVER_SHAPES + ((200, 1000),)):
        new, old = _tridiagonal_extremes(diag, offsq), bisect_extremes(diag, offsq)
        assert new.shape == old.shape == (2, SOLVER_TRIALS)
        assert new.tobytes() == old.tobytes(), case


def test_tridiagonal_extremes_bound_their_sweeps(monkeypatch):
    """One _pivot_det call per sweep.  The regula-falsi points take fewer sweeps than bit
    midpoints alone (a _PREFIX past the last sweep), and an f that straddles 0 where it
    should but always points at the bracket's lower end (t = 2^-2000) changes no double and
    stays within the halving bound."""
    real, calls = simulate._pivot_det, []

    def counted(q):
        calls.append(len(q))
        return real(q)

    def lower_end(q):
        calls.append(len(q))
        negative = np.count_nonzero(q < 0.0, axis=0)
        past = np.stack([negative[0] > 0, negative[1] == len(q)])  # the point is above the extreme
        return np.where(negative % 2, -1.0, 1.0), np.where(past, 1000, -1000).astype(np.int32)

    bound = simulate._PREFIX + (simulate._HALVING + 1) * 64
    runs = {"falsi": (counted, simulate._PREFIX), "bits": (counted, bound),
            "misled": (lower_end, simulate._PREFIX)}
    for case, (diag, offsq) in _bisection_cases(((2, 10), (50, 1000))):
        old, sweeps = bisect_extremes(diag, offsq).tobytes(), {}
        for name, (pivot_det, prefix) in runs.items():
            monkeypatch.setattr(simulate, "_pivot_det", pivot_det)
            monkeypatch.setattr(simulate, "_PREFIX", prefix)
            calls.clear()
            assert _tridiagonal_extremes(diag, offsq).tobytes() == old, (case, name)
            sweeps[name] = len(calls)
        assert sweeps["falsi"] < sweeps["bits"] <= 64, (case, sweeps)
        assert sweeps["bits"] < sweeps["misled"] <= bound, (case, sweeps)


def test_gamma_rounds_consume_whole_rounds():
    # 50 shapes: each round is 50 normals (50 words) then 50 uniforms
    s = SeededStream(8)
    s.standard_gamma(np.arange(2.0, 52.0))
    assert s._cursor % 100 == 0 and s._cursor >= 100
    with pytest.raises(DomainError):
        SeededStream(8).standard_gamma([0.5])


def test_simulator_imports_no_scipy():
    code = (
        "import sys\n"
        "from eigendetect import DetectorDesign, run_trials, scenario_from_snr\n"
        "d = DetectorDesign(8, 60)\n"
        "run_trials(d, None, trials=20)\n"
        "run_trials(d, scenario_from_snr(8, 0.5, seed=1), trials=20)\n"
        "run_trials(d, scenario_from_snr(8, 0.5, modulation='qpsk', seed=1), trials=20)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


# --- eigensolver dual route ---------------------------------------------------

def faddeev_leverrier_charpoly(A):
    """Characteristic polynomial coefficients by trace recursion (no eig)."""
    n = A.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def test_eigensolver_against_charpoly_roots():
    rs = np.random.default_rng(2024)
    for _ in range(100):
        a = rs.standard_normal((8, 8)) + 1j * rs.standard_normal((8, 8))
        A = (a + a.conj().T) / 2
        w, Q = np.linalg.eigh(A)
        roots = np.sort(np.roots(faddeev_leverrier_charpoly(A)).real)
        assert np.allclose(w, roots, atol=1e-8 * max(1.0, np.abs(w).max()))
        recon = (Q * w) @ Q.conj().T
        assert np.linalg.norm(recon - A) <= 1e-10 * np.linalg.norm(A)


# --- Kolmogorov-Smirnov distances ---------------------------------------------

def _step_cdf(values):
    """Right-continuous empirical CDF of ``values``."""
    return lambda x: np.searchsorted(np.sort(values), x, side="right") / len(values)


def test_ks_distance_self_is_zero():
    d = DetectorDesign(10, 100, 1)
    b = run_trials(d, None, trials=200, seed=31)
    assert ks_distance(b, _step_cdf(b.t_stat)) == 0.0


def test_ks_distance_detects_shift():
    rs = np.random.default_rng(0)
    x = rs.standard_normal(1000)
    from scipy.special import ndtr

    assert ks_distance(x, ndtr) < 0.05
    assert ks_distance(x, lambda v: ndtr(np.asarray(v) - 0.5)) > 0.15


def test_ks_distance_matches_scipy_kstest():
    from scipy import stats

    rs = np.random.default_rng(4)
    samples = [
        (rs.standard_normal(100), stats.norm.cdf),
        (rs.standard_normal(1000) + 0.1, stats.norm.cdf),
        (rs.exponential(size=500), stats.expon.cdf),
        (stats.t.rvs(5, size=300, random_state=rs), stats.norm.cdf),
    ]
    for x, cdf in samples:
        res = stats.kstest(x, cdf)
        assert ks_distance(x, cdf) == pytest.approx(res.statistic, rel=0, abs=1e-12)
    # the one-sided D- term is the larger one here
    x = rs.standard_normal(100) + 0.3
    d_plus = np.max(np.arange(1, 101) / 100 - stats.norm.cdf(np.sort(x)))
    assert ks_distance(x, stats.norm.cdf) > d_plus


def test_ks_distance_needs_samples():
    with pytest.raises(DomainError):
        ks_distance(np.ones(10), lambda v: np.asarray(v))
    x = np.random.default_rng(0).uniform(size=200)
    x[17] = math.nan
    with pytest.raises(DomainError, match="finite"):
        ks_distance(x, lambda v: np.asarray(v))
    with pytest.raises(DomainError, match="1-D"):
        ks_distance(np.full((20, 10), 0.5), lambda v: np.asarray(v))


def test_ks_distance_rejects_a_bad_cdf():
    x = np.random.default_rng(0).uniform(size=200)
    for cdf in (lambda v: np.where(v > 0.5, math.nan, v),
                lambda v: np.where(v > 0.5, math.inf, v),
                lambda v: np.asarray(v) - 0.5,
                lambda v: 2.0 * np.asarray(v)):
        with pytest.raises(DomainError, match=r"within \[0, 1\]"):
            ks_distance(x, cdf)


def test_batch_rejects_non_finite_eigenvalues():
    d = DetectorDesign(10, 100, 1)
    fields = dict(design=d, scenario=None, seed=0, trials=2, sigma_v2=1.0,
                  lambda_min=[1.0, 1.0], t_stat=[2.0, 2.0], retries=0)
    TrialBatch(lambda_max=[2.0, 2.0], **fields)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            TrialBatch(lambda_max=[2.0, bad], **fields)
    with pytest.raises(DomainError, match="lambda_max >= lambda_min > 0"):
        TrialBatch(lambda_max=[2.0, 0.5], **fields)


# --- CSV dumps -----------------------------------------------------------------

def test_dump_batch_csv(tmp_path):
    sc = scenario_from_snr(10, 0.2, modulation="qpsk", seed=3)
    d = DetectorDesign(10, 100, 1)
    b = run_trials(d, sc, trials=20, seed=9)
    path = tmp_path / "batch.csv"
    dump_batch_csv(path, b)
    lines = path.read_text().splitlines()
    assert lines[0] == "# K=10 N=100 seed=9 trials=20 modulation=qpsk snr=0.2 retries=0"
    assert lines[1] == "trial,lambda_max,lambda_min,t"
    assert len(lines) == 22
    row = lines[2].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) / float(row[2]) == pytest.approx(float(row[3]), rel=1e-9)


def test_dump_cdf_comparison_csv(tmp_path):
    d = DetectorDesign(10, 100, 1)
    b = run_trials(d, None, trials=120, seed=1)
    path = tmp_path / "cdf.csv"
    dump_cdf_comparison_csv(path, b, _step_cdf(b.t_stat))
    lines = path.read_text().splitlines()
    assert lines[0] == "gamma,empirical,analytical"
    assert len(lines) == 121
    cells = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.diff(cells[:, 0]) >= 0.0)
    assert np.allclose(cells[:, 1], cells[:, 2])
