"""Reference trials that draw Y = H S + V whole: the streams the acceptance suite was recorded on.

Trial i draws its noise from ``trial_seed(seed, i) ^ NOISE_TAG``, its sources from
``^ SIGNAL_TAG`` and a redrawn channel from ``^ CHANNEL_TAG``, and takes the extreme
eigenvalues of Y Y^H / N with ``np.linalg.eigvalsh``.  ``run_trials`` draws the same law
without forming Y; the equivalence tests hold the two to it.
"""

import numpy as np

from eigendetect import simulate
from eigendetect.rng import SeededStream
from eigendetect.simulate import (CHANNEL_TAG, SIGNAL_TAG, TrialBatch, gen_noise, gen_signal,
                                  trial_seed)

NOISE_TAG = 0xB5EA2C49E1D7A3F1


def direct_trials(design, scenario=None, trials=1000, seed=0, sigma_v2=1.0, redraw_channel=False):
    """``run_trials`` with the same arguments, on the reference draw; chunks of about
    ``simulate._CHUNK_BYTES`` of noise and source samples each, which change no output."""
    K, N = design.K, design.N
    if scenario is not None:
        sigma_v2, P = scenario.sigma_v2, scenario.P
        base_norms = np.sqrt(np.sum(np.abs(scenario.H) ** 2, axis=0))
    chunk = max(1, simulate._CHUNK_BYTES // (16 * (K + design.P) * N))
    lam_min, lam_max = np.empty(trials), np.empty(trials)
    for lo in range(0, trials, chunk):
        seeds = trial_seed(seed, np.arange(lo, min(lo + chunk, trials), dtype=np.uint64))
        Y = gen_noise(K, N, sigma_v2, seeds ^ NOISE_TAG)
        if scenario is not None:
            H = scenario.H
            if redraw_channel:
                g = SeededStream(seeds ^ CHANNEL_TAG).standard_complex_normal((K, P))
                H = g * (base_norms / np.sqrt(np.sum(np.abs(g) ** 2, axis=-2)))[:, None, :]
            Y = H @ gen_signal(P, N, scenario.modulation, scenario.sigma2, seeds ^ SIGNAL_TAG) + Y
        w = np.linalg.eigvalsh((Y @ Y.conj().swapaxes(-1, -2)) / N)
        lam_min[lo : lo + seeds.size], lam_max[lo : lo + seeds.size] = w[:, 0], w[:, -1]
    return TrialBatch(design, scenario, int(seed), trials, float(sigma_v2), lam_max, lam_min)
