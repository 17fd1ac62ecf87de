"""Monte Carlo validation harness.

Generates noise-only and signal-plus-noise sample batches, forms the
sample covariance (1/N) Y Y^H per trial, extracts the extreme
eigenvalues and the ratio statistic, and compares empirical CDFs
against analytical laws.

Seed discipline (all pinned, see :mod:`eigendetect.rng` for the word
stream itself):

* trial ``i`` of a batch uses ``trial_seed(seed, i) = seed XOR mix(i)``;
  a trial whose eigensolve fails is redrawn once from
  ``trial_seed XOR _RETRY_TAG``;
* the ``"direct"`` sampler draws the noise matrix from
  ``trial_seed XOR NOISE_TAG`` and the signal matrix from
  ``trial_seed XOR SIGNAL_TAG``; row ``p`` of a signal matrix uses
  ``seed XOR mix(p)``;
* the ``"wishart"`` sampler draws from ``trial_seed XOR WISHART_TAG`` one
  real bidiagonal ``B`` for a noise-only or one-source batch, otherwise one
  Bartlett factor ``L`` of Wishart(N, I_{K+P}); from ``trial_seed XOR
  SIGNAL_TAG`` it draws the unit-power signal matrix ``Z`` of two or more
  non-Gaussian sources, and of one source only ``||z||^2``: one Gamma(N)
  for a Gaussian row, nothing for QPSK and non-coherent PSK (``||z||^2 =
  N``), the QPSK symbols of an SRRC row (``||z||^2`` is a banded form in
  them; they are the row's own words, from ``seed XOR mix(0)``), and a
  whole uniform row;
* either sampler draws a redrawn channel from ``trial_seed XOR CHANNEL_TAG``.

Trials run in chunks: a chunk's trial seeds are one ``trial_seed`` call
over its array of trial indices, each draw above is made once for that
whole array (see :class:`eigendetect.rng.SeededStream`), and the Gram
matrices are factored and solved as one stack (the tridiagonals are
bisected as one array).  Row t of a chunk is bit for bit trial t's own
draw, so the chunk size changes no output; a chunk whose eigensolve fails
is redone one trial at a time.

With S = Sigma^(1/2) Z, Y / sigma_v = W X for W = [H Sigma^(1/2) / sigma_v, I_K]
and X = [Z; V / sigma_v].  Gaussian X is white of dimension K + P, so X X^H
has the law of L L^H, and the ``"wishart"`` sampler takes the eigenvalues of
sigma_v2 (W L)(W L)^H / N without forming Y.  For other sources Z = R^H Q^H
(R is P x P, from the QR of Z^H); a unitary rotation of the samples whose
first P columns are Q leaves V white, so the same holds with L's leading
P x P block replaced by R^H (for K + P > N, L is (K + P) x N, lower-trapezoidal).
With at most one source z, rotating C^K onto h and the samples onto z
leaves Y / sigma_v white but for the mean s = sigma ||h|| ||z|| / sigma_v of
its entry (0, 0) (s = 0 under noise only; a redrawn channel keeps ||h||), so
Y Y^H / sigma_v^2 has the eigenvalues of B B^T for a real bidiagonal B of
2K - 1 chi entries whose first squared entry is |s + g|^2 + Gamma(N - 1), g a
unit complex normal (Dumitriu & Edelman 2002; Bloemendal & Virag 2013).  The
source enters only through ||z||^2: one Gamma(N) draw for a Gaussian row,
exactly N for a constant-modulus QPSK or non-coherent PSK row, for SRRC QPSK
(1/2) sum_j G_0[j] (re_j^2 + im_j^2) + sum_{d=1..10} sum_j G_d[j] (re_j re_{j+d}
+ im_j im_{j+d}) over the signs re, im of its symbols, G_d the d-th diagonal
of A^T A for the real map A from symbols to samples, and the drawn row's own
sum for a uniform one.
These batches take lambda_min and lambda_max of the tridiagonal
sigma_v2 B B^T / N by Sturm-count bisection, with no Gram matrix.
Wishart is the default; ``"direct"`` alone reproduces a seeded result
recorded before the Wishart sampler covered the batch.

The channel is held fixed across the trials of a batch (one coherent
sensing epoch); ``redraw_channel=True`` redraws it per trial with the
per-source received powers preserved.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError
from .rng import SeededStream, mix
from .spiked import DetectorDesign, Modulation, Scenario, _as_modulation, _integers, snr

__all__ = [
    "NOISE_TAG",
    "SIGNAL_TAG",
    "CHANNEL_TAG",
    "WISHART_TAG",
    "SAMPLERS",
    "trial_seed",
    "gen_noise",
    "gen_signal",
    "scenario_from_snr",
    "scenario_from_component_snrs",
    "run_trials",
    "TrialBatch",
    "ks_distance",
    "dump_batch_csv",
    "dump_cdf_comparison_csv",
]

NOISE_TAG = 0xB5EA2C49E1D7A3F1
SIGNAL_TAG = 0x417E4AD3C2A9D96B
CHANNEL_TAG = 0x9C8F12E07B3D5A17
WISHART_TAG = 0x6A09E667F3BCC908
_RETRY_TAG = 0x243F6A8885A308D3
# about this many bytes of draws per chunk of trials
_CHUNK_BYTES = 1 << 19

SAMPLERS = ("direct", "wishart")

_SRRC_ROLLOFF = 0.5
_SRRC_SPS = 8      # samples per symbol
_SRRC_SPAN = 10    # pulse truncation, in symbols


def trial_seed(seed: int, index: int | np.ndarray):
    """Per-trial seed: batch seed XOR a hash of the trial index (entrywise for an array)."""
    return (int(seed) & (2 ** 64 - 1)) ^ mix(index)


def _check_seed(seed, caller: str) -> None:
    if isinstance(seed, np.ndarray) and seed.dtype == np.uint64:
        return  # a chunk's trial seeds
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise DomainError(f"{caller}: seed must be an integer in [0, 2^64)")


def gen_noise(K: int, N: int, sigma_v2: float, seed) -> np.ndarray:
    """K x N circularly symmetric complex Gaussian noise, E|v|^2 = sigma_v2 (per seed)."""
    if not (_integers(K, N) and min(K, N) >= 1):
        raise DomainError("gen_noise: K and N must be positive integers")
    if not 0.0 < sigma_v2 < math.inf:
        raise DomainError("gen_noise: sigma_v2 must be positive and finite")
    _check_seed(seed, "gen_noise")
    z = SeededStream(seed).standard_complex_normal((K, N))
    return math.sqrt(sigma_v2) * z


def _srrc_pulse() -> np.ndarray:
    """Unit-energy square-root raised cosine taps (roll-off 0.5, 8 sps, 10-symbol span)."""
    a = _SRRC_ROLLOFF
    k = np.arange(-_SRRC_SPAN * _SRRC_SPS // 2, _SRRC_SPAN * _SRRC_SPS // 2 + 1)
    t = k / _SRRC_SPS
    g = np.empty_like(t)
    sing = np.isclose(np.abs(t), 1.0 / (4.0 * a))
    zero = t == 0.0
    body = ~(sing | zero)
    tb = t[body]
    g[body] = (
        np.sin(np.pi * tb * (1 - a)) + 4 * a * tb * np.cos(np.pi * tb * (1 + a))
    ) / (np.pi * tb * (1 - (4 * a * tb) ** 2))
    g[zero] = 1.0 - a + 4 * a / np.pi
    g[sing] = (a / math.sqrt(2.0)) * (
        (1 + 2 / np.pi) * math.sin(np.pi / (4 * a))
        + (1 - 2 / np.pi) * math.cos(np.pi / (4 * a))
    )
    return g / np.linalg.norm(g)


_SRRC_TAPS = _srrc_pulse()


def _qpsk_signs(stream: SeededStream, n: int):
    """The real and imaginary signs (+-1.0) of n QPSK symbols."""
    re = np.where(stream.uniform_open(n) > 0.5, 1.0, -1.0)
    im = np.where(stream.uniform_open(n) > 0.5, 1.0, -1.0)
    return re, im


def _unit_qpsk(stream: SeededStream, n: int) -> np.ndarray:
    re, im = _qpsk_signs(stream, n)
    return (re + 1j * im) * math.sqrt(0.5)


def _srrc_symbols(n: int) -> int:
    """Symbols behind an SRRC row of n samples."""
    return -(-n // _SRRC_SPS) + _SRRC_SPAN + 2


@lru_cache(maxsize=16)
def _srrc_gram(n: int) -> tuple:
    """``(G_0 / 2, G_1, ..., G_SPAN)``: G_d is the d-th diagonal of A^T A for the n x n_sym
    map A that takes the symbols of an SRRC row to its n samples (column j holds
    sqrt(sps) taps[k] at sample k + sps j - start, where that lies in [0, n)).  With G_0
    halved, ||z||^2 = sum_d sum_j gram[d][j] (re_j re_{j+d} + im_j im_{j+d}) for the signs
    re, im of the row's symbols."""
    taps = _SRRC_TAPS * math.sqrt(_SRRC_SPS)
    start, n_sym = taps.size - 1, _srrc_symbols(n)
    j = _SRRC_SPS * np.arange(n_sym)
    # column j keeps taps [lo_j, hi_j); only the ~2 SPAN edge columns differ from the rest
    windows, which = np.unique(np.clip(np.stack([start - j, n + start - j], axis=1), 0, taps.size),
                               axis=0, return_inverse=True)
    k = np.arange(taps.size)
    inside = (k >= windows[:, :1]) & (k < windows[:, 1:])
    gram = []
    for d in range(_SRRC_SPAN + 1):
        # pair (j, j + d) meets at tap k of column j and k - sps d of column j + d
        pair = np.zeros(taps.size)
        pair[_SRRC_SPS * d :] = taps[_SRRC_SPS * d :] * taps[: taps.size - _SRRC_SPS * d]
        g = np.sum(np.where(inside, pair, 0.0), axis=-1)[which[: n_sym - d]]
        g = 0.5 * g if d == 0 else g
        g.setflags(write=False)
        gram.append(g)
    return tuple(gram)


def _unit_row(stream: SeededStream, n: int, modulation: Modulation) -> np.ndarray:
    """One zero-mean, unit-variance complex sample row."""
    if modulation is Modulation.GAUSSIAN:
        return stream.standard_complex_normal(n)
    if modulation is Modulation.QPSK:
        return _unit_qpsk(stream, n)
    if modulation is Modulation.QPSK_SRRC:
        n_sym = _srrc_symbols(n)
        sym = _unit_qpsk(stream, n_sym)
        up = np.zeros(sym.shape[:-1] + (n_sym * _SRRC_SPS,), dtype=complex)
        up[..., :: _SRRC_SPS] = sym
        shaped = np.apply_along_axis(np.convolve, -1, up, _SRRC_TAPS, mode="full")
        # skip one full filter length so every kept sample sees a fully
        # populated pulse window; sqrt(sps) restores unit average power
        start = _SRRC_TAPS.size - 1
        return shaped[..., start : start + n] * math.sqrt(_SRRC_SPS)
    if modulation is Modulation.PSK_NONCOHERENT:
        theta = 2.0 * np.pi * stream.uniform_open(n)
        return np.exp(1j * theta)
    if modulation is Modulation.UNIFORM_COMPLEX:
        half = math.sqrt(1.5)  # per-component variance 1/2 on [-a, a]
        re = half * (2.0 * stream.uniform_open(n) - 1.0)
        im = half * (2.0 * stream.uniform_open(n) - 1.0)
        return re + 1j * im


def _row_norm2(N: int, modulation: Modulation, seeds: np.ndarray):
    """||z||^2 of each unit-power row z = gen_signal(1, N, modulation, [1.0], seeds[t]), in law
    (``seeds`` a uint64 array): one Gamma(N) from the stream of seeds[t] for a Gaussian row;
    N for a constant-modulus one (QPSK, non-coherent PSK), drawing nothing; and the row's own
    value otherwise, for SRRC QPSK as the form of :func:`_srrc_gram` in its symbols alone."""
    if modulation is Modulation.GAUSSIAN:
        return SeededStream(seeds).standard_gamma([N])[:, 0]
    if modulation in (Modulation.QPSK, Modulation.PSK_NONCOHERENT):
        return float(N)
    if modulation is Modulation.QPSK_SRRC:
        re, im = _qpsk_signs(SeededStream(seeds ^ mix(0)), _srrc_symbols(N))
        n = re.shape[-1]
        # per-row sums: a BLAS product over the chunk would round by the chunk's row count
        return sum(np.sum(g * (re[:, : n - d] * re[:, d:] + im[:, : n - d] * im[:, d:]), axis=-1)
                   for d, g in enumerate(_srrc_gram(N)))
    sub = max(1, _CHUNK_BYTES // (16 * N))  # rows per block of about _CHUNK_BYTES
    return np.concatenate([
        np.sum(np.abs(gen_signal(1, N, modulation, [1.0], seeds[lo : lo + sub])) ** 2,
               axis=(-2, -1))
        for lo in range(0, seeds.size, sub)])


def gen_signal(P: int, N: int, modulation, sigma2, seed) -> np.ndarray:
    """P x N source samples (per seed): independent rows, row p has variance sigma2[p]."""
    if not (_integers(P, N) and min(P, N) >= 1):
        raise DomainError("gen_signal: P and N must be positive integers")
    modulation = _as_modulation(modulation)
    sigma2 = np.asarray(sigma2, dtype=float).reshape(-1)
    if sigma2.shape[0] != P:
        raise DomainError("gen_signal: sigma2 must hold one power per source")
    if not np.all((sigma2 > 0.0) & (sigma2 < math.inf)):
        raise DomainError("gen_signal: source powers must be positive and finite")
    _check_seed(seed, "gen_signal")
    seed = int(seed) if np.ndim(seed) == 0 else seed
    out = np.empty(np.shape(seed) + (P, N), dtype=complex)
    for p in range(P):
        stream = SeededStream(seed ^ mix(p))
        out[..., p, :] = math.sqrt(sigma2[p]) * _unit_row(stream, N, modulation)
    return out


def scenario_from_snr(
    K: int,
    target_snr: float,
    sigma_v2: float = 1.0,
    modulation=Modulation.GAUSSIAN,
    seed: int = 0,
) -> Scenario:
    """Random-channel single-source scenario with unit source power and exact SNR."""
    return scenario_from_component_snrs(K, [target_snr], sigma_v2, modulation, seed)


def scenario_from_component_snrs(
    K: int,
    component_snrs,
    sigma_v2: float = 1.0,
    modulation=Modulation.GAUSSIAN,
    seed: int = 0,
) -> Scenario:
    """Random-channel scenario with each per-source SNR pinned exactly.

    Entries of the K x P channel are i.i.d. complex Gaussian; column p is
    then rescaled so sigma_p^2 ||h_p||^2 / (K sigma_v2) equals
    component_snrs[p] (unit source powers).
    """
    if not (_integers(K) and K >= 1):
        raise DomainError("scenario_from_component_snrs: K must be a positive integer")
    _check_seed(seed, "scenario_from_component_snrs")
    snrs = np.asarray(component_snrs, dtype=float).reshape(-1)
    if not (np.all((snrs > 0.0) & (snrs < math.inf)) and 0.0 < sigma_v2 < math.inf):
        raise DomainError("scenario_from_component_snrs: SNRs and sigma_v2 must be "
                          "positive and finite")
    P = snrs.shape[0]
    g = SeededStream(seed).standard_complex_normal((K, P))
    norms2 = np.sum(np.abs(g) ** 2, axis=0)
    H = g * np.sqrt(snrs * K * sigma_v2 / norms2)[None, :]
    return Scenario(H, np.ones(P), sigma_v2, modulation)


@dataclass(frozen=True)
class TrialBatch:
    """Per-trial extreme eigenvalues and ratio statistics of one MC run."""

    design: DetectorDesign
    scenario: Scenario | None
    seed: int
    trials: int
    sigma_v2: float
    lambda_max: np.ndarray
    lambda_min: np.ndarray
    t_stat: np.ndarray
    sampler: str
    retries: int

    def __post_init__(self):
        for name in ("lambda_max", "lambda_min", "t_stat"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.trials,) or not np.all(np.isfinite(arr)):
                raise DomainError(f"TrialBatch: {name} must have one finite entry per trial")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (np.all(self.lambda_min > 0.0) and np.all(self.lambda_max >= self.lambda_min)):
            raise DomainError("TrialBatch: requires lambda_max >= lambda_min > 0")


def run_trials(
    design: DetectorDesign,
    scenario: Scenario | None = None,
    trials: int = 1000,
    seed: int = 0,
    sigma_v2: float = 1.0,
    redraw_channel: bool = False,
    sampler: str = "wishart",
) -> TrialBatch:
    """Run seeded MC trials of the ratio detector; bit-reproducible per seed in [0, 2^64).

    ``sigma_v2`` sets the noise floor for noise-only batches; with a
    scenario supplied, its own noise variance is used.  ``sampler`` is
    ``"wishart"`` or ``"direct"``.
    """
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise DomainError("run_trials: trials must be an integer >= 1")
    _check_seed(seed, "run_trials")
    if scenario is not None:
        if scenario.K != design.K:
            raise DomainError("run_trials: design and scenario disagree on K")
        if scenario.P != design.P:
            raise DomainError("run_trials: design and scenario disagree on P")
        sigma_v2 = scenario.sigma_v2
    if not 0.0 < sigma_v2 < math.inf:
        raise DomainError("run_trials: sigma_v2 must be positive and finite")
    if sampler not in SAMPLERS:
        raise DomainError(f"run_trials: unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    draw, draw_bytes = _trial_draw(design, scenario, sigma_v2, redraw_channel, sampler)
    chunk = max(1, _CHUNK_BYTES // draw_bytes)

    # a freed 4 MB block lifts glibc's mmap threshold: trial arrays then stay on its heap
    np.empty(1 << 22, np.uint8)
    lam_max = np.empty(trials)
    lam_min = np.empty(trials)

    def solved(rows, seeds):
        try:
            lam_min[rows], lam_max[rows] = draw(seeds)
        except np.linalg.LinAlgError:
            return False
        return True

    failed = []
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        seeds = trial_seed(seed, np.arange(lo, hi, dtype=np.uint64))
        if solved(slice(lo, hi), seeds):
            continue
        # one trial at a time; a failed trial is redrawn once from trial_seed ^ _RETRY_TAG
        for i in range(lo, hi):
            one = seeds[i - lo : i - lo + 1]
            if solved(slice(i, i + 1), one):
                continue
            failed.append(i)
            retried = solved(slice(i, i + 1), one ^ _RETRY_TAG)
            if not retried or len(failed) > max(1, trials // 1000):
                raise NumericError(
                    f"run_trials: eigensolver failed on {len(failed)} of {trials} trials"
                )

    return TrialBatch(
        design=design,
        scenario=scenario,
        seed=int(seed),
        trials=trials,
        sigma_v2=float(sigma_v2),
        lambda_max=lam_max,
        lambda_min=lam_min,
        t_stat=lam_max / lam_min,
        sampler=sampler,
        retries=len(failed),
    )


def _trial_draw(design, scenario, sigma_v2, redraw_channel, sampler):
    """The batch's route, as ``(draw, draw_bytes)``: ``draw(trial_seeds) -> (lambda_min,
    lambda_max)`` gives one entry per trial seed, and about ``draw_bytes`` of draws per trial
    set the chunk size.  ``"wishart"`` bisects B B^T for at most one source (drawing of its
    source only what ||z||^2 needs: uniform rows whole, in blocks of about ``_CHUNK_BYTES``)
    and factors W L for more."""
    K, N, P = design.K, design.N, 0
    if scenario is not None:
        H, P, sigma2 = scenario.H, scenario.P, scenario.sigma2
        base_norms = np.sqrt(np.sum(np.abs(H) ** 2, axis=0))

    def channel(seeds):
        if not redraw_channel:
            return H
        g = SeededStream(seeds ^ CHANNEL_TAG).standard_complex_normal((K, P))
        norms = np.sqrt(np.sum(np.abs(g) ** 2, axis=-2))
        return g * (base_norms / norms)[:, None, :]

    if sampler == "direct":
        def draw(seeds):
            Y = gen_noise(K, N, sigma_v2, seeds ^ NOISE_TAG)
            if scenario is not None:
                Y = channel(seeds) @ gen_signal(P, N, scenario.modulation, sigma2,
                                                seeds ^ SIGNAL_TAG) + Y
            w = np.linalg.eigvalsh((Y @ Y.conj().swapaxes(-1, -2)) / N)
            return w[:, 0], w[:, -1]

        return draw, 16 * (K + design.P) * N

    scale = sigma_v2 / N
    if P <= 1:
        # the law depends on the channel only through sigma^2 ||h||^2, which a redrawn one keeps
        spike = 0.0 if scenario is None else sigma2[0] * np.sum(np.abs(H) ** 2) / sigma_v2

        def draw(seeds):
            norm2 = 0.0 if scenario is None else _row_norm2(N, scenario.modulation,
                                                            seeds ^ SIGNAL_TAG)
            stream = SeededStream(seeds ^ WISHART_TAG)
            g = stream.wishart_bidiagonal(K, N, np.sqrt(spike * norm2))
            x2, y2 = g[:, :K], g[:, K:]
            diag = x2.copy()
            diag[:, 1:] += y2
            lam_min, lam_max = _tridiagonal_extremes(diag, x2[:, :-1] * y2)
            return lam_min * scale, lam_max * scale

        return draw, 8 * (2 * K - 1)

    def mixing(H):
        """W = [H Sigma^(1/2) / sigma_v, I_K], so that Y / sigma_v = W [Z; V / sigma_v]."""
        eye = np.broadcast_to(np.eye(K), H.shape[:-1] + (K,))
        return np.concatenate([H * np.sqrt(sigma2 / sigma_v2), eye], axis=-1)

    def draw(seeds):
        M = SeededStream(seeds ^ WISHART_TAG).wishart_factor(K + P, N)
        if scenario.modulation is not Modulation.GAUSSIAN:
            # Z = R^H Q^H: QR also factors the rank-deficient Z of discrete symbols
            Z = gen_signal(P, N, scenario.modulation, np.ones(P), seeds ^ SIGNAL_TAG)
            M[..., :P, :P] = np.linalg.qr(Z.conj().swapaxes(-1, -2),
                                          mode="r").conj().swapaxes(-1, -2)
        M = mixing(channel(seeds)) @ M
        w = np.linalg.eigvalsh(M @ M.conj().swapaxes(-1, -2))
        return w[:, 0] * scale, w[:, -1] * scale

    # a Gaussian batch draws no P x N source block
    source_bytes = 0 if scenario.modulation is Modulation.GAUSSIAN else P * N
    return draw, 16 * (K * (K + P) + source_bytes)


def _tridiagonal_extremes(diag, offsq):
    """(lambda_min, lambda_max) of each positive semi-definite tridiagonal T, one per row
    of ``diag`` (K entries) and ``offsq`` (its K - 1 squared off-diagonal entries).

    Sturm-count bisection, as LAPACK ``dstebz``: the pivots of T - s I count the
    eigenvalues below s, a pivot smaller than ``pivmin`` in magnitude counts as
    ``-pivmin`` (so a zero pivot counts as negative and the next one stays finite), and
    the search starts from Gershgorin's interval widened by ``dstebz``'s fudge (its lower
    end held at 0).  Both extremes of every row bisect together on the bit patterns of
    non-negative doubles until each interval is two adjacent doubles, a fixed point of
    the step, so a row's result does not depend on the other rows.
    """
    K = diag.shape[1]
    a, e2 = diag.T[:, None, :], offsq.T[:, None, :]  # K x 1 x C, against 2 x C brackets
    e, radius = np.sqrt(e2), np.zeros_like(a)
    radius[:-1] += e
    radius[1:] += e
    lo, hi = np.min(a - radius, axis=0), np.max(a + radius, axis=0)
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(e2, axis=0))
    fudge = 2.1 * np.finfo(float).eps * K * np.maximum(np.abs(lo), hi)
    lo = np.maximum(lo - fudge - 4.2 * pivmin, 0.0).repeat(2, axis=0).view(np.uint64)
    hi = (hi + fudge + 2.1 * pivmin).repeat(2, axis=0).view(np.uint64)

    q, ratio = np.empty((K,) + lo.shape), np.empty(lo.shape)
    rows = list(zip(q[1:], q[:-1], e2))

    def sweep(s, guard):
        """The pivots of T - s I into q, with or without the pivmin guard."""
        np.subtract(a, s, out=q)
        for q_i, q_prev, e2_prev in rows:
            if guard:
                np.copyto(q_prev, -pivmin, where=np.abs(q_prev) < pivmin)
            np.divide(e2_prev, q_prev, out=ratio)
            np.subtract(q_i, ratio, out=q_i)
        if guard:
            np.copyto(q[-1], -pivmin, where=np.abs(q[-1]) < pivmin)

    below = np.empty(lo.shape, dtype=bool)
    pivmax = pivmin.max()
    with np.errstate(all="ignore"):
        while (hi - lo > 1).any():
            mid = (lo + hi) >> np.uint64(1)
            sweep(mid.view(float), guard=False)
            # the unguarded sweep is the guarded one unless some pivot needed the guard
            if not np.abs(q).min() >= pivmax:
                sweep(mid.view(float), guard=True)
            # a negative pivot per eigenvalue below mid: any for lambda_min, all for lambda_max
            np.less(q[:, 0].min(axis=0), 0.0, out=below[0])
            np.less(q[:, 1].max(axis=0), 0.0, out=below[1])
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
    return lo.view(float)


def ks_distance(batch, cdf) -> float:
    """Kolmogorov-Smirnov statistic sup_x |empirical CDF - analytical CDF|.

    The empirical CDF steps from (i-1)/n to i/n at the i-th order statistic
    x_i, so the sup is the larger of D+ = max(i/n - F(x_i)) and
    D- = max(F(x_i-) - (i-1)/n).  F(x_i-) is taken one ulp below x_i: for a
    continuous F that is F(x_i), and a step F keeps its left limit.
    """
    values = batch.t_stat if isinstance(batch, TrialBatch) else np.asarray(batch, float)
    n = values.size
    if values.ndim != 1 or n < 100 or not np.all(np.isfinite(values)):
        raise DomainError("ks_distance: needs a 1-D sample of at least 100 finite values")
    xs = np.sort(values)
    F = np.asarray([cdf(xs), cdf(np.nextafter(xs, -np.inf))], dtype=float)  # at, below x_i
    if not np.all((F >= 0.0) & (F <= 1.0)):
        raise DomainError("ks_distance: cdf values must be finite and within [0, 1]")
    steps = np.arange(n + 1) / n
    return float(max(np.max(steps[1:] - F[0]), np.max(F[1] - steps[:-1])))


def dump_batch_csv(path, batch: TrialBatch) -> None:
    """Write per-trial results; a leading comment records the batch setup."""
    if batch.scenario is None:
        mod, rho = "none", 0.0
    else:
        mod, rho = batch.scenario.modulation.value, snr(batch.scenario)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            "# K=%d N=%d seed=%d trials=%d modulation=%s snr=%.10g sampler=%s retries=%d\n"
            % (batch.design.K, batch.design.N, batch.seed, batch.trials, mod, rho,
               batch.sampler, batch.retries)
        )
        fh.write("trial,lambda_max,lambda_min,t\n")
        for i in range(batch.trials):
            fh.write(
                "%d,%.12e,%.12e,%.12e\n"
                % (i, batch.lambda_max[i], batch.lambda_min[i], batch.t_stat[i])
            )


def dump_cdf_comparison_csv(path, batch: TrialBatch, cdf) -> None:
    """Write ``gamma,empirical,analytical`` rows over the sorted sample."""
    xs = np.sort(batch.t_stat)
    emp = np.arange(1, xs.size + 1) / xs.size
    ana = np.asarray(cdf(xs), dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("gamma,empirical,analytical\n")
        for g, e, a in zip(xs, emp, ana):
            fh.write("%.12e,%.12e,%.12e\n" % (g, e, a))
