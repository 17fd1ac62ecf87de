"""Monte Carlo validation harness.

Draws seeded noise-only and signal-plus-noise trials, takes the extreme
eigenvalues of each trial's sample covariance (1/N) Y Y^H and their
ratio statistic, and compares empirical CDFs against analytical laws.

Seed discipline (all pinned, see :mod:`eigendetect.rng` for the word
stream itself):

* trial ``i`` of a batch uses ``trial_seed(seed, i) = seed XOR mix(i)``;
* a trial draws from ``trial_seed XOR WISHART_TAG`` one real bidiagonal
  ``B`` for a noise-only or one-source batch, otherwise one Bartlett factor
  ``L`` of Wishart(N, I_{K+P});
* from ``trial_seed XOR SIGNAL_TAG`` it draws the unit-power signal matrix
  ``Z`` of two or more non-Gaussian sources (row ``p`` of a signal matrix
  from ``gen_signal`` uses ``seed XOR mix(p)``), and of one source only
  what ``||z||^2`` needs (see :func:`_row_norm2`);
* a redrawn channel comes from ``trial_seed XOR CHANNEL_TAG``.

Trials run in chunks: a chunk's trial seeds are one ``trial_seed`` call
over its array of trial indices, each draw above is made once for that
whole array (see :class:`eigendetect.rng.SeededStream`), and the Gram
matrices are factored and solved as one stack (the tridiagonals are
bisected as one array).  Row t of a chunk is bit for bit trial t's own
draw, so the chunk size changes no output.

With S = Sigma^(1/2) Z, Y / sigma_v = W X for W = [H Sigma^(1/2) / sigma_v, I_K]
and X = [Z; V / sigma_v].  Gaussian X is white of dimension K + P, so X X^H
has the law of L L^H, and a trial takes the eigenvalues of
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
source enters only through ||z||^2, drawn per modulation as :func:`_row_norm2`
states.
These batches take lambda_min and lambda_max of the tridiagonal
sigma_v2 B B^T / N by Sturm-count bisection, with no Gram matrix.  After its
first sweeps the bisection tests regula-falsi points of det(T - s I) rather
than bit midpoints; the count is monotone in s, so it returns the doubles of
bisecting on bit midpoints alone, in about a third of the sweeps (see
:func:`_tridiagonal_extremes`).

The channel is held fixed across the trials of a batch (one coherent
sensing epoch); ``redraw_channel=True`` redraws it per trial with the
per-source received powers preserved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError
from .rng import SeededStream, _word, mix
from .spiked import DetectorDesign, Modulation, Scenario, _agree, _as_modulation, _integers, snr

__all__ = [
    "SIGNAL_TAG",
    "CHANNEL_TAG",
    "WISHART_TAG",
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

SIGNAL_TAG = 0x417E4AD3C2A9D96B
CHANNEL_TAG = 0x9C8F12E07B3D5A17
WISHART_TAG = 0x6A09E667F3BCC908
# _tridiagonal_extremes: bit-midpoint sweeps before the first regula-falsi test point; the
# sweeps over which a bracket must halve in bits to keep off its bit midpoint; the rows
# per block of the pivot product
_PREFIX = 10
_HALVING = 4
_RESCALE = 16
# about this many bytes of draws per chunk of trials
_CHUNK_BYTES = 1 << 19

_SRRC_ROLLOFF = 0.5
_SRRC_SPS = 8      # samples per symbol
_SRRC_SPAN = 10    # pulse truncation, in symbols


def trial_seed(seed: int, index: int | np.ndarray):
    """Per-trial seed: batch seed XOR a hash of the trial index (entrywise for an array)."""
    return _word(seed, "trial_seed") ^ mix(_word(index, "trial_seed", "index", rows=True))


def gen_noise(K: int, N: int, sigma_v2: float, seed) -> np.ndarray:
    """K x N circularly symmetric complex Gaussian noise, E|v|^2 = sigma_v2 (per seed)."""
    if not (_integers(K, N) and min(K, N) >= 1):
        raise DomainError("gen_noise: K and N must be positive integers")
    if not 0.0 < sigma_v2 < math.inf:
        raise DomainError("gen_noise: sigma_v2 must be positive and finite")
    z = SeededStream(_word(seed, "gen_noise", rows=True)).standard_complex_normal((K, N))
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
    (``seeds`` a uint64 array), drawing only what it needs: one Gamma(N) from the stream of
    seeds[t] for a Gaussian row; exactly N for QPSK and non-coherent PSK (constant modulus),
    drawing nothing; for SRRC QPSK, over the signs re, im of the row's own symbols (from
    ``seeds[t] XOR mix(0)``), (1/2) sum_j G_0[j] (re_j^2 + im_j^2) + sum_{d=1..10} sum_j G_d[j]
    (re_j re_{j+d} + im_j im_{j+d}), G_d the d-th diagonal of A^T A for the real map A from
    symbols to samples (:func:`_srrc_gram`); and the sum of a whole uniform row, drawn in
    blocks of about ``_CHUNK_BYTES``."""
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
    seed = _word(seed, "gen_signal", rows=True)
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
    seed = _word(seed, "scenario_from_component_snrs")
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
    """Per-trial extreme eigenvalues of one MC run, and their ratio statistics."""

    design: DetectorDesign
    scenario: Scenario | None
    seed: int
    trials: int
    sigma_v2: float
    lambda_max: np.ndarray
    lambda_min: np.ndarray

    def __post_init__(self):
        for name in ("lambda_max", "lambda_min"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.trials,) or not np.all(np.isfinite(arr)):
                raise DomainError(f"TrialBatch: {name} must have one finite entry per trial")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (np.all(self.lambda_min > 0.0) and np.all(self.lambda_max >= self.lambda_min)):
            raise DomainError("TrialBatch: requires lambda_max >= lambda_min > 0")

    @property
    def t_stat(self) -> np.ndarray:
        """The ratio statistic lambda_max / lambda_min of each trial."""
        return self.lambda_max / self.lambda_min


def run_trials(
    design: DetectorDesign,
    scenario: Scenario | None = None,
    trials: int = 1000,
    seed: int = 0,
    sigma_v2: float = 1.0,
    redraw_channel: bool = False,
) -> TrialBatch:
    """Run seeded MC trials of the ratio detector; bit-reproducible per seed in [0, 2^64).

    ``sigma_v2`` sets the noise floor for noise-only batches; with a
    scenario supplied, its own noise variance is used.  A batch whose eigensolve
    raises, or leaves some lambda_min <= 0 or lambda_max not finite, raises
    ``NumericError``.
    """
    if not (_integers(trials) and trials >= 1):
        raise DomainError("run_trials: trials must be an integer >= 1")
    seed = _word(seed, "run_trials")
    if scenario is not None:
        _agree(design, scenario, "run_trials")
        sigma_v2 = scenario.sigma_v2
    if not 0.0 < sigma_v2 < math.inf:
        raise DomainError("run_trials: sigma_v2 must be positive and finite")
    draw, draw_bytes = _trial_draw(design, scenario, sigma_v2, redraw_channel)
    chunk = max(1, _CHUNK_BYTES // draw_bytes)

    # a freed 4 MB block lifts glibc's mmap threshold: trial arrays then stay on its heap
    np.empty(1 << 22, np.uint8)
    lam_max = np.empty(trials)
    lam_min = np.empty(trials)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        seeds = trial_seed(seed, np.arange(lo, hi, dtype=np.uint64))
        try:
            lam_min[lo:hi], lam_max[lo:hi] = draw(seeds)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"run_trials: eigensolver failed in trials {lo}..{hi - 1}") from exc
    # eigvalsh can round lambda_min to <= 0 without raising (at very high SNR, say)
    resolved = (lam_min > 0.0) & (lam_max < math.inf)
    if not resolved.all():
        raise NumericError(f"run_trials: eigensolve left lambda_min <= 0 or lambda_max not finite "
                           f"in {trials - np.count_nonzero(resolved)} of {trials} trials")

    return TrialBatch(
        design=design,
        scenario=scenario,
        seed=seed,
        trials=trials,
        sigma_v2=float(sigma_v2),
        lambda_max=lam_max,
        lambda_min=lam_min,
    )


def _trial_draw(design, scenario, sigma_v2, redraw_channel):
    """The batch's route, as ``(draw, draw_bytes)``: ``draw(trial_seeds) -> (lambda_min,
    lambda_max)`` gives one entry per trial seed, and about ``draw_bytes`` of draws per trial
    set the chunk size.  It bisects B B^T for at most one source (drawing of its source
    only what ||z||^2 needs, see :func:`_row_norm2`) and factors W L for more."""
    K, N, P = design.K, design.N, 0
    if scenario is not None:
        H, P, sigma2 = scenario.H, scenario.P, scenario.sigma2
    scale = sigma_v2 / N
    if P <= 1:
        # the law depends on the channel only through sigma^2 ||h||^2, which a redrawn one keeps
        spike = 0.0 if scenario is None else sigma2[0] * np.sum(np.abs(H) ** 2) / sigma_v2

        def draw(seeds):
            norm2 = 0.0 if scenario is None else _row_norm2(N, scenario.modulation,
                                                            seeds ^ SIGNAL_TAG)
            stream = SeededStream(seeds ^ WISHART_TAG)
            # diag and offsq are built as rows of C entries, the layout the solver sweeps,
            # and go in as their transposes, so that it copies neither
            g = stream.wishart_bidiagonal(K, N, np.sqrt(spike * norm2)).T
            diag, offsq = g[:K].copy(), np.multiply(g[: K - 1], g[K:], order="C")
            diag[1:] += g[K:]
            del g  # freed before the solver's arrays
            lam_min, lam_max = _tridiagonal_extremes(diag.T, offsq.T)
            return lam_min * scale, lam_max * scale

        return draw, 8 * (2 * K - 1)

    base_norms = np.sqrt(np.sum(np.abs(H) ** 2, axis=0))

    def channel(seeds):
        if not redraw_channel:
            return H
        g = SeededStream(seeds ^ CHANNEL_TAG).standard_complex_normal((K, P))
        norms = np.sqrt(np.sum(np.abs(g) ** 2, axis=-2))
        return g * (base_norms / norms)[:, None, :]

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
    end held at 0).  Each sweep tests one point inside each extreme's bracket of every
    row, and the count moves one end of the bracket to it, until each bracket is two
    adjacent non-negative doubles.  The count is monotone in s (Demmel, Dhillon & Ren
    1995), so which points are tested changes no double returned, and neither do the
    other rows: the result is that of bisecting on bit midpoints alone.

    Test points: the first ``_PREFIX`` sweeps bisect on bits.  Then a bracket tests the
    regula-falsi point of f = +-det(T - s I), signed so that f > 0 below its extreme
    and f < 0 above (:func:`_pivot_det`, from the same sweep's pivots), held strictly
    inside; an end kept twice in a row has its f scaled by 1 - f_new / f_old of the end
    that moved, or by 1/2 where that is not in (0, 1) (Anderson & Bjorck 1973).  A
    bracket bisects on bits instead whenever its ends' f do not straddle 0 (another
    eigenvalue inside, say) or are not finite, or it did not halve over the last
    ``_HALVING`` sweeps, so it halves at least once every ``_HALVING + 1`` sweeps.
    """
    K = diag.shape[1]
    a, e2 = np.ascontiguousarray(diag.T), np.ascontiguousarray(offsq.T)  # rows of C entries
    e, radius = np.sqrt(e2), np.zeros_like(a)
    radius[:-1] += e
    radius[1:] += e
    lo, hi = np.min(a - radius, axis=0), np.max(a + radius, axis=0)
    del e, radius  # freed before the copy below
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(e2, axis=0))
    fudge = 2.1 * np.finfo(float).eps * K * np.maximum(np.abs(lo), hi)
    lo = np.tile(np.maximum(lo - fudge - 4.2 * pivmin, 0.0), (2, 1)).view(np.uint64)
    hi = np.tile(hi + fudge + 2.1 * pivmin, (2, 1)).view(np.uint64)
    # K - 1 x 2 x C, one copy per extreme, so that no division broadcasts
    e2 = e2[:, None, :].repeat(2, axis=1)

    q, ratio = np.empty((K,) + lo.shape), np.empty(lo.shape)
    rows = list(zip(q[1:], q[:-1], e2))
    blocks = [q[i : i + _RESCALE] for i in range(0, K, _RESCALE)]
    spare = np.empty(blocks[0].shape)
    # det(T - s I) has the sign of (-1)^(eigenvalues below s): f flips it for lambda_max
    sign = np.array([[1.0], [1.0 if K % 2 else -1.0]])

    def sweep(s, guard):
        """The pivots of T - s I into q, with or without the pivmin guard."""
        np.subtract(a, s[0], out=q[:, 0])
        np.subtract(a, s[1], out=q[:, 1])
        for q_i, q_prev, e2_prev in rows:
            if guard:
                np.copyto(q_prev, -pivmin, where=np.abs(q_prev) < pivmin)
            np.divide(e2_prev, q_prev, out=ratio)
            np.subtract(q_i, ratio, out=q_i)
        if guard:
            np.copyto(q[-1], -pivmin, where=np.abs(q[-1]) < pivmin)

    pivmax = pivmin.max()
    one = np.uint64(1)
    below, moved = np.empty(lo.shape, dtype=bool), np.zeros(lo.shape, dtype=bool)
    m_lo = m_hi = np.full(lo.shape, np.nan)
    E_lo = E_hi = np.zeros(lo.shape, dtype=np.int32)
    widths = [hi - lo] * _HALVING
    with np.errstate(all="ignore"):
        for n in itertools.count():
            width = hi - lo
            if not (width > one).any():
                break
            test = (lo + hi) >> one
            if n >= _PREFIX:
                # lo + t (hi - lo) for t = f_lo / (f_lo - f_hi), in [0, 1] when f_lo and f_hi
                # straddle 0, held strictly inside the bracket
                t = m_lo / (m_lo - np.ldexp(m_hi, E_hi - E_lo))
                lo_s, hi_s = lo.view(float), hi.view(float)
                point = (lo_s + t * (hi_s - lo_s)).view(np.uint64)
                point = np.minimum(np.maximum(point, lo + one), hi - one)
                falsi = (t >= 0.0) & (t <= 1.0) & (width > one) & (width <= widths[0] >> one)
                test = np.where(falsi, point, test)
            widths = widths[1:] + [width]
            sweep(test.view(float), guard=False)
            # the unguarded sweep is the guarded one unless some pivot needed the guard
            if not all(np.abs(b, out=spare[: len(b)]).min() >= pivmax for b in blocks):
                sweep(test.view(float), guard=True)
            # a negative pivot per eigenvalue below the test point: any for lambda_min, all
            # for lambda_max
            np.less(q[:, 0].min(axis=0), 0.0, out=below[0])
            np.less(q[:, 1].max(axis=0), 0.0, out=below[1])
            m, E = _pivot_det(q)
            m *= sign
            # an end kept twice in a row scales its f by 1 - f_new / f_old of the end that
            # moved, where that lies in (0, 1), else by 1/2
            kept = np.where(below, m_lo, m_hi)
            scale = 1.0 - np.ldexp(m / np.where(below, m_hi, m_lo),
                                   E - np.where(below, E_hi, E_lo))
            scale = np.where((scale > 0.0) & (scale < 1.0), scale, 0.5)
            kept = np.where(below == moved, scale * kept, kept)
            m_lo, m_hi = np.where(below, kept, m), np.where(below, m, kept)
            E_lo, E_hi = np.where(below, E_lo, E), np.where(below, E, E_hi)
            moved, below = below, moved
            lo, hi = np.where(moved, lo, test), np.where(moved, test, hi)
    return lo.view(float)


def _pivot_det(q):
    """det(T - s I) = m 2^E from the pivots q (K x ...) of T - s I, as ``(m, E)`` over q's
    other axes: the rows are multiplied in blocks of ``_RESCALE`` and each block's product is
    split by frexp, so nothing overflows for K below about 1000 ``_RESCALE``."""
    m, E = np.frexp(np.stack([np.multiply.reduce(q[i : i + _RESCALE])
                              for i in range(0, len(q), _RESCALE)]))
    return np.prod(m, axis=0), E.sum(axis=0, dtype=np.int32)


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
            "# K=%d N=%d seed=%d trials=%d modulation=%s snr=%.10g\n"
            % (batch.design.K, batch.design.N, batch.seed, batch.trials, mod, rho)
        )
        fh.write("trial,lambda_max,lambda_min,t\n")
        for i, row in enumerate(zip(batch.lambda_max, batch.lambda_min, batch.t_stat)):
            fh.write("%d,%.12e,%.12e,%.12e\n" % (i, *row))


def dump_cdf_comparison_csv(path, batch: TrialBatch, cdf) -> None:
    """Write ``gamma,empirical,analytical`` rows over the sorted sample."""
    xs = np.sort(batch.t_stat)
    emp = np.arange(1, xs.size + 1) / xs.size
    ana = np.asarray(cdf(xs), dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("gamma,empirical,analytical\n")
        for g, e, a in zip(xs, emp, ana):
            fh.write("%.12e,%.12e,%.12e\n" % (g, e, a))
