"""Deterministic counter-based random number generation.

Trial reproducibility is a hard contract of the simulator, so the whole
generation chain is pinned here rather than delegated to a library whose
stream may change between releases:

* Raw words.  Word ``i`` (0-based) of the stream with 64-bit seed ``s`` is
  ``mix64((s + (i+1)*GAMMA) mod 2^64)`` with ``GAMMA = 0x9E3779B97F4A7C15``
  and ``mix64`` the SplitMix64 finalizer
  (``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
  z ^= z>>31``).  Words are a pure function of (seed, index): any chunking
  of requests yields identical output.
* Uniforms.  ``u_i = ((w_i >> 11) + 1) * 2^-53``, i.e. uniform on (0, 1].
* Gaussians.  Box-Muller on the open interval: to produce ``n`` normals,
  draw ``m = ceil(n/2)`` radius uniforms then ``m`` angle uniforms (in
  stream order), and set ``z_{2j} = r_j cos(2 pi a_j)``,
  ``z_{2j+1} = r_j sin(2 pi a_j)`` with ``r_j = sqrt(-2 ln u_j)``; the
  trailing value is dropped when ``n`` is odd.
* Complex normals.  Real parts first, then imaginary parts, combined as
  ``(x + i y) / sqrt(2)`` (unit total variance), reshaped C-order.
* Gammas.  Marsaglia-Tsang (2000) for shapes ``a_j >= 1``, with
  ``d_j = a_j - 1/3`` and ``c_j = 1 / sqrt(9 d_j)``, drawn in rounds.  For
  ``n`` shapes a round takes ``n`` normals (the rule above, so
  ``2 ceil(n/2)`` words), then ``n`` uniforms, for every entry whether or
  not it has already accepted, so a round always consumes the same words.
  Entry ``j`` with normal ``x`` and uniform ``u`` forms ``t = 1 + c_j x``,
  ``v = t * t * t`` and accepts when ``v > 0`` and
  ``log(u) < 0.5 * x * x + d_j - d_j * v + d_j * log(v)`` (evaluated left
  to right); it keeps ``d_j v`` from its first accepting round.  Rounds
  stop once every entry has accepted.
* Wishart factors (Bartlett).  ``L`` is K x m with ``m = min(K, N)``:
  complex normals placed in C order at the strictly lower positions
  (those of ``numpy.tri(K, m, -1)``; every row from N on is all strictly
  lower), then ``m`` gammas of shapes ``N, N-1, ..., N-m+1`` whose square
  roots form the real diagonal.  The lower-trapezoidal ``L`` has
  ``L L^H`` complex Wishart(N, I_K), the law of ``Z Z^H`` for a K x N
  matrix ``Z = L Q`` of unit complex normals (Dumitriu & Edelman 2002;
  for K > N the singular Wishart, Srivastava 2003).  The simulator draws
  one of size K + P from ``trial_seed XOR WISHART_TAG`` for P >= 2 sources.
* Wishart bidiagonals (K < N).  One gamma draw of the 2K - 1 shapes
  ``N-1, N-1, N-2, ..., N-K+1, K-1, K-2, ..., 1``, then one complex normal
  ``g``: the squared diagonal ``x_0^2 .. x_{K-1}^2`` then the squared
  sub-diagonal ``y_0^2 .. y_{K-2}^2`` of a real lower-bidiagonal ``B``, and
  ``x_0^2`` gains ``|s + g|^2``.  ``B B^T`` has the eigenvalues of ``X X^H``
  for a K x N X of unit complex normals but for the real mean ``s`` of its
  entry (0, 0), whose row then has squared norm ``|s + g|^2 + Gamma(N-1)``
  (Dumitriu & Edelman 2002; a rank-one signal moves only the first row,
  Bloemendal & Virag 2013).  The simulator draws it from
  ``trial_seed XOR WISHART_TAG`` for at most one source: s = 0 for none, and
  ``s = sigma ||h|| ||z|| / sigma_v`` for a unit-power source row ``z``, whose
  ``||z||^2`` each modulation draws as :func:`eigendetect.simulate._row_norm2`
  states.

A stream over a 1-D array of seeds is that many of these streams side by
side, each with its own cursor: every draw gains a leading row axis, and
row t is bit for bit the draw of the scalar stream of seed t.  A gamma draw
runs its rounds over blocks of rows, each round jointly over the block's rows
still open, so each row consumes the whole rounds it would consume alone.
The simulator draws a chunk of trials this way (see
:mod:`eigendetect.simulate`).

Derived seeds (per-trial, per-row) are produced with :func:`mix`, a
SplitMix64-style hash of the counter (each of an array of counters, so a
chunk's trial seeds are one array call), XORed into the parent seed.  A
counter obeys the rule of a seed: an integer in [0, 2^64), not a bool
(numpy integer scalars included), or where a call takes one per row a 1-D
integer-dtype array of them; anything else raises ``DomainError`` rather
than wrap or round onto another counter.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = ["mix", "SeededStream"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_TWO53 = float(2 ** -53)
_ROUND_VALUES = 1 << 14  # about this many entries per gamma round, over a block of rows


def _mix64(z):
    """SplitMix64 finalizer, in place on a uint64 array (0-d included), which it returns."""
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=shifted)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=shifted)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=shifted)
    return z


def _word(value, caller: str, name: str = "seed", rows: bool = False):
    """The one rule for a seed or a counter: an integer in [0, 2^64), not a bool (numpy
    integer scalars included), returned as an int; with ``rows``, also a 1-D integer-dtype
    array of them, returned as a uint64 array (an unsigned array needs no scan)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and 0 <= value < 2 ** 64:
        return int(value)
    if (rows and isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iu"
            and (value.dtype.kind == "u" or np.all(value >= 0))):
        return value.astype(np.uint64, copy=False)
    raise DomainError(f"{caller}: {name} must be an integer in [0, 2^64)")


def mix(counter):
    """64-bit hash of a counter, for deriving child seeds; a 1-D integer array of counters
    gives the uint64 array of their hashes."""
    word = np.array(_word(counter, "mix", "counter", rows=True), np.uint64)
    with np.errstate(over="ignore"):
        word += _ONE
        word *= _GAMMA
        _mix64(word)
    return int(word) if word.ndim == 0 else word


class SeededStream:
    """Sequential view over the word streams of a seed, or of a 1-D integer array of seeds
    (one cursor per row; row t of a draw is the draw of ``SeededStream(seeds[t])``).
    A seed is an integer in [0, 2^64), not a bool (numpy integer scalars included)."""

    def __init__(self, seed):
        seed = _word(seed, "SeededStream", rows=True)
        self._lead = np.shape(seed)
        self._seed = np.asarray(seed, dtype=np.uint64).reshape(-1)
        self._cursor = np.zeros(self._seed.size, dtype=np.uint64)

    def _words(self, n: int) -> np.ndarray:
        start = self._cursor
        self._cursor = start + np.uint64(n)
        z = start[:, None] + np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z *= _GAMMA
            z += self._seed[:, None]
            return _mix64(z).reshape(self._lead + (n,))

    def uniform_open(self, n: int) -> np.ndarray:
        """n uniforms on the open-left interval (0, 1]."""
        return (((self._words(n) >> _S11) + _ONE)).astype(np.float64) * _TWO53

    def standard_normal(self, n: int) -> np.ndarray:
        m = (n + 1) // 2
        radius = self.uniform_open(m)
        angle = self.uniform_open(m)
        r = np.sqrt(-2.0 * np.log(radius))
        theta = (2.0 * np.pi) * angle
        pairs = np.empty(self._lead + (m, 2))
        pairs[..., 0] = r * np.cos(theta)
        pairs[..., 1] = r * np.sin(theta)
        return pairs.reshape(self._lead + (2 * m,))[..., :n]

    def standard_complex_normal(self, shape) -> np.ndarray:
        """Circularly symmetric complex normals with unit total variance."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        x = self.standard_normal(n)
        y = self.standard_normal(n)
        return ((x + 1j * y) * np.sqrt(0.5)).reshape(self._lead + shape)

    def standard_gamma(self, shape) -> np.ndarray:
        """Gamma(a, 1) draws, one per shape a >= 1, by rounds of Marsaglia-Tsang."""
        a = np.asarray(shape, dtype=float)
        if not np.all(a >= 1.0):
            raise DomainError("standard_gamma: shapes must be >= 1")
        d = a.reshape(-1) - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        out = np.empty((self._seed.size, d.size))
        todo = np.ones(out.shape, dtype=bool)
        step = max(1, _ROUND_VALUES // d.size)  # rows per block
        for first in range(0, self._seed.size, step):
            rows = np.arange(first, min(first + step, self._seed.size))
            while rows.size:
                # a round draws words only for the rows with an entry still open
                sub = object.__new__(SeededStream)
                sub._lead, sub._seed, sub._cursor = rows.shape, self._seed[rows], self._cursor[rows]
                x, u = sub.standard_normal(d.size), sub.uniform_open(d.size)
                self._cursor[rows] = sub._cursor
                t = 1.0 + c * x
                v = t * t * t
                with np.errstate(invalid="ignore", divide="ignore"):
                    ok = (v > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v))
                out[rows] = np.where(todo[rows] & ok, d * v, out[rows])
                todo[rows] &= ~ok
                rows = rows[todo[rows].any(axis=1)]
        return out.reshape(self._lead + a.shape)

    def wishart_factor(self, K: int, N: int) -> np.ndarray:
        """Lower-trapezoidal K x min(K, N) L with L L^H complex Wishart(N, I_K) (Bartlett)."""
        m = min(K, N)
        L = np.zeros((self._seed.size, K, m), dtype=complex)
        flat = L.reshape(self._seed.size, -1)
        below = _strict_lower(K, m)
        flat[:, below] = self.standard_complex_normal(below.size)
        flat[:, : m * m : m + 1] = np.sqrt(self.standard_gamma(N - np.arange(m)))
        return L.reshape(self._lead + (K, m))

    def wishart_bidiagonal(self, K: int, N: int, s) -> np.ndarray:
        """Squared entries ``[x_0^2..x_{K-1}^2, y_0^2..y_{K-2}^2]`` of a lower-bidiagonal B
        whose B B^T has the eigenvalues of X X^H for a K x N X of unit complex normals but
        for the real mean ``s`` (one per row of the stream) of its entry (0, 0)."""
        g = self.standard_gamma(np.concatenate([[N - 1], N - np.arange(1, K),
                                                np.arange(K - 1, 0, -1)]))
        g[..., 0] += np.abs(s + self.standard_complex_normal(())) ** 2
        return g


@lru_cache(maxsize=16)
def _strict_lower(K: int, m: int) -> np.ndarray:
    """Flat C-order positions of ``numpy.tri(K, m, -1)`` (read-only, shared)."""
    positions = np.flatnonzero(np.tri(K, m, -1, dtype=bool))
    positions.setflags(write=False)
    return positions
