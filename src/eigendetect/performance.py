"""Analytical detector performance.

Builds the limiting law of the eigenvalue ratio T under each hypothesis
(Tracy-Widom edges for the noise case, Gaussian spike over a Tracy-Widom
floor for the signal case), evaluates false-alarm and missed-detection
probabilities by quadrature, and inverts them into decision thresholds.

The ratio CDF is one Gauss-Legendre quadrature over the numerator density,

    F_T(gamma) = int f_num(y) F_TW((c_den - y / gamma) / s_den) dy,

the chance that lambda_min = c_den - s_den Z_TW is positive and at least
lambda_max / gamma (Fubini on the textbook ratio density).  Both hypotheses
read only the Tracy-Widom table: the signal's Gaussian spike enters as
weights.  The noise variance cancels in the ratio, so a law is the pair
(design, t1): (K, N) alone under H0, and (K, N, P) plus the top spike
eigenvalue t1 under H1.  ``RatioLaw`` derives its edge centres and scales
from the paper's constants mu_plus/nu_plus, mu_minus/nu_minus and
mu_spike/nu_spike.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, EigendetectError, NotIdentifiableError, NumericError
from .spiked import DetectorDesign, spike_from_snr
from .tracy_widom import default_table, invert_cdf

__all__ = [
    "RatioLaw",
    "LutRow",
    "mu_plus",
    "mu_minus",
    "nu_plus",
    "nu_minus",
    "mu_spike",
    "nu_spike",
    "centering_constants",
    "pfa",
    "pmd",
    "threshold_from_pfa",
    "threshold_from_pmd",
    "roc",
    "build_lut",
    "write_lut_csv",
    "write_roc_csv",
]

_QUAD_NODES = 128
_SPIKE_SIGMAS = 8.5          # Gaussian numerator window half-width: 1e-17 mass beyond each end
_SELF_CHECK_TOL = 1e-8       # node-doubling agreement required at startup
_CRITICAL_MARGIN = 1e-6      # refuse spikes within this relative margin of 1+sqrt(c)
_INVERT_TOL = 1e-6
_SEED_Z = np.linspace(-5.0, 5.0, 11)  # edge-law scales spanned by the inversion's seed grid


def mu_plus(c: float) -> float:
    """Upper bulk edge (sqrt(c) + 1)^2."""
    return (math.sqrt(c) + 1.0) ** 2


def mu_minus(c: float) -> float:
    """Lower bulk edge (sqrt(c) - 1)^2."""
    return (math.sqrt(c) - 1.0) ** 2


def nu_plus(c: float) -> float:
    """Upper-edge fluctuation scale (sqrt(c)+1)(1/sqrt(c)+1)^(1/3)."""
    return (math.sqrt(c) + 1.0) * (1.0 / math.sqrt(c) + 1.0) ** (1.0 / 3.0)


def nu_minus(c: float) -> float:
    """Lower-edge fluctuation scale; negative on c in (0, 1)."""
    return (math.sqrt(c) - 1.0) * (1.0 / math.sqrt(c) - 1.0) ** (1.0 / 3.0)


def mu_spike(t1: float, c: float) -> float:
    """Almost-sure limit of the top eigenvalue above the transition."""
    return t1 * (1.0 + c / (t1 - 1.0))


def nu_spike(t1: float, c: float) -> float:
    """Gaussian fluctuation scale of the separated top eigenvalue."""
    return t1 * math.sqrt(1.0 - c / (t1 - 1.0) ** 2)


@dataclass(frozen=True)
class RatioLaw:
    """Limiting law of T = lambda_max / lambda_min: the noise-only (H0) law when ``t1``
    is None, else the signal-present (H1) law of the top spike eigenvalue ``t1``.

    The pair (design, t1) fixes the law; its edges are derived once from the paper's
    constants.  The numerator is Tracy-Widom at mu_plus(c), scale nu_plus(c) N^(-2/3),
    under H0, and Gaussian at mu_spike(t1, c), scale nu_spike(t1, c) N^(-1/2), under H1.
    The denominator is the reflected Tracy-Widom lower edge at mu_minus, scale
    |nu_minus| N^(-2/3), of c under H0 and of c' = (K - P) / N under H1.
    """

    design: DetectorDesign
    t1: float | None = None
    num_center: float = field(init=False, compare=False)
    num_sigma: float = field(init=False, compare=False)
    den_center: float = field(init=False, compare=False)
    den_sigma: float = field(init=False, compare=False)
    # built once, self-checked: numerator nodes y (ascending, y[0] = 0), weights w * f_num(y)
    _y: np.ndarray = field(init=False, repr=False, compare=False)
    _wy: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, t1 = self.design, self.t1
        if t1 is None:
            num, c_den = (mu_plus(d.c), nu_plus(d.c) * d.N ** (-2.0 / 3.0)), d.c
        else:
            if not math.isfinite(t1):
                raise DomainError(f"t1 must be finite, got {t1!r}")
            if t1 < d.critical_t1 * (1.0 + _CRITICAL_MARGIN):
                raise NotIdentifiableError(
                    f"t1={t1:.6g} does not clear the phase transition 1+sqrt(c)="
                    f"{d.critical_t1:.6g}; below it the noise-only (H0) law applies"
                )
            try:
                num, c_den = (mu_spike(t1, d.c), nu_spike(t1, d.c) * d.N ** (-0.5)), d.c_prime
            except OverflowError:
                raise DomainError(f"t1={t1:.6g} is too large: (t1-1)^2 overflows") from None
        den = mu_minus(c_den), abs(nu_minus(c_den)) * d.N ** (-2.0 / 3.0)
        for name, value in zip(("num_center", "num_sigma", "den_center", "den_sigma"), num + den):
            object.__setattr__(self, name, value)
        for name, value in zip(("_y", "_wy"), self._rule(_QUAD_NODES)):
            object.__setattr__(self, name, value)
        self._self_check()

    @property
    def hypothesis(self) -> str:
        return "H0" if self.t1 is None else "H1"

    def _rule(self, nodes: int):
        """Gauss-Legendre nodes y and weights w * f_num(y), scaled to the numerator CDF's mass,
        on its window (the Tracy-Widom grid or +-_SPIKE_SIGMAS) clipped at y >= 0, after a node
        y = 0 holding the mass below the window: lambda_max <= 0 < lambda_min makes T <= 0."""
        center, s = self.num_center, self.num_sigma
        if self.t1 is None:
            table = default_table()
            (z_lo, z_hi), density, below = table.grid[[0, -1]], table.pdf, table.cdf
        else:
            (z_lo, z_hi), density = (-_SPIKE_SIGMAS, _SPIKE_SIGMAS), lambda z: np.exp(-0.5 * z * z)
            below = lambda ends: [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in ends]
        z_lo = max(z_lo, -center / s)
        u, w = _gauss_legendre(nodes)
        z = 0.5 * (z_hi - z_lo) * u + 0.5 * (z_hi + z_lo)
        (f_lo, f_hi), wz = below(np.array([z_lo, z_hi])), w * density(z)
        wz *= (f_hi - f_lo) / wz.sum()
        return np.concatenate(([0.0], center + s * z)), np.concatenate(([f_lo], wz))

    def _den_z(self, gamma, y):
        """Tracy-Widom argument (c_den - y / gamma) / s_den of P(lambda_min >= y / gamma)
        on the grid gamma x y, with gamma read at 1 or above."""
        return (self.den_center - y / np.maximum(gamma, 1.0)[:, None]) / self.den_sigma

    def cdf(self, gamma):
        """F_T(gamma); zero for gamma <= 1 (eigenvalue ordering)."""
        g = np.atleast_1d(np.asarray(gamma, float))
        # one dot per gamma: a matrix product would round by the call's row count
        out = np.clip(np.vecdot(default_table().cdf(self._den_z(g, self._y)), self._wy), 0.0, 1.0)
        out[g <= 1.0] = 0.0
        return out if np.ndim(gamma) else float(out[0])

    def pdf(self, t):
        """Ratio density int f_num(y) f_TW((c_den - y/t)/s_den) y / (t^2 s_den) dy, for t > 1."""
        t_arr = np.atleast_1d(np.asarray(t, float))
        out = np.vecdot(default_table().pdf(self._den_z(t_arr, self._y)), self._y * self._wy)
        out /= np.maximum(t_arr, 1.0) ** 2 * self.den_sigma
        out[t_arr <= 1.0] = 0.0
        return out if np.ndim(t) else float(out[0])

    def center_ratio(self) -> float:
        return self.num_center / self.den_center

    def _self_check(self) -> None:
        """Node-doubling consistency of the quadrature at a reference point."""
        y2, wy2 = self._rule(2 * _QUAD_NODES)
        n, y = self._y.size, np.concatenate((self._y, y2))  # both rules in one table call
        f = default_table().cdf(self._den_z(np.array([self.center_ratio()]), y))[0]
        a, b = float(np.vecdot(f[:n], self._wy)), float(np.vecdot(f[n:], wy2))
        if abs(a - b) > _SELF_CHECK_TOL:
            raise NumericError(
                f"ratio-law quadrature self-check failed: |{a!r} - {b!r}| > {_SELF_CHECK_TOL}"
            )


# one cache per hypothesis, so a sweep's many signal laws never evict the noise-only ones
_h0_law = lru_cache(maxsize=128)(RatioLaw)
_h1_law = lru_cache(maxsize=128)(RatioLaw)


def centering_constants(
    design: DetectorDesign, hypothesis: str, t1: float | None = None
) -> RatioLaw:
    """The cached ratio law of T under "H0", or under "H1" for the top spike ``t1``,
    which must clear the phase transition by a small relative margin (the Gaussian
    fluctuation scale vanishes at the transition)."""
    if hypothesis == "H0":
        return _h0_law(design)
    if hypothesis == "H1":
        if t1 is None:
            raise DomainError("centering_constants: t1 required under H1")
        return _h1_law(design, float(t1))
    raise DomainError(f"centering_constants: unknown hypothesis {hypothesis!r}")


@lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def pfa(gamma: float, design: DetectorDesign) -> float:
    """False-alarm probability 1 - F_{T|H0}(gamma)."""
    if not gamma >= 1.0:
        raise DomainError("pfa: gamma must be >= 1 (T exceeds 1 by construction)")
    return 1.0 - _h0_law(design).cdf(gamma)


def pmd(gamma: float, design: DetectorDesign, t1: float) -> float:
    """Missed-detection probability F_{T|H1}(gamma) for a spike t1."""
    if not gamma >= 1.0:
        raise DomainError("pmd: gamma must be >= 1 (T exceeds 1 by construction)")
    return float(_h1_law(design, float(t1)).cdf(gamma))


def _invert(law: RatioLaw, levels: np.ndarray):
    """gamma in (1, gamma_sat] with law.cdf(gamma) = level for each level in (0, 1), and
    per level None or its error: a level at or below F_T(1+), or above F_T(gamma_sat),
    is out of reach, and a residual above _INVERT_TOL is a failed inversion.

    F_T(1+), one ulp above 1, is the mass the law puts at T <= 1, which cdf folds into
    a jump at 1.  At gamma_sat = y_max / x_sat every y / gamma is at most x_sat, the
    denominator at the Tracy-Widom table's right edge (floored at 1e-6 c_den if that is
    at lambda_min <= 0), so F_T(gamma_sat) is the law's mass at lambda_min > 0 to 1e-8.
    The seed grid between them pairs numerator and denominator quantiles at the same z.
    """
    x_sat = max(law.den_center - default_table().grid[-1] * law.den_sigma, 1e-6 * law.den_center)
    g_sat = law._y[-1] / x_sat
    g_1 = np.nextafter(1.0, 2.0)
    x = np.maximum(law.den_center - _SEED_Z * law.den_sigma, x_sat)
    grid = np.r_[g_1, np.clip((law.num_center + _SEED_Z * law.num_sigma) / x, g_1, g_sat), g_sat]
    f_grid = law.cdf(grid)
    bottom, top = float(f_grid[0]), float(f_grid[-1])
    reach = (bottom < levels) & (levels <= top)
    gammas, residual = np.full(levels.shape, np.nan), np.zeros(levels.shape)
    gammas[reach], residual[reach] = invert_cdf(law.cdf, law.pdf, levels[reach], grid, f_grid)
    jump = DomainError(f"target out of reach: the {law.hypothesis} limiting law puts "
                       f"{bottom:.2g} of its mass at T <= 1, where the ratio cannot go")
    lost = DomainError(f"target out of reach: the {law.hypothesis} ratio CDF only covers "
                       f"[0, {top!r}]; lambda_min > 0 and the quadrature window hold all "
                       f"but {1.0 - top:.3g} of the law's mass")
    failed = NumericError("threshold inversion did not meet the 1e-6 residual bound")
    return gammas, [jump if lev <= bottom else lost if lev > top else
                    failed if r > _INVERT_TOL else None for lev, r in zip(levels, residual)]


def _thresholds(law: RatioLaw, levels: np.ndarray) -> np.ndarray:
    """_invert's thresholds; the first failing level raises its error."""
    gammas, errors = _invert(law, levels)
    for exc in filter(None, errors):
        raise exc
    return gammas


def threshold_from_pfa(target: float, design: DetectorDesign) -> float:
    """gamma such that pfa(gamma) = target (to 1e-6).

    A target at or above 1 - the H0 law's mass at T <= 1 (0.965 at K=2, N=10) raises
    DomainError, and so does one below the mass it leaves out of reach: the numerator's
    tail past the Tracy-Widom table (3.8e-12 at K=50, N=1000) plus the mass at
    lambda_min <= 0 (4.0e-6 at K=990, N=1000; 6.8e-3 at K=99, N=100).
    """
    if not 0.0 < target < 1.0:
        raise DomainError("threshold_from_pfa: pfa must lie in (0,1)")
    return float(_thresholds(_h0_law(design), np.array([1.0 - target]))[0])


def threshold_from_pmd(target: float, design: DetectorDesign, t1: float) -> float:
    """gamma such that pmd(gamma, t1) = target (to 1e-6).

    A target above the H1 law's quadrature mass, or at or below its mass at T <= 1
    (2.1e-3 at K=2, N=10, t1=6), raises DomainError.
    """
    if not 0.0 < target < 1.0:
        raise DomainError("threshold_from_pmd: target must lie in (0, 1)")
    return float(_thresholds(_h1_law(design, float(t1)), np.array([target], dtype=float))[0])


def roc(design: DetectorDesign, t1: float, pfa_grid) -> np.ndarray:
    """(pfa, pmd) rows: the missed-detection probability at the threshold of each target P_fa.

    The whole grid is inverted on the H0 law in one solve and P_md is one
    vectorised H1 CDF call; column 0 is the grid itself.
    """
    p = np.array(pfa_grid, dtype=float).reshape(-1)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("roc: pfa must lie in (0,1)")
    gammas = _thresholds(_h0_law(design), 1.0 - p)
    return np.column_stack((p, _h1_law(design, float(t1)).cdf(gammas)))


@dataclass(frozen=True)
class LutRow:
    K: int
    N: int
    pfa: float
    gamma: float = math.nan
    snr: float | None = None
    pmd: float | None = None
    error: EigendetectError | None = None  # what a failed cell raised


def build_lut(k_list, n_list, pfa_list, snr: float | None = None) -> tuple[LutRow, ...]:
    """Thresholds for every (K, N, P_fa) combination, sorted.

    Each (K, N) inverts its whole P_fa list at once.  With an SNR supplied,
    each row also records the single-source missed-detection probability at
    its threshold.  Rows whose computation fails carry the exception instead
    of aborting the rest of the table.
    """
    if not (len(k_list) and len(n_list) and len(pfa_list)):
        raise DomainError("build_lut: all grids must be nonempty")
    if not all(isinstance(v, numbers.Real) for v in (*k_list, *n_list)):
        raise DomainError("build_lut: the K and N grids must hold numbers")
    ps = sorted(set(float(p) for p in pfa_list))
    if not all(0.0 < p < 1.0 for p in ps):
        raise DomainError("build_lut: pfa must lie in (0,1)")
    rows = []
    for K in sorted(set(k_list)):
        for N in sorted(set(n_list)):
            gammas, pmds, errors = np.full(len(ps), math.nan), [None] * len(ps), [None] * len(ps)
            try:
                design = DetectorDesign(K=K, N=N)
                gammas, errors = _invert(_h0_law(design), 1.0 - np.array(ps))
                if snr is not None:
                    pmds = _h1_law(design, spike_from_snr(K, snr)).cdf(gammas).tolist()
            except (DomainError, NumericError) as exc:  # a cell's own error comes first
                errors = [e or exc for e in errors]
            rows.extend(LutRow(K, N, p, snr=snr, error=e) if e else LutRow(K, N, p, g, snr, m)
                        for p, g, m, e in zip(ps, gammas.tolist(), pmds, errors))
    return tuple(rows)


def _write_lines(dest, lines) -> None:
    """Write text lines to a path or to an open text stream."""
    if hasattr(dest, "write"):
        dest.writelines(lines)
        return
    with open(dest, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def write_lut_csv(dest, rows) -> None:
    """CSV header ``K,N,pfa,gamma[,snr,pmd]`` to a path or text stream; failed rows are left out."""
    with_snr = any(r.snr is not None for r in rows)
    lines = ["K,N,pfa,gamma,snr,pmd\n" if with_snr else "K,N,pfa,gamma\n"]
    for r in rows:
        if r.error is None:
            cells = "%d,%d,%.10g,%.10g" % (r.K, r.N, r.pfa, r.gamma)
            lines.append(cells + (",%.10g,%.10g\n" % (r.snr, r.pmd) if with_snr else "\n"))
    _write_lines(dest, lines)


def write_roc_csv(dest, points) -> None:
    """CSV header ``pfa,pmd`` to a path or text stream."""
    _write_lines(dest, ["pfa,pmd\n"] + ["%.10g,%.10g\n" % (p, q) for p, q in points])
