"""Analytical detector performance.

Builds the limiting law of the eigenvalue ratio T under each hypothesis
(Tracy-Widom edges for the noise case, Gaussian spike over a Tracy-Widom
floor for the signal case), evaluates false-alarm and missed-detection
probabilities by quadrature, and inverts them into decision thresholds.

The ratio CDF is computed as a single quadrature over the denominator
density,

    F_T(gamma) = int_0^inf f_den(x) F_num(gamma x) dx,

which equals the integral of the textbook ratio density by Fubini and
needs one Gauss-Legendre rule instead of a nested one.  The noise
variance cancels in the ratio, so no law below takes it as a parameter;
the signal-present law depends on the scenario only through the top
spike eigenvalue t1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, EigendetectError, NotIdentifiableError, NumericError
from .spiked import DetectorDesign, spike_from_snr
from .tracy_widom import default_table, invert_cdf

__all__ = [
    "EdgeLaw",
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

_QUAD_NODES = 256
_SUPPORT_SIGMAS = 12.0       # numerator scales past which its CDF is exactly 1
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
class EdgeLaw:
    """One edge of the spectrum: distribution kind plus centering/scaling.

    ``scale`` keeps its sign (negative for the lower edge, whose
    fluctuations are a reflected Tracy-Widom); ``rate`` is the exponent
    of N in the convergence rate.
    """

    kind: str  # "tracy_widom" | "gaussian"
    center: float
    scale: float
    rate: float

    def sigma(self, n_samples: int) -> float:
        return abs(self.scale) * n_samples ** (-self.rate)


@dataclass(frozen=True)
class RatioLaw:
    """Limiting law of T = lambda_max / lambda_min under one hypothesis."""

    hypothesis: str  # "H0" | "H1"
    design: DetectorDesign
    numerator: EdgeLaw
    denominator: EdgeLaw
    t1: float | None = None
    # built once, self-checked: denominator nodes x (ascending), weights w * f_den(x)
    _x: np.ndarray = field(init=False, repr=False, compare=False)
    _wx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, wx = self._rule(_QUAD_NODES)
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_wx", wx)
        self._self_check()

    def _rule(self, nodes: int):
        """Gauss-Legendre nodes x and weights w * f_den(x) on the Tracy-Widom table's
        grid mapped to x (clipped at x >= 0): off it the table pdf, f_den, is 0."""
        table = default_table()
        center, s = self.denominator.center, self.denominator.sigma(self.design.N)
        lo = max(0.0, center - table.grid[-1] * s)
        hi = center - table.grid[0] * s
        u, w = _gauss_legendre(nodes)
        x = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
        wx = 0.5 * (hi - lo) * w * (table.pdf((center - x) / s) / s)
        return x, wx

    # -- numerator CDF / PDF ------------------------------------------------
    def _num_cdf(self, y):
        s = self.numerator.sigma(self.design.N)
        z = (np.asarray(y, float) - self.numerator.center) / s
        if self.numerator.kind == "gaussian":
            return ndtr(z)
        return default_table().cdf(z)

    def _num_pdf(self, y):
        s = self.numerator.sigma(self.design.N)
        z = (np.asarray(y, float) - self.numerator.center) / s
        if self.numerator.kind == "gaussian":
            return np.exp(-0.5 * z ** 2) / (s * math.sqrt(2.0 * math.pi))
        return default_table().pdf(z) / s

    def cdf(self, gamma):
        """F_T(gamma); zero for gamma <= 1 (eigenvalue ordering)."""
        g = np.atleast_1d(np.asarray(gamma, float))
        out = np.clip(self._num_cdf(g[:, None] * self._x) @ self._wx, 0.0, 1.0)
        out[g <= 1.0] = 0.0
        return out if np.ndim(gamma) else float(out[0])

    def pdf(self, t):
        """Ratio density int_0^inf x f_num(t x) f_den(x) dx, for t > 1."""
        t_arr = np.atleast_1d(np.asarray(t, float))
        out = self._num_pdf(t_arr[:, None] * self._x) @ (self._x * self._wx)
        out[t_arr <= 1.0] = 0.0
        return out if np.ndim(t) else float(out[0])

    def center_ratio(self) -> float:
        return self.numerator.center / self.denominator.center

    def _self_check(self) -> None:
        """Node-doubling consistency of the quadrature at a reference point."""
        g = self.center_ratio()
        x2, wx2 = self._rule(2 * _QUAD_NODES)
        a = float(self._num_cdf(g * self._x) @ self._wx)
        b = float(self._num_cdf(g * x2) @ wx2)
        if abs(a - b) > _SELF_CHECK_TOL:
            raise NumericError(
                f"ratio-law quadrature self-check failed: |{a!r} - {b!r}| > {_SELF_CHECK_TOL}"
            )


def centering_constants(
    design: DetectorDesign, hypothesis: str, t1: float | None = None
) -> RatioLaw:
    """Populate the ratio law of T for the requested hypothesis.

    Under "H1" the top spike eigenvalue ``t1`` must exceed the
    phase-transition point with a small safety margin (the Gaussian
    fluctuation scale vanishes at the transition).
    """
    if hypothesis == "H0":
        return _h0_law(design)
    if hypothesis == "H1":
        if t1 is None:
            raise DomainError("centering_constants: t1 required under H1")
        return _h1_law(design, float(t1))
    raise DomainError(f"centering_constants: unknown hypothesis {hypothesis!r}")


@lru_cache(maxsize=128)
def _h0_law(design: DetectorDesign) -> RatioLaw:
    c = design.c
    return RatioLaw(
        hypothesis="H0",
        design=design,
        numerator=EdgeLaw("tracy_widom", mu_plus(c), nu_plus(c), 2.0 / 3.0),
        denominator=EdgeLaw("tracy_widom", mu_minus(c), nu_minus(c), 2.0 / 3.0),
    )


@lru_cache(maxsize=128)
def _h1_law(design: DetectorDesign, t1: float) -> RatioLaw:
    c = design.c
    if not math.isfinite(t1):
        raise DomainError(f"t1 must be finite, got {t1!r}")
    threshold = (1.0 + math.sqrt(c)) * (1.0 + _CRITICAL_MARGIN)
    if t1 < threshold:
        raise NotIdentifiableError(
            f"t1={t1:.6g} does not clear the phase transition 1+sqrt(c)={1 + math.sqrt(c):.6g}; "
            "the ratio statistic then follows the noise-only law (use hypothesis='H0')"
        )
    try:
        numerator = EdgeLaw("gaussian", mu_spike(t1, c), nu_spike(t1, c), 0.5)
    except OverflowError:
        raise DomainError(f"t1={t1:.6g} is too large: (t1-1)^2 overflows") from None
    cp = design.c_prime
    return RatioLaw(
        hypothesis="H1",
        design=design,
        numerator=numerator,
        denominator=EdgeLaw("tracy_widom", mu_minus(cp), nu_minus(cp), 2.0 / 3.0),
        t1=t1,
    )


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
    """gamma in [1, gamma_sat] with law.cdf(gamma) = level for each level in (0, 1), and
    per level None or its error: a level above F_T(gamma_sat) is out of reach, and a
    residual above _INVERT_TOL is a failed inversion.

    F_T(1) = 0.  Past gamma_sat every node x >= x_min puts gamma x at least
    _SUPPORT_SIGMAS numerator scales above its center, where the numerator CDF is
    exactly 1, so F_T(gamma_sat) is the law's full quadrature mass.  The seed grid
    between them pairs numerator and denominator quantiles at the same z.
    """
    num, den, n = law.numerator, law.denominator, law.design.N
    g_sat = (num.center + _SUPPORT_SIGMAS * num.sigma(n)) / law._x[0]
    x = np.maximum(den.center - _SEED_Z * den.sigma(n), law._x[0])
    grid = np.r_[1.0, np.clip((num.center + _SEED_Z * num.sigma(n)) / x, 1.0, g_sat), g_sat]
    f_grid = law.cdf(grid)
    top = float(f_grid[-1])
    reach = levels <= top
    gammas, residual = np.full(levels.shape, np.nan), np.zeros(levels.shape)
    gammas[reach], residual[reach] = invert_cdf(law.cdf, law.pdf, levels[reach], grid, f_grid)
    lost = DomainError(
        f"target out of reach: the {law.hypothesis} ratio CDF only covers [0, {top!r}]; "
        f"its truncated quadrature window holds all but {1.0 - top:.3g} of the law's mass"
    )
    failed = NumericError("threshold inversion did not meet the 1e-6 residual bound")
    return gammas, [lost if not ok else failed if r > _INVERT_TOL else None
                    for ok, r in zip(reach, residual)]


def _thresholds(law: RatioLaw, levels: np.ndarray) -> np.ndarray:
    """_invert's thresholds; the first failing level raises its error."""
    gammas, errors = _invert(law, levels)
    for exc in errors:
        if exc is not None:
            raise exc
    return gammas


def threshold_from_pfa(target: float, design: DetectorDesign) -> float:
    """gamma such that pfa(gamma) = target (to 1e-6).

    A target below the H0 law's truncated mass (2.2e-12 at K=50, N=1000) raises
    DomainError; every c <= 0.9 at N=1000 inverts, and at c = 0.95 the law's
    self-check raises NumericError.
    """
    if not 0.0 < target < 1.0:
        raise DomainError("threshold_from_pfa: pfa must lie in (0,1)")
    return float(_thresholds(_h0_law(design), np.array([1.0 - target]))[0])


def threshold_from_pmd(target: float, design: DetectorDesign, t1: float) -> float:
    """gamma such that pmd(gamma, t1) = target (to 1e-6).

    A target above the H1 law's quadrature mass raises DomainError.
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
    ps = sorted(set(float(p) for p in pfa_list))
    if not all(0.0 < p < 1.0 for p in ps):
        raise DomainError("build_lut: pfa must lie in (0,1)")
    rows = []
    for K in sorted(set(int(k) for k in k_list)):
        for N in sorted(set(int(n) for n in n_list)):
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
