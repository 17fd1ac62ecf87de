"""Limiting extreme-eigenvalue distributions.

Two families are provided:

* the Tracy-Widom law of order 2 (complex case), evaluated numerically
  from its Painleve II representation and cached in a lookup table;
* the closed-form laws of the largest eigenvalue of a 1x1 and 2x2
  Gaussian Unitary Ensemble (standard normal, and a compact expression
  in terms of the normal CDF).

Tracy-Widom evaluation
----------------------
Let q be the Hastings-McLeod solution of Painleve II,

    q''(u) = u q(u) + 2 q(u)^3,      q(u) ~ -Ai(u)  (u -> +inf).

The CDF and PDF follow from

    F(x) = exp( -int_x^inf (u - x) q(u)^2 du ),
    f(x) = F(x) * int_x^inf q(u)^2 du.

The reference solve :func:`build_tw2_table` starts from q(u0) = -Ai(u0),
q'(u0) = -Ai'(u0) at u0 = 8 (the decaying side, where backward integration
is stable) and runs DOP853 at relative tolerance 1e-10 down to x = -10,
accumulating int q^2 and int u q^2 as extra state components; the exactly
known primitives of Ai^2 and u Ai^2 supply the [u0, inf) tails.  Its rows
log F, int_x^inf q^2 and q^2 on linspace(-10, 6, 1601) ship as
``tw2_table.npy`` (``np.save(path, build_tw2_table().columns)``), the one
table, read by :func:`default_table`, behind every threshold and the
``tw-table`` CSV, so no caller needs scipy.

Both tables are interpolated in log space by cubic Hermite pieces with
the exact slopes d log F/dx = int q^2 and d log f/dx = int q^2 - q^2 /
int q^2, which keeps the CDF monotone and the PDF positive into both
tails; the CDF is 0 below the grid and 1 above it, the PDF 0 off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "TracyWidomTable",
    "airy_ai",
    "airy_ai_prime",
    "build_tw2_table",
    "default_table",
    "tw2_cdf",
    "tw2_pdf",
    "tw2_quantile",
    "gue_cdf",
    "gue_pdf",
    "dump_table_csv",
]

# Table layout: covers F in [~1e-36, 1 - ~1e-11], enough for any
# threshold computation at practical error-probability targets.
_X_LEFT = -10.0
_X_RIGHT = 6.0
_N_POINTS = 1601
_INV_H = (_N_POINTS - 1) / (_X_RIGHT - _X_LEFT)  # grid points per unit of x
_U0 = 8.0  # matching point where q is set to -Ai
_RTOL = 1e-10  # DOP853 relative tolerance of the reference solve
_BLOCK = 1 << 13  # points per block of a table evaluation

_AIRY_DOMAIN = 200.0


def _airy(u, name):
    """scipy's (Ai, Ai', Bi, Bi') at a finite real |u| <= 200."""
    u = float(u)
    if not abs(u) <= _AIRY_DOMAIN:  # also rejects nan and inf
        raise DomainError(f"{name}: a finite |u| <= {_AIRY_DOMAIN:g} is required, got {u!r}")
    from scipy.special import airy
    return airy(u)


def airy_ai(u: float) -> float:
    """Airy function Ai(u) for real u, |u| <= 200."""
    return float(_airy(u, "airy_ai")[0])


def airy_ai_prime(u: float) -> float:
    """Derivative Ai'(u), same domain as :func:`airy_ai`."""
    return float(_airy(u, "airy_ai_prime")[1])


@dataclass(frozen=True)
class TracyWidomTable:
    """Tracy-Widom (order 2) CDF/PDF on a fixed grid, derived from the solve's ``columns``.

    Immutable after construction; evaluation methods are pure and safe
    to share across threads.
    """

    columns: np.ndarray  # rows log F, int_x^inf q^2, q^2 on grid: the tw2_table.npy data
    grid: np.ndarray = field(init=False)
    cdf_values: np.ndarray = field(init=False)
    pdf_values: np.ndarray = field(init=False)
    # Hermite coefficients c0..c3 of log F and log f per grid interval
    _log_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _log_pdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.linspace(_X_LEFT, _X_RIGHT, _N_POINTS)
        log_cdf, int_q2, q2 = self.columns
        log_pdf = log_cdf + np.log(int_q2)
        cdf_values, pdf_values = np.exp(log_cdf), np.exp(log_pdf)
        if not np.all(np.diff(cdf_values) > 0.0):
            raise NumericError("Tracy-Widom table: CDF not strictly increasing")
        if cdf_values[-1] > 1.0:
            raise NumericError("Tracy-Widom table: CDF above 1")
        mass = float(np.trapezoid(pdf_values, grid))
        if abs(mass - 1.0) > 1e-4:
            raise NumericError(f"Tracy-Widom table: PDF mass {mass!r} outside 1 +/- 1e-4")
        if cdf_values[0] > 1e-8 or cdf_values[-1] < 1.0 - 1e-8:
            raise NumericError("Tracy-Widom table: tails not resolved to 1e-8")
        for arr in (grid, self.columns, cdf_values, pdf_values):
            arr.setflags(write=False)
        derived = dict(grid=grid, cdf_values=cdf_values, pdf_values=pdf_values,
                       _log_cdf=_hermite(log_cdf, int_q2),
                       _log_pdf=_hermite(log_pdf, int_q2 - q2 / int_q2))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(_exp_hermite(self._log_cdf, x))  # a 0-d x gives a scalar
        out[x < _X_LEFT] = 0.0
        out[x > _X_RIGHT] = 1.0
        return out if x.ndim else float(out)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= _X_LEFT) & (x <= _X_RIGHT), _exp_hermite(self._log_pdf, x), 0.0)
        return out if x.ndim else float(out)

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DomainError("tw2_quantile: p must lie in (0, 1)")
        cdf = self.cdf_values
        if not cdf[0] <= p <= cdf[-1]:
            raise NumericError(
                f"tw2_quantile: p={p!r} outside the tabulated range "
                f"[{cdf[0]:.3e}, {cdf[-1]:.12f}]"
            )
        return float(invert_cdf(self.cdf, self.pdf, np.array([p]), self.grid, cdf)[0][0])

    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.pdf_values, self.grid))

    def variance(self) -> float:
        m = self.mean()
        return float(np.trapezoid((self.grid - m) ** 2 * self.pdf_values, self.grid))


def invert_cdf(cdf, pdf, levels, grid, f_grid):
    """x with cdf(x) = level for each level in (0, 1), by safeguarded Newton steps.

    f_grid = cdf(grid) on an ascending grid brackets every level.  Each round calls
    cdf and pdf once, on the open points, and steps by Newton on log(F / (1 - F)),
    nearly linear in both tails; a step off the bracket bisects.  A point is done
    when a bracket end has |F - level| <= 1e-10 min(level, 1 - level) + 1e-15 level
    or the bracket has collapsed (F may jump over the level): returns that end and
    its |F - level|.
    """
    i = np.clip(np.searchsorted(f_grid, levels), 1, grid.size - 1)
    lo, hi, f_lo, f_hi = grid[i - 1], grid[i], f_grid[i - 1], f_grid[i]
    root, residual = np.empty_like(levels), np.empty_like(levels)
    open_, lev = np.arange(levels.size), levels
    tol = 1e-10 * np.minimum(lev, 1.0 - lev) + 1e-15 * lev
    with np.errstate(all="ignore"):  # F in {0, 1} or pdf = 0 give nan or inf steps: they bisect
        logit = lambda F: np.log(F / (1.0 - F))
        odds = logit(lev)
        x = lo + (hi - lo) * (odds - logit(f_lo)) / (logit(f_hi) - logit(f_lo))  # secant start
        for _ in range(100):  # bisection alone collapses a grid bracket within 60
            x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
            F = cdf(x)
            below = F < lev
            lo, f_lo = np.where(below, x, lo), np.where(below, F, f_lo)
            hi, f_hi = np.where(below, hi, x), np.where(below, f_hi, F)
            r_lo, r_hi = lev - f_lo, f_hi - lev
            done = (np.minimum(r_lo, r_hi) <= tol) | (hi - lo <= 4e-16 * np.abs(x))
            if done.any():
                root[open_[done]] = np.where(r_lo < r_hi, lo, hi)[done]
                residual[open_[done]] = np.minimum(r_lo, r_hi)[done]
                open_, x, F, lo, hi, f_lo, f_hi, lev, odds, tol = (
                    v[~done] for v in (open_, x, F, lo, hi, f_lo, f_hi, lev, odds, tol))
            if not open_.size:
                break
            x = x + (odds - logit(F)) * F * (1.0 - F) / pdf(x)
        else:
            raise NumericError(f"invert_cdf: {open_.size} roots still open after 100 rounds")
    return root, residual


def build_tw2_table() -> TracyWidomTable:
    """Solve Painleve II and tabulate the Tracy-Widom order-2 law: the reference that
    ``tw2_table.npy`` holds."""
    from scipy.integrate import solve_ivp
    ai0, aip0 = airy_ai(_U0), airy_ai_prime(_U0)
    # Closed-form tails over [u0, inf) from the primitives
    #   d/du (Ai'^2 - u Ai^2)                        = -Ai^2
    #   d/du (Ai Ai' - u Ai'^2 + u^2 Ai^2) / 3       = -u Ai^2   (sign folded below)
    tail_q2 = aip0 ** 2 - _U0 * ai0 ** 2
    tail_uq2 = (_U0 * aip0 ** 2 - ai0 * aip0 - _U0 ** 2 * ai0 ** 2) / 3.0

    grid = np.linspace(_X_LEFT, _X_RIGHT, _N_POINTS)

    def rhs(u, y):
        q = y[0]
        return (y[1], u * q + 2.0 * q ** 3, -q * q, -u * q * q)

    sol = solve_ivp(
        rhs,
        (_U0, grid[0]),
        (-ai0, -aip0, 0.0, 0.0),
        method="DOP853",
        t_eval=grid[::-1],
        rtol=_RTOL,
        # q starts ~5e-8; error control on the q components must stay
        # relative there, hence the tiny absolute floor.
        atol=(1e-22, 1e-22, 1e-16, 1e-16),
    )
    if not sol.success:
        raise NumericError(f"Painleve II integration failed: {sol.message}")

    int_q2 = sol.y[2][::-1] + tail_q2          # int_x^inf q^2
    int_uq2 = sol.y[3][::-1] + tail_uq2        # int_x^inf u q^2
    log_cdf = -(int_uq2 - grid * int_q2)
    return TracyWidomTable(np.array([log_cdf, int_q2, sol.y[0][::-1] ** 2]))


def _hermite(y, slope):
    """Rows c0..c3 of the cubic in t = (x - x_j) / h matching y and slope at both
    ends of each grid interval [x_j, x_j + h]."""
    d0, d1, dy = slope[:-1] / _INV_H, slope[1:] / _INV_H, np.diff(y)
    return np.array([y[:-1], d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy])


def _exp_hermite(coef, x):
    """exp of the Hermite interpolant at x clamped to the grid (nan stays nan), by Horner;
    a larger x goes _BLOCK points at a time, so that its temporaries are one block each."""
    if np.size(x) > _BLOCK:
        flat = np.ravel(x)
        out = np.empty(flat.shape)
        for lo in range(0, flat.size, _BLOCK):
            out[lo : lo + _BLOCK] = _exp_hermite(coef, flat[lo : lo + _BLOCK])
        return out.reshape(np.shape(x))
    u = (np.minimum(np.maximum(x, _X_LEFT), _X_RIGHT) - _X_LEFT) * _INV_H
    i = np.fmin(u, _N_POINTS - 2).astype(np.intp)  # fmin maps nan to the last interval
    t = u - i
    c0, c1, c2, c3 = coef
    return np.exp(((c3.take(i) * t + c2.take(i)) * t + c1.take(i)) * t + c0.take(i))


@lru_cache(maxsize=1)
def default_table() -> TracyWidomTable:
    """Shared table, read once from the packaged solve ``tw2_table.npy``."""
    with resources.files(__package__).joinpath("tw2_table.npy").open("rb") as fh:
        return TracyWidomTable(np.load(fh))


def tw2_cdf(x):
    return default_table().cdf(x)


def tw2_pdf(x):
    return default_table().pdf(x)


def tw2_quantile(p: float) -> float:
    return default_table().quantile(p)


def dump_table_csv(path) -> None:
    """Write the packaged table as ``x,cdf,pdf`` rows (%.12e formatting)."""
    table = default_table()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,cdf,pdf\n")
        for x, c, p in zip(table.grid, table.cdf_values, table.pdf_values):
            fh.write("%.12e,%.12e,%.12e\n" % (x, c, p))


# ---------------------------------------------------------------------------
# Largest eigenvalue of a k x k GUE, k in {1, 2}, in closed form.
# ---------------------------------------------------------------------------

def gue_cdf(k: int, x):
    """CDF of the largest eigenvalue of a k x k GUE (k = 1 or 2)."""
    from scipy.special import ndtr
    _check_gue_order(k)
    x_arr = np.asarray(x, dtype=float)
    if k == 1:
        out = ndtr(x_arr)
    else:
        e = ndtr(x_arr)
        out = (
            e ** 2
            - x_arr * np.exp(-0.5 * x_arr ** 2) * e / math.sqrt(2.0 * math.pi)
            - np.exp(-x_arr ** 2) / (2.0 * math.pi)
        )
        out = np.clip(out, 0.0, 1.0)
    return out if x_arr.ndim else float(out)


def gue_pdf(k: int, x):
    """Density matching :func:`gue_cdf`."""
    _check_gue_order(k)
    x_arr = np.asarray(x, dtype=float)
    if k == 1:
        out = np.exp(-0.5 * x_arr ** 2) / math.sqrt(2.0 * math.pi)
    else:
        from scipy.special import ndtr
        e = ndtr(x_arr)
        out = (
            np.exp(-0.5 * x_arr ** 2) * (1.0 + x_arr ** 2) * e / math.sqrt(2.0 * math.pi)
            + x_arr * np.exp(-x_arr ** 2) / (2.0 * math.pi)
        )
        out = np.maximum(out, 0.0)
    return out if x_arr.ndim else float(out)


def _check_gue_order(k) -> None:
    if k not in (1, 2):
        raise DomainError(f"finite-GUE law of order {k!r} is not supported (k must be 1 or 2)")
