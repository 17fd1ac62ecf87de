"""Sensing geometry and signal-scenario algebra.

Covers the deterministic part of the detection problem: SNR bookkeeping,
spike eigenvalues of the rank-P signal covariance, the phase-transition
identifiability condition, and dimensioning helpers (critical SNR,
minimum sample count).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DomainError

__all__ = [
    "Modulation",
    "DetectorDesign",
    "Scenario",
    "SpikeSpectrum",
    "snr",
    "approx_snr_dominant",
    "spike_spectrum",
    "spike_from_snr",
    "is_identifiable",
    "critical_snr",
    "min_samples",
    "scenario_from_json",
]

_TIE_TOL = 1e-9


class Modulation(str, Enum):
    GAUSSIAN = "gaussian"
    QPSK = "qpsk"
    QPSK_SRRC = "qpsk_srrc"
    PSK_NONCOHERENT = "psk_noncoherent"
    UNIFORM_COMPLEX = "uniform_complex"


def _as_modulation(value) -> Modulation:
    if isinstance(value, Modulation):
        return value
    try:
        return Modulation(value)
    except ValueError:
        names = ", ".join(m.value for m in Modulation)
        raise DomainError(f"unknown modulation {value!r}; expected one of: {names}") from None


def _integers(*values) -> bool:
    """K, N and P are counts: numpy integers pass, bools and floats do not."""
    return all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values)


def _agree(design, scenario, caller: str) -> None:
    """A scenario serves a design only with its K receivers and P sources."""
    for name in ("K", "P"):
        if getattr(design, name) != getattr(scenario, name):
            raise DomainError(f"{caller}: design and scenario disagree on {name}")


@dataclass(frozen=True)
class DetectorDesign:
    """Sensing geometry: K receivers, N samples, P assumed sources.

    P only enters the signal-present analysis (through the reduced
    aspect ratio of the noise bulk); it defaults to the single-source
    case.
    """

    K: int
    N: int
    P: int = 1

    def __post_init__(self):
        if not _integers(self.K, self.N, self.P):
            raise DomainError("DetectorDesign: K, N and P must be integers")
        if not (self.K >= 2 and 1 <= self.N <= sys.float_info.max):
            raise DomainError("DetectorDesign: K >= 2 and N >= 1 required, N within float range")
        if self.K >= self.N:
            raise DomainError("DetectorDesign: K < N required (aspect ratio c in (0,1))")
        if not 1 <= self.P < self.K:
            raise DomainError("DetectorDesign: 1 <= P < K required")

    @property
    def c(self) -> float:
        return self.K / self.N

    @property
    def c_prime(self) -> float:
        return (self.K - self.P) / self.N

    @property
    def critical_t1(self) -> float:
        """Phase-transition point 1 + sqrt(c) for the top spike."""
        return 1.0 + math.sqrt(self.c)


@dataclass(frozen=True)
class Scenario:
    """Signal-present description: channel, per-source powers, noise.

    ``H`` is the K x P complex channel matrix, ``sigma2`` the diagonal
    of the (diagonal) source covariance in linear units.
    """

    H: np.ndarray
    sigma2: np.ndarray
    sigma_v2: float
    modulation: Modulation = Modulation.GAUSSIAN

    def __post_init__(self):
        H = np.array(self.H, dtype=complex)
        if H.ndim != 2:
            raise DomainError("Scenario: H must be a K x P matrix")
        sigma2 = np.array(self.sigma2, dtype=float).reshape(-1)
        K, P = H.shape
        if not 1 <= P < K:
            raise DomainError("Scenario: 1 <= P < K required")
        if sigma2.shape[0] != P:
            raise DomainError("Scenario: sigma2 must hold one power per source")
        if not np.all(np.isfinite(H)):
            raise DomainError("Scenario: channel entries must be finite")
        if not np.all((sigma2 > 0.0) & (sigma2 < math.inf)):
            raise DomainError("Scenario: source powers must be positive and finite")
        if not 0.0 < self.sigma_v2 < math.inf:
            raise DomainError("Scenario: noise variance must be positive and finite")
        H.setflags(write=False)
        sigma2.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "sigma_v2", float(self.sigma_v2))
        object.__setattr__(self, "modulation", _as_modulation(self.modulation))

    @property
    def K(self) -> int:
        return self.H.shape[0]

    @property
    def P(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class SpikeSpectrum:
    """Spike eigenvalues of the perturbed covariance, sorted descending.

    ``spikes[p] = signal_eigs[p] / sigma_v2 + 1``; their sum equals
    K * snr + P (trace identity).
    """

    spikes: np.ndarray
    signal_eigs: np.ndarray
    snr: float

    def __post_init__(self):
        spikes = np.array(self.spikes, dtype=float)
        eigs = np.array(self.signal_eigs, dtype=float)
        if spikes.shape != eigs.shape or spikes.ndim != 1:
            raise DomainError("SpikeSpectrum: spike and eigenvalue arrays must match")
        if np.any(np.diff(spikes) > 0.0):
            raise DomainError("SpikeSpectrum: spikes must be sorted descending")
        if np.any(spikes <= 1.0):
            raise DomainError("SpikeSpectrum: every spike must exceed 1")
        spikes.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "spikes", spikes)
        object.__setattr__(self, "signal_eigs", eigs)

    @property
    def t1(self) -> float:
        return float(self.spikes[0])


def snr(scenario: Scenario) -> float:
    """Total SNR: tr(H Sigma H^H) / (K sigma_v^2)."""
    with np.errstate(over="ignore"):
        col_energy = np.sum(np.abs(scenario.H) ** 2, axis=0)
        rho = float(np.dot(scenario.sigma2, col_energy) / (scenario.K * scenario.sigma_v2))
    if not math.isfinite(rho):
        raise DomainError("SNR overflows the floating-point range")
    return rho


def approx_snr_dominant(scenario: Scenario) -> float:
    """SNR of the strongest component alone: max_p sigma_p^2 ||h_p||^2 / (K sigma_v^2).

    Never exceeds the total SNR; the spike predicted from it never
    exceeds the exact top spike (rank-one lower bound).
    """
    col_energy = np.sum(np.abs(scenario.H) ** 2, axis=0)
    return float(np.max(scenario.sigma2 * col_energy) / (scenario.K * scenario.sigma_v2))


def spike_spectrum(scenario: Scenario, design: DetectorDesign) -> SpikeSpectrum:
    """Spike eigenvalues t_p of the normalized signal-plus-noise covariance.

    The nonzero eigenvalues s_p of H Sigma H^H are computed from the
    congruent P x P matrix Sigma^(1/2) (H^H H) Sigma^(1/2), then mapped
    to t_p = s_p / sigma_v^2 + 1.
    """
    _agree(design, scenario, "spike_spectrum")

    d = np.sqrt(scenario.sigma2)
    with np.errstate(over="ignore", invalid="ignore"):
        m = d[:, None] * (scenario.H.conj().T @ scenario.H) * d[None, :]
    if not np.all(np.isfinite(m)):
        raise DomainError("spike_spectrum: signal covariance overflows the floating-point range")

    # eigvalsh reads one triangle of m, so rounding asymmetry cannot reach s
    s = np.linalg.eigvalsh(m)[::-1]
    if s[-1] <= 0.0:
        raise DomainError("spike_spectrum: signal covariance is numerically rank deficient")

    with np.errstate(over="ignore"):
        t = s / scenario.sigma_v2 + 1.0
    if not math.isfinite(t[0]):
        raise DomainError("SNR overflows the floating-point range: s / sigma_v2 is inf")
    if t.size > 1 and (t[0] - t[1]) <= _TIE_TOL * t[0]:
        warnings.warn(
            "top spike eigenvalue is nearly degenerate; treating it as simple "
            "(multiplicity > 1 has probability zero and is not modeled)",
            RuntimeWarning,
            stacklevel=2,
        )
    return SpikeSpectrum(
        spikes=t,
        signal_eigs=s,
        snr=snr(scenario),
    )


def spike_from_snr(K: int, rho: float) -> float:
    """Single-source spike: t1 = K * rho + 1."""
    if not (_integers(K) and K >= 1):
        raise DomainError("spike_from_snr: K must be a positive integer")
    if not 0.0 <= rho < math.inf:
        raise DomainError("spike_from_snr: rho must be >= 0 and finite")
    return K * rho + 1.0


def is_identifiable(t1: float, design: DetectorDesign) -> bool:
    """True iff the spike separates from the noise bulk (t1 > 1 + sqrt(c), strict)."""
    if not t1 >= 1.0:
        raise DomainError("is_identifiable: t1 must be >= 1")
    return t1 > design.critical_t1


def critical_snr(design, n: int | None = None) -> float:
    """Identifiability limit 1/sqrt(K*N) for a single source.

    Accepts a :class:`DetectorDesign`, or raw ``(K, N)`` for quick
    dimensioning checks outside the 0 < c < 1 regime.
    """
    if n is None:
        K, N = design.K, design.N
    else:
        if not (_integers(design, n) and design >= 1 and n >= 1):
            raise DomainError("critical_snr: K and N must be positive integers")
        K, N = int(design), int(n)
    try:
        return 1.0 / math.sqrt(K * N)
    except OverflowError:
        raise DomainError("critical_snr: K * N exceeds the floating-point range") from None


def min_samples(K: int, rho: float) -> int:
    """Smallest N making a single source of SNR rho identifiable."""
    if not rho > 0.0:
        raise DomainError("min_samples: rho must be > 0")
    if not (_integers(K) and 1 <= K <= sys.float_info.max):
        raise DomainError("min_samples: K must be a positive integer within float range")
    denom = K * rho * rho
    if denom <= 2.0 ** -62:  # 1 / denom >= 2**62, or rho * rho underflowed
        raise DomainError("min_samples: required sample count out of range")
    return int(math.floor(1.0 / denom)) + 1


def scenario_from_json(source) -> tuple[Scenario, DetectorDesign]:
    """Load a scenario (plus its sensing geometry) from a JSON document.

    Accepts a dict, a JSON string, or a path.  Two forms:

    * explicit: ``{"K":, "N":, "sigma_v2":, "modulation":, "Sigma": [..P powers..],
      "H": [K rows of P [re, im] pairs]}``
    * single-source shortcut: ``{"K":, "N":, "snr":, "sigma_v2":, "modulation":}``
      which uses the canonical all-ones channel with the power chosen to
      realize the requested SNR exactly.
    """
    try:
        return _read_scenario(source)
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"scenario JSON: missing field {exc}") from None
    except (ValueError, TypeError, OverflowError) as exc:
        raise DomainError(f"scenario JSON: malformed input ({exc})") from None


def _read_scenario(source) -> tuple[Scenario, DetectorDesign]:
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = dict(source)

    K, N = int(doc["K"]), int(doc["N"])  # int() rejects NaN, inf and null
    if (K, N) != (doc["K"], doc["N"]):
        raise DomainError(f"scenario JSON: K and N must be whole numbers, not "
                          f"{doc['K']!r} and {doc['N']!r}")
    sigma_v2 = float(doc.get("sigma_v2", 1.0))
    modulation = _as_modulation(doc.get("modulation", "gaussian"))

    has_matrix = "H" in doc or "Sigma" in doc
    has_snr = "snr" in doc
    if has_matrix == has_snr:
        raise DomainError("scenario JSON: supply either (H, Sigma) or the snr shortcut")

    if has_snr:
        rho = float(doc["snr"])
        if not 0.0 < rho < math.inf:
            raise DomainError("scenario JSON: snr must be positive and finite")
        H = np.ones((K, 1), dtype=complex)
        sigma2 = np.array([rho * sigma_v2])  # ||h||^2 = K cancels the 1/K
        scenario = Scenario(H, sigma2, sigma_v2, modulation)
    else:
        if "H" not in doc or "Sigma" not in doc:
            raise DomainError("scenario JSON: H and Sigma must be supplied together")
        rows = doc["H"]
        if len(rows) != K:
            raise DomainError("scenario JSON: H must have K rows")
        H = np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=complex
        )
        scenario = Scenario(H, np.asarray(doc["Sigma"], dtype=float), sigma_v2, modulation)

    design = DetectorDesign(K=K, N=N, P=scenario.P)
    return scenario, design
