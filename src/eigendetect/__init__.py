"""Eigenvalue-ratio spectrum sensing.

Analytical limiting distributions of the largest/smallest sample
covariance eigenvalue ratio under noise-only and signal-plus-noise
hypotheses, error-probability evaluation and threshold inversion, and a
seeded Monte Carlo harness that validates every formula empirically.
"""

from .errors import DomainError, EigendetectError, NotIdentifiableError, NumericError
from .performance import (
    RatioLaw,
    build_lut,
    centering_constants,
    mu_minus,
    mu_plus,
    mu_spike,
    nu_minus,
    nu_plus,
    nu_spike,
    pfa,
    pmd,
    roc,
    threshold_from_pfa,
    threshold_from_pmd,
)
from .simulate import (
    TrialBatch,
    gen_noise,
    gen_signal,
    ks_distance,
    run_trials,
    scenario_from_component_snrs,
    scenario_from_snr,
)
from .spiked import (
    DetectorDesign,
    Modulation,
    Scenario,
    SpikeSpectrum,
    approx_snr_dominant,
    critical_snr,
    is_identifiable,
    min_samples,
    scenario_from_json,
    snr,
    spike_from_snr,
    spike_spectrum,
)
from .tracy_widom import (
    TracyWidomTable,
    airy_ai,
    build_tw2_table,
    default_table,
    dump_table_csv,
    gue_cdf,
    gue_pdf,
    tw2_cdf,
    tw2_pdf,
    tw2_quantile,
)

__version__ = "0.1.0"
