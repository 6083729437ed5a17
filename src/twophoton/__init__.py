"""Simulator of mode-locked two-photon states from cavity-enhanced down-conversion.

Comb-like pair correlations, Hong-Ou-Mandel dip revivals every half round
trip, first-order coherence fringes at full round trips, interference-based
excision of single comb peaks, and a seeded Monte Carlo detection layer.
"""

from .correlation import (
    CorrelationTrace,
    TraceKind,
    coherence_envelope,
    dirichlet_F,
    envelope_G,
    envelope_g,
    envelope_support,
    gamma1_coherence,
    gamma2_detector_averaged,
    gamma2_mode_locked,
    generalized_F,
    pair_envelope,
)
from .engineering import (
    ExcisionSolution,
    WidebandState,
    combined_gamma2,
    matched_wideband,
    solve_excision,
    wideband_gamma2,
)
from .errors import (
    ConfigError,
    DegenerateDensity,
    GridError,
    NumericsError,
    NyquistError,
    PoorMatch,
    ResolutionError,
    TwoPhotonError,
    UnreachablePeak,
    WindowError,
)
from .interferometer import (
    CoincidenceResult,
    InterferometerConfig,
    ScanResult,
    bs_two_photon_state,
    coincidence_rate,
    delay_scan,
    dither_averaged_rate,
    find_dip_delays,
    gamma12,
    phase_fringe_scan,
    singles_fringe_visibility,
)
from .montecarlo import (
    DelayHistogram,
    DetectorModel,
    Detections,
    comb_contrast,
    detect,
    histogram_delays,
    sample_pair_delays,
    stream_histogram,
    summarize_records,
)
from .spectral import (
    ModeComb,
    Shape,
    SpectralAmplitude,
    TimeGrid,
    comb_joint_amplitude,
    eval_spectrum,
    pair_spectrum,
)

__version__ = "0.1.0"
