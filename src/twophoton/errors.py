"""Exception hierarchy.

Configuration problems (bad keys, violated invariants of the physical
parameters) are distinct from numerical-precondition failures (a grid too
coarse for the requested spectrum, a detector window outside the averaging
regime).  The CLI maps the former to exit code 2 and the latter to exit
code 3.
"""


class TwoPhotonError(Exception):
    """Base class for all package errors."""


class ConfigError(TwoPhotonError):
    """Invalid configuration input; message names the offending key."""


class NumericsError(TwoPhotonError):
    """A numerical precondition does not hold for the requested evaluation."""


class NyquistError(NumericsError):
    """Time grid undersamples the spectral content being transformed."""


class GridError(NumericsError):
    """Time grid cannot resolve the comb-peak structure."""


class WindowError(NumericsError):
    """Averaging window too short for the detector-averaging regime."""


class ResolutionError(NumericsError):
    """Detector resolving time shorter than the interferometer delay."""


class DegenerateDensity(NumericsError):
    """Sampling density integrates to zero, or its mass is not finite."""


class UnreachablePeak(NumericsError):
    """Requested correlation peak lies outside the envelope support."""


class PoorMatch(NumericsError):
    """Wideband pulse shape cannot cancel the target peak cleanly."""
