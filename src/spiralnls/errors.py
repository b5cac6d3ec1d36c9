"""Exception types shared across the package."""


class SpiralError(Exception):
    """Base class for all solver errors."""


class GridMismatchError(SpiralError):
    """Fields live on different (or incompatible) grids."""


class SectorError(SpiralError, ValueError):
    """Operation not defined for this sector kind; the caller's input is at fault."""


class ZeroFieldError(SpiralError):
    """A nontrivial field was required."""


class OnePhaseMissing(SpiralError):
    """Sign-changing input expected, but u+ or u- vanishes."""


class SeedCollapsed(SpiralError):
    """Descent iterate underflowed to zero."""


class BisectionBracketFailure(SpiralError):
    """Amplitude shooting could not bracket the target solution."""


class PeakAtBoundary(SpiralError):
    """Profile maximum sits on the grid boundary; truncation radius too small."""


class ConfigError(SpiralError, ValueError):
    """Malformed run configuration; like any ValueError, bad input."""
