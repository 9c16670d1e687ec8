"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes, so new error types should
subclass one of the four families below.
"""


class DipolekitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DipolekitError):
    """Bad configuration file or flag value."""


class DesignRuleError(DipolekitError):
    """A hard design-rule restriction is violated."""


class SolverError(DipolekitError):
    """Numerical failure inside the electromagnetic solver."""


class MeshError(SolverError):
    """Invalid segmentation request for the wire model."""


class BracketError(SolverError):
    """Root bracketing failed for an optimizer or synthesis search."""


class NoResonanceError(SolverError):
    """A sweep contains no inductive-going reactance zero crossing."""


class NonPassiveError(SolverError, ValueError):
    """Input impedance with negative real part was passed to a metric.

    A ValueError too, so callers that catch bad values keep working.
    """
