"""Exception types shared across the package.

Every error that callers are expected to catch carries enough state to act
on: a rejected step reports the largest admissible dt, a suspected blow-up
carries the diagnostics that triggered it, a failed fixed-point iteration
carries the contraction-factor trace.
"""

from __future__ import annotations


class SmflowError(Exception):
    """Base class for all package errors."""


class OffManifoldError(SmflowError):
    """A point violates the target-manifold constraint beyond tolerance."""


class SingularChartError(SmflowError):
    """A chart or reference frame was evaluated at/near its singular locus."""


class ResolutionError(SmflowError):
    """Grid or sample resolution is too coarse for the requested operation."""


class UnsupportedOperationError(SmflowError):
    """Operation not defined for this target or representation."""


class UnsupportedCombinationError(SmflowError):
    """Two individually valid options that cannot be combined."""


class InconsistentHolonomyError(SmflowError):
    """Holonomy data disagrees with the loop beyond tolerance."""


class RejectedStepError(SmflowError):
    """Time step exceeds the stability limit.

    Attributes:
        dt: the requested step.
        admissible_dt: the largest step the stability rule allows.
    """

    def __init__(self, dt: float, admissible_dt: float):
        self.dt = dt
        self.admissible_dt = admissible_dt
        super().__init__(
            f"dt={dt:.3e} exceeds stability limit; "
            f"largest admissible dt={admissible_dt:.3e}"
        )


class BlowUpSuspectedError(SmflowError):
    """Field magnitudes grew past the configured guard during evolution.

    Attributes:
        diagnostics: dict with 'time' and 'max_abs', and 'dt' (RK4) or 'suggestion' (NLS).
    """

    def __init__(self, message: str, diagnostics: dict):
        self.diagnostics = diagnostics
        super().__init__(f"{message}: {diagnostics}")


class NoConvergenceError(SmflowError):
    """An iteration failed to contract.

    Attributes:
        factors: per-iteration contraction factors observed before giving up.
    """

    def __init__(self, message: str, factors: list):
        self.factors = list(factors)
        super().__init__(f"{message}; contraction factors {self.factors}")


class ConfigError(SmflowError):
    """Invalid run configuration.

    Attributes:
        violations: list of human-readable violation strings (all of them,
            not just the first).
    """

    def __init__(self, violations: list):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))
