"""Exception taxonomy shared by all hampack modules."""

from __future__ import annotations


class HampackError(Exception):
    """Base class for all hampack-specific failures."""


class TailUnderflowError(HampackError):
    """Raised when a Poisson tail sum underflows to zero in float64."""


class InfeasibleDegreeError(HampackError):
    """Raised when the requested mean degree c is not achievable (c <= k+1)."""


class ConditioningFailureError(HampackError):
    """Degree-sequence rejection loop exceeded its attempt cap."""


class RejectionStallError(HampackError):
    """Simple-digraph rejection loop exceeded its attempt cap.

    The attempt count that was consumed is carried in ``attempts``.
    """

    def __init__(self, message, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class EdgeListFormatError(HampackError):
    """Malformed edge-list file."""


class OracleSizeError(HampackError):
    """Brute-force oracle invoked above its size cap."""


class PhaseFailure(HampackError):
    """A pipeline phase gave up; trials treat this as an attributed failure.

    phase is one of "sample", "phase1", "phase2", "phase3", "3-select",
    "3-search", "verify".
    """

    def __init__(self, phase: str, detail: str = "", index: int | None = None,
                 witness=None):
        self.phase = phase
        self.detail = detail
        self.index = index
        self.witness = witness
        tag = phase if index is None else f"{phase}[i={index}]"
        super().__init__(f"{tag}: {detail}" if detail else tag)
