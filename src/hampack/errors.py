"""Exception taxonomy shared by all hampack modules."""

from __future__ import annotations


class HampackError(Exception):
    """Base class for all hampack-specific failures."""


class TailUnderflowError(HampackError):
    """A Poisson quantity left float64: model.poisson_tail's forward sum
    starts at a term that underflows to zero, or TruncatedPoisson's
    inverse-CDF table would pass 200000 entries (z above about 2e5)."""


class InfeasibleDegreeError(HampackError):
    """The degrees asked for are not achievable: c <= k+1, or n < k+2."""


class ConditioningFailureError(HampackError):
    """A degree-vector sampler exceeded its attempt cap."""


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


#: Every outcome tag of a failed trial, from run_trial or `pack --in`:
#: a PhaseFailure's phase, "sample" for any other HampackError, and
#: "internal" for a ValueError raised inside the pipeline: a broken
#: invariant (a cover that is not a permutation, a repeated tail or pair,
#: a matched edge already spent, a phase-2 step that made a new small
#: cycle or removed none, an exchange that did not merge).
FAILURE_TAGS = tuple(f"failure:{tag}" for tag in (
    "sample", "phase1", "phase2", "phase3", "verify", "internal"))


class PhaseFailure(HampackError):
    """A phase's search gave up, or the verifier refused the packing;
    trials treat this as an attributed failure.

    phase names the tag "failure:<phase>" the trial records, with the
    detail and the trial's seed; the closed set of tags is FAILURE_TAGS.
    The message is built when printed, so an index set after the raise
    still shows in it.
    """

    def __init__(self, phase: str, detail: str = "", index: int | None = None):
        super().__init__(phase, detail)
        self.phase = phase
        self.detail = detail
        self.index = index

    def __str__(self) -> str:
        tag = (self.phase if self.index is None
               else f"{self.phase}[i={self.index}]")
        return f"{tag}: {self.detail}" if self.detail else tag
