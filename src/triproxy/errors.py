"""Exception hierarchy.

Every identification-failure error carries the name of the modeling
assumption whose numerical shadow was violated, so batch tooling can
report *why* a run failed, not just that it did.
"""

from __future__ import annotations

#: what a latent law with negative or missing mass says about the input: the
#: latent dimension is below the true one, or the joint is not exact
FACTORIZATION_ASSUMPTION = "the joint factors through the stated number of latent states"


class TriproxyError(Exception):
    """Base class for all package errors."""

    #: name of the modeling assumption this failure corresponds to, if any
    assumption: str | None = None

    def __init__(self, message: str, assumption: str | None = None):
        if assumption is not None:
            self.assumption = assumption
        if self.assumption:
            message = f"{message} [{self.assumption}]"
        super().__init__(message)


# --- tensor algebra -------------------------------------------------------

class InvalidDistribution(TriproxyError):
    """Entries too negative, mass off, duplicate axis names, bad shapes."""


class UnknownAxis(TriproxyError):
    pass


class AxisMismatch(TriproxyError):
    pass


class ZeroConditioningCell(TriproxyError):
    """A conditioning cell carries (numerically) zero probability."""

    assumption = "HS Assumption 1: non-zero density"


# --- graphs ---------------------------------------------------------------

class UnknownNode(TriproxyError):
    pass


class MissingRole(TriproxyError):
    pass


class CyclicGraph(TriproxyError):
    pass


# --- structural models ----------------------------------------------------

class EnumerationTooLarge(TriproxyError):
    pass


# --- spectral step --------------------------------------------------------

class RankDeficient(TriproxyError):
    """Proxy kernel numerically rank deficient: completeness fails."""

    assumption = "HS Assumption 3: completeness"


class EigenGapExhausted(TriproxyError):
    """Latent states numerically indistinguishable through the third proxy."""

    assumption = "HS Assumption 4: distinguishability"


class ComplexResidual(TriproxyError):
    pass


class NegativeMass(TriproxyError):
    """A recovered latent-indexed kernel has entries below the tolerance."""

    assumption = FACTORIZATION_ASSUMPTION


class AmbiguousMatch(TriproxyError):
    pass


# --- pipelines ------------------------------------------------------------

class SolveIllConditioned(TriproxyError):
    """The shared proxy kernel f(z | w) is numerically singular: completeness
    fails."""

    assumption = "HS Assumption 3: completeness"


class NonStochasticSolution(TriproxyError):
    """A second-stage solution is too far from a probability law."""

    assumption = FACTORIZATION_ASSUMPTION


class MissingLevels(TriproxyError):
    pass


class NonBinaryTreatment(TriproxyError):
    pass


class IdentificationRefused(TriproxyError):
    """The graph does not certify the prerequisites of the requested design."""


# --- relabeling -----------------------------------------------------------

class AlphaCollision(TriproxyError):
    assumption = "HS Assumption 5 / Assumption 9: injective location map"


class TauOutOfRange(TriproxyError):
    pass


# --- cli ------------------------------------------------------------------

class ValidationError(TriproxyError):
    """Bad inputs / config; maps to exit code 2."""


class GoldenMismatch(TriproxyError):
    pass
