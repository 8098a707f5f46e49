"""Exception hierarchy shared by all modules.

Every error carries a human-readable message; callers that need the
offending object can find it in ``args[1:]`` when supplied.
"""


class DieudonneError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(DieudonneError):
    """A quantity could not be resolved at the working precision.

    Raising this signals the caller to rebuild the context with a larger
    precision exponent, not a mathematical failure.
    """


class SingularMap(DieudonneError):
    """Inverse requested of a matrix that is not invertible after
    inverting p."""


class InclusionViolated(DieudonneError):
    """An operation required one lattice to contain another and it did not."""


class FieldTooSmall(DieudonneError):
    """A slope-factor computation does not descend to the working residue
    field; rebuild the context with a larger residue degree."""


class NonConvergence(DieudonneError):
    """A lattice or product iteration failed to stabilize within its cap."""


class NoAutoConstruction(DieudonneError):
    """No canonical construction is available for the given input and the
    caller supplied no candidate to validate."""


class ValidationFailed(DieudonneError):
    """A user-supplied object failed one of its defining identities."""


class HypothesisViolated(DieudonneError):
    """Input data violates a stated hypothesis (with a witness)."""


class DualityMismatch(DieudonneError):
    """Two independent computations of a trace-dual lattice disagree."""


class VerificationMismatch(DieudonneError):
    """A closed-form value and its lattice-side recomputation disagree."""


class CertificateInvalid(DieudonneError):
    """A group-data certificate (Lie stability, normalizer) does not hold."""


class SlopeSymmetryViolated(DieudonneError):
    """Slope data is not symmetric under a <-> 1-a with matched
    multiplicities."""


class WrongCharacteristic(DieudonneError):
    """The construction requires p > 2."""


class CertificateFailed(DieudonneError):
    """A computed object failed its membership or invariance certificate."""


class NonTermination(DieudonneError):
    """A divided-power sum failed its strictly-increasing-valuation guard."""


class SplittingInvalid(DieudonneError):
    """The supplied direct-sum splitting does not decompose the module."""


class ParseError(DieudonneError):
    """A problem file is malformed; message names the field."""
