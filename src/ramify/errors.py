"""Exception types shared across the library.

Every error exposes a stable ``code`` (its class name) so the CLI can emit
machine-readable error objects without string matching.
"""


class RamifyError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# -- field / series arithmetic ------------------------------------------------

class NotPrime(RamifyError):
    pass


class SizeCapExceeded(RamifyError):
    pass


class ZeroElement(RamifyError):
    """An operation needed a nonzero element (or exactly-zero series)."""


class FieldMismatch(RamifyError):
    pass


class PrecisionExhausted(RamifyError):
    """All known coefficients are zero where a nonzero one was needed."""


class CompositionUndefined(RamifyError):
    """Substitution target has valuation <= 0."""


class NotSimpleRoot(RamifyError):
    """Newton lifting requires a root with unit derivative."""


class DimensionMismatch(RamifyError):
    pass


class SingularMatrix(RamifyError):
    pass


# -- cover construction -------------------------------------------------------

class PoleOrderDivisibleByP(RamifyError):
    """Artin-Schreier datum reduces to an everywhere-regular function."""


class MissingRootsOfUnity(RamifyError):
    pass


class NotGaloisOverBase(RamifyError):
    pass


# -- filtrations / representations --------------------------------------------

class NotPGroupWildPart(RamifyError):
    pass


class NotAbelian(RamifyError):
    pass


class MismatchDetected(RamifyError):
    pass


class GroupMismatch(RamifyError):
    pass


class NotAHomomorphism(RamifyError):
    pass


class PreconditionFailed(RamifyError):
    pass


# -- group pipeline ------------------------------------------------------------

class NotAGroup(RamifyError):
    pass


class PSylowNotNormal(RamifyError):
    pass


class QuotientNotCyclic(RamifyError):
    pass


class NoBoundConfigured(RamifyError):
    pass


class OverflowPolicyExceeded(RamifyError):
    pass


class InconsistentCounts(RamifyError):
    pass


class NoSuchQuotient(RamifyError):
    pass


# -- CLI ------------------------------------------------------------------------

class InputSchemaError(RamifyError):
    pass


class UnknownSuite(RamifyError):
    pass

