"""Typed domain errors, and the usage error.

The CLI maps :class:`UsageError` to exit code 1 and every subclass of
:class:`KQ2Error` to exit code 2; see ``cli.py`` for the full exit-code
contract.
"""


class UsageError(ValueError):
    """A request the caller got wrong (unparseable text, an unknown theory,
    a missing degree or q), as opposed to a domain error."""


class KQ2Error(Exception):
    """Base class for all domain errors raised by this package."""


class NonPositive(KQ2Error):
    """An argument that must be >= 1 was not."""


class EvenQ(KQ2Error):
    """The auxiliary prime/base q must be odd."""


class OddM(KQ2Error):
    """w(m, a) is defined for even m only."""


class EvenN(KQ2Error):
    """t(n, q) is defined for odd n only."""


class BadModulus(KQ2Error):
    """Primitive-root test requires an odd prime-power modulus."""


class BoundExceeded(KQ2Error):
    """A documented bound (search, factorization, range of q) was exceeded."""


class Undecided(KQ2Error):
    """A bounded search exhausted its budget without reaching a verdict."""


class InvalidSpec(KQ2Error):
    """A field description violates its invariants."""


class NotPrimitiveRoot(KQ2Error):
    """2 is not a primitive root modulo m, so the cyclotomic criterion
    does not apply."""


class NotTwoRegular(KQ2Error):
    """Closed-form tables are only valid for 2-regular fields."""


class InadmissibleQ(KQ2Error):
    """q fails the congruence admissibility test for the field."""


class NegativeDegree(KQ2Error):
    """Table degree must be nonnegative."""


class DegreeOutOfRange(KQ2Error):
    """Degree outside the stated domain of the operation."""


class EmptyWindow(KQ2Error):
    """An exact-sequence window must contain at least one group."""

