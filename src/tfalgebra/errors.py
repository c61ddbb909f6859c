"""Exception types shared across the library.

Every error that corresponds to bad *mathematical* input (as opposed to a
programming mistake) derives from :class:`TFAError` so callers can catch the
whole family at once.  The CLI maps these to exit code 2.
"""


class TFAError(Exception):
    """Base class for all library errors."""


class NotAGroup(TFAError):
    """A multiplication table fails the group axioms.

    ``witness`` holds the offending data: either a triple of indices for an
    associativity failure, or a single index for a missing inverse/identity.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAModule(TFAError):
    """An action table does not define automorphisms, or is not a homomorphism."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NoSolution(TFAError):
    """An exact linear system has no solution."""


class DegreeOutOfRange(TFAError):
    """A cochain degree outside the supported range 0..4 (coboundary: 0..3)."""


class TooLarge(TFAError):
    """An enumeration would exceed the configured cap."""


class ShapeMismatch(TFAError):
    """Algebra tensors are inconsistent with the declared dimensions."""


class NotHomogeneous(TFAError):
    """A vector expected to live in a single graded component does not."""


class ZeroScale(TFAError):
    """Rescaling by zero is not invertible."""


class ContextMismatch(TFAError):
    """Two values built over different (group, module, cocycle, field) data."""


class NotSimple(TFAError):
    """An operation requires every graded component to be one-dimensional."""


class UnitFormNotOne(TFAError):
    """Pair extraction requires the inner product of the unit with itself to be 1.

    Callers should rescale the inner product first; the scale factor is the
    classification parameter that extraction deliberately does not absorb.
    """


class DegenerateProduct(TFAError):
    """A product of graded basis vectors vanished where nondegeneracy forbids it."""


class InvalidPair(TFAError):
    """A scalar pair fails one of its defining conditions."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotACocycle(TFAError):
    """A cochain expected to be a cocycle has a nonzero coboundary."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotNormalized(TFAError):
    """A cochain expected to be normalized has a nontrivial value on the unit."""


class NotPointed(TFAError):
    """A scalar map on the group must send the group unit to 1."""


class NonCyclicUnits(TFAError):
    """The multiplicative group of the scalar field is not finite cyclic."""


class SchemaError(TFAError):
    """An instance file violates the documented JSON schema.

    ``key`` names the offending entry so the CLI can point at it.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
