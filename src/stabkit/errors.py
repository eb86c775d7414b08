"""Exception hierarchy shared across the package.

Precondition failures (bad input, refused operations) exit the CLI with
code 2; violations of internal invariants that are supposed to be
theorems exit with code 3.
"""


class StabkitError(Exception):
    """Base class for precondition / input errors (CLI exit code 2)."""

    exit_code = 2


class SchemaError(StabkitError):
    """Malformed session document; message carries a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"at {pointer}: {message}")


class CycleError(StabkitError):
    """Quiver has a directed cycle."""


class FieldMismatchError(StabkitError):
    """Operands declared over different quivers or coefficient fields."""


class CapExceededError(StabkitError):
    """Total dimension exceeds the enumeration cap."""


class WrongFieldError(StabkitError):
    """Operation requires a finite coefficient field."""


class UnsupportedScalarError(StabkitError):
    """Scalar lies outside the supported rational / quadratic fields."""


class UnsupportedVerdictError(StabkitError):
    """No finite certificate is available (rational-field semistability)."""


class ZeroObjectError(StabkitError):
    """Operation undefined on the zero object."""


class ZeroClassError(StabkitError):
    """Charge vanishes on the given class, so no phase exists."""


class StabilityFunctionError(StabkitError):
    """A charge value lies outside the strict upper half-plane."""


class ProportionalPairError(StabkitError):
    """Class pair is proportional, so its alignment locus is degenerate."""


class HypothesisViolatedError(StabkitError):
    """Deformation hypothesis fails (or is undecidable at the boundary).

    ``boundary`` is True when the margin was inside the certified rounding
    band and the request was rejected conservatively.
    """

    def __init__(self, message: str, boundary: bool = False):
        self.boundary = boundary
        super().__init__(message)


class HeartChangeUnsupportedError(StabkitError):
    """Perturbed charge leaves the half-plane; tilting is unsupported."""


class DegenerateChargeError(StabkitError):
    """Numerical charge matrix is singular."""


class OrientationError(StabkitError):
    """Numerical charge matrix reverses orientation."""


class UnknownNameError(StabkitError):
    """A CLI argument names no declared session object."""


class InvariantViolation(StabkitError):
    """An internal invariant that should be a theorem failed (exit code 3)."""

    exit_code = 3
