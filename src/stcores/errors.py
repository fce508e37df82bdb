"""Exception types shared across the package.

Everything except :class:`UsageError` derives from :class:`CoreError` (a
``ValueError``), so callers can catch the whole family or match the precise
contract violation.  :class:`UsageError` is the ``cores`` command's report of
bad arguments.
"""


class CoreError(ValueError):
    """Base class for structured errors raised by this package."""


class NonMonotoneError(CoreError):
    """Partition parts are not weakly decreasing positive integers."""


class OutOfDiagramError(CoreError):
    """Cell coordinates fall outside the Young diagram."""


class NonzeroChargeError(CoreError):
    """Beta-set encoding does not have total charge zero."""


class NotACoreError(CoreError):
    """Operation requires an s-core and the input is not one."""


class NotCoprimeError(CoreError):
    """Operation requires coprime moduli."""


class InvalidZError(CoreError):
    """Coordinate tuple violates its sum or congruence condition."""


class NotSymmetricError(CoreError):
    """z-tuple is not invariant under index negation."""


class ParityError(CoreError):
    """Entry has the wrong parity for the u-coordinate folding."""


class NegativeEntryError(CoreError):
    """Stabilizer formulas need componentwise nonnegative coordinates."""


class TooLargeError(CoreError):
    """Brute-force guard tripped (factorial explosion)."""


class InvalidSSetError(CoreError):
    """Integer set is not a valid s-set."""


class CapExceededError(CoreError):
    """Requested enumeration bound exceeds the configured cap."""


class InvariantError(CoreError):
    """An exact-arithmetic identity failed: a division that must be exact
    left a remainder, or a size came out negative.  Validated inputs never
    raise it; it means corrupted invariants, and unlike ``assert`` it also
    fires under ``python -O``."""


class UsageError(Exception):
    """Bad command-line arguments detected after argparse; ``cores`` maps it
    to exit code 2."""
