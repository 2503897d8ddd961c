"""Exception types shared across the package, and the memory cap every layer checks.

Arrays that grow with a request (a coordinate block, a dense Gram, a stacked
basis, a descriptor, a block of Monte Carlo samples) are checked against
``MEMORY_CAP_BYTES`` by ``check_memory`` before they are allocated.
"""

# Largest single array a request may allocate when it grows with the request.
MEMORY_CAP_BYTES = 1 << 30


class GptPurityError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(GptPurityError, ValueError):
    """A builder was asked for a dimension outside its valid range."""


class NormalizationError(GptPurityError, ValueError):
    """A vector expected to be a normalized state is not."""


class ConeError(GptPurityError, ValueError):
    """A vector fails the cone (positivity) test of its space."""


class RangeError(GptPurityError, ValueError):
    """A numeric argument lies outside its documented range."""


class ReducibleSpaceError(GptPurityError):
    """The group action fails the irreducibility diagnostic."""


class UnsupportedSpaceError(GptPurityError, ValueError):
    """The requested operation is not defined for this space kind."""


class UnsupportedCompositeError(GptPurityError, ValueError):
    """The requested pair of spaces has no supported tensor composite."""


class DegenerateDirectionError(GptPurityError, ValueError):
    """A direction vector is (numerically) zero."""


class DegenerateCompositeError(GptPurityError, ValueError):
    """A composite-dependent denominator is zero or negative."""


class InconsistencyError(GptPurityError):
    """Two routes to the same quantity disagree beyond tolerance."""


class EmptyFaceError(GptPurityError, ValueError):
    """The requested face contains no states."""


class InvalidProbeError(GptPurityError, ValueError):
    """A probe matrix violates its trace normalization conditions."""


class InternalError(GptPurityError):
    """An internal self-check failed; indicates a bug, not bad input."""


def check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, ``what`` needing more than ``MEMORY_CAP_BYTES``."""
    if nbytes > MEMORY_CAP_BYTES:
        raise RangeError(
            f"{what} would need {nbytes} bytes, over the {MEMORY_CAP_BYTES}-byte memory cap"
        )
