"""Exception types, the verdict type and the caps shared across the package.

A ``Check`` passes when its non-negative ``value`` is at most its ``bound``,
so a NaN value fails; it is the only pass/fail rule of the package.

What grows with a request (an estimate's per-sample arrays and its first
block, the exact integers of the power-law level count) is checked against
``MEMORY_CAP_BYTES`` by ``check_memory`` before it is allocated, and its work
against ``WORK_CAP_TERMS`` by ``check_work`` before it starts; an estimate is
checked by ``randomize._estimate`` alone, as a whole.  A term of the face
prediction's index sums is one pure-Python addition; a term of an estimate is
``blocks.PRODUCTS_PER_TERM`` = 512 elementwise numpy products of its kets'
pair sums, which took 0.7-1.6 us on a 2-core x86-64 VM (quantum 16 x 64 and
32 x 32, real 48 x 48, faces at n = 20 to 80), or 64 permuted classical
elements.  So one prediction, or one whole estimate, is capped at about 7-16 s.
"""

from typing import NamedTuple

# Largest single array a request may allocate when it grows with the request.
MEMORY_CAP_BYTES = 1 << 30
# Most terms a sum may take when it grows with the request: 9-15 s of
# `predict qface` on a 2-core x86-64 VM.
WORK_CAP_TERMS = 10**7
# Tolerance of the exact identities checked in floating point.
EXACT = 1e-12


class Check(NamedTuple):
    """A named non-negative deviation and the bound it must not exceed."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "passed": self.passed}


class GptPurityError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(GptPurityError, ValueError):
    """A builder was asked for a dimension outside its valid range."""


class RangeError(GptPurityError, ValueError):
    """A numeric argument lies outside its documented range."""


class UnsupportedSpaceError(GptPurityError, ValueError):
    """The requested operation is not defined for this space kind."""


class EmptyFaceError(GptPurityError, ValueError):
    """The requested face contains no states."""


class InternalError(GptPurityError):
    """An internal self-check failed; indicates a bug, not bad input."""


def check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, ``what`` needing more than ``MEMORY_CAP_BYTES``."""
    if nbytes > MEMORY_CAP_BYTES:
        raise RangeError(
            f"{what} would need {nbytes} bytes, over the {MEMORY_CAP_BYTES}-byte memory cap"
        )


def check_work(terms: int, what: str) -> None:
    """Refuse, before summing, ``what`` taking more than ``WORK_CAP_TERMS`` terms."""
    if terms > WORK_CAP_TERMS:
        raise RangeError(
            f"{what} would sum {terms} terms, over the {WORK_CAP_TERMS}-term work cap"
        )
