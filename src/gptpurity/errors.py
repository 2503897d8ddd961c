"""Exception types, the verdict type and the caps shared across the package.

A ``Check`` passes when its non-negative ``value`` is at most its ``bound``,
so a NaN value fails; it is the only pass/fail rule of the package.

What grows with a request (an estimate's per-sample arrays and its first
block, the exact integers of the power-law level count) is checked against
``MEMORY_CAP_BYTES`` by ``check_memory`` before it is allocated, and its work
against ``WORK_CAP_PRODUCTS`` by ``check_work`` before it starts; an estimate
is checked by ``randomize._estimate`` alone, as a whole.  Its work is counted
in elementwise numpy products of its kets' pair sums, 1.4-3.1 ns each on a
2-core x86-64 VM (quantum 16 x 64 and 32 x 32, real 48 x 48, faces at n = 20
to 80), or ``blocks.PRODUCTS_PER_ELEMENT`` per permuted classical element.
So one whole estimate is capped at about 7-16 s.  Every closed form is
arithmetic on its inputs and needs no work cap.
"""

from typing import NamedTuple

# Largest single array a request may allocate when it grows with the request.
MEMORY_CAP_BYTES = 1 << 30
# Most elementwise products an estimate may take: 7-16 s on a 2-core x86-64 VM.
WORK_CAP_PRODUCTS = 512 * 10**7
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


class RangeError(GptPurityError, ValueError):
    """An input lies outside the range its function or formula is defined on."""


class InternalError(GptPurityError):
    """An internal self-check failed; indicates a bug, not bad input."""


def check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, ``what`` needing more than ``MEMORY_CAP_BYTES``."""
    if nbytes > MEMORY_CAP_BYTES:
        raise RangeError(
            f"{what} would need {nbytes} bytes, over the {MEMORY_CAP_BYTES}-byte memory cap"
        )


def check_work(products: int, what: str) -> None:
    """Refuse, before it starts, ``what`` taking more than ``WORK_CAP_PRODUCTS`` products."""
    if products > WORK_CAP_PRODUCTS:
        raise RangeError(
            f"{what} would take {products} products, over the {WORK_CAP_PRODUCTS}-product work cap"
        )


def check_run(n_samples: int, seed: int) -> None:
    """Refuse a run of fewer than 2 samples, then one with a negative seed."""
    if n_samples < 2:
        raise RangeError(f"need at least 2 samples for a standard error, got {n_samples}")
    if seed < 0:
        raise RangeError(f"the seed must be non-negative, got {seed}")
