"""The Clifford groups as exact elements and as complex stacks: test references.

``two-design --k 2`` takes only the traces of the group from its factors; the
tests enumerate it from the same factors, local pair major over the 20 coset
representatives of ``clifford._two_qubit_factors``.
"""

from functools import lru_cache

import numpy as np

from gptpurity import clifford


def entries(element: tuple[int, tuple]) -> tuple[complex, ...]:
    """The row-major complex entries of an element's unitary G / (1 + i)^k = G ((1 - i)/2)^k.

    They are dyadic Gaussian rationals, so no entry is rounded.
    """
    k, g = element
    scale = ((1 - 1j) / 2) ** k
    return tuple(x * scale for x in g)


@lru_cache(maxsize=None)
def two_qubit_elements():
    """The 11520 exact elements (k, G) (a (x) b) r, in the order of ``clifford_traces(2)``."""
    c1, reps = clifford._two_qubit_factors()
    return tuple(clifford._mul(clifford._kron(a, b), r) for a in c1 for b in c1 for r in reps)


@lru_cache(maxsize=None)
def two_qubit_unitaries():
    """``two_qubit_elements()`` as one read-only (11520, 4, 4) complex stack, with no entry
    rounded (``entries``)."""
    out = np.array([entries(e) for e in two_qubit_elements()]).reshape(-1, 4, 4)
    out.flags.writeable = False
    return out
