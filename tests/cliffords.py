"""The Clifford groups as exact elements and as complex stacks: test references.

The trace oracle ``clifford_traces(2)`` takes only the traces of the group
from its factors; the tests enumerate it from the same factors, local pair
major over the 20 coset representatives of ``clifford._two_qubit_factors``,
and read each element's conjugation of the Pauli coordinates (``pauli_maps``).
"""

from functools import lru_cache

import numpy as np

from reference import clifford


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


_PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def pauli_maps(us: np.ndarray) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The ``gptpurity.grouprep`` map of each unitary of a (m, 2^k, 2^k) stack on the 4^k Pauli
    coordinates, P (x) Q at 4 P + Q: U P U^dag = (-1)^e[q] Q for the q with p[q] = P.

    Coefficient (q, p) is Tr(Q U P U^dag) / 2^k, with Q and P the Paulis of
    coordinates q and p.  Every entry of a Clifford stack is dyadic, so each
    coefficient is 0 or +-1 with no rounding.
    """
    d = us.shape[-1]
    paulis = _PAULIS
    while len(paulis) < d * d:
        n = 2 * paulis.shape[-1]
        paulis = np.einsum("aij,bkl->abikjl", paulis, _PAULIS).reshape(-1, n, n)
    # coeff[g, q, p], one Pauli P at a time.
    coeff = np.stack([np.einsum("qji,gij->gq", paulis, us @ p @ us.conj().transpose(0, 2, 1))
                      for p in paulis], axis=-1).real / d
    perm = np.argmax(np.abs(coeff), axis=-1)
    signs = np.take_along_axis(coeff, perm[..., None], axis=-1)[..., 0] < 0
    return [(tuple(map(int, p)), tuple(map(int, e))) for p, e in zip(perm, signs)]
