"""Generalized purity and Pauli maps.

Purity of a state is the squared length of its Bloch vector under the
invariant inner product, normalized so pure states have purity 1 and the
maximally mixed state purity 0.  A Pauli map is a unit-norm linear functional
on the Bloch subspace; a complete set of Paulis is a finite group orbit of
one such map (signs quotiented) whose mean-square values reproduce
purity / (K - 1).  ``pauli_identity_deviations`` checks that identity and the
collision identity on a whole stack of states at once.  ``purity_from_tr2`` and
``tr2_from_purity`` convert a quantum collision value Tr(rho^2) to purity and back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from gptpurity.errors import RangeError

from . import DegenerateDirectionError, grouprep
from . import statespace as ss
from .grouprep import GramMatrix
from .statespace import SpaceDescriptor

# Purity below which a state counts as maximally mixed: it has no Bloch
# direction, so no Pauli map attains its collision probability.
MIXED_PURITY_FLOOR = 1e-18


def purity(space: SpaceDescriptor, gram: GramMatrix, omega: np.ndarray) -> float:
    """Squared Gram length of the Bloch vector of a normalized state."""
    b = space.bloch(omega)
    return gram.norm_sq(b)


def purity_from_tr2(n: int, tr_sq: float) -> float:
    """Convert the quantum collision value Tr(rho^2) on C^n to purity."""
    return (n * tr_sq - 1.0) / (n - 1.0)


def tr2_from_purity(n: int, p: float) -> float:
    """Inverse conversion: Tr(rho^2) = ((n-1) P + 1) / n."""
    return ((n - 1.0) * p + 1.0) / n


# -- Pauli maps -------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PauliMap:
    """A unit-Gram-norm linear functional vanishing on the maximally mixed state.

    ``vector`` is the Bloch-space representer X-hat; evaluation on a state is
    the Gram inner product of ``vector`` with the state's Bloch vector.
    """

    space: SpaceDescriptor
    gram: GramMatrix
    vector: np.ndarray
    covector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", ss._frozen(np.asarray(self.vector, dtype=float)))
        object.__setattr__(self, "covector", ss._frozen(self.gram.apply(self.vector)))

    def evaluate_many(self, states: np.ndarray) -> np.ndarray:
        """Evaluate on a stack of states, shape (m, K)."""
        return np.einsum("mk,k->m", np.asarray(states) - self.space.max_mixed, self.covector)


def pauli_vectors(space: SpaceDescriptor, gram: GramMatrix, directions: np.ndarray) -> np.ndarray:
    """Normalize each row of a (m, K) stack of directions to a Pauli-map vector.

    A row is projected onto the Bloch subspace (``statespace.project_off``,
    O(K)) and divided by its Gram norm.
    """
    v = ss.project_off(np.asarray(directions, dtype=float), space.order_unit)
    nsq = gram.norms_sq(v)
    if np.any(nsq < 1e-24):
        raise DegenerateDirectionError("zero direction has no associated Pauli map")
    return v / np.sqrt(nsq)[:, None]


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Pauli matrices, e.g. ``"XZ"``."""
    m = _PAULI_1Q[label[0]]
    for ch in label[1:]:
        m = np.kron(m, _PAULI_1Q[ch])
    return m


def complete_pauli_set(
    space: SpaceDescriptor, gram: GramMatrix | None = None
) -> tuple[PauliMap, ...]:
    """The canonical complete set of Paulis for a supported space, as a tuple of maps.

    Quantum k qubits: the 4^k - 1 non-identity Pauli-string maps
    rho -> Tr(sigma rho) / sqrt(2^k - 1), enumerated lexicographically over
    {I, X, Y, Z}^k.  Classical n: the n component read-outs
    p -> p_i - (sum_{j != i} p_j) / (n - 1).  Polygons: the vertices' Bloch
    vectors, one from each antipodal pair: the first n for odd n, the first
    n/2 for even n (the square's two coordinates).
    """
    gram = grouprep.analytic_gram(space) if gram is None else gram
    if space.kind == ss.KIND_QUANTUM:
        n = space.level
        k = n.bit_length() - 1
        if 2**k != n:
            raise RangeError(
                f"complete Pauli sets need a qubit register; level {n} is not a power of 2"
            )
        # Every string but the leading identity, as one to_coords stack.
        labels = ["".join(letters) for letters in itertools.product("IXYZ", repeat=k)][1:]
        vecs = space.to_coords(math.sqrt(n - 1) / n * np.stack([pauli_string(s) for s in labels]))
        return tuple(PauliMap(space=space, gram=gram, vector=v) for v in vecs)
    if space.kind == ss.KIND_CLASSICAL:
        n = space.level
        maps = []
        for i in range(n):
            vec = np.full(n, -1.0 / n)
            vec[i] = (n - 1.0) / n
            maps.append(PauliMap(space=space, gram=gram, vector=vec))
        return tuple(maps)
    if space.kind == ss.KIND_POLYGON:
        n = space.level
        blochs = space.bloch(space.vertices[:n if n % 2 else n // 2])
        return tuple(PauliMap(space=space, gram=gram, vector=v) for v in blochs)
    raise RangeError(f"no complete Pauli set for kind {space.kind!r}")


def purity_via_pauli_set(pset: tuple[PauliMap, ...], omega: np.ndarray) -> float | np.ndarray:
    """Purity reconstructed from a complete set: (K-1) * mean of X(omega)^2.

    ``omega`` is one state, or a (m, K) stack with one purity per row; the
    set's stacked covectors act on all of it in one ``einsum``.
    """
    space = pset[0].space
    covectors = np.stack([x.covector for x in pset])
    vals = np.einsum("...k,xk->...x", np.asarray(omega, dtype=float) - space.max_mixed, covectors)
    p = (space.K - 1) * np.mean(vals**2, axis=-1)
    return float(p) if p.ndim == 0 else p


def pauli_haar_average(elements: np.ndarray, x: PauliMap, omega: np.ndarray) -> float:
    """Mean of (X o T)(omega)^2 over a (|G|, K, K) stack of group elements, summed exactly.

    Equals purity(omega) / (K - 1) for any Pauli map on an irreducible space
    when the stack is the whole group, or a 2-design such as
    ``grouprep.clifford_elements``.
    """
    omega = np.asarray(omega, dtype=float)
    vals = x.evaluate_many(np.einsum("bkl,l->bk", elements, omega)) ** 2
    return float(vals.mean(axis=0))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("mk,mk->m", x, y)


def pauli_identity_deviations(space: SpaceDescriptor,
                              states: np.ndarray) -> tuple[float, float]:
    """Largest deviations of the complete-Pauli-set and collision identities.

    Over the rows of a (m, K) stack of states, the first is
    |(purity via the complete set) - P|.  The second is the larger of two
    deviations for the Pauli map X along the state's own Bloch direction,
    which should attain the largest probability that two copies agree,
    (1 + P)/2 (1/2 for a state without a direction):
    |1/2 (1 + X(omega)^2) - 1/2 (1 + P)|, and, as in the exact row, the
    largest excess <b, x>^2 - <b, b> over the maps x of the complete set, or
    0, which is positive when X is no measurement.  The first part holds for
    a Gram of any scale, since X is normalized by the Gram it checks; the
    second fails a Gram that gives pure states a purity above 1.  Every term
    is computed for the whole stack at once.
    """
    gram = grouprep.analytic_gram(space)
    pset = complete_pauli_set(space, gram)
    b = space.bloch(states)
    p = gram.norms_sq(b)
    dev = np.max(np.abs(purity_via_pauli_set(pset, states) - p), initial=0.0)
    attained = np.full(len(b), 0.5)
    directed = p >= MIXED_PURITY_FLOOR
    x = gram.apply(pauli_vectors(space, gram, b[directed]))
    attained[directed] = 0.5 * (1.0 + _row_dots(x, b[directed]) ** 2)
    squares = np.einsum("mk,xk->mx", b, np.stack([y.covector for y in pset])) ** 2
    excess = np.max(squares, axis=1) - p
    cdev = max(np.max(np.abs(attained - 0.5 * (1.0 + p)), initial=0.0),
               np.max(excess, initial=0.0))
    return float(dev), float(cdev)
