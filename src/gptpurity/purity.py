"""Generalized purity and complete sets of Pauli maps, exactly.

Purity is the Gram square <b, b> of a state's Bloch vector b = omega - mixed:
1 on pure states, 0 on the maximally mixed state.  A Pauli map is the
functional <x, omega - mixed> of a Bloch vector x of Gram norm 1; a complete
set of them has mean X(omega)^2 = purity / (K - 1).
"""

from __future__ import annotations

from . import statespace as ss

# A pure qubit state off every symmetry axis: its Bloch vector (12, 15, 16)/25 has unit length.
OFF_AXIS_QUBIT = (1, ss.rational(12, 25), ss.rational(3, 5), ss.rational(16, 25))


def purity(space: ss.Space, omega: tuple) -> object:
    """Squared Gram length of the Bloch vector of a normalized state."""
    b = ss.bloch(space, omega)
    return ss.dot(ss.covector(space, b), b)


def purity_from_tr2(n: int, tr_sq: float) -> float:
    """Convert the quantum collision value Tr(rho^2) on C^n to purity."""
    return (n * tr_sq - 1.0) / (n - 1.0)


def tr2_from_purity(n: int, p: float) -> float:
    """Inverse conversion: Tr(rho^2) = ((n-1) P + 1) / n."""
    return ((n - 1.0) * p + 1.0) / n


def complete_pauli_set(space: ss.Space) -> tuple:
    """The vectors x of the canonical complete set of Pauli maps: the Bloch vectors of the
    pure states, one from each antipodal pair (the qubit's z, x and y; the classical
    read-outs; all n vertices of an odd polygon, the first n/2 of an even one)."""
    pset = []
    for v in space.pures:
        b = ss.bloch(space, v)
        if tuple(-1 * a for a in b) not in pset:
            pset.append(b)
    return tuple(pset)


def pauli_identity_deviations(space: ss.Space, states: tuple) -> tuple[object, object]:
    """Largest deviations of the complete-set and collision identities over the states.

    The first is |(K - 1) mean_x X(omega)^2 - P|.  The second is
    |1/2 (1 + X(omega)^2) - 1/2 (1 + P)| for the Pauli map X along the state's
    own Bloch direction, b/sqrt(P), which attains the largest probability
    that two copies agree: X(omega)^2 = <b, b>^2/P, so the deviation is
    |<b, b>^2 - P^2|/(2 P) (0 for a state without a direction).
    """
    covectors = [ss.covector(space, x) for x in complete_pauli_set(space)]
    scale = ss.rational(len(space.mixed) - 1, len(covectors))
    dev = cdev = 0
    for omega in states:
        b, p = ss.bloch(space, omega), purity(space, omega)
        values = [ss.dot(c, b) for c in covectors]
        dev = max(dev, abs(scale * sum(v * v for v in values) - p))
        norm = ss.dot(ss.covector(space, b), b)
        if miss := abs(norm * norm - p * p):
            cdev = max(cdev, miss / 2 / abs(p))
    return dev, cdev

