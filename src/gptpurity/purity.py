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


def pauli_identity_deviations(space: ss.Space, states: tuple) -> tuple[float, float]:
    """Largest deviations of the complete-set and collision identities over the states.

    The first is |(K - 1) mean_x X(omega)^2 - P|.  The second checks that
    the Pauli map X along the state's own Bloch direction, b/sqrt(P), which
    attains X(omega)^2 = P and so the largest probability 1/2 (1 + P) that
    two copies agree, is a measurement: X^2 <= 1 on every pure state.  The
    complete set holds the pure Bloch vectors up to sign, so that is
    <b, x>^2 <= <b, b> for each x of it; the value is the largest excess
    <b, x>^2 - <b, b>, or 0.
    """
    pset = complete_pauli_set(space)
    scale = ss.rational(len(space.mixed) - 1, len(pset))
    dev = cdev = 0.0
    for omega in states:
        b = ss.bloch(space, omega)
        c = ss.covector(space, b)
        p = ss.dot(c, b)
        squares = [d * d for d in (ss.dot(c, x) for x in pset)]
        dev = max(dev, abs(scale * sum(squares) - p))
        for sq in squares:
            # A zero excess is found exactly; any other is far from zero, so its float
            # keeps its sign.
            if not sq == p:
                cdev = max(cdev, abs(sq) - abs(p))
    return dev, cdev
