"""Classical subsystems: capacity witnesses and the centered-subsystem identities.

A capacity witness is a maximal set of perfectly distinguishable pure states;
``centered_deviations`` measures how far one is from a centered classical
subsystem.  The effects that tell the states apart, and the tensor composites
with their constant P(phi_A (x) mu_B) = (N_A-1)/(N_A N_B-1), a closed form in
``formulas``, are test references.
"""

from __future__ import annotations

from . import statespace as ss


def capacity_witness(space: ss.Space) -> tuple:
    """The pure states of a maximal classical subsystem: the outcomes; the qubit's |0> and
    |1>, its first and last Pauli eigenstates; a polygon's vertex 0 and vertex (n+1)//2,
    its antipode for even n (centered) and the most opposite vertex for odd n (not)."""
    if space.kind == ss.KIND_CLASSICAL:
        return space.pures
    if space.kind == ss.KIND_QUANTUM:
        return space.pures[0], space.pures[-1]
    return space.pures[0], space.pures[(space.level + 1) // 2]


def centered_deviations(space: ss.Space, states: tuple) -> tuple[object, object]:
    """max |(1/n) sum omega_i - mu| over coordinates, and max |<b_i, b_j> + 1/(n-1)| over
    the Bloch vectors b of pairs i != j."""
    n = len(states)
    center = max(abs(ss.rational(1, n) * sum(coords) - mu)
                 for coords, mu in zip(zip(*states), space.mixed))
    blochs = [ss.bloch(space, s) for s in states]
    covectors = [ss.covector(space, b) for b in blochs]
    off = max(abs(ss.dot(c, b) + ss.rational(1, n - 1))
              for i, c in enumerate(covectors) for j, b in enumerate(blochs) if i != j)
    return center, off
